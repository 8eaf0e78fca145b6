"""Dense real tensors and the multilinear operations built on them.

The storage convention lives here and only here.  A tensor with dimensions
``(d_1, ..., d_k)`` keeps its entries in a single flat float64 buffer in
row-major order: index ``(j_1, ..., j_k)`` sits at offset

    j_1 * (d_2 * ... * d_k) + j_2 * (d_3 * ... * d_k) + ... + j_k

so the last index varies fastest.  Every operation works on the shaped
read-only numpy view of that buffer.  Modes are numbered from zero in the
API; error messages render them one-based.

Each single-mode contraction in the per-call kernels is the
``(rest, d) @ (d, 1)`` ``np.dot`` that ``np.tensordot`` makes internally,
called directly so results match the tensordot form bit for bit without
its per-call bookkeeping.
"""

from itertools import combinations_with_replacement, permutations, product
from math import factorial
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, DomainError, ModeError, SymmetryError

__all__ = [
    "DenseTensor",
    "multilinear_eval",
    "multilinear_transform",
    "partial_contraction",
    "pair_contraction",
    "homogeneous_eval",
    "homogeneous_gradient",
    "is_symmetric",
    "symmetrize",
]


class DenseTensor:
    """Immutable dense real tensor of order >= 2.

    Instances own a read-only float64 buffer, so they are safe to share
    between threads; every operation on them is a pure function.
    """

    __slots__ = ("_array",)

    def __init__(self, dims, values):
        dims = tuple(int(d) for d in dims)
        if len(dims) < 2:
            raise DimensionError(f"tensor order must be at least 2, got {len(dims)}")
        if any(d < 1 for d in dims):
            raise DimensionError(f"all dimensions must be positive, got {dims}")
        arr = np.asarray(values, dtype=float).reshape(-1)
        expected = int(np.prod(dims))
        if arr.size != expected:
            raise DimensionError(
                f"dims {dims} require {expected} values, got {arr.size}"
            )
        if not np.all(np.isfinite(arr)):
            raise DomainError("tensor entries must be finite (no NaN or Inf)")
        shaped = arr.copy().reshape(dims)
        shaped.flags.writeable = False
        self._array = shaped

    @classmethod
    def from_array(cls, arr):
        """Build a tensor from any array-like of order >= 2."""
        arr = np.asarray(arr, dtype=float)
        return cls(arr.shape, arr.reshape(-1))

    @property
    def dims(self):
        return self._array.shape

    @property
    def order(self):
        return self._array.ndim

    @property
    def array(self):
        """Read-only shaped view of the entries."""
        return self._array

    @property
    def values(self):
        """Read-only flat view, row-major with the last index fastest."""
        return self._array.reshape(-1)

    def is_cubical(self):
        return len(set(self.dims)) == 1

    def is_zero(self):
        return not self._array.any()

    def to_json_dict(self):
        """The on-disk text form: {"dims": [...], "values": [...]}."""
        return {"dims": list(self.dims), "values": [float(v) for v in self.values]}

    @classmethod
    def from_json_dict(cls, obj):
        try:
            dims = obj["dims"]
            values = obj["values"]
        except (TypeError, KeyError) as exc:
            raise DimensionError(
                'tensor object must have "dims" and "values" fields'
            ) from exc
        return cls(dims, values)

    def __getitem__(self, idx):
        return self._array[idx]

    def __repr__(self):
        return f"DenseTensor(dims={self.dims})"


class Layout(NamedTuple):
    """How the unit vectors ("blocks") of a critical-point problem fill a tensor.

    Singular tuples and l^p eigenpairs are both critical points of one
    multilinear form on a product of unit l^p spheres.  ``exps[b]`` is the
    norm exponent of block b, ``slots[j]`` the block in tensor slot j, and
    ``rows[b]`` the slot whose contraction gives block b's equations.
    """

    exps: tuple
    slots: tuple
    rows: tuple

    @classmethod
    def singular(cls, exps):
        """One block per mode, each giving the equations of its own slot."""
        modes = tuple(range(len(exps)))
        return cls(exps, modes, modes)

    @classmethod
    def eigen(cls, p, order, mode):
        """One block in every slot, with the identity in slot ``mode``."""
        return cls((p,), (0,) * order, (mode,))

    def block_dims(self, dims):
        """The length of each block, read off the tensor dimensions ``dims``."""
        return [dims[self.slots.index(b)] for b in range(len(self.exps))]


def _check_mode(A, mode):
    if not 0 <= mode < A.order:
        raise ModeError(
            f"mode {mode + 1} out of range for an order-{A.order} tensor"
        )


def _as_vector(x, length, mode):
    # the solvers' own vectors pass as they are: for them the conversion
    # below would only make a view of the same data
    if (
        type(x) is np.ndarray
        and x.ndim == 1
        and x.dtype == np.float64
        and x.shape[0] == length
    ):
        return x
    v = np.asarray(x, dtype=float).reshape(-1)
    if v.size != length:
        raise DimensionError(
            f"mode {mode + 1}: expected a vector of length {length}, got {v.size}"
        )
    return v


def _check_vectors(A, xs, skip=None):
    if len(xs) != A.order:
        raise DimensionError(
            f"expected {A.order} vectors, one per mode, got {len(xs)}"
        )
    dims = A.dims
    return [
        None if i == skip else _as_vector(x, dims[i], i) for i, x in enumerate(xs)
    ]


def _contract_trailing(out, vs, modes):
    """Contract the last axis of ``out`` with ``vs[j]`` for j in reversed ``modes``.

    Each step is the ``(rest, d) @ (d, 1)`` dot that
    ``np.tensordot(out, v, axes=([out.ndim - 1], [0]))`` makes, so the
    result is the tensordot chain's bit for bit.
    """
    for j in reversed(modes):
        v = vs[j]
        d = v.shape[0]
        out = np.dot(out.reshape(-1, d), v.reshape(d, 1)).reshape(out.shape[:-1])
    return out


def multilinear_eval(A, xs):
    """Evaluate the multilinear functional of ``A`` at one vector per mode.

    Linear in each argument; for a matrix this is the bilinear form
    ``x^T A y``.  Modes are contracted first to last, each as the
    ``(rest, d) @ (d, 1)`` dot that ``np.tensordot(out, v, axes=([0], [0]))``
    makes, so the value matches that chain bit for bit.
    """
    vs = _check_vectors(A, xs)
    out = A.array
    for v in vs:
        d = v.shape[0]
        cycled = out.transpose(tuple(range(1, out.ndim)) + (0,))
        out = np.dot(cycled.reshape(-1, d), v.reshape(d, 1)).reshape(out.shape[1:])
    return float(out)


def multilinear_transform(A, Ms):
    """Multiply ``A`` on every mode at once by the matrices ``Ms``.

    ``Ms[i]`` must have ``dims[i]`` rows; the result has shape given by the
    column counts.  A 1-D argument is treated as a single-column matrix, so
    transforming by k column vectors yields a 1x...x1 tensor whose sole
    entry is ``multilinear_eval(A, xs)``.

    Implemented as k successive single-mode contractions rather than one
    deep loop nest; the two agree exactly on integer-valued input.
    """
    if len(Ms) != A.order:
        raise DimensionError(
            f"expected {A.order} matrices, one per mode, got {len(Ms)}"
        )
    mats = []
    for i, M in enumerate(Ms):
        M = np.asarray(M, dtype=float)
        if M.ndim == 1:
            M = M[:, None]
        if M.ndim != 2:
            raise DimensionError(f"mode {i + 1}: expected a matrix, got ndim={M.ndim}")
        if M.shape[0] != A.dims[i]:
            raise DimensionError(
                f"mode {i + 1}: matrix must have {A.dims[i]} rows, got {M.shape[0]}"
            )
        if M.shape[1] < 1:
            raise DimensionError(f"mode {i + 1}: matrix must have at least one column")
        mats.append(M)
    out = A.array
    for M in mats:
        # contracting axis 0 each time cycles the result into mode order
        out = np.tensordot(out, M, axes=([0], [0]))
    return DenseTensor.from_array(out)


def partial_contraction(A, xs, mode):
    """Contract every mode except ``mode`` with its vector.

    Returns the length-``dims[mode]`` vector obtained by leaving an identity
    slot at ``mode``; this equals the gradient of ``multilinear_eval`` with
    respect to the mode-th argument.  ``xs[mode]`` is ignored and may be
    ``None``.

    Trailing modes are contracted first, in the same relative order for
    every choice of ``mode``, so on a symmetric tensor with equal vectors
    the result is bit-for-bit identical across modes.  Each contraction is
    the ``(rest, d) @ (d, 1)`` dot that ``np.tensordot`` makes, so the
    result matches the ``np.moveaxis`` + ``np.tensordot`` form bit for bit.
    """
    _check_mode(A, mode)
    vs = _check_vectors(A, xs, skip=mode)
    others = [j for j in range(A.order) if j != mode]
    return _contract_trailing(A.array.transpose([mode] + others), vs, others)


def pair_contraction(A, xs, mode_i, mode_j):
    """Contract every mode except ``mode_i`` and ``mode_j`` with its vector.

    Returns the ``dims[mode_i] x dims[mode_j]`` matrix with identity slots
    at both modes; this is the mixed second derivative of
    ``multilinear_eval``.  Used to assemble Jacobians of stationarity
    systems.  Contractions run trailing modes first, each as the
    ``(rest, d) @ (d, 1)`` dot that ``np.tensordot`` makes, so the result
    matches the ``np.moveaxis`` + ``np.tensordot`` form bit for bit.
    """
    _check_mode(A, mode_i)
    _check_mode(A, mode_j)
    if mode_i == mode_j:
        raise ModeError("pair_contraction needs two distinct modes")
    k = A.order
    if len(xs) != k:
        raise DimensionError(f"expected {k} vectors, one per mode, got {len(xs)}")
    vecs = [None] * k
    for j in range(k):
        if j not in (mode_i, mode_j):
            vecs[j] = _as_vector(xs[j], A.dims[j], j)
    others = [j for j in range(k) if j not in (mode_i, mode_j)]
    return _contract_trailing(
        A.array.transpose([mode_i, mode_j] + others), vecs, others
    )


def homogeneous_eval(A, x):
    """Evaluate the degree-k polynomial ``A(x, ..., x)`` of a cubical tensor."""
    if not A.is_cubical():
        raise DimensionError(f"homogeneous evaluation needs a cubical tensor, got dims {A.dims}")
    return multilinear_eval(A, [x] * A.order)


def homogeneous_gradient(A, x, trust_symmetry=False):
    """Gradient of ``A(x, ..., x)``: k times the mode-0 partial contraction.

    Only valid when ``A`` is symmetric; pass ``trust_symmetry=True`` to skip
    the check when the caller already knows.
    """
    if not trust_symmetry and not is_symmetric(A):
        raise SymmetryError("homogeneous_gradient needs a symmetric tensor")
    return A.order * partial_contraction(A, [x] * A.order, 0)


def is_symmetric(A, atol=None):
    """True iff ``A`` is cubical and invariant under all index permutations.

    Comparison is exact by default; pass ``atol`` to allow a small absolute
    slack for tensors read from rounded text.
    """
    if not A.is_cubical():
        return False
    arr = A.array
    for perm in permutations(range(A.order)):
        swapped = np.transpose(arr, perm)
        if atol is None:
            if not np.array_equal(arr, swapped):
                return False
        elif not np.allclose(arr, swapped, rtol=0.0, atol=atol):
            return False
    return True


def symmetrize(A):
    """Average ``A`` over all index permutations.

    The output is exactly symmetric: each orbit average is computed once,
    from the sorted representative, and written to every member of the
    orbit.  ``A(x, ..., x)`` is preserved up to rounding.  Cost grows like
    n^k * k!, fine at desk scale.
    """
    if not A.is_cubical():
        raise DimensionError(f"symmetrize needs a cubical tensor, got dims {A.dims}")
    n = A.dims[0]
    k = A.order
    arr = A.array
    perms = list(permutations(range(k)))
    kfact = float(factorial(k))
    rep_value = {}
    for rep in combinations_with_replacement(range(n), k):
        total = 0.0
        for perm in perms:
            total += arr[tuple(rep[p] for p in perm)]
        rep_value[rep] = total / kfact
    out = np.empty(A.dims)
    for idx in product(range(n), repeat=k):
        out[idx] = rep_value[tuple(sorted(idx))]
    return DenseTensor.from_array(out)
