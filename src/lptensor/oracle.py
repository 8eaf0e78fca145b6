"""Independent brute-force verification machinery.

Three oracles live here, deliberately separate from the solver modules
they cross-check:

* ``enumerate_critical_points`` seeds a dense angular grid on the product
  of unit spheres and polishes every seed with a damped Gauss-Newton
  (Levenberg-Marquardt) iteration on the stationarity-plus-normalization
  system, batched over chunks of 20,000 seeds.  Singular tuples and
  eigenpairs are one problem here: a ``core.Layout`` says how the unit
  vectors fill the tensor's slots, and one batched system, one polish and
  one canonicalize+dedup serve both kinds.  Critical points come in sign
  orbits (flipped mode vectors, a negated eigenvector), so at even
  resolution each sphere grid keeps one point of every antipodal pair.
  Any critical point whose sign orbit's basin meets the grid shows up;
  completeness is checked by cross-tests, not proven.
* ``dense_baseline_svd`` / ``dense_baseline_symeig`` are from-scratch
  Jacobi decompositions used as the order-2 ground truth.
* ``hyperdet_222`` is Cayley's quartic for 2x2x2 tensors, whose vanishing
  characterizes the existence of a zero l^2 singular value.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .core import DenseTensor, Layout, _check_mode, multilinear_eval
from .eigen import eigen_residual
from .errors import (
    ConvergenceWarning,
    DimensionError,
    ParameterError,
    SizeLimitError,
    SymmetryError,
    ZeroTensorError,
)
from .pnorm import PNormSpec
from .singular import singular_residual

__all__ = [
    "CriticalPoint",
    "enumerate_critical_points",
    "hyperdet_222",
    "dense_baseline_svd",
    "dense_baseline_symeig",
]

_LETTERS = "abcdefgh"
_SEED_BUDGET = 10_000_000
_SEED_CHUNK = 20_000
_ORACLE_TOL = 1e-9
# its own copy, not config's: the oracle must stay independent of the solvers
_DEDUP_TOL = 1e-6
_MATRIX_LIMIT = 64


@dataclass(frozen=True)
class CriticalPoint:
    """One polished critical point of the constrained multilinear form."""

    vectors: tuple
    value: float
    kind: str
    residual: float


# ---------------------------------------------------------------------------
# batched helpers (seeds stacked along a leading axis z)


def _spow(X, q):
    return np.sign(X) * np.abs(X) ** q


def _spow_deriv(X, q):
    if q > 1:
        return q * np.abs(X) ** (q - 1)
    return np.ones_like(X)


def _contract_batched(arr, Xs, free=()):
    """Contract every slot of ``arr`` but ``free`` with its row of ``Xs``, per seed."""
    others = [m for m in range(arr.ndim) if m not in free]
    if not others:
        # an order-2 pair: both slots free, the same matrix for every seed
        base = arr if free[0] < free[1] else arr.T
        return np.broadcast_to(base, (Xs[free[0]].shape[0],) + base.shape)
    subs = [_LETTERS[:arr.ndim]] + ["z" + _LETTERS[m] for m in others]
    out = "z" + "".join(_LETTERS[m] for m in free)
    return np.einsum(
        ",".join(subs) + "->" + out, arr, *[Xs[m] for m in others], optimize=False
    )


class _System:
    """Batched residual/Jacobian of the stationarity + normalization system.

    Unknowns are the blocks of ``layout``, concatenated, then the value.
    Block b's equations contract slot ``rows[b]``, with slot j filled by
    block ``slots[j]``; each block adds its normalization equation.
    """

    def __init__(self, A, layout):
        self.arr = A.array
        self.layout = layout
        self.dims = layout.block_dims(A.dims)
        self.offsets = np.concatenate([[0], np.cumsum(self.dims)])

    def split(self, Z):
        off = self.offsets
        return [Z[:, off[b]:off[b + 1]] for b in range(len(self.dims))], Z[:, -1]

    def residual(self, Z):
        Xs, lam = self.split(Z)
        args = [Xs[s] for s in self.layout.slots]
        blocks = []
        for b, i in enumerate(self.layout.rows):
            g = _contract_batched(self.arr, args, (i,))
            blocks.append(g - lam[:, None] * _spow(Xs[b], self.layout.exps[b] - 1))
        for X, p in zip(Xs, self.layout.exps):
            blocks.append((np.sum(np.abs(X) ** p, axis=1) - 1.0)[:, None])
        return np.concatenate(blocks, axis=1)

    def jacobian(self, Z):
        Xs, lam = self.split(Z)
        exps, slots = self.layout.exps, self.layout.slots
        args = [Xs[s] for s in slots]
        off, N = self.offsets, Z.shape[0]
        J = np.zeros((N, off[-1] + len(self.dims), off[-1] + 1))
        for b, i in enumerate(self.layout.rows):
            own = slice(off[b], off[b + 1])
            diag = np.arange(self.dims[b])
            q = exps[b] - 1
            # a block in other slots too (the eigen kind) sums its own-block
            # terms in a zeroed temporary: += into strided J slices is slower
            D = np.zeros((N, self.dims[b], self.dims[b])) if slots.count(b) > 1 else None
            for j, c in enumerate(slots):
                if j == i:
                    continue
                pair = _contract_batched(self.arr, args, (i, j))
                if c == b:
                    D += pair
                else:
                    J[:, own, off[c]:off[c + 1]] = pair
            if D is None:
                J[:, off[b] + diag, off[b] + diag] = -lam[:, None] * _spow_deriv(Xs[b], q)
            else:
                D[:, diag, diag] -= lam[:, None] * _spow_deriv(Xs[b], q)
                J[:, own, own] = D
            J[:, own, -1] = -_spow(Xs[b], q)
            J[:, off[-1] + b, own] = exps[b] * _spow(Xs[b], q)
        return J


def _levenberg_polish(system, Z0, iters=80):
    """Batched damped Gauss-Newton; accepted steps never raise the cost.

    Seeds leave the active set once they converge (cost below 1e-26) or
    stall (damping at its cap), so late iterations only touch stragglers.
    """
    Z = Z0.copy()
    F = system.residual(Z)
    cost = np.einsum("ze,ze->z", F, F)
    nvar = Z.shape[1]
    mu = np.full(Z.shape[0], 1e-4)
    eye = np.eye(nvar)
    live = np.flatnonzero(cost > 1e-26)
    for _ in range(iters):
        if live.size == 0:
            break
        Zl, Fl, mul = Z[live], F[live], mu[live]
        J = system.jacobian(Zl)
        grad = np.einsum("zev,ze->zv", J, Fl)
        H = np.einsum("zev,zew->zvw", J, J)
        lhs = H + mul[:, None, None] * eye
        try:
            step = -np.linalg.solve(lhs, grad[..., None])[..., 0]
        except np.linalg.LinAlgError:
            mu[live] = np.minimum(mul * 10.0, 1e12)
            continue
        Zt = Zl + step
        Ft = system.residual(Zt)
        cost_t = np.einsum("ze,ze->z", Ft, Ft)
        better = np.isfinite(cost_t) & (cost_t < cost[live])
        hit = live[better]
        Z[hit] = Zt[better]
        F[hit] = Ft[better]
        cost[hit] = cost_t[better]
        mu[live] = np.where(
            better, np.maximum(mul * 0.33, 1e-14), np.minimum(mul * 10.0, 1e12)
        )
        live = live[(cost[live] > 1e-26) & (mu[live] < 1e11)]
    return Z, cost


def _full_sphere_grid(d, resolution, p):
    """Unit l^p points covering the directions of R^d, d in {1, 2, 3}."""
    if resolution < 1:
        raise ParameterError(f"resolution must be >= 1, got {resolution}")
    if d == 1:
        pts = np.array([[1.0]])
    elif d == 2:
        theta = np.linspace(0.0, 2.0 * np.pi, resolution, endpoint=False)
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    elif d == 3:
        polar = (np.arange(resolution) + 0.5) * np.pi / resolution
        azimuth = np.linspace(0.0, 2.0 * np.pi, resolution, endpoint=False)
        T, F = np.meshgrid(polar, azimuth, indexing="ij")
        pts = np.stack(
            [np.sin(T) * np.cos(F), np.sin(T) * np.sin(F), np.cos(T)], axis=-1
        ).reshape(-1, 3)
    else:
        raise SizeLimitError(
            f"angular seeding handles mode dimensions up to 3, got {d}"
        )
    return _renormalize_rows(pts, p)


def _sphere_grid(d, resolution, p):
    """One point of each antipodal pair of the full grid, where it has pairs.

    At even resolution and d >= 2 the full grid is antipodally symmetric;
    its first half (angles below pi at d = 2, the upper hemisphere's polar
    rows at d = 3, which lead the polar-major layout) holds one point of
    every pair.  Critical points come in sign orbits and the polish
    commutes with negation, so the other half only repeats them.
    """
    pts = _full_sphere_grid(d, resolution, p)
    if d > 1 and resolution % 2 == 0:
        pts = pts[: pts.shape[0] // 2]
    return pts


def _renormalize_rows(X, p):
    norms = np.sum(np.abs(X) ** p, axis=1) ** (1.0 / p)
    return X / norms[:, None]


def _leading_signs(X):
    """Orientation by the first component within a factor 10 of the largest."""
    absX = np.abs(X)
    idx = (absX >= 0.1 * absX.max(axis=1, keepdims=True)).argmax(axis=1)
    lead = X[np.arange(X.shape[0]), idx]
    signs = np.where(lead < 0, -1.0, 1.0)
    return signs


def enumerate_critical_points(A, pnorms=2, kind="singular", resolution=40, mode=0):
    """Grid-seeded polish of the full stationarity system.

    :param A: DenseTensor; every mode dimension must be at most 3.
    :param pnorms: norm exponents (int, sequence, or PNormSpec).  The
        eigen kind uses a single exponent, so all entries must agree.
    :param kind: "singular" (k mode vectors and sigma) or "eigen" (one
        vector and lambda, identity in slot ``mode``).
    :param resolution: points per angular coordinate of each sphere grid.
    :param mode: identity slot for the eigen kind.
    :returns: deduplicated CriticalPoint list, values sorted descending.
        Empty, with a ``ConvergenceWarning`` naming the number of seeds
        polished, if no seed polished to a critical point.

    Cost model: each unit vector of dimension d >= 2 (one per mode for
    the singular kind, one in all for eigen) contributes
    resolution**(d-1) grid points, halved at even resolution (one point
    per antipodal pair), and one of dimension 1 contributes one.  The
    seed count is their product (capped at 1e7); seeds are polished in
    chunks of 20,000, and every Levenberg sweep over N live seeds costs
    O(N * (sum d_i)^2) flops plus one batched solve of that size.  A
    batched solve that fails raises the damping of every live seed in its
    chunk, so above 20,000 seeds the points can depend on the chunking.
    Results are guaranteed to contain any critical point whose sign
    orbit's polishing basin intersects the grid (flipping a set S of
    singular mode vectors maps sigma to (-1)**|S| sigma; negating an
    eigenvector maps lambda to (-1)**k lambda); dedup folds the sign
    symmetries (even flips for the singular kind, vector negation with
    the order-parity eigenvalue flip for eigen).
    """
    if kind not in ("singular", "eigen"):
        raise ParameterError(f'kind must be "singular" or "eigen", got {kind!r}')
    if A.is_zero():
        raise ZeroTensorError("every point is critical for the zero tensor")
    pn = PNormSpec.broadcast(pnorms, A.order)
    if kind == "singular":
        return _enumerate(A, Layout.singular(pn), resolution)
    if not A.is_cubical():
        raise DimensionError(f"eigen enumeration needs a cubical tensor, got {A.dims}")
    if len(set(pn.exponents)) != 1:
        raise ParameterError("eigen enumeration uses a single norm exponent")
    _check_mode(A, mode)
    return _enumerate(A, Layout.eigen(pn[0], A.order, mode), resolution)


def _enumerate(A, layout, resolution):
    """Polish the product grid of ``layout``'s blocks; canonicalize, dedup, grade.

    A one-block layout (an eigenvector) is oriented by ``_leading_signs``.
    With several blocks, block 0 takes sigma >= 0 and each other block is
    oriented by ``_leading_signs``, flipping block 0 with it, which keeps
    sigma.
    """
    arr, slots = A.array, layout.slots
    grids = [
        _sphere_grid(d, resolution, p)
        for d, p in zip(layout.block_dims(A.dims), layout.exps)
    ]
    counts = [g.shape[0] for g in grids]
    total = int(np.prod(counts))
    if total > _SEED_BUDGET:
        raise SizeLimitError(f"{total} seeds exceed the {_SEED_BUDGET} budget")
    system = _System(A, layout)

    strides = np.concatenate([np.cumprod(counts[::-1])[-2::-1], [1]]).astype(int)
    accepted = []
    for start in range(0, total, _SEED_CHUNK):
        idx = np.arange(start, min(start + _SEED_CHUNK, total))
        Xs = [g[(idx // s) % c] for g, s, c in zip(grids, strides, counts)]
        value0 = _contract_batched(arr, [Xs[s] for s in slots])
        Z0 = np.concatenate([np.concatenate(Xs, axis=1), value0[:, None]], axis=1)
        Z, cost = _levenberg_polish(system, Z0)
        Xs, _ = system.split(Z[cost <= (10.0 * _ORACLE_TOL) ** 2])
        Xs = [_renormalize_rows(X, p) for X, p in zip(Xs, layout.exps)]
        if len(Xs) == 1:
            Xs[0] = Xs[0] * _leading_signs(Xs[0])[:, None]
            value = _contract_batched(arr, [Xs[s] for s in slots])
        else:
            value = _contract_batched(arr, Xs)
            flip0 = np.where(value < 0, -1.0, 1.0)
            Xs[0] = Xs[0] * flip0[:, None]
            value = value * flip0
            for b in range(1, len(Xs)):
                signs = _leading_signs(Xs[b])
                Xs[b] = Xs[b] * signs[:, None]
                Xs[0] = Xs[0] * signs[:, None]
        accepted.append(np.concatenate([value[:, None]] + Xs, axis=1))
    kind = "eigen" if len(grids) == 1 else "singular"
    off = system.offsets
    points = []
    for row in _dedup_rows(np.concatenate(accepted)):
        vecs = [np.array(row[1 + off[b]:1 + off[b + 1]]) for b in range(len(grids))]
        value = multilinear_eval(A, [vecs[s] for s in slots])
        if kind == "singular":
            res = singular_residual(A, vecs, value, layout.exps)
        else:
            res = eigen_residual(A, vecs[0], value, layout.exps[0], layout.rows[0])
        if res <= _ORACLE_TOL:
            points.append(CriticalPoint(tuple(vecs), float(value), kind, res))
    if not points:
        warnings.warn(
            f"none of {total} polished seeds converged to tol={_ORACLE_TOL:g}",
            ConvergenceWarning,
            stacklevel=3,
        )
    points.sort(key=lambda c: (-c.value, tuple(c.vectors[0])))
    return points


def _dedup_rows(keys):
    """Collapse rows equal within the dedup tolerance, greedily in row order.

    Rounding only groups candidates; the returned representatives keep
    their full polished precision.
    """
    if keys.size == 0:
        return []
    _, first = np.unique(np.round(keys, 8), axis=0, return_index=True)
    candidates = keys[np.sort(first)]
    kept = np.empty_like(candidates)
    m = 0
    for row in candidates:
        if (np.abs(kept[:m] - row).max(axis=1) <= _DEDUP_TOL).any():
            continue
        kept[m] = row
        m += 1
    return list(kept[:m])


# ---------------------------------------------------------------------------
# Cayley's 2x2x2 hyperdeterminant


def hyperdet_222(A):
    """Cayley's degree-4 hyperdeterminant of a 2x2x2 tensor.

    Vanishes exactly when the tensor has a zero l^2 singular value.  The
    sign convention makes the tensor with ones at (0,0,0) and (1,1,1)
    evaluate to +1.
    """
    if isinstance(A, DenseTensor):
        if A.dims != (2, 2, 2):
            raise DimensionError(f"hyperdet_222 needs dims (2, 2, 2), got {A.dims}")
        a = A.array
    else:
        a = np.asarray(A, dtype=float)
        if a.shape != (2, 2, 2):
            raise DimensionError(f"hyperdet_222 needs dims (2, 2, 2), got {a.shape}")
    squares = (
        a[0, 0, 0] ** 2 * a[1, 1, 1] ** 2
        + a[0, 0, 1] ** 2 * a[1, 1, 0] ** 2
        + a[0, 1, 0] ** 2 * a[1, 0, 1] ** 2
        + a[0, 1, 1] ** 2 * a[1, 0, 0] ** 2
    )
    pairs = (
        a[0, 0, 0] * a[0, 0, 1] * a[1, 1, 0] * a[1, 1, 1]
        + a[0, 0, 0] * a[0, 1, 0] * a[1, 0, 1] * a[1, 1, 1]
        + a[0, 0, 0] * a[0, 1, 1] * a[1, 0, 0] * a[1, 1, 1]
        + a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 1] * a[1, 1, 0]
        + a[0, 0, 1] * a[0, 1, 1] * a[1, 1, 0] * a[1, 0, 0]
        + a[0, 1, 0] * a[0, 1, 1] * a[1, 0, 1] * a[1, 0, 0]
    )
    cross = (
        a[0, 0, 0] * a[0, 1, 1] * a[1, 0, 1] * a[1, 1, 0]
        + a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 0] * a[1, 1, 1]
    )
    return float(squares - 2.0 * pairs + 4.0 * cross)


# ---------------------------------------------------------------------------
# from-scratch Jacobi baselines for the order-2 reductions


def _check_matrix(M):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim={M.ndim}")
    if max(M.shape) > _MATRIX_LIMIT:
        raise SizeLimitError(f"baseline decompositions are capped at {_MATRIX_LIMIT}")
    return M


def dense_baseline_svd(M, max_sweeps=60):
    """One-sided Jacobi SVD:  M = U @ diag(s) @ V.T  with s descending.

    Written from scratch so the order-2 cross-checks do not share any code
    with the tensor solvers.
    """
    M = _check_matrix(M)
    transposed = M.shape[0] < M.shape[1]
    W = (M.T if transposed else M).copy()
    m, n = W.shape
    V = np.eye(n)
    for _ in range(max_sweeps):
        rotated = False
        for i in range(n - 1):
            for j in range(i + 1, n):
                alpha = float(W[:, i] @ W[:, i])
                beta = float(W[:, j] @ W[:, j])
                gamma = float(W[:, i] @ W[:, j])
                if abs(gamma) <= 1e-15 * np.sqrt(alpha * beta) or gamma == 0.0:
                    continue
                rotated = True
                zeta = (beta - alpha) / (2.0 * gamma)
                t = np.sign(zeta) / (abs(zeta) + np.hypot(1.0, zeta)) if zeta != 0 else 1.0
                c = 1.0 / np.hypot(1.0, t)
                s = c * t
                rot = np.array([[c, s], [-s, c]])
                W[:, [i, j]] = W[:, [i, j]] @ rot
                V[:, [i, j]] = V[:, [i, j]] @ rot
        if not rotated:
            break
    sigmas = np.sqrt((W ** 2).sum(axis=0))
    order = np.argsort(-sigmas)
    sigmas = sigmas[order]
    W = W[:, order]
    V = V[:, order]
    U = np.zeros((m, n))
    for idx in range(n):
        if sigmas[idx] > 1e-300:
            U[:, idx] = W[:, idx] / sigmas[idx]
        else:
            U[:, idx] = _fill_orthonormal(U[:, :idx], m)
    if transposed:
        return sigmas, V, U
    return sigmas, U, V


def _fill_orthonormal(basis, m):
    """A unit vector orthogonal to the given columns."""
    for t in range(m):
        v = np.zeros(m)
        v[t] = 1.0
        if basis.shape[1]:
            v -= basis @ (basis.T @ v)
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            return v / norm
    raise np.linalg.LinAlgError("could not complete the orthonormal basis")


def dense_baseline_symeig(M, max_sweeps=60):
    """Cyclic Jacobi eigendecomposition of a symmetric matrix.

    Returns (w, Q) with eigenvalues descending and orthonormal columns:
    M = Q @ diag(w) @ Q.T.
    """
    M = _check_matrix(M)
    n, n2 = M.shape
    if n != n2:
        raise DimensionError(f"expected a square matrix, got {M.shape}")
    scale = max(1.0, float(np.abs(M).max()))
    if np.abs(M - M.T).max() > 1e-12 * scale:
        raise SymmetryError("matrix is not symmetric")
    A = M.copy()
    Q = np.eye(n)
    norm = max(np.linalg.norm(A), 1e-300)
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(A, -1) ** 2) * 2.0)
        if off <= 1e-14 * norm:
            break
        for i in range(n - 1):
            for j in range(i + 1, n):
                if abs(A[i, j]) <= 1e-30 * norm:
                    continue
                theta = 0.5 * (A[j, j] - A[i, i]) / A[i, j]
                t = np.sign(theta) / (abs(theta) + np.hypot(1.0, theta)) if theta != 0 else 1.0
                c = 1.0 / np.hypot(1.0, t)
                s = c * t
                col_i, col_j = A[:, i].copy(), A[:, j].copy()
                A[:, i] = c * col_i - s * col_j
                A[:, j] = s * col_i + c * col_j
                row_i, row_j = A[i, :].copy(), A[j, :].copy()
                A[i, :] = c * row_i - s * row_j
                A[j, :] = s * row_i + c * row_j
                q_i, q_j = Q[:, i].copy(), Q[:, j].copy()
                Q[:, i] = c * q_i - s * q_j
                Q[:, j] = s * q_i + c * q_j
    w = np.diag(A).copy()
    order = np.argsort(-w)
    return w[order], Q[:, order]
