"""Earlier forms of the solver kernels, kept as bit-exact references.

The library's kernels call ``np.dot`` directly where these go through
``np.moveaxis`` and ``np.tensordot``, start powers from ``|x|`` instead of
ones, and take the corrector's residual norm without ``np.linalg.norm``.
Each change was made to cut per-call overhead only, so every result must
match these forms byte for byte.  Validation is left out here; the tests
check it on the library functions.

The grid oracle's batched singular and eigen systems are kept here too,
as they were before one layout-driven class (``_system._System``) replaced
both; its residual and Jacobian must match them byte for byte.

So are the sign-orbit rules as the solvers and the grid oracle each wrote
them before both called ``_orbit``: the scalar orientation test, the
solvers' orbit key and dedup loop, the oracle's batched orientation and
sign branch, and its dedup loop.  ``_orbit``'s canonicalization and greedy
dedup must pick the same members and keep the same rows, byte for byte.
"""

import sys

import numpy as np


def ref_vector(x):
    return np.asarray(x, dtype=float).reshape(-1)


def ref_multilinear_eval(A, xs):
    out = A.array
    for x in xs:
        out = np.tensordot(out, ref_vector(x), axes=([0], [0]))
    return float(out)


def ref_partial_contraction(A, xs, mode):
    out = np.moveaxis(A.array, mode, 0)
    others = [j for j in range(A.order) if j != mode]
    for j in reversed(others):
        out = np.tensordot(out, ref_vector(xs[j]), axes=([out.ndim - 1], [0]))
    return out


def ref_pair_contraction(A, xs, mode_i, mode_j):
    out = np.moveaxis(A.array, (mode_i, mode_j), (0, 1))
    others = [j for j in range(A.order) if j not in (mode_i, mode_j)]
    for j in reversed(others):
        out = np.tensordot(out, ref_vector(xs[j]), axes=([out.ndim - 1], [0]))
    return out


def ref_abs_int_pow(x, q):
    a = np.abs(np.asarray(x, dtype=float))
    out = np.ones_like(a)
    for _ in range(q):
        out = out * a
    return out


def ref_gauss_newton(residual, jacobian, z0, max_steps=60, tol=1e-13):
    z = np.array(z0, dtype=float)
    f = residual(z)
    fnorm = float(np.linalg.norm(f))
    for _ in range(max_steps):
        if fnorm <= tol or not np.isfinite(fnorm):
            break
        J = jacobian(z)
        step, *_ = np.linalg.lstsq(J, -f, rcond=None)
        t = 1.0
        improved = False
        while t >= 1e-4:
            z_try = z + t * step
            f_try = residual(z_try)
            fnorm_try = float(np.linalg.norm(f_try))
            if fnorm_try < fnorm:
                z, f, fnorm = z_try, f_try, fnorm_try
                improved = True
                break
            t *= 0.5
        if not improved:
            break
    return z, fnorm


def install_references(monkeypatch):
    """Bind the reference kernels everywhere the solvers look them up.

    Every attribute of every loaded ``lptensor`` module that holds one of
    the originals is rebound, since the solvers and the shared pipeline
    bind kernels by direct import.  A reference that replaced no binding
    would make the comparison vacuous, so that fails at once.
    """
    import lptensor._polish
    import lptensor.core
    import lptensor.pnorm

    references = [
        (lptensor.core.multilinear_eval, ref_multilinear_eval),
        (lptensor.core.partial_contraction, ref_partial_contraction),
        (lptensor.core.pair_contraction, ref_pair_contraction),
        (lptensor._polish.gauss_newton, ref_gauss_newton),
        (lptensor.pnorm._abs_int_pow, ref_abs_int_pow),
    ]
    modules = [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "lptensor" or name.startswith("lptensor."))
    ]
    for original, ref in references:
        bindings = [
            (module, attr)
            for module in modules
            for attr, value in vars(module).items()
            if value is original
        ]
        assert bindings, f"{ref.__name__}: no lptensor module binds the original"
        for module, attr in bindings:
            monkeypatch.setattr(module, attr, ref)


# ---------------------------------------------------------------------------
# the grid oracle's earlier batched systems, one per kind

_LETTERS = "abcdefgh"


def _spow(X, q):
    return np.sign(X) * np.abs(X) ** q


def _spow_deriv(X, q):
    if q > 1:
        return q * np.abs(X) ** (q - 1)
    return np.ones_like(X)


def _contract_batched(arr, Xs, skip):
    k = arr.ndim
    subs = [_LETTERS[:k]]
    ops = [arr]
    for j in range(k):
        if j != skip:
            subs.append("z" + _LETTERS[j])
            ops.append(Xs[j])
    return np.einsum(",".join(subs) + "->z" + _LETTERS[skip], *ops, optimize=False)


def _pair_batched(arr, Xs, i, j):
    k = arr.ndim
    others = [m for m in range(k) if m not in (i, j)]
    if not others:
        base = arr if i < j else arr.T
        return np.broadcast_to(base, (Xs[i].shape[0],) + base.shape)
    subs = [_LETTERS[:k]]
    ops = [arr]
    for m in others:
        subs.append("z" + _LETTERS[m])
        ops.append(Xs[m])
    out = "z" + _LETTERS[i] + _LETTERS[j]
    return np.einsum(",".join(subs) + "->" + out, *ops, optimize=False)


class _SingularSystem:
    """Batched residual/Jacobian of the k-mode stationarity system."""

    def __init__(self, A, pn):
        self.arr = A.array
        self.dims = A.dims
        self.k = A.order
        self.pn = pn
        self.offsets = np.concatenate([[0], np.cumsum(self.dims)])
        self.nvar = int(self.offsets[-1]) + 1
        self.neq = int(self.offsets[-1]) + self.k

    def split(self, Z):
        Xs = [
            Z[:, self.offsets[i]:self.offsets[i + 1]] for i in range(self.k)
        ]
        return Xs, Z[:, -1]

    def residual(self, Z):
        Xs, sigma = self.split(Z)
        blocks = []
        for i in range(self.k):
            g = _contract_batched(self.arr, Xs, i)
            blocks.append(g - sigma[:, None] * _spow(Xs[i], self.pn[i] - 1))
        for i in range(self.k):
            norms = np.sum(np.abs(Xs[i]) ** self.pn[i], axis=1) - 1.0
            blocks.append(norms[:, None])
        return np.concatenate(blocks, axis=1)

    def jacobian(self, Z):
        Xs, sigma = self.split(Z)
        N = Z.shape[0]
        J = np.zeros((N, self.neq, self.nvar))
        for i in range(self.k):
            r0 = self.offsets[i]
            d_i = self.dims[i]
            q = self.pn[i] - 1
            for j in range(self.k):
                c0 = self.offsets[j]
                if j == i:
                    rows = np.arange(d_i)
                    J[:, r0 + rows, c0 + rows] = -sigma[:, None] * _spow_deriv(Xs[i], q)
                else:
                    J[:, r0:r0 + d_i, c0:c0 + self.dims[j]] = _pair_batched(
                        self.arr, Xs, i, j
                    )
            J[:, r0:r0 + d_i, -1] = -_spow(Xs[i], q)
        base = self.offsets[-1]
        for i in range(self.k):
            c0 = self.offsets[i]
            J[:, base + i, c0:c0 + self.dims[i]] = self.pn[i] * _spow(
                Xs[i], self.pn[i] - 1
            )
        return J


class _EigenSystem:
    """Batched residual/Jacobian of the one-vector stationarity system."""

    def __init__(self, A, p, mode):
        self.arr = A.array
        self.n = A.dims[0]
        self.k = A.order
        self.p = p
        self.mode = mode
        self.nvar = self.n + 1
        self.neq = self.n + 1

    def split(self, Z):
        return Z[:, :self.n], Z[:, -1]

    def residual(self, Z):
        X, lam = self.split(Z)
        Xs = [X] * self.k
        g = _contract_batched(self.arr, Xs, self.mode)
        norms = np.sum(np.abs(X) ** self.p, axis=1) - 1.0
        return np.concatenate(
            [g - lam[:, None] * _spow(X, self.p - 1), norms[:, None]], axis=1
        )

    def jacobian(self, Z):
        X, lam = self.split(Z)
        Xs = [X] * self.k
        N = Z.shape[0]
        q = self.p - 1
        J = np.zeros((N, self.neq, self.nvar))
        D = np.zeros((N, self.n, self.n))
        for j in range(self.k):
            if j != self.mode:
                D += _pair_batched(self.arr, Xs, self.mode, j)
        rows = np.arange(self.n)
        D[:, rows, rows] -= lam[:, None] * _spow_deriv(X, q)
        J[:, :self.n, :self.n] = D
        J[:, :self.n, -1] = -_spow(X, q)
        J[:, self.n, :self.n] = self.p * _spow(X, self.p - 1)
        return J


# ---------------------------------------------------------------------------
# sign-orbit canonicalization and dedup, once per caller

REF_DEDUP_TOL = 1e-6


def ref_leading_negative(x):
    """Sign of the first component within a factor 10 of the largest."""
    significant = np.flatnonzero(np.abs(x) >= 0.1 * np.max(np.abs(x)))
    return x[significant[0]] < 0


def ref_orbit_key(pair):
    """The solvers' representative under flips of block 0 with any other block."""
    blocks = list(pair.blocks)
    for i in range(1, len(blocks)):
        if ref_leading_negative(blocks[i]):
            blocks[i] = -blocks[i]
            blocks[0] = -blocks[0]
    return np.concatenate([[pair.value]] + blocks)


def ref_solver_dedup(pairs):
    """The solvers' dedup: one pair per orbit, by value descending."""
    kept = []
    keys = []
    for pair in sorted(pairs, key=lambda c: (-c.value, c.residual)):
        key = ref_orbit_key(pair)
        if any(np.max(np.abs(key - other)) <= REF_DEDUP_TOL for other in keys):
            continue
        kept.append(pair)
        keys.append(key)
    kept.sort(key=lambda c: (-c.value, tuple(c.blocks[0])))
    return kept


def ref_leading_signs(X):
    """The oracle's orientation by the first entry within a factor 10 of the largest."""
    absX = np.abs(X)
    idx = (absX >= 0.1 * absX.max(axis=1, keepdims=True)).argmax(axis=1)
    lead = X[np.arange(X.shape[0]), idx]
    signs = np.where(lead < 0, -1.0, 1.0)
    return signs


def _value_batched(arr, Xs):
    subs = [_LETTERS[:arr.ndim]] + ["z" + _LETTERS[m] for m in range(arr.ndim)]
    return np.einsum(",".join(subs) + "->z", arr, *Xs, optimize=False)


def ref_oracle_canonical(arr, slots, Xs):
    """The oracle's sign branch: canonical blocks and their values, per row.

    One block is oriented by ``ref_leading_signs`` and its value contracted
    afterwards.  With several blocks, block 0 takes sigma >= 0 and each
    other block is oriented, flipping block 0 with it.
    """
    Xs = list(Xs)
    if len(Xs) == 1:
        Xs[0] = Xs[0] * ref_leading_signs(Xs[0])[:, None]
        value = _value_batched(arr, [Xs[s] for s in slots])
    else:
        value = _value_batched(arr, Xs)
        flip0 = np.where(value < 0, -1.0, 1.0)
        Xs[0] = Xs[0] * flip0[:, None]
        value = value * flip0
        for b in range(1, len(Xs)):
            signs = ref_leading_signs(Xs[b])
            Xs[b] = Xs[b] * signs[:, None]
            Xs[0] = Xs[0] * signs[:, None]
    return Xs, value


def ref_oracle_dedup_loop(candidates):
    """The oracle's greedy loop: each row against every row kept before it."""
    kept = np.empty_like(candidates)
    m = 0
    for row in candidates:
        if (np.abs(kept[:m] - row).max(axis=1) <= REF_DEDUP_TOL).any():
            continue
        kept[m] = row
        m += 1
    return list(kept[:m])
