"""Independent brute-force verification machinery.

Three oracles live here, deliberately separate from the solver modules
they cross-check:

* ``enumerate_critical_points`` seeds a dense angular grid on the product
  of unit spheres and polishes every seed with a damped Gauss-Newton
  (Levenberg-Marquardt) iteration on the stationarity-plus-normalization
  system, batched over all seeds.  Critical points come in sign orbits
  (flipped mode vectors, a negated eigenvector), so at even resolution
  each sphere grid keeps one point of every antipodal pair.  Any critical
  point whose sign orbit's basin meets the grid shows up; completeness is
  checked by cross-tests, not proven.
* ``dense_baseline_svd`` / ``dense_baseline_symeig`` are from-scratch
  Jacobi decompositions used as the order-2 ground truth.
* ``hyperdet_222`` is Cayley's quartic for 2x2x2 tensors, whose vanishing
  characterizes the existence of a zero l^2 singular value.
"""

from dataclasses import dataclass

import numpy as np

from .core import DenseTensor, multilinear_eval
from .eigen import eigen_residual
from .errors import (
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


def _eval_batched(arr, Xs):
    k = arr.ndim
    subs = [_LETTERS[:k]] + ["z" + _LETTERS[j] for j in range(k)]
    return np.einsum(",".join(subs) + "->z", arr, *Xs, optimize=False)


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
    norms = np.sum(np.abs(pts) ** p, axis=1) ** (1.0 / p)
    return pts / norms[:, None]


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

    Cost model: each mode of dimension d >= 2 contributes
    resolution**(d-1) grid points, halved at even resolution (one point
    per antipodal pair), and a mode of dimension 1 contributes one.  The
    seed count is their product (capped at 1e7), and every Levenberg
    sweep over N live seeds costs O(N * (sum d_i)^2) flops plus one
    batched solve of that size.  Results are guaranteed to contain any
    critical point whose sign orbit's polishing basin intersects the grid
    (flipping a set S of singular mode vectors maps sigma to
    (-1)**|S| sigma; negating an eigenvector maps lambda to (-1)**k
    lambda); dedup folds the sign symmetries (even flips for the singular
    kind, vector negation with the order-parity eigenvalue flip for eigen).
    """
    if kind not in ("singular", "eigen"):
        raise ParameterError(f'kind must be "singular" or "eigen", got {kind!r}')
    if A.is_zero():
        raise ZeroTensorError("every point is critical for the zero tensor")
    pn = PNormSpec.broadcast(pnorms, A.order)

    if kind == "eigen":
        if not A.is_cubical():
            raise DimensionError(f"eigen enumeration needs a cubical tensor, got {A.dims}")
        if len(set(pn.exponents)) != 1:
            raise ParameterError("eigen enumeration uses a single norm exponent")
        return _enumerate_eigen(A, pn[0], resolution, mode)
    return _enumerate_singular(A, pn, resolution)


def _enumerate_singular(A, pn, resolution):
    k = A.order
    grids = [_sphere_grid(d, resolution, pn[i]) for i, d in enumerate(A.dims)]
    counts = [g.shape[0] for g in grids]
    total = int(np.prod(counts))
    if total > _SEED_BUDGET:
        raise SizeLimitError(f"{total} seeds exceed the {_SEED_BUDGET} budget")
    system = _SingularSystem(A, pn)

    strides = np.concatenate([np.cumprod(counts[::-1])[-2::-1], [1]]).astype(int)
    accepted = []
    chunk = 20000
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        Xs = [grids[i][(idx // strides[i]) % counts[i]] for i in range(k)]
        sigma0 = _eval_batched(A.array, Xs)
        Z0 = np.concatenate([np.concatenate(Xs, axis=1), sigma0[:, None]], axis=1)
        Z, cost = _levenberg_polish(system, Z0)
        keep = cost <= (10.0 * _ORACLE_TOL) ** 2
        if not keep.any():
            continue
        Zk = Z[keep]
        Xs = [
            _renormalize_rows(Zk[:, system.offsets[i]:system.offsets[i + 1]], pn[i])
            for i in range(k)
        ]
        sigma = _eval_batched(A.array, Xs)
        flip0 = np.where(sigma < 0, -1.0, 1.0)
        Xs[0] = Xs[0] * flip0[:, None]
        sigma = sigma * flip0
        for i in range(1, k):
            signs = _leading_signs(Xs[i])
            Xs[i] = Xs[i] * signs[:, None]
            Xs[0] = Xs[0] * signs[:, None]
        accepted.append((Xs, sigma))
    if not accepted:
        return []
    Xs = [np.concatenate([b[0][i] for b in accepted]) for i in range(k)]
    sigma = np.concatenate([b[1] for b in accepted])
    keys = np.concatenate([sigma[:, None]] + Xs, axis=1)
    points = []
    for row in _dedup_rows(keys):
        vecs = []
        pos = 1
        for i, d in enumerate(A.dims):
            vecs.append(np.array(row[pos:pos + d]))
            pos += d
        value = multilinear_eval(A, vecs)
        res = singular_residual(A, vecs, value, pn)
        if res <= _ORACLE_TOL:
            points.append(
                CriticalPoint(
                    vectors=tuple(vecs), value=float(value), kind="singular", residual=res
                )
            )
    points.sort(key=lambda c: (-c.value, tuple(c.vectors[0])))
    return points


def _enumerate_eigen(A, p, resolution, mode):
    n = A.dims[0]
    k = A.order
    grid = _sphere_grid(n, resolution, p)
    if grid.shape[0] > _SEED_BUDGET:
        raise SizeLimitError(f"{grid.shape[0]} seeds exceed the {_SEED_BUDGET} budget")
    system = _EigenSystem(A, p, mode)
    lam0 = _eval_batched(A.array, [grid] * k)
    Z0 = np.concatenate([grid, lam0[:, None]], axis=1)
    Z, cost = _levenberg_polish(system, Z0)
    keep = cost <= (10.0 * _ORACLE_TOL) ** 2
    if not keep.any():
        return []
    X = _renormalize_rows(Z[keep, :n], p)
    signs = _leading_signs(X)
    X = X * signs[:, None]
    lam = _eval_batched(A.array, [X] * k)
    keys = np.concatenate([lam[:, None], X], axis=1)
    points = []
    for row in _dedup_rows(keys):
        x = np.array(row[1:])
        value = multilinear_eval(A, [x] * k)
        res = eigen_residual(A, x, value, p, mode)
        if res <= _ORACLE_TOL:
            points.append(
                CriticalPoint(vectors=(x,), value=float(value), kind="eigen", residual=res)
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
