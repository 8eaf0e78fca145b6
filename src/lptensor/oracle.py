"""Brute-force verification machinery.

Three oracles live here to cross-check the solver modules.

* ``enumerate_critical_points`` seeds a dense angular grid on the product
  of unit spheres and polishes every seed with a damped Gauss-Newton
  (Levenberg-Marquardt) iteration on the stationarity-plus-normalization
  system, batched over chunks of 20,000 seeds.  Singular tuples and
  eigenpairs are one problem here: a ``core.Layout`` says how the unit
  vectors fill the tensor's slots, and one batched system and one polish
  (``_system``) serve both kinds.  Critical points come in sign orbits
  (flipped mode vectors, a negated eigenvector), so at even resolution
  each sphere grid keeps one point of every antipodal pair.  The sign
  canonicalization and the dedup are ``_orbit``'s.
  Any critical point whose sign orbit's basin meets the grid shows up;
  completeness is checked by cross-tests, not proven.  The restart
  solvers run on the same system, polish and dedup, and differ only in
  their seeds (random starts and an ascent instead of a grid), so this
  oracle checks their search, not their arithmetic.  The checks that
  share no code with the solvers are ``perfbench/verify.py``, the
  pairwise-distinctness test ``tests/test_dedup.py``, and the planned
  certified bracket, interval certificates, branch-and-prune eigenpairs
  and boundary-format hyperdeterminants (ROADMAP directions 5, 13, 14
  and 18).
* ``dense_baseline_svd`` / ``dense_baseline_symeig`` are from-scratch
  Jacobi decompositions used as the order-2 ground truth.
* ``hyperdet_222`` is Cayley's quartic for 2x2x2 tensors, whose vanishing
  characterizes the existence of a zero l^2 singular value.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from ._orbit import canonicalize, greedy_dedup
from ._system import _contract_batched, _levenberg_polish, _renormalize_rows, _System
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

_SEED_BUDGET = 10_000_000
_SEED_CHUNK = 20_000
_ORACLE_TOL = 1e-9
_MATRIX_LIMIT = 64


@dataclass(frozen=True)
class CriticalPoint:
    """One polished critical point of the constrained multilinear form."""

    vectors: tuple
    value: float
    kind: str
    residual: float


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
    O(N * (sum d_i)^2) flops plus one batched solve of that size.  Each
    seed is polished from its own data alone, so the points do not depend
    on the chunking.
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

    Each polished point is replaced by its sign orbit's member from
    ``_orbit.canonicalize``: an eigenvector leading-positive, or a tuple
    with sigma >= 0 and blocks 1.. leading-positive.
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
        value = _contract_batched(arr, [Xs[s] for s in slots])
        Xs, value = canonicalize(Xs, value, len(slots))
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
    """Collapse rows equal within ``_orbit.DEDUP_TOL``, greedily in row order.

    Rounding only groups candidates; the returned representatives keep
    their full polished precision.
    """
    if keys.size == 0:
        return []
    _, first = np.unique(np.round(keys, 8), axis=0, return_index=True)
    candidates = keys[np.sort(first)]
    return list(candidates[greedy_dedup(candidates)])


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
