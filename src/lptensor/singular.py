"""l^{p_1,...,p_k} singular pairs of general dense tensors.

A singular pair of a tensor A is a tuple of unit mode vectors
(x_1, ..., x_k) together with a scalar sigma such that contracting A with
every vector but the i-th yields ``sigma * sign_power(x_i, p_i - 1)`` in
each mode i.  For matrices with p = (2, 2) this reduces to the ordinary
singular value decomposition conditions ``A v = sigma u`` and
``A^T u = sigma v``.

The solver combines two searches from every random restart: cyclic
alternating updates (each update solves one mode's stationarity exactly,
given the others, and converges fast to extremal pairs) and a damped
Gauss-Newton corrector on the full stationarity-plus-normalization system,
which can also land on non-extremal pairs that no monotone iteration can
reach.  Convergence is always declared on the residual, never on iterate
movement.

Every restart runs on A * 2**-e, the power-of-two rescaling of A to unit
Frobenius scale (``_restart.unit_scale``), so the search does not depend
on the scale of A: A and A * 2**j give bit-identical vectors and sigma
scaled by exactly 2**j.  ``tol`` therefore bounds the residual relative
to 2**e, which is within a factor 2 of ||A||_F; the returned sigma and
``residual`` are reported on A.  A converged pair whose modes with
p_i >= 3 have near-zero entries is re-solved on its support and returned
with exact zeros when that solves the full system.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from ._polish import gauss_newton
from ._restart import SNAP_ACCEPT, unit_scale, zero_sets
from .config import (
    _DEDUP_TOL,
    _STAGNATION_FACTOR,
    _STAGNATION_WINDOW,
    SolverConfig,
    _leading_negative,
    restart_rng,
)
from .core import DenseTensor, multilinear_eval, pair_contraction, partial_contraction
from .errors import (
    ConvergenceWarning,
    DegenerateIterateError,
    ZeroTensorError,
)
from .pnorm import PNormSpec, lp_norm, sign_power, sign_root, unit_vector

__all__ = [
    "SingularPair",
    "singular_residual",
    "solve_singular_pair",
    "solve_singular_pairs",
    "sigma_max",
]


@dataclass(frozen=True)
class SingularPair:
    """One critical tuple of the constrained multilinear problem.

    ``vectors[i]`` has unit l^{p_i} norm, ``sigma`` is nonnegative by
    convention (negating one mode vector negates sigma, so nothing is
    lost), and ``residual`` is the worst stationarity defect over modes.
    """

    vectors: tuple
    sigma: float
    residual: float
    pnorms: PNormSpec
    converged: bool


def _spec(A, pnorms):
    if isinstance(pnorms, PNormSpec):
        if len(pnorms) != A.order:
            return PNormSpec.broadcast(pnorms.exponents, A.order)
        return pnorms
    return PNormSpec.broadcast(pnorms, A.order)


def singular_residual(A, vectors, sigma, pnorms):
    """Worst-mode stationarity defect of a candidate pair.

    Returns ``max_i || A(..., I at i, ...) - sigma * sign_power(x_i, p_i-1) ||_2``,
    which is zero exactly at singular pairs with unit mode norms.
    """
    pn = _spec(A, pnorms)
    vecs = [np.asarray(v, dtype=float) for v in vectors]
    worst = 0.0
    for i in range(A.order):
        g = partial_contraction(A, vecs, i)
        defect = g - sigma * sign_power(vecs[i], pn[i] - 1)
        worst = max(worst, float(np.linalg.norm(defect)))
    return worst


def _make_pair(A, pn, vectors, tol):
    """Normalize, apply the sigma >= 0 convention, and grade a candidate."""
    vecs = [unit_vector(v, pn[i]) for i, v in enumerate(vectors)]
    sigma = multilinear_eval(A, vecs)
    if sigma < 0.0:
        vecs[0] = -vecs[0]
        sigma = -sigma
    res = singular_residual(A, vecs, sigma, pn)
    return SingularPair(
        vectors=tuple(v.copy() for v in vecs),
        sigma=float(sigma),
        residual=res,
        pnorms=pn,
        converged=res <= tol,
    )


def _canonical_key(pair):
    """Representative under the even-sign-flip symmetry, for dedup."""
    vecs = [v.copy() for v in pair.vectors]
    for i in range(1, len(vecs)):
        if _leading_negative(vecs[i]):
            vecs[i] = -vecs[i]
            vecs[0] = -vecs[0]
    return np.concatenate([[pair.sigma]] + vecs)


def _alternating_run(A, pn, start, config):
    """Cyclic alternating updates from one start; returns best iterate."""
    k = A.order
    xs = [v.copy() for v in start]
    best_xs, best_res = None, np.inf
    trail = []
    for _ in range(config.max_iter):
        for i in range(k):
            g = partial_contraction(A, xs, i)
            if not g.any():
                # the current tuple may itself be a sigma = 0 pair
                sigma = multilinear_eval(A, xs)
                if singular_residual(A, xs, sigma, pn) <= config.tol:
                    return [x.copy() for x in xs], 0.0
                raise DegenerateIterateError(
                    f"mode {i + 1}: exactly zero update direction"
                )
            xs[i] = unit_vector(sign_root(g, pn[i] - 1), pn[i])
        sigma = multilinear_eval(A, xs)
        res = singular_residual(A, xs, sigma, pn)
        if res < best_res:
            best_res = res
            best_xs = [x.copy() for x in xs]
        if res <= config.tol:
            break
        trail.append(best_res)
        if (
            len(trail) > _STAGNATION_WINDOW
            and trail[-1] > _STAGNATION_FACTOR * trail[-1 - _STAGNATION_WINDOW]
        ):
            break
    return best_xs, best_res


def _system_functions(A, pn):
    """Residual and Jacobian of the stationarity + normalization system.

    Unknowns are the concatenated mode vectors followed by sigma.  The
    system has sum(d_i) + k equations for sum(d_i) + 1 unknowns, so the
    corrector works in least squares.
    """
    dims = A.dims
    k = A.order
    offs = np.cumsum([0] + list(dims))
    nvar = offs[-1] + 1

    def split(z):
        return [z[offs[i]:offs[i + 1]] for i in range(k)], z[offs[-1]]

    def residual(z):
        xs, sigma = split(z)
        rows = []
        for i in range(k):
            g = partial_contraction(A, xs, i)
            rows.append(g - sigma * sign_power(xs[i], pn[i] - 1))
        for i in range(k):
            rows.append(np.array([(np.abs(xs[i]) ** pn[i]).sum() - 1.0]))
        return np.concatenate(rows)

    def jacobian(z):
        xs, sigma = split(z)
        neq = offs[-1] + k
        J = np.zeros((neq, nvar))
        for i in range(k):
            r0 = offs[i]
            q = pn[i] - 1
            for j in range(k):
                if j == i:
                    deriv = q * np.abs(xs[i]) ** (q - 1) if q > 1 else np.ones(dims[i])
                    J[r0:r0 + dims[i], offs[i]:offs[i + 1]] = -sigma * np.diag(deriv)
                else:
                    J[r0:r0 + dims[i], offs[j]:offs[j + 1]] = pair_contraction(
                        A, xs, i, j
                    )
            J[r0:r0 + dims[i], nvar - 1] = -sign_power(xs[i], q)
        for i in range(k):
            J[offs[-1] + i, offs[i]:offs[i + 1]] = pn[i] * sign_power(xs[i], pn[i] - 1)
        return J

    return residual, jacobian, split


def _polish_candidate(A, pn, xs, config):
    """Gauss-Newton correction of a tuple; None if it fails to converge."""
    residual, jacobian, split = _system_functions(A, pn)
    sigma0 = multilinear_eval(A, xs)
    z0 = np.concatenate([np.concatenate(xs), [sigma0]])
    z, _ = gauss_newton(residual, jacobian, z0, tol=min(config.tol * 1e-3, 1e-13))
    vecs, _ = split(z)
    if any(lp_norm(v, pn[i]) < 0.5 for i, v in enumerate(vecs)):
        return None
    pair = _make_pair(A, pn, vecs, config.tol)
    return pair if pair.converged else None


def _snap(A, pn, pair, config):
    """The converged ``pair`` on its exact support, if it has one.

    For each candidate zero set (``_restart.zero_sets``), largest first,
    the system is re-solved on the sub-tensor of the kept entries, with
    each mode's own support.  The first result whose restricted Jacobian
    has full column rank and whose full residual is at most
    ``SNAP_ACCEPT * tol`` replaces the pair; otherwise it stays as it is.
    """
    for supports in zero_sets(pair.vectors, pn):
        residual, jacobian, split = _system_functions(
            DenseTensor.from_array(A.array[np.ix_(*supports)]), pn
        )
        z0 = np.concatenate([v[s] for v, s in zip(pair.vectors, supports)] + [[pair.sigma]])
        z, _ = gauss_newton(residual, jacobian, z0, tol=min(config.tol * 1e-3, 1e-13))
        parts, _ = split(z)
        if any(lp_norm(v, pn[i]) < 0.5 for i, v in enumerate(parts)):
            continue
        vecs = []
        for v, s, part in zip(pair.vectors, supports, parts):
            full = np.zeros_like(v)
            full[s] = part
            vecs.append(full)
        snapped = _make_pair(A, pn, vecs, config.tol)
        if snapped.residual > SNAP_ACCEPT * config.tol:
            continue
        J = jacobian(z)
        if np.linalg.matrix_rank(J) == J.shape[1]:
            return snapped
    return pair


def _scaled_back(pair, e):
    return replace(
        pair, sigma=math.ldexp(pair.sigma, e), residual=math.ldexp(pair.residual, e)
    )


def _random_start(rng, dims, pn):
    xs = []
    for i, d in enumerate(dims):
        g = rng.standard_normal(d)
        while lp_norm(g, pn[i]) < 1e-8:
            g = rng.standard_normal(d)
        xs.append(unit_vector(g, pn[i]))
    return xs


def _collect(A, pnorms, config):
    """Run all restarts; return (deduped converged pairs, best overall).

    The restarts, polishing, snapping and dedup all work on the unit-scaled
    tensor; only the returned pairs are scaled back to A.
    """
    if A.is_zero():
        raise ZeroTensorError("singular pairs of the zero tensor are undefined")
    pn = _spec(A, pnorms)
    config = config or SolverConfig()
    A, e = unit_scale(A)
    converged = []
    best = None
    degenerate = None
    for r in range(config.restarts):
        rng = restart_rng(config, r)
        start = _random_start(rng, A.dims, pn)
        polished = _polish_candidate(A, pn, start, config)
        if polished is not None:
            converged.append(_snap(A, pn, polished, config))
        try:
            xs, _ = _alternating_run(A, pn, start, config)
        except DegenerateIterateError as exc:
            degenerate = exc
            continue
        # always squeeze with the corrector so flat-direction junk of size
        # ~sqrt(tol) cannot survive into deduplication
        pair = _polish_candidate(A, pn, xs, config)
        if pair is None:
            pair = _make_pair(A, pn, xs, config.tol)
        if pair.converged:
            converged.append(_snap(A, pn, pair, config))
        if best is None or pair.residual < best.residual:
            best = pair
    if best is None and not converged:
        if degenerate is not None:
            raise degenerate
        raise ZeroTensorError("no usable iterate produced")  # pragma: no cover
    deduped = [_scaled_back(pair, e) for pair in _dedup(converged)]
    return deduped, None if best is None else _scaled_back(best, e)


def _dedup(pairs):
    kept = []
    keys = []
    for pair in sorted(pairs, key=lambda p: (-p.sigma, p.residual)):
        key = _canonical_key(pair)
        if any(
            key.size == other.size and np.max(np.abs(key - other)) <= _DEDUP_TOL
            for other in keys
        ):
            continue
        kept.append(pair)
        keys.append(key)
    kept.sort(key=lambda p: (-p.sigma, tuple(p.vectors[0])))
    return kept


def solve_singular_pairs(A, pnorms=2, config=None):
    """All distinct converged singular pairs found by the restart schedule.

    :param A: DenseTensor to decompose.
    :param pnorms: PNormSpec, an integer, or one integer per mode.
    :param config: SolverConfig; defaults apply when omitted.
    :returns: pairs sorted by sigma descending, deduplicated up to the
        even-sign-flip symmetry.  Empty, with a ``ConvergenceWarning``
        naming the restart count, if nothing converged.
    """
    config = config or SolverConfig()
    deduped, _ = _collect(A, pnorms, config)
    if not deduped:
        warnings.warn(
            f"none of {config.restarts} restarts converged to tol={config.tol:g}",
            ConvergenceWarning,
            stacklevel=2,
        )
    return deduped


def solve_singular_pair(A, pnorms=2, config=None, init=None):
    """One singular pair of ``A``.

    With ``init`` the solver runs only from that tuple (alternating
    updates plus a Gauss-Newton finish), on the unit-scaled tensor like
    the restarts.  Otherwise it runs the full restart schedule and returns
    the converged pair with the largest sigma, or, failing convergence
    everywhere, the best iterate seen with ``converged=False``.
    """
    config = config or SolverConfig()
    pn = _spec(A, pnorms)
    if init is not None:
        if A.is_zero():
            raise ZeroTensorError("singular pairs of the zero tensor are undefined")
        A, e = unit_scale(A)
        start = [unit_vector(np.asarray(v, dtype=float), pn[i]) for i, v in enumerate(init)]
        xs, _ = _alternating_run(A, pn, start, config)
        pair = _polish_candidate(A, pn, xs, config)
        if pair is None:
            pair = _make_pair(A, pn, xs, config.tol)
        if pair.converged:
            pair = _snap(A, pn, pair, config)
        return _scaled_back(pair, e)
    deduped, best = _collect(A, pnorms, config)
    if deduped:
        return deduped[0]
    return best


def sigma_max(A, pnorms=2, config=None):
    """Largest singular value located by the restart schedule.

    A lower bound on the true norm of the multilinear functional; with the
    default restart budget it is tight on desk-scale problems.  Warns when
    no restart converged.
    """
    deduped, best = _collect(A, pnorms, config)
    if deduped:
        return deduped[0].sigma
    warnings.warn(
        "no restart converged; returning the best non-converged sigma",
        ConvergenceWarning,
        stacklevel=2,
    )
    return best.sigma
