"""l^{p_1,...,p_k} singular pairs of general dense tensors.

A singular pair of a tensor A is a tuple of unit mode vectors
(x_1, ..., x_k) together with a scalar sigma such that contracting A with
every vector but the i-th yields ``sigma * sign_power(x_i, p_i - 1)`` in
each mode i.  For matrices with p = (2, 2) this reduces to the ordinary
singular value decomposition conditions ``A v = sigma u`` and
``A^T u = sigma v``.

Pairs come from the restart pipeline in ``_polish``, with one block per
mode (``slots = rows = (0, ..., k-1)``).  This module adds the sigma >= 0
convention and the ascent: cyclic alternating updates, each solving one
mode's stationarity exactly given the others, which converge fast to
extremal pairs, while the pipeline's Gauss-Newton corrector also lands on
non-extremal pairs that no monotone iteration can reach.  Convergence is
declared on the residual, never on iterate movement.  Sigma and
``residual`` are reported on A; ``tol`` bounds the residual relative to
the power-of-two scale of A (``SolverConfig``).
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._polish import Candidate, collect, settle
from ._restart import unit_scale
from .config import SolverConfig, _stagnated
from .core import Layout, multilinear_eval, partial_contraction
from .errors import ConvergenceWarning, DegenerateIterateError, ZeroTensorError
from .pnorm import PNormSpec, sign_power, sign_root, unit_vector

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


def singular_residual(A, vectors, sigma, pnorms):
    """Worst-mode stationarity defect of a candidate pair.

    Returns ``max_i || A(..., I at i, ...) - sigma * sign_power(x_i, p_i-1) ||_2``,
    which is zero exactly at singular pairs with unit mode norms, and NaN
    when any mode's defect is NaN (a NaN or infinite input).
    """
    pn = PNormSpec.broadcast(pnorms, A.order)
    vecs = [np.asarray(v, dtype=float) for v in vectors]
    worst = 0.0
    for i in range(A.order):
        g = partial_contraction(A, vecs, i)
        defect = g - sigma * sign_power(vecs[i], pn[i] - 1)
        norm = float(np.linalg.norm(defect))
        if norm != norm:
            # max() would drop a NaN against the 0.0 start
            return norm
        worst = max(worst, norm)
    return worst


def _grade(A, layout, blocks):
    """Normalize, apply the sigma >= 0 convention, and grade a candidate."""
    pn = layout.exps
    vecs = [unit_vector(v, pn[i]) for i, v in enumerate(blocks)]
    sigma = multilinear_eval(A, vecs)
    if sigma < 0.0:
        vecs[0] = -vecs[0]
        sigma = -sigma
    return Candidate(vecs, sigma, singular_residual(A, vecs, sigma, pn))


def _alternating_run(A, layout, start, config):
    """Cyclic alternating updates from one start; returns best iterate."""
    pn = layout.exps
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
                    return [x.copy() for x in xs]
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
        if _stagnated(trail):
            break
    return best_xs


def _pair(candidate, pn, e, tol):
    """The public pair of a candidate on A * 2**-e, reported on A."""
    return SingularPair(
        vectors=tuple(candidate.blocks),
        sigma=math.ldexp(candidate.value, e),
        residual=math.ldexp(candidate.residual, e),
        pnorms=pn,
        converged=candidate.residual <= tol,
    )


def _collect(A, pnorms, config):
    """Run all restarts; return (deduped converged pairs, best overall)."""
    if A.is_zero():
        raise ZeroTensorError("singular pairs of the zero tensor are undefined")
    pn = PNormSpec.broadcast(pnorms, A.order)
    config = config or SolverConfig()
    found, best, e = collect(A, Layout.singular(pn), _grade, _alternating_run, config)
    deduped = [_pair(pair, pn, e, config.tol) for pair in found]
    return deduped, None if best is None else _pair(best, pn, e, config.tol)


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
    pn = PNormSpec.broadcast(pnorms, A.order)
    if init is not None:
        if A.is_zero():
            raise ZeroTensorError("singular pairs of the zero tensor are undefined")
        A, e = unit_scale(A)
        start = [unit_vector(np.asarray(v, dtype=float), pn[i]) for i, v in enumerate(init)]
        layout = Layout.singular(pn)
        xs = _alternating_run(A, layout, start, config)
        return _pair(settle(A, layout, _grade, xs, config), pn, e, config.tol)
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
