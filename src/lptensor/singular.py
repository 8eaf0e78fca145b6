"""l^{p_1,...,p_k} singular pairs of general dense tensors.

A singular pair of a tensor A is a tuple of unit mode vectors
(x_1, ..., x_k) together with a scalar sigma such that contracting A with
every vector but the i-th yields ``sigma * sign_power(x_i, p_i - 1)`` in
each mode i.  For matrices with p = (2, 2) this reduces to the ordinary
singular value decomposition conditions ``A v = sigma u`` and
``A^T u = sigma v``.

Pairs come from the batched restart engine in ``_polish``, with one
block per mode (``slots = rows = (0, ..., k-1)``).  This module adds the
sigma >= 0 convention and the ascent: cyclic alternating updates, each
solving one mode's stationarity exactly given the others, run for every
restart at once.  They converge fast to extremal pairs, while the
engine's damped Gauss-Newton corrector also lands on non-extremal pairs
that no monotone iteration can reach.  Convergence is declared on the
residual, never on iterate movement.  Sigma and ``residual`` are
reported on A; ``tol`` bounds the residual relative to the power-of-two
scale of A (``SolverConfig``).
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._polish import Candidate, collect, keep_rows, restart_pairs
from ._restart import unit_scale
from ._system import _contract_batched, _renormalize_rows, _spow
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


def _defect(arr, Xs, exps, g_last):
    """Per row, the worst-mode stationarity defect; and mode 0's contraction.

    ``g_last`` is the last mode's contraction at ``Xs``, which the sweep
    that made ``Xs`` computed already.
    """
    k = len(exps)
    gs = [_contract_batched(arr, Xs, (i,)) for i in range(k - 1)] + [g_last]
    sigma = np.einsum("zd,zd->z", gs[-1], Xs[-1])
    # np.max keeps a NaN defect (a NaN or infinite input) as NaN
    defects = [
        np.linalg.norm(g - sigma[:, None] * _spow(X, p - 1), axis=1)
        for g, X, p in zip(gs, Xs, exps)
    ]
    return np.max(defects, axis=0), gs[0]


def _ascend(A, layout, starts, config):
    """Cyclic alternating updates from N stacked starts; per seed its best tuple.

    Each mode update solves that mode's stationarity exactly given the
    other vectors.  A seed stops once converged, stagnated
    (``config._stagnated``) or out of ``max_iter``.  A seed whose update
    in some mode is exactly zero stops there: it ends as it is if its
    tuple is a sigma = 0 pair already, and is degenerate otherwise.
    Returns ``(blocks, errors)`` as ``_polish.restart_pairs`` expects.
    """
    arr, exps = A.array, layout.exps
    best = [X.copy() for X in starts]
    best_res = np.full(starts[0].shape[0], np.inf)
    done = np.zeros(best_res.size, dtype=bool)
    errors = {}
    live = np.arange(best_res.size)
    Xs = [X.copy() for X in starts]
    g = _contract_batched(arr, Xs, (0,))
    trail = []
    for _ in range(config.max_iter):
        for i, p in enumerate(exps):
            if i:
                g = _contract_batched(arr, Xs, (i,))
            zero = ~g.any(axis=1)
            if zero.any():
                # the current tuple may itself be a sigma = 0 pair
                stuck = [X[zero] for X in Xs]
                res, _ = _defect(arr, stuck, exps, _contract_batched(arr, stuck, (len(exps) - 1,)))
                for j, r in enumerate(live[zero].tolist()):
                    if res[j] <= config.tol:
                        for B, X in zip(best, stuck):
                            B[r] = X[j]
                    else:
                        errors[r] = DegenerateIterateError(
                            f"mode {i + 1}: exactly zero update direction"
                        )
                live, g, *Xs = keep_rows(~zero, live, g, *Xs)
            Xs[i] = _renormalize_rows(sign_root(g, p - 1), p)
        res, g = _defect(arr, Xs, exps, g)
        improved = res < best_res[live]
        best_res[live[improved]] = res[improved]
        for B, X in zip(best, Xs):
            B[live[improved]] = X[improved]
        trail.append(best_res.copy())
        done[live[res <= config.tol]] = True
        done |= _stagnated(trail)
        live, g, *Xs = keep_rows(~done[live], live, g, *Xs)
        if not live.size:
            break
    return best, errors


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
    found, best, e = collect(A, Layout.singular(pn), _grade, _ascend, config)
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

    With ``init`` the solver runs only from that tuple, as a batch of one
    on the unit-scaled tensor like the restarts, and returns its ascent's
    result (alternating updates plus a damped Gauss-Newton finish).
    Otherwise it runs the full restart schedule and returns the converged
    pair with the largest sigma, or, failing convergence everywhere, the
    best iterate seen with ``converged=False``.
    """
    config = config or SolverConfig()
    pn = PNormSpec.broadcast(pnorms, A.order)
    if init is not None:
        if A.is_zero():
            raise ZeroTensorError("singular pairs of the zero tensor are undefined")
        A, e = unit_scale(A)
        start = [unit_vector(np.asarray(v, dtype=float), pn[i])[None] for i, v in enumerate(init)]
        _, ends, errors = restart_pairs(A, Layout.singular(pn), _grade, _ascend, start, config)
        if errors:
            raise errors[0]
        return _pair(ends[0], pn, e, config.tol)
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
