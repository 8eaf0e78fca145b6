"""l^p eigenpairs of cubical tensors.

For a symmetric tensor A, an l^p eigenpair is a unit l^p vector x and a
scalar lambda with ``A(I, x, ..., x) = lambda * sign_power(x, p-1)``.
The p = 2 and p = k cases are the familiar special cases: contraction
equal to ``lambda * x`` on the unit sphere, and (for even k) a homogeneous
system whose solutions can be rescaled freely.

For a nonsymmetric tensor the identity slot no longer commutes with the
others, so each mode gets its own family of eigenpairs: a mode-i pair
puts the identity in slot i and the *same* vector in every other slot.
(The defining equations are read per mode, each self-consistent in one
vector; no coupled multi-vector variant is implemented.)

Pairs come from the batched restart engine in ``_polish``, with the one
vector in every slot (``slots = (0,) * k``, ``rows = (mode,)``); there is
no deflation.  This module adds the leading-positive sign convention and
the ascent, a damped fixed-point iteration run for every restart at
once.  It is fast on extremal pairs, while the engine's damped
Gauss-Newton corrector also reaches interior pairs: saddle points of the
constrained form, invisible to any monotone iteration.  Lambda and
``residual`` are reported on A; ``tol`` bounds the residual relative to
the power-of-two scale of A (``SolverConfig``).
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._orbit import leading_signs
from ._polish import Candidate, collect, keep_rows
from ._system import _contract_batched, _renormalize_rows, _spow
from .config import SolverConfig, _stagnated
from .core import Layout, _check_mode, homogeneous_eval, is_symmetric, partial_contraction
from .errors import ConvergenceWarning, DimensionError, SymmetryError, ZeroTensorError
from .pnorm import PNormSpec, sign_power, sign_root, unit_vector

__all__ = [
    "EigenPair",
    "eigen_residual",
    "solve_symmetric_eigenpairs",
    "solve_mode_eigenpairs",
]

_OSCILLATION_RATIO = 1e-2
_DAMPING = 0.5


@dataclass(frozen=True)
class EigenPair:
    """A unit l^p vector with its eigenvalue for one identity slot.

    ``mode`` is the identity slot (always 0 for symmetric input), and
    ``lam`` equals ``A(x, ..., x)`` at the unit-norm representative.
    """

    vector: np.ndarray
    lam: float
    mode: int
    p: int
    residual: float
    converged: bool


def _check_cubical(A):
    if not A.is_cubical():
        raise DimensionError(f"eigenpairs need a cubical tensor, got dims {A.dims}")


def eigen_residual(A, x, lam, p, mode=0):
    """l2 norm of ``A(..., I at mode, ...) - lam * sign_power(x, p-1)``.

    Zero exactly at mode-``mode`` eigenpairs; defined for non-unit x too,
    which is what the p = k scale-invariance checks rely on.
    """
    _check_cubical(A)
    _check_mode(A, mode)
    x = np.asarray(x, dtype=float)
    g = partial_contraction(A, [x] * A.order, mode)
    return float(np.linalg.norm(g - lam * sign_power(x, p - 1)))


def _grade(A, layout, blocks):
    """Normalize, apply the leading-positive convention, and grade."""
    p, mode = layout.exps[0], layout.rows[0]
    x = unit_vector(blocks[0], p)
    # canonical representative: leading significant component positive;
    # for odd order the eigenvalue flips with the vector
    x = x * leading_signs(x[None])
    lam = homogeneous_eval(A, x)
    return Candidate([x], lam, eigen_residual(A, x, lam, p, mode))


def _ascend(A, layout, starts, config):
    """Damped fixed-point iteration from N stacked starts; per seed its best vector.

    A seed starts undamped and switches to half steps once its iterates
    oscillate between two points.  It stops once converged, stagnated
    (``config._stagnated``), out of ``max_iter``, or at an exactly zero
    damped step.  A seed whose contraction is exactly zero is an exact
    lambda = 0 eigenpair and ends there.  No seed is degenerate; returns
    ``(blocks, {})`` as ``_polish.restart_pairs`` expects.
    """
    arr, p, mode, k = A.array, layout.exps[0], layout.rows[0], len(layout.slots)
    X = starts[0].copy()
    best, best_res = X.copy(), np.full(X.shape[0], np.inf)
    live = np.arange(X.shape[0])
    done = np.zeros(X.shape[0], dtype=bool)
    damped = np.zeros(X.shape[0], dtype=bool)
    prev = prev2 = None
    g = _contract_batched(arr, [X] * k, (mode,))
    trail = []
    for _ in range(config.max_iter):
        # an annihilated direction: the vector is an exact lambda = 0 eigenpair
        zero = ~g.any(axis=1)
        if zero.any():
            best[live[zero]] = X[zero]
            live, X, g, damped, prev, prev2 = keep_rows(~zero, live, X, g, damped, prev, prev2)
        X_new = _renormalize_rows(sign_root(g, p - 1), p)
        stop = np.zeros(live.size, dtype=bool)
        if damped.any():
            step = X[damped] + _DAMPING * (X_new[damped] - X[damped])
            moved = step.any(axis=1)
            # a seed whose damped step is exactly zero stops at its best
            # iterate; the zero step itself is never normalized
            stop[damped] = ~moved
            X_new[damped] = _renormalize_rows(np.where(moved[:, None], step, X[damped]), p)
        if prev2 is not None:
            move = np.linalg.norm(X_new - X, axis=1)
            back = np.linalg.norm(X_new - prev2, axis=1)
            damped |= (move > 1e-14) & (back < _OSCILLATION_RATIO * move)
        prev2, prev, X = prev, X, X_new
        g = _contract_batched(arr, [X] * k, (mode,))
        lam = np.einsum("zd,zd->z", g, X)
        res = np.linalg.norm(g - lam[:, None] * _spow(X, p - 1), axis=1)
        improved = ~stop & (res < best_res[live])
        best_res[live[improved]] = res[improved]
        best[live[improved]] = X[improved]
        trail.append(best_res.copy())
        done[live[stop | (res <= config.tol)]] = True
        done |= _stagnated(trail)
        live, X, g, damped, prev, prev2 = keep_rows(
            ~done[live], live, X, g, damped, prev, prev2
        )
        if not live.size:
            break
    return [best], {}


def _collect(A, p, mode, config):
    """All restarts on the unit-scaled tensor; deduped pairs scaled back to A."""
    if A.is_zero():
        raise ZeroTensorError("eigenpairs of the zero tensor are undefined")
    config = config or SolverConfig()
    pn = PNormSpec((p,))
    found, _, e = collect(A, Layout.eigen(pn[0], A.order, mode), _grade, _ascend, config)
    if not found:
        warnings.warn(
            f"none of {config.restarts} restarts converged to tol={config.tol:g}",
            ConvergenceWarning,
            stacklevel=3,
        )
    return [
        EigenPair(
            vector=pair.blocks[0],
            lam=math.ldexp(pair.value, e),
            mode=mode,
            p=pn[0],
            residual=math.ldexp(pair.residual, e),
            converged=pair.residual <= config.tol,
        )
        for pair in found
    ]


def solve_symmetric_eigenpairs(A, p, config=None, symmetry_atol=None):
    """All distinct l^p eigenpairs of a symmetric tensor found by restarts.

    :param A: symmetric DenseTensor (checked; symmetrize beforehand if
        needed, that choice is the caller's).
    :param p: integer norm exponent >= 2; p=2 and p=order are the classic
        special cases.
    :param config: SolverConfig; defaults apply when omitted.
    :param symmetry_atol: pass a small tolerance to accept tensors that
        are symmetric only up to rounding.
    :returns: EigenPair list sorted by eigenvalue descending, deduplicated
        up to the sign symmetry of the order.  Empty, with a
        ``ConvergenceWarning`` naming the restart count, if nothing
        converged.
    """
    _check_cubical(A)
    if not is_symmetric(A, atol=symmetry_atol):
        raise SymmetryError(
            "tensor is not symmetric; symmetrize() it first if that is intended"
        )
    return _collect(A, p, 0, config)


def solve_mode_eigenpairs(A, mode, p, config=None):
    """Mode-``mode`` eigenpairs of a cubical tensor of any symmetry.

    The identity sits in slot ``mode`` and the same vector fills every
    other slot.  For symmetric input the result coincides with
    ``solve_symmetric_eigenpairs`` for every mode.
    """
    _check_cubical(A)
    _check_mode(A, mode)
    return _collect(A, p, mode, config)
