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

Pairs come from the restart pipeline in ``_polish``, with the one vector
in every slot (``slots = (0,) * k``, ``rows = (mode,)``); there is no
deflation.  This module adds the leading-positive sign convention and the
ascent, a damped fixed-point iteration that is fast on extremal pairs,
while the pipeline's Gauss-Newton corrector also reaches interior pairs:
saddle points of the constrained form, invisible to any monotone
iteration.  Lambda and ``residual`` are reported on A; ``tol`` bounds the
residual relative to the power-of-two scale of A (``SolverConfig``).
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._polish import Candidate, collect
from .config import SolverConfig, _leading_negative, _stagnated
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
    if _leading_negative(x):
        # canonical representative: leading significant component positive;
        # for odd order the eigenvalue flips with the vector
        x = -x
    lam = homogeneous_eval(A, x)
    return Candidate([x], lam, eigen_residual(A, x, lam, p, mode))


def _fixed_point_run(A, layout, start, config):
    """Damped fixed-point iteration from one start; best iterate wins."""
    p, mode = layout.exps[0], layout.rows[0]
    k = A.order
    x = start[0].copy()
    best_x, best_res = x.copy(), np.inf
    damped = False
    prev, prev2 = None, None
    trail = []
    for _ in range(config.max_iter):
        g = partial_contraction(A, [x] * k, mode)
        if not g.any():
            # annihilated direction: x is an exact lambda = 0 eigenpair
            return [x]
        update = unit_vector(sign_root(g, p - 1), p)
        if damped:
            step = x + _DAMPING * (update - x)
            if not step.any():
                break
            x_new = unit_vector(step, p)
        else:
            x_new = update
        if prev2 is not None and not damped:
            move = np.linalg.norm(x_new - x)
            back = np.linalg.norm(x_new - prev2)
            if move > 1e-14 and back < _OSCILLATION_RATIO * move:
                damped = True
        prev2, prev = prev, x
        x = x_new
        lam = homogeneous_eval(A, x)
        res = eigen_residual(A, x, lam, p, mode)
        if res < best_res:
            best_res = res
            best_x = x.copy()
        if res <= config.tol:
            break
        trail.append(best_res)
        if _stagnated(trail):
            break
    return [best_x]


def _collect(A, p, mode, config):
    """All restarts on the unit-scaled tensor; deduped pairs scaled back to A."""
    if A.is_zero():
        raise ZeroTensorError("eigenpairs of the zero tensor are undefined")
    config = config or SolverConfig()
    pn = PNormSpec((p,))
    found, _, e = collect(A, Layout.eigen(pn[0], A.order, mode), _grade, _fixed_point_run, config)
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
