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

Pairs are collected by multi-start only; there is no deflation.  Each
restart runs a damped fixed-point iteration (fast on extremal pairs) and
a Gauss-Newton corrector from the same start, which also reaches interior
pairs that are saddle points of the constrained form and hence invisible
to any monotone iteration.

Every restart runs on A * 2**-e, the power-of-two rescaling of A to unit
Frobenius scale (``_restart.unit_scale``), so A and A * 2**j give
bit-identical vectors and lambda scaled by exactly 2**j.  ``tol``
therefore bounds the residual relative to 2**e, which is within a factor
2 of ||A||_F; the returned lambda and ``residual`` are reported on A.  At
p >= 3 a converged pair with near-zero entries is re-solved on its
support and returned with exact zeros when that solves the full system.
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
from .core import (
    DenseTensor,
    homogeneous_eval,
    is_symmetric,
    pair_contraction,
    partial_contraction,
)
from .errors import (
    ConvergenceWarning,
    DimensionError,
    ModeError,
    ParameterError,
    SymmetryError,
    ZeroTensorError,
)
from .pnorm import lp_norm, sign_power, sign_root, unit_vector

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
    if not 0 <= mode < A.order:
        raise ModeError(f"mode {mode + 1} out of range for an order-{A.order} tensor")
    x = np.asarray(x, dtype=float)
    g = partial_contraction(A, [x] * A.order, mode)
    return float(np.linalg.norm(g - lam * sign_power(x, p - 1)))


def _make_pair(A, x, p, mode, tol):
    x = unit_vector(x, p)
    if _leading_negative(x):
        # canonical representative: leading significant component positive;
        # for odd order the eigenvalue flips with the vector
        x = -x
    lam = homogeneous_eval(A, x)
    res = eigen_residual(A, x, lam, p, mode)
    return EigenPair(
        vector=x.copy(),
        lam=float(lam),
        mode=mode,
        p=p,
        residual=res,
        converged=res <= tol,
    )


def _fixed_point_run(A, x0, p, mode, config):
    """Damped fixed-point iteration from one start; best iterate wins."""
    k = A.order
    x = x0.copy()
    best_x, best_res = x.copy(), np.inf
    damped = False
    prev, prev2 = None, None
    trail = []
    for _ in range(config.max_iter):
        g = partial_contraction(A, [x] * k, mode)
        if not g.any():
            # annihilated direction: x is an exact lambda = 0 eigenpair
            return x, 0.0
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
        if (
            len(trail) > _STAGNATION_WINDOW
            and trail[-1] > _STAGNATION_FACTOR * trail[-1 - _STAGNATION_WINDOW]
        ):
            break
    return best_x, best_res


def _system_functions(A, p, mode):
    """Square stationarity-plus-normalization system in (x, lambda)."""
    k = A.order
    n = A.dims[0]
    q = p - 1

    def residual(z):
        x, lam = z[:n], z[n]
        g = partial_contraction(A, [x] * k, mode)
        return np.concatenate(
            [g - lam * sign_power(x, q), [(np.abs(x) ** p).sum() - 1.0]]
        )

    def jacobian(z):
        x, lam = z[:n], z[n]
        xs = [x] * k
        D = np.zeros((n, n))
        for j in range(k):
            if j != mode:
                D += pair_contraction(A, xs, mode, j)
        deriv = q * np.abs(x) ** (q - 1) if q > 1 else np.ones(n)
        D -= lam * np.diag(deriv)
        J = np.zeros((n + 1, n + 1))
        J[:n, :n] = D
        J[:n, n] = -sign_power(x, q)
        J[n, :n] = p * sign_power(x, p - 1)
        return J

    return residual, jacobian


def _polish_candidate(A, x, p, mode, config):
    residual, jacobian = _system_functions(A, p, mode)
    x = np.asarray(x, dtype=float)
    lam0 = homogeneous_eval(A, x)
    z0 = np.concatenate([x, [lam0]])
    z, _ = gauss_newton(residual, jacobian, z0, tol=min(config.tol * 1e-3, 1e-13))
    if lp_norm(z[:-1], p) < 0.5:
        return None
    pair = _make_pair(A, z[:-1], p, mode, config.tol)
    return pair if pair.converged else None


def _snap(A, p, mode, pair, config):
    """The converged ``pair`` on its exact support, if it has one.

    For each candidate zero set (``_restart.zero_sets``), largest first,
    the system is re-solved on the sub-tensor with the one support S in
    every slot.  The first result whose restricted Jacobian has full
    column rank and whose full residual is at most ``SNAP_ACCEPT * tol``
    replaces the pair; otherwise it stays as it is.
    """
    for (support,) in zero_sets([pair.vector], [p]):
        residual, jacobian = _system_functions(
            DenseTensor.from_array(A.array[np.ix_(*[support] * A.order)]), p, mode
        )
        z0 = np.concatenate([pair.vector[support], [pair.lam]])
        z, _ = gauss_newton(residual, jacobian, z0, tol=min(config.tol * 1e-3, 1e-13))
        if lp_norm(z[:-1], p) < 0.5:
            continue
        x = np.zeros_like(pair.vector)
        x[support] = z[:-1]
        snapped = _make_pair(A, x, p, mode, config.tol)
        if snapped.residual > SNAP_ACCEPT * config.tol:
            continue
        J = jacobian(z)
        if np.linalg.matrix_rank(J) == J.shape[1]:
            return snapped
    return pair


def _canonical_key(pair):
    return np.concatenate([[pair.lam], pair.vector])


def _dedup(pairs):
    kept = []
    keys = []
    for pair in sorted(pairs, key=lambda e: (-e.lam, e.residual)):
        key = _canonical_key(pair)
        if any(np.max(np.abs(key - other)) <= _DEDUP_TOL for other in keys):
            continue
        kept.append(pair)
        keys.append(key)
    kept.sort(key=lambda e: (-e.lam, tuple(e.vector)))
    return kept


def _collect(A, p, mode, config):
    """All restarts on the unit-scaled tensor; deduped pairs scaled back to A."""
    if A.is_zero():
        raise ZeroTensorError("eigenpairs of the zero tensor are undefined")
    config = config or SolverConfig()
    p = int(p)
    if p < 2:
        raise ParameterError(f"norm exponent must be an integer >= 2, got {p}")
    A, e = unit_scale(A)
    found = []
    n = A.dims[0]
    for r in range(config.restarts):
        rng = restart_rng(config, r)
        g = rng.standard_normal(n)
        while lp_norm(g, p) < 1e-8:
            g = rng.standard_normal(n)
        x0 = unit_vector(g, p)
        polished = _polish_candidate(A, x0, p, mode, config)
        if polished is not None:
            found.append(_snap(A, p, mode, polished, config))
        x, _ = _fixed_point_run(A, x0, p, mode, config)
        # always squeeze with the corrector: near-degenerate pairs can sit
        # within tolerance while junk of size ~sqrt(tol) lingers in flat
        # directions, which would defeat deduplication
        pair = _polish_candidate(A, x, p, mode, config)
        if pair is None:
            pair = _make_pair(A, x, p, mode, config.tol)
        if pair.converged:
            found.append(_snap(A, p, mode, pair, config))
    if not found:
        warnings.warn(
            f"none of {config.restarts} restarts converged to tol={config.tol:g}",
            ConvergenceWarning,
            stacklevel=3,
        )
    return [
        replace(pair, lam=math.ldexp(pair.lam, e), residual=math.ldexp(pair.residual, e))
        for pair in _dedup(found)
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
    if not 0 <= mode < A.order:
        raise ModeError(f"mode {mode + 1} out of range for an order-{A.order} tensor")
    return _collect(A, p, mode, config)
