"""Perron theory for nonnegative cubical tensors.

A cubical tensor is reducible when some nonempty proper index subset S
has ``a[j1, j2, ..., jk] = 0`` for every j1 outside S and all other
indices inside S; irreducible means no such subset exists (any tensor
with all entries positive is irreducible).  For nonnegative irreducible
input the mode-0 l^k eigenproblem has a positive eigenvector, unique up
to scale (Chang, Pearson & Zhang 2008), and for any positive x the ratios

    [A(I, x, ..., x)]_i / x_i^(k-1)

bracket its eigenvalue between their minimum and maximum (the
Collatz-Wielandt bounds).  The solver is one power-type iteration on those
ratios; restarts probe uniqueness only for input forced past the
reducibility check, where the theorem does not apply.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .config import SolverConfig, _stagnated, restart_rng
from .core import homogeneous_eval, partial_contraction
from .eigen import eigen_residual
from .errors import (
    DimensionError,
    DomainError,
    PositivityWarning,
    ReducibleError,
    UniquenessWarning,
    ZeroTensorError,
)
from .pnorm import sign_root, unit_vector

__all__ = [
    "PerronResult",
    "is_nonnegative",
    "find_reducing_set",
    "collatz_wielandt",
    "solve_perron",
]


@dataclass(frozen=True)
class PerronResult:
    """Outcome of the power iteration on a nonnegative tensor.

    ``lower`` and ``upper`` are the final Collatz-Wielandt bounds; ``lam``
    always lies between them.  ``trace`` optionally records the bound
    history, one (lower, upper) per iteration.
    """

    lam: float
    vector: np.ndarray
    lower: float
    upper: float
    iterations: int
    converged: bool
    residual: float
    trace: tuple = None


def is_nonnegative(A):
    """True iff every entry of ``A`` is >= 0 (strict: -1e-300 fails)."""
    return bool((A.array >= 0).all())


def find_reducing_set(A):
    """Smallest (then lexicographically first) reducing subset, or None.

    S reduces A iff F(S) lies in S, where F(S) holds the rows i with
    ``a[i, j2, ..., jk] != 0`` for some j2, ..., jk in S.  F is monotone,
    so the smallest reducing sets are the smallest proper closures cl(j),
    the fixpoints of S <- S | F(S) from {j}.  A round reads only the index
    tuples that gained a coordinate, so this costs O(n^2 * n^(k-1)).
    Returns a tuple of zero-based ints; None means irreducible.
    """
    if not A.is_cubical():
        raise DimensionError(f"reducibility needs a cubical tensor, got dims {A.dims}")
    n, k = A.dims[0], A.order
    nonzero, trailing = A.array != 0, tuple(range(1, k))
    closures = []
    for j in range(n):
        old, new = np.empty(0, dtype=np.intp), np.array([j])
        while new.size and old.size + new.size < n:
            inside = np.concatenate([old, new])
            rows = np.zeros(n, dtype=bool)
            for p in range(k - 1):  # tuples whose first coordinate from `new` is at p
                axes = [old] * p + [new] + [inside] * (k - 2 - p)
                rows |= nonzero[(slice(None),) + np.ix_(*axes)].any(axis=trailing)
            rows[inside] = False
            old, new = inside, np.flatnonzero(rows)
        if not new.size:  # otherwise cl(j) is the whole index set
            closures.append(tuple(int(i) for i in np.sort(old)))
    return min(closures, key=lambda s: (len(s), s), default=None)


def collatz_wielandt(A, x):
    """Bracketing ratios (min, max) of ``A(I, x, ..., x)_i / x_i^(k-1)``.

    Requires ``A >= 0`` and ``x > 0`` entrywise.  For irreducible A the
    Perron value lies between the two returned numbers, and they coincide
    exactly when x solves the mode-0 l^k eigenproblem.
    """
    if not is_nonnegative(A):
        raise DomainError("Collatz-Wielandt ratios need a nonnegative tensor")
    if not A.is_cubical():
        raise DimensionError(f"needs a cubical tensor, got dims {A.dims}")
    x = np.asarray(x, dtype=float)
    if x.shape != (A.dims[0],):
        raise DimensionError(
            f"mode 1: expected a vector of length {A.dims[0]}, got {x.size}"
        )
    if not (x > 0).all():
        raise DomainError("Collatz-Wielandt ratios need a strictly positive vector")
    y = partial_contraction(A, [x] * A.order, 0)
    denom = x ** (A.order - 1)
    ratios = y / denom
    return float(ratios.min()), float(ratios.max())


def _power_run(A, x0, config, collect_trace=False):
    """Power iteration from a positive start; returns a PerronResult."""
    k = A.order
    x = unit_vector(np.asarray(x0, dtype=float), k)
    damped = False
    lower = upper = np.nan
    trace = [] if collect_trace else None
    converged = False
    iterations = 0
    gaps = []
    for it in range(1, config.max_iter + 1):
        iterations = it
        y = partial_contraction(A, [x] * k, 0)
        if (x > 0).all():
            ratios = y / x ** (k - 1)
            lower, upper = float(ratios.min()), float(ratios.max())
            if trace is not None:
                trace.append((lower, upper))
            gap = upper - lower
            if gap <= config.tol * lower:
                converged = True
                break
            gaps.append(gap)
            if not damped and _stagnated(gaps):
                damped = True
        z = sign_root(y, k - 1)
        if damped:
            step = x + z
        else:
            step = z
            if not step.any():
                break
            if (step == 0).any():
                # keep iterates strictly positive from here on
                damped = True
                step = x + z
        x = unit_vector(step, k)
    lam = homogeneous_eval(A, x)
    if np.isfinite(lower) and np.isfinite(upper):
        # the evaluation is a convex combination of the ratios, so any
        # excursion outside the bracket is pure rounding
        lam = min(max(lam, lower), upper)
    residual = eigen_residual(A, x, lam, k, mode=0)
    return PerronResult(
        lam=float(lam),
        vector=x.copy(),
        lower=lower,
        upper=upper,
        iterations=iterations,
        converged=converged,
        residual=residual,
        trace=tuple(trace) if trace is not None else None,
    )


def solve_perron(A, config=None, force=False, collect_trace=False):
    """Positive l^k eigenpair of a nonnegative irreducible tensor.

    :param A: nonnegative DenseTensor; must be irreducible unless
        ``force=True`` overrides the check.
    :param config: SolverConfig; ``tol`` bounds the bracket gap relative
        to the lower bound.  The result is one power run from the uniform
        start, the unique positive eigenpair for irreducible A.
    :param force: skip the reducibility precondition; ``config.restarts -
        1`` extra runs from random positive starts then probe uniqueness.
    :param collect_trace: record the Collatz-Wielandt bounds per iteration.
    :returns: PerronResult; ``converged`` reflects the relative bound gap.

    Warns with PositivityWarning when the converged vector has entries
    below 1e-12, and with UniquenessWarning when a forced restart
    converges to a visibly different nonnegative eigenpair.
    """
    config = config or SolverConfig()
    if not is_nonnegative(A):
        raise DomainError("the Perron solver needs a nonnegative tensor")
    if A.is_zero():
        raise ZeroTensorError("the zero tensor has no positive eigenvalue")
    if not A.is_cubical():
        raise DimensionError(f"the Perron solver needs a cubical tensor, got dims {A.dims}")
    if not force:
        reducing = find_reducing_set(A)
        if reducing is not None:
            shown = "{" + ", ".join(str(i + 1) for i in reducing) + "}"
            raise ReducibleError(
                f"tensor is reducible (index set {shown} reduces it); "
                "pass force=True to iterate anyway",
                reducing_set=reducing,
            )
    n = A.dims[0]
    result = _power_run(A, np.ones(n), config, collect_trace=collect_trace)
    if result.converged and (result.vector <= 1e-12).any():
        warnings.warn(
            "computed eigenvector has entries at or below 1e-12; positivity "
            "is not established for this input",
            PositivityWarning,
            stacklevel=2,
        )
    if force and result.converged:
        for r in range(1, config.restarts):
            start = restart_rng(config, r).uniform(0.1, 1.0, size=n)
            other = _power_run(A, start, config)
            if other.converged and (
                abs(other.lam - result.lam) > 1e-6 * result.lam
                or np.max(np.abs(other.vector - result.vector)) > 1e-6
            ):
                warnings.warn(
                    "restarts found more than one nonnegative eigenpair; "
                    "the reported one comes from the uniform start",
                    UniquenessWarning,
                    stacklevel=2,
                )
                break
    return result
