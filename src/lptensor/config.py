"""Solver configuration shared by the singular, eigen and Perron solvers.

Besides ``SolverConfig`` this holds the fixed constants the restart
solvers share: the dedup tolerance, the stagnation test and the sign
convention used to pick one representative of a pair.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = ["SolverConfig", "restart_rng"]

# two converged pairs closer than this in every component are one pair
_DEDUP_TOL = 1e-6
_STAGNATION_WINDOW = 50
_STAGNATION_FACTOR = 0.999


@dataclass(frozen=True)
class SolverConfig:
    """Tolerance, iteration budget and restart schedule for the solvers.

    ``seed`` fixes every random start: restart number ``i`` draws from a
    generator seeded by ``(seed, i)``, so results do not depend on the
    order restarts are executed in.

    The restart solvers run on A * 2**-e, the power-of-two rescaling of A
    to unit Frobenius norm, so for them ``tol`` bounds the residual
    relative to 2**e (within a factor 2 of ||A||_F); the ``residual`` they
    report is on A.  At p >= 3 their pairs come back with exact zeros
    where a zero entry solves the system.
    """

    tol: float = 1e-10
    max_iter: int = 1000
    restarts: int = 32
    seed: int = 1

    def __post_init__(self):
        if not self.tol > 0:
            raise ParameterError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ParameterError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.restarts < 1:
            raise ParameterError(f"restarts must be >= 1, got {self.restarts}")
        if self.seed < 0:
            raise ParameterError(f"seed must be a nonnegative integer, got {self.seed}")


def restart_rng(config, index):
    """Deterministic per-restart generator derived from the config seed."""
    return np.random.default_rng((config.seed, index))


def _stagnated(trail):
    """True once the tracked defect ``trail`` fell by less than 0.1% in 50 steps."""
    return (
        len(trail) > _STAGNATION_WINDOW
        and trail[-1] > _STAGNATION_FACTOR * trail[-1 - _STAGNATION_WINDOW]
    )


def _leading_negative(x):
    """Sign of the first component within a factor 10 of the largest.

    Residual-flat directions near degenerate pairs can carry junk of size
    ~sqrt(tol); only entries of significant size may pick the orientation.
    """
    significant = np.flatnonzero(np.abs(x) >= 0.1 * np.max(np.abs(x)))
    return x[significant[0]] < 0
