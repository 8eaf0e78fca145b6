"""Planted inputs for algorithm branches that no other test reaches.

Each input drives one branch: an alternating update that is exactly zero,
a start that the tensor annihilates, a batched solve that is singular,
and a restart run in which every ascent is degenerate and nothing
polishes.
"""

import numpy as np
import pytest

from lptensor import DenseTensor, SolverConfig, eigen, oracle, solve_singular_pair
from lptensor._polish import Candidate, collect
from lptensor.core import Layout
from lptensor.errors import DegenerateIterateError


def corner():
    """e0 (x) e0 (x) e0: a contraction vanishes once a vector has no e0 part."""
    arr = np.zeros((2, 2, 2))
    arr[0, 0, 0] = 1.0
    return DenseTensor.from_array(arr)


def test_exactly_zero_alternating_update_raises():
    # mode 1's update contracts x_2 = e1: exactly zero, and the tuple is no
    # sigma = 0 pair, since mode 2's defect is 0.36 (times the unit scale)
    with pytest.raises(DegenerateIterateError, match="mode 1: exactly zero update"):
        solve_singular_pair(corner(), 2, init=[[0.6, 0.8], [0.0, 1.0], [0.6, 0.8]])


def test_annihilated_start_is_returned_as_an_exact_eigenvector():
    start = [np.array([0.0, 1.0])]
    (x,) = eigen._fixed_point_run(corner(), Layout.eigen(2, 3, 0), start, SolverConfig())
    assert x.tobytes() == start[0].tobytes()
    assert eigen.eigen_residual(corner(), x, 0.0, 2) == 0.0


class RankOneSystem:
    """A stub whose J^T J + 1e-4 I rounds to an exactly singular matrix."""

    def __init__(self):
        self.residual_calls = 0

    def residual(self, Z):
        self.residual_calls += 1
        return np.ones((Z.shape[0], 1))

    def jacobian(self, Z):
        return np.full((Z.shape[0], 1, 2), 1e10)


def test_singular_batched_solve_damps_and_leaves_seeds_unmoved():
    Z0 = np.arange(6.0).reshape(3, 2)
    system = RankOneSystem()
    Z, cost = oracle._levenberg_polish(system, Z0, iters=1)
    # the solve failed, so no trial step was evaluated
    assert system.residual_calls == 1
    assert Z.tobytes() == Z0.tobytes() and cost.tolist() == [1.0, 1.0, 1.0]
    Z, _ = oracle._levenberg_polish(RankOneSystem(), Z0)
    assert Z.tobytes() == Z0.tobytes()


def test_collect_reraises_when_every_ascent_is_degenerate():
    def grade(A, layout, blocks):
        return Candidate(list(blocks), 0.0, np.inf)

    def ascend(A, layout, blocks, config):
        raise DegenerateIterateError("planted degenerate ascent")

    A = DenseTensor.from_array(np.random.default_rng(190).standard_normal((2, 2, 2)))
    with pytest.raises(DegenerateIterateError, match="planted degenerate ascent"):
        collect(A, Layout.singular((2, 2, 2)), grade, ascend, SolverConfig(restarts=3))
