"""Planted inputs for algorithm branches that no other test reaches.

Each input drives one branch: an alternating update that is exactly zero,
a start that the tensor annihilates, a batched solve that is singular in
every row or in one row, and a restart run in which every ascent is
degenerate and nothing polishes.  The ascents run on stacked seeds, so
each planted seed shares its batch with an ordinary one where that can
show that the branch stays per seed.
"""

import numpy as np
import pytest

from lptensor import DenseTensor, SolverConfig, eigen, oracle, singular, solve_singular_pair
from lptensor._polish import Candidate, collect
from lptensor._system import _levenberg_polish
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


def test_exactly_zero_update_fails_only_its_own_seed():
    # seed 0 is the tuple above; seed 1 is ordinary; seed 2, (e1, e1, w),
    # has a zero mode-1 update too, but is itself a sigma = 0 pair
    starts = [np.array([[0.6, 0.8], [0.6, 0.8], [0.0, 1.0]]),
              np.array([[0.0, 1.0], [0.8, 0.6], [0.0, 1.0]]),
              np.array([[0.6, 0.8], [0.6, 0.8], [0.6, 0.8]])]
    layout = Layout.singular((2, 2, 2))
    (X, Y, W), errors = singular._ascend(corner(), layout, starts, SolverConfig())
    assert list(errors) == [0]
    assert "mode 1: exactly zero update" in str(errors[0])
    # the ordinary seed ascends to the one nonzero pair, e0 in every mode
    assert np.abs(np.abs(np.array([X[1], Y[1], W[1]])) - [1.0, 0.0]).max() <= 1e-12
    # the sigma = 0 pair ends exactly where it started
    assert all(B[2].tobytes() == S[2].tobytes() for B, S in zip((X, Y, W), starts))


def test_annihilated_start_is_returned_as_an_exact_eigenvector():
    start = [np.array([0.0, 1.0])]
    ordinary = np.array([0.6, 0.8])
    (X,), errors = eigen._ascend(
        corner(), Layout.eigen(2, 3, 0), [np.stack([start[0], ordinary])], SolverConfig()
    )
    x = X[0]
    assert errors == {}
    assert x.tobytes() == start[0].tobytes()
    assert eigen.eigen_residual(corner(), x, 0.0, 2) == 0.0
    assert X[1].tobytes() != ordinary.tobytes()


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


class MixedSystem:
    """Residual z0 + z1, scaled by 1e20 in rows with z0 >= 1000.

    In those rows J^T J + mu I rounds to an exactly singular matrix at any
    damping mu up to its cap; in the others it is regular, and the root
    z0 + z1 = 0 is a few steps away.
    """

    def scale(self, Z):
        return np.where(Z[:, :1] >= 1000.0, 1e20, 1.0)

    def residual(self, Z):
        return self.scale(Z) * (Z[:, :1] + Z[:, 1:])

    def jacobian(self, Z):
        return np.broadcast_to(self.scale(Z)[:, :, None], (Z.shape[0], 1, 2)).copy()


def test_singular_solve_in_one_row_leaves_the_other_rows_stepping():
    Z0 = np.array([[1000.0, 2000.0], [1.0, 2.0]])
    Z, cost = _levenberg_polish(MixedSystem(), Z0)
    assert Z[0].tobytes() == Z0[0].tobytes()
    assert Z[1].tobytes() != Z0[1].tobytes()
    assert cost[1] <= 1e-26
    # and exactly as it moves in a batch of its own
    alone, _ = _levenberg_polish(MixedSystem(), Z0[1:])
    assert Z[1].tobytes() == alone[0].tobytes()


def test_collect_reraises_when_every_ascent_is_degenerate():
    def grade(A, layout, blocks):
        return Candidate(list(blocks), 0.0, np.inf)

    def ascend(A, layout, starts, config):
        n = starts[0].shape[0]
        return starts, {r: DegenerateIterateError("planted degenerate ascent") for r in range(n)}

    A = DenseTensor.from_array(np.random.default_rng(190).standard_normal((2, 2, 2)))
    with pytest.raises(DegenerateIterateError, match="planted degenerate ascent"):
        collect(A, Layout.singular((2, 2, 2)), grade, ascend, SolverConfig(restarts=3))
