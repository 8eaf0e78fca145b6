"""Returned pairs are pairwise distinct up to the solvers' sign symmetries.

Flipping an even set of singular mode vectors keeps sigma, and negating an
eigenvector maps lambda to (-1)^k lambda.  No two returned pairs may lie
within 1e-6 of each other, in every component, after any such move.
"""

import itertools

import numpy as np
import pytest

from lptensor import (
    DenseTensor,
    solve_mode_eigenpairs,
    solve_singular_pairs,
    solve_symmetric_eigenpairs,
    symmetrize,
)

TOL = 1e-6


def gaussian(seed, dims):
    return DenseTensor.from_array(np.random.default_rng(seed).standard_normal(dims))


def singular_orbit(pair):
    k = len(pair.vectors)
    for signs in itertools.product((1.0, -1.0), repeat=k):
        if signs.count(-1.0) % 2 == 0:
            yield np.concatenate([[pair.sigma]] + [s * v for s, v in zip(signs, pair.vectors)])


def eigen_orbit(pair, order):
    yield np.concatenate([[pair.lam], pair.vector])
    yield np.concatenate([[(-1) ** order * pair.lam], -pair.vector])


def assert_pairwise_distinct(orbits):
    for (i, a), (j, b) in itertools.combinations(enumerate(orbits), 2):
        point = a[0]
        gap = min(np.max(np.abs(point - member)) for member in b)
        assert gap > TOL, f"pairs {i} and {j} are one pair up to sign, {gap:.2e} apart"


@pytest.mark.parametrize(
    "seed, dims, p", [(71, (2, 2, 2), 2), (72, (2, 3, 4), 3)], ids=["2x2x2-p2", "2x3x4-p3"]
)
def test_singular_pairs_distinct_up_to_even_flips(seed, dims, p):
    pairs = solve_singular_pairs(gaussian(seed, dims), p)
    assert len(pairs) >= 2
    assert_pairwise_distinct([list(singular_orbit(pair)) for pair in pairs])


@pytest.mark.parametrize(
    "solve",
    [
        lambda: solve_symmetric_eigenpairs(symmetrize(gaussian(73, (3, 3, 3))), 3),
        lambda: solve_mode_eigenpairs(gaussian(74, (3, 3, 3)), 1, 3),
    ],
    ids=["symmetric-3^3-p3", "mode1-3^3-p3"],
)
def test_eigenpairs_distinct_up_to_negation(solve):
    pairs = solve()
    assert len(pairs) >= 2
    assert_pairwise_distinct([list(eigen_orbit(pair, 3)) for pair in pairs])


def test_matrix_gives_one_pair_per_singular_value():
    A = gaussian(75, (4, 4))
    pairs = solve_singular_pairs(A, 2)
    assert len(pairs) == 4
    np.testing.assert_allclose(
        [pair.sigma for pair in pairs], np.linalg.svd(A.array, compute_uv=False), rtol=1e-10
    )
    assert_pairwise_distinct([list(singular_orbit(pair)) for pair in pairs])
