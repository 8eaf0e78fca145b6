"""The paper's invariances as properties of the restart solvers.

A map T of the tensor that carries critical points to critical points
with the same values leaves the value set unchanged.  So the values that
the solvers find on T(A) must lie in the set that the grid oracle finds
on A.  Containment holds at any restart budget: a restart schedule may
miss a value, but it may not invent one.  The maps are an orthogonal
matrix per mode at p = 2 (one shared matrix for an eigenproblem), a
signed permutation at p != 2, a permutation of the modes (singular only),
and sign flips.  An eigenvector's negation maps lambda to
(-1)**order * lambda, so at odd order |lambda| is compared.
"""

import functools
from itertools import combinations

import numpy as np
import pytest

from lptensor import (
    DenseTensor,
    enumerate_critical_points,
    multilinear_transform,
    sigma_max,
    singular_residual,
    solve_mode_eigenpairs,
    solve_singular_pairs,
    solve_symmetric_eigenpairs,
    symmetrize,
)

# two values closer than this are one value (the tensors have unit-size entries)
VALUE_TOL = 1e-7


def gaussian(seed, dims):
    return DenseTensor.from_array(np.random.default_rng(seed).standard_normal(dims))


def symmetric(seed, n):
    return symmetrize(gaussian(seed, (n, n, n)))


def orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def signed_permutation(rng, n):
    return np.eye(n)[rng.permutation(n)] * rng.choice((-1.0, 1.0), size=n)


def even_flips(rng, dims):
    """Diagonal sign matrices, one per mode, flipping an even number of coordinates."""
    signs = np.concatenate([rng.choice((-1.0, 1.0), size=d) for d in dims])
    if (signs < 0).sum() % 2:
        signs[0] = -signs[0]
    cuts = np.cumsum(dims)[:-1]
    return [np.diag(s) for s in np.split(signs, cuts)]


# (label, tensor, p, kind, mode); every mode dimension is at most 3 for the oracle
CASES = {
    "singular-222-p2": (lambda: gaussian(300, (2, 2, 2)), 2, "singular", 0),
    "singular-223-p2": (lambda: gaussian(301, (2, 2, 3)), 2, "singular", 0),
    "singular-222-p3": (lambda: gaussian(302, (2, 2, 2)), 3, "singular", 0),
    "singular-223-mixed": (lambda: gaussian(303, (2, 2, 3)), (2, 3, 4), "singular", 0),
    "symmetric-333-p2": (lambda: symmetric(304, 3), 2, "symmetric", 0),
    "symmetric-333-p3": (lambda: symmetric(305, 3), 3, "symmetric", 0),
    "mode1-333-p3": (lambda: gaussian(306, (3, 3, 3)), 3, "mode", 1),
}


def resolution(A, kind):
    """Grid resolution: a sphere grid in R^3 has resolution**2 / 2 points, in R^2 resolution / 2."""
    if kind != "singular":
        return 40
    return 12 if 3 in A.dims else 20


@functools.lru_cache(maxsize=None)
def case(label):
    make, p, kind, mode = CASES[label]
    return make(), p, kind, mode


@functools.lru_cache(maxsize=None)
def oracle_values(label):
    A, p, kind, mode = case(label)
    oracle_kind = "singular" if kind == "singular" else "eigen"
    points = enumerate_critical_points(
        A, p, kind=oracle_kind, resolution=resolution(A, kind), mode=mode
    )
    assert points
    return np.array([comparable(pt.value, A.order, kind) for pt in points])


def comparable(value, order, kind):
    return abs(value) if kind != "singular" and order % 2 else value


def solver_values(A, p, kind, mode):
    if kind == "singular":
        return [pair.sigma for pair in solve_singular_pairs(A, p)]
    if kind == "symmetric":
        return [pair.lam for pair in solve_symmetric_eigenpairs(A, p)]
    return [pair.lam for pair in solve_mode_eigenpairs(A, mode, p)]


def assert_values_contained(label, T_A, p=None):
    A, p0, kind, mode = case(label)
    found = solver_values(T_A, p0 if p is None else p, kind, mode)
    assert found, "the solver must find at least one value"
    known = oracle_values(label)
    for value in found:
        gap = np.abs(known - comparable(value, A.order, kind)).min()
        assert gap <= VALUE_TOL, (label, value, sorted(known))


def transformed(A, mats, kind):
    T_A = multilinear_transform(A, mats)
    # a shared change of basis keeps symmetry only up to rounding
    return symmetrize(T_A) if kind == "symmetric" else T_A


def shared_or_per_mode(draw, rng, A, kind):
    if kind == "singular":
        return [draw(rng, d) for d in A.dims]
    return [draw(rng, A.dims[0])] * A.order


@pytest.mark.parametrize(
    "label", ["singular-222-p2", "singular-223-p2", "symmetric-333-p2"]
)
def test_orthogonal_change_of_basis_at_p2(label):
    A, _, kind, _ = case(label)
    mats = shared_or_per_mode(orthogonal, np.random.default_rng(310), A, kind)
    assert_values_contained(label, transformed(A, mats, kind))


@pytest.mark.parametrize(
    "label", ["singular-222-p3", "singular-223-mixed", "symmetric-333-p3", "mode1-333-p3"]
)
def test_signed_permutation_away_from_p2(label):
    A, _, kind, _ = case(label)
    mats = shared_or_per_mode(signed_permutation, np.random.default_rng(311), A, kind)
    assert_values_contained(label, transformed(A, mats, kind))


@pytest.mark.parametrize(
    "label, perm", [("singular-223-p2", (1, 2, 0)), ("singular-223-mixed", (2, 0, 1))]
)
def test_mode_permutation(label, perm):
    A, p, _, _ = case(label)
    exps = (p,) * A.order if np.isscalar(p) else p
    T_A = DenseTensor.from_array(np.transpose(A.array, perm))
    assert_values_contained(label, T_A, tuple(exps[i] for i in perm))


@pytest.mark.parametrize("label", ["singular-222-p3", "symmetric-333-p3", "mode1-333-p3"])
def test_even_sign_flips(label):
    A, _, kind, _ = case(label)
    rng = np.random.default_rng(312)
    if kind == "singular":
        mats = even_flips(rng, A.dims)
    else:
        mats = even_flips(rng, A.dims[:1]) * A.order
    assert_values_contained(label, transformed(A, mats, kind))


def test_flipping_an_even_set_of_mode_vectors_keeps_each_pair():
    A, p, _, _ = case("singular-222-p3")
    pairs = solve_singular_pairs(A, p)
    assert pairs
    for pair in pairs:
        for flipped in combinations(range(A.order), 2):
            vecs = [-v if i in flipped else v for i, v in enumerate(pair.vectors)]
            assert singular_residual(A, vecs, pair.sigma, p) <= 1e-9


@pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 3), (3, 3, 3)])
def test_sigma_max_is_orthogonally_invariant_at_p2(dims):
    A = gaussian(320 + sum(dims), dims)
    rng = np.random.default_rng(321)
    T_A = multilinear_transform(A, [orthogonal(rng, d) for d in dims])
    top, moved = sigma_max(A, 2), sigma_max(T_A, 2)
    assert abs(moved - top) <= 1e-10 * top
