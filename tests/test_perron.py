"""Nonnegativity, reducibility and Perron solver tests."""

from itertools import combinations, product

import numpy as np
import pytest

from lptensor import (
    DenseTensor,
    SolverConfig,
    collatz_wielandt,
    eigen_residual,
    find_reducing_set,
    is_nonnegative,
    multilinear_transform,
    solve_perron,
)
from lptensor import perron as perron_module
from lptensor.errors import (
    DomainError,
    PositivityWarning,
    ReducibleError,
    UniquenessWarning,
)


def brute_force_reducing_sets(A):
    """Every reducing subset, checked entry by entry with plain loops."""
    n = A.dims[0]
    k = A.order
    found = []
    for size in range(1, n):
        for subset in combinations(range(n), size):
            ok = True
            for j1 in range(n):
                if j1 in subset:
                    continue
                for rest in product(subset, repeat=k - 1):
                    if A.array[(j1,) + rest] != 0.0:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                found.append(subset)
    return found


def shuffled_blocks(rng, n, k):
    """Block-diagonal tensor on a shuffled index set.

    Two blocks share one size, so whenever both stay closed the smallest
    reducing sets tie and the lexicographic rule decides.
    """
    perm = rng.permutation(n)
    size = int(rng.integers(1, n // 2 + 1))
    arr = np.zeros((n,) * k)
    for block in (perm[:size], perm[size : 2 * size], perm[2 * size :]):
        shape = (block.size,) * k
        arr[np.ix_(*[block] * k)] = rng.random(shape) * (rng.random(shape) < 0.7)
    return arr


def diagonal_tensor(a, b):
    arr = np.zeros((2, 2, 2))
    arr[0, 0, 0] = a
    arr[1, 1, 1] = b
    return DenseTensor.from_array(arr)


class TestNonnegative:
    def test_all_ones(self):
        assert is_nonnegative(DenseTensor.from_array(np.ones((2, 2, 2))))

    def test_strictly_negative_entry(self):
        arr = np.ones((2, 2, 2))
        arr[1, 0, 1] = -1e-15
        assert not is_nonnegative(DenseTensor.from_array(arr))

    def test_zero_tensor(self):
        assert is_nonnegative(DenseTensor([2, 2], np.zeros(4)))


class TestReducibility:
    def test_positive_tensor_is_irreducible(self):
        rng = np.random.default_rng(80)
        t = DenseTensor.from_array(rng.uniform(0.1, 1.0, (3, 3, 3)))
        assert find_reducing_set(t) is None

    def test_diagonal_tensor_reduces(self):
        assert find_reducing_set(diagonal_tensor(1.0, 2.0)) == (0,)

    def test_agrees_with_exhaustive_checker(self):
        # orders 2-4, n up to 7; even trials are shuffled block tensors,
        # odd ones random sparse tensors
        rng = np.random.default_rng(81)
        ties = 0
        for trial in range(150):
            k = 2 + trial % 3
            n = int(rng.integers(2, 8))
            if trial % 2:
                mask = rng.random((n,) * k) < rng.uniform(0.05, 0.5)
                arr = rng.random((n,) * k) * mask
            else:
                arr = shuffled_blocks(rng, n, k)
            t = DenseTensor.from_array(arr)
            expected = brute_force_reducing_sets(t)
            got = find_reducing_set(t)
            if expected:
                ties += sum(len(s) == len(expected[0]) for s in expected) > 1
                assert got == expected[0]
                assert type(got) is tuple and all(type(i) is int for i in got)
            else:
                assert got is None
        assert ties >= 50

    def test_large_all_ones_matrix_is_irreducible(self):
        assert find_reducing_set(DenseTensor.from_array(np.ones((25, 25)))) is None

    def test_planted_set_at_n30(self):
        # positive outside the zeroed block, so the planted set is the only one
        n, planted = 30, [2, 9, 17, 28]
        arr = np.random.default_rng(87).uniform(0.1, 1.0, (n, n, n))
        arr[np.ix_(np.setdiff1d(np.arange(n), planted), planted, planted)] = 0.0
        assert find_reducing_set(DenseTensor.from_array(arr)) == (2, 9, 17, 28)


class TestCollatzWielandt:
    def test_uniform_vector_on_all_ones(self):
        t = DenseTensor.from_array(np.ones((2, 2, 2)))
        assert collatz_wielandt(t, [1.0, 1.0]) == (4.0, 4.0)

    def test_skewed_vector_on_all_ones(self):
        t = DenseTensor.from_array(np.ones((2, 2, 2)))
        assert collatz_wielandt(t, [1.0, 2.0]) == (2.25, 9.0)

    def test_rejects_nonpositive_vector(self):
        t = DenseTensor.from_array(np.ones((2, 2, 2)))
        with pytest.raises(DomainError):
            collatz_wielandt(t, [1.0, 0.0])

    def test_rejects_negative_tensor(self):
        arr = np.ones((2, 2, 2))
        arr[0, 0, 0] = -1.0
        with pytest.raises(DomainError):
            collatz_wielandt(DenseTensor.from_array(arr), [1.0, 1.0])

    def test_bounds_shrink_along_iteration(self):
        for seed in range(3):
            rng = np.random.default_rng(82 + seed)
            t = DenseTensor.from_array(rng.uniform(0.0, 1.0, (3, 3, 3)))
            result = solve_perron(t, SolverConfig(restarts=1), collect_trace=True)
            lows = [entry[0] for entry in result.trace]
            ups = [entry[1] for entry in result.trace]
            assert all(b >= a - 1e-12 for a, b in zip(lows, lows[1:]))
            assert all(b <= a + 1e-12 for a, b in zip(ups, ups[1:]))

    def test_equal_ratios_exactly_at_fixed_point(self):
        t = DenseTensor.from_array(np.ones((3, 3, 3)))
        lo, up = collatz_wielandt(t, [1.0, 1.0, 1.0])
        assert lo == up == 9.0
        lo, up = collatz_wielandt(t, [1.0, 2.0, 1.0])
        assert up - lo > 0.1


class TestSolve:
    @pytest.mark.parametrize("n,k", [(2, 3), (3, 3), (2, 4), (4, 3)])
    def test_all_ones_forced_value(self, n, k):
        t = DenseTensor.from_array(np.ones((n,) * k))
        result = solve_perron(t, SolverConfig(restarts=2))
        assert result.converged
        assert abs(result.lam - n ** (k - 1)) <= 1e-10
        np.testing.assert_allclose(
            result.vector, np.full(n, n ** (-1.0 / k)), atol=1e-10
        )

    def test_closed_form_pair(self):
        # A(I, x, x) = [x1^2 + x2^2, 2 x1 x2]; at x1 = x2 the ratios agree
        # and lambda = 2 with x = (1, 1) / 2^(1/3)
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 0] = 1.0
        arr[0, 1, 1] = 1.0
        arr[1, 0, 1] = 1.0
        arr[1, 1, 0] = 1.0
        t = DenseTensor.from_array(arr)
        # a[1,0,0] = 0 makes {0} a reducing set, so the precondition check
        # must be overridden even though the iteration converges fine
        result = solve_perron(t, SolverConfig(restarts=2), force=True)
        assert result.converged
        assert abs(result.lam - 2.0) <= 1e-10
        np.testing.assert_allclose(
            result.vector, np.full(2, 2.0 ** (-1.0 / 3.0)), atol=1e-10
        )

    def test_random_positive_converges_with_bracketing(self):
        rng = np.random.default_rng(83)
        t = DenseTensor.from_array(rng.uniform(0.0, 1.0, (3, 3, 3)))
        result = solve_perron(t, SolverConfig(tol=1e-10, max_iter=500, restarts=2))
        assert result.converged
        assert result.lower - 1e-12 <= result.lam <= result.upper + 1e-12
        assert result.upper - result.lower <= 1e-10 * result.lam
        assert eigen_residual(t, result.vector, result.lam, t.order, 0) <= 1e-8
        assert (result.vector > 1e-6).all()

    def test_scale_freeness(self):
        rng = np.random.default_rng(84)
        base = rng.uniform(0.1, 1.0, (3, 3, 3))
        ref = solve_perron(DenseTensor.from_array(base), SolverConfig(restarts=1))
        for c in (0.1, 7.0):
            scaled = solve_perron(
                DenseTensor.from_array(c * base), SolverConfig(restarts=1)
            )
            assert abs(scaled.lam - c * ref.lam) <= 1e-10 * max(1.0, c * ref.lam)
            np.testing.assert_allclose(scaled.vector, ref.vector, atol=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(85)
        base = DenseTensor.from_array(rng.uniform(0.1, 1.0, (3, 3, 3)))
        ref = solve_perron(base, SolverConfig(restarts=1))
        perm = np.array([2, 0, 1])
        P = np.eye(3)[:, perm]
        permuted = multilinear_transform(base, [P, P, P])
        out = solve_perron(permuted, SolverConfig(restarts=1))
        assert abs(out.lam - ref.lam) <= 1e-8
        np.testing.assert_allclose(out.vector, ref.vector[perm], atol=1e-8)

    def test_entrywise_monotonicity(self):
        rng = np.random.default_rng(86)
        for _ in range(3):
            small = rng.uniform(0.1, 1.0, (3, 3, 3))
            big = small + rng.uniform(0.0, 0.5, (3, 3, 3))
            lam_small = solve_perron(DenseTensor.from_array(small), SolverConfig(restarts=1)).lam
            lam_big = solve_perron(DenseTensor.from_array(big), SolverConfig(restarts=1)).lam
            assert lam_big >= lam_small - 1e-10

    def test_reducible_rejected_without_force(self):
        with pytest.raises(ReducibleError) as err:
            solve_perron(diagonal_tensor(1.0, 2.0))
        assert err.value.reducing_set == (0,)

    def test_negative_entries_rejected(self):
        arr = np.ones((2, 2, 2))
        arr[0, 1, 0] = -0.5
        with pytest.raises(DomainError):
            solve_perron(DenseTensor.from_array(arr))

    def test_positivity_warning_on_nearly_reducible_input(self):
        # irreducible, but the coupling is so weak that the Perron vector
        # has an entry ~1e-13: lam^2 - lam - eps = 0, x1/x2 ~ sqrt(eps)
        arr = np.zeros((2, 2, 2))
        arr[0, 1, 1] = 1e-26
        arr[1, 0, 0] = 1.0
        arr[1, 1, 1] = 1.0
        t = DenseTensor.from_array(arr)
        assert find_reducing_set(t) is None
        with pytest.warns(PositivityWarning):
            result = solve_perron(t, SolverConfig(max_iter=2000, restarts=2))
        assert result.converged

    def test_tiny_and_huge_scales_match_scale_one(self):
        # the stop test is relative to the lower bound, so lambda / c and
        # the vector do not depend on the scale c, also below lambda = 1
        rng = np.random.default_rng(88)
        base = rng.uniform(0.1, 1.0, (5, 5, 5))
        ref = solve_perron(DenseTensor.from_array(base))
        for c in (1e-12, 1e-9, 1e-6, 1e-3, 1e3, 1e8):
            out = solve_perron(DenseTensor.from_array(c * base))
            assert out.converged
            assert out.upper - out.lower <= 1e-10 * out.lower
            assert abs(out.lam / c - ref.lam) <= 1e-12 * ref.lam
            np.testing.assert_allclose(out.vector, ref.vector, rtol=0, atol=1e-13)

    def test_uniqueness_warning_on_forced_degenerate_input(self):
        # for the forced diagonal tensor with equal weights every positive
        # unit vector is an eigenvector, so restarts must disagree
        with pytest.warns(UniquenessWarning):
            solve_perron(diagonal_tensor(1.0, 1.0), SolverConfig(restarts=4), force=True)


class TestPowerRuns:
    @pytest.fixture
    def runs(self, monkeypatch):
        calls = []
        original = perron_module._power_run

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(perron_module, "_power_run", counting)
        return calls

    @pytest.fixture
    def positive(self):
        rng = np.random.default_rng(89)
        return DenseTensor.from_array(rng.uniform(0.1, 1.0, (4, 4, 4)))

    def test_one_run_on_irreducible_input(self, runs, positive):
        solve_perron(positive, SolverConfig(restarts=8))
        assert len(runs) == 1

    def test_restarts_probe_only_under_force(self, runs, positive):
        solve_perron(positive, SolverConfig(restarts=8), force=True)
        assert len(runs) == 8

    def test_result_is_the_uniform_start_run(self, positive):
        config = SolverConfig()
        got = solve_perron(positive, config)
        ref = perron_module._power_run(positive, np.ones(4), config)
        assert np.array_equal(got.vector, ref.vector)
        for field in ("lam", "lower", "upper", "iterations", "converged", "residual"):
            assert getattr(got, field) == getattr(ref, field)
