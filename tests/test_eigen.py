"""Eigenpair solver tests."""

import math

import numpy as np
import pytest

import lptensor._polish as pipeline_module

from lptensor import (
    DenseTensor,
    SolverConfig,
    dense_baseline_symeig,
    eigen_residual,
    homogeneous_eval,
    lp_norm,
    partial_contraction,
    sign_power,
    solve_mode_eigenpairs,
    solve_symmetric_eigenpairs,
    symmetrize,
)
from lptensor.errors import (
    ConvergenceWarning,
    DimensionError,
    ModeError,
    ParameterError,
    SymmetryError,
    ZeroTensorError,
)


def single_entry_tensor():
    arr = np.zeros((2, 2, 2))
    arr[0, 0, 0] = 1.0
    return DenseTensor.from_array(arr)


def diagonal_tensor(a, b):
    arr = np.zeros((2, 2, 2))
    arr[0, 0, 0] = a
    arr[1, 1, 1] = b
    return DenseTensor.from_array(arr)


def central_diff(f, x, h=1e-5):
    g = np.zeros_like(x, dtype=float)
    for i in range(x.size):
        e = np.zeros_like(x, dtype=float)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


class TestResidual:
    def test_single_monomial_pair(self):
        assert eigen_residual(single_entry_tensor(), [1.0, 0.0], 1.0, 3) == 0.0

    def test_annihilated_direction(self):
        assert eigen_residual(single_entry_tensor(), [0.0, 1.0], 0.0, 3) == 0.0

    def test_all_ones_uniform_vector(self):
        t = DenseTensor.from_array(np.ones((2, 2, 2)))
        x = np.array([1.0, 1.0]) / 2.0 ** (1.0 / 3.0)
        assert eigen_residual(t, x, 4.0, 3) < 1e-14

    def test_odd_order_joint_sign_flip(self):
        rng = np.random.default_rng(50)
        t = symmetrize(DenseTensor.from_array(rng.standard_normal((3, 3, 3))))
        x = rng.standard_normal(3)
        assert eigen_residual(t, -x, -1.3, 2) == eigen_residual(t, x, 1.3, 2)

    def test_nan_and_inf_input_give_nan(self):
        rng = np.random.default_rng(51)
        t = symmetrize(DenseTensor.from_array(rng.standard_normal((2, 2, 2))))
        with np.errstate(invalid="ignore"):
            assert math.isnan(eigen_residual(t, [np.nan, np.nan], 1.0, 2))
            assert math.isnan(eigen_residual(t, [0.6, 0.8], np.nan, 3))
            assert math.isnan(eigen_residual(t, [np.inf, 0.0], 1.0, 2))


class TestSymmetricSolve:
    def test_h_eigen_diagonal(self):
        pairs = solve_symmetric_eigenpairs(diagonal_tensor(2.0, 5.0), 3, SolverConfig(restarts=16))
        values = sorted(round(p.lam, 9) for p in pairs)
        assert values == [2.0, 5.0]
        top = pairs[0]
        np.testing.assert_allclose(np.abs(top.vector), [0.0, 1.0], atol=1e-7)

    def test_z_eigen_diagonal_interior_pair(self):
        # stationarity for a = b = 1: coordinate pairs at 1 and the
        # interior pair with lambda = ab / sqrt(a^2 + b^2)
        pairs = solve_symmetric_eigenpairs(diagonal_tensor(1.0, 1.0), 2, SolverConfig(restarts=16))
        values = sorted(round(p.lam, 9) for p in pairs)
        assert values == [round(1.0 / np.sqrt(2.0), 9), 1.0, 1.0]
        interior = min(pairs, key=lambda p: p.lam)
        np.testing.assert_allclose(interior.vector, [1.0, 1.0] / np.sqrt(2.0), atol=1e-9)

    def test_matrix_reduction(self):
        rng = np.random.default_rng(51)
        M = rng.standard_normal((4, 4))
        M = (M + M.T) / 2.0
        w, Q = dense_baseline_symeig(M)
        pairs = solve_symmetric_eigenpairs(
            DenseTensor.from_array(M), 2, SolverConfig(restarts=64)
        )
        found = np.array([p.lam for p in pairs])
        for idx, value in enumerate(w):
            gap = np.min(np.abs(found - value))
            assert gap < 1e-8
            best = pairs[int(np.argmin(np.abs(found - value)))]
            overlap = abs(float(best.vector @ Q[:, idx]))
            assert overlap > 1.0 - 1e-7

    def test_lambda_consistency(self):
        rng = np.random.default_rng(52)
        t = symmetrize(DenseTensor.from_array(rng.standard_normal((3, 3, 3))))
        for pair in solve_symmetric_eigenpairs(t, 3, SolverConfig(restarts=16)):
            assert abs(pair.lam - homogeneous_eval(t, pair.vector)) <= 1e-10
            assert abs(lp_norm(pair.vector, 3) - 1.0) <= 1e-10

    def test_even_order_scale_freedom(self):
        rng = np.random.default_rng(53)
        t = symmetrize(DenseTensor.from_array(rng.standard_normal((2, 2, 2, 2))))
        pairs = solve_symmetric_eigenpairs(t, 4, SolverConfig(restarts=12))
        assert pairs
        pair = pairs[0]
        for alpha in (-1.0, 0.5, 2.0):
            res = eigen_residual(t, alpha * pair.vector, pair.lam, 4)
            assert res <= 1e-9 * abs(alpha) ** 3 + 1e-13

    def test_rejects_nonsymmetric(self):
        rng = np.random.default_rng(54)
        t = DenseTensor.from_array(rng.standard_normal((2, 2, 2)))
        with pytest.raises(SymmetryError):
            solve_symmetric_eigenpairs(t, 2)

    def test_rejects_zero(self):
        with pytest.raises(ZeroTensorError):
            solve_symmetric_eigenpairs(DenseTensor([2, 2, 2], np.zeros(8)), 2)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(55)
        t = symmetrize(DenseTensor.from_array(rng.standard_normal((2, 2, 2))))
        config = SolverConfig(restarts=8, seed=99)
        first = solve_symmetric_eigenpairs(t, 2, config)
        second = solve_symmetric_eigenpairs(t, 2, config)
        assert [p.lam for p in first] == [p.lam for p in second]
        for a, b in zip(first, second):
            assert np.array_equal(a.vector, b.vector)


class TestModeSolve:
    def test_symmetric_tensor_modes_coincide(self):
        rng = np.random.default_rng(56)
        t = symmetrize(DenseTensor.from_array(rng.standard_normal((3, 3, 3))))
        config = SolverConfig(restarts=16)
        reference = sorted(p.lam for p in solve_mode_eigenpairs(t, 0, 2, config))
        for mode in (1, 2):
            values = sorted(p.lam for p in solve_mode_eigenpairs(t, mode, 2, config))
            assert len(values) == len(reference)
            np.testing.assert_allclose(values, reference, atol=1e-6)

    def test_nonsymmetric_matrix_left_right(self):
        M = np.array([[2.0, 1.0], [0.0, 1.0]])  # eigenvalues 2 and 1
        t = DenseTensor.from_array(M)
        config = SolverConfig(restarts=16)
        right = solve_mode_eigenpairs(t, 0, 2, config)
        left = solve_mode_eigenpairs(t, 1, 2, config)
        assert sorted(round(p.lam, 9) for p in right) == [1.0, 2.0]
        assert sorted(round(p.lam, 9) for p in left) == [1.0, 2.0]
        for pair in right:
            np.testing.assert_allclose(M @ pair.vector, pair.lam * pair.vector, atol=1e-9)
        for pair in left:
            np.testing.assert_allclose(M.T @ pair.vector, pair.lam * pair.vector, atol=1e-9)

    def test_all_ones_any_mode(self):
        t = DenseTensor.from_array(np.ones((2, 2, 2)))
        for mode in range(3):
            pairs = solve_mode_eigenpairs(t, mode, 3, SolverConfig(restarts=8))
            best = pairs[0]
            assert abs(best.lam - 4.0) < 1e-10
            np.testing.assert_allclose(
                best.vector, np.array([1.0, 1.0]) / 2.0 ** (1.0 / 3.0), atol=1e-10
            )


class TestErrorPaths:
    def test_residual_rejects_non_cubical(self):
        t = DenseTensor.from_array(np.ones((2, 3, 2)))
        with pytest.raises(DimensionError):
            eigen_residual(t, [1.0, 1.0], 1.0, 2)

    def test_mode_out_of_range(self):
        t = DenseTensor.from_array(np.ones((2, 2, 2)))
        with pytest.raises(ModeError):
            solve_mode_eigenpairs(t, 3, 2)

    def test_exponent_below_two(self):
        t = DenseTensor.from_array(np.ones((2, 2, 2)))
        with pytest.raises(ParameterError):
            solve_mode_eigenpairs(t, 0, 1)


class TestLagrangianConsistency:
    def test_defect_is_constrained_gradient(self):
        # at any point, the stationarity defect vector is 1/k times the
        # gradient of the Lagrangian A(y,...,y) - lam*(||y||_p^k - 1)
        rng = np.random.default_rng(57)
        t = symmetrize(DenseTensor.from_array(rng.standard_normal((3, 3, 3))))
        p, k, lam = 3, 3, 0.8
        x = rng.uniform(0.3, 1.0, size=3)

        def lagrangian(y):
            return homogeneous_eval(t, y) - lam * (lp_norm(y, p) ** k - 1.0)

        fd = central_diff(lagrangian, x)
        norm = lp_norm(x, p)
        defect = partial_contraction(t, [x] * k, 0) - lam * norm ** (
            k - p
        ) * sign_power(x, p - 1)
        np.testing.assert_allclose(fd / k, defect, rtol=1e-6, atol=1e-8)


def pair_fields(pairs):
    return [(p.lam, p.residual, p.converged, p.vector.tobytes()) for p in pairs]


def gaussian(seed, dims):
    return np.random.default_rng(seed).standard_normal(dims)


def sparse_p6_tensor():
    """The sparse nonnegative 3x3x3 tensor with six mode-0 pairs at p = 6."""
    rng = np.random.default_rng(3)
    while True:
        k, n = rng.integers(3, 5), rng.integers(2, 6)
        p = rng.integers(k + 1, k + 4)
        arr = rng.uniform(0, 1, (n,) * k) * (rng.uniform(size=(n,) * k) < 0.3)
        arr[(np.arange(n),) + (rng.integers(0, n, n),) * (k - 1)] += rng.uniform(0.1, 1, n)
        if (n, k, p) == (3, 3, 6):
            return DenseTensor.from_array(arr)


SOLVERS = {
    "symmetric": lambda A, p, config: solve_symmetric_eigenpairs(A, p, config),
    "mode": lambda A, p, config: solve_mode_eigenpairs(A, 1, p, config),
}


class TestScaleNormalization:
    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    @pytest.mark.parametrize("j", [-600, -40, -1, 1, 40, 600])
    def test_power_of_two_scaling_is_exact(self, solver, j):
        if solver == "mode":
            arr = gaussian(64, (3, 3, 3))
        else:
            arr = symmetrize(DenseTensor.from_array(gaussian(63, (3, 3, 3)))).array
        config = SolverConfig(restarts=8, seed=4)
        solve = SOLVERS[solver]
        reference = solve(DenseTensor.from_array(arr), 3, config)
        scaled = solve(DenseTensor.from_array(np.ldexp(arr, j)), 3, config)
        assert reference
        assert len(scaled) == len(reference)
        for got, ref in zip(scaled, reference):
            assert got.vector.tobytes() == ref.vector.tobytes()
            assert got.lam == math.ldexp(ref.lam, j)
            assert got.residual == math.ldexp(ref.residual, j)
            assert got.converged == ref.converged


class TestExactSupports:
    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1e-3, 1.0, 1e3, 1e8])
    def test_diagonal_p3_gives_two_pairs_with_exact_zeros(self, solver, scale):
        t = DenseTensor.from_array(diagonal_tensor(2.0, 5.0).array * scale)
        pairs = SOLVERS[solver](t, 3, SolverConfig())
        assert len(pairs) == 2
        np.testing.assert_allclose([p.lam for p in pairs], [5.0 * scale, 2.0 * scale], rtol=1e-12)
        assert [p.vector.tolist() for p in pairs] == [[0.0, 1.0], [1.0, 0.0]]

    @pytest.mark.parametrize("restarts", [32, 256])
    def test_sparse_p6_pairs_do_not_follow_the_budget(self, restarts):
        t = sparse_p6_tensor()
        pairs = solve_mode_eigenpairs(t, 0, 6, SolverConfig(restarts=restarts))
        assert len(pairs) == 6
        (coordinate,) = [p for p in pairs if p.vector.tolist() == [0.0, 1.0, 0.0]]
        assert abs(coordinate.lam - t[1, 1, 1]) <= 1e-12

    @pytest.mark.parametrize(
        "case",
        [
            (lambda: symmetrize(DenseTensor.from_array(gaussian(35, (3, 3, 3, 3)))), "symmetric", 4),
            (lambda: DenseTensor.from_array(gaussian(25, (3, 3, 3))), "mode", 3),
        ],
        ids=["symmetric-3^4-p4", "mode1-3^3-p3"],
    )
    def test_snap_never_accepted_on_generic_input(self, case, monkeypatch):
        # these inputs have converged pairs with snap candidates, and none
        # of them lies on a smaller support
        make, solver, p = case
        t = make()
        config = SolverConfig(restarts=16)
        candidates = []
        zero_sets = pipeline_module.zero_sets

        def counted(vectors, exps):
            sets = list(zero_sets(vectors, exps))
            candidates.extend(sets)
            return iter(sets)

        with monkeypatch.context() as patch:
            patch.setattr(pipeline_module, "zero_sets", counted)
            snapped = SOLVERS[solver](t, p, config)
        assert candidates
        with monkeypatch.context() as patch:
            patch.setattr(pipeline_module, "snap", lambda A, layout, grade, pair, config: pair)
            plain = SOLVERS[solver](t, p, config)
        assert pair_fields(snapped) == pair_fields(plain)


class TestEmptyResult:
    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_empty_result_warns_with_restart_count(self, solver):
        t = symmetrize(DenseTensor.from_array(gaussian(65, (3, 3, 3))))
        config = SolverConfig(restarts=2, max_iter=1, tol=1e-300)
        with pytest.warns(ConvergenceWarning, match="none of 2 restarts converged"):
            assert SOLVERS[solver](t, 3, config) == []


class TestNonIntegerExponent:
    @pytest.mark.parametrize("solver", sorted(SOLVERS))
    def test_fractional_exponent_rejected_not_truncated(self, solver):
        t = symmetrize(DenseTensor.from_array(gaussian(66, (3, 3, 3))))
        with pytest.raises(ParameterError, match="must be an integer, got 2.5"):
            SOLVERS[solver](t, 2.5, SolverConfig(restarts=2))

    def test_integral_float_exponent_accepted(self):
        t = symmetrize(DenseTensor.from_array(gaussian(66, (3, 3, 3))))
        config = SolverConfig(restarts=4)
        got = solve_symmetric_eigenpairs(t, 3.0, config)
        want = solve_symmetric_eigenpairs(t, np.int64(3), config)
        assert got
        assert [(p.lam, p.p, p.vector.tobytes()) for p in got] == [
            (p.lam, p.p, p.vector.tobytes()) for p in want
        ]
        assert all(type(p.p) is int for p in got)
