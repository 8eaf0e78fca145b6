"""Singular pair solver tests."""

import math

import numpy as np
import pytest

import lptensor._polish as pipeline_module

from lptensor import (
    DenseTensor,
    SolverConfig,
    dense_baseline_svd,
    enumerate_critical_points,
    multilinear_eval,
    partial_contraction,
    sigma_max,
    singular_residual,
    solve_singular_pair,
    solve_singular_pairs,
)
from lptensor.errors import ConvergenceWarning, ZeroTensorError


def diag_matrix():
    return DenseTensor.from_array(np.diag([3.0, 1.0]))


def single_entry_tensor(value=3.0):
    arr = np.zeros((2, 2, 2))
    arr[0, 0, 0] = value
    return DenseTensor.from_array(arr)


class TestResidual:
    def test_exact_pair_is_zero(self):
        assert singular_residual(diag_matrix(), [[1, 0], [1, 0]], 3.0, 2) == 0.0

    def test_wrong_sigma_defect(self):
        assert singular_residual(diag_matrix(), [[1, 0], [1, 0]], 2.0, 2) == 1.0

    def test_grows_continuously_from_zero(self):
        rng = np.random.default_rng(30)
        d1, d2 = rng.standard_normal(2), rng.standard_normal(2)
        previous = 0.0
        for eps in (1e-8, 1e-6, 1e-4, 1e-2):
            u = np.array([1.0, 0.0]) + eps * d1
            v = np.array([1.0, 0.0]) + eps * d2
            u /= np.linalg.norm(u)
            v /= np.linalg.norm(v)
            res = singular_residual(diag_matrix(), [u, v], 3.0, 2)
            assert previous < res <= 20.0 * eps
            previous = res

    def test_nan_and_inf_input_give_nan(self):
        t = DenseTensor.from_array(np.random.default_rng(31).standard_normal((2, 2, 2)))
        x = np.array([0.6, 0.8])
        nan = np.full(2, np.nan)
        inf = np.array([np.inf, 0.0])
        with np.errstate(invalid="ignore"):
            assert math.isnan(singular_residual(t, [nan, nan, nan], 1.0, 2))
            assert math.isnan(singular_residual(t, [x, nan, x], 1.0, 2))
            assert math.isnan(singular_residual(t, [x, x, x], np.nan, 2))
            assert math.isnan(singular_residual(t, [inf, inf, inf], 1.0, 2))


class TestSolve:
    @pytest.mark.parametrize("p", [2, 3])
    def test_single_entry_tensor(self, p):
        pair = solve_singular_pair(single_entry_tensor(), p, SolverConfig(restarts=8))
        assert pair.converged
        assert abs(pair.sigma - 3.0) < 1e-10
        assert pair.residual < 1e-10
        # vectors are +-e1 with an even number of flips
        signs = []
        for v in pair.vectors:
            np.testing.assert_allclose(np.abs(v), [1.0, 0.0], atol=1e-9)
            signs.append(np.sign(v[0]))
        assert np.prod(signs) == 1.0

    def test_diagonal_matrix_finds_both_values(self):
        pairs = solve_singular_pairs(diag_matrix(), 2, SolverConfig(restarts=16))
        sigmas = sorted(p.sigma for p in pairs)
        np.testing.assert_allclose(sigmas, [1.0, 3.0], atol=1e-10)

    def test_sigma_equals_multilinear_eval(self):
        rng = np.random.default_rng(31)
        t = DenseTensor.from_array(rng.standard_normal((2, 2, 2)))
        for pair in solve_singular_pairs(t, 2, SolverConfig(restarts=12)):
            assert abs(pair.sigma - multilinear_eval(t, pair.vectors)) <= 1e-10

    def test_unit_norms(self):
        rng = np.random.default_rng(32)
        t = DenseTensor.from_array(rng.standard_normal((2, 3, 2)))
        for pair in solve_singular_pairs(t, [2, 3, 4], SolverConfig(restarts=8)):
            for i, v in enumerate(pair.vectors):
                norm = np.sum(np.abs(v) ** pair.pnorms[i]) ** (1.0 / pair.pnorms[i])
                assert abs(norm - 1.0) <= 1e-10

    def test_oracle_contains_every_solver_sigma(self):
        rng = np.random.default_rng(33)
        t = DenseTensor.from_array(rng.standard_normal((2, 2, 2)))
        oracle_vals = [
            p.value for p in enumerate_critical_points(t, 2, "singular", resolution=40)
        ]
        for pair in solve_singular_pairs(t, 2, SolverConfig(restarts=16)):
            assert min(abs(pair.sigma - v) for v in oracle_vals) < 1e-6

    def test_init_path(self):
        pair = solve_singular_pair(
            diag_matrix(), 2, SolverConfig(restarts=4), init=[[0.1, 1.0], [0.2, 1.0]]
        )
        assert pair.converged
        assert abs(pair.sigma - 1.0) < 1e-9 or abs(pair.sigma - 3.0) < 1e-9

    def test_zero_tensor_rejected(self):
        zero = DenseTensor([2, 2], np.zeros(4))
        with pytest.raises(ZeroTensorError):
            solve_singular_pair(zero, 2)

    def test_unattainable_tolerance_reports_not_converged(self):
        rng = np.random.default_rng(41)
        t = DenseTensor.from_array(rng.standard_normal((2, 2, 2)))
        pair = solve_singular_pair(
            t, 2, SolverConfig(tol=1e-30, restarts=2, max_iter=50)
        )
        assert not pair.converged
        assert pair.residual > 0.0

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(34)
        t = DenseTensor.from_array(rng.standard_normal((2, 2, 2)))
        config = SolverConfig(restarts=8, seed=77)
        first = solve_singular_pairs(t, 2, config)
        second = solve_singular_pairs(t, 2, config)
        assert len(first) == len(second)
        for a, b in zip(first, second):
            assert a.sigma == b.sigma
            for u, v in zip(a.vectors, b.vectors):
                assert np.array_equal(u, v)


class TestInvariants:
    def test_matrix_reduction_vs_jacobi_svd(self):
        rng = np.random.default_rng(35)
        M = rng.standard_normal((4, 4))
        t = DenseTensor.from_array(M)
        sigmas, _, _ = dense_baseline_svd(M)
        pair = solve_singular_pair(t, 2, SolverConfig(restarts=32))
        assert abs(pair.sigma - sigmas[0]) < 1e-8
        u, v = pair.vectors
        np.testing.assert_allclose(M @ v, pair.sigma * u, atol=1e-8)
        np.testing.assert_allclose(M.T @ u, pair.sigma * v, atol=1e-8)

    def test_scale_invariance_when_p_equals_order(self):
        rng = np.random.default_rng(36)
        t = DenseTensor.from_array(rng.standard_normal((2, 2, 2)))
        pair = solve_singular_pair(t, 3, SolverConfig(restarts=12))
        assert pair.converged
        for alpha in (0.5, 2.0, 10.0):
            scaled = [alpha * v for v in pair.vectors]
            res = singular_residual(t, scaled, pair.sigma, 3)
            assert res <= 1e-10 * alpha ** 2 + 1e-13

    def test_sign_flip_closure(self):
        rng = np.random.default_rng(37)
        t = DenseTensor.from_array(rng.standard_normal((2, 2, 2)))
        vecs = [rng.standard_normal(2) for _ in range(3)]
        vecs = [v / np.linalg.norm(v) for v in vecs]
        base = singular_residual(t, vecs, 0.7, 2)
        two_flips = [-vecs[0], -vecs[1], vecs[2]]
        assert singular_residual(t, two_flips, 0.7, 2) == base
        one_flip = [-vecs[0], vecs[1], vecs[2]]
        assert singular_residual(t, one_flip, -0.7, 2) == base

    def test_p2_special_form(self):
        rng = np.random.default_rng(38)
        t = DenseTensor.from_array(rng.standard_normal((2, 2, 2)))
        pair = solve_singular_pair(t, 2, SolverConfig(restarts=8))
        assert pair.converged
        for i in range(3):
            g = partial_contraction(t, pair.vectors, i)
            np.testing.assert_allclose(g, pair.sigma * pair.vectors[i], atol=1e-9)


class TestSigmaMax:
    def test_rank_one_tensor(self):
        rng = np.random.default_rng(39)
        u, v, w = [x / np.linalg.norm(x) for x in rng.standard_normal((3, 2))]
        t = DenseTensor.from_array(np.einsum("i,j,k->ijk", u, v, w))
        assert abs(sigma_max(t, 2, SolverConfig(restarts=8)) - 1.0) < 1e-10

    def test_diagonal_matrix(self):
        assert abs(sigma_max(diag_matrix(), 2, SolverConfig(restarts=8)) - 3.0) < 1e-10

    def test_dominates_sphere_grid(self):
        rng = np.random.default_rng(40)
        t = DenseTensor.from_array(rng.standard_normal((2, 2, 2)))
        best = sigma_max(t, 2, SolverConfig(restarts=24))
        theta = np.linspace(0.0, np.pi, 50, endpoint=False)
        circle = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        values = np.abs(
            np.einsum("abc,ia,jb,kc->ijk", t.array, circle, circle, circle)
        )
        assert best >= values.max() - 1e-3
        assert np.all(values <= best + 1e-9)


def pair_fields(pairs):
    return [
        (pair.sigma, pair.residual, pair.converged, tuple(v.tobytes() for v in pair.vectors))
        for pair in pairs
    ]


def gaussian(seed, dims):
    return np.random.default_rng(seed).standard_normal(dims)


class TestScaleNormalization:
    CONFIG = SolverConfig(restarts=8, seed=4)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("j", [-600, -40, -1, 1, 40, 600])
    def test_power_of_two_scaling_is_exact(self, p, j):
        arr = gaussian(60, (3, 3, 3))
        reference = solve_singular_pairs(DenseTensor.from_array(arr), p, self.CONFIG)
        scaled = solve_singular_pairs(DenseTensor.from_array(np.ldexp(arr, j)), p, self.CONFIG)
        assert reference
        assert len(scaled) == len(reference)
        for got, ref in zip(scaled, reference):
            for u, v in zip(got.vectors, ref.vectors):
                assert u.tobytes() == v.tobytes()
            assert got.sigma == math.ldexp(ref.sigma, j)
            assert got.residual == math.ldexp(ref.residual, j)
            assert got.converged == ref.converged

    def test_init_path_is_scaled_too(self):
        arr = gaussian(61, (2, 3, 2))
        init = [[1.0, 0.5], [0.2, 1.0, -0.3], [0.4, 1.0]]
        reference = solve_singular_pair(DenseTensor.from_array(arr), 3, init=init)
        scaled = solve_singular_pair(DenseTensor.from_array(np.ldexp(arr, -40)), 3, init=init)
        assert reference.converged
        assert [v.tobytes() for v in scaled.vectors] == [v.tobytes() for v in reference.vectors]
        assert scaled.sigma == math.ldexp(reference.sigma, -40)


class TestExactSupports:
    @pytest.mark.parametrize("scale", [1e-12, 1e-6, 1e-3, 1.0, 1e3, 1e8])
    def test_diagonal_p3_gives_two_pairs_with_exact_zeros(self, scale):
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 0], arr[1, 1, 1] = 2.0, 5.0
        pairs = solve_singular_pairs(DenseTensor.from_array(arr * scale), 3)
        assert len(pairs) == 2
        np.testing.assert_allclose([p.sigma for p in pairs], [5.0 * scale, 2.0 * scale], rtol=1e-12)
        for pair, hot in zip(pairs, (1, 0)):
            for v in pair.vectors:
                assert v[1 - hot] == 0.0
                assert abs(v[hot]) == 1.0

    def test_snap_never_accepted_on_generic_input(self, monkeypatch):
        # this input has converged pairs with snap candidates, and none of
        # them lies on a smaller support
        t = DenseTensor.from_array(gaussian(31, (2, 3, 4)))
        config = SolverConfig(restarts=16)
        candidates = []
        zero_sets = pipeline_module.zero_sets

        def counted(vectors, exps):
            sets = list(zero_sets(vectors, exps))
            candidates.extend(sets)
            return iter(sets)

        with monkeypatch.context() as patch:
            patch.setattr(pipeline_module, "zero_sets", counted)
            snapped = solve_singular_pairs(t, 3, config)
        assert candidates
        with monkeypatch.context() as patch:
            patch.setattr(pipeline_module, "snap", lambda A, layout, grade, pair, config: pair)
            plain = solve_singular_pairs(t, 3, config)
        assert pair_fields(snapped) == pair_fields(plain)


class TestEmptyResult:
    NOTHING_CONVERGES = SolverConfig(restarts=1, max_iter=1, tol=1e-300)

    def test_empty_result_warns_with_restart_count(self):
        t = DenseTensor.from_array(gaussian(62, (2, 2, 2)))
        with pytest.warns(ConvergenceWarning, match="none of 1 restarts converged"):
            assert solve_singular_pairs(t, 2, self.NOTHING_CONVERGES) == []

    def test_sigma_max_warns_when_no_restart_converged(self):
        t = DenseTensor.from_array(gaussian(62, (2, 2, 2)))
        with pytest.warns(ConvergenceWarning, match="no restart converged"):
            value = sigma_max(t, 2, self.NOTHING_CONVERGES)
        assert value > 0.0
