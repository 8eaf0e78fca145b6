"""Verification oracle tests: enumeration, hyperdeterminant, Jacobi baselines."""

import numpy as np
import pytest

from lptensor import (
    DenseTensor,
    PNormSpec,
    SolverConfig,
    dense_baseline_svd,
    dense_baseline_symeig,
    eigen_residual,
    enumerate_critical_points,
    hyperdet_222,
    multilinear_transform,
    singular_residual,
    solve_singular_pairs,
    solve_symmetric_eigenpairs,
    symmetrize,
)
from lptensor import oracle
from lptensor._polish import gauss_newton
from lptensor.core import Layout
from lptensor.errors import (
    ConvergenceWarning,
    DimensionError,
    ModeError,
    ParameterError,
    SizeLimitError,
    SymmetryError,
)
from reference_kernels import _EigenSystem, _SingularSystem


def pencil_discriminant(arr):
    """Independent hyperdeterminant via det(A0 + t*A1) = a t^2 + b t + c."""
    A0, A1 = arr[0], arr[1]
    a = np.linalg.det(A1)
    c = np.linalg.det(A0)
    b = np.linalg.det(A0 + A1) - a - c
    return b * b - 4.0 * a * c


class TestHyperdet:
    def test_two_corner_tensor(self):
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 0] = 1.0
        arr[1, 1, 1] = 1.0
        assert hyperdet_222(DenseTensor.from_array(arr)) == 1.0

    def test_single_entry_vanishes_with_witness(self):
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 0] = 1.0
        t = DenseTensor.from_array(arr)
        assert hyperdet_222(t) == 0.0
        # a zero singular value exists: e2 in every mode annihilates A
        e2 = np.array([0.0, 1.0])
        assert singular_residual(t, [e2, e2, e2], 0.0, 2) == 0.0

    def test_matches_pencil_discriminant(self):
        rng = np.random.default_rng(90)
        for _ in range(10):
            arr = rng.standard_normal((2, 2, 2))
            assert abs(hyperdet_222(arr) - pencil_discriminant(arr)) < 1e-12

    def test_mode_permutation_invariance_in_absolute_value(self):
        rng = np.random.default_rng(91)
        arr = rng.standard_normal((2, 2, 2))
        base = abs(hyperdet_222(arr))
        for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0), (1, 2, 0), (2, 0, 1)):
            assert abs(abs(hyperdet_222(np.transpose(arr, perm))) - base) < 1e-12

    def test_rotation_invariance(self):
        rng = np.random.default_rng(92)
        t = DenseTensor.from_array(rng.standard_normal((2, 2, 2)))
        base = hyperdet_222(t)
        for _ in range(5):
            rotations = []
            for angle in rng.uniform(0.0, 2.0 * np.pi, size=3):
                c, s = np.cos(angle), np.sin(angle)
                rotations.append(np.array([[c, -s], [s, c]]))
            rotated = multilinear_transform(t, rotations)
            assert abs(hyperdet_222(rotated) - base) < 1e-8

    def test_wrong_shape(self):
        with pytest.raises(DimensionError):
            hyperdet_222(DenseTensor.from_array(np.ones((2, 2))))


class TestEnumerate:
    def test_diagonal_matrix_exact_set(self):
        t = DenseTensor.from_array(np.diag([3.0, 1.0]))
        points = enumerate_critical_points(t, 2, kind="singular", resolution=24)
        assert [round(p.value, 9) for p in points] == [3.0, 1.0]
        for point in points:
            for v in point.vectors:
                assert max(np.abs(np.abs(v) - np.array([1.0, 0.0]))) < 1e-8 or max(
                    np.abs(np.abs(v) - np.array([0.0, 1.0]))
                ) < 1e-8

    def test_single_entry_tensor_contains_top_pair(self):
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 0] = 3.0
        points = enumerate_critical_points(
            DenseTensor.from_array(arr), 2, kind="singular", resolution=12
        )
        top = points[0]
        assert abs(top.value - 3.0) < 1e-9
        for v in top.vectors:
            np.testing.assert_allclose(np.abs(v), [1.0, 0.0], atol=1e-9)

    def test_contains_singular_solver_output_at_resolution_60(self):
        rng = np.random.default_rng(93)
        t = DenseTensor.from_array(rng.standard_normal((2, 2, 2)))
        oracle_vals = [
            p.value
            for p in enumerate_critical_points(t, 2, kind="singular", resolution=60)
        ]
        pairs = solve_singular_pairs(t, 2, SolverConfig(restarts=24))
        assert pairs
        for pair in pairs:
            assert min(abs(pair.sigma - v) for v in oracle_vals) < 1e-6

    def test_contains_eigen_solver_output_at_resolution_60(self):
        rng = np.random.default_rng(94)
        t = symmetrize(DenseTensor.from_array(rng.standard_normal((2, 2, 2))))
        oracle_vals = [
            p.value for p in enumerate_critical_points(t, 2, kind="eigen", resolution=60)
        ]
        pairs = solve_symmetric_eigenpairs(t, 2, SolverConfig(restarts=24))
        assert pairs
        for pair in pairs:
            assert min(abs(pair.lam - v) for v in oracle_vals) < 1e-6

    def test_residuals_below_oracle_tolerance(self):
        rng = np.random.default_rng(95)
        t = DenseTensor.from_array(rng.standard_normal((2, 2, 2)))
        for point in enumerate_critical_points(t, 3, kind="singular", resolution=16):
            assert point.residual <= 1e-9

    def test_three_dimensional_mode_grid_eigen(self):
        rng = np.random.default_rng(123)
        t = symmetrize(DenseTensor.from_array(rng.standard_normal((3, 3, 3))))
        oracle_vals = [
            p.value for p in enumerate_critical_points(t, 2, kind="eigen", resolution=30)
        ]
        for pair in solve_symmetric_eigenpairs(t, 2, SolverConfig(restarts=32)):
            assert min(abs(pair.lam - v) for v in oracle_vals) < 1e-6

    def test_mixed_mode_dimensions_singular(self):
        rng = np.random.default_rng(124)
        t = DenseTensor.from_array(rng.standard_normal((2, 3, 2)))
        oracle_vals = [
            p.value
            for p in enumerate_critical_points(t, 2, kind="singular", resolution=14)
        ]
        pairs = solve_singular_pairs(t, 2, SolverConfig(restarts=24))
        assert pairs
        for pair in pairs:
            assert min(abs(pair.sigma - v) for v in oracle_vals) < 1e-6

    def test_rejects_unknown_kind_and_mixed_eigen_exponents(self):
        t = DenseTensor.from_array(np.ones((2, 2, 2)))
        with pytest.raises(ParameterError):
            enumerate_critical_points(t, 2, kind="spectral")
        with pytest.raises(ParameterError):
            enumerate_critical_points(t, [2, 3, 2], kind="eigen")

    def test_seed_budget_enforced(self):
        t = DenseTensor.from_array(np.ones((2, 2, 2)))
        with pytest.raises(SizeLimitError):
            enumerate_critical_points(t, 2, kind="singular", resolution=500)

    def test_large_mode_dimension_rejected(self):
        t = DenseTensor.from_array(np.ones((4, 4)))
        with pytest.raises(SizeLimitError):
            enumerate_critical_points(t, 2, kind="singular", resolution=10)

    @pytest.mark.parametrize("mode", [-1, 3])
    def test_eigen_mode_out_of_range(self, mode):
        t = DenseTensor.from_array(np.random.default_rng(125).standard_normal((3, 3, 3)))
        with pytest.raises(ModeError):
            enumerate_critical_points(t, 3, kind="eigen", resolution=10, mode=mode)

    def test_empty_result_warns_with_seed_count(self):
        # at scale 1e-6 the polish's absolute damping swamps the Jacobian,
        # and no seed reaches the absolute keep test within its sweeps
        arr = np.random.default_rng(126).standard_normal((2, 2, 2)) * 1e-6
        message = r"none of 1000 polished seeds converged to tol=1e-09"
        with pytest.warns(ConvergenceWarning, match=message):
            points = enumerate_critical_points(
                DenseTensor.from_array(arr), 3, kind="singular", resolution=20
            )
        assert points == []


def point_bytes(points):
    return [
        (np.float64(pt.value).tobytes(), tuple(v.tobytes() for v in pt.vectors))
        for pt in points
    ]


def full_grid_points(monkeypatch, t, p, kind, resolution):
    """The enumeration as it runs on the full, antipodally symmetric grids."""
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_sphere_grid", oracle._full_sphere_grid)
        return enumerate_critical_points(t, p, kind=kind, resolution=resolution)


def polished_seed_count(monkeypatch, t, p, kind, resolution):
    counts = []
    polish = oracle._levenberg_polish

    def recording(system, Z0):
        counts.append(Z0.shape[0])
        return polish(system, Z0)

    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_levenberg_polish", recording)
        enumerate_critical_points(t, p, kind=kind, resolution=resolution)
    return sum(counts)


def planted_zero_hyperdet(kind):
    rng = np.random.default_rng(130)
    if kind == "rank-one":
        a, b, c = (rng.standard_normal(2) for _ in range(3))
        return np.einsum("i,j,k->ijk", a, b, c)
    M = rng.standard_normal((2, 2))
    if kind == "proportional":
        return np.stack([0.7 * M, M])
    return np.stack([np.zeros((2, 2)), M])


class TestHalfGrid:
    @pytest.mark.parametrize(
        "seed, dims, p, kind, resolution",
        [
            (131, (2, 2, 2), 2, "singular", 20),
            (132, (2, 2, 2), 3, "singular", 20),
            (133, (3, 3, 3), 3, "eigen", 40),
        ],
    )
    def test_generic_points_bit_identical_to_full_grid(
        self, monkeypatch, seed, dims, p, kind, resolution
    ):
        t = DenseTensor.from_array(np.random.default_rng(seed).standard_normal(dims))
        if kind == "eigen":
            t = symmetrize(t)
        half = enumerate_critical_points(t, p, kind=kind, resolution=resolution)
        full = full_grid_points(monkeypatch, t, p, kind, resolution)
        assert half
        assert point_bytes(half) == point_bytes(full)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_grid_halves_only_at_even_resolution(self, d):
        for resolution in (1, 3, 15, 2, 8, 20):
            full = oracle._full_sphere_grid(d, resolution, 3)
            half = oracle._sphere_grid(d, resolution, 3)
            if d == 1 or resolution % 2:
                assert half.tobytes() == full.tobytes()
                continue
            assert half.tobytes() == full[: full.shape[0] // 2].tobytes()
            # every full-grid point is a kept point or the antipode of one
            gap = np.abs(full[:, None, :] - np.stack([half, -half])[:, None]).max(axis=-1)
            assert gap.min(axis=(0, 2)).max() < 1e-15

    def test_odd_resolution_polishes_the_full_grid(self, monkeypatch):
        t = DenseTensor.from_array(np.random.default_rng(134).standard_normal((2, 2, 3)))
        assert polished_seed_count(monkeypatch, t, 2, "singular", 7) == 7 * 7 * 49
        assert polished_seed_count(monkeypatch, t, 2, "singular", 8) == 4 * 4 * 32

    @pytest.mark.parametrize("planted", ["rank-one", "proportional", "zero-slice"])
    def test_planted_continua_same_values_and_verdict(self, monkeypatch, planted):
        t = DenseTensor.from_array(planted_zero_hyperdet(planted))
        half = enumerate_critical_points(t, 2, kind="singular", resolution=12)
        full = full_grid_points(monkeypatch, t, 2, "singular", 12)
        assert {round(pt.value, 6) for pt in half} == {round(pt.value, 6) for pt in full}
        det_zero = abs(hyperdet_222(t)) < 1e-9
        assert det_zero
        for points in (half, full):
            assert any(abs(pt.value) < 1e-5 for pt in points) == det_zero

    def test_seed_budget_counts_polished_seeds(self, monkeypatch):
        t = DenseTensor.from_array(np.random.default_rng(135).standard_normal((2, 2, 2)))
        seeds = polished_seed_count(monkeypatch, t, 2, "singular", 20)
        assert seeds == 10 ** 3
        monkeypatch.setattr(oracle, "_SEED_BUDGET", seeds)
        assert enumerate_critical_points(t, 2, kind="singular", resolution=20)
        monkeypatch.setattr(oracle, "_SEED_BUDGET", seeds - 1)
        with pytest.raises(SizeLimitError):
            enumerate_critical_points(t, 2, kind="singular", resolution=20)


def planted_z(rng, system_width, seeds=16):
    """Random stacked unknowns with planted exact zeros of both signs."""
    Z = rng.standard_normal((seeds, system_width))
    Z[rng.random(Z.shape) < 0.15] = 0.0
    Z[rng.random(Z.shape) < 0.15] = -0.0
    return Z


def assert_system_bytes(system, reference, rng):
    Z = planted_z(rng, reference.nvar)
    for name in ("residual", "jacobian"):
        got, want = getattr(system, name)(Z), getattr(reference, name)(Z)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes(), name


class TestSystem:
    """The one layout-driven system against the earlier per-kind systems."""

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2, 2), (2, 3, 2, 2)])
    @pytest.mark.parametrize("p", [2, 3, 4, "mixed"])
    def test_singular_matches_reference(self, dims, p):
        exps = (2, 3, 4, 3)[: len(dims)] if p == "mixed" else p
        pn = PNormSpec.broadcast(exps, len(dims))
        rng = np.random.default_rng(137)
        arr = rng.standard_normal(dims)
        arr[rng.random(dims) < 0.2] = 0.0
        A = DenseTensor.from_array(arr)
        system = oracle._System(A, Layout.singular(pn))
        assert_system_bytes(system, _SingularSystem(A, pn), rng)

    @pytest.mark.parametrize("order", [2, 3, 4])
    @pytest.mark.parametrize("p", [2, 3, 4])
    def test_eigen_matches_reference_at_every_mode(self, order, p):
        rng = np.random.default_rng(138)
        arr = rng.standard_normal((3,) * order)
        arr[rng.random(arr.shape) < 0.2] = 0.0
        A = DenseTensor.from_array(arr)
        for mode in range(order):
            system = oracle._System(A, Layout.eigen(p, order, mode))
            assert_system_bytes(system, _EigenSystem(A, p, mode), rng)

    @pytest.mark.parametrize(
        "dims, p, kind, mode",
        [
            ((2, 2, 3), 3, "singular", 0),
            ((3, 2), (2, 4), "singular", 0),
            ((3, 3, 3), 3, "eigen", 1),
            ((2, 2, 2, 2), 4, "eigen", 3),
        ],
    )
    def test_point_residuals_equal_solver_residuals(self, dims, p, kind, mode):
        t = DenseTensor.from_array(np.random.default_rng(139).standard_normal(dims))
        points = enumerate_critical_points(t, p, kind=kind, resolution=10, mode=mode)
        assert points
        for pt in points:
            if kind == "singular":
                want = singular_residual(t, pt.vectors, pt.value, p)
            else:
                want = eigen_residual(t, pt.vectors[0], pt.value, p, mode)
            assert np.float64(pt.residual).tobytes() == np.float64(want).tobytes()

    def test_chunked_eigen_grid_matches_one_batch(self, monkeypatch):
        # 450 seeds: one batch at the default chunk size, five at 97
        rng = np.random.default_rng(141)
        t = symmetrize(DenseTensor.from_array(rng.standard_normal((3, 3, 3))))
        one_batch = enumerate_critical_points(t, 3, kind="eigen", resolution=30)
        monkeypatch.setattr(oracle, "_SEED_CHUNK", 97)
        chunked = enumerate_critical_points(t, 3, kind="eigen", resolution=30)
        assert chunked and len(chunked) == len(one_batch)
        for a, b in zip(chunked, one_batch):
            assert a.value == b.value and a.residual == b.residual
            assert a.vectors[0].tobytes() == b.vectors[0].tobytes()


def reference_dedup_rows(keys):
    """The earlier greedy loop: one Python-level comparison per kept row."""
    if keys.size == 0:
        return []
    _, first = np.unique(np.round(keys, 8), axis=0, return_index=True)
    candidates = keys[np.sort(first)]
    kept = []
    for row in candidates:
        if any(np.max(np.abs(row - other)) <= oracle._DEDUP_TOL for other in kept):
            continue
        kept.append(row)
    return kept


def rows_bytes(rows):
    return [row.tobytes() for row in rows]


class TestDedupRows:
    def test_planted_near_duplicates_match_reference(self):
        rng = np.random.default_rng(136)
        base = rng.standard_normal((150, 7))
        near, far = base[:40].copy(), base[40:80].copy()
        cols = rng.integers(0, 7, size=40)
        near[np.arange(40), cols] += rng.choice([-0.5e-6, 0.5e-6], size=40)
        far[np.arange(40), cols] += rng.choice([-2e-6, 2e-6], size=40)
        keys = np.concatenate([base, near, far])[rng.permutation(230)]
        kept = oracle._dedup_rows(keys)
        assert rows_bytes(kept) == rows_bytes(reference_dedup_rows(keys))
        assert len(kept) == 190

    def test_planted_rank_one_candidates_match_reference(self, monkeypatch):
        raw = []
        dedup = oracle._dedup_rows

        def recording(keys):
            raw.append(keys)
            return dedup(keys)

        monkeypatch.setattr(oracle, "_dedup_rows", recording)
        t = DenseTensor.from_array(planted_zero_hyperdet("rank-one"))
        enumerate_critical_points(t, 2, kind="singular", resolution=20)
        (keys,) = raw
        assert keys.shape[0] >= 900
        kept = dedup(keys)
        assert len(kept) > 100
        assert rows_bytes(kept) == rows_bytes(reference_dedup_rows(keys))

    def test_empty_and_nan_rows(self):
        assert oracle._dedup_rows(np.empty((0, 3))) == []
        keys = np.array([[1.0, np.nan, 0.0], [1.0, 0.0, 0.0], [1.0, np.nan, 0.0]])
        assert rows_bytes(oracle._dedup_rows(keys)) == rows_bytes(reference_dedup_rows(keys))


class TestGaussNewtonSafeguard:
    def test_final_residual_never_above_initial(self):
        rng = np.random.default_rng(96)
        M = rng.standard_normal((3, 3))

        def residual(z):
            return M @ z - np.array([1.0, 2.0, 3.0]) + 0.1 * z ** 2

        def jacobian(z):
            return M + 0.2 * np.diag(z)

        for _ in range(10):
            z0 = rng.standard_normal(3) * 3.0
            start = float(np.linalg.norm(residual(z0)))
            _, final = gauss_newton(residual, jacobian, z0, max_steps=15)
            assert final <= start + 1e-15


class TestBaselineSvd:
    def test_rank_deficient_keeps_orthonormal_factors(self):
        u = np.array([1.0, 2.0, -1.0])
        v = np.array([0.5, 1.0, 0.25])
        M = np.outer(u, v)
        sigmas, U, V = dense_baseline_svd(M)
        assert sigmas[1] < 1e-12 and sigmas[2] < 1e-12
        assert np.linalg.norm(M - U @ np.diag(sigmas) @ V.T) <= 1e-12 * np.linalg.norm(M)
        np.testing.assert_allclose(U.T @ U, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(V.T @ V, np.eye(3), atol=1e-12)

    def test_diagonal(self):
        sigmas, _, _ = dense_baseline_svd(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(sigmas, [3.0, 1.0], atol=1e-14)

    def test_rotation_has_unit_spectrum(self):
        angle = np.pi / 6.0
        rot = np.array([[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]])
        sigmas, _, _ = dense_baseline_svd(rot)
        np.testing.assert_allclose(sigmas, [1.0, 1.0], atol=1e-14)

    @pytest.mark.parametrize("shape", [(5, 5), (6, 3), (3, 6)])
    def test_reconstruction(self, shape):
        rng = np.random.default_rng(97)
        M = rng.standard_normal(shape)
        sigmas, U, V = dense_baseline_svd(M)
        err = np.linalg.norm(M - U @ np.diag(sigmas) @ V.T)
        assert err <= 1e-10 * np.linalg.norm(M)
        k = min(shape)
        np.testing.assert_allclose(U.T @ U, np.eye(k), atol=1e-12)
        np.testing.assert_allclose(V.T @ V, np.eye(k), atol=1e-12)
        assert all(a >= b for a, b in zip(sigmas, sigmas[1:]))

    def test_size_cap(self):
        with pytest.raises(SizeLimitError):
            dense_baseline_svd(np.ones((65, 3)))


class TestBaselineSymeig:
    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(98)
        M = rng.standard_normal((6, 6))
        M = M + M.T
        w, Q = dense_baseline_symeig(M)
        assert np.linalg.norm(M - Q @ np.diag(w) @ Q.T) <= 1e-12 * np.linalg.norm(M)
        np.testing.assert_allclose(Q.T @ Q, np.eye(6), atol=1e-12)
        assert all(a >= b for a, b in zip(w, w[1:]))

    def test_rejects_nonsymmetric(self):
        with pytest.raises(SymmetryError):
            dense_baseline_symeig(np.array([[1.0, 2.0], [0.0, 1.0]]))
