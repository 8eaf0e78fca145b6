"""Acceptance suite.

Each test implements one numbered acceptance criterion at its stated
tolerance and prints one PASS line when it holds (run with ``pytest -s``
to see the lines).  Expected values come from independent oracles: the
from-scratch Jacobi decompositions, dense sphere grids, the pencil
discriminant, exhaustive subset enumeration, and closed forms forced by
symmetry.
"""

from itertools import combinations, product

import numpy as np
import pytest

from lptensor import (
    DenseTensor,
    SolverConfig,
    dense_baseline_svd,
    dense_baseline_symeig,
    eigen_residual,
    enumerate_critical_points,
    find_reducing_set,
    homogeneous_eval,
    homogeneous_gradient,
    hyperdet_222,
    lp_norm,
    lp_norm_gradient,
    multilinear_eval,
    multilinear_transform,
    partial_contraction,
    sigma_max,
    singular_residual,
    solve_mode_eigenpairs,
    solve_perron,
    solve_singular_pair,
    solve_singular_pairs,
    solve_symmetric_eigenpairs,
    symmetrize,
)

# converged (value, independent re-evaluation) pairs collected by criteria
# 1-6 and checked as criterion 10
_VALUE_CHECKS = []


def _ok(number, message):
    print(f"ACCEPTANCE {number} PASS: {message}")


def _random_symmetric(rng, n, k=3):
    return symmetrize(DenseTensor.from_array(rng.standard_normal((n,) * k)))


def test_criterion_1_matrix_singular_reduction():
    rng = np.random.default_rng(1001)
    config = SolverConfig(restarts=64, seed=2001)
    worst_sigma = 0.0
    worst_rel = 0.0
    for trial in range(20):
        n = 4 if trial < 10 else 5
        M = rng.standard_normal((n, n))
        sigmas, _, _ = dense_baseline_svd(M)
        pair = solve_singular_pair(DenseTensor.from_array(M), 2, config)
        assert pair.converged
        worst_sigma = max(worst_sigma, abs(pair.sigma - sigmas[0]))
        assert abs(pair.sigma - sigmas[0]) <= 1e-8
        u, v = pair.vectors
        defect = max(
            float(np.linalg.norm(M @ v - pair.sigma * u)),
            float(np.linalg.norm(M.T @ u - pair.sigma * v)),
        )
        worst_rel = max(worst_rel, defect)
        assert defect <= 1e-8
        _VALUE_CHECKS.append(
            (pair.sigma, multilinear_eval(DenseTensor.from_array(M), pair.vectors))
        )
    _ok(1, f"20 matrices: |sigma - svd| <= {worst_sigma:.2e}, relations <= {worst_rel:.2e}")


def test_criterion_2_matrix_eigen_reduction():
    rng = np.random.default_rng(1002)
    config = SolverConfig(restarts=64, seed=2002)
    worst = 0.0
    for _ in range(20):
        M = rng.standard_normal((5, 5))
        M = (M + M.T) / 2.0
        w, _ = dense_baseline_symeig(M)
        t = DenseTensor.from_array(M)
        pairs = solve_symmetric_eigenpairs(t, 2, config)
        found = np.array([p.lam for p in pairs])
        for value in w:
            gap = float(np.min(np.abs(found - value)))
            worst = max(worst, gap)
            assert gap <= 1e-8
        for pair in pairs:
            _VALUE_CHECKS.append((pair.lam, homogeneous_eval(t, pair.vector)))
    _ok(2, f"20 symmetric 5x5: every eigenvalue recovered within {worst:.2e}")


def test_criterion_3_sigma_max_lower_bound():
    rng = np.random.default_rng(1003)
    config = SolverConfig(restarts=32, seed=2003)
    theta = np.linspace(0.0, np.pi, 50, endpoint=False)
    circle = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    worst_short = np.inf
    for _ in range(10):
        t = DenseTensor.from_array(rng.standard_normal((2, 2, 2)))
        best = sigma_max(t, 2, config)
        grid = np.abs(np.einsum("abc,ia,jb,kc->ijk", t.array, circle, circle, circle))
        assert best >= grid.max() - 1e-3
        assert np.all(grid <= best + 1e-9)
        worst_short = min(worst_short, best - grid.max())
    _ok(3, f"10 tensors: sigma_max dominates the 50^3 grid (min margin {worst_short:.2e})")


def _zero_hyperdet_tensors(rng):
    single = np.zeros((2, 2, 2))
    single[0, 0, 0] = 1.0
    all_ones = np.ones((2, 2, 2))
    u, v, w = rng.standard_normal((3, 2))
    rank_one = np.einsum("i,j,k->ijk", u, v, w)
    proportional = rng.standard_normal((2, 2, 2))
    proportional[1] = -0.75 * proportional[0]
    zero_slice = rng.standard_normal((2, 2, 2))
    zero_slice[0] = 0.0
    return [single, all_ones, rank_one, proportional, zero_slice]


def test_criterion_4_hyperdeterminant_vs_zero_singular_value():
    rng = np.random.default_rng(1004)
    cases = [rng.uniform(-1.0, 1.0, (2, 2, 2)) for _ in range(20)]
    cases += _zero_hyperdet_tensors(rng)
    agreements = 0
    for arr in cases:
        t = DenseTensor.from_array(arr)
        det_zero = abs(hyperdet_222(t)) < 1e-9
        points = enumerate_critical_points(t, 2, kind="singular", resolution=20)
        oracle_zero = any(abs(p.value) < 1e-5 for p in points)
        assert det_zero == oracle_zero
        agreements += 1
    _ok(4, f"hyperdeterminant zero-ness matches the oracle in all {agreements} cases")


def test_criterion_5_perron_forced_values():
    for n, k in ((2, 3), (3, 3), (2, 4), (4, 3)):
        t = DenseTensor.from_array(np.ones((n,) * k))
        result = solve_perron(t, SolverConfig(restarts=2, seed=2005))
        assert result.converged
        assert abs(result.lam - n ** (k - 1)) <= 1e-10
        assert np.max(np.abs(result.vector - n ** (-1.0 / k))) <= 1e-10
        _VALUE_CHECKS.append((result.lam, homogeneous_eval(t, result.vector)))
    _ok(5, "all-ones tensors hit lambda = n^(k-1) and the uniform vector to 1e-10")


def test_criterion_6_perron_bracketing():
    rng = np.random.default_rng(1006)
    worst_gap = 0.0
    for _ in range(10):
        t = DenseTensor.from_array(rng.uniform(1e-3, 1.0, (3, 3, 3)))
        result = solve_perron(t, SolverConfig(tol=1e-10, max_iter=500, restarts=2))
        assert result.converged
        assert result.iterations <= 500
        gap = result.upper - result.lower
        assert gap <= 1e-10 * result.lam
        assert eigen_residual(t, result.vector, result.lam, 3, 0) <= 1e-8
        assert (result.vector > 1e-6).all()
        worst_gap = max(worst_gap, gap / result.lam)
        _VALUE_CHECKS.append((result.lam, homogeneous_eval(t, result.vector)))
    _ok(6, f"10 positive tensors converged with relative gap <= {worst_gap:.2e}")


def test_criterion_7_perron_equivariance():
    rng = np.random.default_rng(1007)
    for trial in range(5):
        base = rng.uniform(0.05, 1.0, (3, 3, 3))
        ref = solve_perron(DenseTensor.from_array(base), SolverConfig(restarts=1))
        for c in (0.1, 7.0):
            scaled = solve_perron(
                DenseTensor.from_array(c * base), SolverConfig(restarts=1)
            )
            assert abs(scaled.lam - c * ref.lam) <= 1e-8 * max(1.0, c * ref.lam)
        perm = rng.permutation(3)
        P = np.eye(3)[:, perm]
        permuted = multilinear_transform(DenseTensor.from_array(base), [P, P, P])
        out = solve_perron(permuted, SolverConfig(restarts=1))
        assert abs(out.lam - ref.lam) <= 1e-8
        assert np.max(np.abs(out.vector - ref.vector[perm])) <= 1e-8
    _ok(7, "scaling by 0.1 and 7 and index permutations commute with the solver")


def test_criterion_8_scale_invariance_cubic_norms():
    rng = np.random.default_rng(1008)
    config = SolverConfig(restarts=16, seed=2008)
    checked = 0
    for _ in range(3):
        t = DenseTensor.from_array(rng.standard_normal((2, 2, 2)))
        for pair in solve_singular_pairs(t, 3, config):
            for alpha in (0.5, 2.0, 10.0):
                scaled = [alpha * v for v in pair.vectors]
                res = singular_residual(t, scaled, pair.sigma, 3)
                assert res <= 1e-8 * alpha ** 2
                checked += 1
    assert checked > 0
    _ok(8, f"{checked} scaled tuples kept residual <= 1e-8 * alpha^2")


def test_criterion_9_gradient_checks():
    rng = np.random.default_rng(1009)

    def central_diff(f, x, h=1e-5):
        g = np.zeros_like(x)
        for i in range(x.size):
            e = np.zeros_like(x)
            e[i] = h
            g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
        return g

    worst = 0.0
    for p in (2, 3, 4):
        for _ in range(50):
            x = rng.uniform(0.2, 1.0, size=4) * rng.choice([-1.0, 1.0], size=4)
            fd = central_diff(lambda y: lp_norm(y, p), x)
            g = lp_norm_gradient(x, p)
            rel = float(np.linalg.norm(fd - g) / np.linalg.norm(g))
            worst = max(worst, rel)
            assert rel <= 1e-6
    for _ in range(50):
        t = _random_symmetric(rng, 3)
        t = DenseTensor.from_array(t.array / max(1.0, np.abs(t.array).max()))
        x = rng.uniform(0.2, 1.0, size=3) * rng.choice([-1.0, 1.0], size=3)
        fd = central_diff(lambda y: homogeneous_eval(t, y), x)
        g = homogeneous_gradient(t, x, trust_symmetry=True)
        rel = float(np.linalg.norm(fd - g) / np.linalg.norm(g))
        worst = max(worst, rel)
        assert rel <= 1e-6
    _ok(9, f"200 gradient checks against central differences, worst rel {worst:.2e}")


def test_criterion_10_value_consistency():
    if not _VALUE_CHECKS:
        pytest.skip("needs the pairs collected by criteria 1-6; run the full module")
    assert len(_VALUE_CHECKS) > 100
    worst = max(abs(a - b) for a, b in _VALUE_CHECKS)
    assert worst <= 1e-10
    _ok(10, f"{len(_VALUE_CHECKS)} converged pairs: |value - evaluation| <= {worst:.2e}")


def test_criterion_11_irreducibility_against_exhaustive_checker():
    def exhaustive_reducing_set(t):
        n = t.dims[0]
        k = t.order
        for size in range(1, n):
            for subset in combinations(range(n), size):
                good = True
                for j1 in range(n):
                    if j1 in subset:
                        continue
                    for rest in product(subset, repeat=k - 1):
                        if t.array[(j1,) + rest] != 0.0:
                            good = False
                            break
                    if not good:
                        break
                if good:
                    return subset
        return None

    rng = np.random.default_rng(1011)
    agreements = 0
    for _ in range(100):
        n = int(rng.choice([3, 4, 5]))
        k = int(rng.choice([3, 4]))
        arr = rng.random((n,) * k) * (rng.random((n,) * k) < 0.25)
        t = DenseTensor.from_array(arr)
        assert find_reducing_set(t) == exhaustive_reducing_set(t)
        agreements += 1
        positive = DenseTensor.from_array(rng.uniform(0.01, 1.0, (n,) * k))
        assert find_reducing_set(positive) is None
    _ok(11, f"least closed sets agree with the exhaustive checker on {agreements} tensors")


def test_criterion_12_symmetry_collapses_modes():
    rng = np.random.default_rng(1012)
    config = SolverConfig(restarts=24, seed=2012)
    for trial in range(10):
        t = _random_symmetric(rng, 3)
        x = rng.standard_normal(3)
        g0 = partial_contraction(t, [x, x, x], 0)
        g1 = partial_contraction(t, [x, x, x], 1)
        g2 = partial_contraction(t, [x, x, x], 2)
        assert np.array_equal(g0, g1) and np.array_equal(g0, g2)
        if trial < 3:
            per_mode = [
                sorted(p.lam for p in solve_mode_eigenpairs(t, mode, 2, config))
                for mode in range(3)
            ]
            assert len(per_mode[0]) == len(per_mode[1]) == len(per_mode[2])
            for values in per_mode[1:]:
                assert np.max(np.abs(np.array(values) - np.array(per_mode[0]))) <= 1e-6
    _ok(12, "mode contractions identical; mode eigenpair sets coincide")
