"""Tensor storage and multilinear operation tests.

The reference implementations here (naive loop nests, central finite
differences) are deliberately independent of the library code paths they
check.
"""

from itertools import product

import numpy as np
import pytest

from lptensor import (
    DenseTensor,
    homogeneous_eval,
    homogeneous_gradient,
    is_symmetric,
    multilinear_eval,
    multilinear_transform,
    pair_contraction,
    partial_contraction,
    symmetrize,
)
from lptensor.errors import DimensionError, DomainError, ModeError, SymmetryError
from reference_kernels import (
    ref_multilinear_eval,
    ref_pair_contraction,
    ref_partial_contraction,
)


def naive_eval(A, xs):
    """2k-deep loop evaluation of the multilinear functional."""
    total = 0.0
    for idx in product(*[range(d) for d in A.dims]):
        term = A.array[idx]
        for i, j in enumerate(idx):
            term *= xs[i][j]
        total += term
    return total


def naive_transform(A, Ms):
    """Direct loop-nest covariant multiplication, kept as an oracle."""
    Ms = [np.atleast_2d(np.asarray(M, float).T).T for M in Ms]
    out_dims = tuple(M.shape[1] for M in Ms)
    out = np.zeros(out_dims)
    for out_idx in product(*[range(s) for s in out_dims]):
        total = 0.0
        for in_idx in product(*[range(d) for d in A.dims]):
            term = A.array[in_idx]
            for m in range(A.order):
                term *= Ms[m][in_idx[m], out_idx[m]]
            total += term
        out[out_idx] = total
    return out


def central_diff(f, x, h=1e-5):
    g = np.zeros_like(x, dtype=float)
    for i in range(x.size):
        e = np.zeros_like(x, dtype=float)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def all_ones(*dims):
    return DenseTensor(dims, np.ones(int(np.prod(dims))))


class TestDenseTensor:
    def test_construction_and_views(self):
        t = DenseTensor([2, 3], [1, 2, 3, 4, 5, 6])
        assert t.dims == (2, 3)
        assert t.order == 2
        # row-major, last index fastest
        assert t.array[0, 2] == 3
        assert t.array[1, 0] == 4
        np.testing.assert_array_equal(t.values, [1, 2, 3, 4, 5, 6])

    def test_immutable(self):
        t = all_ones(2, 2)
        with pytest.raises(ValueError):
            t.array[0, 0] = 5.0
        with pytest.raises(ValueError):
            t.values[0] = 5.0

    def test_rejects_bad_shapes(self):
        with pytest.raises(DimensionError):
            DenseTensor([4], [1, 2, 3, 4])  # order 1
        with pytest.raises(DimensionError):
            DenseTensor([2, 0], [])  # zero-sized mode
        with pytest.raises(DimensionError):
            DenseTensor([2, 2], [1, 2, 3])  # wrong length

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            DenseTensor([2, 2], [1, np.nan, 0, 0])
        with pytest.raises(DomainError):
            DenseTensor([2, 2], [1, np.inf, 0, 0])

    def test_json_round_trip(self):
        t = DenseTensor([2, 2, 2], [1, 0, 0, 0, 0, 0, 0, 1])
        obj = t.to_json_dict()
        assert obj == {"dims": [2, 2, 2], "values": [1, 0, 0, 0, 0, 0, 0, 1]}
        back = DenseTensor.from_json_dict(obj)
        np.testing.assert_array_equal(back.array, t.array)


class TestMultilinearEval:
    def test_identity_bilinear_form(self):
        eye = DenseTensor.from_array(np.eye(2))
        assert multilinear_eval(eye, [[1, 0], [1, 0]]) == 1.0

    def test_all_ones_sums_entries(self):
        assert multilinear_eval(all_ones(2, 2, 2), [[1, 1]] * 3) == 8.0

    def test_single_entry_selection(self):
        arr = np.zeros((2, 2, 2))
        arr[0, 1, 1] = 5.0
        t = DenseTensor.from_array(arr)
        assert multilinear_eval(t, [[1, 0], [0, 1], [0, 1]]) == 5.0

    def test_dimension_mismatch_names_mode(self):
        with pytest.raises(DimensionError, match="mode 2"):
            multilinear_eval(all_ones(2, 3, 2), [[1, 1], [1, 1], [1, 1]])

    def test_linear_in_each_slot(self):
        rng = np.random.default_rng(5)
        t = DenseTensor.from_array(rng.standard_normal((2, 3, 2)))
        xs = [rng.standard_normal(d) for d in t.dims]
        y = rng.standard_normal(3)
        a, b = 0.7, -1.3
        mixed = [xs[0], a * xs[1] + b * y, xs[2]]
        lhs = multilinear_eval(t, mixed)
        rhs = a * multilinear_eval(t, xs) + b * multilinear_eval(t, [xs[0], y, xs[2]])
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_matches_naive_loops(self):
        rng = np.random.default_rng(6)
        t = DenseTensor.from_array(rng.standard_normal((3, 2, 2)))
        xs = [rng.standard_normal(d) for d in t.dims]
        assert abs(multilinear_eval(t, xs) - naive_eval(t, xs)) < 1e-13


class TestMultilinearTransform:
    def test_identity_matrices_leave_tensor_unchanged(self):
        rng = np.random.default_rng(7)
        t = DenseTensor.from_array(rng.standard_normal((2, 3, 2)))
        out = multilinear_transform(t, [np.eye(d) for d in t.dims])
        np.testing.assert_array_equal(out.array, t.array)

    def test_matrix_case_is_congruence(self):
        rng = np.random.default_rng(8)
        M = rng.standard_normal((3, 3))
        P = rng.standard_normal((3, 2))
        Q = rng.standard_normal((3, 4))
        out = multilinear_transform(DenseTensor.from_array(M), [P, Q])
        np.testing.assert_allclose(out.array, P.T @ M @ Q, rtol=1e-13, atol=1e-13)

    def test_column_vectors_reduce_to_eval(self):
        t = all_ones(2, 2, 2)
        out = multilinear_transform(t, [[1, 1], [1, 1], [1, 1]])
        assert out.dims == (1, 1, 1)
        assert out.array[0, 0, 0] == 8.0

    def test_bit_identical_to_naive_on_integer_input(self):
        rng = np.random.default_rng(9)
        arr = rng.integers(-4, 5, size=(2, 3, 2)).astype(float)
        t = DenseTensor.from_array(arr)
        Ms = [rng.integers(-3, 4, size=(d, 2)).astype(float) for d in t.dims]
        fast = multilinear_transform(t, Ms).array
        slow = naive_transform(t, Ms)
        assert np.array_equal(fast, slow)

    def test_close_to_naive_on_float_input(self):
        rng = np.random.default_rng(10)
        t = DenseTensor.from_array(rng.standard_normal((2, 2, 3)))
        Ms = [rng.standard_normal((d, 2)) for d in t.dims]
        np.testing.assert_allclose(
            multilinear_transform(t, Ms).array, naive_transform(t, Ms), rtol=1e-13, atol=1e-14
        )

    def test_composition(self):
        rng = np.random.default_rng(11)
        t = DenseTensor.from_array(rng.standard_normal((2, 3, 2)))
        Ms = [rng.standard_normal((d, 3)) for d in t.dims]
        Ns = [rng.standard_normal((3, 2)) for _ in t.dims]
        once = multilinear_transform(t, [M @ N for M, N in zip(Ms, Ns)])
        twice = multilinear_transform(multilinear_transform(t, Ms), Ns)
        np.testing.assert_allclose(once.array, twice.array, rtol=1e-12, atol=1e-12)

    def test_row_count_mismatch(self):
        with pytest.raises(DimensionError, match="mode 1"):
            multilinear_transform(all_ones(2, 2), [np.eye(3), np.eye(2)])


class TestPartialContraction:
    def test_all_ones_components(self):
        g = partial_contraction(all_ones(2, 2, 2), [None, [1, 1], [1, 1]], 0)
        np.testing.assert_array_equal(g, [4.0, 4.0])

    def test_matrix_mode2_is_transpose_action(self):
        rng = np.random.default_rng(12)
        M = rng.standard_normal((3, 4))
        x = rng.standard_normal(3)
        g = partial_contraction(DenseTensor.from_array(M), [x, None], 1)
        np.testing.assert_allclose(g, M.T @ x, rtol=1e-14, atol=1e-14)

    def test_gradient_of_multilinear_eval(self):
        rng = np.random.default_rng(13)
        t = DenseTensor.from_array(rng.standard_normal((2, 3, 2)))
        xs = [rng.standard_normal(d) for d in t.dims]
        grad = partial_contraction(t, xs, 1)

        def f(y):
            return multilinear_eval(t, [xs[0], y, xs[2]])

        fd = central_diff(f, xs[1])
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-9)

    def test_mode_out_of_range(self):
        with pytest.raises(ModeError):
            partial_contraction(all_ones(2, 2), [[1, 1], [1, 1]], 2)

    def test_mode_independent_bits_for_symmetric(self):
        rng = np.random.default_rng(14)
        t = symmetrize(DenseTensor.from_array(rng.standard_normal((3, 3, 3))))
        x = rng.standard_normal(3)
        g0 = partial_contraction(t, [x, x, x], 0)
        g1 = partial_contraction(t, [x, x, x], 1)
        g2 = partial_contraction(t, [x, x, x], 2)
        assert np.array_equal(g0, g1)
        assert np.array_equal(g0, g2)

    def test_dot_with_own_vector_gives_homogeneous_eval(self):
        rng = np.random.default_rng(15)
        t = symmetrize(DenseTensor.from_array(rng.standard_normal((3, 3, 3))))
        x = rng.standard_normal(3)
        for mode in range(3):
            val = float(x @ partial_contraction(t, [x, x, x], mode))
            assert abs(val - homogeneous_eval(t, x)) < 1e-12


class TestPairContraction:
    def test_matches_explicit_loops(self):
        rng = np.random.default_rng(16)
        t = DenseTensor.from_array(rng.standard_normal((2, 3, 2)))
        xs = [rng.standard_normal(d) for d in t.dims]
        M = pair_contraction(t, xs, 0, 2)
        ref = np.zeros((2, 2))
        for i in range(2):
            for l in range(2):
                ref[i, l] = sum(t.array[i, j, l] * xs[1][j] for j in range(3))
        np.testing.assert_allclose(M, ref, rtol=1e-13, atol=1e-13)


KERNEL_SHAPES = [
    (2, 3),
    (4, 4),
    (3, 3, 3),
    (2, 3, 4),
    (4, 1, 3),
    (3, 3, 3, 3),
    (2, 3, 2, 4),
    (2, 3, 2, 2, 3),
]


def vector_forms(rng, dims):
    """The same kind of mode vectors in every form the solvers pass them."""
    floats = [rng.standard_normal(d) for d in dims]
    offs = np.cumsum([0] + list(dims))
    long = rng.standard_normal(offs[-1] + 1)
    return {
        "float64": floats,
        "list": [x.tolist() for x in floats],
        "int": [rng.integers(-3, 4, size=d) for d in dims],
        "strided": [rng.standard_normal(2 * d)[::2] for d in dims],
        "slices": [long[offs[i]:offs[i + 1]] for i in range(len(dims))],
    }


@pytest.mark.parametrize("dims", KERNEL_SHAPES, ids=lambda d: "x".join(map(str, d)))
class TestKernelBitIdentity:
    """The dot-based kernels make the moveaxis + tensordot chains' bits."""

    def test_partial_contraction_every_mode(self, dims):
        rng = np.random.default_rng(30)
        t = DenseTensor.from_array(rng.standard_normal(dims))
        for form, xs in vector_forms(rng, dims).items():
            for mode in range(len(dims)):
                got = partial_contraction(t, xs, mode)
                ref = ref_partial_contraction(t, xs, mode)
                assert got.shape == ref.shape == (dims[mode],), form
                assert got.tobytes() == ref.tobytes(), (form, mode)

    def test_pair_contraction_every_ordered_pair(self, dims):
        rng = np.random.default_rng(31)
        t = DenseTensor.from_array(rng.standard_normal(dims))
        for form, xs in vector_forms(rng, dims).items():
            for i in range(len(dims)):
                for j in range(len(dims)):
                    if i == j:
                        continue
                    got = pair_contraction(t, xs, i, j)
                    ref = ref_pair_contraction(t, xs, i, j)
                    assert got.shape == ref.shape == (dims[i], dims[j]), form
                    assert got.tobytes() == ref.tobytes(), (form, i, j)

    def test_multilinear_eval(self, dims):
        rng = np.random.default_rng(32)
        t = DenseTensor.from_array(rng.standard_normal(dims))
        for form, xs in vector_forms(rng, dims).items():
            got = multilinear_eval(t, xs)
            ref = ref_multilinear_eval(t, xs)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(ref).tobytes(), form

    def test_validation_kept(self, dims):
        t = DenseTensor.from_array(np.ones(dims))
        k = len(dims)
        good = [np.ones(d) for d in dims]
        short = list(good)
        short[-1] = np.ones(dims[-1] + 1)
        with pytest.raises(DimensionError, match=f"mode {k}"):
            partial_contraction(t, short, 0)
        with pytest.raises(DimensionError, match=f"mode {k}"):
            multilinear_eval(t, short)
        if k > 2:
            with pytest.raises(DimensionError, match=f"mode {k}"):
                pair_contraction(t, short, 0, 1)
        with pytest.raises(DimensionError):
            partial_contraction(t, good[:-1], 0)
        for bad in (k, -1):
            with pytest.raises(ModeError):
                partial_contraction(t, good, bad)
            with pytest.raises(ModeError):
                pair_contraction(t, good, 0, bad)
        with pytest.raises(ModeError):
            pair_contraction(t, good, 1, 1)


class TestHomogeneous:
    def test_all_ones(self):
        assert homogeneous_eval(all_ones(2, 2, 2), [1, 1]) == 8.0

    def test_degree_homogeneity(self):
        rng = np.random.default_rng(17)
        t = symmetrize(DenseTensor.from_array(rng.standard_normal((2, 2, 2))))
        x = rng.standard_normal(2)
        assert abs(homogeneous_eval(t, 2 * x) - 8 * homogeneous_eval(t, x)) < 1e-10

    def test_single_monomial(self):
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 0] = 1.0
        t = DenseTensor.from_array(arr)
        assert homogeneous_eval(t, [3.0, -7.0]) == 27.0

    def test_non_cubical_rejected(self):
        with pytest.raises(DimensionError):
            homogeneous_eval(all_ones(2, 3, 2), [1, 1])

    def test_gradient_all_ones(self):
        g = homogeneous_gradient(all_ones(2, 2, 2), [1, 1])
        np.testing.assert_array_equal(g, [12.0, 12.0])

    def test_gradient_single_monomial(self):
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 0] = 1.0
        t = DenseTensor.from_array(arr)
        g = homogeneous_gradient(t, [2.0, 5.0])
        np.testing.assert_array_equal(g, [12.0, 0.0])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(18)
        t = symmetrize(DenseTensor.from_array(rng.standard_normal((3, 3, 3))))
        x = rng.uniform(0.2, 1.0, size=3) * rng.choice([-1.0, 1.0], size=3)
        fd = central_diff(lambda y: homogeneous_eval(t, y), x)
        g = homogeneous_gradient(t, x)
        np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-8)

    def test_gradient_requires_symmetry(self):
        rng = np.random.default_rng(19)
        t = DenseTensor.from_array(rng.standard_normal((2, 2, 2)))
        with pytest.raises(SymmetryError):
            homogeneous_gradient(t, [1.0, 1.0])
        # trusted call skips the check
        homogeneous_gradient(t, [1.0, 1.0], trust_symmetry=True)


class TestSymmetry:
    def test_all_ones_symmetric(self):
        assert is_symmetric(all_ones(2, 2, 2))

    def test_non_cubical_not_symmetric(self):
        assert not is_symmetric(all_ones(2, 3, 2))

    def test_permutation_mismatch(self):
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 1] = 1.0
        assert not is_symmetric(DenseTensor.from_array(arr))

    def test_tolerance_flag(self):
        arr = np.ones((2, 2, 2))
        arr[0, 0, 1] += 5e-13
        t = DenseTensor.from_array(arr)
        assert not is_symmetric(t)
        assert is_symmetric(t, atol=1e-12)

    def test_symmetrize_orbit_average(self):
        arr = np.zeros((2, 2, 2))
        arr[0, 0, 1] = 3.0
        s = symmetrize(DenseTensor.from_array(arr))
        assert s.array[0, 0, 1] == 1.0
        assert s.array[0, 1, 0] == 1.0
        assert s.array[1, 0, 0] == 1.0
        assert s.array[0, 0, 0] == 0.0

    def test_symmetrize_idempotent_and_exact(self):
        rng = np.random.default_rng(20)
        s = symmetrize(DenseTensor.from_array(rng.standard_normal((3, 3, 3))))
        assert is_symmetric(s)
        again = symmetrize(s)
        np.testing.assert_array_equal(again.array, s.array)

    def test_symmetrize_preserves_homogeneous_eval(self):
        rng = np.random.default_rng(21)
        t = DenseTensor.from_array(rng.standard_normal((3, 3, 3)))
        s = symmetrize(t)
        for _ in range(10):
            x = rng.standard_normal(3)
            a = homogeneous_eval(t, x)
            b = homogeneous_eval(s, x)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_symmetrize_rejects_non_cubical(self):
        with pytest.raises(DimensionError):
            symmetrize(all_ones(2, 3, 2))
