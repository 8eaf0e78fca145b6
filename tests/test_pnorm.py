"""Norm, sign-power map and gradient tests."""

import numpy as np
import pytest

from lptensor import PNormSpec, lp_norm, lp_norm_gradient, sign_power, sign_root
from lptensor.errors import ParameterError, SingularPointError
from lptensor.pnorm import _abs_int_pow
from reference_kernels import ref_abs_int_pow


def central_diff(f, x, h=1e-5):
    g = np.zeros_like(x, dtype=float)
    for i in range(x.size):
        e = np.zeros_like(x, dtype=float)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


class TestLpNorm:
    def test_pythagorean(self):
        assert lp_norm([3, 4], 2) == 5.0

    def test_cube_norm(self):
        assert abs(lp_norm([1, 1], 3) - 2.0 ** (1.0 / 3.0)) < 1e-15

    def test_quartic_norm(self):
        assert abs(lp_norm([-2, 0, 2], 4) - 2.0 * 2.0 ** 0.25) < 1e-15

    def test_zero_only_at_zero(self):
        assert lp_norm([0.0, 0.0], 3) == 0.0
        assert lp_norm([0.0, 1e-150], 2) > 0.0

    def test_scale_homogeneous(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(5)
        for p in (1, 2, 3, 4):
            assert abs(lp_norm(-2.5 * x, p) - 2.5 * lp_norm(x, p)) < 1e-12

    def test_rejects_p_below_one(self):
        with pytest.raises(ParameterError):
            lp_norm([1.0], 0)


class TestSignPower:
    def test_even_exponent_keeps_sign(self):
        np.testing.assert_array_equal(sign_power([-2, 3], 2), [-4.0, 9.0])

    def test_odd_exponent_is_plain_power(self):
        np.testing.assert_array_equal(sign_power([-2], 3), [-8.0])

    def test_q_one_is_identity(self):
        x = np.array([-1.5, 0.0, 2.25])
        np.testing.assert_array_equal(sign_power(x, 1), x)

    def test_odd_in_x(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(6)
        for q in (1, 2, 3, 4):
            np.testing.assert_allclose(sign_power(-x, q), -sign_power(x, q), atol=0)

    def test_scalar_homogeneity(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(4)
        for q in (2, 3):
            lhs = sign_power(-3.0 * x, q)
            rhs = -(3.0 ** q) * sign_power(x, q)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-14)

    def test_dot_identity_with_norm(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(5)
        for q in (1, 2, 3):
            lhs = float(x @ sign_power(x, q))
            rhs = lp_norm(x, q + 1) ** (q + 1)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


POWER_INPUTS = [
    np.array([0.0, -0.0, 1.5, -2.25, 3.0, -1e-3, 7e2]),
    [-0.0, 0.0, -1.0, 2.0],
    np.array([-3, 0, 2, 5]),
    np.array([[0.5, -0.0], [-4.0, 1e-150]]),
    np.linspace(-2.0, 2.0, 17)[::3],
]


def float_bytes(x):
    return np.asarray(x, dtype=np.float64).tobytes()


class TestPowerBitIdentity:
    """Powers start from |x|, not from ones; 1.0 * a == a keeps the bits."""

    @pytest.mark.parametrize("q", range(7))
    def test_abs_int_pow(self, q):
        for x in POWER_INPUTS:
            got = _abs_int_pow(x, q)
            ref = ref_abs_int_pow(x, q)
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes(), x

    @pytest.mark.parametrize("q", range(1, 7))
    def test_sign_power_and_lp_norm(self, q):
        for x in POWER_INPUTS:
            ref_power = np.sign(np.asarray(x, dtype=float)) * ref_abs_int_pow(x, q)
            assert sign_power(x, q).tobytes() == ref_power.tobytes(), x
            total = float(np.sum(ref_abs_int_pow(x, q)))
            ref_norm = total if q == 1 else total ** (1.0 / q)
            assert float_bytes(lp_norm(x, q)) == float_bytes(ref_norm), x

    def test_q_zero_still_rejected(self):
        assert _abs_int_pow([-0.0, 2.0], 0).tobytes() == float_bytes([1.0, 1.0])
        with pytest.raises(ParameterError):
            sign_power([1.0], 0)
        with pytest.raises(ParameterError):
            lp_norm([1.0], 0)

    def test_result_does_not_alias_input(self):
        x = np.array([1.0, 2.0])
        out = _abs_int_pow(x, 1)
        out[0] = 5.0
        assert x[0] == 1.0


class TestSignRoot:
    def test_cube_root(self):
        np.testing.assert_array_equal(sign_root([-8.0], 3), [-2.0])

    def test_square_root(self):
        np.testing.assert_array_equal(sign_root([0.0, 1.0], 2), [0.0, 1.0])

    def test_round_trip(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(100):
            y = rng.uniform(-2.0, 2.0, size=5)
            for q in (2, 3, 4):
                back = sign_power(sign_root(y, q), q)
                worst = max(worst, float(np.max(np.abs(back - y))))
        assert worst < 1e-12


class TestLpNormGradient:
    def test_euclidean_case(self):
        np.testing.assert_allclose(lp_norm_gradient([3.0, 4.0], 2), [0.6, 0.8], rtol=1e-15)

    def test_cubic_case(self):
        expected = np.array([1.0, 1.0]) / 2.0 ** (2.0 / 3.0)
        np.testing.assert_allclose(lp_norm_gradient([1.0, 1.0], 3), expected, rtol=1e-15)

    def test_unit_vector_dot_is_one(self):
        rng = np.random.default_rng(5)
        for p in (2, 3, 4):
            x = rng.standard_normal(4)
            x = x / lp_norm(x, p)
            assert abs(float(x @ lp_norm_gradient(x, p)) - 1.0) < 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        for p in (2, 3, 4):
            # keep components away from zero where odd-p norms lose smoothness
            x = rng.uniform(0.2, 1.0, size=4) * rng.choice([-1.0, 1.0], size=4)
            fd = central_diff(lambda y: lp_norm(y, p), x)
            np.testing.assert_allclose(lp_norm_gradient(x, p), fd, rtol=1e-6)

    def test_origin_rejected(self):
        with pytest.raises(SingularPointError):
            lp_norm_gradient([0.0, 0.0], 2)

    def test_p_one_rejected(self):
        with pytest.raises(ParameterError):
            lp_norm_gradient([1.0], 1)


class TestPNormSpec:
    def test_broadcast_scalar(self):
        assert PNormSpec.broadcast(3, 4).exponents == (3, 3, 3, 3)

    def test_broadcast_sequence(self):
        assert PNormSpec.broadcast([2, 3, 4], 3).exponents == (2, 3, 4)

    def test_rejects_exponent_below_two(self):
        with pytest.raises(ParameterError):
            PNormSpec((2, 1, 2))

    def test_rejects_wrong_length(self):
        with pytest.raises(ParameterError):
            PNormSpec.broadcast([2, 3], 3)


class TestNonIntegerExponents:
    """Integer exponents only: 2.5 is rejected, never truncated to 2."""

    def test_spec_rejects_fractional_exponent(self):
        with pytest.raises(ParameterError, match="must be an integer, got 3.9"):
            PNormSpec((3.9, 2))

    def test_broadcast_rejects_fractional_scalar(self):
        with pytest.raises(ParameterError, match="must be an integer, got 2.5"):
            PNormSpec.broadcast(2.5, 3)

    def test_lp_norm_rejects_fractional_p(self):
        with pytest.raises(ParameterError, match="must be an integer"):
            lp_norm([3.0, 4.0], 2.5)

    def test_sign_power_rejects_fractional_q(self):
        with pytest.raises(ParameterError, match="must be an integer"):
            sign_power([1.0, -2.0], 1.5)

    def test_sign_root_rejects_fractional_q(self):
        with pytest.raises(ParameterError, match="must be an integer"):
            sign_root([1.0, -8.0], 2.5)

    def test_gradient_rejects_fractional_p(self):
        with pytest.raises(ParameterError, match="must be an integer"):
            lp_norm_gradient([1.0, 2.0], 2.5)

    def test_non_finite_exponent_rejected(self):
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ParameterError):
                lp_norm([1.0], bad)

    def test_integral_floats_and_numpy_integers_accepted(self):
        x = [3.0, -4.0]
        for p in (3.0, np.int64(3), np.float64(3.0)):
            assert lp_norm(x, p) == lp_norm(x, 3)
            assert sign_power(x, p).tobytes() == sign_power(x, 3).tobytes()
            assert sign_root(x, p).tobytes() == sign_root(x, 3).tobytes()
            assert lp_norm_gradient(x, p).tobytes() == lp_norm_gradient(x, 3).tobytes()
            assert PNormSpec.broadcast(p, 2).exponents == (3, 3)
            assert type(PNormSpec((p,)).exponents[0]) is int
