"""l^p norms, the componentwise sign-power map, and the norm gradient.

``sign_power(x, q)`` maps each component to ``sgn(x_i) * |x_i|**q``.  With
that reading the gradient of the l^p norm is
``sign_power(x, p-1) / lp_norm(x, p)**(p-1)``, which is what every
stationarity equation in the solver modules is built from.  Integer powers
are computed by repeated multiplication so that small integer inputs stay
exact.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SingularPointError

__all__ = [
    "PNormSpec",
    "lp_norm",
    "sign_power",
    "sign_root",
    "lp_norm_gradient",
    "unit_vector",
]


def _abs_int_pow(x, q):
    """|x|**q for integer q >= 0, by repeated multiplication.

    Starts from |x| itself rather than from ones: 1.0 * a == a exactly, so
    the product is the same bits with one multiplication fewer.
    """
    a = np.abs(np.asarray(x, dtype=float))
    if q == 0:
        return np.ones_like(a)
    out = a
    for _ in range(q - 1):
        out = out * a
    return out


def _integer(value, what):
    """``value`` as an int; rejects a non-integral value instead of truncating it."""
    if type(value) is int:
        return value
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ParameterError(f"{what} must be an integer, got {value!r}")


def _scalar_int_pow(s, q):
    out = 1.0
    for _ in range(q):
        out *= s
    return out


@dataclass(frozen=True)
class PNormSpec:
    """Per-mode integer norm exponents, each at least 2.

    Solvers work with one exponent per mode; a single integer broadcasts.
    """

    exponents: tuple

    def __post_init__(self):
        exps = tuple(_integer(p, "norm exponent") for p in self.exponents)
        if len(exps) == 0:
            raise ParameterError("PNormSpec needs at least one exponent")
        for p in exps:
            if p < 2:
                raise ParameterError(f"norm exponents must be integers >= 2, got {p}")
        object.__setattr__(self, "exponents", exps)

    @classmethod
    def broadcast(cls, p, order):
        """Build a spec for ``order`` modes from an int, a sequence or a spec."""
        if isinstance(p, cls) and len(p) == order:
            return p
        if np.isscalar(p):
            return cls((p,) * order)
        exps = tuple(p)
        if len(exps) == 1:
            return cls(exps * order)
        if len(exps) != order:
            raise ParameterError(
                f"expected 1 or {order} norm exponents, got {len(exps)}"
            )
        return cls(exps)

    def __iter__(self):
        return iter(self.exponents)

    def __getitem__(self, i):
        return self.exponents[i]

    def __len__(self):
        return len(self.exponents)


def lp_norm(x, p):
    """(sum |x_i|^p)^(1/p) for integer p >= 1; zero only at the zero vector."""
    p = _integer(p, "lp_norm's p")
    if p < 1:
        raise ParameterError(f"lp_norm needs p >= 1, got {p}")
    x = np.asarray(x, dtype=float)
    total = float(_abs_int_pow(x, p).sum())
    if p == 1:
        return total
    return total ** (1.0 / p)


def sign_power(x, q):
    """Componentwise sgn(x_i) * |x_i|**q for integer q >= 1.

    Odd in x, and coincides with the plain componentwise power when q is
    odd; ``sign_power(x, 1)`` is the identity.
    """
    q = _integer(q, "sign_power's q")
    if q < 1:
        raise ParameterError(f"sign_power needs q >= 1, got {q}")
    x = np.asarray(x, dtype=float)
    return np.sign(x) * _abs_int_pow(x, q)


def sign_root(y, q):
    """Componentwise sgn(y_i) * |y_i|**(1/q): the inverse of sign_power."""
    q = _integer(q, "sign_root's q")
    if q < 1:
        raise ParameterError(f"sign_root needs q >= 1, got {q}")
    y = np.asarray(y, dtype=float)
    if q == 1:
        return y.copy()
    return np.sign(y) * np.abs(y) ** (1.0 / q)


def lp_norm_gradient(x, p):
    """Gradient of the l^p norm at x != 0 for integer p >= 2.

    Equals ``sign_power(x, p-1) / lp_norm(x, p)**(p-1)``; dotting with a
    unit-norm x gives exactly 1.
    """
    p = _integer(p, "lp_norm_gradient's p")
    if p < 2:
        raise ParameterError(f"lp_norm_gradient needs p >= 2, got {p}")
    x = np.asarray(x, dtype=float)
    norm = lp_norm(x, p)
    if norm == 0.0:
        raise SingularPointError("the l^p norm is not differentiable at the origin")
    return sign_power(x, p - 1) / _scalar_int_pow(norm, p - 1)


def unit_vector(x, p):
    """x scaled to unit l^p norm; rejects the zero vector."""
    x = np.asarray(x, dtype=float)
    norm = lp_norm(x, p)
    if norm == 0.0:
        raise SingularPointError("cannot normalize the zero vector")
    return x / norm
