"""Damped Gauss-Newton corrector used by the singular and eigen solvers.

Solves a (possibly overdetermined) stationarity-plus-normalization system
in least squares, with a backtracking line search so the residual norm
never increases between accepted steps.
"""

import math

import numpy as np

__all__ = ["gauss_newton"]


def gauss_newton(residual, jacobian, z0, max_steps=60, tol=1e-13):
    """Drive ``residual(z)`` toward zero from ``z0``.

    :param residual: callable z -> 1-D residual vector.
    :param jacobian: callable z -> 2-D Jacobian of ``residual``.
    :param z0: starting point (copied).
    :param max_steps: step budget.
    :param tol: stop once the residual 2-norm falls below this.
    :returns: (z, resid_norm) for the best point seen.
    """
    z = np.array(z0, dtype=float)
    f = residual(z)
    # np.linalg.norm's own formula for a 1-D real vector, without its wrapper
    fnorm = math.sqrt(f.dot(f))
    for _ in range(max_steps):
        if fnorm <= tol or not math.isfinite(fnorm):
            break
        J = jacobian(z)
        step, *_ = np.linalg.lstsq(J, -f, rcond=None)
        t = 1.0
        improved = False
        while t >= 1e-4:
            z_try = z + t * step
            f_try = residual(z_try)
            fnorm_try = math.sqrt(f_try.dot(f_try))
            if fnorm_try < fnorm:
                z, f, fnorm = z_try, f_try, fnorm_try
                improved = True
                break
            t *= 0.5
        if not improved:
            break
    return z, fnorm
