"""Earlier forms of the solver kernels, kept as bit-exact references.

The library's kernels call ``np.dot`` directly where these go through
``np.moveaxis`` and ``np.tensordot``, start powers from ``|x|`` instead of
ones, and take the corrector's residual norm without ``np.linalg.norm``.
Each change was made to cut per-call overhead only, so every result must
match these forms byte for byte.  Validation is left out here; the tests
check it on the library functions.
"""

import sys

import numpy as np


def ref_vector(x):
    return np.asarray(x, dtype=float).reshape(-1)


def ref_multilinear_eval(A, xs):
    out = A.array
    for x in xs:
        out = np.tensordot(out, ref_vector(x), axes=([0], [0]))
    return float(out)


def ref_partial_contraction(A, xs, mode):
    out = np.moveaxis(A.array, mode, 0)
    others = [j for j in range(A.order) if j != mode]
    for j in reversed(others):
        out = np.tensordot(out, ref_vector(xs[j]), axes=([out.ndim - 1], [0]))
    return out


def ref_pair_contraction(A, xs, mode_i, mode_j):
    out = np.moveaxis(A.array, (mode_i, mode_j), (0, 1))
    others = [j for j in range(A.order) if j not in (mode_i, mode_j)]
    for j in reversed(others):
        out = np.tensordot(out, ref_vector(xs[j]), axes=([out.ndim - 1], [0]))
    return out


def ref_abs_int_pow(x, q):
    a = np.abs(np.asarray(x, dtype=float))
    out = np.ones_like(a)
    for _ in range(q):
        out = out * a
    return out


def ref_gauss_newton(residual, jacobian, z0, max_steps=60, tol=1e-13):
    z = np.array(z0, dtype=float)
    f = residual(z)
    fnorm = float(np.linalg.norm(f))
    for _ in range(max_steps):
        if fnorm <= tol or not np.isfinite(fnorm):
            break
        J = jacobian(z)
        step, *_ = np.linalg.lstsq(J, -f, rcond=None)
        t = 1.0
        improved = False
        while t >= 1e-4:
            z_try = z + t * step
            f_try = residual(z_try)
            fnorm_try = float(np.linalg.norm(f_try))
            if fnorm_try < fnorm:
                z, f, fnorm = z_try, f_try, fnorm_try
                improved = True
                break
            t *= 0.5
        if not improved:
            break
    return z, fnorm


def install_references(monkeypatch):
    """Bind the reference kernels everywhere the solvers look them up.

    Every attribute of every loaded ``lptensor`` module that holds one of
    the originals is rebound, since the solvers and the shared pipeline
    bind kernels by direct import.  A reference that replaced no binding
    would make the comparison vacuous, so that fails at once.
    """
    import lptensor._polish
    import lptensor.core
    import lptensor.pnorm

    references = [
        (lptensor.core.multilinear_eval, ref_multilinear_eval),
        (lptensor.core.partial_contraction, ref_partial_contraction),
        (lptensor.core.pair_contraction, ref_pair_contraction),
        (lptensor._polish.gauss_newton, ref_gauss_newton),
        (lptensor.pnorm._abs_int_pow, ref_abs_int_pow),
    ]
    modules = [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "lptensor" or name.startswith("lptensor."))
    ]
    for original, ref in references:
        bindings = [
            (module, attr)
            for module in modules
            for attr, value in vars(module).items()
            if value is original
        ]
        assert bindings, f"{ref.__name__}: no lptensor module binds the original"
        for module, attr in bindings:
            monkeypatch.setattr(module, attr, ref)
