"""Independent checks of lptensor results, written with numpy only.

Nothing here imports lptensor.  Every residual, norm, form value and
reference spectrum is recomputed from the raw arrays with ``np.einsum``
and ``np.linalg``, so a defect shared by the library's kernels cannot
hide itself.  All checks run outside the timed region.

Tolerances are fixed from the float64 dtype, not from the measured
results: a stationarity residual must be below ``sqrt(eps) * ||A||_F``.
"""

import json
from itertools import product

import numpy as np

RTOL = float(np.sqrt(np.finfo(float).eps))
NORM_TOL = 1e-9
SAME_TOL = 1e-6
SAMPLES = 4096
DET_ZERO = 1e-10
VALUE_ZERO = 1e-8

_LETTERS = "abcdefgh"


class Verdict:
    """Outcome of checking one operation.

    ``ok`` is False when the output is wrong: a returned pair that is not
    a unit critical point, a value that disagrees with the form or with
    numpy's SVD/eigh, a wrong exit code, reducing set or bracket.
    ``shortfall`` names a missing result instead: nothing returned, or an
    extremal value below the best sampled form value.  The solvers only
    promise the pairs their restarts find, so a shortfall lowers
    ``found`` and is reported by name, but is not a failure.
    ``found`` counts distinct verified pairs.
    """

    __slots__ = ("ok", "found", "reason", "shortfall")

    def __init__(self, ok, found=0, reason="", shortfall=""):
        self.ok = ok
        self.found = found
        self.reason = reason
        self.shortfall = shortfall

    def __repr__(self):
        return (
            f"Verdict(ok={self.ok}, found={self.found}, reason={self.reason!r}, "
            f"shortfall={self.shortfall!r})"
        )


def _reject(reason):
    return Verdict(False, 0, reason)


def _short(reason):
    return Verdict(True, 0, shortfall=reason)


def _spow(x, q):
    return np.sign(x) * np.abs(x) ** q


def _pnorm(x, p):
    return float(np.sum(np.abs(x) ** p) ** (1.0 / p))


def _contract_all_but(arr, xs, skip):
    k = arr.ndim
    subs = [_LETTERS[:k]] + [_LETTERS[j] for j in range(k) if j != skip]
    ops = [arr] + [xs[j] for j in range(k) if j != skip]
    return np.einsum(",".join(subs) + "->" + _LETTERS[skip], *ops)


def _form(arr, xs):
    k = arr.ndim
    subs = [_LETTERS[:k]] + list(_LETTERS[:k])
    return float(np.einsum(",".join(subs) + "->", arr, *xs))


def _sampled_forms(arr, ps, rng, same_vector=False):
    """Form values at ``SAMPLES`` random unit tuples (l^p_i per mode)."""
    k = arr.ndim
    if same_vector:
        X = rng.standard_normal((SAMPLES, arr.shape[0]))
        X /= (np.sum(np.abs(X) ** ps[0], axis=1) ** (1.0 / ps[0]))[:, None]
        Xs = [X] * k
    else:
        Xs = []
        for i, d in enumerate(arr.shape):
            X = rng.standard_normal((SAMPLES, d))
            X /= (np.sum(np.abs(X) ** ps[i], axis=1) ** (1.0 / ps[i]))[:, None]
            Xs.append(X)
    subs = [_LETTERS[:k]] + ["z" + _LETTERS[j] for j in range(k)]
    return np.einsum(",".join(subs) + "->z", arr, *Xs)


def _distinct(items, same):
    kept = []
    for item in items:
        if not any(same(item, other) for other in kept):
            kept.append(item)
    return len(kept)


def _check_unit(vectors, ps):
    for i, x in enumerate(vectors):
        if not np.all(np.isfinite(x)):
            return f"mode {i + 1}: non-finite vector"
        if abs(_pnorm(x, ps[i]) - 1.0) > NORM_TOL:
            return f"mode {i + 1}: l^{ps[i]} norm {_pnorm(x, ps[i])!r} is not 1"
    return None


def singular_pairs(arr, ps, pairs, rng):
    """Check ``pairs``, a list of (vectors, sigma), as singular pairs of ``arr``.

    Every pair must be a unit stationary tuple with sigma >= 0 equal to the
    form value; the largest sigma must reach the largest form value seen at
    sampled unit tuples; order-2 problems at p = 2 must match
    ``np.linalg.svd``.  ``found`` counts pairs distinct up to even sign
    flips of the mode vectors.
    """
    arr = np.asarray(arr, dtype=float)
    k = arr.ndim
    anorm = float(np.linalg.norm(arr))
    if not pairs:
        return _short("no pair returned")
    for n, (vectors, sigma) in enumerate(pairs):
        vectors = [np.asarray(v, dtype=float) for v in vectors]
        bad = _check_unit(vectors, ps)
        if bad:
            return _reject(f"pair {n}: {bad}")
        if not (np.isfinite(sigma) and sigma >= 0.0):
            return _reject(f"pair {n}: sigma {sigma!r} is not a nonnegative number")
        if abs(_form(arr, vectors) - sigma) > RTOL * anorm:
            return _reject(f"pair {n}: sigma {sigma!r} differs from the form value")
        for i in range(k):
            defect = _contract_all_but(arr, vectors, i) - sigma * _spow(vectors[i], ps[i] - 1)
            rel = float(np.linalg.norm(defect)) / anorm
            if rel > RTOL:
                return _reject(f"pair {n}: mode {i + 1} relative residual {rel:.3g}")
    top = max(sigma for _, sigma in pairs)
    shortfall = ""
    sampled = float(np.max(np.abs(_sampled_forms(arr, ps, rng))))
    if top < sampled - RTOL * anorm:
        shortfall = f"top sigma {top!r} is below the sampled form value {sampled!r}"
    if k == 2 and tuple(ps) == (2, 2):
        svals = np.linalg.svd(arr, compute_uv=False)
        for n, (_, sigma) in enumerate(pairs):
            if np.min(np.abs(svals - sigma)) > RTOL * anorm:
                return _reject(f"pair {n}: sigma {sigma!r} is not a singular value")
        if top < svals[0] - RTOL * anorm:
            shortfall = f"top sigma {top!r} is below the top singular value {float(svals[0])!r}"
    signs = [s for s in product((1.0, -1.0), repeat=k) if np.prod(s) > 0]

    def same(a, b):
        if abs(a[1] - b[1]) > SAME_TOL * anorm:
            return False
        return any(
            all(np.max(np.abs(s * x - y)) <= SAME_TOL for s, x, y in zip(flips, a[0], b[0]))
            for flips in signs
        )

    items = [([np.asarray(v, dtype=float) for v in vs], s) for vs, s in pairs]
    return Verdict(True, _distinct(items, same), shortfall=shortfall)


def eigen_pairs(arr, p, mode, pairs, rng, symmetric):
    """Check ``pairs``, a list of (vector, lam), as mode-``mode`` eigenpairs.

    Every pair must be a unit l^p vector with lam equal to A(x, ..., x) and
    a small stationarity residual.  For symmetric input the extremal
    eigenvalue must reach the largest form value seen at sampled unit
    vectors, and order-2 problems at p = 2 must match ``np.linalg.eigh``.
    ``found`` counts pairs distinct up to (x, lam) ~ (-x, (-1)^k lam).
    """
    arr = np.asarray(arr, dtype=float)
    k = arr.ndim
    anorm = float(np.linalg.norm(arr))
    if not pairs:
        return _short("no pair returned")
    for n, (x, lam) in enumerate(pairs):
        x = np.asarray(x, dtype=float)
        bad = _check_unit([x], [p])
        if bad:
            return _reject(f"pair {n}: {bad}")
        if not np.isfinite(lam):
            return _reject(f"pair {n}: eigenvalue {lam!r} is not finite")
        if abs(_form(arr, [x] * k) - lam) > RTOL * anorm:
            return _reject(f"pair {n}: eigenvalue {lam!r} differs from A(x, ..., x)")
        defect = _contract_all_but(arr, [x] * k, mode) - lam * _spow(x, p - 1)
        rel = float(np.linalg.norm(defect)) / anorm
        if rel > RTOL:
            return _reject(f"pair {n}: relative residual {rel:.3g}")
    lams = np.array([lam for _, lam in pairs])
    shortfall = ""
    if symmetric:
        values = _sampled_forms(arr, [p], rng, same_vector=True)
        if k % 2:
            top, sampled = float(np.max(np.abs(lams))), float(np.max(np.abs(values)))
        else:
            top, sampled = float(np.max(lams)), float(np.max(values))
        if top < sampled - RTOL * anorm:
            shortfall = f"top eigenvalue {top!r} is below the sampled form value {sampled!r}"
        if k == 2 and p == 2:
            evals = np.linalg.eigh(arr)[0]
            for n, lam in enumerate(lams):
                if np.min(np.abs(evals - lam)) > RTOL * anorm:
                    return _reject(f"pair {n}: {lam!r} is not an eigenvalue")
            if top < evals[-1] - RTOL * anorm:
                shortfall = f"top eigenvalue {top!r} is below eigh's {float(evals[-1])!r}"
    parity = (-1.0) ** k

    def same(a, b):
        return (
            abs(a[1] - b[1]) <= SAME_TOL * anorm
            and np.max(np.abs(a[0] - b[0])) <= SAME_TOL
        ) or (
            abs(parity * a[1] - b[1]) <= SAME_TOL * anorm
            and np.max(np.abs(a[0] + b[0])) <= SAME_TOL
        )

    items = [(np.asarray(x, dtype=float), lam) for x, lam in pairs]
    return Verdict(True, _distinct(items, same), shortfall=shortfall)


def critical_points(arr, ps, kind, mode, points, rng, det=None, planted_zero=None):
    """Check oracle output, a list of (vectors, value), for ``arr``.

    Each point must be a unit stationary point with value equal to the
    form; the extremal value must reach the sampled form values.  With
    ``det`` (Cayley's hyperdeterminant of a 2x2x2 tensor) it must vanish
    exactly when some critical value vanishes, and ``planted_zero`` states
    whether the input was built to have a zero hyperdeterminant.  ``found``
    counts distinct critical values: a continuum of critical points that
    shares one value counts once.
    """
    arr = np.asarray(arr, dtype=float)
    k = arr.ndim
    anorm = float(np.linalg.norm(arr))
    if not points:
        return _short("no critical point returned")
    for n, (vectors, value) in enumerate(points):
        vectors = [np.asarray(v, dtype=float) for v in vectors]
        if kind == "eigen":
            x = vectors[0]
            bad = _check_unit([x], ps)
            full = [x] * k
            checks = [(mode, value * _spow(x, ps[0] - 1))]
        else:
            bad = _check_unit(vectors, ps)
            full = vectors
            checks = [(i, value * _spow(vectors[i], ps[i] - 1)) for i in range(k)]
        if bad:
            return _reject(f"point {n}: {bad}")
        if abs(_form(arr, full) - value) > RTOL * anorm:
            return _reject(f"point {n}: value {value!r} differs from the form value")
        for i, target in checks:
            rel = float(np.linalg.norm(_contract_all_but(arr, full, i) - target)) / anorm
            if rel > RTOL:
                return _reject(f"point {n}: mode {i + 1} relative residual {rel:.3g}")
    values = np.array([value for _, value in points])
    shortfall = ""
    sampled = np.abs(_sampled_forms(arr, ps, rng, same_vector=(kind == "eigen")))
    if float(np.max(np.abs(values))) < float(np.max(sampled)) - RTOL * anorm:
        shortfall = "extremal critical value is below the sampled form value"
    if det is not None:
        det_zero = abs(det) <= DET_ZERO * anorm ** 4
        value_zero = bool(np.min(np.abs(values)) <= VALUE_ZERO * anorm)
        if det_zero != value_zero:
            return _reject(
                f"hyperdeterminant {det!r} and smallest |value| "
                f"{float(np.min(np.abs(values)))!r} disagree"
            )
        if planted_zero is not None and det_zero != planted_zero:
            return _reject(f"hyperdeterminant {det!r} contradicts the planted structure")
    distinct = np.sort(values)
    count = 1 + int(np.sum(np.diff(distinct) > SAME_TOL * anorm))
    return Verdict(True, count, shortfall=shortfall)


def cli_check(code, stdout, expected_set):
    """``lptensor check``: exit 0 and the expected one-based reducing set."""
    if code != 0:
        return _reject(f"check exited {code}, expected 0")
    entry = _first_result(stdout)
    if entry is None:
        return _reject("check printed no parsable report")
    got = entry.get("reducing_set")
    if got != expected_set:
        return _reject(f"check reported reducing set {got!r}, expected {expected_set!r}")
    if entry.get("irreducible") is not (expected_set is None):
        return _reject(f"check reported irreducible={entry.get('irreducible')!r}")
    return Verdict(True, 0)


def cli_perron(code, stdout, arr, expected_code, tol):
    """``lptensor perron``: the expected exit code and, on success, a
    Perron value inside its own Collatz-Wielandt bracket.

    The bracket is recomputed from the reported vector; the reported gap
    must be within ``tol`` relative to the lower bound, as the solver
    promises.  ``found`` is 1 for a verified Perron pair.
    """
    if code != expected_code:
        return _reject(f"perron exited {code}, expected {expected_code}")
    if expected_code != 0:
        if stdout.strip():
            return _reject("perron printed a report although it failed")
        return Verdict(True, 0)
    entry = _first_result(stdout)
    if entry is None:
        return _reject("perron printed no parsable report")
    arr = np.asarray(arr, dtype=float)
    k = arr.ndim
    lam, lower, upper = entry["lambda"], entry["lower"], entry["upper"]
    x = np.asarray(entry["vector"], dtype=float)
    if not entry.get("converged"):
        return _reject("perron reported converged=false")
    if not lower <= lam <= upper:
        return _reject(f"lambda {lam!r} outside its bracket [{lower!r}, {upper!r}]")
    if upper - lower > tol * max(1.0, lower):
        return _reject(f"bracket gap {upper - lower!r} exceeds tol")
    if not np.all(x > 0):
        return _reject("Perron vector is not strictly positive")
    if abs(_pnorm(x, k) - 1.0) > NORM_TOL:
        return _reject("Perron vector does not have unit l^k norm")
    ratios = _contract_all_but(arr, [x] * k, 0) / x ** (k - 1)
    slack = RTOL * lam
    if not (ratios.min() - slack <= lam <= ratios.max() + slack):
        return _reject(f"lambda {lam!r} outside the recomputed bracket")
    if ratios.max() - ratios.min() > 10.0 * tol * max(1.0, lam) + slack:
        return _reject("recomputed bracket is wider than tol")
    return Verdict(True, 1)


def _first_result(stdout):
    try:
        report = json.loads(stdout)
        return report["results"][0]
    except (ValueError, KeyError, IndexError, TypeError):
        return None
