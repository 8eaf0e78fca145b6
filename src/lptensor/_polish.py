"""The restart pipeline shared by the singular and eigen solvers.

Singular pairs and l^p eigenpairs are both critical points of one
multilinear form on a product of unit l^p spheres, and a ``core.Layout``
says how the unit vectors ("blocks") fill the tensor.  A singular problem
has ``slots = rows = (0, ..., k-1)``, a mode-m eigenproblem
``slots = (0,) * k`` and ``rows = (m,)``.  Each restart of
``collect`` runs on A * 2**-e (``_restart.unit_scale``): Gauss-Newton
from the random start, the solver's ascent from the same start with a
Gauss-Newton finish, a snap onto exact supports, then dedup up to the
sign orbits by ``_orbit``, which the grid oracle shares.  A solver
supplies only ``grade`` (unit norms, its sign convention, its residual)
and ``ascend``.
"""

import math
from typing import NamedTuple

import numpy as np

from ._orbit import canonicalize, greedy_dedup
from ._restart import SNAP_ACCEPT, unit_scale, zero_sets
from .config import restart_rng
from .core import DenseTensor, multilinear_eval, pair_contraction, partial_contraction
from .errors import DegenerateIterateError
from .pnorm import lp_norm, sign_power, unit_vector


class Candidate(NamedTuple):
    """A graded tuple on the unit-scaled tensor."""

    blocks: list
    value: float
    residual: float


def gauss_newton(residual, jacobian, z0, max_steps=60, tol=1e-13):
    """Drive ``residual(z)`` toward zero from ``z0``.

    Solves a (possibly overdetermined) system in least squares, with a
    backtracking line search so the residual norm never increases between
    accepted steps.

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


def system_functions(A, layout):
    """Residual, Jacobian and splitter of the stationarity + normalization system.

    Unknowns are the concatenated blocks followed by the value lambda.
    Block b gives ``A(..., I at rows[b], ...) - lambda * sign_power(x_b,
    p_b - 1)``, with slot j filled by block ``slots[j]``, and the
    normalization ``sum |x_b|**p_b - 1``.  A singular problem has
    sum(d_i) + k equations in sum(d_i) + 1 unknowns, so the corrector
    works in least squares; an eigenproblem is square.
    """
    # plain tuples and ints: these run once per Newton step or line-search try
    exps, slots, rows = tuple(layout.exps), layout.slots, layout.rows
    dims = layout.block_dims(A.dims)
    offs = np.cumsum([0] + dims).tolist()
    cuts = [slice(offs[b], offs[b + 1]) for b in range(len(dims))]
    nvar = offs[-1] + 1

    def split(z):
        return list(map(z.__getitem__, cuts)), z[offs[-1]]

    def residual(z):
        xs, lam = split(z)
        args = list(map(xs.__getitem__, slots))
        out = []
        for b, i in enumerate(rows):
            out.append(partial_contraction(A, args, i) - lam * sign_power(xs[b], exps[b] - 1))
        for x, p in zip(xs, exps):
            out.append([(np.abs(x) ** p).sum() - 1.0])
        return np.concatenate(out)

    def jacobian(z):
        xs, lam = split(z)
        args = list(map(xs.__getitem__, slots))
        J = np.zeros((offs[-1] + len(dims), nvar))
        for b, i in enumerate(rows):
            own = cuts[b]
            # each column block is summed in a zeroed temporary (so a -0.0
            # contraction entry lands as +0.0) and written into J once
            sums = {b: np.zeros((dims[b], dims[b]))}
            for j, c in enumerate(slots):
                if j != i:
                    if c not in sums:
                        sums[c] = np.zeros((dims[b], dims[c]))
                    sums[c] += pair_contraction(A, args, i, j)
            q = exps[b] - 1
            deriv = q * np.abs(xs[b]) ** (q - 1) if q > 1 else np.ones(dims[b])
            sums[b] -= lam * np.diag(deriv)
            for c, block in sums.items():
                J[own, cuts[c]] = block
            J[own, nvar - 1] = -sign_power(xs[b], q)
            J[offs[-1] + b, own] = exps[b] * sign_power(xs[b], q)
        return J

    return residual, jacobian, split


def _correct(A, layout, blocks, value, config):
    """Gauss-Newton from ``(blocks, value)``; None if a block lost most of its norm."""
    residual, jacobian, split = system_functions(A, layout)
    z0 = np.concatenate(list(blocks) + [[value]])
    z, _ = gauss_newton(residual, jacobian, z0, tol=min(config.tol * 1e-3, 1e-13))
    parts, _ = split(z)
    if any(lp_norm(x, p) < 0.5 for x, p in zip(parts, layout.exps)):
        return None
    return parts, lambda: jacobian(z)


def polish(A, layout, grade, blocks, config):
    """Gauss-Newton correction of ``blocks``, graded; None unless it converges."""
    value = multilinear_eval(A, [blocks[s] for s in layout.slots])
    corrected = _correct(A, layout, blocks, value, config)
    if corrected is None:
        return None
    pair = grade(A, layout, corrected[0])
    return pair if pair.residual <= config.tol else None


def snap(A, layout, grade, pair, config):
    """The converged ``pair`` on its exact support, if it has one.

    For each candidate zero set (``_restart.zero_sets``), largest first,
    the system is re-solved on the sub-tensor of the kept entries, each
    slot restricted to the support of its block.  The first result whose
    restricted Jacobian has full column rank and whose full residual is at
    most ``SNAP_ACCEPT * tol`` replaces the pair; otherwise it stays as it
    is.
    """
    for supports in zero_sets(pair.blocks, layout.exps):
        sub = DenseTensor.from_array(A.array[np.ix_(*[supports[s] for s in layout.slots])])
        parts = [x[s] for x, s in zip(pair.blocks, supports)]
        corrected = _correct(sub, layout, parts, pair.value, config)
        if corrected is None:
            continue
        parts, jacobian = corrected
        blocks = [np.zeros_like(x) for x in pair.blocks]
        for full, s, part in zip(blocks, supports, parts):
            full[s] = part
        snapped = grade(A, layout, blocks)
        if snapped.residual > SNAP_ACCEPT * config.tol:
            continue
        J = jacobian()
        if np.linalg.matrix_rank(J) == J.shape[1]:
            return snapped
    return pair


def settle(A, layout, grade, blocks, config):
    """Polish ``blocks`` (graded as they are if that fails); snap if converged.

    The corrector always runs, so flat-direction junk of size ~sqrt(tol)
    near degenerate pairs cannot survive into dedup.
    """
    pair = polish(A, layout, grade, blocks, config)
    if pair is None:
        pair = grade(A, layout, blocks)
    if pair.residual <= config.tol:
        pair = snap(A, layout, grade, pair, config)
    return pair


def dedup(pairs, order):
    """One pair per sign orbit within ``_orbit.DEDUP_TOL``, by value descending.

    ``order`` is the number of slots, which a one-block orbit needs.
    """
    pairs = sorted(pairs, key=lambda c: (-c.value, c.residual))
    if not pairs:
        return []
    Xs = [np.array(blocks) for blocks in zip(*(c.blocks for c in pairs))]
    Xs, value = canonicalize(Xs, np.array([c.value for c in pairs]), order)
    kept = [pairs[i] for i in greedy_dedup(np.column_stack([value] + Xs))]
    kept.sort(key=lambda c: (-c.value, tuple(c.blocks[0])))
    return kept


def collect(A, layout, grade, ascend, config):
    """Run every restart; return ``(pairs, best, e)`` on A_hat = A * 2**-e.

    ``pairs`` are the distinct converged candidates, ``best`` the ascent
    result of least residual (None if every ascent was degenerate).
    ``grade(A, layout, blocks)`` returns a ``Candidate``;
    ``ascend(A, layout, blocks, config)`` returns blocks or raises
    ``DegenerateIterateError``, which is re-raised only when no restart
    produced anything.
    """
    A, e = unit_scale(A)
    dims = layout.block_dims(A.dims)
    found = []
    best = degenerate = None
    for r in range(config.restarts):
        rng = restart_rng(config, r)
        start = []
        for d, p in zip(dims, layout.exps):
            g = rng.standard_normal(d)
            while lp_norm(g, p) < 1e-8:
                g = rng.standard_normal(d)
            start.append(unit_vector(g, p))
        polished = polish(A, layout, grade, start, config)
        if polished is not None:
            found.append(snap(A, layout, grade, polished, config))
        try:
            blocks = ascend(A, layout, start, config)
        except DegenerateIterateError as exc:
            degenerate = exc
            continue
        pair = settle(A, layout, grade, blocks, config)
        if pair.residual <= config.tol:
            found.append(pair)
        if best is None or pair.residual < best.residual:
            best = pair
    if best is None and not found:
        raise degenerate
    return dedup(found, len(layout.slots)), best, e
