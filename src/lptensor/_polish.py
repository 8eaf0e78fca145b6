"""The batched restart engine shared by the singular and eigen solvers.

Singular pairs and l^p eigenpairs are both critical points of one
multilinear form on a product of unit l^p spheres, and a ``core.Layout``
says how the unit vectors ("blocks") fill the tensor.  A singular problem
has ``slots = rows = (0, ..., k-1)``, a mode-m eigenproblem
``slots = (0,) * k`` and ``rows = (m,)``.  ``collect`` runs every
restart at once on A * 2**-e (``_restart.unit_scale``): it draws all the
random starts, runs the solver's ascent on all of them as one batch, and
polishes the starts and the ascent results, stacked, as one more batch
with the grid oracle's system and damped Gauss-Newton (``_system``).
Converged pairs are then snapped onto exact supports one at a time and
deduped up to sign orbits by ``_orbit``.  A solver supplies only
``grade`` (unit norms, its sign convention, its residual) and a batched
``ascend``.  Every seed is computed from its own data alone, so a
restart's pairs do not depend on the other restarts in its batch.
"""

import math
from typing import NamedTuple

import numpy as np

from ._orbit import canonicalize, greedy_dedup
from ._restart import SNAP_ACCEPT, unit_scale, zero_sets
from ._system import _contract_batched, _levenberg_polish, _System
from .config import restart_rng
from .core import DenseTensor
from .pnorm import lp_norm, unit_vector


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


def _corrector_tol(config):
    """The system residual at which a corrector stops."""
    return min(config.tol * 1e-3, 1e-13)


def _polish_rows(system, A, grade, Xs, config):
    """Polish N stacked tuples ``Xs`` as one batch; per row the graded pair or None.

    A row comes back None unless every block kept at least half of its
    norm and the graded pair converged to ``config.tol``.
    """
    layout = system.layout
    value = _contract_batched(system.arr, [Xs[s] for s in layout.slots])
    Z0 = np.concatenate(list(Xs) + [value[:, None]], axis=1)
    Z, _ = _levenberg_polish(system, Z0, stop=_corrector_tol(config) ** 2)
    parts, _ = system.split(Z)
    norms = [np.sum(np.abs(X) ** p, axis=1) ** (1.0 / p) for X, p in zip(parts, layout.exps)]
    out = [None] * Z.shape[0]
    for r in np.flatnonzero(np.all([n >= 0.5 for n in norms], axis=0)).tolist():
        pair = grade(A, layout, [X[r] for X in parts])
        if pair.residual <= config.tol:
            out[r] = pair
    return out


def _correct(A, layout, blocks, value, config):
    """Gauss-Newton from ``(blocks, value)``; None if a block lost most of its norm."""
    system = _System(A, layout)

    def residual(z):
        return system.residual(z[None])[0]

    def jacobian(z):
        return system.jacobian(z[None])[0]

    z0 = np.concatenate(list(blocks) + [[value]])
    z, _ = gauss_newton(residual, jacobian, z0, tol=_corrector_tol(config))
    parts = [X[0] for X in system.split(z[None])[0]]
    if any(lp_norm(x, p) < 0.5 for x, p in zip(parts, layout.exps)):
        return None
    return parts, lambda: jacobian(z)


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


def keep_rows(mask, *arrays):
    """Each array's rows where ``mask`` holds; a None stays None."""
    return [None if a is None else a[mask] for a in arrays]


def draw_starts(layout, dims, config):
    """Every restart's random unit start, stacked: one (restarts, d_b) array per block."""
    rows = []
    for r in range(config.restarts):
        rng = restart_rng(config, r)
        start = []
        for d, p in zip(dims, layout.exps):
            g = rng.standard_normal(d)
            while lp_norm(g, p) < 1e-8:
                g = rng.standard_normal(d)
            start.append(unit_vector(g, p))
        rows.append(start)
    return [np.array(block) for block in zip(*rows)]


def restart_pairs(A, layout, grade, ascend, starts, config):
    """Run the seeds ``starts`` (one (N, d_b) array per block) on A as one batch.

    Returns ``(found, ends, errors)``.  ``found[r]`` lists seed r's
    converged pairs, snapped: its start polished, then its ascent result
    polished (graded as it is if the polish fails); both polishes run as
    one stacked batch of up to 2N rows.  ``ends[r]`` is seed r's ascent
    result, converged or not, or None if its ascent was degenerate.
    ``ascend(A, layout, starts, config)`` returns the ascent results
    stacked like ``starts`` and a dict from each degenerate seed to its
    ``DegenerateIterateError``; ``errors`` is that dict.
    """
    n = starts[0].shape[0]
    ascended, errors = ascend(A, layout, starts, config)
    ok = [r for r in range(n) if r not in errors]
    batch = [np.concatenate([S, X[ok]]) for S, X in zip(starts, ascended)]
    polished = _polish_rows(_System(A, layout), A, grade, batch, config)
    found = [[] for _ in range(n)]
    ends = [None] * n
    for r, pair in enumerate(polished[:n]):
        if pair is not None:
            found[r].append(snap(A, layout, grade, pair, config))
    for r, pair in zip(ok, polished[n:]):
        if pair is None:
            pair = grade(A, layout, [X[r] for X in ascended])
        if pair.residual <= config.tol:
            pair = snap(A, layout, grade, pair, config)
            found[r].append(pair)
        ends[r] = pair
    return found, ends, errors


def collect(A, layout, grade, ascend, config):
    """Run every restart; return ``(pairs, best, e)`` on A_hat = A * 2**-e.

    ``pairs`` are the distinct converged candidates, ``best`` the ascent
    result of least residual (None if every ascent was degenerate).
    ``grade(A, layout, blocks)`` returns a ``Candidate``; for ``ascend``
    see ``restart_pairs``.  A degenerate ascent's error is re-raised only
    when no restart produced anything.
    """
    A, e = unit_scale(A)
    starts = draw_starts(layout, layout.block_dims(A.dims), config)
    found, ends, errors = restart_pairs(A, layout, grade, ascend, starts, config)
    pairs = [pair for seed in found for pair in seed]
    best = min((pair for pair in ends if pair is not None), key=lambda c: c.residual, default=None)
    if best is None and not pairs:
        raise errors[max(errors)]
    return dedup(pairs, len(layout.slots)), best, e
