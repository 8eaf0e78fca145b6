"""Sign orbits: one canonical member per orbit, and one greedy dedup.

Singular tuples and l^p eigenpairs are critical points of one multilinear
form on a product of unit spheres, so they come in sign orbits.
Flipping an even set of mode vectors keeps sigma, and negating a vector
that fills all ``order`` slots maps lambda to (-1)**order * lambda.  The
restart solvers and the grid oracle both report each result once per
orbit: ``canonicalize`` picks the member, and ``greedy_dedup`` drops the
rows within ``DEDUP_TOL`` of one kept before.  Only numpy is imported.
"""

import numpy as np

# two canonical rows closer than this in every component are one result
DEDUP_TOL = 1e-6


def leading_signs(X):
    """Per row of ``X``, the sign of the first entry within a factor 10 of the largest.

    Residual-flat directions near degenerate pairs can carry junk of size
    ~sqrt(tol); only entries of significant size may pick the orientation.
    """
    absX = np.abs(X)
    idx = (absX >= 0.1 * absX.max(axis=1, keepdims=True)).argmax(axis=1)
    return np.where(X[np.arange(X.shape[0]), idx] < 0, -1.0, 1.0)


def canonicalize(Xs, value, order):
    """The canonical members ``(Xs, value)`` of N stacked orbits.

    ``Xs`` holds one (N, d_b) array per block.  One block fills all
    ``order`` slots: it is oriented by ``leading_signs`` and the value is
    multiplied by ``signs**order``.  With several blocks, block 0 takes
    the sign that makes the value >= 0; each other block is then oriented
    by ``leading_signs``, and block 0 flips with it, which keeps the value.
    """
    if len(Xs) == 1:
        signs = [leading_signs(Xs[0])]
        value = value * signs[0] ** order
    else:
        signs = [leading_signs(X) for X in Xs[1:]]
        flip = np.where(value < 0, -1.0, 1.0)
        signs.insert(0, flip * np.prod(signs, axis=0))
        value = value * flip
    return [X * s[:, None] for X, s in zip(Xs, signs)], value


def greedy_dedup(keys, tol=DEDUP_TOL):
    """Indices of the rows of ``keys`` (N, m >= 2) kept by a greedy pass.

    In row order, a row is dropped when a row kept before it lies within
    ``tol`` in every column.  Rows with a non-finite entry never match,
    so they are always kept and never filed.  Kept rows are filed by
    cell, ``floor(key / (2 * tol))``, in the two columns with the most
    distinct cells, and a row is compared only with the rows in its 9
    neighbouring cells.  Rows within ``tol`` lie in neighbouring cells,
    so the result is that of comparing every pair.
    """
    finite = np.isfinite(keys).all(axis=1).tolist()
    # keys are clipped where cells pass 2**50, so cell numbers stay exact
    lim = 2.0**51 * tol
    cells = np.floor(np.clip(np.nan_to_num(keys), -lim, lim) / (2.0 * tol))
    # distinct cells per column, counted by sorting: np.unique's hashing adds 1 MB RSS
    cols = np.argsort((np.diff(np.sort(cells, axis=0), axis=0) != 0).sum(axis=0))[-2:]
    table = {}
    kept = []
    for i, (a, b) in enumerate(cells[:, cols].astype(np.int64).tolist()):
        if finite[i]:
            near = [j for u in (a - 1, a, a + 1) for v in (b - 1, b, b + 1)
                    for j in table.get((u, v), ())]
            if near and (np.abs(keys[near] - keys[i]).max(axis=1) <= tol).any():
                continue
            table.setdefault((a, b), []).append(i)
        kept.append(i)
    return np.array(kept, dtype=np.intp)
