"""Input scaling and exact supports, shared by the restart solvers.

Singular values and eigenvalues are critical values of a homogeneous
constrained form, so sigma(cA) = |c| sigma(A) with the same vectors.  The
restart solvers therefore run on A_hat = A * 2**-e, the power-of-two
rescaling of A to unit Frobenius scale, and scale values and residuals
back by 2**e.  Both scalings are exact in floating point, so A and
A * 2**j give bit-identical vectors, and every threshold the solvers use
is relative to 2**e.

At p >= 3 the map sign(x)|x|^(p-1) has zero derivative at 0, so a pair
with an exact zero entry is a singular root of the stationarity system.
Newton converges only linearly there and leaves junk of about
tol^(1/(p-1)) in the zero entries.  ``zero_sets`` lists the candidate
zero sets of a converged pair; ``_polish.snap`` re-solves the system on
the remaining support, where the root is regular (structured deflation in
the sense of Leykin, Verschelde & Zhao 2006), and keeps the result only
if it solves the full system.
"""

import math

import numpy as np

from .core import DenseTensor

# an entry with |x_j|**(p - 1) at most this is a candidate exact zero
SNAP_THETA = 1e-6
# a pair put on its support is kept only if its full residual is at most
# this times tol; otherwise the pair stays as it converged
SNAP_ACCEPT = 1e-3


def unit_scale(A):
    """``(A_hat, e)`` with ``A_hat = A * 2**-e`` and ``||A_hat||_F`` in [0.5, 1).

    The exponent of max|a| is taken first, and the Frobenius norm of the
    array pre-scaled by it, whose largest entry lies in [0.5, 1): its
    squares can neither overflow nor all underflow, so every finite
    nonzero tensor in float64's normal range gets a usable exponent.
    """
    arr = A.array
    _, e = math.frexp(float(np.max(np.abs(arr))))
    pre = np.ldexp(arr, -e)
    _, e_norm = math.frexp(math.sqrt(float((pre * pre).sum())))
    e += e_norm
    return DenseTensor.from_array(np.ldexp(arr, -e)), e


def zero_sets(vectors, exps):
    """Candidate supports of a pair, largest zero set first.

    An entry of a vector with exponent p >= 3 is a candidate when
    ``|x_j|**(p - 1) <= SNAP_THETA``.  The zero sets are nested: the m
    smallest candidates, for m from all of them down to one, skipping sets
    of entries that are zero already.  Each set is yielded as the index
    array of kept entries, one per vector.
    """
    candidates = []
    for i, (x, p) in enumerate(zip(vectors, exps)):
        if p >= 3:
            for j in np.flatnonzero(np.abs(x) ** (p - 1) <= SNAP_THETA):
                candidates.append((abs(x[j]), i, j))
    candidates.sort()
    exact = sum(1 for c in candidates if c[0] == 0.0)
    for m in range(len(candidates), exact, -1):
        keep = [np.ones(x.shape[0], dtype=bool) for x in vectors]
        for _, i, j in candidates[:m]:
            keep[i][j] = False
        yield [np.flatnonzero(mask) for mask in keep]
