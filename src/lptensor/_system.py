"""The batched stationarity system and its damped Gauss-Newton polish.

Singular tuples and l^p eigenpairs are critical points of one multilinear
form on a product of unit l^p spheres; a ``core.Layout`` says how the
unit vectors ("blocks") fill the tensor's slots.  ``_System`` gives the
residual and Jacobian of the stationarity-plus-normalization system for N
points stacked along a leading axis, and ``_levenberg_polish`` drives all
N toward roots at once.  The restart solvers and the grid oracle both run
on them.  Every row is computed from its own data alone, so a point's
result does not depend on the batch it is polished in.  Only numpy is
imported.
"""

import numpy as np

_LETTERS = "abcdefgh"


def _spow(X, q):
    return np.sign(X) * np.abs(X) ** q


def _spow_deriv(X, q):
    if q > 1:
        return q * np.abs(X) ** (q - 1)
    return np.ones_like(X)


def _renormalize_rows(X, p):
    norms = np.sum(np.abs(X) ** p, axis=1) ** (1.0 / p)
    return X / norms[:, None]


def _contract_batched(arr, Xs, free=()):
    """Contract every slot of ``arr`` but ``free`` with its row of ``Xs``, per seed."""
    others = [m for m in range(arr.ndim) if m not in free]
    if not others:
        # an order-2 pair: both slots free, the same matrix for every seed
        base = arr if free[0] < free[1] else arr.T
        return np.broadcast_to(base, (Xs[free[0]].shape[0],) + base.shape)
    subs = [_LETTERS[:arr.ndim]] + ["z" + _LETTERS[m] for m in others]
    out = "z" + "".join(_LETTERS[m] for m in free)
    return np.einsum(
        ",".join(subs) + "->" + out, arr, *[Xs[m] for m in others], optimize=False
    )


class _System:
    """Batched residual/Jacobian of the stationarity + normalization system.

    Unknowns are the blocks of ``layout``, concatenated, then the value.
    Block b's equations contract slot ``rows[b]``, with slot j filled by
    block ``slots[j]``; each block adds its normalization equation.  A
    singular problem has sum(d_i) + k equations in sum(d_i) + 1 unknowns,
    an eigenproblem is square.
    """

    def __init__(self, A, layout):
        self.arr = A.array
        self.layout = layout
        self.dims = layout.block_dims(A.dims)
        self.offsets = np.concatenate([[0], np.cumsum(self.dims)])

    def split(self, Z):
        off = self.offsets
        return [Z[:, off[b]:off[b + 1]] for b in range(len(self.dims))], Z[:, -1]

    def residual(self, Z):
        Xs, lam = self.split(Z)
        args = [Xs[s] for s in self.layout.slots]
        blocks = []
        for b, i in enumerate(self.layout.rows):
            g = _contract_batched(self.arr, args, (i,))
            blocks.append(g - lam[:, None] * _spow(Xs[b], self.layout.exps[b] - 1))
        for X, p in zip(Xs, self.layout.exps):
            blocks.append((np.sum(np.abs(X) ** p, axis=1) - 1.0)[:, None])
        return np.concatenate(blocks, axis=1)

    def jacobian(self, Z):
        Xs, lam = self.split(Z)
        exps, slots = self.layout.exps, self.layout.slots
        args = [Xs[s] for s in slots]
        off, N = self.offsets, Z.shape[0]
        J = np.zeros((N, off[-1] + len(self.dims), off[-1] + 1))
        for b, i in enumerate(self.layout.rows):
            own = slice(off[b], off[b + 1])
            diag = np.arange(self.dims[b])
            q = exps[b] - 1
            # a block in other slots too (the eigen kind) sums its own-block
            # terms in a zeroed temporary: += into strided J slices is slower
            D = np.zeros((N, self.dims[b], self.dims[b])) if slots.count(b) > 1 else None
            for j, c in enumerate(slots):
                if j == i:
                    continue
                pair = _contract_batched(self.arr, args, (i, j))
                if c == b:
                    D += pair
                else:
                    J[:, own, off[c]:off[c + 1]] = pair
            if D is None:
                J[:, off[b] + diag, off[b] + diag] = -lam[:, None] * _spow_deriv(Xs[b], q)
            else:
                D[:, diag, diag] -= lam[:, None] * _spow_deriv(Xs[b], q)
                J[:, own, own] = D
            J[:, own, -1] = -_spow(Xs[b], q)
            J[:, off[-1] + b, own] = exps[b] * _spow(Xs[b], q)
        return J


def _solve_each(lhs, rhs):
    """``np.linalg.solve`` seed by seed, NaN for a seed whose matrix is singular.

    None when every seed's matrix is singular.
    """
    out = np.full(rhs.shape, np.nan)
    solved = False
    for r in range(lhs.shape[0]):
        try:
            out[r] = np.linalg.solve(lhs[r], rhs[r])
            solved = True
        except np.linalg.LinAlgError:
            pass
    return out if solved else None


def _levenberg_polish(system, Z0, iters=80, stop=1e-26):
    """Batched damped Gauss-Newton; accepted steps never raise the cost.

    Seeds leave the active set once they converge (cost at most ``stop``)
    or stall (damping at its cap), so late iterations only touch
    stragglers.  A seed whose damped normal matrix is singular takes no
    step and has its damping raised; the other seeds step as usual.
    """
    Z = Z0.copy()
    F = system.residual(Z)
    cost = np.einsum("ze,ze->z", F, F)
    nvar = Z.shape[1]
    mu = np.full(Z.shape[0], 1e-4)
    eye = np.eye(nvar)
    live = np.flatnonzero(cost > stop)
    for _ in range(iters):
        if live.size == 0:
            break
        Zl, Fl, mul = Z[live], F[live], mu[live]
        J = system.jacobian(Zl)
        grad = np.einsum("zev,ze->zv", J, Fl)
        H = np.einsum("zev,zew->zvw", J, J)
        lhs = H + mul[:, None, None] * eye
        try:
            step = np.linalg.solve(lhs, grad[..., None])[..., 0]
        except np.linalg.LinAlgError:
            step = _solve_each(lhs, grad)
        better = np.zeros(live.size, dtype=bool)
        if step is not None:
            # a seed without a step (NaN) gets a NaN cost, never accepted
            Zt = Zl - step
            Ft = system.residual(Zt)
            cost_t = np.einsum("ze,ze->z", Ft, Ft)
            better = np.isfinite(cost_t) & (cost_t < cost[live])
            hit = live[better]
            Z[hit] = Zt[better]
            F[hit] = Ft[better]
            cost[hit] = cost_t[better]
        mu[live] = np.where(
            better, np.maximum(mul * 0.33, 1e-14), np.minimum(mul * 10.0, 1e12)
        )
        live = live[(cost[live] > stop) & (mu[live] < 1e11)]
    return Z, cost
