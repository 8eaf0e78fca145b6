"""The restart solvers find the same pairs, bit for bit, on the reference kernels.

The library's contraction, power and norm kernels skip numpy's generic
wrappers but make the same floating-point operations in the same order.
Running each solver once as shipped and once with the earlier kernels
bound in (``reference_kernels``) must give byte-identical pairs.
"""

import dataclasses

import numpy as np
import pytest

from lptensor import (
    DenseTensor,
    SolverConfig,
    solve_mode_eigenpairs,
    solve_singular_pairs,
    solve_symmetric_eigenpairs,
    symmetrize,
)
from reference_kernels import install_references


def field_bytes(value):
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, tuple):
        return tuple(field_bytes(v) for v in value)
    if isinstance(value, float):
        return np.float64(value).tobytes()
    return value


def pair_bytes(pairs):
    return [
        {f.name: field_bytes(getattr(pair, f.name)) for f in dataclasses.fields(pair)}
        for pair in pairs
    ]


def tensor(seed, dims, symmetric=False):
    t = DenseTensor.from_array(np.random.default_rng(seed).standard_normal(dims))
    return symmetrize(t) if symmetric else t


CONFIG = SolverConfig(restarts=4, seed=3)

CASES = {
    "singular-3x3x3-p2": lambda: solve_singular_pairs(tensor(40, (3, 3, 3)), 2, CONFIG),
    "singular-2x3x4-p3": lambda: solve_singular_pairs(tensor(41, (2, 3, 4)), 3, CONFIG),
    "symmetric-3^4-p4": lambda: solve_symmetric_eigenpairs(
        tensor(42, (3, 3, 3, 3), symmetric=True), 4, CONFIG
    ),
    "mode1-3^3-p3": lambda: solve_mode_eigenpairs(tensor(43, (3, 3, 3)), 1, 3, CONFIG),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_pairs_match_reference_kernels(case, monkeypatch):
    shipped = CASES[case]()
    assert shipped, "the case must find at least one pair to compare"
    with monkeypatch.context() as patch:
        install_references(patch)
        reference = CASES[case]()
    assert pair_bytes(shipped) == pair_bytes(reference)
