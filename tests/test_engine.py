"""Restart independence of the batched restart engine.

``SolverConfig`` promises that results do not depend on the order the
restarts run in.  The engine runs every restart in one batch, so each
seed must give the same pairs, byte for byte, whether it is polished and
ascended alone or among 32 others, and a smaller restart budget must find
a subset of what a larger one finds.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from lptensor import (
    DenseTensor,
    SolverConfig,
    eigen,
    singular,
    solve_singular_pairs,
    solve_symmetric_eigenpairs,
    symmetrize,
)
from lptensor._polish import draw_starts, restart_pairs
from lptensor._restart import unit_scale
from lptensor.core import Layout

SRC = Path(__file__).resolve().parents[1] / "src" / "lptensor"


def tensor(seed, dims, symmetric=False):
    t = DenseTensor.from_array(np.random.default_rng(seed).standard_normal(dims))
    return symmetrize(t) if symmetric else t


# (tensor, layout, solver module whose _grade and _ascend run)
CASES = {
    "singular-3x3x3-p2": (
        lambda: tensor(400, (3, 3, 3)), Layout.singular((2, 2, 2)), singular),
    "singular-2x3x4-p3": (
        lambda: tensor(401, (2, 3, 4)), Layout.singular((3, 3, 3)), singular),
    "symmetric-3^4-p4": (
        lambda: tensor(402, (3, 3, 3, 3), symmetric=True), Layout.eigen(4, 4, 0), eigen),
    "mode1-3^3-p3": (lambda: tensor(403, (3, 3, 3)), Layout.eigen(3, 3, 1), eigen),
}


def candidate_bytes(pair):
    if pair is None:
        return None
    scalars = np.array([pair.value, pair.residual]).tobytes()
    return [x.tobytes() for x in pair.blocks], scalars


def run(label, restarts, rows=None):
    make, layout, solver = CASES[label]
    A, _ = unit_scale(make())
    config = SolverConfig(restarts=restarts, seed=5)
    starts = draw_starts(layout, layout.block_dims(A.dims), config)
    if rows is not None:
        starts = [S[rows] for S in starts]
    found, ends, errors = restart_pairs(A, layout, solver._grade, solver._ascend, starts, config)
    assert not errors
    found = [[candidate_bytes(p) for p in seed] for seed in found]
    return starts, found, [candidate_bytes(p) for p in ends]


@pytest.mark.parametrize("label", sorted(CASES))
def test_each_seed_gives_the_same_bytes_alone_and_in_a_batch_of_32(label):
    _, found, ends = run(label, 32)
    assert any(found), "the case must converge somewhere to compare"
    for r in range(32):
        _, alone, alone_ends = run(label, 32, rows=[r])
        assert alone == [found[r]] and alone_ends == [ends[r]], r


@pytest.mark.parametrize("label", sorted(CASES))
def test_four_restarts_find_a_subset_of_what_32_find(label):
    starts4, found4, ends4 = run(label, 4)
    starts32, found32, ends32 = run(label, 32)
    for S4, S32 in zip(starts4, starts32):
        assert S4.tobytes() == S32[:4].tobytes()
    assert found4 == found32[:4] and ends4 == ends32[:4]


def test_public_values_at_four_restarts_lie_among_those_at_32():
    A = tensor(404, (3, 3, 3))
    few = [p.sigma for p in solve_singular_pairs(A, 2, SolverConfig(restarts=4, seed=6))]
    many = np.array([p.sigma for p in solve_singular_pairs(A, 2, SolverConfig(seed=6))])
    assert few and all(np.abs(many - s).min() <= 1e-12 for s in few)
    S = tensor(405, (3, 3, 3), symmetric=True)
    few = [p.lam for p in solve_symmetric_eigenpairs(S, 3, SolverConfig(restarts=4, seed=6))]
    many = np.array([p.lam for p in solve_symmetric_eigenpairs(S, 3, SolverConfig(seed=6))])
    assert few and all(np.abs(many - lam).min() <= 1e-12 for lam in few)


def test_one_module_holds_the_batched_system_and_imports_only_numpy():
    owners = sorted(
        (path.name, node.name)
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef))
        and node.name in ("_System", "_levenberg_polish", "_contract_batched")
    )
    assert owners == [
        ("_system.py", "_System"), ("_system.py", "_contract_batched"),
        ("_system.py", "_levenberg_polish"),
    ]
    tree = ast.parse((SRC / "_system.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    assert imported == {"numpy"}
    assert not any(isinstance(node, ast.ImportFrom) for node in ast.walk(tree))
