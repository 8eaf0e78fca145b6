"""The shared sign-orbit rules keep what each caller's own rules kept.

The solvers and the grid oracle each wrote their orientation and dedup
before both called ``_orbit``; those forms are kept in
``reference_kernels``.  ``canonicalize`` must pick the same orbit members
and ``greedy_dedup`` keep the same rows, byte for byte, on planted
near-duplicates, keys on cell edges, non-finite rows, a continuum and the
sign parity of every order.  The import checks keep ``_orbit`` numpy-only
and its tolerance the only one in the package.
"""

import ast
import pathlib
import re

import numpy as np
import pytest

from lptensor import _orbit, _polish
from lptensor._polish import Candidate
from reference_kernels import (
    _value_batched,
    ref_leading_negative,
    ref_leading_signs,
    ref_oracle_canonical,
    ref_oracle_dedup_loop,
    ref_orbit_key,
    ref_solver_dedup,
)

SRC = pathlib.Path(_orbit.__file__).parent
TOL = _orbit.DEDUP_TOL


def rows_bytes(rows):
    return [np.asarray(row).tobytes() for row in rows]


def assert_same_rows(keys):
    """``greedy_dedup`` keeps the rows the oracle's loop kept; returns them."""
    kept = keys[_orbit.greedy_dedup(keys)]
    with np.errstate(invalid="ignore"):
        want = ref_oracle_dedup_loop(keys)
    assert rows_bytes(kept) == rows_bytes(want)
    return kept


class TestGreedyDedup:
    @pytest.mark.parametrize("gap", [0.5e-6, 1e-6, 2e-6])
    def test_planted_near_duplicates(self, gap):
        rng = np.random.default_rng(151)
        base = rng.standard_normal((200, 5))
        near = base[:120].copy()
        near[np.arange(120), rng.integers(0, 5, size=120)] += rng.choice([-gap, gap], size=120)
        keys = np.concatenate([base, near])[rng.permutation(320)]
        kept = assert_same_rows(keys)
        assert len(kept) == {0.5e-6: 200, 2e-6: 320}.get(gap, len(kept))

    def test_only_kept_rows_drop_a_row(self):
        # rows 0.6e-6 apart: every other row lies within tol of a dropped row only
        keys = np.column_stack([np.arange(40) * 0.6e-6, np.zeros(40), np.ones(40)])
        assert len(assert_same_rows(keys)) == 20
        assert len(assert_same_rows(keys[::-1].copy())) == 20

    def test_keys_straddling_cell_edges(self):
        rng = np.random.default_rng(152)
        width = 2.0 * TOL
        edges = rng.integers(-10**6, 10**6, size=(60, 2)) * width
        offsets = np.array([-0.6, -0.4, -0.1, 0.1, 0.4, 0.6]) * TOL
        shifts = np.array([(a, b) for a in offsets for b in offsets])
        keys = (edges[:, None, :] + shifts[None, :, :]).reshape(-1, 2)
        # every edge point's rows fall in the 4 cells around it
        assert len(np.unique(np.floor(keys / width), axis=0)) == 4 * 60
        kept = assert_same_rows(keys[rng.permutation(len(keys))])
        # fewer rows than cells are kept: rows matched across cell edges
        assert 60 <= len(kept) < 4 * 60

    def test_huge_keys_are_clipped_into_the_edge_cells(self):
        keys = np.array(
            [
                [1e300, 0.0, 0.0],
                [1e300, 0.5e-6, 0.0],
                [-1e300, 0.0, 0.0],
                [-1e300, 0.0, 0.5e-6],
                [1e20, 0.0, 0.0],
                [1e20, 0.0, 0.3e-6],
            ]
        )
        assert len(assert_same_rows(keys)) == 3

    def test_non_finite_rows_are_kept_and_never_match(self):
        rng = np.random.default_rng(153)
        base = rng.standard_normal((30, 4))
        bad = base[:12].copy()
        bad[np.arange(12), rng.integers(0, 4, size=12)] = rng.choice(
            [np.nan, np.inf, -np.inf], size=12
        )
        keys = np.concatenate([base, bad, bad, base[:10] + 0.5e-6])
        kept = assert_same_rows(keys[rng.permutation(len(keys))])
        assert sum(not np.isfinite(row).all() for row in kept) == 24
        assert len(kept) == 30 + 24

    def test_constant_value_column(self):
        # a continuum: one value, and points dense on a circle
        rng = np.random.default_rng(154)
        theta = rng.uniform(0.0, 2.0 * np.pi, 4000)
        theta = np.concatenate([theta, theta[:500] + rng.choice([-0.4e-6, 0.4e-6], 500)])
        keys = np.column_stack([np.zeros(theta.size), np.cos(theta), np.sin(theta)])
        kept = assert_same_rows(keys)
        assert len(kept) < 4000

    def test_empty(self):
        assert _orbit.greedy_dedup(np.empty((0, 3))).size == 0


class TestCanonicalize:
    def test_leading_signs_match_both_references(self):
        rng = np.random.default_rng(155)
        X = rng.standard_normal((300, 4))
        X[:50, 0] *= 1e-3  # a small first entry does not pick the sign
        X[50:60, :2] = -0.0
        signs = _orbit.leading_signs(X)
        assert signs.tobytes() == ref_leading_signs(X).tobytes()
        assert (signs < 0).tolist() == [bool(ref_leading_negative(x)) for x in X]

    @pytest.mark.parametrize("order", [2, 3, 4, 5])
    def test_one_block_sign_parity(self, order):
        rng = np.random.default_rng(160 + order)
        arr = rng.standard_normal((3,) * order)
        X = rng.standard_normal((200, 3))
        X[:40, 0] *= 1e-3
        X[40:60, 0] = -0.0
        (Y,), lam = _orbit.canonicalize([X], _value_batched(arr, [X] * order), order)
        (Y_ref,), lam_ref = ref_oracle_canonical(arr, (0,) * order, [X])
        assert Y.tobytes() == Y_ref.tobytes()
        assert lam.tobytes() == lam_ref.tobytes()
        # the negated vectors are the same orbits: lambda picks up (-1)**order
        (Y_neg,), lam_neg = _orbit.canonicalize([-X], _value_batched(arr, [-X] * order), order)
        assert Y_neg.tobytes() == Y.tobytes()
        assert lam_neg.tobytes() == lam.tobytes()

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3, 2), (3, 2, 2, 2)])
    def test_blocks_match_oracle_branch_and_solver_key(self, dims):
        rng = np.random.default_rng(170 + len(dims))
        arr = rng.standard_normal(dims)
        Xs = [rng.standard_normal((150, d)) for d in dims]
        Xs[-1][:30, 0] *= 1e-3
        value = _value_batched(arr, Xs)
        got, lam = _orbit.canonicalize(Xs, value, len(dims))
        want, lam_ref = ref_oracle_canonical(arr, tuple(range(len(dims))), Xs)
        assert rows_bytes(got) == rows_bytes(want)
        assert lam.tobytes() == lam_ref.tobytes()
        assert (lam >= 0).all()
        # the solvers' key, on tuples graded to sigma >= 0 as singular._grade does
        keys = np.column_stack([lam] + got)
        for n in range(value.size):
            blocks = [X[n] for X in Xs]
            if value[n] < 0:
                blocks[0] = -blocks[0]
            pair = Candidate(blocks, abs(value[n]), 0.0)
            assert ref_orbit_key(pair).tobytes() == keys[n].tobytes()


def graded_candidates(rng, dims, count):
    """Candidates as the solvers grade them, with near copies in their orbits.

    Several blocks: sigma >= 0 and copies under even flips.  One block:
    leading-positive vectors, as ``eigen._grade`` leaves them.
    """
    pairs = []
    for _ in range(count):
        blocks = [rng.standard_normal(d) for d in dims]
        value = float(abs(rng.standard_normal()))
        for copy in range(3):
            moved = [b.copy() for b in blocks]
            if copy:
                moved[0][rng.integers(dims[0])] += rng.choice([0.5e-6, -2e-6])
            if len(dims) > 1 and copy == 1:
                other = rng.integers(1, len(dims))
                moved[0], moved[other] = -moved[0], -moved[other]
            if len(dims) == 1 and ref_leading_negative(moved[0]):
                moved[0] = -moved[0]
            pairs.append(Candidate(moved, value, float(rng.uniform(0.0, 1e-12))))
    return [pairs[i] for i in rng.permutation(len(pairs))]


@pytest.mark.parametrize(
    "dims", [(3,), (4,), (3, 3), (2, 3, 2)], ids=["eigen3", "eigen4", "3x3", "2x3x2"]
)
def test_solver_dedup_matches_reference(dims):
    rng = np.random.default_rng(180 + sum(dims))
    pairs = graded_candidates(rng, dims, 40)
    order = 3 if len(dims) == 1 else len(dims)
    got = _polish.dedup(pairs, order)
    want = ref_solver_dedup(pairs)
    assert [id(pair) for pair in got] == [id(pair) for pair in want]
    assert 40 < len(got) < len(pairs)
    assert _polish.dedup([], order) == []


def imports(path):
    """Modules imported by ``path``; package-relative ones as ``lptensor.<name>``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "lptensor." * bool(node.level) + (node.module or "")
            if node.module is None:
                names.update(base + alias.name for alias in node.names)
            else:
                names.add(base)
    return names


class TestImportBoundary:
    def test_orbit_imports_only_numpy(self):
        assert imports(SRC / "_orbit.py") == {"numpy"}

    def test_oracle_imports_neither_the_restart_pipeline_nor_config(self):
        found = imports(SRC / "oracle.py")
        assert not found & {"lptensor._polish", "lptensor.config"}, found

    def test_one_module_assigns_a_dedup_tolerance(self):
        owners = []
        for path in sorted(SRC.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                    targets = [node.target]
                else:
                    continue
                for target in targets:
                    for leaf in ast.walk(target):
                        name = getattr(leaf, "id", None) or getattr(leaf, "attr", None)
                        if isinstance(name, str) and re.search("dedup.*tol", name, re.I):
                            owners.append((path.name, name))
        assert owners == [("_orbit.py", "DEDUP_TOL")]
