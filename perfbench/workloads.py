"""Seeded inputs for the three workloads and the calls they make.

A workload is an endless stream of problems.  Problem ``i`` depends only
on ``(seed, i)``, and the stream is cut into cycles of a fixed length
with a fixed make-up (shape, exponent, scale, planted structure).  A run
times a whole number of cycles, fixed by ``--seconds`` and the share
below, so its operations are the same whatever the speed of the code.
The traced run uses the first cycle.  No input repeats within a run, so
a result cache inside the library could not shorten it.

The multistart and oracle-grid tensors are a fixed base tensor per stream
index, drawn from ``_BASE_SEED``, that the seed moves to a random
orientation: an orthogonal matrix per mode at p = 2, a signed
permutation otherwise (one shared transform for symmetric input).  Both
maps carry critical points to critical points with the same values, so
every seed poses the same problems in new coordinates, with new restart
seeds.  Drawing fresh random tensors instead makes the cost of one
solver call vary tenfold between seeds, which no run of a few dozen
calls can average out.  The perron-check inputs are drawn fresh per
seed: their cost is set by n and by the planted structure.

Each problem calls the library only through attributes of the
``lptensor`` package and ``lptensor.cli`` looked up at call time, so the
tracer's wrappers see every call.
"""

import contextlib
import io
import json
import os

import numpy as np

import lptensor
import lptensor.cli

import verify

# multistart: (solver, dims, p); mode eigenpairs use one-based mode 2
_MULTISTART_CLASSES = (
    ("singular", (3, 3, 3), 2),
    ("singular", (2, 3, 4), 3),
    ("singular", (4, 4), 2),
    ("singular", (5, 5), 2),
    ("symmetric", (4, 4, 4), 2),
    ("symmetric", (3, 3, 3, 3), 4),
    ("mode", (3, 3, 3), 3),
)
# Scale of problem i is slot i mod 4.  With 7 classes and 4 slots, a cycle
# of 14 gives every class one unscaled and one rescaled tensor, and which
# classes get 1e-3 and which 1e3 swaps from one cycle to the next.
_MULTISTART_SCALES = (1.0, 1e-3, 1.0, 1e3)

# oracle-grid: (label, dims, p, kind, resolution); "planted" is a 2x2x2
# tensor with a zero hyperdeterminant, its kind rotating per cycle.  The
# two slowest slots (planted, 223) sit in different halves, so a run that
# stops mid-cycle keeps close to the cycle's average cost per operation.
_ORACLE_SLOTS = (
    ("222-p2", (2, 2, 2), 2, "singular", 20),
    ("222-p3", (2, 2, 2), 3, "singular", 20),
    ("planted", (2, 2, 2), 2, "singular", 20),
    ("sym333-p3", (3, 3, 3), 3, "eigen", 40),
    ("222-p2", (2, 2, 2), 2, "singular", 20),
    ("223-p2", (2, 2, 3), 2, "singular", 12),
    ("sym333-p3", (3, 3, 3), 3, "eigen", 40),
    ("222-p3", (2, 2, 2), 3, "singular", 20),
)
_PLANTED_KINDS = ("rank-one", "proportional", "zero-slice")

# perron-check: file slots, repeated twice per 18-file cycle; each file
# gets `check` and then `perron`.  2/3 fast inputs (1/9 planted-reducible,
# 5/9 small positive), 1/3 irreducible with n = 10, 12, 14.  Planted files
# are few because both their calls exit early, like the `check` of a
# positive file: with more of them the median would slide out of the
# positive files' power iterations into the early exits.
_PERRON_SLOTS = (
    "positive", "irreducible", "positive", "planted", "positive",
    "irreducible", "positive", "positive", "irreducible",
)
_PERRON_CYCLE_FILES = 18
_IRREDUCIBLE_N = (10, 12, 14)
_CLI_TOL = 1e-10
# Seconds of --seconds that one cycle is worth: a run of --seconds S times
# round(S / share) cycles, at least one.  Every workload gets the same S,
# so this is where the run time is shared out (README.md gives the times
# on the reference host).  Multistart, whose few long calls spread most on
# a shared host, gets four cycles at S = 40, about 70 s; oracle-grid four,
# about 35 s; perron-check, whose hundreds of short calls need the least
# time, eight, about 23 s.  Constants, never measured during the run, so
# two versions of the code are compared on the same operations and ranks.
_SECONDS_PER_CYCLE = {"multistart": 10.0, "oracle-grid": 10.0, "perron-check": 5.0}
# a multiple of every cycle and slot period, far past any run
_WARMUP = 504 * 2**20


_BASE_SEED = 0


def _rng(seed, *key):
    return np.random.default_rng([seed, *key])


def _base(index, dims):
    return _rng(_BASE_SEED, index).standard_normal(dims)


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _signed_permutation(rng, n):
    return np.eye(n)[rng.permutation(n)] * rng.choice((-1.0, 1.0), size=n)


def _reorient(arr, mats):
    """Multiply mode i of ``arr`` by ``mats[i]``."""
    for i, M in enumerate(mats):
        arr = np.moveaxis(np.tensordot(M, arr, axes=([1], [i])), 0, i)
    return arr


def _transforms(rng, dims, p, shared=False):
    draw = _orthogonal if p == 2 else _signed_permutation
    if shared:
        return [draw(rng, dims[0])] * len(dims)
    return [draw(rng, d) for d in dims]


def _verifier_rng(seed, index):
    # separate stream so the verifier's samples never touch the inputs
    return _rng(seed, index, 7919)


# Every problem class has ``label`` (its input kind), ``group`` (its share
# of the mix), ``run()`` (the timed library call) and ``check(output)``
# (the verdict of verify.py).


class MultistartProblem:
    def __init__(self, seed, index):
        solver, dims, p = _MULTISTART_CLASSES[index % len(_MULTISTART_CLASSES)]
        scale = _MULTISTART_SCALES[index % len(_MULTISTART_SCALES)]
        rng = _rng(seed, index)
        shared = solver != "singular"
        arr = _reorient(_base(index, dims), _transforms(rng, dims, p, shared))
        if solver == "symmetric":
            # an orthogonal change of basis is symmetric only up to rounding
            arr = lptensor.symmetrize(lptensor.DenseTensor.from_array(arr)).array
        self.tensor = lptensor.DenseTensor.from_array(arr * scale)
        self.config = lptensor.SolverConfig(seed=int(rng.integers(2**31)))
        self.solver, self.p, self.scale = solver, p, scale
        self.label = f"{solver}{'x'.join(map(str, dims))}-p{p}@{scale:g}"
        self.group = f"scale {scale:g}"
        self.vrng_key = (seed, index)

    def run(self):
        A, p, config = self.tensor, self.p, self.config
        if self.solver == "singular":
            return lptensor.solve_singular_pairs(A, p, config)
        if self.solver == "symmetric":
            return lptensor.solve_symmetric_eigenpairs(A, p, config)
        return lptensor.solve_mode_eigenpairs(A, 1, p, config)

    def check(self, output):
        rng = _verifier_rng(*self.vrng_key)
        arr = self.tensor.array
        if self.solver == "singular":
            pairs = [(pair.vectors, pair.sigma) for pair in output]
            return verify.singular_pairs(arr, [self.p] * arr.ndim, pairs, rng)
        pairs = [(pair.vector, pair.lam) for pair in output]
        mode = 0 if self.solver == "symmetric" else 1
        return verify.eigen_pairs(arr, self.p, mode, pairs, rng, self.solver == "symmetric")


class OracleProblem:
    def __init__(self, seed, index):
        label, dims, p, kind, resolution = _ORACLE_SLOTS[index % len(_ORACLE_SLOTS)]
        rng = _rng(seed, index)
        self.planted = None
        if label == "planted":
            self.planted = _PLANTED_KINDS[(index // len(_ORACLE_SLOTS)) % len(_PLANTED_KINDS)]
            base = _planted_zero_hyperdet(_rng(_BASE_SEED, index), self.planted)
            # mode 1 only by signed permutation, which keeps a zero slice zero
            mats = [_signed_permutation(rng, 2), _orthogonal(rng, 2), _orthogonal(rng, 2)]
            arr = _reorient(base, mats)
            label = f"planted-{self.planted}"
        elif kind == "eigen":
            arr = _reorient(_base(index, dims), _transforms(rng, dims, p, shared=True))
            arr = lptensor.symmetrize(lptensor.DenseTensor.from_array(arr)).array
        else:
            arr = _reorient(_base(index, dims), _transforms(rng, dims, p))
        self.tensor = lptensor.DenseTensor.from_array(arr)
        self.p, self.kind, self.resolution = p, kind, resolution
        self.hyperdet = dims == (2, 2, 2) and p == 2
        self.label = self.group = label
        self.vrng_key = (seed, index)

    def run(self):
        points = lptensor.enumerate_critical_points(
            self.tensor, self.p, kind=self.kind, resolution=self.resolution
        )
        det = lptensor.hyperdet_222(self.tensor) if self.hyperdet else None
        return points, det

    def check(self, output):
        points, det = output
        arr = self.tensor.array
        ps = [self.p] if self.kind == "eigen" else [self.p] * arr.ndim
        return verify.critical_points(
            arr,
            ps,
            self.kind,
            0,
            [(point.vectors, point.value) for point in points],
            _verifier_rng(*self.vrng_key),
            det=det,
            planted_zero=None if det is None else self.planted is not None,
        )


def _planted_zero_hyperdet(rng, kind):
    if kind == "rank-one":
        a, b, c = (rng.standard_normal(2) for _ in range(3))
        return np.einsum("i,j,k->ijk", a, b, c)
    M = rng.standard_normal((2, 2))
    if kind == "proportional":
        return np.stack([rng.standard_normal() * M, M])
    return np.stack([np.zeros((2, 2)), M])


class CliProblem:
    """One `lptensor check` or `lptensor perron` call on a written file."""

    def __init__(self, path, command, arr, group, expected_set):
        self.path, self.command, self.arr = path, command, arr
        self.group = group
        self.expected_set = expected_set
        self.label = f"{command}:{group}{arr.shape[0]}"

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lptensor.cli.main([self.command, self.path])
        return code, out.getvalue()

    def check(self, output):
        code, stdout = output
        if self.command == "check":
            return verify.cli_check(code, stdout, self.expected_set)
        expected_code = 0 if self.expected_set is None else 4
        return verify.cli_perron(code, stdout, self.arr, expected_code, _CLI_TOL)


def _perron_file(seed, index):
    """(slot group, array, one-based planted set or None) of file ``index``."""
    slot = _PERRON_SLOTS[index % len(_PERRON_SLOTS)]
    rng = _rng(seed, index)
    if slot == "planted":
        n = 5 + (index // len(_PERRON_SLOTS)) % 4
        size = 1 + (index // len(_PERRON_SLOTS)) % 2
        subset = np.sort(rng.choice(n, size=size, replace=False))
        outside = np.setdiff1d(np.arange(n), subset)
        arr = rng.uniform(0.1, 1.0, (n, n, n))
        # every entry outside the zeroed block stays positive, which makes
        # the planted set the only reducing set
        arr[np.ix_(outside, subset, subset)] = 0.0
        return slot, arr, [int(i) + 1 for i in subset]
    if slot == "positive":
        n = 4 + index % 2
    else:
        n = _IRREDUCIBLE_N[_PERRON_SLOTS[: index % len(_PERRON_SLOTS)].count("irreducible")]
    return slot, rng.uniform(0.1, 1.0, (n, n, n)), None


class Workload:
    """Problem stream of one workload, cut into cycles of ``cycle_len``."""

    def __init__(self, name, seed, workdir):
        self.name, self.seed, self.workdir = name, seed, workdir
        if name == "multistart":
            self.cycle_len = 2 * len(_MULTISTART_CLASSES)
        elif name == "oracle-grid":
            self.cycle_len = len(_ORACLE_SLOTS)
        else:
            self.cycle_len = 2 * _PERRON_CYCLE_FILES

    def cycles(self, seconds):
        """Number of cycles a run of ``seconds`` times."""
        return max(1, round(seconds / _SECONDS_PER_CYCLE[self.name]))

    def cycle(self, number):
        """Build the inputs of cycle ``number``; returns its problems."""
        first = number * self.cycle_len
        if self.name == "multistart":
            return [MultistartProblem(self.seed, i) for i in range(first, first + self.cycle_len)]
        if self.name == "oracle-grid":
            return [OracleProblem(self.seed, i) for i in range(first, first + self.cycle_len)]
        problems = []
        for j in range(first // 2, (first + self.cycle_len) // 2):
            problems.extend(self._cli_pair(j))
        return problems

    def warmup(self):
        """One cheap problem far past any run, timed as set-up."""
        if self.name == "multistart":
            return MultistartProblem(self.seed, _WARMUP + 2)  # unscaled 4x4 matrix
        if self.name == "oracle-grid":
            return OracleProblem(self.seed, _WARMUP + 3)  # symmetric 3x3x3
        return self._cli_pair(_WARMUP // 2)[0]  # `check` of a small positive file

    def _cli_pair(self, index):
        group, arr, planted = _perron_file(self.seed, index)
        path = os.path.join(self.workdir, f"tensor-{index}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(lptensor.DenseTensor.from_array(arr).to_json_dict(), handle)
        return [
            CliProblem(path, "check", arr, group, planted),
            CliProblem(path, "perron", arr, group, planted),
        ]


WORKLOADS = ("multistart", "oracle-grid", "perron-check")
