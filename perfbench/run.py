"""Run one lptensor benchmark workload and print its metrics.

    python3 perfbench/run.py --workload multistart --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout: the library is imported from
``src/`` there, never from an installed copy.  One process, one caller,
closed loop: each operation starts when the previous one has returned.
Only set-up is also timed in two fresh interpreters, one after the other,
before the timed loop starts.

With ``--trace 0`` the run times a fixed number of cycles of fresh
inputs, set by ``--seconds`` and the workload's share of it, and prints
the end-to-end metrics.  The count depends on ``--seconds`` alone, never
on the clock, so a faster or slower version of the library is measured
on the same operations.  With
``--trace 1`` it runs the first cycle once untraced and once with spans
around every public lptensor function, and prints the per-layer metrics
and the tracing overhead.  Either way the last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines above
it repeat every metric by name with its unit and direction.  Outputs are
checked by ``verify.py`` outside the timed region.  See README.md here.
"""

import os
import sys

# Pin BLAS/OpenMP pools to one thread before anything imports numpy.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# numpy asks for transparent huge pages on large arrays; whether the kernel
# grants them depends on the host's free memory, which made the peak RSS of
# one input set jump by 10% between runs.  Small pages keep it repeatable.
os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".perfbench_work")
TAIL_BEYOND = 10
# set-up runs once in this process and again in fresh interpreters, one at
# a time before the timed loop; setup_s is the median, so one slow moment
# of a shared host does not decide it, while every run still pays the
# import and all one-time costs
SETUP_RUNS = 3

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("latency_p50_s", "s", "lower"),
    ("latency_tail_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("fail_rate", "ratio", "lower"),
    ("pairs_found", "count", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)
# fail_rate is printed by name but kept out of the JSON metrics: it is 0
# on a healthy run, and the JSON line carries it as failed / attempted.
JSON_END_TO_END = tuple(name for name, _, _ in END_TO_END if name != "fail_rate")
# per-layer counts, besides every *.calls, that must repeat exactly for a seed
DETERMINISTIC_COUNTS = (
    "polish.newton_steps", "perron.power_iterations", "oracle.seeds", "cli.report_bytes",
)


def set_up(name, seed, workdir):
    """Import the library, build the first cycle's inputs and warm up once.

    Returns the library, the workload, its first cycle and the seconds the
    three steps took.
    """
    start = time.perf_counter()
    lptensor = import_library()
    import workloads

    import_s = time.perf_counter() - start
    workload = workloads.Workload(name, seed, workdir)
    start = time.perf_counter()
    first = workload.cycle(0)
    inputs_s = time.perf_counter() - start
    start = time.perf_counter()
    workload.warmup().run()
    warmup_s = time.perf_counter() - start
    return lptensor, workload, first, (import_s, inputs_s, warmup_s)


def fresh_setup_s(name, seed):
    """Seconds the same set-up takes in a new interpreter, import included."""
    code = "import sys, run; print(run.setup_s_in_child(sys.argv[1], int(sys.argv[2])))"
    proc = subprocess.run(
        [sys.executable, "-B", "-c", code, name, str(seed)],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": HERE},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(proc.stdout.split()[-1])


def setup_s_in_child(name, seed):
    with private_workdir(f"setup-{os.getpid()}") as workdir:
        return sum(set_up(name, seed, workdir)[3])


def import_library():
    init = os.path.join(SRC, "lptensor", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"error: {init} not found; run from the root of a lptensor checkout")
    sys.path.insert(0, SRC)
    import lptensor

    if os.path.realpath(lptensor.__file__) != os.path.realpath(init):
        raise SystemExit(f"error: imported lptensor from {lptensor.__file__}, not {init}")
    return lptensor


@contextlib.contextmanager
def private_workdir(name):
    """A scratch directory under the checkout, removed on exit."""
    path = os.path.join(WORKDIR, name)
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(WORKDIR)
        except OSError:
            pass  # another run still owns a directory there


class Record:
    """One timed operation: its problem, output or error, and latency."""

    __slots__ = ("problem", "cycle", "output", "error", "latency", "verdict")

    def __init__(self, problem, cycle):
        self.problem, self.cycle = problem, cycle
        self.output = self.error = self.verdict = None
        self.latency = 0.0


def _call(problem, cycle):
    record = Record(problem, cycle)
    start = time.perf_counter()
    try:
        record.output = problem.run()
    except Exception as exc:  # a failing operation is counted, not fatal
        record.error = f"{type(exc).__name__}: {exc}"
    record.latency = time.perf_counter() - start
    return record


def _verify(records):
    import verify

    for record in records:
        if record.error is not None:
            record.verdict = verify.Verdict(False, 0, record.error)
        else:
            record.verdict = record.problem.check(record.output)


def _quantile(values, q):
    """Harrell-Davis estimate of the ``q`` quantile of ``values``.

    A mean of all order statistics, weighted by how likely each is to be
    the quantile (a Beta((n+1)q, (n+1)(1-q)) distribution).  With a few
    dozen samples of mixed cost, a single order statistic jumps when the
    host's speed reorders neighbours across a gap in the costs.  This
    estimate spreads less between runs (README.md) and still rises
    whenever any one operation gets slower.
    """
    import numpy as np

    ordered = np.sort(values)
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    if n == 1 or b <= 0:
        return float(ordered[-1])
    steps = 1000  # midpoint rule, per order statistic
    t = (np.arange(n * steps) + 0.5) / (n * steps)
    log_density = (a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
    weights = np.exp(log_density - log_density.max()).reshape(n, steps).sum(axis=1)
    return float(weights @ ordered / weights.sum())


def _tail(latencies):
    """Highest percentile with ``TAIL_BEYOND`` samples beyond it, and its value."""
    index = max(len(latencies) - TAIL_BEYOND - 1, 0)
    q = (index + 1) / len(latencies)
    return _quantile(latencies, q), 100.0 * q


def _environment():
    import numpy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        fields = ("name", "version", "openblas configuration")
        blas = {
            key: " ".join(str(deps[key].get(field, "")) for field in fields).strip()
            for key in ("blas", "lapack")
        }
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "madvise_hugepage": numpy._core.multiarray._get_madvise_hugepage(),
    }


def _by_key(items, key):
    groups = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    return groups


def _print_failures(records):
    for record in records:
        where = f"{record.problem.label} (cycle {record.cycle})"
        if not record.verdict.ok:
            print(f"  FAILED {where}: {record.verdict.reason}")
        elif record.verdict.shortfall:
            print(f"  SHORT  {where}: {record.verdict.shortfall}")


def run_untraced(workload, first, setup_s, cycles):
    records = [_call(problem, 0) for problem in first]
    for cycle in range(1, cycles):
        records.extend(_call(problem, cycle) for problem in workload.cycle(cycle))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _verify(records)
    latencies = [record.latency for record in records]
    failed = sum(not record.verdict.ok for record in records)
    tail, tail_pct = _tail(latencies)
    values = {
        "setup_s": setup_s,
        "latency_p50_s": _quantile(latencies, 0.5),
        "latency_tail_s": tail,
        "ops_per_s": len(records) / sum(latencies),
        "fail_rate": failed / len(records),
        "pairs_found": sum(r.verdict.found for r in records if r.verdict.ok),
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "latency_p50_s": f"Harrell-Davis; sample median {statistics.median(latencies):.4f}",
        "latency_tail_s": f"p{tail_pct:.1f} of {len(records)} samples, Harrell-Davis",
        "fail_rate": f"{failed} failed of {len(records)} attempted",
        "pairs_found": f"distinct verified per operation, summed over {len(records)}",
        "ops_per_s": f"{len(records)} ops, {sum(latencies):.3f} s busy",
    }
    for name, unit, better in END_TO_END:
        note = f"; {notes[name]}" if name in notes else ""
        print(f"{name:<15} {values[name]!r:>24} {unit:<6} ({better} is better{note})")
    short = sum(bool(r.verdict.shortfall) for r in records)
    print(f"{'top_missed':<15} {short!r:>24} count  (valid but incomplete results, "
          f"not failures; see SHORT lines)")
    for kind, key in (("group", lambda r: r.problem.group), ("input", lambda r: r.problem.label)):
        for name, members in sorted(_by_key(records, key).items()):
            lat = [r.latency for r in members]
            per_op = sum(r.verdict.found for r in members) / len(members)
            print(
                f"  {kind} {name:<28} n={len(members):<4} median={statistics.median(lat):.4f} s "
                f"max={max(lat):.4f} s pairs/op={per_op:.2f} "
                f"failed={sum(not r.verdict.ok for r in members)} "
                f"top_missed={sum(bool(r.verdict.shortfall) for r in members)}"
            )
    _print_failures(records)
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit, _ in END_TO_END
        if name in JSON_END_TO_END
    }
    return len(records), failed, metrics


def run_traced(first):
    import spans

    reference = [_call(problem, 0) for problem in first]
    tracer = spans.Tracer()
    tracer.install()
    traced = []
    try:
        for problem in first:
            tracer.group = problem.group
            traced.append(_call(problem, 0))
    finally:
        tracer.uninstall()
    _verify(reference)
    _verify(traced)
    for ref, rec in zip(reference, traced):
        if ref.verdict.found != rec.verdict.found and rec.verdict.ok:
            rec.verdict.ok = False
            rec.verdict.reason = "tracing changed the result"
    untraced_s = sum(r.latency for r in reference)
    traced_s = sum(r.latency for r in traced)
    failed = sum(not r.verdict.ok for r in traced)
    layer_metrics = spans.per_layer_metrics(tracer, traced_s, untraced_s)
    deterministic = {
        "pairs_found": sum(r.verdict.found for r in traced if r.verdict.ok),
        "fail_rate": failed / len(traced),
    }
    deterministic.update({
        name: value
        for name, (value, _) in layer_metrics.items()
        if name.endswith(".calls")
        or name in DETERMINISTIC_COUNTS
    })
    print(f"cycle of {len(first)}: untraced {untraced_s:.4f} s, traced {traced_s:.4f} s")
    print("counts: " + json.dumps(deterministic, sort_keys=True))
    for name, (value, unit) in layer_metrics.items():
        print(f"{name:<28} {value!r:>24} {unit}")
    groups = _by_key(traced, lambda r: r.problem.group)
    for group, members in [("all", traced)] + sorted(groups.items()):
        names = None if group == "all" else {group}
        wall = sum(r.latency for r in members)
        shares = "  ".join(
            f"{layer}={tracer.layer('self', layer, names) / wall:.3f}"
            for layer in spans.LAYERS
            if tracer.layer("calls", layer, names)
        )
        print(f"  self-time share, {group} ({wall:.3f} s): {shares}")
    _print_failures(traced)
    metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in layer_metrics.items()}
    return len(traced), failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("multistart", "oracle-grid", "perron-check")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    # exit through the finally clauses, which remove the work directory and
    # stop a set-up child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    with private_workdir(str(os.getpid())) as workdir:
        lptensor, workload, first, parts = set_up(args.workload, args.seed, workdir)
        import_s, inputs_s, warmup_s = parts
        setups = [sum(parts)]
        setups += [fresh_setup_s(args.workload, args.seed) for _ in range(SETUP_RUNS - 1)]
        setup_s = statistics.median(setups)
        print(f"lptensor {lptensor.__version__} benchmark: workload={args.workload} "
              f"seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        print("env: " + json.dumps(_environment(), sort_keys=True))
        groups = _by_key(first, lambda problem: problem.group)
        shares = {g: round(len(members) / len(first), 4) for g, members in sorted(groups.items())}
        cycles = 1 if args.trace else workload.cycles(args.seconds)
        print(f"inputs: {cycles} cycle(s) of {workload.cycle_len}, shares {json.dumps(shares)}")
        print(f"setup: {setup_s:.4f} s, median of {SETUP_RUNS} in fresh interpreters: "
              + ", ".join(f"{value:.4f}" for value in setups)
              + f"; this one = import {import_s:.4f} + inputs {inputs_s:.4f} "
              f"+ warm-up {warmup_s:.4f}")
        if args.trace:
            attempted, failed, metrics = run_traced(first)
        else:
            attempted, failed, metrics = run_untraced(workload, first, setup_s, cycles)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
