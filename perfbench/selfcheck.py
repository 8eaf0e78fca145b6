"""Self-checks of the benchmark itself.

    python3 perfbench/selfcheck.py [--seed 1]

1. Verifier self-test: real results must pass, and corrupted copies of
   them (perturbed sigma or lambda, a dropped top pair, a wrong reducing
   set, a wrong exit code, a Perron value outside its bracket, a wrong
   hyperdeterminant) must each be rejected.
2. Trace coverage: after install no lptensor module attribute may hold
   an unwrapped original; a re-bound original or a traced name that no
   longer exists must raise.
3. Determinism: two traced runs of each workload with the same
   seed must print identical counts (pairs_found, fail_rate, every
   ``*.calls``, polish.newton_steps, perron.power_iterations,
   oracle.seeds, cli.report_bytes).

Exits 1 if any check fails.
"""

import argparse
import dataclasses
import json
import os
import subprocess
import sys

import run  # pins BLAS threads before numpy is imported

lptensor = run.import_library()

import numpy as np  # noqa: E402

import spans  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402

_failures = []


def _expect(name, verdict, state):
    """``state``: "pass", "fail" (counted as a failure) or "short" (a shortfall)."""
    got = "fail" if not verdict.ok else "short" if verdict.shortfall else "pass"
    _report(f"{name}: {verdict}", got == state)


def _run_problem(problem):
    output = problem.run()
    return output, problem.check(output)


def verifier_selftest(seed, workdir):
    multistart = workloads.Workload("multistart", seed, workdir).cycle(0)
    # index 0: 3x3x3 singular, 2: 4x4 matrix, 4: symmetric 4^3, 6: mode eigen
    cube, matrix, sym, mode = (multistart[i] for i in (0, 2, 4, 6))
    for problem in (cube, matrix, sym, mode):
        pairs, verdict = _run_problem(problem)
        _expect(f"{problem.label} as returned", verdict, "pass")
        first = pairs[0]
        if problem.solver == "singular":
            bumped = dataclasses.replace(first, sigma=first.sigma * (1 + 1e-4))
        else:
            bumped = dataclasses.replace(first, lam=first.lam * (1 + 1e-4) + 1e-4)
        _expect(f"{problem.label} perturbed value", problem.check([bumped] + pairs[1:]), "fail")
        if problem.solver == "singular":
            vecs = (first.vectors[0] * 1.01,) + tuple(first.vectors[1:])
            stretched = dataclasses.replace(first, vectors=vecs)
        else:
            stretched = dataclasses.replace(first, vector=first.vector * 1.01)
        _expect(f"{problem.label} non-unit vector", problem.check([stretched] + pairs[1:]), "fail")
        if problem is matrix:
            _expect("matrix top pair dropped", problem.check(pairs[1:]), "short")
        _expect(f"{problem.label} empty result", problem.check([]), "short")

    # order-2 symmetric eigenproblem against np.linalg.eigh
    rng = np.random.default_rng([seed, 31])
    M = rng.standard_normal((4, 4))
    M = M + M.T
    pairs = lptensor.solve_symmetric_eigenpairs(lptensor.DenseTensor.from_array(M), 2)
    items = [(pair.vector, pair.lam) for pair in pairs]
    _expect("symmetric matrix vs eigh", verify.eigen_pairs(M, 2, 0, items, rng, True), "pass")
    items[0] = (items[0][0], items[0][1] + 1e-3)
    _expect("symmetric matrix perturbed eigenvalue",
            verify.eigen_pairs(M, 2, 0, items, rng, True), "fail")
    _expect("symmetric matrix top dropped",
            verify.eigen_pairs(M, 2, 0, [(p.vector, p.lam) for p in pairs[1:]], rng, True), "short")

    cli = workloads.Workload("perron-check", seed, workdir).cycle(0)
    # the first planted-reducible and the first irreducible file: check, perron
    planted = [p for p in cli if p.group == "planted"]
    irreducible = [p for p in cli if p.group == "irreducible"]
    planted_check, planted_perron = planted[:2]
    irr_check, irr_perron = irreducible[:2]
    for problem in (planted_check, planted_perron, irr_check, irr_perron):
        output, verdict = _run_problem(problem)
        _expect(f"{problem.label} as returned", verdict, "pass")
    code, stdout = planted_check.run()
    report = json.loads(stdout)
    report["results"][0]["reducing_set"] = [1 + len(report["results"][0]["reducing_set"])]
    _expect("check wrong reducing set", planted_check.check((code, json.dumps(report))), "fail")
    code, stdout = irr_check.run()
    report = json.loads(stdout)
    report["results"][0]["reducing_set"] = [1]
    report["results"][0]["irreducible"] = False
    _expect("check irreducible reported reducible",
            irr_check.check((code, json.dumps(report))), "fail")
    _expect("perron reducible with exit 0", planted_perron.check((0, "")), "fail")
    code, stdout = irr_perron.run()
    _expect("perron irreducible with exit 3", irr_perron.check((3, stdout)), "fail")
    _expect("check with exit 2", irr_check.check((2, irr_check.run()[1])), "fail")
    report = json.loads(stdout)
    entry = report["results"][0]
    entry["lambda"] = entry["upper"] * (1 + 1e-6)
    _expect("perron lambda outside bracket", irr_perron.check((code, json.dumps(report))), "fail")
    report = json.loads(stdout)
    report["results"][0]["lambda"] *= 1 + 1e-6
    report["results"][0]["upper"] *= 1 + 1e-5
    _expect("perron bracket widened", irr_perron.check((code, json.dumps(report))), "fail")

    oracle = workloads.Workload("oracle-grid", seed, workdir).cycle(0)
    grid = oracle[0]  # 2x2x2 at p = 2, with the hyperdeterminant
    (points, det), verdict = _run_problem(grid)
    _expect(f"{grid.label} as returned", verdict, "pass")
    moved = [dataclasses.replace(points[0], value=points[0].value * (1 + 1e-4))] + points[1:]
    _expect("oracle perturbed value", grid.check((moved, det)), "fail")
    _expect("oracle hyperdet zero without a zero value", grid.check((points, 0.0)), "fail")
    grid.planted = "rank-one"
    _expect("oracle random tensor claimed planted", grid.check((points, det)), "fail")


def trace_coverage():
    original = lptensor.core.partial_contraction
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = [
            lptensor.singular.partial_contraction is not original,
            lptensor.eigen.partial_contraction is not original,
            lptensor.perron.partial_contraction is not original,
            lptensor.partial_contraction is not original,
        ]
        _report("every binding of partial_contraction is wrapped", all(wrapped))
        wrapper = lptensor.eigen.partial_contraction
        lptensor.eigen.partial_contraction = original
        try:
            tracer.check_coverage()
            _report("a re-bound original is detected", False)
        except spans.TraceCoverageError as exc:
            _report(f"a re-bound original is detected ({exc})", True)
        lptensor.eigen.partial_contraction = wrapper
    finally:
        tracer.uninstall()
    _report("uninstall restores the originals", lptensor.eigen.partial_contraction is original)
    try:
        spans.Tracer().install({"lptensor.core": {"no_such_function": "core.other"}})
        _report("a missing traced name is detected", False)
    except spans.TraceCoverageError as exc:
        _report(f"a missing traced name is detected ({exc})", True)


def _report(name, passed):
    print(f"{'ok  ' if passed else 'FAIL'} {name}")
    if not passed:
        _failures.append(name)


def determinism(seed):
    here = os.path.dirname(os.path.abspath(__file__))
    for name in workloads.WORKLOADS:
        counts = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, os.path.join(here, "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                capture_output=True, text=True, check=True,
            )
            line = next(l for l in proc.stdout.splitlines() if l.startswith("counts: "))
            counts.append(json.loads(line[len("counts: "):]))
        _report(f"{name} seed {seed} counts repeat exactly: {counts[0]}", counts[0] == counts[1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    with run.private_workdir(f"selfcheck-{os.getpid()}") as workdir:
        verifier_selftest(args.seed, workdir)
    trace_coverage()
    determinism(args.seed)
    if _failures:
        print(f"{len(_failures)} self-check(s) failed")
        return 1
    print("all self-checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
