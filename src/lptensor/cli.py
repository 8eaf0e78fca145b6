"""Batch command line front end.

Reads tensors from JSON text files of the form
``{"dims": [2, 2, 2], "values": [/* row-major, last index fastest */]}``,
dispatches to the solver modules, and writes a structured report to
stdout.  Reports are deterministic: identical input, flags and seed
produce byte-identical output (wall time goes to stderr).

Exit codes: 0 success, 2 input error, 3 no converged result,
4 precondition violation (reducible input without --force, nonsymmetric
input to the symmetric eigensolver, negative entries for perron).

Mode numbers and index sets are one-based on the command line and in all
messages; the library API underneath counts from zero.
"""

import argparse
import functools
import hashlib
import json
import sys
import time
import warnings

import numpy as np

from .config import SolverConfig
from .core import DenseTensor, is_symmetric, multilinear_eval
from .eigen import solve_mode_eigenpairs, solve_symmetric_eigenpairs
from .errors import (
    DimensionError,
    DomainError,
    LpTensorError,
    ModeError,
    ParameterError,
    ReducibleError,
    SingularPointError,
    SizeLimitError,
    SymmetryError,
    ZeroTensorError,
)
from .oracle import enumerate_critical_points, hyperdet_222
from .perron import find_reducing_set, is_nonnegative, solve_perron
from .pnorm import _integer
from .singular import solve_singular_pairs

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NOT_CONVERGED = 3
EXIT_PRECONDITION = 4

_PRECONDITION_ERRORS = (ReducibleError, SymmetryError, DomainError, ZeroTensorError)
_INPUT_ERRORS = (
    DimensionError,
    ModeError,
    ParameterError,
    SingularPointError,
    SizeLimitError,
)


def _load_tensor(path):
    with open(path, "r", encoding="utf-8") as handle:
        obj = json.load(handle)
    return DenseTensor.from_json_dict(obj)


def _digest(path):
    with open(path, "rb") as handle:
        return "sha256:" + hashlib.sha256(handle.read()).hexdigest()


def _parse_vector(text):
    try:
        return np.array([float(part) for part in text.split(",")])
    except ValueError as exc:
        raise ParameterError(f"could not parse vector {text!r}") from exc


def _parse_p(text, order):
    try:
        values = [_integer(float(part), "--p value") for part in text.split(",")]
    except ValueError as exc:
        raise ParameterError(f"could not parse --p value {text!r}") from exc
    if len(values) == 1:
        return values[0]
    if len(values) != order:
        raise ParameterError(
            f"--p needs one exponent or one per mode ({order}), got {len(values)}"
        )
    return values


def _config_from(args):
    return SolverConfig(
        tol=args.tol, max_iter=args.max_iter, restarts=args.restarts, seed=args.seed
    )


def _config_echo(config, **extra):
    echo = {
        "tol": config.tol,
        "max_iter": config.max_iter,
        "restarts": config.restarts,
        "seed": config.seed,
    }
    echo.update(extra)
    return echo


def _vector_list(x):
    return [float(v) for v in x]


def _print_scalar(value):
    print(f"{value:.17g}")


def _emit(report, fmt):
    if fmt == "structured":
        print(json.dumps(report, indent=2))
        return
    print(f"command: {report['command']}")
    print(f"input: {report['input_digest']}")
    for key, val in report.get("config", {}).items():
        print(f"config.{key}: {val}")
    for line in _text_lines(report.get("results", [])):
        print(line)
    for note in report.get("warnings", []):
        print(f"warning: {note}")


def _text_lines(results):
    lines = []
    for entry in results:
        scalars = []
        vectors = []
        for key, val in entry.items():
            if isinstance(val, list) and val and isinstance(val[0], list):
                vectors.extend((f"{key}{i + 1}", v) for i, v in enumerate(val))
            elif isinstance(val, list):
                vectors.append((key, val))
            elif isinstance(val, float):
                scalars.append(f"{key}={val:.17g}")
            else:
                scalars.append(f"{key}={val}")
        lines.append("  ".join(scalars))
        for name, vec in vectors:
            body = ", ".join(f"{v:.17g}" for v in vec)
            lines.append(f"  {name}: [{body}]")
    return lines


def _run_with_warnings(fn):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn()
    return out, [str(w.message) for w in caught]


def cmd_eval(args):
    tensor = _load_tensor(args.file)
    vectors = [_parse_vector(text) for text in args.vectors]
    _print_scalar(multilinear_eval(tensor, vectors))
    return EXIT_OK


def cmd_hyperdet(args):
    tensor = _load_tensor(args.file)
    _print_scalar(hyperdet_222(tensor))
    return EXIT_OK


def cmd_singular(args):
    tensor = _load_tensor(args.file)
    config = _config_from(args)
    p = _parse_p(args.p, tensor.order)
    pairs, notes = _run_with_warnings(
        lambda: solve_singular_pairs(tensor, p, config)
    )
    report = {
        "command": "singular",
        "input_digest": _digest(args.file),
        "config": _config_echo(config, p=p),
        "results": [
            {
                "sigma": pair.sigma,
                "residual": pair.residual,
                "converged": pair.converged,
                "vectors": [_vector_list(v) for v in pair.vectors],
            }
            for pair in pairs
        ],
        "warnings": notes,
    }
    _emit(report, args.format)
    return EXIT_OK if any(p_.converged for p_ in pairs) else EXIT_NOT_CONVERGED


def cmd_eigen(args):
    tensor = _load_tensor(args.file)
    config = _config_from(args)
    p = _parse_p(args.p, tensor.order)
    if not isinstance(p, int):
        raise ParameterError("eigenpairs use a single --p exponent")
    if args.mode is None:
        pairs, notes = _run_with_warnings(
            lambda: solve_symmetric_eigenpairs(
                tensor, p, config, symmetry_atol=args.symmetry_atol
            )
        )
    else:
        if not 1 <= args.mode <= tensor.order:
            raise ModeError(
                f"--mode must be between 1 and {tensor.order}, got {args.mode}"
            )
        pairs, notes = _run_with_warnings(
            lambda: solve_mode_eigenpairs(tensor, args.mode - 1, p, config)
        )
    report = {
        "command": "eigen",
        "input_digest": _digest(args.file),
        "config": _config_echo(config, p=p, mode=args.mode),
        "results": [
            {
                "lambda": pair.lam,
                "mode": pair.mode + 1,
                "p": pair.p,
                "residual": pair.residual,
                "converged": pair.converged,
                "vector": _vector_list(pair.vector),
            }
            for pair in pairs
        ],
        "warnings": notes,
    }
    _emit(report, args.format)
    return EXIT_OK if any(p_.converged for p_ in pairs) else EXIT_NOT_CONVERGED


def cmd_perron(args):
    tensor = _load_tensor(args.file)
    config = _config_from(args)
    result, notes = _run_with_warnings(
        lambda: solve_perron(tensor, config, force=args.force)
    )
    report = {
        "command": "perron",
        "input_digest": _digest(args.file),
        "config": _config_echo(config, force=args.force),
        "results": [
            {
                "lambda": result.lam,
                "lower": result.lower,
                "upper": result.upper,
                "iterations": result.iterations,
                "residual": result.residual,
                "converged": result.converged,
                "vector": _vector_list(result.vector),
            }
        ],
        "warnings": notes,
    }
    _emit(report, args.format)
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def cmd_check(args):
    tensor = _load_tensor(args.file)
    entry = {
        "dims": list(tensor.dims),
        "symmetric": bool(is_symmetric(tensor)),
        "nonnegative": bool(is_nonnegative(tensor)),
    }
    notes = []
    if tensor.is_cubical():
        reducing = find_reducing_set(tensor)
        entry["reducing_set"] = (
            None if reducing is None else [i + 1 for i in reducing]
        )
        entry["irreducible"] = reducing is None
    else:
        entry["reducing_set"] = None
        entry["irreducible"] = None
        notes.append("reducibility applies to cubical tensors only")
    report = {
        "command": "check",
        "input_digest": _digest(args.file),
        "config": {},
        "results": [entry],
        "warnings": notes,
    }
    _emit(report, args.format)
    return EXIT_OK


def cmd_oracle(args):
    tensor = _load_tensor(args.file)
    p = _parse_p(args.p, tensor.order)
    mode = 0 if args.mode is None else args.mode - 1
    points, notes = _run_with_warnings(
        lambda: enumerate_critical_points(
            tensor, p, kind=args.kind, resolution=args.resolution, mode=mode
        )
    )
    report = {
        "command": "oracle",
        "input_digest": _digest(args.file),
        "config": {
            "p": p,
            "kind": args.kind,
            "resolution": args.resolution,
            "mode": args.mode,
        },
        "results": [
            {
                "value": point.value,
                "kind": point.kind,
                "residual": point.residual,
                "vectors": [_vector_list(v) for v in point.vectors],
            }
            for point in points
        ],
        "warnings": notes,
    }
    _emit(report, args.format)
    return EXIT_OK if points else EXIT_NOT_CONVERGED


def _add_solver_flags(parser):
    # the dataclass keeps each field's default as a class attribute
    parser.add_argument("--tol", type=float, default=SolverConfig.tol, help="residual tolerance")
    parser.add_argument("--max-iter", type=int, default=SolverConfig.max_iter, help="iteration cap")
    parser.add_argument("--restarts", type=int, default=SolverConfig.restarts, help="random restarts")
    parser.add_argument("--seed", type=int, default=SolverConfig.seed, help="seed for the restarts")


def _add_format_flag(parser):
    parser.add_argument(
        "--format",
        choices=("structured", "text"),
        default="structured",
        help="structured JSON (default) or a plain text table",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lptensor",
        description="l^p singular values and eigenvalues of dense real tensors",
        epilog=(
            "Tensor files are JSON objects {\"dims\": [...], \"values\": [...]} "
            "with values row-major, last index fastest.  Modes are one-based "
            "here and in messages (the Python API is zero-based).  Exit codes: "
            "0 ok, 2 input error, 3 nothing converged, 4 precondition violated."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate the multilinear form")
    p_eval.add_argument("file")
    p_eval.add_argument(
        "vectors", nargs="+", help="one comma-separated vector per mode"
    )
    p_eval.set_defaults(handler=cmd_eval)

    p_sing = sub.add_parser("singular", help="l^p singular pairs")
    p_sing.add_argument("file")
    p_sing.add_argument("--p", default="2", help="norm exponent, or comma list per mode")
    _add_solver_flags(p_sing)
    _add_format_flag(p_sing)
    p_sing.set_defaults(handler=cmd_singular)

    p_eig = sub.add_parser("eigen", help="l^p eigenpairs")
    p_eig.add_argument("file")
    p_eig.add_argument("--p", default="2", help="norm exponent")
    p_eig.add_argument(
        "--mode",
        type=int,
        default=None,
        help="identity slot (one-based) for nonsymmetric input; omit for the symmetric solver",
    )
    p_eig.add_argument(
        "--symmetry-atol",
        type=float,
        default=None,
        help="absolute slack of the symmetric solver's symmetry check (default: exact)",
    )
    _add_solver_flags(p_eig)
    _add_format_flag(p_eig)
    p_eig.set_defaults(handler=cmd_eigen)

    p_per = sub.add_parser("perron", help="positive eigenpair of a nonnegative tensor")
    p_per.add_argument("file")
    p_per.add_argument("--force", action="store_true", help="skip the reducibility check")
    _add_solver_flags(p_per)
    _add_format_flag(p_per)
    p_per.set_defaults(handler=cmd_perron)

    p_check = sub.add_parser("check", help="symmetry, sign and reducibility report")
    p_check.add_argument("file")
    _add_format_flag(p_check)
    p_check.set_defaults(handler=cmd_check)

    p_oracle = sub.add_parser("oracle", help="grid-seeded critical point enumeration")
    p_oracle.add_argument("file")
    p_oracle.add_argument("--p", default="2", help="norm exponent, or comma list per mode")
    p_oracle.add_argument("--kind", choices=("singular", "eigen"), default="singular")
    p_oracle.add_argument("--resolution", type=int, default=40)
    p_oracle.add_argument("--mode", type=int, default=None, help="identity slot (eigen kind)")
    _add_format_flag(p_oracle)
    p_oracle.set_defaults(handler=cmd_oracle)

    p_hyp = sub.add_parser("hyperdet", help="Cayley hyperdeterminant of a 2x2x2 tensor")
    p_hyp.add_argument("file")
    p_hyp.set_defaults(handler=cmd_hyperdet)

    return parser


@functools.cache
def _shared_parser():
    """The parser ``main`` uses, built on first use and kept for the process.

    Parsing reads the parser and never changes it, so one build serves
    every call; ``build_parser`` still returns a fresh one.
    """
    return build_parser()


def main(argv=None):
    args = _shared_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        code = args.handler(args)
    except _PRECONDITION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except LpTensorError as exc:  # anything else from the library
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    finally:
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        print(f"wall_time_ms: {elapsed_ms:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
