"""Per-layer spans around lptensor's public functions, installed at runtime.

Nothing under ``src/`` knows about tracing.  ``Tracer.install`` replaces
every binding of each traced function in every loaded ``lptensor``
module (the solvers bind kernels by direct import, so patching only the
home module would miss their calls) with a wrapper that times the call
and charges it to a layer.  A layer's self time is its span time minus
the time of the spans it caused.  Spans are folded into per-layer totals
as they close, per input group, so memory stays flat however many
millions of kernel calls a run makes.

After install the tracer checks its own coverage: a traced name missing
from its module, or any ``lptensor`` module attribute still holding an
unwrapped original, raises ``TraceCoverageError`` instead of silently
dropping a layer.
"""

import importlib
import inspect
import sys
import time
from collections import defaultdict

import lptensor

# module -> {public function: layer}
TRACED = {
    "lptensor.core": {
        "partial_contraction": "core.contract",
        "pair_contraction": "core.contract",
        "multilinear_eval": "core.eval",
        "homogeneous_eval": "core.eval",
        "multilinear_transform": "core.other",
        "homogeneous_gradient": "core.other",
        "is_symmetric": "core.other",
        "symmetrize": "core.other",
    },
    "lptensor.pnorm": {
        "lp_norm": "pnorm",
        "sign_power": "pnorm",
        "sign_root": "pnorm",
        "lp_norm_gradient": "pnorm",
        "unit_vector": "pnorm",
    },
    "lptensor._polish": {"gauss_newton": "polish"},
    "lptensor.singular": {
        "singular_residual": "singular",
        "solve_singular_pair": "singular",
        "solve_singular_pairs": "singular",
        "sigma_max": "singular",
    },
    "lptensor.eigen": {
        "eigen_residual": "eigen",
        "solve_symmetric_eigenpairs": "eigen",
        "solve_mode_eigenpairs": "eigen",
    },
    "lptensor.perron": {
        "find_reducing_set": "perron.reducing_set",
        "solve_perron": "perron.solve",
        "collatz_wielandt": "perron.solve",
        "is_nonnegative": "perron.solve",
    },
    "lptensor.oracle": {
        "enumerate_critical_points": "oracle",
        "hyperdet_222": "oracle",
        "dense_baseline_svd": "oracle",
        "dense_baseline_symeig": "oracle",
    },
    "lptensor.cli": {"main": "cli"},
}

LAYERS = (
    "core.contract", "core.eval", "core.other", "pnorm", "polish", "singular",
    "eigen", "perron.reducing_set", "perron.solve", "oracle", "cli",
)


class TraceCoverageError(RuntimeError):
    """A traced function is missing or some binding escaped the wrapper."""


class Tracer:
    """Span accounting for one traced run.

    ``group`` names the input group of the operation in progress; totals
    are kept per (group, layer) and per (group, counter).
    """

    def __init__(self):
        self.group = ""
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []
        self._saved = []
        self._originals = {}

    def count(self, name, amount=1):
        self.counts[self.group, name] += amount

    # ------------------------------------------------------------------
    # installing and removing the wrappers

    def install(self, table=TRACED):
        originals = {}
        for modname, names in table.items():
            module = importlib.import_module(modname)
            for name, layer in names.items():
                fn = getattr(module, name, None)
                if not inspect.isfunction(fn):
                    raise TraceCoverageError(
                        f"{modname}.{name} is traced but is no longer a function there"
                    )
                originals[id(fn)] = (fn, self._wrap(layer, name, fn))
        self._originals = originals
        for module in _lptensor_modules():
            for attr, value in list(vars(module).items()):
                entry = originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._saved.append((module, attr, value))
        self.check_coverage()

    def uninstall(self):
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    def check_coverage(self):
        """Raise if any lptensor module attribute still holds an original."""
        escaped = []
        for module in _lptensor_modules():
            for attr, value in vars(module).items():
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    escaped.append(f"{module.__name__}.{attr}")
        if escaped:
            raise TraceCoverageError("unwrapped bindings remain: " + ", ".join(sorted(escaped)))

    # ------------------------------------------------------------------
    # spans

    def _wrap(self, layer, name, fn):
        around = _AROUND.get(name)
        stack = self._stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            key = (self.group, layer)
            stack.append(0.0)
            start = perf()
            try:
                if around is None:
                    return fn(*args, **kwargs)
                return around(self, fn, args, kwargs)
            finally:
                elapsed = perf() - start
                children = stack.pop()
                self.calls[key] += 1
                self.total[key] += elapsed
                self.self_time[key] += elapsed - children
                if stack:
                    stack[-1] += elapsed

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    # ------------------------------------------------------------------
    # read-out

    def layer(self, what, layer, groups=None):
        table = {"calls": self.calls, "total": self.total, "self": self.self_time}[what]
        return _total(table, layer, groups)

    def counter(self, name, groups=None):
        return _total(self.counts, name, groups)


def _total(table, name, groups):
    """Sum of ``table[group, name]`` over ``groups`` (all when None)."""
    return sum(v for (g, n), v in table.items() if n == name and (groups is None or g in groups))


def _lptensor_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "lptensor" or name.startswith("lptensor."))
    ]


def _bind(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound


# Per-function counters, taken at the same boundary as the span.  Each
# takes (tracer, original, args, kwargs) and makes the call itself.

def _around_gauss_newton(tracer, fn, args, kwargs):
    bound = _bind(fn, args, kwargs)
    residual, jacobian = bound.arguments["residual"], bound.arguments["jacobian"]

    def counted_residual(z):
        tracer.count("polish.residual_evals")
        return residual(z)

    def counted_jacobian(z):
        tracer.count("polish.newton_steps")
        return jacobian(z)

    bound.arguments["residual"] = counted_residual
    bound.arguments["jacobian"] = counted_jacobian
    z, fnorm = fn(*bound.args, **bound.kwargs)
    tracer.count("polish.successes", int(fnorm <= bound.arguments["tol"]))
    return z, fnorm


def _around_solver(prefix):
    def around(tracer, fn, args, kwargs):
        result = fn(*args, **kwargs)
        config = _bind(fn, args, kwargs).arguments.get("config") or lptensor.SolverConfig()
        tracer.count(f"{prefix}.solves")
        tracer.count(f"{prefix}.restarts", config.restarts)
        tracer.count(f"{prefix}.pairs", len(result))
        return result

    return around


def _around_residual(prefix):
    def around(tracer, fn, args, kwargs):
        tracer.count(f"{prefix}.residual_calls")
        return fn(*args, **kwargs)

    return around


def _around_enumerate(tracer, fn, args, kwargs):
    bound = _bind(fn, args, kwargs)
    A, resolution = bound.arguments["A"], bound.arguments["resolution"]
    dims = A.dims if bound.arguments["kind"] == "singular" else A.dims[:1]
    seeds = 1
    for d in dims:
        # _sphere_grid: one point for d = 1, resolution**(d - 1) otherwise
        seeds *= resolution ** (d - 1)
    result = fn(*args, **kwargs)
    tracer.count("oracle.seeds", seeds)
    tracer.count("oracle.points", len(result))
    return result


def _around_perron(tracer, fn, args, kwargs):
    result = fn(*args, **kwargs)
    tracer.count("perron.power_iterations", result.iterations)
    return result


def _around_cli(tracer, fn, args, kwargs):
    # the benchmark captures stdout in a StringIO, whose position gives
    # the report size (the JSON report is ASCII, so characters are bytes)
    stream = sys.stdout
    start = stream.tell() if stream.seekable() else None
    code = fn(*args, **kwargs)
    if start is not None:
        tracer.count("cli.report_bytes", stream.tell() - start)
    tracer.count("cli.nonzero_exits", int(code != 0))
    return code


_AROUND = {
    "gauss_newton": _around_gauss_newton,
    "solve_singular_pairs": _around_solver("singular"),
    "solve_symmetric_eigenpairs": _around_solver("eigen"),
    "solve_mode_eigenpairs": _around_solver("eigen"),
    "singular_residual": _around_residual("singular"),
    "eigen_residual": _around_residual("eigen"),
    "enumerate_critical_points": _around_enumerate,
    "solve_perron": _around_perron,
    "main": _around_cli,
}


def per_layer_metrics(tracer, traced_s, untraced_s):
    """The per-layer metrics of one traced cycle, with their units."""

    def calls(*layers):
        return sum(tracer.layer("calls", layer) for layer in layers)

    def self_s(*layers):
        return sum(tracer.layer("self", layer) for layer in layers)

    def count(name):
        return tracer.counter(name)

    def ratio(num, den):
        return num / den if den else 0.0

    polish_calls = calls("polish")
    oracle_seeds = count("oracle.seeds")
    out = {
        "core.contract.calls": (calls("core.contract"), "count"),
        "core.contract.self_s": (self_s("core.contract"), "s"),
        "core.contract.us_per_call": (
            1e6 * ratio(self_s("core.contract"), calls("core.contract")), "us"),
        "core.eval.calls": (calls("core.eval"), "count"),
        "core.eval.self_s": (self_s("core.eval"), "s"),
        "pnorm.calls": (calls("pnorm"), "count"),
        "pnorm.self_s": (self_s("pnorm"), "s"),
        "polish.calls": (polish_calls, "count"),
        "polish.self_s": (self_s("polish"), "s"),
        "polish.newton_steps": (count("polish.newton_steps"), "count"),
        "polish.residual_evals": (count("polish.residual_evals"), "count"),
        "polish.success_ratio": (ratio(count("polish.successes"), polish_calls), "ratio"),
    }
    for prefix in ("singular", "eigen"):
        out[f"{prefix}.calls"] = (count(f"{prefix}.solves"), "count")
        out[f"{prefix}.self_s"] = (self_s(prefix), "s")
        out[f"{prefix}.residual_calls"] = (count(f"{prefix}.residual_calls"), "count")
        out[f"{prefix}.pairs_per_restart"] = (
            ratio(count(f"{prefix}.pairs"), count(f"{prefix}.restarts")), "ratio")
    out.update({
        "oracle.calls": (calls("oracle"), "count"),
        "oracle.self_s": (self_s("oracle"), "s"),
        "oracle.seeds": (oracle_seeds, "count"),
        "oracle.yield": (ratio(count("oracle.points"), oracle_seeds), "ratio"),
        "oracle.us_per_seed": (
            1e6 * ratio(tracer.layer("total", "oracle"), oracle_seeds), "us"),
        "perron.reducing_set.calls": (calls("perron.reducing_set"), "count"),
        "perron.reducing_set.self_s": (self_s("perron.reducing_set"), "s"),
        "perron.solve.self_s": (self_s("perron.solve"), "s"),
        "perron.power_iterations": (count("perron.power_iterations"), "count"),
        "cli.calls": (calls("cli"), "count"),
        "cli.self_s": (self_s("cli"), "s"),
        "cli.report_bytes": (count("cli.report_bytes"), "bytes"),
        "cli.nonzero_exits": (count("cli.nonzero_exits"), "count"),
        "trace.overhead_frac": (ratio(traced_s, untraced_s) - 1.0, "ratio"),
    })
    return out
