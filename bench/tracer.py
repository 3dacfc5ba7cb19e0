"""Per-layer tracing of intalg from outside the package.

``Tracer.install`` replaces every binding of intalg's public layer functions
-- module globals, dictionaries of functions such as the parser's function
table, and the arithmetic methods of ``IntervalNumber`` -- with a wrapper that
records a span.  A span's self time is its duration minus the durations of
the spans it encloses, so each layer is charged only for its own work.  Spans
are aggregated in memory per name; ``uninstall`` restores every binding.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# (module, function name, span name) for every wrapped public function.
FUNCTIONS = (
    ("intalg.algebra", "alg_mul", "algebra.mul"),
    ("intalg.algebra", "alg_inv", "algebra.inv"),
    ("intalg.interval", "embed", "interval.embed"),
    ("intalg.interval", "collapse", "interval.collapse"),
    ("intalg.interval", "pow_int", "interval.pow"),
    ("intalg.interval", "exp", "interval.lift"),
    ("intalg.interval", "log", "interval.lift"),
    ("intalg.interval", "sqrt", "interval.lift"),
    ("intalg.exprcalc", "parse", "exprcalc.parse"),
    ("intalg.exprcalc", "evaluate", "exprcalc.evaluate"),
    ("intalg.linalg", "matmul", "linalg.matmul"),
    ("intalg.linalg", "matvec", "linalg.matvec"),
    ("intalg.linalg", "schulz_invert", "linalg.schulz"),
    ("intalg.linalg", "power_iterate", "linalg.power"),
    ("intalg.optimize", "gradient_descent", "optimize.run"),
    ("intalg.optimize", "newton_raphson", "optimize.run"),
    ("intalg.optimize", "fd_first", "optimize.fd_first"),
    ("intalg.optimize", "fd_second", "optimize.fd_second"),
    ("intalg.cli", "main", "cli.main"),
)
# Counted without a span, so their loop time stays with the caller.
COUNTERS = (("intalg.linalg", "dot", "linalg.dot"),)
OPERATORS = (
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "__neg__",
)


def _tree_size(node) -> int:
    """Nodes of an intalg expression AST (dataclass nodes, children as fields)."""
    size = 1
    for value in vars(node).values():
        if hasattr(value, "__dataclass_fields__"):
            size += _tree_size(value)
    return size


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = [0.0]
        self._open = defaultdict(int)
        self._schulz_inputs = []
        self._patches = []
        self._originals = {}

    def reset(self) -> None:
        for table in (self.calls, self.self_s, self.total_s, self.counts):
            table.clear()

    # -- spans ------------------------------------------------------------

    def _span(self, name, fn, name_of=None, before=None, after=None):
        stack, opened, clock = self._stack, self._open, time.perf_counter
        calls, self_s, total_s = self.calls, self.self_s, self.total_s

        def wrapper(*args, **kwargs):
            key = name_of(args) if name_of else name
            if before:
                before(args)
            opened[name] += 1
            stack.append(0.0)
            t0 = clock()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                opened[name] -= 1
                calls[key] += 1
                self_s[key] += dt - child
                total_s[key] += dt
                if after:
                    after(args, result, error)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def objective(self, f):
        """Wrap an objective passed to an optimizer so its evaluations are counted."""
        counts = self.counts

        def counted(x):
            counts["optimize.f_evals"] += 1
            return f(x)

        return counted

    # -- hooks ------------------------------------------------------------

    def _mul_name(self, args):
        if self._open["linalg.matmul"]:
            self.counts["linalg.mul_in_matmul"] += 1
        return f"algebra.mul.o{int(args[0].order)}"

    def _embed_before(self, args):
        if len(args) >= 2 and args[0] == args[1]:
            self.counts["interval.point_embed"] += 1

    def _evaluate_before(self, args):
        self.counts["exprcalc.nodes"] += _tree_size(args[0])
        if self._open["optimize.run"]:
            # The command line's objectives are closures over evaluate.
            self.counts["optimize.f_evals"] += 1

    def _matmul_before(self, args):
        if self._schulz_inputs and args[0] is self._schulz_inputs[-1]:
            self.counts["linalg.schulz_iters"] += 1

    def _schulz_before(self, args):
        self._schulz_inputs.append(args[0])

    def _schulz_after(self, args, result, error):
        self._schulz_inputs.pop()

    def _power_after(self, args, result, error):
        if result is not None:
            self.counts["linalg.power_iters"] += len(result.trace)

    def _optimize_after(self, args, result, error):
        trace = result if result is not None else getattr(error, "trace", None)
        if trace:
            self.counts["optimize.iters"] += trace[-1].index

    # -- binding ----------------------------------------------------------

    def install(self) -> None:
        import intalg.cli  # noqa: F401  (its by-name imports must be wrapped too)

        hooks = {
            "algebra.mul": {"name_of": self._mul_name},
            "interval.embed": {"before": self._embed_before},
            "exprcalc.evaluate": {"before": self._evaluate_before},
            "linalg.matmul": {"before": self._matmul_before},
            "linalg.schulz": {"before": self._schulz_before, "after": self._schulz_after},
            "linalg.power": {"after": self._power_after},
            "optimize.run": {"after": self._optimize_after},
        }
        for module, attr, name in FUNCTIONS:
            fn = getattr(sys.modules[module], attr)
            self._rebind(fn, self._span(name, fn, **hooks.get(name, {})))
        for module, attr, name in COUNTERS:
            fn = getattr(sys.modules[module], attr)
            self._rebind(fn, self._counter(name, fn))
        cls = sys.modules["intalg.interval"].IntervalNumber
        for attr in OPERATORS:
            self._set(cls, attr, self._span("interval.op", cls.__dict__[attr]))
        cls = sys.modules["intalg.linalg"].IntervalMatrix
        self._set(cls, "__init__", self._span("linalg.matrix_build", cls.__dict__["__init__"]))

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, fn, wrapper) -> None:
        """Replace fn wherever an intalg module or a dict in one holds it."""
        self._originals[id(fn)] = fn
        for module in _intalg_modules():
            for key, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, key, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is fn:
                            self._patches.append((value, k, fn))
                            value[k] = wrapper

    def unwrapped(self) -> list[str]:
        """Bindings that still point at an original function: a missed binding."""
        missed = []
        for module in _intalg_modules():
            for key, value in vars(module).items():
                values = value.items() if isinstance(value, dict) else ((key, value),)
                for k, v in values:
                    if id(v) in self._originals and v is self._originals[id(v)]:
                        missed.append(f"{module.__name__}.{key}" + ("" if k == key else f"[{k!r}]"))
        return missed

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._patches.clear()
        self._originals.clear()

    # -- metrics ----------------------------------------------------------

    def layer_metrics(self, wall_s: float) -> dict:
        """Per-layer counts per run and mean self time per call."""
        calls, self_s, counts = self.calls, self.self_s, self.counts

        def mean(name, scale=1e6, keys=None):
            keys = keys or (name,)
            n = sum(calls[k] for k in keys)
            return scale * sum(self_s[k] for k in keys) / n if n else 0.0

        mul_keys = ("algebra.mul.o4", "algebra.mul.o5", "algebra.mul.o7")
        mul_calls = sum(calls[k] for k in mul_keys)
        iters = counts["optimize.iters"]
        return {
            "algebra.mul_calls": (mul_calls, "count"),
            "algebra.mul_us": (mean(None, keys=mul_keys), "us"),
            "algebra.mul_us.o4": (mean("algebra.mul.o4"), "us"),
            "algebra.mul_us.o5": (mean("algebra.mul.o5"), "us"),
            "algebra.mul_us.o7": (mean("algebra.mul.o7"), "us"),
            "algebra.mul_share": (sum(self_s[k] for k in mul_keys) / wall_s, "ratio"),
            "algebra.inv_calls": (calls["algebra.inv"], "count"),
            "algebra.inv_us": (mean("algebra.inv"), "us"),
            "interval.embed_calls": (calls["interval.embed"], "count"),
            "interval.embed_us": (mean("interval.embed"), "us"),
            "interval.point_embed_calls": (counts["interval.point_embed"], "count"),
            "interval.collapse_calls": (calls["interval.collapse"], "count"),
            "interval.collapse_us": (mean("interval.collapse"), "us"),
            "interval.op_calls": (calls["interval.op"], "count"),
            "interval.op_self_us": (mean("interval.op"), "us"),
            "interval.lift_calls": (calls["interval.lift"], "count"),
            "interval.pow_calls": (calls["interval.pow"], "count"),
            "interval.pow_us": (mean("interval.pow"), "us"),
            "exprcalc.parse_calls": (calls["exprcalc.parse"], "count"),
            "exprcalc.parse_us": (mean("exprcalc.parse"), "us"),
            "exprcalc.evaluate_calls": (calls["exprcalc.evaluate"], "count"),
            "exprcalc.evaluate_self_us": (mean("exprcalc.evaluate"), "us"),
            "exprcalc.nodes": (counts["exprcalc.nodes"], "count"),
            "linalg.matmul_calls": (calls["linalg.matmul"], "count"),
            "linalg.matmul_ms": (mean("linalg.matmul", 1e3), "ms"),
            "linalg.matvec_calls": (calls["linalg.matvec"], "count"),
            "linalg.matvec_us": (mean("linalg.matvec"), "us"),
            "linalg.dot_calls": (counts["linalg.dot"], "count"),
            "linalg.matrix_builds": (calls["linalg.matrix_build"], "count"),
            "linalg.matrix_build_us": (mean("linalg.matrix_build"), "us"),
            "linalg.schulz_iters": (counts["linalg.schulz_iters"], "count"),
            "linalg.power_iters": (counts["linalg.power_iters"], "count"),
            "linalg.mul_per_matmul": (
                counts["linalg.mul_in_matmul"] / calls["linalg.matmul"] if calls["linalg.matmul"] else 0.0,
                "ratio",
            ),
            "optimize.iters": (iters, "count"),
            "optimize.iter_us": (1e6 * self.total_s["optimize.run"] / iters if iters else 0.0, "us"),
            "optimize.f_evals": (counts["optimize.f_evals"], "count"),
            "optimize.f_evals_per_iter": (counts["optimize.f_evals"] / iters if iters else 0.0, "ratio"),
            "optimize.fd_first_calls": (calls["optimize.fd_first"], "count"),
            "optimize.fd_second_calls": (calls["optimize.fd_second"], "count"),
        }


def _intalg_modules():
    return [m for name, m in list(sys.modules.items()) if name == "intalg" or name.startswith("intalg.")]


def self_check(tracer: Tracer) -> list[str]:
    """Problems found when the installed tracer counts two known workloads.

    A 3x3 matrix product makes exactly 27 algebra products through every
    binding of ``matmul``, and one more gradient-descent iteration costs
    exactly 5 objective evaluations.  A binding left unwrapped breaks one
    of these or shows up in ``Tracer.unwrapped``.
    """
    ia = sys.modules["intalg"]
    problems = [f"unwrapped binding {b}" for b in tracer.unwrapped()]
    m = ia.IntervalMatrix([[ia.interval(i + 2.0 * j + 1.0, eps=0.01) for j in range(3)] for i in range(3)])
    products = {
        "intalg.matmul": ia.matmul,
        "intalg.linalg.matmul": sys.modules["intalg.linalg"].matmul,
        "intalg.cli.matmul": sys.modules["intalg.cli"].matmul,
        "IntervalMatrix.__matmul__": lambda a, b: a @ b,
    }
    for label, fn in products.items():
        tracer.reset()
        fn(m, m)
        muls = sum(tracer.calls[f"algebra.mul.o{k}"] for k in (4, 5, 7))
        if muls != 27 or tracer.calls["linalg.matmul"] != 1:
            problems.append(f"{label}: {muls} products in {tracer.calls['linalg.matmul']} matmul, want 27 in 1")
    evals = []
    for max_iter in (1, 2):
        tracer.reset()
        cfg = ia.OptimizerConfig(max_iter=max_iter)
        try:
            ia.gradient_descent(tracer.objective(lambda x: x * ia.exp(x)), ia.interval(2.0, eps=0.1), cfg)
        except ia.ConvergenceError:
            pass
        evals.append(tracer.counts["optimize.f_evals"])
    if evals[1] - evals[0] != 5:
        problems.append(f"gradient iteration made {evals[1] - evals[0]} f evaluations, want 5")
    tracer.reset()
    return problems
