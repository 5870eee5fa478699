"""Per-layer attribution for the traced benchmark run.

The tracer wraps the public entry points of every bernsym layer module:
public module functions, public methods of public classes, the arithmetic
operators, and the EvalContext constructor.  Properties and private
helpers are not wrapped, so their time is self time of the entry point
that called them; so is time spent in the stdlib (`fractions` above all).

A wrapper is bound at every place that holds the function: the defining
module, every module that imported it by name, the package namespace and
every class attribute that aliases it (`__rmul__ = __mul__`).  `install`
refuses to run if any reference to an original survives.

Self time is a call's duration minus the durations of the wrapped calls it
made, kept with a stack of active calls.  Hot arithmetic is aggregated in
place (calls and self time per entry point); the coarse calls listed in
`SPAN_POINTS`, and every cli and identities entry point, are also kept as
spans (name, start, end, parent span, op id) and written out at the end.
"""

from __future__ import annotations

import inspect
import sys
import time

LAYERS = ("exactnum", "dirichlet", "series", "bernoulli", "quotients", "identities", "padic", "cli")

OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__eq__", "__call__")

CONSTRUCTOR_POINTS = ("quotients.EvalContext",)

SPAN_LAYERS = ("cli", "identities")
SPAN_POINTS = frozenset({
    "quotients.EvalContext.__init__",
    "quotients.expansion_polys",
    "quotients.expansion_coefficients",
    "quotients.closed_form_series",
    "quotients.consistency_check",
    "bernoulli.bernoulli_egf",
    "bernoulli.gen_bernoulli_numbers",
    "padic.convergence_check",
    "padic.riemann_sum",
})

# per-layer metric prefix -> the entry point it reads
METRIC_POINTS = {
    "cli.main": "cli.main",
    "identities.grid_verify": "identities.grid_verify",
    "identities.verify_instance": "identities.verify_instance",
    "quotients.EvalContext": "quotients.EvalContext.__init__",
    "quotients.expansion_polys": "quotients.expansion_polys",
    "quotients.sym_product": "quotients.EvalContext.sym_product",
    "quotients.closed_form_series": "quotients.closed_form_series",
    "quotients.consistency_check": "quotients.consistency_check",
    "bernoulli.bernoulli_egf": "bernoulli.bernoulli_egf",
    "bernoulli.gen_bernoulli_numbers": "bernoulli.gen_bernoulli_numbers",
    "series.mul": "series.TruncatedSeries.__mul__",
    "series.div": "series.TruncatedSeries.__truediv__",
    "series.egf_coefficient": "series.TruncatedSeries.egf_coefficient",
    "exactnum.mul": "exactnum.CyclotomicNumber.__mul__",
    "exactnum.add": "exactnum.CyclotomicNumber.__add__",
    "exactnum.inverse": "exactnum.CyclotomicNumber.inverse",
    "exactnum.scale": "exactnum.CyclotomicNumber.scale",
    "exactnum.linear_combination": "exactnum.linear_combination",
    "dirichlet.character_value": "dirichlet.DirichletCharacter.__call__",
    "padic.convergence_check": "padic.convergence_check",
    "padic.riemann_sum": "padic.riemann_sum",
    "padic.mul": "padic.PadicCycNumber.__mul__",
    "padic.inverse": "padic.PadicCycNumber.inverse",
}
PER_CALL_METRICS = ("quotients.expansion_polys", "series.mul", "series.div",
                    "exactnum.mul", "exactnum.inverse")


def _defined_in(obj, module) -> bool:
    code = getattr(inspect.unwrap(obj), "__code__", None)
    return code is not None and code.co_filename == module.__file__


def entry_points(package) -> dict:
    """Map each function object to wrap to its entry-point name."""
    points = {}
    for layer in LAYERS:
        module = getattr(package, layer)
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                wrap_init = f"{layer}.{name}" in CONSTRUCTOR_POINTS
                for attr, val in vars(obj).items():
                    if attr.startswith("_") and attr not in OPERATORS and not (wrap_init and attr == "__init__"):
                        continue
                    fn = val.__func__ if isinstance(val, (staticmethod, classmethod)) else val
                    if callable(fn) and _defined_in(fn, module):
                        points.setdefault(fn, f"{layer}.{name}.{fn.__name__}")
            elif callable(obj) and _defined_in(obj, module):
                points.setdefault(obj, f"{layer}.{name}")
    return points


class Tracer:
    def __init__(self, package):
        self.package = package
        self.stats: dict[str, list] = {}        # entry point -> [calls, self seconds]
        self.spans: list[tuple] = []            # (name, start, end, parent, op)
        self.op_times: list[float] = []
        self.op_self = 0.0                      # op time outside every wrapped call
        self.expansion_keys: list[tuple] = []
        # child time and span index of each active call, under a base frame
        # that no wrapped call reaches: every one runs inside an op
        self._stack: list[float] = [0.0]
        self._span_stack: list[int | None] = [None]
        self._op = None
        self._patches: list[tuple] = []

    # -- wrappers -------------------------------------------------------

    def _aggregate(self, fn, stat):
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed - stack.pop()
                stack[-1] += elapsed

        return wrapper

    def _span(self, fn, stat, name, on_call=None):
        stack, span_stack, spans = self._stack, self._span_stack, self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = span_stack[-1]
            span_stack.append(index)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stat[0] += 1
                stat[1] += elapsed - stack.pop()
                stack[-1] += elapsed
                span_stack.pop()
                spans[index] = (name, start, end, parent, self._op)

        return wrapper

    def _record_expansion(self, signature):
        keys = self.expansion_keys

        def on_call(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            form, w, ctx, n_max = (bound.arguments[k] for k in ("form", "w", "ctx", "n_max"))
            keys.append((form.form_id, tuple(w), n_max, ctx.d, tuple(ctx.chi.exponents),
                         ctx.r, ctx.twist.j))

        return on_call

    # -- installation ---------------------------------------------------

    def _namespaces(self):
        """Every module and class namespace of the package."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == self.package.__name__
                                         or k.startswith(self.package.__name__ + "."))]
        out = []
        for module in modules:
            out.append(module)
            out.extend(obj for obj in vars(module).values()
                       if inspect.isclass(obj) and obj.__module__ == module.__name__)
        return out

    def install(self) -> None:
        points = entry_points(self.package)
        missing = set(METRIC_POINTS.values()) - set(points.values())
        if missing:
            raise RuntimeError(f"entry points not found: {sorted(missing)}")
        wrappers = {}
        for fn, name in points.items():
            stat = self.stats.setdefault(name, [0, 0.0])
            layer = name.split(".", 1)[0]
            if name == "quotients.expansion_polys":
                wrappers[fn] = self._span(fn, stat, name,
                                          self._record_expansion(inspect.signature(fn)))
            elif layer in SPAN_LAYERS or name in SPAN_POINTS:
                wrappers[fn] = self._span(fn, stat, name)
            else:
                wrappers[fn] = self._aggregate(fn, stat)
        for ns in self._namespaces():
            for attr, val in list(vars(ns).items()):
                fn = val.__func__ if isinstance(val, (staticmethod, classmethod)) else val
                try:
                    wrapper = wrappers.get(fn)
                except TypeError:        # unhashable attribute values
                    continue
                if wrapper is None:
                    continue
                new = type(val)(wrapper) if isinstance(val, (staticmethod, classmethod)) else wrapper
                self._patches.append((ns, attr, val))
                setattr(ns, attr, new)
        for ns in self._namespaces():
            for attr, val in vars(ns).items():
                fn = val.__func__ if isinstance(val, (staticmethod, classmethod)) else val
                try:
                    if fn in wrappers:
                        raise RuntimeError(f"unwrapped reference {ns.__name__}.{attr}")
                except TypeError:
                    continue

    def uninstall(self) -> None:
        for ns, attr, val in reversed(self._patches):
            setattr(ns, attr, val)
        self._patches.clear()

    # -- ops ------------------------------------------------------------

    def begin_op(self, op_id) -> None:
        self._op = op_id
        self.spans.append(None)
        self._span_stack.append(len(self.spans) - 1)
        self._stack.append(0.0)
        self._op_start = time.perf_counter()

    def end_op(self) -> float:
        end = time.perf_counter()
        elapsed = end - self._op_start
        self.op_self += elapsed - self._stack.pop()
        index = self._span_stack.pop()
        self.spans[index] = ("op", self._op_start, end, None, self._op)
        self.op_times.append(elapsed)
        self._op = None
        return elapsed

    # -- results --------------------------------------------------------

    def metrics(self, untraced_op_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        op_s = sum(self.op_times)
        out: dict[str, tuple[float, str]] = {}
        for metric, point in METRIC_POINTS.items():
            calls, self_s = self.stats[point]
            out[f"{metric}.calls"] = (calls, "count")
            out[f"{metric}.self_s"] = (self_s, "s")
            if metric in PER_CALL_METRICS:
                out[f"{metric}.us_per_call"] = (self_s / calls * 1e6 if calls else 0.0, "us")
        keys = self.expansion_keys
        out["quotients.expansion_polys.distinct_ratio"] = (
            len(set(keys)) / len(keys) if keys else 0.0, "ratio")
        out["quotients.expansion_polys.tensor_distinct_ratio"] = (
            len({(k[0], k[1], k[2], k[3], k[5]) for k in keys}) / len(keys) if keys else 0.0, "ratio")
        for layer in LAYERS:
            self_s = sum(s for name, (_, s) in self.stats.items() if name.split(".", 1)[0] == layer)
            out[f"{layer}.self_s"] = (self_s, "s")
            out[f"{layer}.share"] = (self_s / op_s if op_s else 0.0, "ratio")
        out["trace.unattributed_share"] = (self.op_self / op_s if op_s else 0.0, "ratio")
        out["trace.overhead_ratio"] = (op_s / untraced_op_s if untraced_op_s else 0.0, "ratio")
        return out

    def attribution_errors(self, untraced_op_s: float) -> list[str]:
        """Consistency of the attribution: self times are non-negative and
        the layers' self times add up to the traced op time, short of at
        most the tracing overhead."""
        errors = [f"{name} self time {s:.3g} s < 0" for name, (_, s) in self.stats.items() if s < -1e-9]
        op_s = sum(self.op_times)
        layer_s = sum(s for _, s in self.stats.values())
        if layer_s > op_s * (1 + 1e-9):
            errors.append(f"layer self times {layer_s:.6f} s exceed op time {op_s:.6f} s")
        if self.op_self > max(op_s - untraced_op_s, 0.0) + 0.01 * op_s:
            errors.append(f"unattributed op time {self.op_self:.6f} s exceeds the tracing overhead")
        return errors

    def trace_document(self) -> dict:
        return {
            "entry_points": {name: {"calls": c, "self_s": s} for name, (c, s) in sorted(self.stats.items())},
            "span_fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
        }
