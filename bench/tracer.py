"""Outside-in tracer: wraps the package's functions where their callers bind them.

Nothing in the package changes. Stage boundaries become spans (name, start,
end, parent span, thread); hot leaves become per-thread counters with summed
time, so a call costing microseconds is not swamped by span bookkeeping.
A private stage that a refactor removed is skipped and its metric is
reported absent.
"""

import functools
import inspect
import itertools
import math
import statistics
import threading
import time
from dataclasses import dataclass

# Modules whose bindings are wrapped; config and quadrature functions are
# wrapped where cli, coeffs and sharp bind them.
MODULES = ("cli", "coeffs", "kernels", "matfun", "oracle", "sharp", "solve", "verification")

# Spans whose self time is the CLI's own code rather than a named layer.
CLI_GLUE = ("run", "cli.map", "cli.row")

# (module, attribute, span name). Callers bind some functions by name
# (``from .x import f``), so those are wrapped at the caller's module.
SPANS = [
    ("cli", "load_config", "config.load"),
    ("cli", "write_csv", "cli.write_csv"),
    ("coeffs", "integrate_coefficients", "coeffs.integrate"),
    ("sharp", "window_scaling_exponents", "coeffs.scaling_fit"),
    ("sharp", "evaluate_sharp", "sharp.constant"),
    ("sharp", "sharp_H", "sharp.constant"),
    ("sharp", "sharp_K_ell", "sharp.constant"),
    ("sharp", "sharp_K", "sharp.constant"),
    ("sharp", "sharp_N", "sharp.constant"),
    ("sharp", "sharp_C_ell", "sharp.constant"),
    ("sharp", "sharp_C", "sharp.constant"),
    ("sharp", "_convergence", "sharp.convergence"),
    ("sharp", "_window_tables", "sharp.node_table"),
    ("sharp", "_tau_integral", "sharp.tau_integral"),
    ("sharp", "sphere_max", "sharp.sphere_search"),
    ("sharp", "_polish_on_sphere", "sharp.sphere_search"),
    ("sharp", "_joint_polish", "sharp.sphere_search"),
    ("solve", "solve_homogeneous", "solve.solution"),
    ("solve", "solve_nonhomogeneous", "solve.solution"),
    ("solve", "directional_derivative", "solve.solution"),
    ("solve", "_source_quadrature", "solve.source_quadrature"),
    ("solve", "spacetime_norm", "solve.spacetime_norm"),
    ("oracle", "solve_homogeneous", "solve.solution"),
    ("oracle", "directional_derivative", "solve.solution"),
    ("oracle", "opnorm_bruteforce", "oracle.opnorm"),
    ("verification", "opnorm_bruteforce", "oracle.opnorm"),
    ("verification", "run_case", "verification.case"),
    ("verification", "closed_form_value", "verification.closed_form"),
    ("verification", "oracle_value", "verification.oracle"),
]

# (module, attribute, counter prefix): hot leaves, counted with summed time.
COUNTERS = [
    ("matfun", "spectral_norm", "matfun.spectral_norm"),
    ("matfun", "matrix_exp", "matfun.matrix_exp"),
    ("sharp", "_tangent_gradient", "sharp.sphere_search.step"),
]


# Every per-layer metric with its unit, in report order.
LAYER_METRICS = {
    "config.load_s": "s",
    "cli.row_s.p50": "s",
    "cli.row_s.max": "s",
    "cli.write_csv_s": "s",
    "coeffs.window_requests": "count",
    "coeffs.windows_computed": "count",
    "coeffs.window_hit_ratio": "ratio",
    "coeffs.integrate_s": "s",
    "coeffs.us_per_window": "us",
    "coeffs.scaling_fit_s": "s",
    "quadrature.window.calls": "count",
    "quadrature.window.panels": "count",
    "quadrature.window.evals": "count",
    "quadrature.source.calls": "count",
    "quadrature.source.panels": "count",
    "quadrature.source.evals": "count",
    "quadrature.source.capped": "count",
    "quadrature.source_s": "s",
    "matfun.spectral_norm.calls": "count",
    "matfun.spectral_norm_s": "s",
    "matfun.matrix_exp.calls": "count",
    "matfun.matrix_exp_s": "s",
    "kernels.field.calls": "count",
    "kernels.field.points": "count",
    "kernels.field_s": "s",
    "kernels.field.mpts_per_s": "Mpt/s",
    "sharp.node_table_s": "s",
    "sharp.node_table.nodes": "count",
    "sharp.tau_integral_s": "s",
    "sharp.sphere_search_s": "s",
    "sharp.sphere_search.evals": "count",
    "sharp.search_residual_max": "ratio",
    "sharp.convergence_s": "s",
    "solve.source_quadrature_s": "s",
    "solve.spacetime_norm_s": "s",
    "oracle.calls": "count",
    "oracle.opnorm_s": "s",
    "verification.closed_form_s": "s",
    "verification.oracle_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_frac": "ratio",
}


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    thread: int
    name: str
    start: float
    end: float


class Tracer:
    """Collects spans and counters in memory for one traced process."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._thread_counters = []
        self._lock = threading.Lock()
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def call_in_span(self, name, fn, args, kwargs, parent=None):
        stack = self._stack()
        span_id = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, parent, threading.get_ident(), name, start, end))

    def counters(self):
        """This thread's counter dict; merged across threads by ``totals``."""
        mine = getattr(self._local, "counters", None)
        if mine is None:
            mine = self._local.counters = {}
            with self._lock:
                self._thread_counters.append(mine)
        return mine

    def add(self, key, value=1.0):
        c = self.counters()
        c[key] = c.get(key, 0.0) + value

    def record_max(self, key, value):
        c = self.counters()
        c[key] = max(c.get(key, value), value)

    def totals(self):
        out = {}
        for c in self._thread_counters:
            for key, value in c.items():
                if key.endswith("_max"):
                    out[key] = max(out.get(key, value), value)
                else:
                    out[key] = out.get(key, 0.0) + value
        return out

    # -- wrapping ----------------------------------------------------------

    def patch(self, owner, attr, make_wrapper, label):
        """Replace ``owner.attr`` by ``make_wrapper(original)`` if it exists."""
        original = None if owner is None else getattr(owner, attr, None)
        if original is None:
            self.missing.append(label)
            return False
        wrapper = functools.wraps(original)(make_wrapper(original))
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))
        return True

    def span_wrapper(self, name, after=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                result = self.call_in_span(name, fn, args, kwargs)
                if after is not None:
                    after(fn, args, kwargs, result)
                return result

            return wrapper

        return make

    def counter_wrapper(self, prefix, after=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                start = time.perf_counter()
                result = fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                c = self.counters()
                c[prefix + ".calls"] = c.get(prefix + ".calls", 0.0) + 1.0
                c[prefix + "_s"] = c.get(prefix + "_s", 0.0) + elapsed
                if after is not None:
                    after(fn, args, kwargs, result)
                return result

            return wrapper

        return make

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def _counted(tracer, key, fn):
    def counted(*args, **kwargs):
        c = tracer.counters()
        c[key] = c.get(key, 0.0) + 1.0
        return fn(*args, **kwargs)

    return counted


def _default(fn, name):
    try:
        return inspect.signature(fn).parameters[name].default
    except (KeyError, TypeError, ValueError):
        return None


def install(tracer, modules):
    """Wrap the package. ``modules`` maps short module names to modules.

    A module or function that is not there is recorded in ``tracer.missing``
    and the metrics it feeds are reported absent.
    """

    def patch_span(mod, attr, name, **hooks):
        tracer.patch(modules.get(mod), attr, tracer.span_wrapper(name, **hooks), f"{mod}.{attr}")

    def patch_counter(mod, attr, prefix, **hooks):
        tracer.patch(modules.get(mod), attr, tracer.counter_wrapper(prefix, **hooks),
                     f"{mod}.{attr}")

    def quadrature(prefix, as_span):
        def make(fn):
            cap = _default(fn, "max_panels")

            def wrapper(f, *args, **kwargs):
                tracer.add(prefix + ".calls")
                args = (_counted(tracer, prefix + ".evals", f),) + args
                if as_span:
                    result = tracer.call_in_span(prefix, fn, args, kwargs)
                else:
                    result = fn(*args, **kwargs)
                tracer.add(prefix + ".panels", len(result.panels))
                limit = kwargs.get("max_panels", cap)
                if limit is not None and len(result.panels) >= limit:
                    tracer.add(prefix + ".capped")
                return result

            return wrapper

        return make

    def node_count(fn, args, kwargs, result):
        sigmas = getattr(result, "sigmas", None)
        if sigmas is not None:
            tracer.add("sharp.node_table.nodes", len(sigmas))

    def residual(fn, args, kwargs, result):
        if math.isfinite(result[-1]):
            tracer.record_max("sharp.search_residual_max", float(result[-1]))

    for mod, attr, name in SPANS:
        hooks = {}
        if attr == "_window_tables":
            hooks["after"] = node_count
        elif attr in ("_polish_on_sphere", "_joint_polish"):
            hooks["after"] = residual
        patch_span(mod, attr, name, **hooks)

    # Adaptive quadrature is bound separately by coeffs (window integrals)
    # and sharp (source-time integrals), which keeps their counts apart.
    for mod, prefix, as_span in (("coeffs", "quadrature.window", False),
                                 ("sharp", "quadrature.source", True)):
        tracer.patch(modules.get(mod), "adaptive_quadrature",
                     quadrature(prefix, as_span), f"{mod}.adaptive_quadrature")

    for mod, attr, prefix in COUNTERS:
        patch_counter(mod, attr, prefix)

    def field_points(fn, args, kwargs, result):
        tracer.add("kernels.field.points", getattr(result, "size", 1))

    patch_counter("kernels", "gaussian_field", "kernels.field", after=field_points)

    tracer.patch(getattr(modules.get("coeffs"), "CoefficientSet", None), "accumulated",
                 lambda fn: _counted(tracer, "coeffs.window_requests", fn),
                 "coeffs.CoefficientSet.accumulated")

    def map_tasks(fn):
        def wrapper(task_fn, tasks, threads):
            def mapped():
                # rows may run on pool threads: give them the map span as parent
                parent = tracer.current()

                def row(task):
                    return tracer.call_in_span("cli.row", task_fn, (task,), {}, parent=parent)

                return fn(row, tasks, threads)

            return tracer.call_in_span("cli.map", mapped, (), {})

        return wrapper

    tracer.patch(modules.get("cli"), "_map_tasks", map_tasks, "cli._map_tasks")


# ---------------------------------------------------------------------------
# span arithmetic


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    cursor = lo
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, hi)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(spans):
    """Span id -> duration minus the part of it its children cover."""
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: (s.end - s.start) - _covered(children.get(s.id, []), s.start, s.end)
        for s in spans
    }


def outermost_time(spans, names):
    """Summed duration of spans named in ``names`` with no such ancestor."""
    by_id = {s.id: s for s in spans}
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        parent = by_id.get(s.parent)
        nested = False
        while parent is not None:
            if parent.name in names:
                nested = True
                break
            parent = by_id.get(parent.parent)
        if not nested:
            total += s.end - s.start
    return total


def self_time_by_name(spans):
    out = {}
    st = self_times(spans)
    for s in spans:
        out[s.name] = out.get(s.name, 0.0) + st[s.id]
    return out


def layer_metrics(spans, counters, missing=()):
    """Per-layer metrics of one traced run; absent where a stage is missing.

    Span times are inclusive and never double count a stage nested in
    itself; ``trace.unattributed_frac`` is the self time of the CLI's own
    glue over all self time outside config loading.
    """
    gone = set(missing)
    m = {}

    def put(metric, stage, value):
        if stage not in gone:
            m[metric] = float(value)

    def span_s(name):
        return outermost_time(spans, {name})

    def spans_named(name):
        return sum(1 for s in spans if s.name == name)

    def c(key):
        return counters.get(key, 0.0)

    rows = sorted(s.end - s.start for s in spans if s.name == "cli.row")
    put("config.load_s", "cli.load_config", span_s("config.load"))
    put("cli.row_s.p50", "cli._map_tasks", statistics.median(rows) if rows else 0.0)
    put("cli.row_s.max", "cli._map_tasks", rows[-1] if rows else 0.0)
    put("cli.write_csv_s", "cli.write_csv", span_s("cli.write_csv"))

    requests = c("coeffs.window_requests")
    computed = spans_named("coeffs.integrate")
    integrate_s = span_s("coeffs.integrate")
    put("coeffs.window_requests", "coeffs.CoefficientSet.accumulated", requests)
    put("coeffs.windows_computed", "coeffs.integrate_coefficients", computed)
    if "coeffs.CoefficientSet.accumulated" not in gone:
        put("coeffs.window_hit_ratio", "coeffs.integrate_coefficients",
            1.0 - computed / requests if requests else 0.0)
    put("coeffs.integrate_s", "coeffs.integrate_coefficients", integrate_s)
    put("coeffs.us_per_window", "coeffs.integrate_coefficients",
        1e6 * integrate_s / computed if computed else 0.0)
    put("coeffs.scaling_fit_s", "sharp.window_scaling_exponents", span_s("coeffs.scaling_fit"))

    for part, stage in (("window", "coeffs.adaptive_quadrature"),
                        ("source", "sharp.adaptive_quadrature")):
        for what in ("calls", "panels", "evals"):
            put(f"quadrature.{part}.{what}", stage, c(f"quadrature.{part}.{what}"))
    put("quadrature.source.capped", "sharp.adaptive_quadrature", c("quadrature.source.capped"))
    put("quadrature.source_s", "sharp.adaptive_quadrature", span_s("quadrature.source"))

    for leaf in ("spectral_norm", "matrix_exp"):
        put(f"matfun.{leaf}.calls", f"matfun.{leaf}", c(f"matfun.{leaf}.calls"))
        put(f"matfun.{leaf}_s", f"matfun.{leaf}", c(f"matfun.{leaf}_s"))

    field_s = c("kernels.field_s")
    points = c("kernels.field.points")
    put("kernels.field.calls", "kernels.gaussian_field", c("kernels.field.calls"))
    put("kernels.field.points", "kernels.gaussian_field", points)
    put("kernels.field_s", "kernels.gaussian_field", field_s)
    put("kernels.field.mpts_per_s", "kernels.gaussian_field",
        1e-6 * points / field_s if field_s > 0 else 0.0)

    put("sharp.node_table_s", "sharp._window_tables", span_s("sharp.node_table"))
    put("sharp.node_table.nodes", "sharp._window_tables", c("sharp.node_table.nodes"))
    put("sharp.tau_integral_s", "sharp._tau_integral", span_s("sharp.tau_integral"))
    put("sharp.sphere_search_s", "sharp._polish_on_sphere", span_s("sharp.sphere_search"))
    put("sharp.sphere_search.evals", "sharp._tangent_gradient",
        c("sharp.sphere_search.step.calls"))
    put("sharp.search_residual_max", "sharp._polish_on_sphere", c("sharp.search_residual_max"))
    put("sharp.convergence_s", "sharp._convergence", span_s("sharp.convergence"))

    put("solve.source_quadrature_s", "solve._source_quadrature",
        span_s("solve.source_quadrature"))
    put("solve.spacetime_norm_s", "solve.spacetime_norm", span_s("solve.spacetime_norm"))

    put("oracle.calls", "verification.opnorm_bruteforce", spans_named("oracle.opnorm"))
    put("oracle.opnorm_s", "verification.opnorm_bruteforce", span_s("oracle.opnorm"))
    put("verification.closed_form_s", "verification.closed_form_value",
        span_s("verification.closed_form"))
    put("verification.oracle_s", "verification.oracle_value", span_s("verification.oracle"))

    by_name = self_time_by_name(spans)
    total = sum(v for k, v in by_name.items() if k != "config.load")
    glue = sum(by_name.get(k, 0.0) for k in CLI_GLUE)
    m["trace.unattributed_frac"] = glue / total if total > 0 else 0.0
    return m
