"""Spans around coefflab's module functions, and the per-layer metrics built from them.

A traced op runs with module attributes of coefflab rebound to wrappers that
record a span per call: name ``<module>.<function>``, start and end
(``time.perf_counter``), the index of the span that caused it and the op id.
Rebinding reaches every call that looks the name up at call time: the
benchmark's own calls and the calls between coefflab modules.  The package's
files are not touched, and the wrappers are removed after each traced op.
Spans stay in memory (the first ``keep`` in full, all of them in the per-name
totals) and are written out when the run ends.

Hot inner functions (``coefficient_quintet``, the closed-form callables) and
``project_feasible``, which stands in for the search's private inlined copy
``_repair``, are not wrapped: a span per call would cost as much as the call.
They, and ``schwarz_feasible``, are timed per call on a fixed batch of points
instead, in every traced run.

Which end-to-end metric each per-layer metric should move, and where:

- search.campaign_ms, search.refine_ms (one refine = one restart),
  search.evals_per_s: op_p50_ms on report.
- search.sample_point_us, search.restart_setup_us (campaign minus refine and
  sample_point, per restart): op_p50_ms on search_wide, not on report.
- search.evaluations, search.unseeded_hit_rate: no timing; the useful-work ratio.
- class_u.coefficient_quintet_us, functionals.closed_form_fn_us,
  class_u.project_feasible_us (stand-in for ``_repair``): report.
- class_u.schwarz_feasible_us: search_wide.
- functionals.window_us, .closed_form_us, .det_value_us,
  class_u.u_coefficients_us, series.reciprocal_us,
  class_u.membership_samples_per_s: op_p50_ms on verify, not on search_wide.
- class_u.membership_wrong_verdicts: known_defect_rate (and fail_rate) on verify.
- bound_calculus.chains_ms, cli.render_json_ms, cli.self_ms: report, under 1%.
- trace.overhead: traced over untraced op_p50_ms; moves nothing.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import time
from collections import defaultdict

from coefflab import class_u, functionals

from workloads import IDS, region_points

#: (module, attribute, span name).  One function bound under several names
#: gets the same span name, the name of the module that defines it.
PATCHES = (
    ("coefflab.cli", "main", "cli.main"),
    ("coefflab.cli", "render_json", "cli.render_json"),
    ("coefflab.cli", "campaign", "search.campaign"),
    ("coefflab.cli", "sample_point", "search.sample_point"),
    ("coefflab.cli", "catalog_witness", "search.catalog_witness"),
    ("coefflab.cli", "objective_reference", "search.objective_reference"),
    ("coefflab.cli", "theorem_chain", "bound_calculus.theorem_chain"),
    ("coefflab.cli", "verify_stated_values", "bound_calculus.verify_stated_values"),
    ("coefflab.cli", "membership_max_defect", "class_u.membership_max_defect"),
    ("coefflab.cli", "CoefficientWindow", "functionals.CoefficientWindow"),
    ("coefflab.cli", "closed_form", "functionals.closed_form"),
    ("coefflab.cli", "det_value", "functionals.det_value"),
    ("coefflab.search", "campaign", "search.campaign"),
    ("coefflab.search", "sample_point", "search.sample_point"),
    # The body of the public refine(); campaign calls it once per restart.
    ("coefflab.search", "_refine_counted", "search.refine"),
    ("coefflab.search", "schwarz_feasible", "class_u.schwarz_feasible"),
    ("coefflab.search", "u_coefficients", "class_u.u_coefficients"),
    ("coefflab.search", "closed_form", "functionals.closed_form"),
    ("coefflab.search", "theorem_chain", "bound_calculus.theorem_chain"),
    ("coefflab.class_u", "u_coefficients", "class_u.u_coefficients"),
    ("coefflab.class_u", "membership_max_defect", "class_u.membership_max_defect"),
    ("coefflab.class_u", "CoefficientWindow", "functionals.CoefficientWindow"),
    ("coefflab.class_u", "series_reciprocal", "series.series_reciprocal"),
    ("coefflab.series", "series_reciprocal", "series.series_reciprocal"),
    ("coefflab.functionals", "CoefficientWindow", "functionals.CoefficientWindow"),
    ("coefflab.functionals", "closed_form", "functionals.closed_form"),
    ("coefflab.functionals", "det_value", "functionals.det_value"),
)


def _membership_samples(fn, args, kwargs, result) -> float:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return len(bound.arguments["radii"]) * bound.arguments["samples_per_circle"]


#: Work counted at a span, as (counter, amount(fn, args, kwargs, result)).
WORK = {
    "search.campaign": ("search.evaluations", lambda fn, a, k, r: r.evaluations_used),
    "class_u.membership_max_defect": ("class_u.membership_samples", _membership_samples),
}

#: Name of the root span of every traced op.
OP_SPAN = "bench.op"


class Tracer:
    def __init__(self, keep: int = 100_000):
        self.keep = keep
        self.spans: list[tuple] = []
        self.started = 0
        # name -> [calls, busy s, self s, ops with a call, last op id]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, 0, -1])
        self.edges = defaultdict(lambda: [0, 0.0])  # (parent, child) -> [calls, busy s]
        self.work = defaultdict(float)
        self.ops = 0
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn):
        stack = self._stack
        perf = time.perf_counter
        counter, amount = WORK.get(name, (None, None))

        def traced(*args, **kwargs):
            frame = [name, 0.0, self.started]  # name, child busy time, span index
            self.started += 1
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                self._close(frame, parent, start, end)
            if counter:
                self.work[counter] += amount(fn, args, kwargs, result)
            return result

        return traced

    def _close(self, frame, parent, start, end) -> None:
        name, child, index = frame
        busy = end - start
        s = self.stats[name]
        s[0] += 1
        s[1] += busy
        s[2] += busy - child
        if s[4] != self.ops:
            s[3] += 1
            s[4] = self.ops
        if parent is not None:
            parent[1] += busy
            e = self.edges[(parent[0], name)]
            e[0] += 1
            e[1] += busy
        if index < self.keep:
            self.spans.append((index, name, start, end, parent[2] if parent else None, self.ops))

    def op(self, fn, *args):
        """Run one op under the wrappers, as the root span of a new op id."""
        wrappers = {}
        for module, attr, name in PATCHES:
            m = importlib.import_module(module)
            real = getattr(m, attr, None)
            if real is None:
                # renamed or removed in the package: that layer goes untraced
                if f"{module}.{attr}" not in self.missing:
                    self.missing.append(f"{module}.{attr}")
                continue
            if id(real) not in wrappers:
                wrappers[id(real)] = self.wrap(name, real)
            self._saved.append((m, attr, real))
            setattr(m, attr, wrappers[id(real)])
        try:
            return self.wrap(OP_SPAN, fn)(*args)
        finally:
            while self._saved:
                m, attr, real = self._saved.pop()
                setattr(m, attr, real)
            self.ops += 1

    def table(self) -> list[dict]:
        rows = [{"name": n, "calls": c, "busy_ms": 1e3 * b, "self_ms": 1e3 * s, "ops": k}
                for n, (c, b, s, k, _) in self.stats.items()]
        return sorted(rows, key=lambda r: -r["busy_ms"])

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["index", "name", "start", "end", "parent", "op"],
                                 "spans_started": self.started, "kept": len(self.spans)}) + "\n")
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# Per-call timings of functions too hot to wrap.
# ---------------------------------------------------------------------------


def _per_call_us(loop, calls: int, passes: int = 15) -> float:
    times = []
    for _ in range(passes):
        t0 = time.perf_counter()
        loop()
        times.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(times) / calls


#: Points in the fixed batch the per-call timings use.
PER_CALL_POINTS = 256


def per_call_timings(rng, n: int = PER_CALL_POINTS) -> dict[str, float]:
    points = region_points(rng, n)
    quintet = class_u.coefficient_quintet
    args = [(a2, *quintet(a2, c1, c2, c3)) for a2, c1, c2, c3 in points]
    fns = [functionals.closed_form_function(d) for d in IDS]
    # 1.5x outside the region, so each projection has radial work to do
    outside = [class_u.SchwarzParams(1.5 * c1, 1.5 * c2 + 0.3, 1.5 * c3 + 0.3)
               for _, c1, c2, c3 in points]
    inside = [class_u.SchwarzParams(c1, c2, c3) for _, c1, c2, c3 in points]

    def quintets():
        for p in points:
            quintet(*p)

    def closed_forms():
        for a in args:
            for fn in fns:
                fn(*a)

    def projections():
        for p in outside:
            class_u.project_feasible(p)

    def feasibility():
        for p in inside:
            class_u.schwarz_feasible(p)

    return {
        "class_u.coefficient_quintet_us": _per_call_us(quintets, n),
        "functionals.closed_form_fn_us": _per_call_us(closed_forms, n * len(fns)),
        "class_u.project_feasible_us": _per_call_us(projections, n),
        "class_u.schwarz_feasible_us": _per_call_us(feasibility, n),
    }


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: cli commands traced in every traced run, so that a layer the workload
#: leaves idle still gets a measured figure; the output marks it "probe".
PROBE = (
    ("search", "--objective", "T2,2", "--starts", "16", "--budget", "64"),
    ("bounds", "--all"),
    ("membership", "--function", "f1", "--radius", "0.9", "--samples", "64"),
    ("eval", "--function", "f1", "--det", "T3,3"),
)
PROBE_ROUNDS = 3

#: metric -> (span name, statistic, scale, unit) for metrics read off one span name.
SPAN_METRICS = {
    "search.campaign_ms": ("search.campaign", "mean_busy", 1e3, "ms"),
    "search.refine_ms": ("search.refine", "mean_busy", 1e3, "ms"),
    "search.sample_point_us": ("search.sample_point", "mean_busy", 1e6, "us"),
    "functionals.window_us": ("functionals.CoefficientWindow", "mean_busy", 1e6, "us"),
    "functionals.closed_form_us": ("functionals.closed_form", "mean_busy", 1e6, "us"),
    "functionals.det_value_us": ("functionals.det_value", "mean_busy", 1e6, "us"),
    "class_u.u_coefficients_us": ("class_u.u_coefficients", "mean_busy", 1e6, "us"),
    "series.reciprocal_us": ("series.series_reciprocal", "mean_busy", 1e6, "us"),
    "cli.render_json_ms": ("cli.render_json", "mean_busy", 1e3, "ms"),
    "cli.self_ms": ("cli.main", "mean_self", 1e3, "ms"),
    # every bound_calculus span, per op that makes one
    "bound_calculus.chains_ms": ("bound_calculus.", "layer_busy_per_op", 1e3, "ms"),
    "search.restart_setup_us": ("search.campaign", "restart_setup", 1e6, "us"),
    "search.evals_per_s": ("search.campaign", "evals_per_s", 1.0, "1/s"),
    "class_u.membership_samples_per_s": ("class_u.membership_max_defect", "samples_per_s",
                                         1.0, "1/s"),
}


def _statistic(t: Tracer, span: str, kind: str) -> float:
    if kind == "layer_busy_per_op":
        layer = [v for name, v in t.stats.items() if name.startswith(span)]
        return sum(v[1] for v in layer) / max(v[3] for v in layer)
    calls, busy, self_time, ops, _ = t.stats[span]
    if kind == "mean_busy":
        return busy / calls
    if kind == "mean_self":
        return self_time / calls
    if kind == "evals_per_s":
        return t.work["search.evaluations"] / busy
    if kind == "samples_per_s":
        return t.work["class_u.membership_samples"] / busy
    # restart_setup: campaign time outside refine and sample_point, per restart
    refine_calls, refine_busy = t.edges[(span, "search.refine")]
    _, sample_busy = t.edges[(span, "search.sample_point")]
    return (busy - refine_busy - sample_busy) / refine_calls if refine_calls else 0.0


def layer_metrics(ops: Tracer, probe: Tracer) -> dict[str, dict]:
    """Per-layer figures from the workload's traced ops, else from the probe."""
    def calls(t: Tracer, span: str) -> int:
        if span.endswith("."):
            return sum(v[0] for name, v in t.stats.items() if name.startswith(span))
        return t.stats[span][0] if span in t.stats else 0

    out = {}
    for metric, (span, kind, scale, unit) in SPAN_METRICS.items():
        source, t = ("op", ops) if calls(ops, span) else ("probe", probe)
        n = calls(t, span)
        value = scale * _statistic(t, span, kind) if n else 0.0
        out[metric] = {"value": value, "unit": unit, "n": n, "source": source}
    return out
