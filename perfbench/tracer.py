"""Spans around the calls into postfeas's public functions.

The tracer wraps each listed function at every attribute of every loaded
``postfeas`` module that holds it, so a call is seen however its caller
looked it up (``postfeas.solve_lp``, ``experiments.solve_lp``,
``robustify.solve_lp``, ...).  Each call records one span: a label, a
start, an end and the index of its parent span.  Spans stay in memory
until the run ends.  A listed function that no longer exists is
reported as absent; nothing in the program itself is edited.

Self time of a span is its duration minus the durations of its child
spans.  The process has one thread, so children never overlap.
"""

from __future__ import annotations

import json
import sys
import time


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index]


def _count_solve_lp(args, kwargs, res):
    return {"iters": res.iterations,
            "rows_max": _arg(args, kwargs, 0, "problem").m}


def _count_cutting_planes(args, kwargs, res):
    log = res[1]
    return {"rounds": log.rounds, "cuts": log.total_cuts}


def _count_scenario_lp(args, kwargs, res):
    base = _arg(args, kwargs, 0, "base")
    coeff = _arg(args, kwargs, 1, "scen").coeff
    return {"rows_in": coeff.shape[0] * coeff.shape[1], "kept": res.m - base.m}


# (home module, function, counters).  The label is "<module>.<function>"
# unless GROUPS below merges several functions under one label.
TARGETS = (
    ("lp", "solve_lp", _count_solve_lp),
    ("stats", "gamma_array", lambda a, k, r: {"draws": r.size}),
    ("stats", "student_t_array", None),
    ("stats", "beta_array", None),
    ("stats", "student_t_quantile", None),
    ("stats", "beta_quantile", None),
    ("stats", "chi2_quantile", None),
    ("posterior", "fit_nig", None),
    ("posterior", "predictive", None),
    ("posterior", "fit_ols", None),
    ("posterior", "q_matrix_draws", lambda a, k, r: {"draws": r.shape[0]}),
    ("posterior", "load_panel_data", None),
    ("robustify", "solve_robust_cutting_planes", _count_cutting_planes),
    ("robustify", "soc_support", None),
    ("robustify", "rhs_quantile_tighten", None),
    ("scenario", "build_scenario_lp", _count_scenario_lp),
    ("certify", "certify", lambda a, k, r: {"draws": r.M}),
    ("certify", "clopper_pearson_upper", None),
    ("experiments", "gen_instance", None),
    ("experiments", "run_method", None),
    ("experiments", "panel_select", None),
    ("experiments", "panel_certify_detail",
     lambda a, k, r: {"draws": r[0].M}),
    ("experiments", "write_trials_csv", None),
    ("experiments", "write_by_alpha_csv", None),
    ("experiments", "write_overall_csv", None),
    ("experiments", "write_panel_csv", None),
    ("experiments", "write_panel_clusters_csv", None),
    ("cli", "main", None),
    ("svg", "bar_chart", None),
    ("svg", "scatter_chart", None),
    ("svg", "box_chart", None),
)

GROUPS = {
    "experiments.write_trials_csv": "experiments.write_csv",
    "experiments.write_by_alpha_csv": "experiments.write_csv",
    "experiments.write_overall_csv": "experiments.write_csv",
    "experiments.write_panel_csv": "experiments.write_csv",
    "experiments.write_panel_clusters_csv": "experiments.write_csv",
    "svg.bar_chart": "svg",
    "svg.scatter_chart": "svg",
    "svg.box_chart": "svg",
}

# run_method spans are also split by their first argument, the method.
SPLIT_BY_FIRST_ARG = {"experiments.run_method"}


class Tracer:
    """Records spans and counters while installed; idle otherwise."""

    def __init__(self):
        self.spans: list[list] = []  # [label, start, end, parent]
        self.counters: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, label, fn, count):
        spans, stack = self.spans, self._stack
        split = label in SPLIT_BY_FIRST_ARG
        clock = time.perf_counter

        def traced(*args, **kwargs):
            name = f"{label}.{args[0]}" if split and args else label
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = [name, clock(), 0.0, parent]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                self._count(label, count, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, label, count, args, kwargs, result):
        try:
            values = count(args, kwargs, result)
        except (AttributeError, IndexError, KeyError, TypeError):
            self.absent.add(f"{label} counters")
            return
        for key, value in values.items():
            name = f"{label}.{key}"
            if key.endswith("_max"):
                self.maxima[name] = max(self.maxima.get(name, 0.0), float(value))
            else:
                self.counters[name] = self.counters.get(name, 0.0) + float(value)

    def prepare(self):
        """Find every module attribute to patch; call once after import."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None
                   and (name == "postfeas" or name.startswith("postfeas."))]
        found = set()
        for home, func, count in TARGETS:
            label = GROUPS.get(f"{home}.{func}", f"{home}.{func}")
            original = getattr(sys.modules.get(f"postfeas.{home}"), func, None)
            if not callable(original):
                continue
            found.add(label)
            wrapper = self._wrap(label, original, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original, wrapper))
        self.absent |= {GROUPS.get(f"{h}.{f}", f"{h}.{f}")
                        for h, f, _ in TARGETS} - found

    def install(self):
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    # -- results ------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Summed self time and call count per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        selfs: dict[str, float] = {}
        calls: dict[str, int] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            selfs[name] = selfs.get(name, 0.0) + (end - start - child[i])
            calls[name] = calls.get(name, 0) + 1
        return selfs, calls

    def write(self, path) -> None:
        """Spans as JSON: names once, then [name, start, end, parent] rows."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[n], round(s - t0, 9), round(e - t0, 9), p]
                for n, s, e, p in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "spans": rows}, fh,
                      separators=(",", ":"))


# Per-layer metrics of the traced run, in BENCHMARK.json order.  Counts
# and self times are per op; ms_per_iter, rows_max and kept_ratio are
# taken over the whole traced phase.
PER_LAYER = (
    ("lp.solve_lp.calls", "count/op"),
    ("lp.solve_lp.s", "s/op"),
    ("lp.solve_lp.iters", "count/op"),
    ("lp.solve_lp.ms_per_iter", "ms"),
    ("lp.solve_lp.rows_max", "count"),
    ("stats.gamma_array.s", "s/op"),
    ("stats.gamma_array.draws", "count/op"),
    ("stats.student_t_array.s", "s/op"),
    ("stats.beta_array.s", "s/op"),
    ("stats.student_t_quantile.calls", "count/op"),
    ("stats.student_t_quantile.s", "s/op"),
    ("stats.beta_quantile.calls", "count/op"),
    ("stats.beta_quantile.s", "s/op"),
    ("stats.chi2_quantile.s", "s/op"),
    ("posterior.fit_nig.calls", "count/op"),
    ("posterior.fit_nig.s", "s/op"),
    ("posterior.predictive.calls", "count/op"),
    ("posterior.predictive.s", "s/op"),
    ("posterior.fit_ols.s", "s/op"),
    ("posterior.q_matrix_draws.draws", "count/op"),
    ("posterior.q_matrix_draws.s", "s/op"),
    ("posterior.load_panel_data.s", "s/op"),
    ("robustify.solve_robust_cutting_planes.rounds", "count/op"),
    ("robustify.solve_robust_cutting_planes.cuts", "count/op"),
    ("robustify.solve_robust_cutting_planes.s", "s/op"),
    ("robustify.soc_support.calls", "count/op"),
    ("robustify.soc_support.s", "s/op"),
    ("robustify.rhs_quantile_tighten.s", "s/op"),
    ("scenario.build_scenario_lp.s", "s/op"),
    ("scenario.build_scenario_lp.rows_in", "count/op"),
    ("scenario.build_scenario_lp.kept_ratio", "ratio"),
    ("certify.certify.calls", "count/op"),
    ("certify.certify.draws", "count/op"),
    ("certify.certify.s", "s/op"),
    ("certify.clopper_pearson_upper.calls", "count/op"),
    ("certify.clopper_pearson_upper.s", "s/op"),
    ("experiments.gen_instance.s", "s/op"),
    ("experiments.run_method.s", "s/op"),
    ("experiments.run_method.CR.s", "s/op"),
    ("experiments.run_method.FPQ.s", "s/op"),
    ("experiments.run_method.PM.s", "s/op"),
    ("experiments.run_method.PS.s", "s/op"),
    ("experiments.run_method.RB.s", "s/op"),
    ("experiments.panel_select.s", "s/op"),
    ("experiments.panel_certify_detail.s", "s/op"),
    ("experiments.panel_certify_detail.draws", "count/op"),
    ("experiments.write_csv.s", "s/op"),
    ("cli.main.s", "s/op"),
    ("svg.s", "s/op"),
    ("trace.overhead_s", "s"),
)


def _label_of(name: str) -> str:
    """Span label a metric reads: 'lp.solve_lp.iters' -> 'lp.solve_lp'."""
    label = name.rsplit(".", 1)[0]
    if label.startswith("experiments.run_method."):
        return "experiments.run_method"
    return label


def layer_metrics(tracer: Tracer, ops: int) -> dict:
    """PER_LAYER metrics but trace.overhead_s, which run.py adds.

    Absent ones read 0 and are listed by absent_metrics.
    """
    selfs, calls = tracer.self_times()

    def summed(table, label):
        return sum(v for k, v in table.items()
                   if k == label or k.startswith(label + "."))

    out = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_s":
            continue
        label, quantity = name.rsplit(".", 1)
        if quantity == "s":
            value = summed(selfs, label) / ops
        elif quantity == "calls":
            value = summed(calls, label) / ops
        elif quantity == "ms_per_iter":
            iters = tracer.counters.get(f"{label}.iters", 0.0)
            value = 1000.0 * selfs.get(label, 0.0) / iters if iters else 0.0
        elif quantity == "kept_ratio":
            offered = tracer.counters.get(f"{label}.rows_in", 0.0)
            kept = tracer.counters.get(f"{label}.kept", 0.0)
            value = kept / offered if offered else 0.0
        elif quantity.endswith("_max"):
            value = tracer.maxima.get(name, 0.0)
        else:
            value = tracer.counters.get(name, 0.0) / ops
        out[name] = {"value": value, "unit": unit}
    return out


def absent_metrics(tracer: Tracer) -> list[str]:
    """PER_LAYER metrics whose function, or whose counters, are gone."""
    return [name for name, _ in PER_LAYER
            if _label_of(name) in tracer.absent
            or (name.rsplit(".", 1)[1] not in ("s", "calls")
                and f"{_label_of(name)} counters" in tracer.absent)]
