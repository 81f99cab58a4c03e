"""Spans around the public functions of each headorder module.

The tracer patches module attributes from outside the package: every module
attribute bound to a traced function is replaced, so names re-bound by
import (`cli.analyze`, `reproduce.analyze`, ...) are traced too. Spans stay
in memory as [name, start, end, parent, request, counts] and are written out
when the run ends. Hot inner functions (the binomial log-pmf, the swap
distance) are counted on their enclosing span rather than given spans.

`layer_metrics` turns a span list into the per-layer numbers; it runs in the
benchmark process and does not import headorder.
"""

from __future__ import annotations

import math
from time import perf_counter

# (module, function) pairs that get a span named "module.function"
SPANNED = {
    "cli": ("main",),
    "reproduce": (
        "dryer_reports", "table2_rows", "check_table2", "table3_rows", "check_table3",
        "sov_footnote_rows", "sov_reproducing_p0", "check_sov_footnote", "fig2_csv",
        "check_fig2", "fig3_csv", "check_fig3", "sov_ring", "fig4_csv", "check_fig4",
    ),
    "dataio": (
        "load_frequency_table", "builtin_dryer_table", "builtin_sov_aggregates",
        "serialize_frequency_table", "head_end_test_rows", "distance_rows", "ci_rows",
        "reports_to_csv", "reports_to_text", "export_plot_data", "format_p_value",
    ),
    "stats": (
        "analyze", "quad_binomial_test", "right_binomial_test",
        "binomial_proportion_ci", "binomial_quantile",
    ),
    "nullmodel": (
        "enumerate_D_distribution", "null_moments", "check_three_sigma_assumptions",
        "is_unimodal",
    ),
    "trees": ("parse_tree", "star", "path"),
    "rings": ("build_ring", "ring_layout"),
}
LOAD = ("dataio.load_frequency_table",)
RENDER = ("dataio.reports_to_csv", "dataio.reports_to_text", "dataio.export_plot_data")
USEFUL_SHARE = math.log(2.0**-60)  # a term is useful if >= 2^-60 of its span's sum


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.request = None
        self._open: list[int] = []
        self._terms: dict[int, list[float]] = {}
        self._restore: list[tuple] = []

    def install(self) -> None:
        wrappers = {}
        for module_name, functions in SPANNED.items():
            module = getattr(self.package, module_name)
            for function in functions:
                original = getattr(module, function)
                wrappers[original] = self._spanned(f"{module_name}.{function}", original)
        stats, rings = self.package.stats, self.package.rings
        wrappers[stats.binomial_log_pmf] = self._log_pmf(stats.binomial_log_pmf)
        wrappers[rings.swap_distance] = self._swap_distance(rings.swap_distance)
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def _modules(self):
        yield self.package
        for name in vars(self.package).copy():
            module = getattr(self.package, name)
            if getattr(module, "__name__", "").startswith(self.package.__name__ + "."):
                yield module

    def _spanned(self, name, fn):
        spans, stack = self.spans, self._open

        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else None, self.request, None]
            spans.append(record)
            stack.append(index)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
                terms = self._terms.pop(index, None)
                if terms:
                    _add(record, "stats.log_pmf.terms", len(terms))
                    _add(record, "stats.log_pmf.useful", _useful(terms))
            if name in LOAD and isinstance(args[0], (bytes, str)):
                _add(record, "dataio.bytes_in", _size(args[0]))
            elif name in RENDER:
                _add(record, "dataio.bytes_out", _size(result))
            return result

        return wrapper

    def _log_pmf(self, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            index = self._open[-1]
            _add(self.spans[index], "stats.log_pmf.calls", 1)
            self._terms.setdefault(index, []).append(result)
            return result

        return wrapper

    def _swap_distance(self, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            record = self.spans[self._open[-1]]
            _add(record, "rings.swap_distance.calls", 1)
            if result == 1:
                _add(record, "rings.swap_distance.hits", 1)
            return result

        return wrapper


def _add(record, key, amount):
    if record[5] is None:
        record[5] = {}
    record[5][key] = record[5].get(key, 0) + amount


def _size(text) -> int:
    return len(text.encode("utf-8")) if isinstance(text, str) else len(text)


def _useful(terms: list[float]) -> int:
    peak = max(terms)
    if peak == -math.inf:
        return 0
    log_sum = peak + math.log(math.fsum(math.exp(t - peak) for t in terms))
    return sum(1 for t in terms if t >= log_sum + USEFUL_SHARE)


# -- per-layer numbers from spans ----------------------------------------------

# metric -> span names whose outermost occurrences give its inclusive time
INCLUSIVE_MS = {
    "reproduce.check_ms": tuple(
        f"reproduce.{f}" for f in SPANNED["reproduce"] if f.startswith("check_")
    ),
    "dataio.load_ms": ("dataio.load_frequency_table", "dataio.builtin_dryer_table",
                       "dataio.builtin_sov_aggregates"),
    "dataio.render_ms": tuple(
        f"dataio.{f}" for f in SPANNED["dataio"]
        if f not in ("load_frequency_table", "builtin_dryer_table", "builtin_sov_aggregates")
    ),
    "stats.right_tail_ms": ("stats.right_binomial_test",),
    "stats.quantile_ms": ("stats.binomial_quantile",),
    "nullmodel.enumerate_ms": ("nullmodel.enumerate_D_distribution",),
    "nullmodel.moments_ms": ("nullmodel.null_moments",),
    "nullmodel.unimodal_ms": ("nullmodel.check_three_sigma_assumptions",
                              "nullmodel.is_unimodal"),
    "trees.build_ms": ("trees.parse_tree", "trees.star", "trees.path"),
    "rings.build_ms": ("rings.build_ring",),
}
SELF_MS = {"cli.self_ms": "cli.main", "stats.analyze_ms": "stats.analyze"}
CALLS = {
    "reproduce.dryer_reports.calls": "reproduce.dryer_reports",
    "reproduce.sov_footnote_rows.calls": "reproduce.sov_footnote_rows",
    "stats.right_tail.calls": "stats.right_binomial_test",
    "stats.quantile.calls": "stats.binomial_quantile",
    "nullmodel.enumerate.calls": "nullmodel.enumerate_D_distribution",
}
PER_REQUEST = (
    "dataio.bytes_in", "dataio.bytes_out", "stats.log_pmf.calls",
    "rings.swap_distance.calls",
)
# ratio metric -> (numerator counter, denominator counter), summed over requests
RATIOS = {
    "stats.log_pmf.per_tail": ("stats.log_pmf.in_tails", "stats.right_tail.calls"),
    "stats.log_pmf.per_quantile": ("stats.log_pmf.in_quantiles", "stats.quantile.calls"),
    "stats.log_pmf.useful_ratio": ("stats.log_pmf.useful", "stats.log_pmf.terms"),
    "rings.edge_hit_ratio": ("rings.swap_distance.hits", "rings.swap_distance.calls"),
}
# counters that are also reported per request kind
KIND_COUNTS = (
    "stats.log_pmf.calls", "reproduce.dryer_reports.calls",
    "reproduce.sov_footnote_rows.calls", "stats.right_tail.calls",
    "stats.quantile.calls", "nullmodel.enumerate.calls", "rings.swap_distance.calls",
)


def layer_metrics(spans: list[list], kinds: dict[int, str], scale: dict[int, float]):
    """(per-request metrics, mean counts per request kind) of the traced requests.

    `kinds` maps each traced request id to its kind label, `scale` to the
    factor that puts its span times at reference speed.
    """
    children_ms = [0.0] * len(spans)
    for name, start, end, parent, request, counts in spans:
        if parent is not None:
            children_ms[parent] += (end - start) * 1e3
    group_of = {name: metric for metric, names in INCLUSIVE_MS.items() for name in names}
    calls_of = {name: metric for metric, name in CALLS.items()}
    self_of = {name: metric for metric, name in SELF_MS.items()}
    per_request: dict[int, dict[str, float]] = {r: {} for r in kinds}
    for index, (name, start, end, parent, request, counts) in enumerate(spans):
        bucket = per_request[request]
        found = dict(counts or {})
        ms = (end - start) * 1e3 * scale[request]
        if name in group_of and not _inside(spans, parent, INCLUSIVE_MS[group_of[name]]):
            found[group_of[name]] = ms
        if name in self_of:
            found[self_of[name]] = ms - children_ms[index] * scale[request]
        if name in calls_of:
            found[calls_of[name]] = 1
        pmf_calls = found.get("stats.log_pmf.calls", 0)
        if name == "stats.right_binomial_test":
            found["stats.log_pmf.in_tails"] = pmf_calls
        elif name == "stats.binomial_quantile":
            found["stats.log_pmf.in_quantiles"] = pmf_calls
        for key, amount in found.items():
            bucket[key] = bucket.get(key, 0.0) + amount

    totals: dict[str, float] = {}
    for bucket in per_request.values():
        for key, amount in bucket.items():
            totals[key] = totals.get(key, 0.0) + amount
    requests = len(kinds)
    metrics = {
        metric: totals.get(metric, 0.0) / requests
        for metric in (*SELF_MS, *INCLUSIVE_MS, *CALLS, *PER_REQUEST)
    }
    for metric, (part, whole) in RATIOS.items():
        metrics[metric] = totals.get(part, 0.0) / totals[whole] if totals.get(whole) else 0.0

    by_kind: dict[str, dict[str, float]] = {}
    seen: dict[str, int] = {}
    for request, kind in kinds.items():
        seen[kind] = seen.get(kind, 0) + 1
        row = by_kind.setdefault(kind, dict.fromkeys(KIND_COUNTS, 0.0))
        for key in KIND_COUNTS:
            row[key] += per_request[request].get(key, 0.0)
    for kind, row in by_kind.items():
        for key in row:
            row[key] /= seen[kind]
    return metrics, by_kind


def _inside(spans, parent, names) -> bool:
    while parent is not None:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False
