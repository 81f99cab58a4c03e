"""Recompute the published tables and figures from the embedded data.

Each target has a builder (rows or CSV from the live pipeline) and a checker
returning a list of mismatch descriptions; an empty list means the
reproduction passes. Every published-value comparison goes through one loop,
`_compare`, under the column rules kept beside the tables in `published`.
Builders and checkers take the Dryer reports (`dryer_reports`) or the S/O/V
rows (`sov_footnote_rows`) as an argument, so one run computes each once
however many targets use it.
"""

from __future__ import annotations

from fractions import Fraction

from . import published
from .dataio import builtin_dryer_table, builtin_sov_aggregates, distance_rows
from .dataio import export_plot_data, head_end_test_rows
from .rings import build_ring
from .stats import HeadPlacementReport, analyze, right_binomial_test

SOV_NULL_PROBABILITIES = (Fraction(1, 2), Fraction(2, 3))


def dryer_reports(alpha: float = 0.05) -> list[HeadPlacementReport]:
    return analyze(builtin_dryer_table(), alpha=alpha)


def table2_rows(
    reports: list[HeadPlacementReport],
) -> list[tuple[str, float, int, int, float]]:
    return head_end_test_rows(reports)


def check_table2(rows) -> list[str]:
    ref = published.TABLE2_PUBLISHED
    labels = [f"{unit} (F={F}, g={g})" for unit, _, F, g, _ in ref]
    return _compare(rows, ref, labels, published.TABLE2_COLUMNS, published.TABLE2_RULES)


def table3_rows(reports: list[HeadPlacementReport]):
    return distance_rows(reports)


def check_table3(rows) -> list[str]:
    ref = published.TABLE3_PUBLISHED
    labels = [f"{unit} (F={F})" for unit, F, *_ in ref]
    return _compare(rows, ref, labels, published.TABLE3_COLUMNS, published.TABLE3_RULES)


def sov_footnote_rows() -> list[tuple[str, int, int, Fraction, float]]:
    """Right-tail p-values for the dominant-order aggregates, both null p's."""
    rows = []
    for unit, (F, g) in builtin_sov_aggregates().items():
        for p0 in SOV_NULL_PROBABILITIES:
            rows.append((unit, F, g, p0, right_binomial_test(g, F, p0)))
    return rows


def sov_reproducing_p0(rows) -> dict[str, list[Fraction]]:
    """Null probabilities whose p-value lands within 10x of the published one."""
    matches: dict[str, list[Fraction]] = {unit: [] for unit, *_ in rows}
    for unit, _, _, p0, p in rows:
        if published.within_order_of_magnitude(p, published.SOV_PUBLISHED[unit]):
            matches[unit].append(p0)
    return matches


def check_sov_footnote(rows) -> list[str]:
    """Each unit is reproduced by exactly one p0, the same one for all units."""
    matches = sov_reproducing_p0(rows)
    distinct = {tuple(p0s) for p0s in matches.values()}
    if len(distinct) == 1 and all(len(p0s) == 1 for p0s in distinct):
        return []
    return [f"not one null probability common to all units: {matches}"]


def fig2_csv(reports: list[HeadPlacementReport]) -> str:
    return export_plot_data(reports, "fig2")


def check_fig2(reports: list[HeadPlacementReport]) -> list[str]:
    first = {row[0]: row for row in reversed(published.TABLE2_PUBLISHED)}
    problems = _compare(
        [(r.proportion,) for r in reports],
        [first[r.unit][1:2] for r in reports],
        [r.unit for r in reports],
        published.TABLE2_COLUMNS[1:2],
        published.TABLE2_RULES[1:2],
    )
    return problems + [
        f"{r.unit}: interval [{lo}, {hi}] does not bracket {prop}"
        for r in reports
        for lo, hi, prop in ((*r.ci_ends, r.proportion), (*r.ci_mid, 1 - r.proportion))
        if not 0.0 <= lo <= prop <= hi <= 1.0
    ]


def fig3_csv(reports: list[HeadPlacementReport]) -> str:
    return export_plot_data(reports, "fig3")


def check_fig3(reports: list[HeadPlacementReport]) -> list[str]:
    first = {row[0]: row for row in reversed(published.TABLE3_PUBLISHED)}
    return _compare(
        [(r.null_mean_D, r.sigma_mean_D, r.mean_D) for r in reports],
        [first[r.unit][3:6] for r in reports],
        [r.unit for r in reports],
        published.TABLE3_COLUMNS[3:6],
        published.TABLE3_RULES[3:6],
    )


def sov_ring(frequencies=None):
    return build_ring("SOV", frequencies)


def fig4_csv() -> str:
    return export_plot_data(sov_ring(), "fig4")


def check_fig4() -> list[str]:
    ring, cycle = sov_ring(), published.RING_NODES_PUBLISHED
    edges = sorted(map(sorted, zip(cycle, cycle[1:] + cycle[:1])))
    return _compare(
        [(ring.nodes, sorted(map(sorted, ring.edges)))],
        [(cycle, edges)],
        ["SOV ring"],
        published.RING_COLUMNS,
        published.RING_RULES,
    )


def _compare(rows, expected, labels, columns, rules) -> list[str]:
    """One message, led by its row's label, per cell that breaks its column's rule."""
    if len(rows) != len(expected):
        return [f"expected {len(expected)} rows, computed {len(rows)}"]
    return [
        f"{label}: {column} {value} vs published {reference}"
        for row, reference_row, label in zip(rows, expected, labels)
        for column, rule, value, reference in zip(columns, rules, row, reference_row)
        if not published.agrees(value, reference, rule)
    ]
