"""The reproduction gate: published values, their rules, and every target.

Each target has a builder (rows or CSV from the live pipeline) and a checker
returning a list of mismatch descriptions; an empty list means it passes.
Every published column carries its rule: EXACT, SIG_FIGS (p-values to two
significant figures) or an absolute tolerance. One loop, `_compare`, applies
them. `run` renders the requested targets and computes the Dryer reports and
the S/O/V rows once each, however many targets use them.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .dataio import DISTANCE, HEAD_END_TEST, SOV_FOOTNOTE, builtin_dryer_table
from .dataio import builtin_sov_aggregates, ci_rows, distance_rows, export_plot_data
from .dataio import head_end_test_rows
from .rings import build_ring
from .stats import HeadPlacementReport, analyze, right_binomial_test

EXACT = "exact"
SIG_FIGS = "two significant figures"
PROPORTION_TOL = 1e-3
MEAN_D_TOL = 1e-3
SIGMA_TOL = 1e-3
K_TOL = 1e-2
F_TOL = 1e-9

# Each table's COLUMNS name its columns and its RULES say how each is compared.
# Fractional-unit rows repeat per integer transform; a unit's first row is exact.
TABLE2_COLUMNS = ("unit", "proportion", "counts F", "counts g", "p-value")
TABLE2_RULES = (EXACT, PROPORTION_TOL, EXACT, EXACT, SIG_FIGS)
TABLE2_PUBLISHED: tuple[tuple[str, float, int, int, float], ...] = (
    ("languages", 0.641, 576, 369, 7.3e-12),
    ("genera", 0.596, 322, 192, 3.3e-4),
    ("adjusted", 0.567, 217, 123, 0.029),
    ("adjusted", 0.564, 218, 123, 0.034),
    ("adjusted", 0.571, 217, 124, 0.021),
    ("adjusted", 0.569, 218, 124, 0.025),
)

TABLE3_COLUMNS = ("unit", "F", "D_min", "null mean", "sigma", "<D>", "D_max", "k")
TABLE3_RULES = (EXACT, F_TOL, EXACT, EXACT, SIGMA_TOL, MEAN_D_TOL, EXACT, K_TOL)
TABLE3_PUBLISHED: tuple[tuple[str, float, int, int, float, float, int, float], ...] = (
    ("languages", 576, 4, 5, 0.042, 5.281, 6, 6.75),
    ("genera", 322, 4, 5, 0.056, 5.193, 6, 3.46),
    ("adjusted", 217.4, 4, 5, 0.068, 5.133, 6, 1.97),
    ("adjusted", 217, 4, 5, 0.068, 5.134, 6, 1.97),
    ("adjusted", 218, 4, 5, 0.068, 5.128, 6, 1.9),
    ("adjusted", 217, 4, 5, 0.068, 5.143, 6, 2.1),
    ("adjusted", 218, 4, 5, 0.068, 5.138, 6, 2.03),
)

# published right-tail p-values for the verb-end test on dominant S/O/V orders
SOV_PUBLISHED: dict[str, float] = {"languages": 2.7e-30, "families": 9.2e-37}
SOV_NULL_PROBABILITIES = (Fraction(1, 2), Fraction(2, 3))

# the Fig. 4 hexagon: the node cycle, and the edges joining neighbours on it
RING_NODES_PUBLISHED = ("SOV", "SVO", "VSO", "VOS", "OVS", "OSV")
RING_COLUMNS = ("node cycle", "edges")
RING_RULES = (EXACT, EXACT)

TARGETS = ("table2", "table3", "fig2", "fig3", "fig4", "sov-footnote")


def agrees(value, reference, rule) -> bool:
    """True iff `value` matches `reference` under `rule`; tolerances compare floats."""
    if rule is EXACT:
        return value == reference
    if rule is SIG_FIGS:
        return format(value, ".1e") == format(reference, ".1e")
    return abs(float(value) - reference) <= rule


def within_order_of_magnitude(value: float, reference: float) -> bool:
    """True iff the two positive values differ by at most a factor of ten."""
    if value <= 0 or reference <= 0:
        return False
    return abs(math.log10(value) - math.log10(reference)) <= 1.0


def dryer_reports() -> list[HeadPlacementReport]:
    return analyze(builtin_dryer_table())


def table2_rows(
    reports: list[HeadPlacementReport],
) -> list[tuple[str, float, int, int, float]]:
    return head_end_test_rows(reports)


def check_table2(rows) -> list[str]:
    labels = [f"{unit} (F={F}, g={g})" for unit, _, F, g, _ in TABLE2_PUBLISHED]
    return _compare(rows, TABLE2_PUBLISHED, labels, TABLE2_COLUMNS, TABLE2_RULES)


def table3_rows(reports: list[HeadPlacementReport]):
    return distance_rows(reports)


def check_table3(rows) -> list[str]:
    labels = [f"{unit} (F={F})" for unit, F, *_ in TABLE3_PUBLISHED]
    return _compare(rows, TABLE3_PUBLISHED, labels, TABLE3_COLUMNS, TABLE3_RULES)


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
        if within_order_of_magnitude(p, SOV_PUBLISHED[unit]):
            matches[unit].append(p0)
    return matches


def check_sov_footnote(rows) -> list[str]:
    """Each unit is reproduced by exactly one p0, the same one for all units."""
    matches = sov_reproducing_p0(rows)
    distinct = {tuple(p0s) for p0s in matches.values()}
    if len(distinct) == 1 and all(len(p0s) == 1 for p0s in distinct):
        return []
    return [f"not one null probability common to all units: {matches}"]


def fig2_csv(rows) -> str:
    return export_plot_data(rows, "fig2")


def check_fig2(rows) -> list[str]:
    """Mismatches of the :func:`~headorder.dataio.ci_rows` behind Fig. 2."""
    first = {row[0]: row for row in reversed(TABLE2_PUBLISHED)}
    problems = _compare(
        [(ends,) for _, ends, *_ in rows],
        [first[unit][1:2] for unit, *_ in rows],
        [unit for unit, *_ in rows],
        TABLE2_COLUMNS[1:2],
        TABLE2_RULES[1:2],
    )
    return problems + [
        f"{unit}: interval [{lo}, {hi}] does not bracket {prop}"
        for unit, ends, ends_lo, ends_hi, middle, mid_lo, mid_hi, _ in rows
        for lo, hi, prop in ((ends_lo, ends_hi, ends), (mid_lo, mid_hi, middle))
        if not 0.0 <= lo <= prop <= hi <= 1.0
    ]


def fig3_csv(reports: list[HeadPlacementReport]) -> str:
    return export_plot_data(reports, "fig3")


def check_fig3(reports: list[HeadPlacementReport]) -> list[str]:
    first = {row[0]: row for row in reversed(TABLE3_PUBLISHED)}
    return _compare(
        [(r.null_mean_D, r.sigma_mean_D, r.mean_D) for r in reports],
        [first[r.unit][3:6] for r in reports],
        [r.unit for r in reports],
        TABLE3_COLUMNS[3:6],
        TABLE3_RULES[3:6],
    )


def sov_ring():
    return build_ring("SOV")


def fig4_csv() -> str:
    return export_plot_data(sov_ring(), "fig4")


def check_fig4() -> list[str]:
    ring, cycle = sov_ring(), RING_NODES_PUBLISHED
    edges = sorted(map(sorted, zip(cycle, cycle[1:] + cycle[:1])))
    return _compare(
        [(ring.nodes, sorted(map(sorted, ring.edges)))],
        [(cycle, edges)],
        ["SOV ring"],
        RING_COLUMNS,
        RING_RULES,
    )


def _compare(rows, expected, labels, columns, rules) -> list[str]:
    """One message, led by its row's label, per cell that breaks its column's rule."""
    if len(rows) != len(expected):
        return [f"expected {len(expected)} rows, computed {len(rows)}"]
    return [
        f"{label}: {column} {value} vs published {reference}"
        for row, reference_row, label in zip(rows, expected, labels)
        for column, rule, value, reference in zip(columns, rules, row, reference_row)
        if not agrees(value, reference, rule)
    ]


def run(target: str, fmt: str) -> tuple[str, list[str]]:
    """The output of `target`, or of every target for "all", and its mismatches.

    `fmt` ("table" or "csv") sets how table2, table3 and sov-footnote are
    rendered; the figures are CSV either way. With more than one target each
    block gets a "== target ==" header. Each mismatch is led by its target's
    name.
    """
    if target != "all" and target not in TARGETS:
        raise ValueError(f"unknown reproduction target {target!r}")
    targets = TARGETS if target == "all" else (target,)
    # each computed once per run, and only when a requested target needs it
    reports = dryer_reports() if set(targets) - {"fig4", "sov-footnote"} else None
    sov_rows = sov_footnote_rows() if "sov-footnote" in targets else None
    chunks = []
    problems: list[str] = []
    for name in targets:
        body, found = _run_one(name, fmt, reports, sov_rows)
        if len(targets) > 1:
            chunks.append(f"== {name} ==")
        chunks.append(body)
        problems.extend(f"{name}: {problem}" for problem in found)
    return "\n".join(chunks), problems


def _run_one(target: str, fmt: str, reports, sov_rows) -> tuple[str, list[str]]:
    if target == "table2":
        rows = table2_rows(reports)
        return HEAD_END_TEST.render(rows, fmt), check_table2(rows)
    if target == "table3":
        rows = table3_rows(reports)
        return DISTANCE.render(rows, fmt), check_table3(rows)
    if target == "fig2":
        rows = ci_rows(reports)  # computes each interval once; the CSV and the check share it
        return fig2_csv(rows), check_fig2(rows)
    if target == "fig3":
        return fig3_csv(reports), check_fig3(reports)
    if target == "fig4":
        return fig4_csv(), check_fig4()
    # sov-footnote
    body = SOV_FOOTNOTE.render(sov_rows, fmt)
    lines = []
    for unit, p0s in sov_reproducing_p0(sov_rows).items():
        if p0s:
            names = ", ".join(f"p0 = {p0}" for p0 in p0s)
            lines.append(f"# {unit}: published value reproduced by {names}")
        else:
            lines.append(f"# {unit}: published value not reproduced")
    return body + "\n".join(lines) + "\n", check_sov_footnote(sov_rows)
