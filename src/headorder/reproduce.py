"""Recompute the published tables and figures from the embedded data.

Each target has a builder (rows or CSV from the live pipeline) and a checker
returning a list of mismatch descriptions; an empty list means the
reproduction passes at the documented tolerances. Builders and checkers take
the Dryer reports (`dryer_reports`) or the S/O/V rows (`sov_footnote_rows`)
as an argument, so one run computes each once however many targets use it.
"""

from __future__ import annotations

from fractions import Fraction

from . import published
from .dataio import (
    builtin_dryer_table,
    builtin_sov_aggregates,
    distance_rows,
    export_plot_data,
    head_end_test_rows,
)
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
    problems = []
    expected = published.TABLE2_PUBLISHED
    if len(rows) != len(expected):
        return [f"expected {len(expected)} rows, computed {len(rows)}"]
    for (unit, prop, F, g, p), (r_unit, r_prop, r_F, r_g, r_p) in zip(rows, expected):
        where = f"{r_unit} (F={r_F}, g={r_g})"
        if unit != r_unit or F != r_F or g != r_g:
            problems.append(f"{where}: computed counts ({unit}, F={F}, g={g})")
            continue
        if not published.within(prop, r_prop, published.PROPORTION_TOL):
            problems.append(f"{where}: proportion {prop:.4f} vs published {r_prop}")
        if not published.same_to_sig_figs(p, r_p):
            problems.append(f"{where}: p-value {p:.3g} vs published {r_p:.3g}")
    return problems


def table3_rows(reports: list[HeadPlacementReport]):
    return distance_rows(reports)


def check_table3(rows) -> list[str]:
    problems = []
    expected = published.TABLE3_PUBLISHED
    if len(rows) != len(expected):
        return [f"expected {len(expected)} rows, computed {len(rows)}"]
    for computed, reference in zip(rows, expected):
        unit, F, d_lo, mu, sigma, mean_D, d_hi, k = computed
        r_unit, r_F, r_dlo, r_mu, r_sigma, r_mean, r_dhi, r_k = reference
        where = f"{r_unit} (F={r_F})"
        if unit != r_unit or abs(float(F) - r_F) > 1e-9:
            problems.append(f"{where}: computed ({unit}, F={float(F)})")
            continue
        if d_lo != r_dlo or d_hi != r_dhi or mu != r_mu:
            problems.append(
                f"{where}: D range/mean ({d_lo}, {mu}, {d_hi}) vs "
                f"({r_dlo}, {r_mu}, {r_dhi})"
            )
        if not published.within(sigma, r_sigma, published.SIGMA_TOL):
            problems.append(f"{where}: sigma {sigma:.4f} vs published {r_sigma}")
        if not published.within(mean_D, r_mean, published.MEAN_D_TOL):
            problems.append(f"{where}: <D> {mean_D:.4f} vs published {r_mean}")
        if not published.within(k, r_k, published.K_TOL):
            problems.append(f"{where}: k {k:.4f} vs published {r_k}")
    return problems


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
    matches = sov_reproducing_p0(rows)
    problems = []
    for unit, reference in published.SOV_PUBLISHED.items():
        if not matches[unit]:
            problems.append(
                f"{unit}: no tested null probability reproduces published {reference:.2g}"
            )
        elif len(matches[unit]) > 1:
            problems.append(f"{unit}: several null probabilities reproduce the value")
    distinct = {tuple(m) for m in matches.values() if m}
    if len(distinct) > 1:
        problems.append("units are reproduced by different null probabilities")
    return problems


def fig2_csv(reports: list[HeadPlacementReport]) -> str:
    return export_plot_data(reports, "fig2")


def check_fig2(reports: list[HeadPlacementReport]) -> list[str]:
    problems = []
    reference = {unit: prop for unit, prop, _, _, _ in published.TABLE2_PUBLISHED[:2]}
    reference["adjusted"] = 0.567  # caption values g=123.2, F=217.4
    for r in reports:
        target = reference[r.unit]
        if not published.within(r.proportion, target, published.PROPORTION_TOL):
            problems.append(
                f"{r.unit}: proportion {r.proportion:.4f} vs published {target}"
            )
        for lo, hi, prop in (
            (*r.ci_ends, r.proportion),
            (*r.ci_mid, 1 - r.proportion),
        ):
            if not (0.0 <= lo <= prop <= hi <= 1.0):
                problems.append(f"{r.unit}: interval [{lo}, {hi}] does not bracket {prop}")
    return problems


def fig3_csv(reports: list[HeadPlacementReport]) -> str:
    return export_plot_data(reports, "fig3")


def check_fig3(reports: list[HeadPlacementReport]) -> list[str]:
    problems = []
    reference = {row[0]: row for row in published.TABLE3_PUBLISHED[:3]}
    for r in reports:
        _, _, _, r_mu, r_sigma, r_mean, _, _ = reference[r.unit]
        if float(r.null_mean_D) != r_mu:
            problems.append(f"{r.unit}: null mean {float(r.null_mean_D)} vs {r_mu}")
        if not published.within(r.sigma_mean_D, r_sigma, published.SIGMA_TOL):
            problems.append(f"{r.unit}: sigma {r.sigma_mean_D:.4f} vs {r_sigma}")
        if not published.within(r.mean_D, r_mean, published.MEAN_D_TOL):
            problems.append(f"{r.unit}: <D> {r.mean_D:.4f} vs {r_mean}")
    return problems


def sov_ring(frequencies=None):
    return build_ring("SOV", frequencies)


def fig4_csv() -> str:
    return export_plot_data(sov_ring(), "fig4")


def check_fig4() -> list[str]:
    ring = sov_ring()
    problems = []
    if ring.nodes != published.RING_NODES_PUBLISHED:
        problems.append(f"node cycle {ring.nodes} vs {published.RING_NODES_PUBLISHED}")
    if len(ring.edges) != 6:
        problems.append(f"expected 6 edges, got {len(ring.edges)}")
    edge_set = {frozenset(edge) for edge in ring.edges}
    cycle = published.RING_NODES_PUBLISHED
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        if frozenset((a, b)) not in edge_set:
            problems.append(f"missing ring edge {a}-{b}")
    return problems
