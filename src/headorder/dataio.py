"""Embedded datasets, frequency-table CSV ingestion, and report/plot exports.

The CSV dialect everywhere: comma-separated, UTF-8, header row required,
"." as the decimal separator, "\\n" line endings. All exports are
deterministic byte-for-byte for identical inputs.
"""

from __future__ import annotations

import csv
import io
import math
import re
import sys
from collections import namedtuple
from fractions import Fraction
from typing import Iterable, Sequence

from .rings import ring_layout
from .messages import clip
from .stats import (
    HeadPlacementReport, OrderFrequencyTable, TableParseError, binomial_proportion_ci,
)
from .trees import single_head_D

# Frequencies of the 24 preferred orders of demonstrative (D), numeral (N),
# adjective (A) and noun (n), from Dryer's (2018) survey; measured in
# languages, genera, and adjusted number of languages. Adjusted values are
# kept as decimal strings so the 217.4 column total is exact.
_DRYER_ROWS: tuple[tuple[str, int, int, str], ...] = (
    ("nAND", 182, 85, "44.17"),
    ("DNAn", 113, 57, "35.56"),
    ("DnAN", 53, 40, "29.95"),
    ("DNnA", 40, 32, "22.12"),
    ("nADN", 36, 19, "14.8"),
    ("NnAD", 67, 27, "14.54"),
    ("DnNA", 12, 10, "9.75"),
    ("nDAN", 13, 11, "9"),
    ("nNAD", 11, 9, "9"),
    ("nDNA", 8, 6, "5.67"),
    ("DAnN", 12, 7, "5.34"),
    ("NAnD", 8, 5, "4"),
    ("AnND", 5, 3, "3"),
    ("NnDA", 5, 3, "3"),
    ("AnDN", 5, 3, "2.5"),
    ("DANn", 3, 2, "2"),
    ("NDAn", 2, 2, "2"),
    ("nNDA", 1, 1, "1"),
    ("NADn", 0, 0, "0"),
    ("NDnA", 0, 0, "0"),
    ("ADnN", 0, 0, "0"),
    ("ADNn", 0, 0, "0"),
    ("ANDn", 0, 0, "0"),
    ("ANnD", 0, 0, "0"),
)

DRYER_ALPHABET = ("D", "N", "A", "n")
DRYER_HEAD = "n"
DRYER_UNITS = ("languages", "genera", "adjusted")

# Dominant subject/object/verb orders: total frequency and verb-first-or-last
# frequency, per measurement unit (Hammarstrom's counts).
_SOV_AGGREGATES = {"languages": (5128, 2971), "families": (340, 282)}


# parsed once; OrderFrequencyTable copies each row's dict into every new table
_DRYER_FREQUENCIES = {
    order: dict(zip(DRYER_UNITS, map(Fraction, counts))) for order, *counts in _DRYER_ROWS
}


def builtin_dryer_table() -> OrderFrequencyTable:
    """The embedded noun-phrase order table (24 rows x 3 units), new on each call."""
    return OrderFrequencyTable(DRYER_ALPHABET, DRYER_HEAD, DRYER_UNITS, _DRYER_FREQUENCIES)


def builtin_sov_aggregates() -> dict[str, tuple[int, int]]:
    """(F, g) pairs for the verb-end test on dominant S/O/V orders, per unit."""
    return dict(_SOV_AGGREGATES)


class TableSchema(namedtuple("TableSchema", "head strict", defaults=(False,))):
    """How to read a frequency-table CSV.

    The alphabet is that of the first data row. `strict` requires every one
    of the n! orders to be present (by default, missing orders count as zero).
    """

    __slots__ = ()


# Fraction("1e3000000") builds 10**3000000 before anything can check it
# (1.4 s, and the cost grows faster than the exponent), so larger decimal
# exponents are refused first.
MAX_DECIMAL_EXPONENT = 1000
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z")


def parse_exact(text: str, what: str) -> Fraction:
    """An exact number from text such as '564', '0.5', '1/2' or '2.5e3'.

    Raises ValueError, prefixed with `what`, for anything else, for a decimal
    exponent above MAX_DECIMAL_EXPONENT in magnitude and for a run of digits
    above Python's limit for an int from text (sys.get_int_max_str_digits()).
    """
    exponent = _EXPONENT.search(text)
    if exponent:
        digits = exponent[1].replace("_", "").lstrip("0")
        # the length test spares int() an exponent of thousands of digits
        too_long = len(digits) > len(str(MAX_DECIMAL_EXPONENT))
        if too_long or int(digits or 0) > MAX_DECIMAL_EXPONENT:
            raise ValueError(
                f"{what}: the decimal exponent of {clip(repr(text))} exceeds "
                f"{MAX_DECIMAL_EXPONENT} in magnitude"
            )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        reason = "expected a number or fraction"
        limit = sys.get_int_max_str_digits()  # 0 for no limit
        if limit and re.search(r"\d{%d}" % (limit + 1), text.replace("_", "")):
            reason = f"more than {limit:,} digits in a row, Python's limit for an int"
        raise ValueError(f"{what}: {reason}, got {clip(repr(text))}") from None


def load_frequency_table(
    source: str | bytes, schema: TableSchema
) -> OrderFrequencyTable:
    """Parse a frequency-table CSV into a checked :class:`OrderFrequencyTable`.

    Layout: header ``order,<unit>,<unit>,...``, then one row per order
    string. Frequencies may be integers, decimals, or ``a/b`` rationals; they
    are parsed exactly by :func:`parse_exact`. One leading byte-order mark
    (as in Excel's "CSV UTF-8") is skipped. Checked here is only what text
    gets wrong (header, column counts, numbers, repeated orders, `strict`);
    the table checks its own rules. Raises :class:`TableParseError`, with
    the line for a refused row.
    """
    text = source.decode("utf-8") if isinstance(source, bytes) else source
    text = text.removeprefix("\ufeff")
    reader = csv.reader(io.StringIO(text))
    try:
        records = [(reader.line_num, row) for row in reader]
    except csv.Error as exc:  # not a ValueError; e.g. a field above csv.field_size_limit()
        raise TableParseError(reader.line_num, str(exc)) from None
    if not records:
        raise TableParseError(None, "empty input, expected a header row")
    header = [cell.strip() for cell in records[0][1]]
    if not header or header[0] != "order":
        raise TableParseError(1, "first header column must be 'order'")
    units = tuple(header[1:])
    if not units:
        raise TableParseError(1, "no measurement-unit columns in header")

    rows: dict[str, dict[str, Fraction]] = {}
    lines: dict[str, int] = {}
    for line, row in records[1:]:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(header):
            raise TableParseError(
                line, f"expected {len(header)} columns, found {len(row)}"
            )
        order = row[0].strip()
        if order in rows:
            raise TableParseError(line, f"duplicate order {clip(repr(order))}")
        freqs: dict[str, Fraction] = {}
        for unit, cell in zip(units, row[1:]):
            what = f"invalid frequency for unit {clip(repr(unit))}"
            try:
                freqs[unit] = parse_exact(cell.strip(), what)
            except ValueError as exc:
                raise TableParseError(line, str(exc)) from None
        rows[order] = freqs
        lines[order] = line
    if not rows:
        raise TableParseError(None, "no data rows")
    # the first row's symbol set: if that row repeats one, the table refuses it
    alphabet = tuple(set(next(iter(rows))))
    try:
        table = OrderFrequencyTable(alphabet, schema.head, units, rows)
    except TableParseError as exc:
        if exc.order is None:
            raise
        raise TableParseError(lines[exc.order], str(exc), exc.order) from None
    if schema.strict and len(rows) != (expected := math.factorial(table.n)):
        message = f"strict mode requires all {expected} orders, found {len(rows)}"
        raise TableParseError(None, message)
    return table


def _format_frequency(x: Fraction) -> str:
    """Exact text for a frequency: integer, finite decimal, or a/b."""
    if x.denominator == 1:
        return str(x.numerator)
    d = x.denominator
    while d % 2 == 0:
        d //= 2
    while d % 5 == 0:
        d //= 5
    if d == 1:
        digits = 0
        scaled = x
        while scaled.denominator != 1:
            scaled *= 10
            digits += 1
        text = str(abs(scaled.numerator)).rjust(digits + 1, "0")
        sign = "-" if x < 0 else ""
        return f"{sign}{text[:-digits]}.{text[-digits:]}"
    return f"{x.numerator}/{x.denominator}"


def serialize_frequency_table(table: OrderFrequencyTable) -> str:
    """CSV text for a table; loading it back reproduces the table exactly."""
    return _csv_block(
        ("order",) + table.units,
        ((order, *(table.frequency(order, u) for u in table.units)) for order in table.rows),
    )


def _fmt(x: object) -> str:
    # dispatch on the exact type: an isinstance test against Fraction goes
    # through its ABC metaclass, several times the cost of a str cell itself
    kind = type(x)
    if kind is str:
        return x
    if kind is Fraction:
        return _format_frequency(x)
    if kind is float:
        return f"{x:.12g}"
    return str(x)


def head_end_test_rows(
    reports: Sequence[HeadPlacementReport],
) -> list[tuple[str, float, int, int, float]]:
    """(unit, g/F, F, g, p) rows, one per integer-transformed test."""
    return [
        (report.unit, successes / trials, trials, successes, p)
        for report in reports
        for trials, successes, p in report.p_values
    ]


def distance_rows(
    reports: Sequence[HeadPlacementReport],
) -> list[tuple[str, object, int, Fraction, float, float, int, float]]:
    """(unit, F, D_min, null mean, sigma, <D>, D_max, k) rows.

    One row per unit, followed by the unit's integer-transformation rows
    (:attr:`HeadPlacementReport.transforms`), if any.
    """
    rows = []
    for report in reports:
        n = report.n
        # the head central gives the least D, the head at an end the most
        d_lo, d_hi = single_head_D(n, (n + 1) // 2), single_head_D(n, 1)
        mu = report.null_mean_D
        exact = (report.F, report.mean_D, report.sigma_mean_D, report.k)
        for F, mean_D, sigma, k in (exact, *report.transforms):
            rows.append((report.unit, F, d_lo, mu, sigma, mean_D, d_hi, k))
    return rows


def ci_rows(
    reports: Sequence[HeadPlacementReport],
) -> list[tuple[str, float, float, float, float, float, float, bool]]:
    """(unit, ends, CI(ends), middle, CI(middle), 3-sigma) rows; CIs at level 1 - r.alpha."""
    return [
        (r.unit, r.proportion, *binomial_proportion_ci(r.proportion, r.F, r.alpha),
         1 - r.proportion, *binomial_proportion_ci(1 - r.proportion, r.F, r.alpha),
         r.three_sigma_significant)
        for r in reports
    ]


def _csv_block(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """A header line and one line per row, each cell through `_fmt`."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(map(_fmt, row) for row in rows)
    return buffer.getvalue()


def format_p_value(p: float) -> str:
    """Two significant figures in scientific notation below 1e-3, else 3 decimals."""
    if p != 0 and p < 1e-3:
        return f"{p:.1e}"
    return f"{p:.3f}"


class Block(namedtuple("Block", "titles cells header", defaults=((),))):
    """How one report block is printed.

    `titles` head the console columns and `cells` maps one row, unpacked, to
    its console cells, a tuple of str. `header` heads the raw values in
    `reports_to_csv`; a block without a raw CSV leaves it empty.
    """

    __slots__ = ()

    def render(self, rows: Iterable[Sequence[object]], fmt: str) -> str:
        """The rows' console cells: CSV for fmt "csv", else left-aligned columns."""
        cells = [self.cells(*row) for row in rows]
        if fmt == "csv":
            return _csv_block(self.titles, cells)
        table = [self.titles, *cells]
        widths = [max(map(len, column)) for column in zip(*table)]
        return "".join(
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n"
            for row in table
        )


# the cells look format_p_value up in this module when called, so rebinding
# dataio.format_p_value reaches every block
HEAD_END_TEST = Block(
    ("unit", "g/F", "F", "g", "p-value"),
    lambda unit, prop, F, g, p: (unit, f"{prop:.3f}", _fmt(F), _fmt(g), format_p_value(p)),
    ("unit", "proportion", "F", "g", "p_value"),
)
DISTANCE = Block(
    ("unit", "F", "D_min", "mu(<D>)", "sigma(<D>)", "<D>", "D_max", "k"),
    lambda unit, F, d_lo, mu, sigma, mean, d_hi, k: (
        unit, _fmt(F), str(d_lo), _fmt(mu), f"{sigma:.3f}", f"{mean:.3f}", str(d_hi), f"{k:.2f}"
    ),
    ("unit", "F", "D_min", "null_mean_D", "sigma", "mean_D", "D_max", "k"),
)
INTERVALS = Block(
    ("unit", "ends", "CI(ends)", "middle", "CI(middle)", "3-sigma"),
    lambda unit, prop, lo, hi, mid, mlo, mhi, sig: (
        unit, f"{prop:.3f}", f"[{lo:.3f}, {hi:.3f}]", f"{mid:.3f}", f"[{mlo:.3f}, {mhi:.3f}]",
        "yes" if sig else "no",
    ),
    (
        "unit", "proportion_ends", "ci_ends_lo", "ci_ends_hi", "proportion_middle",
        "ci_mid_lo", "ci_mid_hi", "three_sigma_significant",
    ),
)
SOV_FOOTNOTE = Block(
    ("unit", "F", "g", "p0", "p-value"),
    lambda unit, F, g, p0, p: (unit, str(F), str(g), str(p0), format_p_value(p)),
)


def reports_to_csv(reports: Sequence[HeadPlacementReport]) -> str:
    """Machine-readable report: test block, distance block, CI block."""
    blocks = (
        (HEAD_END_TEST, head_end_test_rows), (DISTANCE, distance_rows), (INTERVALS, ci_rows)
    )
    return "\n".join(_csv_block(block.header, rows(reports)) for block, rows in blocks)


def reports_to_text(reports: Sequence[HeadPlacementReport]) -> str:
    """Console rendering mirroring the two published tables plus intervals."""
    return "\n".join(
        (
            "Head placement at the ends (right-tail binomial test)",
            HEAD_END_TEST.render(head_end_test_rows(reports), "table"),
            "Average dependency-distance sum vs. the shuffling null",
            DISTANCE.render(distance_rows(reports), "table"),
            "Proportions with confidence intervals",
            INTERVALS.render(ci_rows(reports), "table"),
        )
    )


def export_plot_data(data: object, kind: str) -> str:
    """CSV plot data for one of the figure kinds.

    * ``fig2``: :func:`ci_rows` -> per-unit proportions (ends / middle) with CI.
    * ``fig3``: report list -> per-unit null mean, sigma, <D>, 1..3-sigma bands.
    * ``fig4``: permutation ring -> node layout block plus edge block.
    """
    if kind == "fig2":
        rows = []
        for unit, ends, lo, hi, middle, mid_lo, mid_hi, _ in data:
            rows += [(unit, "ends", ends, lo, hi), (unit, "middle", middle, mid_lo, mid_hi)]
        return _csv_block(("unit", "placement", "proportion", "ci_lo", "ci_hi"), rows)
    if kind == "fig3":
        rows = []
        for r in data:
            mu = float(r.null_mean_D)
            band = []
            for k in (1, 2, 3):
                band += [mu - k * r.sigma_mean_D, mu + k * r.sigma_mean_D]
            rows.append((r.unit, mu, r.sigma_mean_D, r.mean_D, *band))
        return _csv_block(
            (
                "unit",
                "null_mean_D",
                "sigma",
                "mean_D",
                "band1_lo",
                "band1_hi",
                "band2_lo",
                "band2_hi",
                "band3_lo",
                "band3_hi",
            ),
            rows,
        )
    if kind == "fig4":
        layout_rows = (
            (node, angle, "" if freq is None else freq)
            for node, angle, freq in ring_layout(data)
        )
        layout = _csv_block(("node", "angle_deg", "frequency"), layout_rows)
        edges = _csv_block(("source", "target"), data.edges)
        return layout + "\n" + edges
    raise ValueError(f"unknown export kind {kind!r}")

