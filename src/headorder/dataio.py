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
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .rings import PermutationRing, ring_layout
from .stats import HeadPlacementReport, OrderFrequencyTable
from .trees import d_max_single_head, d_min_single_head

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


def builtin_dryer_table() -> OrderFrequencyTable:
    """The embedded noun-phrase order table (24 rows x 3 units)."""
    rows = {
        order: {
            "languages": Fraction(languages),
            "genera": Fraction(genera),
            "adjusted": Fraction(adjusted),
        }
        for order, languages, genera, adjusted in _DRYER_ROWS
    }
    return OrderFrequencyTable(DRYER_ALPHABET, DRYER_HEAD, DRYER_UNITS, rows)


def builtin_sov_aggregates() -> dict[str, tuple[int, int]]:
    """(F, g) pairs for the verb-end test on dominant S/O/V orders, per unit."""
    return dict(_SOV_AGGREGATES)


class TableParseError(ValueError):
    """A frequency-table file failed validation; carries the 1-based line."""

    def __init__(self, line: int | None, message: str):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True)
class TableSchema:
    """How to read a frequency-table CSV.

    The alphabet is that of the first data row. `strict` requires every one
    of the n! orders to be present (by default, missing orders count as zero).
    """

    head: str
    strict: bool = False


# Fraction("1e3000000") builds 10**3000000 before anything can check it
# (1.4 s, and the cost grows faster than the exponent), so larger decimal
# exponents are refused first.
MAX_DECIMAL_EXPONENT = 1000
_EXPONENT = re.compile(r"[eE][-+]?(\d+(?:_\d+)*)\s*\Z")


def parse_exact(text: str, what: str) -> Fraction:
    """An exact number from text such as '564', '0.5', '1/2' or '2.5e3'.

    Raises ValueError, prefixed with `what`, for anything else and for a
    decimal exponent above MAX_DECIMAL_EXPONENT in magnitude.
    """
    exponent = _EXPONENT.search(text)
    if exponent:
        digits = exponent[1].replace("_", "").lstrip("0")
        # the length test spares int() an exponent of thousands of digits
        too_long = len(digits) > len(str(MAX_DECIMAL_EXPONENT))
        if too_long or int(digits or 0) > MAX_DECIMAL_EXPONENT:
            raise ValueError(
                f"{what}: the decimal exponent of {text!r} exceeds "
                f"{MAX_DECIMAL_EXPONENT} in magnitude"
            )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(
            f"{what}: expected a number or fraction, got {text!r}"
        ) from None


def load_frequency_table(
    source: str | bytes, schema: TableSchema
) -> OrderFrequencyTable:
    """Parse and validate a frequency-table CSV.

    Layout: header ``order,<unit>,<unit>,...``, then one row per order
    string. Frequencies may be integers, decimals, or ``a/b`` rationals; they
    are parsed exactly by :func:`parse_exact`. One leading byte-order mark
    (as in Excel's "CSV UTF-8") is skipped. Raises :class:`TableParseError`
    with the offending line number on any malformed content.
    """
    text = source.decode("utf-8") if isinstance(source, bytes) else source
    text = text.removeprefix("\ufeff")
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise TableParseError(None, "empty input, expected a header row") from None
    header = [cell.strip() for cell in header]
    if not header or header[0] != "order":
        raise TableParseError(1, "first header column must be 'order'")
    units = tuple(header[1:])
    if not units:
        raise TableParseError(1, "no measurement-unit columns in header")
    if len(set(units)) != len(units) or any(not u for u in units):
        raise TableParseError(1, "unit columns must be non-empty and distinct")

    alphabet = None
    rows: dict[str, dict[str, Fraction]] = {}
    for row in reader:
        line = reader.line_num
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(header):
            raise TableParseError(
                line, f"expected {len(header)} columns, found {len(row)}"
            )
        order = row[0].strip()
        if alphabet is None:
            alphabet = tuple(order)
            if len(set(alphabet)) != len(alphabet):
                raise TableParseError(line, f"order {order!r} repeats a symbol")
        if sorted(order) != sorted(alphabet):
            raise TableParseError(
                line,
                f"order {order!r} is not a permutation of {''.join(alphabet)!r}",
            )
        if order in rows:
            raise TableParseError(line, f"duplicate order {order!r}")
        freqs: dict[str, Fraction] = {}
        for unit, cell in zip(units, row[1:]):
            cell = cell.strip()
            try:
                value = parse_exact(cell, f"invalid frequency for unit {unit!r}")
            except ValueError as exc:
                raise TableParseError(line, str(exc)) from None
            if value < 0:
                raise TableParseError(
                    line, f"negative frequency {cell!r} for unit {unit!r}"
                )
            freqs[unit] = value
        rows[order] = freqs
    if not rows:
        raise TableParseError(None, "no data rows")
    if schema.head not in alphabet:
        raise TableParseError(
            None, f"head symbol {schema.head!r} not in alphabet {''.join(alphabet)!r}"
        )
    if schema.strict:
        expected = math.factorial(len(alphabet))
        if len(rows) != expected:
            raise TableParseError(
                None, f"strict mode requires all {expected} orders, found {len(rows)}"
            )
    return OrderFrequencyTable(alphabet, schema.head, units, rows)


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
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("order",) + table.units)
    for order in table.rows:
        writer.writerow(
            (order,)
            + tuple(_format_frequency(table.frequency(order, u)) for u in table.units)
        )
    return buffer.getvalue()


def _fmt(x: object) -> str:
    if isinstance(x, Fraction):
        return _format_frequency(x)
    if isinstance(x, float):
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
        d_lo, d_hi = d_min_single_head(n), d_max_single_head(n)
        mu = report.null_mean_D
        exact = (report.F, report.mean_D, report.sigma_mean_D, report.k)
        for F, mean_D, sigma, k in (exact, *report.transforms):
            rows.append((report.unit, F, d_lo, mu, sigma, mean_D, d_hi, k))
    return rows


HEAD_END_TEST_HEADER = ("unit", "proportion", "F", "g", "p_value")
DISTANCE_HEADER = ("unit", "F", "D_min", "null_mean_D", "sigma", "mean_D", "D_max", "k")
CI_HEADER = (
    "unit",
    "proportion_ends",
    "ci_ends_lo",
    "ci_ends_hi",
    "proportion_middle",
    "ci_mid_lo",
    "ci_mid_hi",
    "three_sigma_significant",
)


def ci_rows(
    reports: Sequence[HeadPlacementReport],
) -> list[tuple[str, float, float, float, float, float, float, bool]]:
    rows = []
    for r in reports:
        rows.append(
            (
                r.unit,
                r.proportion,
                r.ci_ends[0],
                r.ci_ends[1],
                1 - r.proportion,
                r.ci_mid[0],
                r.ci_mid[1],
                r.three_sigma_significant,
            )
        )
    return rows


def _csv_block(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    return _plain_csv_block(header, ([_fmt(cell) for cell in row] for row in rows))


def _plain_csv_block(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """A CSV block of cells that are already strings, such as ring edges
    (`_fmt` on each of a 5-symbol ring's 480 cells would cost ~50% more)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def reports_to_csv(reports: Sequence[HeadPlacementReport]) -> str:
    """Machine-readable report: test block, distance block, CI block."""
    return "\n".join(
        (
            _csv_block(HEAD_END_TEST_HEADER, head_end_test_rows(reports)),
            _csv_block(DISTANCE_HEADER, distance_rows(reports)),
            _csv_block(CI_HEADER, ci_rows(reports)),
        )
    )


def format_p_value(p: float) -> str:
    """Two significant figures in scientific notation below 1e-3, else 3 decimals."""
    if p != 0 and p < 1e-3:
        return f"{p:.1e}"
    return f"{p:.3f}"


HEAD_END_TEST_TITLES = ("unit", "g/F", "F", "g", "p-value")
DISTANCE_TITLES = ("unit", "F", "D_min", "mu(<D>)", "sigma(<D>)", "<D>", "D_max", "k")


def head_end_test_cells(rows) -> list[tuple[str, ...]]:
    """Console cells of :func:`head_end_test_rows`."""
    return [
        (unit, f"{prop:.3f}", _fmt(F), _fmt(g), format_p_value(p))
        for unit, prop, F, g, p in rows
    ]


def distance_cells(rows) -> list[tuple[str, ...]]:
    """Console cells of :func:`distance_rows`."""
    return [
        (unit, _fmt(F), str(d_lo), _fmt(mu), f"{sigma:.3f}", f"{mean:.3f}", str(d_hi), f"{k:.2f}")
        for unit, F, d_lo, mu, sigma, mean, d_hi, k in rows
    ]


def render_block(header: Sequence[str], cells: Sequence[Sequence[str]], fmt: str) -> str:
    """One block of text cells: CSV for fmt "csv", else left-aligned columns."""
    if fmt == "csv":
        return _csv_block(header, cells)
    table = [tuple(header)] + [tuple(row) for row in cells]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = []
    for row in table:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def reports_to_text(reports: Sequence[HeadPlacementReport]) -> str:
    """Console rendering mirroring the two published tables plus intervals."""
    interval_rows = [
        (
            unit,
            f"{prop:.3f}",
            f"[{lo:.3f}, {hi:.3f}]",
            f"{mid:.3f}",
            f"[{mlo:.3f}, {mhi:.3f}]",
            "yes" if sig else "no",
        )
        for unit, prop, lo, hi, mid, mlo, mhi, sig in ci_rows(reports)
    ]
    sections = [
        "Head placement at the ends (right-tail binomial test)",
        render_block(
            HEAD_END_TEST_TITLES, head_end_test_cells(head_end_test_rows(reports)), "table"
        ),
        "Average dependency-distance sum vs. the shuffling null",
        render_block(DISTANCE_TITLES, distance_cells(distance_rows(reports)), "table"),
        "Proportions with confidence intervals",
        render_block(
            ("unit", "ends", "CI(ends)", "middle", "CI(middle)", "3-sigma"),
            interval_rows,
            "table",
        ),
    ]
    return "\n".join(sections)


def export_plot_data(data: object, kind: str) -> str:
    """CSV plot data for one of the figure kinds.

    * ``fig2``: report list -> per-unit proportions (ends / middle) with CI.
    * ``fig3``: report list -> per-unit null mean, sigma, <D>, 1..3-sigma bands.
    * ``fig4``: permutation ring -> node layout block plus edge block.
    """
    if kind == "fig2":
        reports = _expect_reports(data, kind)
        rows = []
        for r in reports:
            rows.append((r.unit, "ends", r.proportion, r.ci_ends[0], r.ci_ends[1]))
            rows.append((r.unit, "middle", 1 - r.proportion, r.ci_mid[0], r.ci_mid[1]))
        return _csv_block(("unit", "placement", "proportion", "ci_lo", "ci_hi"), rows)
    if kind == "fig3":
        reports = _expect_reports(data, kind)
        rows = []
        for r in reports:
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
        if not isinstance(data, PermutationRing):
            raise ValueError("export kind 'fig4' expects a PermutationRing")
        layout_rows = [
            (node, angle, "" if freq is None else _fmt(freq))
            for node, angle, freq in ring_layout(data)
        ]
        layout = _csv_block(("node", "angle_deg", "frequency"), layout_rows)
        edges = _plain_csv_block(("source", "target"), data.edges)
        return layout + "\n" + edges
    raise ValueError(f"unknown export kind {kind!r}")


def _expect_reports(data: object, kind: str) -> Sequence[HeadPlacementReport]:
    if isinstance(data, Sequence) and data and all(
        isinstance(item, HeadPlacementReport) for item in data
    ):
        return data
    raise ValueError(f"export kind {kind!r} expects HeadPlacementReport data")
