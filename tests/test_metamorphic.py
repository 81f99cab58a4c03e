"""Metamorphic relations of `headorder analyze`.

A report depends only on each unit's frequency at each head position, and the
distance sum D of a position equals that of its mirror image. So reversing
every order string, renaming the non-head symbols by a bijection and
permuting the rows leave stdout of in-process `main()` byte-identical, and
permuting the unit columns permutes the rows of every block. Two relations
compare the reports of `stats.analyze`: scaling every cell by c keeps g/F and
<D> and scales sigma by 1/sqrt(c) and k by sqrt(c); a unit summed cell by
cell from two others has the summed F, g and F * <D>. The tables (n = 3..6,
at most six rows, small cells) are ones no golden holds, and none is costly.
"""

import contextlib
import io
import math
import sys
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from headorder import stats
from headorder.cli import main
from headorder.dataio import TableSchema, load_frequency_table

SETTINGS = settings(max_examples=100, deadline=None)
REPORT_SETTINGS = settings(max_examples=50, deadline=None)  # two analyses each, no text
SYMBOLS = "ABCDE"  # the non-head symbols; the head is "n"

cells = st.one_of(
    st.integers(min_value=0, max_value=60).map(str),
    st.builds("{}/4".format, st.integers(min_value=0, max_value=240)),
    st.builds("{}.{}".format, st.integers(min_value=0, max_value=60), st.integers(0, 9)),
)


@st.composite
def tables(draw):
    """(orders, units, rows of cells); every unit has a total of at least 1."""
    n = draw(st.integers(min_value=3, max_value=6))
    alphabet = SYMBOLS[: n - 1] + "n"
    orders = draw(
        st.lists(
            st.permutations(alphabet).map("".join), min_size=1, max_size=6, unique=True
        )
    )
    units = [f"u{i}" for i in range(draw(st.integers(min_value=1, max_value=3)))]
    rows = [[draw(cells) for _ in units] for _ in orders]
    rows[0] = [str(draw(st.integers(min_value=1, max_value=60))) for _ in units]
    return orders, units, rows


def to_csv(orders, units, rows) -> str:
    lines = [",".join(("order", *units))]
    lines += [",".join((order, *row)) for order, row in zip(orders, rows)]
    return "\n".join(lines) + "\n"


def analyze(text: str, fmt: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["analyze", "--input", "-", "--format", fmt])
    finally:
        sys.stdin = saved
    assert (code, err.getvalue()) == (0, ""), text
    return out.getvalue()


def blocks(out: str, fmt: str) -> list[tuple[list[str], list[str]]]:
    """(leading lines, row lines) of each report block."""
    lead = 2 if fmt == "table" else 1  # the table format adds a caption line
    return [
        (block.splitlines()[:lead], block.splitlines()[lead:]) for block in out.split("\n\n")
    ]


formats = st.sampled_from(["table", "csv"])


@SETTINGS
@given(tables(), formats, st.data())
def test_symmetries_leave_the_report_unchanged(table, fmt, data):
    orders, units, rows = table
    expected = analyze(to_csv(orders, units, rows), fmt)

    reversed_orders = [order[::-1] for order in orders]
    assert analyze(to_csv(reversed_orders, units, rows), fmt) == expected

    others = sorted(set(orders[0]) - {"n"})
    renamed = dict(zip(others, data.draw(st.permutations(others))))
    renamed_orders = ["".join(renamed.get(c, c) for c in order) for order in orders]
    assert analyze(to_csv(renamed_orders, units, rows), fmt) == expected

    shuffled = data.draw(st.permutations(range(len(orders))))
    shuffled_orders = [orders[i] for i in shuffled]
    shuffled_rows = [rows[i] for i in shuffled]
    assert analyze(to_csv(shuffled_orders, units, shuffled_rows), fmt) == expected


@SETTINGS
@given(tables(), formats, st.data())
def test_permuting_units_permutes_the_report_rows(table, fmt, data):
    orders, units, rows = table
    columns = data.draw(st.permutations(range(len(units))))
    permuted_units = [units[j] for j in columns]
    permuted_rows = [[row[j] for j in columns] for row in rows]
    base = blocks(analyze(to_csv(orders, units, rows), fmt), fmt)
    permuted = blocks(analyze(to_csv(orders, permuted_units, permuted_rows), fmt), fmt)
    assert len(base) == len(permuted) == 3

    def unit(line):
        return line.split("," if fmt == "csv" else None)[0]

    for (lead, lines), (permuted_lead, permuted_lines) in zip(base, permuted):
        assert lead == permuted_lead
        assert [unit(line) for line in lines] == sorted(map(unit, lines), key=units.index)
        # a stable sort keeps each unit's rows (its transforms) in their order
        assert permuted_lines == sorted(lines, key=lambda line: permuted_units.index(unit(line)))


def load(orders, units, rows) -> stats.OrderFrequencyTable:
    return load_frequency_table(to_csv(orders, units, rows), TableSchema(head="n"))


def with_cells(table, units, cell) -> stats.OrderFrequencyTable:
    """The table over `units`, each cell given by cell(frequencies of the row, unit)."""
    rows = {
        order: {unit: cell(freqs, unit) for unit in units}
        for order, freqs in table.rows.items()
    }
    return stats.OrderFrequencyTable(table.alphabet, table.head, units, rows)


@REPORT_SETTINGS
@given(tables(), st.sampled_from([2, 3, 7]))
def test_scaling_every_cell_scales_sigma_and_k(table, c):
    base = load(*table)
    scaled = with_cells(base, base.units, lambda freqs, unit: c * freqs.get(unit, 0))
    for report, scaled_report in zip(stats.analyze(base), stats.analyze(scaled)):
        assert scaled_report.F == c * report.F
        assert scaled_report.g / scaled_report.F == report.g / report.F
        assert scaled_report.mean_D == report.mean_D
        sigma = report.sigma_mean_D / math.sqrt(c)
        assert math.isclose(scaled_report.sigma_mean_D, sigma, rel_tol=1e-12)
        assert math.isclose(scaled_report.k, report.k * math.sqrt(c), rel_tol=1e-12)


@REPORT_SETTINGS
@given(tables())
def test_a_unit_summed_from_two_adds_F_g_and_total_D(table):
    base = load(*table)
    u, v = base.units[0], base.units[-1]  # one unit twice if the table has one

    def cell(freqs, unit):
        if unit == "w":
            return freqs.get(u, Fraction(0)) + freqs.get(v, Fraction(0))
        return freqs.get(unit, Fraction(0))

    summed = with_cells(base, (*base.units, "w"), cell)
    reports = {report.unit: report for report in stats.analyze(summed)}
    U, V, W = reports[u], reports[v], reports["w"]
    assert (W.F, W.g) == (U.F + V.F, U.g + V.g)
    total_D = float(U.F) * U.mean_D + float(V.F) * V.mean_D
    assert math.isclose(float(W.F) * W.mean_D, total_D, rel_tol=1e-12)
