import random
import sys
from fractions import Fraction
from itertools import permutations

import pytest

from frequency_oracle import head_end_frequency, total_frequency
import headorder
from headorder import stats
from headorder.dataio import (
    MAX_DECIMAL_EXPONENT,
    TableParseError,
    TableSchema,
    builtin_dryer_table,
    builtin_sov_aggregates,
    ci_rows,
    distance_rows,
    export_plot_data,
    head_end_test_rows,
    load_frequency_table,
    parse_exact,
    reports_to_csv,
    serialize_frequency_table,
)
from headorder.nullmodel import enumerate_D_distribution
from headorder.rings import build_ring
from headorder.stats import analyze
from headorder.trees import star


class TestEmbeddedData:
    def test_row_inventory(self):
        table = builtin_dryer_table()
        assert len(table.rows) == 24
        assert set(table.rows) == {"".join(p) for p in permutations("DNAn")}

    def test_specific_rows(self):
        table = builtin_dryer_table()
        assert table.frequency("nAND", "languages") == 182
        assert table.frequency("nAND", "adjusted") == Fraction("44.17")
        assert all(table.frequency("ANnD", unit) == 0 for unit in table.units)

    def test_column_totals(self):
        table = builtin_dryer_table()
        assert total_frequency(table, "languages") == 576
        assert total_frequency(table, "genera") == 322
        assert total_frequency(table, "adjusted") == Fraction("217.4")

    def test_head_end_counts_cross_validate(self):
        # recomputed from rows; matches the published test table
        table = builtin_dryer_table()
        assert head_end_frequency(table, "languages") == 369
        assert head_end_frequency(table, "genera") == 192
        assert head_end_frequency(table, "adjusted") == Fraction("123.2")

    def test_sov_aggregates(self):
        aggregates = builtin_sov_aggregates()
        assert aggregates["languages"] == (5128, 2971)
        assert aggregates["families"] == (340, 282)
        F, g = aggregates["families"]
        assert g / F == pytest.approx(0.83, abs=5e-3)

    def test_bundle(self):
        # each call hands out an equal, independent copy of the embedded data
        assert builtin_dryer_table() == builtin_dryer_table()
        aggregates = builtin_sov_aggregates()
        aggregates["languages"] = (0, 0)
        assert builtin_sov_aggregates()["languages"] == (5128, 2971)


class TestRoundTrip:
    def test_embedded_table_round_trips(self):
        table = builtin_dryer_table()
        text = serialize_frequency_table(table)
        reloaded = load_frequency_table(text, TableSchema(head="n"))
        assert reloaded == table

    def test_serialization_is_deterministic(self):
        a = serialize_frequency_table(builtin_dryer_table())
        b = serialize_frequency_table(builtin_dryer_table())
        assert a == b

    def test_exotic_fractions_round_trip(self):
        from headorder.stats import OrderFrequencyTable

        rows = {
            "abc": {"u": Fraction(1, 3)},
            "bca": {"u": Fraction(7, 2)},
            "cab": {"u": Fraction(5)},
        }
        table = OrderFrequencyTable(("a", "b", "c"), "a", ("u",), rows)
        assert load_frequency_table(
            serialize_frequency_table(table), TableSchema(head="a")
        ) == table


class TestLoader:
    GOOD = "order,u\nnAND,3\nDNAn,2.5\n"

    def test_loads_bytes_and_str(self):
        schema = TableSchema(head="n")
        from_str = load_frequency_table(self.GOOD, schema)
        from_bytes = load_frequency_table(self.GOOD.encode(), schema)
        assert from_str == from_bytes
        assert from_str.frequency("DNAn", "u") == Fraction(5, 2)
        assert from_str.alphabet == ("A", "D", "N", "n")  # first row's, sorted

    def test_missing_orders_default_to_zero(self):
        table = load_frequency_table(self.GOOD, TableSchema(head="n"))
        assert table.frequency("ANnD", "u") == 0

    def test_duplicate_order(self):
        text = "order,u\nnAND,3\nnAND,4\n"
        with pytest.raises(TableParseError, match="duplicate order 'nAND'") as info:
            load_frequency_table(text, TableSchema(head="n"))
        assert info.value.line == 3

    def test_non_permutation(self):
        text = "order,u\nnAND,3\nDDAN,4\n"
        with pytest.raises(TableParseError, match="not a permutation"):
            load_frequency_table(text, TableSchema(head="n"))

    def test_negative_frequency(self):
        text = "order,u\nnAND,-3\n"
        with pytest.raises(TableParseError, match="negative"):
            load_frequency_table(text, TableSchema(head="n"))

    def test_bad_number(self):
        text = "order,u\nnAND,many\n"
        with pytest.raises(TableParseError, match="invalid frequency"):
            load_frequency_table(text, TableSchema(head="n"))

    def test_bad_header(self):
        with pytest.raises(TableParseError, match="'order'"):
            load_frequency_table("word,u\nnAND,3\n", TableSchema(head="n"))

    def test_no_units(self):
        with pytest.raises(TableParseError, match="unit"):
            load_frequency_table("order\nnAND\n", TableSchema(head="n"))

    def test_empty_input(self):
        with pytest.raises(TableParseError, match="empty"):
            load_frequency_table("", TableSchema(head="n"))

    def test_no_data_rows(self):
        with pytest.raises(TableParseError, match="no data rows"):
            load_frequency_table("order,u\n", TableSchema(head="n"))

    def test_head_must_be_in_alphabet(self):
        with pytest.raises(TableParseError, match="head symbol"):
            load_frequency_table(self.GOOD, TableSchema(head="x"))

    def test_column_count_mismatch(self):
        text = "order,u,v\nnAND,3\n"
        with pytest.raises(TableParseError, match="columns"):
            load_frequency_table(text, TableSchema(head="n"))

    def test_strict_mode(self):
        with pytest.raises(TableParseError, match="strict"):
            load_frequency_table(self.GOOD, TableSchema(head="n", strict=True))
        full = serialize_frequency_table(builtin_dryer_table())
        load_frequency_table(full, TableSchema(head="n", strict=True))

    @pytest.mark.parametrize(
        "text, line",
        [
            ("order,u\nnAND,3\nDDAN,4\n", 3),  # not a permutation
            ("order,u\nnAND,3\nDNAn,1\nDnAN,-1\n", 4),  # negative
            ("order,u\nnnAD,3\nnAND,4\n", 2),  # the first row repeats a symbol
            ("order,u\nnAND,3\n\nDNAn,1\nDnAN,-1\n", 5),  # after a blank line
        ],
    )
    def test_row_refused_by_the_table_keeps_its_line(self, text, line):
        with pytest.raises(TableParseError) as info:
            load_frequency_table(text, TableSchema(head="n"))
        assert info.value.line == line
        assert str(info.value).startswith(f"line {line}: ")
        assert info.value.order == text.splitlines()[line - 1].split(",")[0]

    def test_text_errors_come_before_row_rules(self):
        # the whole text is read before the table checks its rows
        text = "order,u\nnAND,3\nDDAN,4\nDNAn,many\n"
        with pytest.raises(TableParseError, match="invalid frequency") as info:
            load_frequency_table(text, TableSchema(head="n"))
        assert info.value.line == 4

    def test_field_above_the_csv_limit(self):
        # csv raises csv.Error, not a ValueError; the loader names the line
        text = "order,u\nnAND,3\nDNAn," + "9" * 200_000 + "\n"
        with pytest.raises(TableParseError, match="field larger than field limit") as info:
            load_frequency_table(text, TableSchema(head="n"))
        assert info.value.line == 3

    def test_repeated_unit_column(self):
        with pytest.raises(TableParseError, match="distinct") as info:
            load_frequency_table("order,u,u\nnAND,3,4\n", TableSchema(head="n"))
        assert info.value.line is None and info.value.order is None

    def test_one_exception_class(self):
        assert TableParseError is stats.TableParseError is headorder.TableParseError

    def test_fuzzed_mutations_are_rejected(self):
        # flipping any one field of a valid file to a broken variant must fail
        base_lines = serialize_frequency_table(builtin_dryer_table()).splitlines()
        breakages = [
            lambda line: line.replace(",", ";", 1),  # column structure
            lambda line: "X" + line[1:],  # alien symbol
            lambda line: line + ",9",  # extra column
            lambda line: line.replace(line.split(",")[1], "-1", 1),  # negative
        ]
        rng = random.Random(99)
        rejected = 0
        for _ in range(60):
            lines = list(base_lines)
            target = rng.randrange(1, len(lines))
            lines[target] = rng.choice(breakages)(lines[target])
            text = "\n".join(lines) + "\n"
            try:
                table = load_frequency_table(text, TableSchema(head="n"))
            except TableParseError:
                rejected += 1
            else:
                # a mutation may (rarely) yield a different but valid table;
                # it must then differ from the original
                assert table != builtin_dryer_table()
        assert rejected > 40


class TestExports:
    def test_fig2_columns(self):
        reports = analyze(builtin_dryer_table())
        text = export_plot_data(ci_rows(reports), "fig2")
        lines = text.splitlines()
        assert lines[0] == "unit,placement,proportion,ci_lo,ci_hi"
        assert len(lines) == 1 + 2 * len(reports)
        assert lines[1].startswith("languages,ends,0.640625,")

    def test_fig3_columns(self):
        reports = analyze(builtin_dryer_table())
        text = export_plot_data(reports, "fig3")
        lines = text.splitlines()
        assert lines[0].startswith("unit,null_mean_D,sigma,mean_D,band1_lo")
        assert lines[1].startswith("languages,5,")
        assert "5.28125" in lines[1]

    def test_fig4_blocks(self):
        ring = build_ring("SOV")
        text = export_plot_data(ring, "fig4")
        node_block, edge_block = text.split("\n\n")
        assert node_block.splitlines()[0] == "node,angle_deg,frequency"
        assert len(node_block.splitlines()) == 7
        assert edge_block.splitlines()[0] == "source,target"
        assert len(edge_block.splitlines()) == 7

    def test_fig4_empty_frequencies(self):
        text = export_plot_data(build_ring("SOV"), "fig4")
        assert "SOV,90," in text  # empty frequency column

    def test_distribution_export(self):
        dist = enumerate_D_distribution(star(4))
        assert "4,1/2,0.5" in dist.to_csv()
        with pytest.raises(ValueError, match="unknown export kind"):
            export_plot_data(dist, "distribution")

    def test_kind_mismatch(self):
        with pytest.raises(ValueError, match="unknown export kind"):
            export_plot_data(analyze(builtin_dryer_table()), "fig9")

    def test_reports_csv_blocks(self):
        reports = analyze(builtin_dryer_table())
        text = reports_to_csv(reports)
        blocks = text.split("\n\n")
        assert len(blocks) == 3
        assert blocks[0].splitlines()[0] == "unit,proportion,F,g,p_value"
        assert blocks[1].splitlines()[0] == "unit,F,D_min,null_mean_D,sigma,mean_D,D_max,k"
        # six test rows, seven distance rows, three CI rows
        assert len(blocks[0].splitlines()) == 7
        assert len(blocks[1].splitlines()) == 8

    def test_row_builders_match_published_shapes(self):
        reports = analyze(builtin_dryer_table())
        assert len(head_end_test_rows(reports)) == 6
        assert len(distance_rows(reports)) == 7


class TestParseExact:
    def test_exact_values(self):
        assert parse_exact("564", "x") == 564
        assert parse_exact(" 1/2 ", "x") == Fraction(1, 2)
        assert parse_exact("2.5e3", "x") == 2500
        assert parse_exact("1_0E-0_1", "x") == 1
        limit = MAX_DECIMAL_EXPONENT
        assert parse_exact(f"1e{limit}", "x") == 10**limit
        assert parse_exact(f"1e-{limit}", "x") == Fraction(1, 10**limit)

    def test_exponent_bound(self):
        limit = MAX_DECIMAL_EXPONENT
        for text in (f"1e{limit + 1}", f"5E-{limit + 1}", "0e999999999", "1e" + "9" * 5000):
            with pytest.raises(ValueError, match="^x: the decimal exponent .* exceeds"):
                parse_exact(text, "x")

    def test_digit_limit(self):
        # Python's int() refuses a longer run of digits; the message names
        # that limit and shows only the ends of the text
        limit = sys.get_int_max_str_digits()
        for text in ("9" * (limit + 1), "0." + "9" * (limit + 1), "1/" + "1_" * limit + "1"):
            with pytest.raises(ValueError, match=f"^x: more than {limit:,} digits") as info:
                parse_exact(text, "x")
            assert len(str(info.value)) < 120
        assert parse_exact("9" * limit, "x") == int("9" * limit)

    def test_invalid(self):
        for text in ("many", "1/0", "nan", "1e5/2", ""):
            with pytest.raises(ValueError, match="^x: expected a number or fraction"):
                parse_exact(text, "x")
