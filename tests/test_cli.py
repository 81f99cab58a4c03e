import os
import subprocess
import sys
import time
import warnings

import pytest

import headorder
from headorder.cli import build_parser, main
from headorder.dataio import builtin_dryer_table, serialize_frequency_table


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReproduce:
    @pytest.mark.parametrize(
        "target", ["table2", "table3", "fig2", "fig3", "fig4", "sov-footnote", "all"]
    )
    def test_exit_zero_on_shipped_dataset(self, capsys, target):
        code, out, err = run(capsys, "reproduce", target)
        assert code == 0
        assert "all values match" in err

    def test_table2_content(self, capsys):
        _, out, _ = run(capsys, "reproduce", "table2")
        assert "languages" in out and "7.3e-12" in out
        assert "0.641" in out and "0.029" in out

    def test_table3_content(self, capsys):
        _, out, _ = run(capsys, "reproduce", "table3")
        for value in ("6.75", "3.46", "1.97", "1.90", "2.10", "2.03", "5.281", "217.4"):
            assert value in out

    def test_sov_footnote_shows_both_parameterizations(self, capsys):
        _, out, _ = run(capsys, "reproduce", "sov-footnote")
        assert "1/2" in out and "2/3" in out
        assert "2.7e-30" in out and "9.2e-37" in out
        assert "reproduced by p0 = 1/2" in out

    def test_fig4_has_nodes_and_edges(self, capsys):
        _, out, _ = run(capsys, "reproduce", "fig4")
        assert out.count("\n\n") == 1
        nodes, edges = out.split("\n\n")
        assert len(nodes.splitlines()) == 7
        assert len(edges.splitlines()) == 7

    def test_csv_format(self, capsys):
        _, out, _ = run(capsys, "reproduce", "table2", "--format", "csv")
        assert out.splitlines()[0] == "unit,g/F,F,g,p-value"
        _, out, _ = run(capsys, "reproduce", "table3", "--format", "csv")
        assert out.splitlines()[0] == "unit,F,D_min,mu(<D>),sigma(<D>),<D>,D_max,k"

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "reproduce", "all")
        _, second, _ = run(capsys, "reproduce", "all")
        assert first == second

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "t2.txt"
        code, out, _ = run(capsys, "reproduce", "table2", "--out", str(target))
        assert code == 0
        assert out == ""
        assert "7.3e-12" in target.read_text()


class TestAnalyze:
    @pytest.fixture
    def table_file(self, tmp_path):
        f = tmp_path / "dryer.csv"
        f.write_text(serialize_frequency_table(builtin_dryer_table()))
        return str(f)

    def test_matches_reproduce_values(self, capsys, table_file):
        code, out, _ = run(capsys, "analyze", "--input", table_file)
        assert code == 0
        _, table2_out, _ = run(capsys, "reproduce", "table2")
        _, table3_out, _ = run(capsys, "reproduce", "table3")
        for line in table2_out.splitlines()[1:]:
            assert line in out
        for line in table3_out.splitlines()[1:]:
            assert line in out

    def test_csv_format(self, capsys, table_file):
        code, out, _ = run(capsys, "analyze", "--input", table_file, "--format", "csv")
        assert code == 0
        assert out.startswith("unit,proportion,F,g,p_value")

    def test_stdin(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr(
            "sys.stdin", io.StringIO(serialize_frequency_table(builtin_dryer_table()))
        )
        code, out, _ = run(capsys, "analyze", "--input", "-")
        assert code == 0
        assert "languages" in out

    def test_byte_order_mark_file(self, capsys, tmp_path, table_file):
        f = tmp_path / "excel.csv"
        text = serialize_frequency_table(builtin_dryer_table())
        f.write_bytes("\ufeff".encode("utf-8") + text.encode("utf-8"))
        code, out, err = run(capsys, "analyze", "--input", str(f))
        assert code == 0 and err == ""
        assert out == run(capsys, "analyze", "--input", table_file)[1]

    def test_byte_order_mark_stdin(self, capsys, monkeypatch, table_file):
        import io

        text = serialize_frequency_table(builtin_dryer_table())
        monkeypatch.setattr("sys.stdin", io.StringIO("\ufeff" + text))
        code, out, err = run(capsys, "analyze", "--input", "-")
        assert code == 0 and err == ""
        assert out == run(capsys, "analyze", "--input", table_file)[1]

    @pytest.mark.parametrize("fmt", ["table", "csv"])
    def test_five_symbol_table(self, capsys, tmp_path, fmt):
        f = tmp_path / "five.csv"
        f.write_text(
            "order,langs,adj\nnABCD,10,2.5\nABnCD,3,1.25\nABCDn,7,0.5\nBnACD,4,3\n"
        )
        code, out, err = run(capsys, "analyze", "--input", str(f), "--format", fmt)
        assert code == 0 and err == ""
        blocks = out.split("\n\n")
        assert len(blocks) == 3
        separator = "," if fmt == "csv" else None
        distance = [line.split(separator) for line in blocks[1].splitlines()]
        units = [cells[0] for cells in distance]
        assert units.count("langs") == 1 and units.count("adj") == 1
        langs = distance[units.index("langs")]
        # (10 * D(1) + 3 * D(3) + 7 * D(5) + 4 * D(2)) / 24 = 216 / 24
        assert float(langs[5]) == 9.0

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("order,u\nnAND,3\nnAND,4\n")
        code, _, err = run(capsys, "analyze", "--input", str(bad))
        assert code == 2
        assert "line 3" in err and "duplicate" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "analyze", "--input", "/no/such/file.csv")
        assert code == 2
        assert "error" in err

    def test_zero_frequency_unit(self, capsys, tmp_path):
        f = tmp_path / "zero.csv"
        f.write_text("order,u\nnAND,0\n")
        code, _, err = run(capsys, "analyze", "--input", str(f))
        assert code == 2
        assert "zero total frequency" in err

    def test_frequency_below_the_smallest_float(self, capsys, tmp_path):
        f = tmp_path / "tiny.csv"
        f.write_text("order,u\nnAD,1e-324\n")
        code, out, err = run(capsys, "analyze", "--input", str(f))
        assert code == 2 and out == ""
        assert err == "error: zero total frequency for unit 'u'\n"

    def test_three_symbol_table(self, capsys, tmp_path):
        f = tmp_path / "sov.csv"
        f.write_text("order,langs\nSOV,564\nSVO,488\nVSO,95\nVOS,25\nOVS,11\nOSV,4\n")
        code, out, _ = run(capsys, "analyze", "--input", str(f), "--head", "V")
        assert code == 0
        assert "langs" in out

    def test_alpha_validated(self, capsys, table_file):
        code, _, err = run(capsys, "analyze", "--input", table_file, "--alpha", "1.5")
        assert code == 2
        assert "--alpha" in err

    def test_zero_denominator_p0(self, capsys, table_file):
        code, out, err = run(capsys, "analyze", "--input", table_file, "--p0", "1/0")
        assert code == 2
        assert out == ""
        assert err.startswith("error: --p0") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "p0", ["1e400", "1e1000", "-1e400", "1e308", "1e-1000", "0.9999999999999999999999"]
    )
    def test_p0_range_checked_at_the_flag(self, capsys, table_file, p0):
        # 1e-1000 and 0.99…9 lie inside (0, 1) but round to 0.0 and 1.0 as floats
        code, out, err = run(capsys, "analyze", "--input", table_file, f"--p0={p0}")
        assert code == 2
        assert out == ""
        assert err == f"error: --p0 must lie in (0, 1) as a float, got {p0!r}\n"
        assert len(err.encode()) < 200

    @pytest.mark.parametrize("p0", ["-1/2", "-1e400", "-0.5"])
    def test_p0_with_a_leading_dash_reaches_the_range_check(
        self, capsys, table_file, p0
    ):
        # a separate value that argparse alone would take for an option
        code, out, err = run(capsys, "analyze", "--input", table_file, "--p0", p0)
        assert (code, out) == (2, "")
        assert err == f"error: --p0 must lie in (0, 1) as a float, got {p0!r}\n"

    def test_count_beyond_float_exactness(self, capsys, tmp_path):
        f = tmp_path / "huge.csv"
        f.write_text("order,u\nnAND,1e400\nDNAn,1\n")
        code, out, err = run(capsys, "analyze", "--input", str(f))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "2**53" in err and err.count("\n") == 1

    def test_two_symbol_table_refused(self, capsys, tmp_path):
        f = tmp_path / "pair.csv"
        f.write_text("order,u\nnA,3\nAn,4\n")
        code, out, err = run(capsys, "analyze", "--input", str(f))
        assert code == 2
        assert out == ""
        assert err == (
            "error: head-end test is degenerate for n=2: "
            "every order puts the head at an end\n"
        )

    def test_frequency_rounding_to_zero_trials_refused(self, capsys, tmp_path):
        # F = 2/5 rounds to 0 trials while the head sits at an end in half of it
        f = tmp_path / "tiny.csv"
        f.write_text("order,u\nnAND,0.2\nDnAN,0.2\n")
        code, out, err = run(capsys, "analyze", "--input", str(f))
        assert code == 2
        assert out == ""
        assert err.startswith("error: F = 2/5 rounds to 0 trials")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "row, shown",
        [("nAD,1e-320", "1e-320"), ("nAD,0.3", "3/10"), ("AnD,0.3", "3/10")],
    )
    def test_frequency_below_half_refused_at_either_extreme(
        self, capsys, tmp_path, row, shown
    ):
        # every order (or none) puts the head at an end, so g/F is 1 (or 0)
        f = tmp_path / "tiny.csv"
        f.write_text(f"order,u\n{row}\n")
        code, out, err = run(capsys, "analyze", "--input", str(f))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: F = {shown} rounds to 0 trials for unit 'u'")
        assert err.count("\n") == 1 and len(err.encode()) < 200

    def test_p0_override(self, capsys, table_file):
        code_default, out_default, _ = run(capsys, "analyze", "--input", table_file)
        code_override, out_override, _ = run(
            capsys, "analyze", "--input", table_file, "--p0", "2/3"
        )
        assert code_default == code_override == 0
        assert out_default != out_override


class TestNullModel:
    def test_star4(self, capsys):
        code, out, _ = run(capsys, "null-model", "--tree", "star:4")
        assert code == 0
        assert "mean D (shuffling) = 5" in out
        assert "variance of D = 1" in out

    def test_explicit_tree_form(self, capsys):
        code, out, _ = run(
            capsys, "null-model", "--tree", "n=4; edges=1-2,1-3,1-4; head=1"
        )
        assert code == 0
        assert "variance of D = 1" in out

    def test_path5_distribution(self, capsys):
        code, out, _ = run(
            capsys, "null-model", "--tree", "path:5", "--distribution"
        )
        assert code == 0
        assert "variance of D = 13/5" in out
        assert "oracle agrees with closed forms: yes" in out

    def test_sigma_with_frequency(self, capsys):
        code, out, _ = run(
            capsys, "null-model", "--tree", "star:3", "--frequency", "322"
        )
        assert code == 0
        assert "sigma(<D>)" in out

    def test_cap_exceeded(self, capsys):
        code, _, err = run(
            capsys, "null-model", "--tree", "path:17", "--distribution"
        )
        assert code == 2
        assert "n <= 16" in err

    def test_ceiling_refuses_a_huge_cap(self, capsys):
        code, out, err = run(
            capsys, "null-model", "--tree", "path:40", "--distribution"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "2**40" in err and err.count("\n") == 1

    def test_distribution_below_the_ceiling(self, capsys):
        code, out, _ = run(capsys, "null-model", "--tree", "star:12", "--distribution")
        assert code == 0
        assert "unimodal: yes" in out
        assert "oracle agrees with closed forms: yes" in out

    def test_bad_tree_spec(self, capsys):
        code, _, err = run(capsys, "null-model", "--tree", "n=3")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_frequency(self, capsys, value):
        code, out, err = run(
            capsys, "null-model", "--tree", "star:3", "--frequency", value
        )
        assert code == 2
        assert out == ""
        assert err == f"error: --frequency must be a finite number, got {value}\n"

    def test_shorthand_with_bad_count(self, capsys):
        code, out, err = run(capsys, "null-model", "--tree", "star:abc")
        assert code == 2
        assert out == ""
        assert err == "error: invalid vertex count 'abc'\n"


class TestRingCommand:
    def test_layout_and_edges(self, capsys):
        code, out, _ = run(capsys, "ring", "--symbols", "SOV")
        assert code == 0
        assert "SOV,90," in out
        assert "source,target" in out

    def test_four_symbols_print_no_warning(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "ring", "--symbols", "ABCD")
        assert code == 0
        assert err == "" and caught == []
        assert out.count(",90,") == 1 and "ABCD" in out

    def test_frequencies(self, capsys):
        code, out, _ = run(capsys, "ring", "--symbols", "SOV", "--freq", "SOV=564")
        assert code == 0
        assert "SOV,90,564" in out

    def test_bad_freq_syntax(self, capsys):
        code, _, err = run(capsys, "ring", "--freq", "SOV:564")
        assert code == 2
        assert "ORDER=COUNT" in err

    def test_unknown_order(self, capsys):
        code, _, err = run(capsys, "ring", "--freq", "XYZ=5")
        assert code == 2

    def test_freq_with_a_leading_dash_reaches_the_key_check(self, capsys):
        for argv in (["--freq", "-SOV=1"], ["--freq=-SOV=1"]):
            code, out, err = run(capsys, "ring", *argv)
            assert (code, out) == (2, "")
            assert err == "error: frequency keys not in node set: -SOV\n"

    def test_zero_denominator_count(self, capsys):
        code, out, err = run(capsys, "ring", "--freq", "SOV=1/0")
        assert code == 2
        assert out == ""
        assert err.startswith("error: --freq") and err.count("\n") == 1


class TestResourceRefusals:
    """Requests too large to serve are refused before the work is built."""

    def refuse(self, capsys, *argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 0.1
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err
        return err

    def test_huge_exponent_cell(self, capsys, tmp_path):
        f = tmp_path / "exponent.csv"
        f.write_text("order,u\nnAND,3\nDnAN,0e100000\n")
        err = self.refuse(capsys, "analyze", "--input", str(f))
        assert err.startswith("error: line 3:") and "exceeds 1000 in magnitude" in err

    def test_huge_exponent_p0(self, capsys, tmp_path):
        f = tmp_path / "dryer.csv"
        f.write_text(serialize_frequency_table(builtin_dryer_table()))
        err = self.refuse(capsys, "analyze", "--input", str(f), "--p0", "5e-100001")
        assert err.startswith("error: --p0:") and "exceeds 1000 in magnitude" in err

    def test_too_many_ring_symbols(self, capsys):
        err = self.refuse(capsys, "ring", "--symbols", "ABCDEFGHI")
        assert "9 symbols are above the limit of 8" in err

    def test_too_many_tree_vertices(self, capsys):
        err = self.refuse(capsys, "null-model", "--tree", "star:10001")
        assert "above the limit of 10,000" in err


class TestParserReuse:
    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_append_default_does_not_leak(self, capsys):
        code, out, _ = run(capsys, "ring", "--symbols", "ABC", "--freq", "ABC=1")
        assert code == 0
        assert "ABC,90,1\n" in out
        code, out, _ = run(capsys, "ring", "--symbols", "ABC")
        assert code == 0
        assert "ABC,90,\n" in out
        assert build_parser().parse_args(["ring"]).freq == []

    def test_usage_error_leaves_no_state(self, capsys):
        argv = ["null-model", "--tree", "path:6", "--frequency", "50", "--distribution"]
        build_parser.cache_clear()
        fresh = run(capsys, *argv)
        with pytest.raises(SystemExit) as exc:
            main(["null-model", "--tree", "star:3", "--frequency", "x"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run(capsys, *argv) == fresh
        assert fresh[0] == 0

    def test_import_builds_no_parser(self):
        src = os.path.dirname(os.path.dirname(headorder.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        check = (
            "import headorder.cli as cli; "
            "raise SystemExit(cli.build_parser.cache_info().currsize)"
        )
        subprocess.run([sys.executable, "-c", check], env=env, check=True)


@pytest.mark.parametrize(
    "argv",
    [
        ["null-model", "--tree=star:3", "--frequency=--"],
        ["analyze", "--input=-", "--alpha=--"],
        ["ring", "--freq=--"],
        ["reproduce", "table2", "--out=--"],
    ],
)
def test_double_dash_value_refused(capsys, argv):
    # argparse would drop a "--" value and hand the command an empty list
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1].endswith("expected one argument")


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--input=-", "--p0", "--strict"],
        ["analyze", "--input=-", "--p0", "-h"],
        ["ring", "--freq", "--symbols=SOV"],
        ["ring", "--freq", "-h"],
    ],
)
def test_option_after_a_dash_value_option_is_no_value(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1].endswith("expected one argument")
