import dataclasses
from fractions import Fraction

import pytest

from headorder import published
from headorder.cli import main
from headorder.reproduce import (
    check_fig2,
    check_fig3,
    check_fig4,
    check_sov_footnote,
    check_table2,
    check_table3,
    dryer_reports,
    sov_footnote_rows,
    sov_reproducing_p0,
    table2_rows,
    table3_rows,
)


class TestBuilders:
    def test_table2_shape(self):
        rows = table2_rows(dryer_reports())
        assert len(rows) == 6
        assert [r[0] for r in rows] == ["languages", "genera"] + ["adjusted"] * 4

    def test_table3_shape(self):
        rows = table3_rows(dryer_reports())
        assert len(rows) == 7

    def test_sov_rows(self):
        rows = sov_footnote_rows()
        assert len(rows) == 4
        assert {p0 for _, _, _, p0, _ in rows} == {Fraction(1, 2), Fraction(2, 3)}

    def test_finding_is_one_half(self):
        assert sov_reproducing_p0(sov_footnote_rows()) == {
            "languages": [Fraction(1, 2)],
            "families": [Fraction(1, 2)],
        }


class TestCheckersPassOnRealData:
    def test_all_green(self):
        reports = dryer_reports()
        assert check_table2(table2_rows(reports)) == []
        assert check_table3(table3_rows(reports)) == []
        assert check_sov_footnote(sov_footnote_rows()) == []
        assert check_fig2(reports) == []
        assert check_fig3(reports) == []
        assert check_fig4() == []


class TestCheckersCatchDrift:
    def test_wrong_count(self):
        rows = table2_rows(dryer_reports())
        unit, prop, F, g, p = rows[0]
        rows[0] = (unit, prop, F, g + 1, p)
        assert any("counts" in problem for problem in check_table2(rows))

    def test_proportion_drift(self):
        rows = table2_rows(dryer_reports())
        unit, prop, F, g, p = rows[0]
        rows[0] = (unit, prop + 0.002, F, g, p)
        assert any("proportion" in problem for problem in check_table2(rows))

    def test_p_value_drift(self):
        rows = table2_rows(dryer_reports())
        unit, prop, F, g, p = rows[1]
        rows[1] = (unit, prop, F, g, p * 2)
        assert any("p-value" in problem for problem in check_table2(rows))

    def test_missing_row(self):
        assert check_table2(table2_rows(dryer_reports())[:-1]) != []

    def test_k_drift(self):
        rows = table3_rows(dryer_reports())
        unit, F, d_lo, mu, sigma, mean_D, d_hi, k = rows[0]
        rows[0] = (unit, F, d_lo, mu, sigma, mean_D, d_hi, k + 0.02)
        assert any("k " in problem for problem in check_table3(rows))

    def test_sigma_drift(self):
        rows = table3_rows(dryer_reports())
        unit, F, d_lo, mu, sigma, mean_D, d_hi, k = rows[1]
        rows[1] = (unit, F, d_lo, mu, sigma + 0.002, mean_D, d_hi, k)
        assert any("sigma" in problem for problem in check_table3(rows))

    def test_mean_drift(self):
        rows = table3_rows(dryer_reports())
        unit, F, d_lo, mu, sigma, mean_D, d_hi, k = rows[2]
        rows[2] = (unit, F, d_lo, mu, sigma, mean_D + 0.0015, d_hi, k)
        assert any("<D>" in problem for problem in check_table3(rows))

    def test_fig2_reads_table2_proportion(self, monkeypatch):
        drifted = list(published.TABLE2_PUBLISHED)
        unit, prop, F, g, p = drifted[0]
        drifted[0] = (unit, prop + 0.01, F, g, p)
        monkeypatch.setattr(published, "TABLE2_PUBLISHED", tuple(drifted))
        assert any("proportion" in problem for problem in check_fig2(dryer_reports()))

    def test_fig2_interval_must_bracket(self):
        reports = dryer_reports()
        report = reports[0]
        reports[0] = dataclasses.replace(
            report, ci_ends=(report.proportion + 0.01, report.proportion + 0.02)
        )
        assert check_fig2(reports) != []

    def test_fig3_reads_table3_sigma(self, monkeypatch):
        drifted = list(published.TABLE3_PUBLISHED)
        unit, F, d_lo, mu, sigma, mean_D, d_hi, k = drifted[1]
        drifted[1] = (unit, F, d_lo, mu, sigma + 0.01, mean_D, d_hi, k)
        monkeypatch.setattr(published, "TABLE3_PUBLISHED", tuple(drifted))
        assert any("sigma" in problem for problem in check_fig3(dryer_reports()))

    def test_fig4_node_order(self, monkeypatch):
        nodes = published.RING_NODES_PUBLISHED
        monkeypatch.setattr(
            published, "RING_NODES_PUBLISHED", (nodes[0], nodes[2], nodes[1], *nodes[3:])
        )
        assert check_fig4() != []

    def test_sov_value_no_p0_reproduces(self, monkeypatch):
        monkeypatch.setitem(published.SOV_PUBLISHED, "languages", 1e-10)
        assert check_sov_footnote(sov_footnote_rows()) != []


class TestCliMismatchExit:
    def test_exit_one_when_published_value_drifts(self, capsys, monkeypatch):
        # pretend the published table claimed a different count
        drifted = list(published.TABLE2_PUBLISHED)
        unit, prop, F, g, p = drifted[0]
        drifted[0] = (unit, prop, F, g + 1, p)
        monkeypatch.setattr(published, "TABLE2_PUBLISHED", tuple(drifted))
        code = main(["reproduce", "table2"])
        err = capsys.readouterr().err
        assert code == 1
        assert "mismatch" in err


class TestSharedInputs:
    def test_reproduce_all_computes_each_input_once(self, capsys, monkeypatch):
        from headorder import reproduce

        calls = {"dryer_reports": 0, "sov_footnote_rows": 0}
        for name in calls:
            original = getattr(reproduce, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(reproduce, name, counted)
        assert main(["reproduce", "all"]) == 0
        assert calls == {"dryer_reports": 1, "sov_footnote_rows": 1}
        capsys.readouterr()

    def test_fig4_alone_needs_neither_input(self, capsys, monkeypatch):
        from headorder import reproduce

        def refuse():
            raise AssertionError("not needed for fig4")

        monkeypatch.setattr(reproduce, "dryer_reports", refuse)
        monkeypatch.setattr(reproduce, "sov_footnote_rows", refuse)
        assert main(["reproduce", "fig4"]) == 0
        capsys.readouterr()
