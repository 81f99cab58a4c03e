"""CLI output pinned byte for byte against recorded goldens.

Each `goldens/<case>.csv` is an input table; `<case>.<format>.golden` is the
stdout of `headorder analyze --input <case>.csv --format <format>` as recorded
before the integer-transform rows moved into `stats.analyze`.

Each `goldens/null-model/<case>.golden` is the stdout of `headorder
null-model --distribution` on the tree of that case, as recorded while the
exact distribution still held `Fraction` masses.

`perfbench/reproduce_goldens.json` maps "<target>/<format>" to the stdout of
`headorder reproduce <target> --format <format>`; it is read here, never
written. Each `goldens/ring/<case>.golden` is the stdout of `headorder ring`
with the arguments of that case, as recorded before the report blocks moved
into `dataio.Block`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import headorder
from headorder.cli import main

GOLDENS = Path(__file__).parent / "goldens"
REPRODUCE_GOLDENS = json.loads(
    (Path(__file__).parents[1] / "perfbench" / "reproduce_goldens.json").read_text(
        encoding="utf-8"
    )
)
REPRODUCE_VERDICT = "reproduction check: all values match the published ones\n"
CASES = (
    "dryer",  # the embedded noun-phrase table: integer units and adjusted 217.4
    "five_symbols",  # n = 5: transforms in the test block, none in the distance block
    "below_one",  # units with F in [1/2, 1): zero-trial transforms are dropped
    "integer_total",  # integer F with fractional g
)
NULL_MODEL_CASES = {
    **{f"star_{n}": ["--tree", f"star:{n}"] for n in range(1, 10)},
    **{f"path_{n}": ["--tree", f"path:{n}"] for n in range(2, 10)},
    # Pruefer sequences [3,3,5,0,5,6] and [1,7,1,4,0,8,4], vertices from 1
    "prufer_8": ["--tree", "n=8; edges=1-5,1-6,2-4,3-4,4-6,6-7,7-8"],
    "prufer_9": ["--tree", "n=9; edges=1-7,1-9,2-3,2-5,2-6,4-8,5-8,5-9"],
    "star_4_frequency_322": ["--tree", "star:4", "--frequency", "322"],
}
RING_CASES = {
    "sov_fractional": ["--symbols", "SOV", "--freq", "SOV=564", "--freq", "SVO=488.5"],
    "abcd": ["--symbols", "ABCD"],  # m = 4: the node order of a ring past the hexagon
}


@pytest.mark.parametrize("fmt", ["table", "csv"])
@pytest.mark.parametrize("case", CASES)
def test_analyze_output_matches_golden(capsys, case, fmt):
    code = main(["analyze", "--input", str(GOLDENS / f"{case}.csv"), "--format", fmt])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == (GOLDENS / f"{case}.{fmt}.golden").read_text(encoding="utf-8")


@pytest.mark.parametrize("case", NULL_MODEL_CASES)
def test_null_model_distribution_matches_golden(capsys, case):
    code = main(["null-model", "--distribution", *NULL_MODEL_CASES[case]])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    golden = GOLDENS / "null-model" / f"{case}.golden"
    assert captured.out == golden.read_text(encoding="utf-8")


def test_every_reproduce_case_is_pinned():
    targets = ("table2", "table3", "fig2", "fig3", "fig4", "sov-footnote", "all")
    assert sorted(REPRODUCE_GOLDENS) == sorted(
        f"{target}/{fmt}" for target in targets for fmt in ("table", "csv")
    )


@pytest.mark.parametrize("case", sorted(REPRODUCE_GOLDENS))
def test_reproduce_output_matches_golden(capsys, case):
    target, fmt = case.split("/")
    code = main(["reproduce", target, "--format", fmt])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, REPRODUCE_VERDICT)
    assert captured.out == REPRODUCE_GOLDENS[case]


def test_module_entry_point_matches_golden():
    # `python -m headorder` runs __main__, which exits with main()'s code
    src = os.path.dirname(os.path.dirname(headorder.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-m", "headorder", "reproduce", "table2"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, REPRODUCE_VERDICT)
    assert done.stdout == REPRODUCE_GOLDENS["table2/table"]


@pytest.mark.parametrize("case", RING_CASES)
def test_ring_output_matches_golden(capsys, case):
    code = main(["ring", *RING_CASES[case]])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == (GOLDENS / "ring" / f"{case}.golden").read_text(encoding="utf-8")
