"""CLI output pinned byte for byte against recorded goldens.

Each `goldens/<case>.csv` is an input table; `<case>.<format>.golden` is the
stdout of `headorder analyze --input <case>.csv --format <format>` as recorded
before the integer-transform rows moved into `stats.analyze`.

Each `goldens/null-model/<case>.golden` is the stdout of `headorder
null-model --distribution` on the tree of that case, as recorded while the
exact distribution still held `Fraction` masses.
"""

from pathlib import Path

import pytest

from headorder.cli import main

GOLDENS = Path(__file__).parent / "goldens"
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
