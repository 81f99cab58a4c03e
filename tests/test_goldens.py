"""`analyze` output pinned byte for byte against recorded goldens.

Each `goldens/<case>.csv` is an input table; `<case>.<format>.golden` is the
stdout of `headorder analyze --input <case>.csv --format <format>` as recorded
before the integer-transform rows moved into `stats.analyze`.
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


@pytest.mark.parametrize("fmt", ["table", "csv"])
@pytest.mark.parametrize("case", CASES)
def test_analyze_output_matches_golden(capsys, case, fmt):
    code = main(["analyze", "--input", str(GOLDENS / f"{case}.csv"), "--format", fmt])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert captured.out == (GOLDENS / f"{case}.{fmt}.golden").read_text(encoding="utf-8")
