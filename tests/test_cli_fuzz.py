"""Generated command lines through in-process `main()`: the exit-code contract.

Every request either succeeds (exit 0, nothing on stderr) or is refused (exit
2, stderr ending in one `error:` line); none ends in a traceback. Most
requests are valid and some carry one corrupted field, so both paths are
reached. Sizes stay small (alphabets of at most 6 symbols, trees of at most
12 vertices, cells far below the costly F range or far above the 10**9
refusal), so the suite never launches an expensive request itself. Among the
junk are texts above Python's digit limit and above csv's field limit.
"""

import contextlib
import io
import itertools
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from headorder.cli import main

SETTINGS = settings(max_examples=100, deadline=None)

digits = st.integers(min_value=0, max_value=999).map(str)
# exponents of at most three digits: small ones keep F below ~1e7, large
# negative ones shrink a cell far below one instance, and large positive ones
# (among the junk) are refused above 10**9
exponent = st.one_of(
    st.integers(min_value=-3, max_value=2), st.integers(min_value=-999, max_value=-100)
)
numbers = st.one_of(
    digits,
    st.builds("{}.{}".format, digits, digits),
    st.builds("{}e{}".format, digits, exponent),
    st.builds("{}/{}".format, digits, st.integers(min_value=1, max_value=999)),
)
junk = st.one_of(
    st.text(alphabet="x-/.e+ 1;,=:\t\"", max_size=6),
    # above Python's 4,300-digit limit for an int from text, and above csv's
    # field size limit of 131,072 characters
    st.sampled_from(["9" * 5_000, "9" * 200_000]),
    st.builds("-{}".format, digits),
    st.builds("{}/0".format, digits),
    st.builds("{}e{}".format, digits, st.integers(min_value=100, max_value=999)),
    st.just("--"),
)
probabilities = st.one_of(
    st.builds(
        lambda a, b: f"{min(a, b)}/{max(a, b) + 1}",
        st.integers(min_value=1, max_value=99),
        st.integers(min_value=1, max_value=99),
    ),
    st.builds("0.{}".format, digits),
    numbers,
    st.sampled_from(["1e400", "-1e400", "1e-1000", "0.9999999999999999999999"]),
    junk,
)


def run(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def check_contract(argv, stdin=""):
    code, _, err = run(argv, stdin)
    assert code in (0, 2), (argv, code, err)
    assert "Traceback" not in err
    if code == 0:
        assert err == "", (argv, err)
    else:
        lines = err.splitlines()
        assert lines and err.endswith("\n"), (argv, err)
        assert "error:" in lines[-1], (argv, err)
        assert not any("error:" in line for line in lines[:-1]), (argv, err)


def corrupt(draw, cells, bad):
    """Replace one of `cells` by a draw from `bad`, or none of them."""
    if cells and draw(st.integers(min_value=0, max_value=3)) == 0:
        cells[draw(st.integers(min_value=0, max_value=len(cells) - 1))] = draw(bad)
    return cells


@st.composite
def frequency_tables(draw):
    alphabet = draw(st.sampled_from(["nA", "nAD", "nADN", "nADNC", "nADNCE", "ABD"]))
    orders = ["".join(p) for p in itertools.permutations(alphabet)]
    units = draw(
        st.lists(st.sampled_from(["u", "langs", "genera"]), min_size=1, unique=True)
    )
    rows = draw(st.lists(st.sampled_from(orders), min_size=1, max_size=24, unique=True))
    width = len(units)
    lines = [["order", *units]]
    lines += [
        [order, *draw(st.lists(numbers, min_size=width, max_size=width))]
        for order in rows
    ]
    line = draw(st.integers(min_value=0, max_value=len(lines) - 1))
    corrupt(draw, lines[line], st.one_of(junk, st.sampled_from(["", "nn", "order"])))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + "".join(",".join(cells) + "\n" for cells in lines)


@given(
    table=frequency_tables(),
    options=st.lists(
        st.one_of(
            st.builds("--p0={}".format, probabilities),
            st.builds("--alpha={}".format, st.sampled_from(["0.01", "0.5", "0", "nan"])),
            st.sampled_from(["--strict", "--format=csv", "--head=A"]),
        ),
        max_size=2,
    ),
)
@example(table="order,u\nnAD,3\nAnD,4\nADn,5\n", options=["--p0=1e400"])
@example(table="order,u\nnAD,3\nAnD," + "9" * 200_000 + "\n", options=[])
@example(table="order,u\nnAD,3\nAnD," + "9" * 5_000 + "\n", options=[])
@example(table="order,u\nnAD,3\nAnD,4\nADn,5\n", options=["--p0", "-1/2"])
@SETTINGS
def test_analyze(table, options):
    check_contract(["analyze", "--input", "-", *options], table)


@st.composite
def trees(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    shorthand = draw(st.sampled_from(["star", "path", None]))
    if shorthand:
        return f"{shorthand}:{n}"
    # vertex v > 1 hangs from a random earlier vertex, which gives a tree
    edges = [f"{draw(st.integers(1, v - 1))}-{v}" for v in range(2, n + 1)]
    fields = [f"n={n}", f"edges={','.join(edges)}", f"head={draw(st.integers(1, n))}"]
    corrupt(draw, fields, st.sampled_from(["n=0", "edges=1-1", "edges=1-99", "head=0"]))
    corrupt(draw, fields, junk)
    return "; ".join(fields)


@given(
    tree=trees(),
    frequency=st.one_of(st.none(), digits, junk, st.sampled_from(["nan", "inf", "-5"])),
    distribution=st.booleans(),
)
@SETTINGS
def test_null_model(tree, frequency, distribution):
    argv = ["null-model", f"--tree={tree}"]
    if frequency is not None:
        argv.append(f"--frequency={frequency}")
    if distribution:
        argv.append("--distribution")
    check_contract(argv)


@st.composite
def ring_requests(draw):
    symbols = draw(st.lists(st.sampled_from("SOVABC"), max_size=6, unique=True))
    orders = ["".join(p) for p in itertools.permutations(symbols)]
    keys = st.sampled_from(orders) if orders else st.just("SOV")
    freqs = draw(st.lists(st.builds("{}={}".format, keys, numbers), max_size=3))
    argv = ["ring", f"--symbols={''.join(symbols)}", *(f"--freq={f}" for f in freqs)]
    bad = st.sampled_from(["--symbols=SOS", "--freq=SOV", "--freq=XY=1"])
    return corrupt(draw, argv, bad)


@given(argv=ring_requests())
@example(argv=["ring", "--symbols=ABCD"])
@example(argv=["ring", "--freq", "-SOV=1"])
@SETTINGS
def test_ring(argv):
    check_contract(argv)
