"""Command-line interface: reproduce, analyze, null-model, and ring commands.

Exit codes: 0 = success (reproduction targets: all values match the
published ones), 1 = reproduction mismatch, 2 = usage, parse, or resource
error.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import reproduce
from .dataio import (
    DISTANCE_TITLES,
    HEAD_END_TEST_TITLES,
    TableSchema,
    distance_cells,
    export_plot_data,
    format_p_value,
    head_end_test_cells,
    load_frequency_table,
    parse_exact,
    render_block,
    reports_to_csv,
    reports_to_text,
)
from .nullmodel import (
    DP_CEILING,
    check_three_sigma_assumptions,
    enumerate_D_distribution,
    null_moments,
)
from .rings import build_ring
from .stats import analyze
from .trees import parse_tree

REPRODUCE_TARGETS = ("table2", "table3", "fig2", "fig3", "fig4", "sov-footnote", "all")
DRYER_TARGETS = ("table2", "table3", "fig2", "fig3")
# Options whose value is free text that may start with "-" (-1/2, -SOV=1);
# argparse would take such a value for an option of its own.
DASH_VALUE_OPTIONS = ("--p0", "--freq")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use (not at import).

    Reusing it is safe: every parse starts from a fresh namespace, and the
    shared ``append`` default is copied, never extended in place.
    """
    parser = argparse.ArgumentParser(
        prog="headorder",
        description="Head-placement statistics for linearized single-head phrases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_repro = sub.add_parser(
        "reproduce", help="recompute a published table or figure from embedded data"
    )
    p_repro.add_argument("target", choices=REPRODUCE_TARGETS)
    p_repro.add_argument("--format", choices=("table", "csv"), default="table")
    p_repro.add_argument("--out", help="write output here instead of stdout")
    p_repro.set_defaults(func=_cmd_reproduce)

    p_analyze = sub.add_parser(
        "analyze", help="analyze a frequency-table CSV of phrase orders"
    )
    p_analyze.add_argument("--input", required=True, help="CSV path, '-' for stdin")
    p_analyze.add_argument("--head", default="n", help="head symbol (default: n)")
    p_analyze.add_argument("--alpha", type=float, default=0.05)
    p_analyze.add_argument(
        "--p0", help="override the null head-end probability (e.g. 1/2 or 0.5)"
    )
    p_analyze.add_argument("--strict", action="store_true", help="require all n! orders")
    p_analyze.add_argument("--format", choices=("table", "csv"), default="table")
    p_analyze.add_argument("--out")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_null = sub.add_parser(
        "null-model", help="moments and exact distribution of D under shuffling"
    )
    p_null.add_argument(
        "--tree",
        required=True,
        help="tree form 'n=4; edges=1-2,1-3,1-4; head=1', or star:N / path:N",
    )
    p_null.add_argument(
        "--frequency", type=float, help="instance count F for sigma(<D>)"
    )
    p_null.add_argument(
        "--distribution",
        action="store_true",
        help=(
            "dump the exact pmf (subset DP over gap cuts, O(2^n * n), "
            f"n <= {DP_CEILING})"
        ),
    )
    p_null.add_argument("--out")
    p_null.set_defaults(func=_cmd_null_model)

    p_ring = sub.add_parser("ring", help="permutation ring of constituent orders")
    p_ring.add_argument("--symbols", default="SOV", help="e.g. SOV")
    p_ring.add_argument(
        "--freq",
        action="append",
        default=[],
        metavar="ORDER=COUNT",
        help="attach a frequency to an order (repeatable)",
    )
    p_ring.add_argument("--out")
    p_ring.set_defaults(func=_cmd_ring)
    return parser


def _write(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _reproduce_one(target: str, fmt: str, reports, sov_rows) -> tuple[str, list[str]]:
    if target == "table2":
        rows = reproduce.table2_rows(reports)
        return (
            render_block(HEAD_END_TEST_TITLES, head_end_test_cells(rows), fmt),
            reproduce.check_table2(rows),
        )
    if target == "table3":
        rows = reproduce.table3_rows(reports)
        return (
            render_block(DISTANCE_TITLES, distance_cells(rows), fmt),
            reproduce.check_table3(rows),
        )
    if target == "fig2":
        return reproduce.fig2_csv(reports), reproduce.check_fig2(reports)
    if target == "fig3":
        return reproduce.fig3_csv(reports), reproduce.check_fig3(reports)
    if target == "fig4":
        return reproduce.fig4_csv(), reproduce.check_fig4()
    if target == "sov-footnote":
        cells = [
            (unit, str(F), str(g), str(p0), format_p_value(p))
            for unit, F, g, p0, p in sov_rows
        ]
        body = render_block(("unit", "F", "g", "p0", "p-value"), cells, fmt)
        matches = reproduce.sov_reproducing_p0(sov_rows)
        lines = []
        for unit, p0s in matches.items():
            if p0s:
                names = ", ".join(f"p0 = {p0}" for p0 in p0s)
                lines.append(f"# {unit}: published value reproduced by {names}")
            else:
                lines.append(f"# {unit}: published value not reproduced")
        return body + "\n".join(lines) + "\n", reproduce.check_sov_footnote(sov_rows)
    raise ValueError(f"unknown reproduction target {target!r}")


def _cmd_reproduce(args) -> int:
    targets = REPRODUCE_TARGETS[:-1] if args.target == "all" else (args.target,)
    # each computed once per run, and only when a requested target needs it
    reports = (
        reproduce.dryer_reports() if set(targets) & set(DRYER_TARGETS) else None
    )
    sov_rows = reproduce.sov_footnote_rows() if "sov-footnote" in targets else None
    chunks = []
    problems: list[str] = []
    for target in targets:
        body, target_problems = _reproduce_one(target, args.format, reports, sov_rows)
        if len(targets) > 1:
            chunks.append(f"== {target} ==")
        chunks.append(body)
        problems.extend(f"{target}: {p}" for p in target_problems)
    _write(args, "\n".join(chunks))
    if problems:
        for problem in problems:
            print(f"reproduction mismatch: {problem}", file=sys.stderr)
        return 1
    print("reproduction check: all values match the published ones", file=sys.stderr)
    return 0


def _cmd_analyze(args) -> int:
    if not 0 < args.alpha < 1:
        raise ValueError(f"--alpha must be in (0, 1), got {args.alpha}")
    if args.input == "-":
        source = sys.stdin.read()
    else:
        with open(args.input, "rb") as handle:
            source = handle.read()
    schema = TableSchema(head=args.head, strict=args.strict)
    table = load_frequency_table(source, schema)
    p0 = parse_exact(args.p0, "--p0") if args.p0 else None
    # the exact test comes first: float() of a Fraction above 1e308 overflows
    if p0 is not None and not (0 < p0 < 1 and 0.0 < float(p0) < 1.0):
        raise ValueError(f"--p0 must lie in (0, 1) as a float, got {args.p0!r}")
    reports = analyze(table, alpha=args.alpha, p0=p0)
    if args.format == "csv":
        _write(args, reports_to_csv(reports))
    else:
        _write(args, reports_to_text(reports))
    return 0


def _cmd_null_model(args) -> int:
    if args.frequency is not None and not math.isfinite(args.frequency):
        raise ValueError(f"--frequency must be a finite number, got {args.frequency}")
    tree = parse_tree(args.tree)
    moments = null_moments(tree, args.frequency)
    lines = [
        f"n = {tree.n}",
        f"mean D (shuffling) = {moments.mean} = {float(moments.mean):.12g}",
        f"variance of D = {moments.variance} = {float(moments.variance):.12g}",
    ]
    if moments.sigma_mean_D is not None:
        lines.append(
            f"sigma(<D>) at F = {args.frequency:g}: {moments.sigma_mean_D:.12g}"
        )
    output = "\n".join(lines) + "\n"
    if args.distribution:
        dist = enumerate_D_distribution(tree)
        assumptions = check_three_sigma_assumptions(dist)
        agrees = dist.mean() == moments.mean and dist.variance() == moments.variance
        output += (
            "\n"
            + dist.to_csv()
            + f"unimodal: {'yes' if assumptions.unimodal else 'no'}\n"
            + f"oracle agrees with closed forms: {'yes' if agrees else 'NO'}\n"
        )
    _write(args, output)
    return 0


def _cmd_ring(args) -> int:
    frequencies = {}
    for item in args.freq:
        order, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"--freq expects ORDER=COUNT, got {item!r}")
        frequencies[order.strip()] = parse_exact(value, f"--freq {item!r}")
    ring = build_ring(args.symbols, frequencies or None)
    _write(args, export_plot_data(ring, "fig4"))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    tokens: list[str] = []
    for arg in sys.argv[1:] if argv is None else argv:
        # "--p0 -1/2" is passed on as "--p0=-1/2"; a following option of the
        # subcommand ("-h", "--strict") keeps the usage error
        if (
            tokens
            and tokens[-1] in DASH_VALUE_OPTIONS
            and arg.startswith("-")
            and not arg.startswith("--")
            and arg != "-h"
        ):
            tokens[-1] += "=" + arg
            continue
        option, sep, value = arg.partition("=")
        if sep and value == "--" and option.startswith("-"):  # argparse drops it
            parser.error(f"argument {option}: expected one argument")
        tokens.append(arg)
    args = parser.parse_args(tokens)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
