"""Response checks for every benchmark request, and the oracles behind them.

Nothing here imports headorder. Binomial tails and quantiles are computed
from the pmf ratio recurrence, normalised over the bulk of the distribution
(no Stirling series, no lgamma), so they are independent of the saddle-point
kernel under test. Null-model moments come from the closed forms, ring edges
from generating the adjacent swaps directly.

`check(request, response, goldens)` returns None for a good response and a
one-line reason otherwise.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import re
from fractions import Fraction

REL_TOL = 1e-9  # the oracles are good to ~1e-11; the program claims ~1e-14
ABS_TOL = 1e-300  # below this a float p-value may have underflowed
_CUT = 1e-40  # pmf terms below this share of the mode are left out


class Mismatch(Exception):
    pass


def check(request: dict, response: dict, goldens: dict) -> str | None:
    if response.get("error"):
        return f"raised {response['error']}"
    kind = request["argv"][0]
    try:
        if response["rc"] != 0:
            raise Mismatch(f"exit code {response['rc']}")
        if kind == "reproduce":
            _check_reproduce(request["expect"], response, goldens)
        elif kind == "analyze":
            _check_analyze(request["expect"], response["out"])
        elif kind == "null-model":
            _check_null_model(request["expect"], response["out"])
        elif kind == "ring":
            _check_ring(request["expect"], response["out"])
        else:
            raise Mismatch(f"no check for {kind!r}")
    except Mismatch as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
        return f"unparsable output ({type(exc).__name__}: {exc})"
    return None


def corruptions(response: dict) -> list[dict]:
    """Damaged copies of a good response; `check` must reject every one."""
    out = response["out"]
    lines = out.splitlines(keepends=True)
    # first digit of the first numeric token at or after the middle line
    start = len(lines) // 2
    flipped = None
    for i in itertools.chain(range(start, len(lines)), range(start)):
        match = re.search(r"(?<![\w.])\d", lines[i])
        if match:
            j = match.start()
            digit = str((int(lines[i][j]) + 5) % 10)
            lines_copy = list(lines)
            lines_copy[i] = lines[i][:j] + digit + lines[i][j + 1:]
            flipped = "".join(lines_copy)
            break
    damaged = [dict(response, rc=1), dict(response, out="".join(lines[:-1]))]
    if flipped is not None:
        damaged.append(dict(response, out=flipped))
    return damaged


# -- reproduce ---------------------------------------------------------------

REPRODUCE_VERDICT = "reproduction check: all values match the published ones\n"


def _check_reproduce(expect, response, goldens):
    if response["out"] != goldens[expect["golden"]]:
        raise Mismatch("stdout differs from the recorded golden")
    if response["err"] != REPRODUCE_VERDICT:
        raise Mismatch(f"stderr {response['err']!r}")


# -- binomial oracle -----------------------------------------------------------

def _bulk(n: int, p: float) -> tuple[int, int, list[float]]:
    """(mode, first k, pmf(k)/pmf(mode) for consecutive k) over the bulk of Bin(n, p)."""
    q = 1.0 - p
    mode = min(n, math.floor((n + 1) * p))
    right, t, k = [], 1.0, mode
    while k < n:
        t *= (n - k) / (k + 1) * p / q
        k += 1
        if t < _CUT:
            break
        right.append(t)
    left, t, k = [], 1.0, mode
    while k > 0:
        t *= k / (n - k + 1) * q / p
        k -= 1
        if t < _CUT:
            break
        left.append(t)
    return mode, mode - len(left), left[::-1] + [1.0] + right


def right_tail(s: int, n: int, p: float) -> float:
    """P(X >= s) for X ~ Binomial(n, p), 0 < p < 1."""
    if s > n:
        return 0.0
    mode, start, terms = _bulk(n, p)
    total = math.fsum(terms)
    if s <= mode:  # the tail holds the mode; what the bulk leaves out is < 1e-36
        return math.fsum(terms[max(0, s - start):]) / total
    # log pmf(s)/pmf(mode) by walking the ratio out from the mode, then the
    # tail relative to pmf(s), summed until the rest is negligible
    q = 1.0 - p
    log_ratio = math.fsum(math.log((n - k) / (k + 1)) for k in range(mode, s))
    log_ratio += (s - mode) * math.log(p / q)
    tail, t, k = 1.0, 1.0, s
    while k < n:
        t *= (n - k) / (k + 1) * p / q
        k += 1
        tail += t
        if t < 1e-18 * tail:
            break
    exponent = log_ratio + math.log(tail) - math.log(total)
    return math.exp(exponent) if exponent > -745.2 else 0.0


def quantiles(q: float, n: int, p: float) -> set[int]:
    """Every x that can be the smallest with P(X <= x) >= q, within REL_TOL."""
    _, start, terms = _bulk(n, p)
    total = math.fsum(terms)
    accepted = set()
    below = 0.0
    for offset, term in enumerate(terms):
        cdf = (below + term) / total
        if cdf >= q * (1 - REL_TOL) and below / total < q * (1 + REL_TOL):
            accepted.add(start + offset)
        below += term
    return accepted


def _round_half_away(x: Fraction) -> int:
    return math.floor(x + Fraction(1, 2))


# -- analyze -------------------------------------------------------------------

def _analyze_expectation(n: int, units: list[dict], alpha: float):
    """Expected rows of the three report blocks, as lists of cell specs.

    A cell spec is ("text", str), ("exact", Fraction), ("float", [acceptable
    values]) or ("bool", value, or None when either is acceptable).
    """
    p0 = 2 / n
    mu = Fraction(n * n - 1, 3)
    var = Fraction((n - 2) * (n - 1) * (n + 1) * (n + 2), 180)  # star shuffling V(D)
    d_min, d_max = n * n // 4, n * (n - 1) // 2
    tests_rows, dist_rows, ci_rows = [], [], []

    def distance(F: Fraction, g: Fraction):
        mean_D = Fraction(d_min) + (d_max - d_min) * g / F
        k2 = (mean_D - mu) ** 2 * F / var
        k = math.sqrt(float(k2))
        return [
            ("exact", F), ("exact", Fraction(d_min)), ("exact", mu),
            ("float", [math.sqrt(float(var / F))]),
            ("float", [float(mean_D)]), ("exact", Fraction(d_max)),
            ("float", [k]),
        ], k

    for unit in units:
        name, F, g = unit["name"], Fraction(unit["F"]), Fraction(unit["g"])
        tests = []
        for trials, successes in (
            (math.floor(F), math.floor(g)), (math.ceil(F), math.floor(g)),
            (math.floor(F), math.ceil(g)), (math.ceil(F), math.ceil(g)),
        ):
            pair = (trials, min(successes, trials))
            if pair not in tests:
                tests.append(pair)
        for trials, successes in tests:
            if trials == 0:
                continue
            tests_rows.append([
                ("text", name), ("float", [successes / trials]),
                ("exact", Fraction(trials)), ("exact", Fraction(successes)),
                ("float", [right_tail(successes, trials, p0)]),
            ])
        cells, k = distance(F, g)
        dist_rows.append([("text", name)] + cells)
        if len(tests) > 1:
            for trials, successes in tests:
                if trials:
                    extra, _ = distance(Fraction(trials), Fraction(successes))
                    dist_rows.append([("text", name)] + extra)
        trials = _round_half_away(F)
        ends = float(g / F)
        middle = 1 - ends
        ci = []
        for share in (ends, middle):
            for level in (alpha / 2, 1 - alpha / 2):
                ci.append([x / trials for x in sorted(quantiles(level, trials, share))])
        verdict = None if abs(k - 3) < 1e-9 * 3 else k >= 3
        ci_rows.append([
            ("text", name), ("float", [ends]),
            ("float", ci[0]), ("float", ci[1]),
            ("float", [middle]),
            ("float", ci[2]), ("float", ci[3]),
            ("bool", verdict),
        ])
    return tests_rows, dist_rows, ci_rows


# Leading lines of the three report blocks: the CSV header, or the console
# title and header.
CSV_HEADS = (
    [["unit", "proportion", "F", "g", "p_value"]],
    [["unit", "F", "D_min", "null_mean_D", "sigma", "mean_D", "D_max", "k"]],
    [["unit", "proportion_ends", "ci_ends_lo", "ci_ends_hi", "proportion_middle",
      "ci_mid_lo", "ci_mid_hi", "three_sigma_significant"]],
)
TEXT_HEADS = (
    [["Head placement at the ends (right-tail binomial test)"],
     ["unit", "g/F", "F", "g", "p-value"]],
    [["Average dependency-distance sum vs. the shuffling null"],
     ["unit", "F", "D_min", "mu(<D>)", "sigma(<D>)", "<D>", "D_max", "k"]],
    [["Proportions with confidence intervals"],
     ["unit", "ends", "CI(ends)", "middle", "CI(middle)", "3-sigma"]],
)


def _check_analyze(expect, out):
    blocks = _analyze_expectation(expect["n"], expect["units"], expect["alpha"])
    if expect["format"] == "csv":
        parsed = [list(csv.reader(io.StringIO(b))) for b in out.split("\n\n")]
        heads = CSV_HEADS
    else:
        # console blocks: cells are separated by two or more spaces
        parsed = [
            [re.split(r" {2,}", line.strip()) for line in b.rstrip("\n").split("\n")]
            for b in out.split("\n\n")
        ]
        heads = TEXT_HEADS
    if len(parsed) != 3:
        raise Mismatch(f"expected 3 report blocks, found {len(parsed)}")
    for title, lines, head, expected in zip(
        ("test", "distance", "interval"), parsed, heads, blocks
    ):
        rows = lines[len(head):]
        if lines[: len(head)] != head:
            raise Mismatch(f"{title} block header {lines[:len(head)]}")
        if len(rows) != len(expected):
            raise Mismatch(f"{title} block: {len(rows)} rows, expected {len(expected)}")
        for row, specs in zip(rows, expected):
            _check_row(title, row, specs, expect["format"])


def _check_row(title, row, specs, fmt):
    cells = list(row)
    if fmt == "table" and title == "interval":
        # "[lo, hi]" cells hold two values each
        expanded = []
        for cell in cells:
            if cell.startswith("["):
                expanded.extend(part.strip() for part in cell.strip("[]").split(","))
            else:
                expanded.append(cell)
        cells = expanded
    if len(cells) != len(specs):
        raise Mismatch(f"{title} row {row}: {len(cells)} cells, expected {len(specs)}")
    for cell, spec in zip(cells, specs):
        if not _cell_ok(cell, spec, fmt):
            raise Mismatch(f"{title} row {row}: cell {cell!r} vs {spec}")


def _cell_ok(cell: str, spec, fmt: str) -> bool:
    kind = spec[0]
    if kind == "text":
        return cell == spec[1]
    if kind == "exact":
        return Fraction(cell) == spec[1]
    if kind == "bool":
        words = ("True", "False") if fmt == "csv" else ("yes", "no")
        if cell not in words:
            return False
        return spec[1] is None or (cell == words[0]) == spec[1]
    value = float(cell)
    if fmt == "csv":
        resolution = 0.0  # twelve significant digits, below REL_TOL
    elif "e" in cell:
        resolution = 0.05 * 10 ** int(cell.split("e")[1])
    else:
        decimals = len(cell.split(".")[1]) if "." in cell else 0
        resolution = 0.5 * 10**-decimals
    return any(
        abs(value - x) <= REL_TOL * abs(x) + ABS_TOL + resolution for x in spec[1]
    )


# -- null-model ----------------------------------------------------------------

def tree_variance(n: int, edges) -> Fraction:
    """V(D) under shuffling from the degree sequence (Ferrer-i-Cancho 2019)."""
    degree = [0] * (n + 1)
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    k2 = Fraction(sum(d * d for d in degree), n)
    return Fraction(n + 1, 45) * ((n - 1) ** 2 + (Fraction(n, 4) - 1) * n * k2)


def _unimodal(masses) -> bool:
    i = 0
    while i + 1 < len(masses) and masses[i + 1] >= masses[i]:
        i += 1
    while i + 1 < len(masses) and masses[i + 1] <= masses[i]:
        i += 1
    return i == len(masses) - 1


def _close(text: str, value: float) -> bool:
    return abs(float(text) - value) <= REL_TOL * abs(value)


def _check_null_model(expect, out):
    n = expect["n"]
    mean, var = Fraction(n * n - 1, 3), tree_variance(n, expect["edges"])
    lines = out.split("\n")
    if lines[0] != f"n = {n}":
        raise Mismatch(f"first line {lines[0]!r}")
    for line, label, value in (
        (lines[1], "mean D (shuffling) = ", mean),
        (lines[2], "variance of D = ", var),
    ):
        if not line.startswith(label):
            raise Mismatch(f"line {line!r}")
        exact, decimal = line[len(label):].split(" = ")
        if Fraction(exact) != value or not _close(decimal, float(value)):
            raise Mismatch(f"{line!r}, expected {value}")
    rest = lines[3:]
    if expect["frequency"] is not None:
        F = float(expect["frequency"])
        label = f"sigma(<D>) at F = {F:g}: "
        if not rest[0].startswith(label) or not _close(
            rest[0][len(label):], math.sqrt(float(var) / F)
        ):
            raise Mismatch(f"sigma line {rest[0]!r}")
        if rest[1:] != [""]:
            raise Mismatch("unexpected lines after the moments")
        return
    if rest[0] != "" or rest[1] != "value,probability,probability_decimal":
        raise Mismatch("distribution header missing")
    values, masses = [], []
    for line in rest[2:-3]:
        value, exact, decimal = line.split(",")
        mass = Fraction(exact)
        if mass <= 0 or not _close(decimal, float(mass)):
            raise Mismatch(f"pmf row {line!r}")
        values.append(int(value))
        masses.append(mass)
    if values != sorted(set(values)):
        raise Mismatch("support is not strictly increasing")
    if sum(masses) != 1:
        raise Mismatch(f"pmf sums to {sum(masses)}")
    dist_mean = sum(v * m for v, m in zip(values, masses))
    dist_var = sum((v - dist_mean) ** 2 * m for v, m in zip(values, masses))
    if dist_mean != mean or dist_var != var:
        raise Mismatch(f"pmf moments {dist_mean}, {dist_var} vs {mean}, {var}")
    tail = rest[-3:]
    expected_tail = [
        f"unimodal: {'yes' if _unimodal(masses) else 'no'}",
        "oracle agrees with closed forms: yes",
        "",
    ]
    if tail != expected_tail:
        raise Mismatch(f"trailer {tail!r}")


# -- ring ----------------------------------------------------------------------

def adjacent_swaps(symbols: str) -> set[frozenset]:
    edges = set()
    for order in itertools.permutations(symbols):
        for i in range(len(order) - 1):
            swapped = list(order)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            edges.add(frozenset(("".join(order), "".join(swapped))))
    return edges


def _check_ring(expect, out):
    symbols, frequencies = expect["symbols"], expect["frequencies"]
    layout_text, edge_text = out.split("\n\n")
    layout = list(csv.reader(io.StringIO(layout_text)))
    edges = list(csv.reader(io.StringIO(edge_text)))
    if layout[0] != ["node", "angle_deg", "frequency"] or edges[0] != ["source", "target"]:
        raise Mismatch("ring headers")
    nodes = [row[0] for row in layout[1:]]
    if len(symbols) == 3:
        ring_ok = nodes[0] == symbols and all(
            frozenset((a, b)) in adjacent_swaps(symbols)
            for a, b in zip(nodes, nodes[1:] + nodes[:1])
        )
    else:
        ring_ok = nodes == ["".join(p) for p in itertools.permutations(symbols)]
    if not ring_ok or sorted(nodes) != sorted(
        "".join(p) for p in itertools.permutations(symbols)
    ):
        raise Mismatch("node order")
    step = 360.0 / len(nodes)
    for i, (node, angle, frequency) in enumerate(layout[1:]):
        expected = 90.0 - i * step
        if expected <= -180.0:
            expected += 360.0
        if abs(float(angle) - expected) > 1e-9:
            raise Mismatch(f"angle of {node}: {angle} vs {expected}")
        given = frequencies.get(node)
        if (given is None and frequency != "") or (
            given is not None and Fraction(frequency) != Fraction(given)
        ):
            raise Mismatch(f"frequency of {node}: {frequency!r} vs {given!r}")
    found = [frozenset(row) for row in edges[1:]]
    if len(found) != len(set(found)) or set(found) != adjacent_swaps(symbols):
        raise Mismatch("edge set differs from the adjacent swaps")
