"""Seeded request streams for the three benchmark workloads.

A stream is a sequence of blocks. Every block of a workload has the same
composition (which request kinds, how many of each, which size strata), so
quantiles and per-request averages do not depend on where a run stops, as
long as it stops at a block boundary. The seed chooses everything inside
that frame: request order, jitter within a size stratum, head-end shares,
how a total splits into cells, trees, symbols and frequencies.

A request is a dict:
  kind    label for per-kind reports, e.g. "reproduce all" or "dist n=7"
  argv    CLI arguments; "{input}" stands for the path of `input`
  input   CSV text the request reads, or None
  expect  what the verifier needs to judge the response
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from fractions import Fraction

WORKLOADS = ("reproduce", "analyze-large", "null-model")

REPRODUCE_TARGETS = ("table2", "table3", "fig2", "fig3", "fig4", "sov-footnote", "all")

# analyze-large: one slot per request of a block, (units, n, decimal cells,
# output format). Four tables in fifteen are n=3, eight use decimal cells.
# Fifteen slots put p50 (rank 7.5 of 15) and p90 (rank 13.5) at the middle
# of one slot's sizes rather than between two slots.
ANALYZE_SLOTS = (
    (1, 4, False, "csv"), (2, 4, True, "table"), (3, 3, False, "csv"),
    (1, 3, True, "table"), (2, 4, False, "csv"), (3, 4, True, "table"),
    (1, 4, True, "csv"), (2, 3, False, "table"), (3, 4, False, "csv"),
    (1, 4, False, "table"), (2, 4, True, "csv"), (3, 3, True, "table"),
    (1, 4, True, "csv"), (2, 4, False, "table"), (3, 4, True, "csv"),
)
F_MIN, F_MAX = 1e3, 5e4
# Size stratum of each unit slot of a block (30 units, 30 log-F strata). The
# assignment is fixed so that every block has the same spread of request
# sizes. Inside its stratum a slot's F follows a Weyl sequence over the
# blocks from a seeded start, so any run of a few blocks covers every
# stratum evenly and each unit's F is still log-uniform. (Of 120 candidate
# assignments, this one kept the median and p90 of a work proxy, 2F plus the
# tail terms per unit, steadiest across seeds; all were within 1.5%.)
_UNIT_STRATA = tuple(random.Random(79).sample(range(30), 30))
_WEYL_STEP = (5**0.5 - 1) / 2
ALPHABETS = {4: ("DNAn", "n"), 3: ("SOV", "V")}
UNIT_NAMES = ("languages", "genera", "families")

# null-model: (kind, size) slots of one block. Half exact distributions,
# a quarter moments only, a quarter rings; sizes are placed so that the
# median lands among the n=7 distributions and the 90th percentile among
# the m=5 rings, never on the boundary between two request kinds.
NULL_SLOTS = (
    ("dist", 5), ("dist", 6), ("dist", 7), ("dist", 7), ("dist", 7), ("dist", 7),
    ("dist", 8), ("dist", 8), ("dist", 8), ("dist", 9),
    ("moments", None), ("moments", None), ("moments", None), ("moments", None),
    ("moments", None),
    ("ring", 3), ("ring", 4), ("ring", 5), ("ring", 5), ("ring", 5),
)
# Tree shapes of the distribution slots, cycled in slot order from a start
# that rotates with the block index, so every four blocks hold the same mix.
_TREE_KINDS = ("prufer", "star", "prufer", "path")


def block(workload: str, seed: int, index: int) -> list[dict]:
    """Requests of block `index`; a pure function of its arguments."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    if workload == "reproduce":
        requests = _reproduce_block()
    elif workload == "analyze-large":
        requests = _analyze_block(rng, seed, index)
    elif workload == "null-model":
        requests = _null_model_block(rng, index)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(requests)
    return requests


def stream_digest(workload: str, seed: int, count: int) -> str:
    """SHA-256 over the first `count` requests, to show a seed's stream repeats."""
    digest = hashlib.sha256()
    taken = 0
    for index in itertools.count():
        for request in block(workload, seed, index):
            if taken == count:
                return digest.hexdigest()
            digest.update(json.dumps([request["argv"], request["input"]]).encode())
            taken += 1


# -- reproduce ---------------------------------------------------------------

def _reproduce_block() -> list[dict]:
    return [
        {
            "kind": f"reproduce {target}",
            "argv": ["reproduce", target, "--format", fmt],
            "input": None,
            "expect": {"golden": f"{target}/{fmt}"},
        }
        for target in REPRODUCE_TARGETS
        for fmt in ("table", "csv")
    ]


# -- analyze-large -----------------------------------------------------------

def _analyze_block(rng: random.Random, seed: int, index: int) -> list[dict]:
    starts = random.Random(f"analyze-large/{seed}/starts")
    requests = []
    unit_slot = 0
    for units, n, decimal, fmt in ANALYZE_SLOTS:
        totals = []
        for _ in range(units):
            stratum = _UNIT_STRATA[unit_slot]
            unit_slot += 1
            jitter = (starts.random() + index * _WEYL_STEP) % 1.0
            u = (stratum + jitter) / len(_UNIT_STRATA)
            F = F_MIN * (F_MAX / F_MIN) ** u
            near = unit_slot % 2 == 0
            offset = rng.uniform(0.002, 0.02) if near else rng.uniform(0.08, 0.2)
            totals.append((F, 2 / n + offset))
        requests.append(_analyze_request(rng, n, decimal, fmt, totals))
    return requests


def _analyze_request(rng, n, decimal, fmt, totals) -> dict:
    alphabet, head = ALPHABETS[n]
    orders = ["".join(p) for p in itertools.permutations(alphabet)]
    ends = [o for o in orders if head in (o[0], o[-1])]
    middle = [o for o in orders if o not in ends]
    scale = 100 if decimal else 1  # cells are counted in hundredths if decimal
    names = UNIT_NAMES[: len(totals)]
    cells: dict[str, dict[str, int]] = {order: {} for order in orders}
    units = []
    for name, (F, share) in zip(names, totals):
        total = round(F * scale)
        ends_total = round(total * share)
        for group, amount in ((ends, ends_total), (middle, total - ends_total)):
            for order, value in zip(group, _split(rng, amount, len(group))):
                cells[order][name] = value
        units.append(
            {
                "name": name,
                "F": str(Fraction(total, scale)),
                "g": str(Fraction(ends_total, scale)),
            }
        )
    rows = [o for o in orders if any(cells[o].values())]  # all-zero rows are left out
    rng.shuffle(rows)
    lines = ["order," + ",".join(names)]
    for order in rows:
        lines.append(
            order + "," + ",".join(_cell_text(cells[order][u], scale) for u in names)
        )
    return {
        "kind": f"analyze n={n} units={len(units)}",
        "argv": ["analyze", "--input", "{input}", "--head", head, "--format", fmt],
        "input": "\n".join(lines) + "\n",
        "expect": {"n": n, "format": fmt, "alpha": 0.05, "units": units},
    }


def _split(rng: random.Random, total: int, parts: int) -> list[int]:
    """Skewed random composition of `total` into `parts` non-negative integers."""
    weights = [rng.random() ** 3 for _ in range(parts)]
    scale = total / sum(weights)
    values = [math.floor(w * scale) for w in weights]
    for i in sorted(range(parts), key=lambda i: values[i] - weights[i] * scale)[
        : total - sum(values)
    ]:
        values[i] += 1
    return values


def _cell_text(value: int, scale: int) -> str:
    if scale == 1:
        return str(value)
    return f"{value // 100}.{value % 100:02d}"


# -- null-model --------------------------------------------------------------

def _null_model_block(rng: random.Random, index: int) -> list[dict]:
    requests = []
    shapes = itertools.islice(itertools.cycle(_TREE_KINDS), index % 4, None)
    for kind, size in NULL_SLOTS:
        if kind == "dist":
            spec, edges = _tree(rng, next(shapes), size)
            requests.append(
                {
                    "kind": f"dist n={size}",
                    "argv": ["null-model", "--tree", spec, "--distribution"],
                    "input": None,
                    "expect": {"n": size, "edges": edges, "frequency": None},
                }
            )
        elif kind == "moments":
            n = rng.randint(5, 9)
            spec, edges = _tree(rng, rng.choice(_TREE_KINDS), n)
            frequency = rng.choice((str(rng.randint(50, 6000)), f"{rng.uniform(50, 6000):.2f}"))
            requests.append(
                {
                    "kind": "moments",
                    "argv": ["null-model", "--tree", spec, "--frequency", frequency],
                    "input": None,
                    "expect": {"n": n, "edges": edges, "frequency": frequency},
                }
            )
        else:
            requests.append(_ring_request(rng, size))
    return requests


def _tree(rng: random.Random, shape: str, n: int) -> tuple[str, list[list[int]]]:
    """(--tree text, edge list) for a star, a path or a random labelled tree."""
    if shape == "star":
        return f"star:{n}", [[1, v] for v in range(2, n + 1)]
    if shape == "path":
        return f"path:{n}", [[v, v + 1] for v in range(1, n)]
    edges = _prufer_edges([rng.randint(1, n) for _ in range(n - 2)], n)
    rng.shuffle(edges)
    spec = f"n={n}; edges=" + ",".join(f"{u}-{v}" for u, v in edges)
    if rng.random() < 0.5:
        spec += f"; head={rng.randint(1, n)}"
    return spec, edges


def _prufer_edges(sequence: list[int], n: int) -> list[list[int]]:
    degree = [1] * (n + 1)
    for v in sequence:
        degree[v] += 1
    edges = []
    for v in sequence:
        leaf = min(u for u in range(1, n + 1) if degree[u] == 1)
        edges.append([leaf, v])
        degree[leaf] -= 1
        degree[v] -= 1
    u, w = (x for x in range(1, n + 1) if degree[x] == 1)
    edges.append([u, w])
    return edges


def _ring_request(rng: random.Random, m: int) -> dict:
    symbols = "".join(rng.sample("ABCDEFGHIJKLMNOPQRSTUVWXYZ", m))
    orders = ["".join(p) for p in itertools.permutations(symbols)]
    argv = ["ring", "--symbols", symbols]
    frequencies = {}
    for order in rng.sample(orders, rng.randint(0, 3)):
        value = rng.choice((str(rng.randint(1, 999)), f"{rng.randint(1, 999)}.5"))
        frequencies[order] = value
        argv += ["--freq", f"{order}={value}"]
    return {
        "kind": f"ring m={m}",
        "argv": argv,
        "input": None,
        "expect": {"symbols": symbols, "frequencies": frequencies},
    }
