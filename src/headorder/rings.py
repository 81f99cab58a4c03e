"""Swap distance between constituent orders and the permutation ring.

The swap distance between two orders of the same constituents is the minimal
number of adjacent-constituent swaps turning one into the other, i.e. the
inversion count between the two permutations. For three constituents the six
orders joined at swap distance one form a 6-cycle.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations, permutations
from typing import Mapping, Sequence

from .messages import clip


def _as_order(order: Sequence[str]) -> tuple[str, ...]:
    symbols = tuple(order)
    if len(set(symbols)) != len(symbols):
        raise ValueError(f"repeated symbols in order {clip(repr(order))}")
    return symbols


def swap_distance(a: Sequence[str], b: Sequence[str]) -> int:
    """Minimal number of adjacent swaps turning `a` into `b` (inversion count)."""
    a, b = _as_order(a), _as_order(b)
    if set(a) != set(b) or len(a) != len(b):
        orders = f"{clip(repr(a))} and {clip(repr(b))}"
        raise ValueError(f"orders {orders} are over different symbol sets")
    rank = {symbol: i for i, symbol in enumerate(a)}
    return sum(x > y for x, y in combinations([rank[symbol] for symbol in b], 2))


class PermutationRing(
    namedtuple("PermutationRing", "nodes edges frequencies", defaults=(None,))
):
    """All m! orders of an alphabet, joined at swap distance one.

    For m=3 the graph is a 6-cycle and `nodes` follows it, starting from the
    alphabet's own order and moving to its neighbours; for other m the graph
    is the general adjacent-transposition graph in lexicographic node order.
    """

    __slots__ = ()


# build_ring refuses more symbols before building any order: m = 8 gives
# 40,320 orders (~0.8 s through the CLI); each further symbol costs ~9x.
MAX_RING_SYMBOLS = 8


def _three_symbol_cycle(symbols: tuple[str, ...]) -> list[str]:
    # walk the hexagon by alternating swaps of positions (2,3) and (1,2)
    current = list(symbols)
    cycle = ["".join(current)]
    for step in range(5):
        i = 1 if step % 2 == 0 else 0
        current[i], current[i + 1] = current[i + 1], current[i]
        cycle.append("".join(current))
    return cycle


def build_ring(
    alphabet: Sequence[str], frequencies: Mapping[str, object] | None = None
) -> PermutationRing:
    """Permutation graph of all orders of `alphabet` at swap distance one.

    Optional `frequencies` annotate nodes (order string -> count) for plotting;
    keys must be valid orders and counts non-negative. Only m=3 yields a ring
    proper; larger alphabets produce the adjacent-transposition graph, and more
    than MAX_RING_SYMBOLS symbols are refused. Edges are generated from the m-1
    adjacent swaps of each node, not searched for among all pairs of orders.
    """
    symbols = _as_order(alphabet)
    m = len(symbols)
    if m < 2:
        raise ValueError(f"need at least 2 symbols, got {m}")
    if m > MAX_RING_SYMBOLS:
        raise ValueError(
            f"{m} symbols are above the limit of {MAX_RING_SYMBOLS}: "
            "the graph holds all m! orders"
        )
    if any(len(s) != 1 for s in symbols):
        raise ValueError("constituent symbols must be single characters")
    if m == 3:
        nodes = tuple(_three_symbol_cycle(symbols))
    else:
        nodes = tuple("".join(p) for p in permutations(symbols))
    # each node lists its later neighbours in node order, the order a scan
    # over all pairs (i < j) would find them in
    index = {node: i for i, node in enumerate(nodes)}
    edges = []
    for i, node in enumerate(nodes):
        swapped = (
            index[node[:k] + node[k + 1] + node[k] + node[k + 2 :]]
            for k in range(m - 1)
        )
        edges.extend((node, nodes[j]) for j in sorted(j for j in swapped if j > i))
    if frequencies is not None:
        unknown = sorted(set(frequencies) - set(nodes))
        if unknown:
            raise ValueError(f"frequency keys not in node set: {clip(', '.join(unknown))}")
        negative = sorted(order for order, count in frequencies.items() if count < 0)
        if negative:
            raise ValueError(f"negative frequencies for: {clip(', '.join(negative))}")
        frequencies = dict(frequencies)
    return PermutationRing(nodes, tuple(edges), frequencies)


def ring_layout(ring: PermutationRing) -> tuple[tuple[str, float, object | None], ...]:
    """(node, angle in degrees, frequency) triples, clockwise from the top.

    The first node sits at 90 degrees and successive nodes step clockwise, so
    the m=3 cycle renders directly as the ring figure.
    """
    step = 360.0 / len(ring.nodes)
    layout = []
    for i, node in enumerate(ring.nodes):
        angle = 90.0 - i * step
        if angle <= -180.0:
            angle += 360.0
        frequency = None if ring.frequencies is None else ring.frequencies.get(node)
        layout.append((node, angle, frequency))
    return tuple(layout)
