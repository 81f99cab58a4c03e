"""Free trees and exact dependency-distance sums of single-head phrases.

Distances are measured in words: vertices adjacent in the sequence are at
distance one. Everything here is exact integer or rational arithmetic so
that the closed-form identities used by the null model hold exactly in
tests; floats never enter.
"""

from __future__ import annotations

from collections import namedtuple

from .messages import clip


class FreeTree(namedtuple("FreeTree", "n edges")):
    """Undirected tree on vertices 1..n, `edges` a frozenset of (u, v) with u < v.

    Vertex labels are opaque: they carry no positional meaning. Construction,
    and `_make` and `_replace` through it, refuse edges that form no tree.
    """

    __slots__ = ()

    def __new__(cls, n: int, edges) -> FreeTree:
        if n < 1:
            raise ValueError(f"vertex count must be >= 1, got {clip(str(n))}")
        edges = frozenset((min(u, v), max(u, v)) for u, v in edges)
        if len(edges) != n - 1:
            raise ValueError(
                f"a tree on {n} vertices needs {n - 1} edges, got {len(edges)}"
            )
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {clip(str(u))}")
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"edge {clip(f'{u}-{v}')} outside vertex range 1..{n}")
        # n - 1 edges + connectivity is equivalent to being a tree.
        adjacency: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
        for u, v in edges:
            adjacency[u].append(v)
            adjacency[v].append(u)
        seen = {1}
        stack = [1]
        while stack:
            for w in adjacency[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) != n:
            raise ValueError("edges do not form a connected graph")
        return super().__new__(cls, n, edges)

    @classmethod
    def _make(cls, iterable) -> FreeTree:
        return cls(*iterable)

    @property
    def degrees(self) -> tuple[int, ...]:
        """Degree sequence indexed by vertex (entry v-1 is deg(v))."""
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u - 1] += 1
            deg[v - 1] += 1
        return tuple(deg)


def star(n: int) -> FreeTree:
    """Star tree on n vertices: vertex 1, the head, adjacent to every other vertex."""
    return FreeTree(n, frozenset((1, v) for v in range(2, n + 1)))


def path(n: int) -> FreeTree:
    """Path 1-2-...-n."""
    return FreeTree(n, frozenset((v, v + 1) for v in range(1, n)))


def single_head_D(n: int, head_position: int) -> int:
    """D for an n-word single-head phrase with the head at the given position.

    Closed form of the sum of |p - j| over the other positions j:
    D(p) = p^2 - (n+1)p + n(n+1)/2.
    """
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    if not 1 <= head_position <= n:
        raise ValueError(f"head position {head_position} outside range 1..{n}")
    return head_position * head_position - (n + 1) * head_position + n * (n + 1) // 2


# parse_tree refuses larger trees before building any edge. At this size
# null-model takes ~30 ms; star:100000 takes ~0.5 s and ~60 MB.
MAX_TREE_VERTICES = 10_000


def _vertex_count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise ValueError(f"invalid vertex count {clip(repr(text.strip()))}") from None
    if n > MAX_TREE_VERTICES:
        raise ValueError(
            f"a tree of {clip(str(n))} vertices is above the limit of {MAX_TREE_VERTICES:,}"
        )
    return n


def parse_tree(text: str) -> FreeTree:
    """Parse the one-line tree form, e.g. ``n=4; edges=1-2,1-3,1-4; head=1``.

    Fields are semicolon-separated ``key=value`` pairs: ``n`` (required),
    ``edges`` (required, comma-separated ``u-v`` pairs, empty for n=1) and
    ``head`` (optional; checked to be a vertex, not kept). The shorthands
    ``star:N`` and ``path:N`` stand for :func:`star` and :func:`path`.
    Whitespace around tokens is ignored. More than MAX_TREE_VERTICES vertices
    are refused.
    """
    kind, sep, count = text.strip().partition(":")
    if sep and kind in ("star", "path"):
        n = _vertex_count(count)
        return star(n) if kind == "star" else path(n)
    fields: dict[str, str] = {}
    for segment in text.strip().split(";"):
        segment = segment.strip()
        if not segment:
            continue
        key, sep, value = segment.partition("=")
        key = key.strip()
        if not sep or key not in ("n", "edges", "head"):
            raise ValueError(f"malformed tree segment {clip(repr(segment))}")
        if key in fields:
            raise ValueError(f"duplicate tree field {key!r}")
        fields[key] = value.strip()
    for required in ("n", "edges"):
        if required not in fields:
            raise ValueError(f"tree form is missing the {required!r} field")
    n = _vertex_count(fields["n"])
    edges = []
    if fields["edges"]:
        for token in fields["edges"].split(","):
            u_text, sep, v_text = token.partition("-")
            try:
                if not sep:
                    raise ValueError
                edges.append((int(u_text.strip()), int(v_text.strip())))
            except ValueError:
                raise ValueError(f"invalid edge {clip(repr(token.strip()))}") from None
    head = None
    if "head" in fields:
        try:
            head = int(fields["head"])
        except ValueError:
            raise ValueError(f"invalid head {clip(repr(fields['head']))}") from None
    tree = FreeTree(n, frozenset(edges))
    if head is not None and not 1 <= head <= n:
        raise ValueError(f"head {clip(str(head))} outside vertex range 1..{n}")
    return tree

