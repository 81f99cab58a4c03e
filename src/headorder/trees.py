"""Free trees, linear arrangements, and exact dependency-distance sums.

Distances are measured in words: vertices adjacent in the sequence are at
distance one. Everything here is exact integer or rational arithmetic so
that the closed-form identities used by the null model hold exactly in
tests; floats never enter.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping


@dataclass(frozen=True)
class FreeTree:
    """Undirected tree on vertices 1..n with an optional designated head.

    Vertex labels are opaque: they carry no positional meaning. Sequence
    positions are assigned separately by a :class:`LinearArrangement`.
    """

    n: int
    edges: frozenset[tuple[int, int]]
    head: int | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"vertex count must be >= 1, got {self.n}")
        edges = frozenset((min(u, v), max(u, v)) for u, v in self.edges)
        object.__setattr__(self, "edges", edges)
        if len(edges) != self.n - 1:
            raise ValueError(
                f"a tree on {self.n} vertices needs {self.n - 1} edges, "
                f"got {len(edges)}"
            )
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValueError(f"edge {u}-{v} outside vertex range 1..{self.n}")
        if not self._is_connected():
            raise ValueError("edges do not form a connected graph")
        if self.head is not None and not (1 <= self.head <= self.n):
            raise ValueError(f"head {self.head} outside vertex range 1..{self.n}")

    def _is_connected(self) -> bool:
        # n - 1 edges + connectivity is equivalent to being a tree.
        adjacency: dict[int, list[int]] = {v: [] for v in range(1, self.n + 1)}
        for u, v in self.edges:
            adjacency[u].append(v)
            adjacency[v].append(u)
        seen = {1}
        stack = [1]
        while stack:
            for w in adjacency[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    @property
    def degrees(self) -> tuple[int, ...]:
        """Degree sequence indexed by vertex (entry v-1 is deg(v))."""
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u - 1] += 1
            deg[v - 1] += 1
        return tuple(deg)

    def degree(self, v: int) -> int:
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} outside range 1..{self.n}")
        return self.degrees[v - 1]

    @property
    def is_star(self) -> bool:
        """True when one vertex is adjacent to all others (any tree for n <= 3)."""
        return self.n <= 2 or max(self.degrees) == self.n - 1


def star(n: int, hub: int = 1) -> FreeTree:
    """Star tree on n vertices: `hub` adjacent to every other vertex."""
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    if not 1 <= hub <= n:
        raise ValueError(f"hub {hub} outside vertex range 1..{n}")
    return FreeTree(n, frozenset((hub, v) for v in range(1, n + 1) if v != hub), head=hub)


def path(n: int) -> FreeTree:
    """Path 1-2-...-n."""
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    return FreeTree(n, frozenset((v, v + 1) for v in range(1, n)))


@dataclass(frozen=True)
class LinearArrangement:
    """A bijection from vertices 1..n to sequence positions 1..n.

    Stored as a tuple where entry v-1 is the position of vertex v.
    """

    positions: tuple[int, ...]

    def __post_init__(self) -> None:
        positions = tuple(self.positions)
        object.__setattr__(self, "positions", positions)
        if sorted(positions) != list(range(1, len(positions) + 1)):
            raise ValueError("positions must form a permutation of 1..n")

    @classmethod
    def identity(cls, n: int) -> "LinearArrangement":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_vertex_order(cls, order: Iterable[int]) -> "LinearArrangement":
        """Build from the vertices listed in sequence order (first to last)."""
        order = tuple(order)
        positions = [0] * len(order)
        for pos, v in enumerate(order, start=1):
            if not 1 <= v <= len(order) or positions[v - 1]:
                raise ValueError("vertex order must list each vertex 1..n exactly once")
            positions[v - 1] = pos
        return cls(tuple(positions))

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, int]) -> "LinearArrangement":
        n = len(mapping)
        if sorted(mapping) != list(range(1, n + 1)):
            raise ValueError("mapping must cover vertices 1..n exactly")
        return cls(tuple(mapping[v] for v in range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.positions)

    def position_of(self, v: int) -> int:
        if not 1 <= v <= self.n:
            raise ValueError(f"vertex {v} outside range 1..{self.n}")
        return self.positions[v - 1]

    def vertex_order(self) -> tuple[int, ...]:
        """Vertices listed by sequence position."""
        order = [0] * self.n
        for v, pos in enumerate(self.positions, start=1):
            order[pos - 1] = v
        return tuple(order)

    def mirrored(self) -> "LinearArrangement":
        """The reversed sequence (position p becomes n + 1 - p)."""
        return LinearArrangement(tuple(self.n + 1 - p for p in self.positions))


def sum_dependency_distances(tree: FreeTree, arrangement: LinearArrangement) -> int:
    """Total D: the sum over edges of |pos(u) - pos(v)|."""
    if arrangement.n != tree.n:
        raise ValueError(
            f"arrangement covers {arrangement.n} vertices but the tree has {tree.n}"
        )
    pos = arrangement.positions
    return sum(abs(pos[u - 1] - pos[v - 1]) for u, v in tree.edges)


def single_head_D(n: int, head_position: int) -> int:
    """D for an n-word single-head phrase with the head at the given position.

    Closed form: D(p) = p^2 - (n+1)p + n(n+1)/2. Equals
    :func:`sum_dependency_distances` on the star tree with the hub placed at
    `head_position`, for any ordering of the leaves.
    """
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    if not 1 <= head_position <= n:
        raise ValueError(f"head position {head_position} outside range 1..{n}")
    return head_position * head_position - (n + 1) * head_position + n * (n + 1) // 2


def d_max_single_head(n: int) -> int:
    """Largest possible D for a single-head phrase: n(n-1)/2, head at either end."""
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    return n * (n - 1) // 2


def d_min_single_head(n: int) -> int:
    """Smallest possible D for a single-head phrase: floor(n^2/4), head central."""
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    return n * n // 4


def degree_second_moment(tree: FreeTree) -> Fraction:
    """Second moment of degree about zero: (1/n) * sum of squared degrees."""
    return Fraction(sum(d * d for d in tree.degrees), tree.n)


@dataclass(frozen=True)
class DependencyDistanceSummary:
    """A distance sum D together with its attainable range, in words."""

    D: int
    D_min: int
    D_max: int

    def __post_init__(self) -> None:
        if not self.D_min <= self.D <= self.D_max:
            raise ValueError(
                f"D={self.D} outside the attainable range "
                f"{self.D_min}..{self.D_max}"
            )


def single_head_summary(n: int, head_position: int) -> DependencyDistanceSummary:
    """D for the given head placement, bundled with the single-head bounds."""
    return DependencyDistanceSummary(
        single_head_D(n, head_position), d_min_single_head(n), d_max_single_head(n)
    )


def parse_tree(text: str) -> FreeTree:
    """Parse the one-line tree form, e.g. ``n=4; edges=1-2,1-3,1-4; head=1``.

    Fields are semicolon-separated ``key=value`` pairs: ``n`` (required),
    ``edges`` (required, comma-separated ``u-v`` pairs, empty for n=1) and
    ``head`` (optional). The shorthands ``star:N`` and ``path:N`` stand for
    :func:`star` and :func:`path`. Whitespace around tokens is ignored.
    """
    kind, sep, count = text.strip().partition(":")
    if sep and kind in ("star", "path"):
        try:
            n = int(count)
        except ValueError:
            raise ValueError(f"invalid vertex count {count.strip()!r}") from None
        return star(n) if kind == "star" else path(n)
    fields: dict[str, str] = {}
    for segment in text.strip().split(";"):
        segment = segment.strip()
        if not segment:
            continue
        key, sep, value = segment.partition("=")
        key = key.strip()
        if not sep or key not in ("n", "edges", "head"):
            raise ValueError(f"malformed tree segment {segment!r}")
        if key in fields:
            raise ValueError(f"duplicate tree field {key!r}")
        fields[key] = value.strip()
    for required in ("n", "edges"):
        if required not in fields:
            raise ValueError(f"tree form is missing the {required!r} field")
    try:
        n = int(fields["n"])
    except ValueError:
        raise ValueError(f"invalid vertex count {fields['n']!r}") from None
    edges = []
    if fields["edges"]:
        for token in fields["edges"].split(","):
            u_text, sep, v_text = token.partition("-")
            try:
                if not sep:
                    raise ValueError
                edges.append((int(u_text.strip()), int(v_text.strip())))
            except ValueError:
                raise ValueError(f"invalid edge {token.strip()!r}") from None
    head = None
    if "head" in fields:
        try:
            head = int(fields["head"])
        except ValueError:
            raise ValueError(f"invalid head {fields['head']!r}") from None
    return FreeTree(n, frozenset(edges), head)


def tree_to_text(tree: FreeTree) -> str:
    """Render a tree in the one-line form accepted by :func:`parse_tree`."""
    edges = ",".join(f"{u}-{v}" for u, v in sorted(tree.edges))
    text = f"n={tree.n}; edges={edges}"
    if tree.head is not None:
        text += f"; head={tree.head}"
    return text
