from collections import deque
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from headorder.rings import MAX_RING_SYMBOLS, build_ring, ring_layout, swap_distance

SYMBOLS = "abcdefg"


def bfs_distance(ring, source, target):
    """Shortest-path oracle on the adjacent-transposition graph."""
    neighbours = {node: [] for node in ring.nodes}
    for a, b in ring.edges:
        neighbours[a].append(b)
        neighbours[b].append(a)
    seen = {source: 0}
    queue = deque([source])
    while queue:
        node = queue.popleft()
        if node == target:
            return seen[node]
        for other in neighbours[node]:
            if other not in seen:
                seen[other] = seen[node] + 1
                queue.append(other)
    raise AssertionError("graph is connected, target must be reachable")


class TestSwapDistance:
    def test_published_examples(self):
        assert swap_distance("SOV", "SVO") == 1
        assert swap_distance("SVO", "VOS") == 2
        assert swap_distance("SOV", "VOS") == 3
        assert swap_distance("SOV", "SOV") == 0

    def test_adjacency(self):
        edges = {frozenset(edge) for edge in build_ring("SOV").edges}
        assert frozenset(("SOV", "SVO")) in edges
        assert frozenset(("SOV", "VOS")) not in edges
        assert frozenset(("SOV",)) not in edges

    def test_full_reversal_attains_maximum(self):
        for m in range(2, 8):
            order = SYMBOLS[:m]
            assert swap_distance(order, order[::-1]) == m * (m - 1) // 2

    def test_mismatched_alphabets(self):
        with pytest.raises(ValueError, match="different symbol sets"):
            swap_distance("SOV", "SOX")
        with pytest.raises(ValueError, match="repeated"):
            swap_distance("SOO", "OOS")

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_metric_axioms(self, data):
        m = data.draw(st.integers(min_value=2, max_value=7))
        base = list(SYMBOLS[:m])
        a = tuple(data.draw(st.permutations(base)))
        b = tuple(data.draw(st.permutations(base)))
        c = tuple(data.draw(st.permutations(base)))
        assert swap_distance(a, b) == swap_distance(b, a)
        assert (swap_distance(a, b) == 0) == (a == b)
        assert swap_distance(a, c) <= swap_distance(a, b) + swap_distance(b, c)

    def test_matches_graph_shortest_path(self):
        for m in range(2, 6):
            ring = build_ring(SYMBOLS[:m])
            for a, b in combinations(ring.nodes, 2):
                assert swap_distance(a, b) == bfs_distance(ring, a, b)


class TestRing:
    def test_three_symbol_cycle(self):
        ring = build_ring("SOV")
        assert ring.nodes == ("SOV", "SVO", "VSO", "VOS", "OVS", "OSV")
        assert len(ring.edges) == 6
        edge_set = {frozenset(e) for e in ring.edges}
        cycle = ring.nodes
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert frozenset((a, b)) in edge_set

    def test_ring_distance_equals_swap_distance(self):
        ring = build_ring("SOV")
        index = {node: i for i, node in enumerate(ring.nodes)}
        for a, b in combinations(ring.nodes, 2):
            steps = abs(index[a] - index[b])
            around = min(steps, 6 - steps)
            assert around == swap_distance(a, b)

    def test_node_degree_is_m_minus_1(self):
        for m in range(2, 6):
            ring = build_ring(SYMBOLS[:m])
            degree = {node: 0 for node in ring.nodes}
            for a, b in ring.edges:
                degree[a] += 1
                degree[b] += 1
            assert set(degree.values()) == {m - 1}

    def test_edges_match_all_pairs_scan(self):
        for m in range(2, 6):
            ring = build_ring(SYMBOLS[:m])
            scanned = tuple(
                (a, b)
                for a, b in combinations(ring.nodes, 2)
                if swap_distance(a, b) == 1
            )
            assert ring.edges == scanned

    def test_two_symbols(self):
        ring = build_ring("AB")
        assert ring.nodes == ("AB", "BA")
        assert ring.edges == (("AB", "BA"),)

    def test_frequency_annotation(self):
        ring = build_ring("SOV", {"SOV": 564, "SVO": 488})
        assert ring.frequencies == {"SOV": 564, "SVO": 488}

    def test_unknown_frequency_key(self):
        with pytest.raises(ValueError, match="not in node set"):
            build_ring("SOV", {"XYZ": 1})

    def test_too_few_symbols(self):
        with pytest.raises(ValueError, match="at least 2"):
            build_ring("S")

    def test_too_many_symbols(self):
        # refused before any order is built, however long the alphabet
        for m in (MAX_RING_SYMBOLS + 1, 5000):
            symbols = [chr(0x4E00 + i) for i in range(m)]
            with pytest.raises(ValueError, match=f"limit of {MAX_RING_SYMBOLS}"):
                build_ring(symbols)

    def test_layout_angles(self):
        ring = build_ring("SOV")
        layout = ring_layout(ring)
        assert [node for node, _, _ in layout] == list(ring.nodes)
        angles = [angle for _, angle, _ in layout]
        assert angles == [90.0, 30.0, -30.0, -90.0, -150.0, 150.0]

    def test_layout_carries_frequencies(self):
        ring = build_ring("SOV", {"SOV": 564})
        layout = dict((node, freq) for node, _, freq in ring_layout(ring))
        assert layout["SOV"] == 564
        assert layout["SVO"] is None
