from fractions import Fraction
from itertools import permutations

import pytest

from frequency_oracle import order_distance_sum
from headorder.trees import (
    MAX_TREE_VERTICES,
    FreeTree,
    parse_tree,
    path,
    single_head_D,
    star,
)


class TestFreeTree:
    def test_star_degrees(self):
        t = star(4)
        assert t.degrees == (3, 1, 1, 1)

    def test_path_degrees(self):
        assert path(5).degrees == (1, 2, 2, 2, 1)

    def test_single_vertex(self):
        t = FreeTree(1, frozenset())
        assert t.degrees == (0,)

    def test_edge_count_enforced(self):
        with pytest.raises(ValueError, match="edges"):
            FreeTree(3, frozenset({(1, 2)}))

    def test_disconnected_rejected(self):
        # 4 vertices, 3 edges, but a triangle plus an isolated vertex
        with pytest.raises(ValueError, match="connected"):
            FreeTree(4, frozenset({(1, 2), (2, 3), (3, 1)}))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            FreeTree(2, frozenset({(1, 1)}))

    def test_out_of_range_vertex(self):
        with pytest.raises(ValueError):
            FreeTree(2, frozenset({(1, 3)}))


class TestDistances:
    def test_bouquet_and_balanced(self):
        # head at an end maximizes D, head central minimizes it
        assert order_distance_sum("hABC", "h") == single_head_D(4, 1) == 6
        assert order_distance_sum("AhBC", "h") == single_head_D(4, 2) == 4

    def test_single_vertex_distance(self):
        assert order_distance_sum("h", "h") == single_head_D(1, 1) == 0

    def test_closed_form_examples(self):
        assert single_head_D(4, 1) == 6
        assert single_head_D(4, 3) == 4
        assert single_head_D(3, 2) == 2

    def test_closed_form_bounds(self):
        # D_max with the head at an end, D_min with the head central
        assert [single_head_D(n, 1) for n in (4, 3, 2)] == [6, 3, 1]
        assert [single_head_D(n, (n + 1) // 2) for n in (4, 3, 2)] == [4, 2, 1]

    def test_head_position_validated(self):
        with pytest.raises(ValueError):
            single_head_D(4, 0)
        with pytest.raises(ValueError):
            single_head_D(4, 5)
        with pytest.raises(ValueError, match="vertex count must be >= 1, got 0"):
            single_head_D(0, 1)

    def test_closed_form_matches_every_leaf_ordering(self):
        # exhaustive over n in 2..8: every arrangement of the star equals D(pi)
        for n in range(2, 9):
            for order in permutations(range(1, n + 1)):
                pi = order.index(1) + 1
                assert order_distance_sum(order, 1) == single_head_D(n, pi)

    def test_symmetry_of_head_placement(self):
        for n in range(2, 13):
            for pi in range(1, n + 1):
                assert single_head_D(n, pi) == single_head_D(n, n + 1 - pi)

    def test_extremes_of_head_placement(self):
        # D_min = floor(n^2/4) and D_max = n(n-1)/2
        for n in range(2, 13):
            values = [single_head_D(n, pi) for pi in range(1, n + 1)]
            assert min(values) == values[(n + 1) // 2 - 1] == n * n // 4
            assert values[0] == values[-1] == n * (n - 1) // 2


def degree_second_moment(tree: FreeTree) -> Fraction:
    """<k^2>: the second moment of degree about zero, (1/n) * sum of squared degrees."""
    return Fraction(sum(d * d for d in tree.degrees), tree.n)


class TestDegreeMoment:
    def test_star(self):
        assert degree_second_moment(star(4)) == 3

    def test_path(self):
        assert degree_second_moment(path(5)) == Fraction(14, 5)

    def test_single_edge(self):
        assert degree_second_moment(path(2)) == 1


class TestTextForm:
    def test_parse_example(self):
        t = parse_tree("n=4; edges=1-2,1-3,1-4; head=1")
        assert t == star(4)

    def test_head_range(self):
        for head in (0, 5):
            with pytest.raises(ValueError, match=f"head {head} outside vertex range 1..4"):
                parse_tree(f"n=4; edges=1-2,1-3,1-4; head={head}")

    def test_head_is_checked_not_kept(self):
        # a tree is its vertices and edges: the same star with or without a head
        same = [parse_tree(f"n=4; edges=1-2,1-3,1-4{h}") for h in ("", "; head=1", "; head=2")]
        assert same == [star(4)] * 3

    def test_round_trip(self):
        assert parse_tree("n=5; edges=1-2,1-3,1-4,1-5; head=1") == star(5)
        assert parse_tree("n=4; edges=1-2,2-3,3-4") == path(4)
        assert parse_tree("n=1; edges=") == FreeTree(1, frozenset())

    def test_whitespace_tolerated(self):
        t = parse_tree(" n = 3 ;  edges = 1-2 , 2-3 ")
        assert t == path(3)

    def test_missing_field(self):
        with pytest.raises(ValueError, match="missing"):
            parse_tree("n=3")

    def test_bad_edge(self):
        with pytest.raises(ValueError, match="edge"):
            parse_tree("n=3; edges=1-2,3")

    def test_bad_head(self):
        with pytest.raises(ValueError, match="invalid head 'x'"):
            parse_tree("n=3; edges=1-2,2-3; head=x")

    def test_repeated_field(self):
        with pytest.raises(ValueError, match="duplicate tree field 'n'"):
            parse_tree("n=3; n=3; edges=1-2,2-3")

    def test_unknown_field(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_tree("n=3; edges=1-2,2-3; root=1")

    def test_star_and_path_shorthands(self):
        assert parse_tree("star:5") == star(5)
        assert parse_tree(" path: 4 ") == path(4)

    def test_shorthand_with_bad_count(self):
        with pytest.raises(ValueError, match="invalid vertex count 'abc'"):
            parse_tree("star:abc")
        with pytest.raises(ValueError, match=">= 1"):
            parse_tree("path:0")

    def test_vertex_ceiling(self):
        limit = MAX_TREE_VERTICES
        assert parse_tree(f"star:{limit}").n == limit
        for text in (f"star:{limit + 1}", f"path:{10**12}", f"n={limit + 1}; edges=1-2"):
            with pytest.raises(ValueError, match=f"above the limit of {limit:,}"):
                parse_tree(text)
