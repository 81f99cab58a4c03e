from fractions import Fraction
from itertools import permutations

import pytest

from headorder.trees import (
    DependencyDistanceSummary,
    FreeTree,
    LinearArrangement,
    d_max_single_head,
    d_min_single_head,
    degree_second_moment,
    parse_tree,
    path,
    single_head_D,
    single_head_summary,
    star,
    sum_dependency_distances,
    tree_to_text,
)


def hub_at(n, hub_position):
    """Arrangement for star(n): hub at the given position, leaves in order."""
    order = [0] * n
    order[hub_position - 1] = 1
    leaves = iter(range(2, n + 1))
    for i in range(n):
        if order[i] == 0:
            order[i] = next(leaves)
    return LinearArrangement.from_vertex_order(order)


class TestFreeTree:
    def test_star_degrees(self):
        t = star(4)
        assert t.degrees == (3, 1, 1, 1)
        assert t.is_star

    def test_path_degrees(self):
        assert path(5).degrees == (1, 2, 2, 2, 1)
        assert not path(4).is_star

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

    def test_head_range(self):
        with pytest.raises(ValueError, match="head"):
            FreeTree(2, frozenset({(1, 2)}), head=5)


class TestLinearArrangement:
    def test_permutation_enforced(self):
        with pytest.raises(ValueError):
            LinearArrangement((1, 1, 3))

    def test_vertex_order_round_trip(self):
        arr = LinearArrangement.from_vertex_order((3, 1, 2))
        assert arr.vertex_order() == (3, 1, 2)
        assert arr.position_of(3) == 1

    def test_mirror_is_involution(self):
        arr = LinearArrangement((2, 4, 1, 3))
        assert arr.mirrored().mirrored() == arr

    def test_from_mapping(self):
        arr = LinearArrangement.from_mapping({1: 2, 2: 1, 3: 3})
        assert arr.positions == (2, 1, 3)


class TestDistances:
    def test_bouquet_and_balanced(self):
        # head at an end maximizes D, head central minimizes it
        assert sum_dependency_distances(star(4), hub_at(4, 1)) == 6
        assert sum_dependency_distances(star(4), hub_at(4, 2)) == 4

    def test_single_vertex_distance(self):
        assert sum_dependency_distances(FreeTree(1, frozenset()), LinearArrangement((1,))) == 0

    def test_vertex_mismatch(self):
        with pytest.raises(ValueError, match="covers"):
            sum_dependency_distances(star(4), LinearArrangement.identity(3))

    def test_closed_form_examples(self):
        assert single_head_D(4, 1) == 6
        assert single_head_D(4, 3) == 4
        assert single_head_D(3, 2) == 2

    def test_closed_form_bounds(self):
        assert d_max_single_head(4) == 6
        assert d_max_single_head(3) == 3
        assert d_max_single_head(2) == 1
        assert d_min_single_head(4) == 4
        assert d_min_single_head(3) == 2
        assert d_min_single_head(2) == 1

    def test_head_position_validated(self):
        with pytest.raises(ValueError):
            single_head_D(4, 0)
        with pytest.raises(ValueError):
            single_head_D(4, 5)

    def test_closed_form_matches_every_leaf_ordering(self):
        # exhaustive over n in 2..8: every arrangement of the star equals D(pi)
        for n in range(2, 9):
            tree = star(n)
            for order in permutations(range(1, n + 1)):
                arr = LinearArrangement.from_vertex_order(order)
                pi = arr.position_of(1)
                assert sum_dependency_distances(tree, arr) == single_head_D(n, pi)

    def test_symmetry_of_head_placement(self):
        for n in range(2, 13):
            for pi in range(1, n + 1):
                assert single_head_D(n, pi) == single_head_D(n, n + 1 - pi)

    def test_extremes_of_head_placement(self):
        for n in range(2, 13):
            values = [single_head_D(n, pi) for pi in range(1, n + 1)]
            assert min(values) == d_min_single_head(n)
            assert values[0] == values[-1] == d_max_single_head(n)

    def test_mirror_invariance(self):
        tree = path(6)
        for order in permutations(range(1, 7)):
            arr = LinearArrangement.from_vertex_order(order)
            assert sum_dependency_distances(tree, arr) == sum_dependency_distances(
                tree, arr.mirrored()
            )


class TestDistanceSummary:
    def test_bundles_range(self):
        summary = single_head_summary(4, 1)
        assert (summary.D, summary.D_min, summary.D_max) == (6, 4, 6)
        assert single_head_summary(4, 2).D == 4

    def test_range_invariant_enforced(self):
        with pytest.raises(ValueError, match="range"):
            DependencyDistanceSummary(D=7, D_min=4, D_max=6)
        with pytest.raises(ValueError, match="range"):
            DependencyDistanceSummary(D=3, D_min=4, D_max=6)


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

    def test_round_trip(self):
        for tree in (star(5), path(4), FreeTree(1, frozenset())):
            assert parse_tree(tree_to_text(tree)) == tree

    def test_whitespace_tolerated(self):
        t = parse_tree(" n = 3 ;  edges = 1-2 , 2-3 ")
        assert t == path(3)

    def test_missing_field(self):
        with pytest.raises(ValueError, match="missing"):
            parse_tree("n=3")

    def test_bad_edge(self):
        with pytest.raises(ValueError, match="edge"):
            parse_tree("n=3; edges=1-2,3")

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
