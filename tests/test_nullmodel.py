import random
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import comb, factorial, lcm

import networkx as nx
import pytest

from frequency_oracle import star_variance
from headorder.nullmodel import (
    DP_CEILING,
    DiscreteDistribution,
    check_three_sigma_assumptions,
    enumerate_D_distribution,
    expected_D,
    is_unimodal,
    null_moments,
    sigma_mean_D,
    variance_D,
)
from headorder.trees import FreeTree, path, single_head_D, star


def counts(*values: int) -> DiscreteDistribution:
    """Counts on 0, 1, 2, ..."""
    return DiscreteDistribution(range(len(values)), values)


def tree_from_networkx(graph) -> FreeTree:
    relabel = {old: new for new, old in enumerate(graph.nodes, start=1)}
    return FreeTree(
        graph.number_of_nodes(),
        frozenset((relabel[u], relabel[v]) for u, v in graph.edges),
    )


def all_tree_shapes(n):
    if n == 1:
        return [FreeTree(1, frozenset())]
    if n == 2:
        return [path(2)]
    return [tree_from_networkx(g) for g in nx.nonisomorphic_trees(n)]


def prufer_tree(n, seed):
    rng = random.Random(seed)
    sequence = [rng.randrange(n) for _ in range(n - 2)]
    return tree_from_networkx(nx.from_prufer_sequence(sequence))


def enumerated_D_distribution(tree) -> DiscreteDistribution:
    """Brute-force oracle: D summed over the edges of each of the n! arrangements."""
    edges = [(u - 1, v - 1) for u, v in tree.edges]
    tally = Counter(
        sum(abs(positions[u] - positions[v]) for u, v in edges)
        for positions in permutations(range(1, tree.n + 1))
    )
    support = sorted(tally)
    return DiscreteDistribution(support, [tally[d] for d in support])


def fraction_moments(dist) -> tuple[Fraction, Fraction]:
    """Oracle: mean and central second moment summed one Fraction at a time."""
    mean = sum((v * m for v, m in zip(dist.support, dist.mass)), Fraction(0))
    variance = sum(
        ((v - mean) ** 2 * m for v, m in zip(dist.support, dist.mass)), Fraction(0)
    )
    return mean, variance


class TestDiscreteDistribution:
    def test_validation(self):
        with pytest.raises(ValueError, match="matched"):
            DiscreteDistribution((1, 2), (1,))
        with pytest.raises(ValueError, match="matched"):
            DiscreteDistribution((), ())
        with pytest.raises(ValueError, match="increasing"):
            DiscreteDistribution((2, 1), (1, 1))

    @pytest.mark.parametrize("bad", [0, -1, Fraction(1), 1.0, True, "1"])
    def test_count_must_be_a_positive_int(self, bad):
        with pytest.raises(ValueError, match="positive integers"):
            DiscreteDistribution((1, 2), (bad, 1))

    def test_mass_is_each_count_over_the_total(self):
        dist = DiscreteDistribution((3, 7), (2, 2))
        assert dist.total == 4
        assert dist.mass == (Fraction(1, 2), Fraction(1, 2))

    def test_moments(self):
        dist = DiscreteDistribution((4, 6), (1, 1))
        assert dist.mean() == 5
        assert dist.variance() == 1

    @pytest.mark.parametrize(
        "support, mass",
        [
            ((1, 2, 5), (Fraction(1, 3), Fraction(1, 6), Fraction(1, 2))),
            (
                (-4, 0, 7, 9),
                (Fraction(2, 7), Fraction(1, 5), Fraction(3, 10), Fraction(3, 14)),
            ),
            (
                (10**20, 10**20 + 3),
                (Fraction(1, 10**9 + 7), Fraction(10**9 + 6, 10**9 + 7)),
            ),
            ((6,), (Fraction(1),)),
        ],
    )
    def test_integer_moments_equal_fraction_sums(self, support, mass):
        total = lcm(*[m.denominator for m in mass])
        dist = DiscreteDistribution(support, [int(m * total) for m in mass])
        assert dist.mass == mass
        assert (dist.mean(), dist.variance()) == fraction_moments(dist)

    def test_integer_moments_on_dp_distributions(self):
        trees = [star(n) for n in range(1, 10)] + [path(n) for n in range(1, 10)]
        trees += [prufer_tree(n, seed) for n in range(3, 10) for seed in range(3)]
        for tree in trees:
            dist = enumerate_D_distribution(tree)
            assert (dist.mean(), dist.variance()) == fraction_moments(dist)

    def test_csv(self):
        dist = DiscreteDistribution((2, 3), (1, 2))
        text = dist.to_csv()
        assert text.splitlines()[0] == "value,probability,probability_decimal"
        assert "2,1/3," in text
        assert "3,2/3," in text


class TestClosedForms:
    def test_expected_D_examples(self):
        assert expected_D(4) == 5
        assert expected_D(3) == Fraction(8, 3)
        assert expected_D(2) == 1
        with pytest.raises(ValueError, match="vertex count must be >= 1, got 0"):
            expected_D(0)

    def test_variance_examples(self):
        assert variance_D(star(3)) == Fraction(2, 9)
        assert variance_D(star(4)) == 1
        assert variance_D(path(5)) == Fraction(13, 5)

    def test_star_specialization(self):
        assert star_variance(4) == 1
        assert star_variance(3) == Fraction(2, 9)
        assert star_variance(2) == 0
        for n in range(2, 31):
            assert star_variance(n) == variance_D(star(n))

    def test_every_4_vertex_shape_has_unit_variance(self):
        # the (n/4 - 1) term vanishes at n=4
        for tree in all_tree_shapes(4):
            assert variance_D(tree) == 1

    def test_sigma_examples(self):
        assert sigma_mean_D(star(4), 576) == pytest.approx(0.0417, abs=5e-5)
        assert sigma_mean_D(star(4), 322) == pytest.approx(0.056, abs=5e-4)

    def test_sigma_scaling(self):
        t = path(5)
        for F in (3, 10, 217.4):
            assert sigma_mean_D(t, 4 * F) == pytest.approx(
                sigma_mean_D(t, F) / 2, rel=1e-12
            )

    def test_sigma_requires_positive_F(self):
        with pytest.raises(ValueError, match="positive"):
            sigma_mean_D(star(4), 0)

    @pytest.mark.parametrize("F", [1e-320, 5e-324])
    def test_sigma_refuses_an_overflow(self, F):
        with pytest.raises(ValueError, match=f"at F = {F} overflows a float"):
            sigma_mean_D(star(4), F)

    def test_null_moments_bundle(self):
        mean, variance, sigma = null_moments(star(4), 576)
        assert (mean, variance) == (5, 1)
        assert sigma == pytest.approx(1 / 24)
        assert null_moments(star(4))[2] is None


class TestEnumerationOracle:
    def test_star4_distribution(self):
        dist = enumerate_D_distribution(star(4))
        assert dist.support == (4, 6)
        assert dist.mass == (Fraction(1, 2), Fraction(1, 2))

    def test_star3_distribution(self):
        dist = enumerate_D_distribution(star(3))
        assert dist.support == (2, 3)
        assert dist.mass == (Fraction(1, 3), Fraction(2, 3))

    def test_counts_cover_all_n_factorial_arrangements(self):
        for n in range(1, 9):
            for tree in all_tree_shapes(n):
                dist = enumerate_D_distribution(tree)
                assert dist.total == factorial(n), tree
                assert sum(dist.mass) == 1, tree

    def test_single_edge(self):
        dist = enumerate_D_distribution(path(2))
        assert dist.support == (1,)
        assert dist.mass == (Fraction(1),)

    def test_cap_refuses(self):
        with pytest.raises(ValueError, match=rf"n <= {DP_CEILING}$"):
            enumerate_D_distribution(path(DP_CEILING + 1))

    def test_oracle_matches_formulas_on_all_shapes(self):
        for n in range(2, 8):
            for tree in all_tree_shapes(n):
                dist = enumerate_D_distribution(tree)
                assert dist.mean() == expected_D(n), tree
                assert dist.variance() == variance_D(tree), tree

    def test_oracle_at_scale(self):
        # largest cheap size: 8! arrangements of the 8-vertex star
        dist = enumerate_D_distribution(star(8))
        assert dist.mean() == expected_D(8) == 21
        assert dist.variance() == star_variance(8) == 21
        assert dist.support[0] == 16  # floor(64/4)
        assert dist.support[-1] == 28  # 8*7/2

    def test_oracle_matches_on_random_labelings(self):
        # the distribution depends only on the shape, not the labels
        rng = random.Random(20)
        for _ in range(5):
            labels = list(range(1, 7))
            rng.shuffle(labels)
            edges = frozenset(
                (labels[i], labels[rng.randrange(i)]) for i in range(1, 6)
            )
            tree = FreeTree(6, edges)
            dist = enumerate_D_distribution(tree)
            assert dist.mean() == expected_D(6)
            assert dist.variance() == variance_D(tree)


class TestCutDP:
    def test_matches_enumeration_on_all_shapes(self):
        for n in range(1, 8):
            for tree in all_tree_shapes(n):
                assert enumerate_D_distribution(tree) == enumerated_D_distribution(tree)

    def test_matches_enumeration_on_random_labelings(self):
        rng = random.Random(8)
        for seed in range(3):
            tree = prufer_tree(8, seed)
            labels = list(range(1, 9))
            rng.shuffle(labels)
            edges = frozenset((labels[u - 1], labels[v - 1]) for u, v in tree.edges)
            tree = FreeTree(8, edges)
            assert enumerate_D_distribution(tree) == enumerated_D_distribution(tree)

    def test_matches_enumeration_at_the_default_cap(self):
        for tree in (star(9), path(9)):
            assert enumerate_D_distribution(tree) == enumerated_D_distribution(tree)

    def test_star_is_the_uniform_hub_position(self):
        for n in range(1, 15):
            hub_D = Counter(single_head_D(n, position) for position in range(1, n + 1))
            support = sorted(hub_D)
            # each hub position leaves (n-1)! orders of the leaves
            expected = [hub_D[d] * factorial(n - 1) for d in support]
            assert enumerate_D_distribution(star(n)) == DiscreteDistribution(
                support, expected
            )

    def test_moments_beyond_the_default_cap(self):
        for n in (12, 14):
            for tree in (path(n), prufer_tree(n, n)):
                dist = enumerate_D_distribution(tree)
                assert dist.mean() == expected_D(n)
                assert dist.variance() == variance_D(tree)

    def test_ceiling_holds_whatever_the_cap(self):
        # refused before any DP work, so a huge n costs nothing
        for n in (DP_CEILING + 1, 40):
            with pytest.raises(ValueError, match=rf"2\*\*{n} "):
                enumerate_D_distribution(path(n))


class TestUnimodality:
    def test_binomial_pmf_is_unimodal(self):
        assert is_unimodal(counts(*[comb(10, k) for k in range(11)]))

    def test_two_local_maxima(self):
        assert not is_unimodal(counts(4, 1, 5))

    def test_two_point_distribution_counts_as_unimodal(self):
        assert is_unimodal(enumerate_D_distribution(star(4)))

    def test_plateau_is_unimodal(self):
        assert is_unimodal(counts(1, 1, 1, 1))

    def test_monotone_sequences_are_unimodal(self):
        assert is_unimodal(counts(1, 2, 7))
        assert is_unimodal(counts(7, 2, 1))

    def test_three_sigma_assumptions(self):
        # unimodality is the one precondition; the old name is only an alias
        assert check_three_sigma_assumptions is is_unimodal
