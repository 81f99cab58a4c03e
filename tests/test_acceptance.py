"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run).
"""

import functools
import math
import random
from fractions import Fraction
from itertools import permutations

import networkx as nx

from frequency_oracle import (
    anti_locality_counts,
    head_end_frequency,
    mean_D_from_g,
    order_distance_sum,
    total_frequency,
)
from headorder.dataio import (
    TableSchema,
    builtin_dryer_table,
    builtin_sov_aggregates,
    load_frequency_table,
    serialize_frequency_table,
)
from headorder.nullmodel import (
    enumerate_D_distribution,
    expected_D,
    variance_D,
    variance_D_star,
)
from headorder.published import (
    SOV_PUBLISHED,
    same_to_sig_figs,
    within,
    within_order_of_magnitude,
)
from headorder.reproduce import (
    dryer_reports,
    sov_footnote_rows,
    sov_reproducing_p0,
    table2_rows,
    table3_rows,
)
from headorder.rings import build_ring, swap_distance
from headorder.stats import (
    OrderFrequencyTable,
    binomial_log_pmf,
    binomial_proportion_ci,
    right_binomial_test,
)
from headorder.trees import FreeTree, path, star


def criterion(number, description):
    def decorate(test):
        @functools.wraps(test)
        def wrapper(*args, **kwargs):
            try:
                test(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number}: FAIL - {description}")
                raise
            print(f"ACCEPTANCE {number}: PASS - {description}")

        return wrapper

    return decorate


@criterion(1, "head-end test table reproduced from the embedded frequencies")
def test_criterion_1_table2():
    rows = table2_rows(dryer_reports())
    expected = [
        ("languages", 0.641, 576, 369, 7.3e-12),
        ("genera", 0.596, 322, 192, 3.3e-4),
        ("adjusted", 0.567, 217, 123, 0.029),
        ("adjusted", 0.564, 218, 123, 0.034),
        ("adjusted", 0.571, 217, 124, 0.021),
        ("adjusted", 0.569, 218, 124, 0.025),
    ]
    assert len(rows) == len(expected)
    for (unit, prop, F, g, p), (e_unit, e_prop, e_F, e_g, e_p) in zip(rows, expected):
        assert unit == e_unit
        assert F == e_F and g == e_g  # counts exact
        assert within(prop, e_prop, 1e-3)
        assert same_to_sig_figs(p, e_p, 2)


@criterion(2, "average-distance table reproduced, including rounded variants")
def test_criterion_2_table3():
    rows = table3_rows(dryer_reports())
    expected = [
        ("languages", 576, 0.042, 5.281, 6.75),
        ("genera", 322, 0.056, 5.193, 3.46),
        ("adjusted", 217.4, 0.068, 5.133, 1.97),
        ("adjusted", 217, 0.068, 5.134, 1.97),
        ("adjusted", 218, 0.068, 5.128, 1.9),
        ("adjusted", 217, 0.068, 5.143, 2.1),
        ("adjusted", 218, 0.068, 5.138, 2.03),
    ]
    assert len(rows) == len(expected)
    for computed, (e_unit, e_F, e_sigma, e_mean, e_k) in zip(rows, expected):
        unit, F, d_lo, mu, sigma, mean_D, d_hi, k = computed
        assert unit == e_unit
        assert abs(float(F) - e_F) < 1e-9
        assert (d_lo, mu, d_hi) == (4, 5, 6)  # exact
        assert within(sigma, e_sigma, 1e-3)
        assert within(mean_D, e_mean, 1e-3)
        assert within(k, e_k, 1e-2)


def _tree_shapes(n):
    if n == 2:
        return [path(2)]
    relabeled = []
    for graph in nx.nonisomorphic_trees(n):
        mapping = {old: new for new, old in enumerate(graph.nodes, start=1)}
        relabeled.append(
            FreeTree(n, frozenset((mapping[u], mapping[v]) for u, v in graph.edges))
        )
    return relabeled


@criterion(3, "enumeration oracle equals the closed-form moments, exactly")
def test_criterion_3_oracle_equivalence():
    for n in range(2, 8):
        for tree in _tree_shapes(n):
            dist = enumerate_D_distribution(tree)
            assert dist.mean() == expected_D(n)
            assert dist.variance() == variance_D(tree)
    for n in range(2, 31):
        assert variance_D_star(n) == variance_D(star(n))


@criterion(4, "anti-locality count equals the head-end count, same p-values")
def test_criterion_4_test_equivalence():
    table = builtin_dryer_table()
    expected_g = {"languages": 369, "genera": 192}
    for unit, e_g in expected_g.items():
        f_plus, _ = anti_locality_counts(table, unit)
        g = head_end_frequency(table, unit)
        assert f_plus == g == e_g
        F = total_frequency(table, unit)
        p_ends = right_binomial_test(g, F, Fraction(1, 2))
        p_anti = right_binomial_test(f_plus, F, Fraction(1, 2))
        assert p_ends == p_anti


@criterion(5, "verb-end footnote: p0=1/2 reproduces the published p-values")
def test_criterion_5_sov_footnote():
    aggregates = builtin_sov_aggregates()
    p_half = {
        unit: right_binomial_test(g, F, Fraction(1, 2))
        for unit, (F, g) in aggregates.items()
    }
    p_two_thirds = {
        unit: right_binomial_test(g, F, Fraction(2, 3))
        for unit, (F, g) in aggregates.items()
    }
    for unit, reference in SOV_PUBLISHED.items():
        assert within_order_of_magnitude(p_half[unit], reference)
        assert not within_order_of_magnitude(p_two_thirds[unit], reference)
    # the recorded finding: exactly one parameterization, 1/2, for every unit
    assert sov_reproducing_p0(sov_footnote_rows()) == {
        "languages": [Fraction(1, 2)],
        "families": [Fraction(1, 2)],
    }


@criterion(6, "swap-distance ring structure and metric axioms")
def test_criterion_6_swap_ring():
    ring = build_ring("SOV")
    assert ring.nodes == ("SOV", "SVO", "VSO", "VOS", "OVS", "OSV")
    edge_set = {frozenset(e) for e in ring.edges}
    assert len(edge_set) == 6
    for a, b in zip(ring.nodes, ring.nodes[1:] + ring.nodes[:1]):
        assert frozenset((a, b)) in edge_set
    assert swap_distance("SVO", "VOS") == 2
    assert swap_distance("SOV", "VOS") == 3

    rng = random.Random(2024)
    symbols = "abcdefg"
    for _ in range(10_000):
        m = rng.randint(2, 7)
        a = tuple(rng.sample(symbols[:m], m))
        b = tuple(rng.sample(symbols[:m], m))
        c = tuple(rng.sample(symbols[:m], m))
        d_ab = swap_distance(a, b)
        assert d_ab == swap_distance(b, a)
        assert (d_ab == 0) == (a == b)
        assert swap_distance(a, c) <= d_ab + swap_distance(b, c)


@criterion(7, "property suites: normalization, monotonicity, CI, bridge, round-trip")
def test_criterion_7_property_suites():
    # pmf normalization up to 10^4 trials
    for trials in (10, 576, 10_000):
        total = math.fsum(
            math.exp(binomial_log_pmf(k, trials, 0.5)) for k in range(trials + 1)
        )
        assert abs(total - 1.0) <= 1e-12

    # right-tail p-value is monotone non-increasing in successes; 1 at zero
    assert right_binomial_test(0, 322, Fraction(1, 2)) == 1.0
    previous = 1.0
    for successes in range(323):
        p = right_binomial_test(successes, 322, Fraction(1, 2))
        assert p <= previous + 1e-15
        previous = p

    # CI symmetric at proportion 1/2
    for F in (10, 217, 322, 576):
        lo, hi = binomial_proportion_ci(0.5, F, 0.05)
        assert abs((lo + hi) - 1.0) <= 1e-9

    # bridge equals the frequency-weighted per-row D on random tables
    rng = random.Random(7)
    orders = ["".join(p) for p in permutations("DNAn")]
    for _ in range(1000):
        frequencies = [rng.randint(0, 40) for _ in orders]
        if sum(frequencies) == 0:
            frequencies[rng.randrange(24)] = 1
        rows = {
            order: {"u": Fraction(value)}
            for order, value in zip(orders, frequencies)
            if value
        }
        table = OrderFrequencyTable(("D", "N", "A", "n"), "n", ("u",), rows)
        F = total_frequency(table, "u")
        g = head_end_frequency(table, "u")
        weighted = sum(
            order_distance_sum(order, "n") * table.frequency(order, "u")
            for order in table.rows
        )
        assert abs(mean_D_from_g(4, g, F) - float(weighted / F)) <= 1e-12

    # serialize -> load is the identity
    table = builtin_dryer_table()
    assert load_frequency_table(
        serialize_frequency_table(table), TableSchema(head="n")
    ) == table


@criterion(8, "sign-correction guard on the g -> <D> bridge")
def test_criterion_8_sign_correction():
    value = mean_D_from_g(4, 369, 576)
    assert value == 5.28125
    assert value != 2.71875
