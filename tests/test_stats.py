import math
import random
import time
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import accumulate, permutations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from frequency_oracle import (
    anti_locality_counts,
    head_end_frequency,
    mean_D_from_g,
    order_distance_sum,
    total_frequency,
)
from headorder.dataio import builtin_dryer_table, distance_rows, head_end_test_rows
from headorder.nullmodel import expected_D, sigma_mean_D, variance_D_star
from headorder.stats import (
    OrderFrequencyTable,
    analyze,
    binomial_log_pmf,
    binomial_proportion_ci,
    binomial_quantile,
    quad_binomial_test,
    right_binomial_test,
    sigma_separation_k,
    three_sigma_verdict,
)
from headorder.trees import single_head_D, star


def exact_right_tail(successes: int, trials: int, p0: Fraction) -> Fraction:
    """Independent all-rational oracle for the right-tail probability."""
    q0 = 1 - p0
    return sum(
        comb(trials, k) * p0**k * q0 ** (trials - k)
        for k in range(successes, trials + 1)
    )


def exact_pmf_numerators(trials: int, p: Fraction) -> tuple[list[int], int]:
    """Integer numerators of P(X = k), k = 0..trials, over their common denominator."""
    a, d = p.numerator, p.denominator
    b = d - a
    numerators = [comb(trials, k) * a**k * b ** (trials - k) for k in range(trials + 1)]
    return numerators, d**trials


def exact_quantile(q: float, trials: int, p: Fraction) -> int:
    """Smallest x with P(X <= x) >= q, in exact rationals."""
    numerators, denominator = exact_pmf_numerators(trials, p)
    target = Fraction(q) * denominator
    cumulative = 0
    for k, numerator in enumerate(numerators):
        cumulative += numerator
        if cumulative >= target:
            return k
    raise AssertionError("the cdf reaches 1")


class TestHeadEndBasics:
    def test_p_head_at_ends(self):
        # analyze's null probability of a head-end placement defaults to 2/n
        for alphabet in ("ABn", "DNAn", "ABCDn"):
            n = len(alphabet)
            table = make_table(range(1, math.factorial(n) + 1), alphabet=alphabet)
            assert analyze(table) == analyze(table, p0=Fraction(2, n))
            assert analyze(table) != analyze(table, p0=Fraction(1, n))
        with pytest.raises(ValueError, match="degenerate"):
            analyze(make_table([1, 1], alphabet="An"))

    def test_head_end_frequency_on_embedded_table(self):
        table = builtin_dryer_table()
        assert head_end_frequency(table, "languages") == 369
        assert head_end_frequency(table, "genera") == 192
        assert head_end_frequency(table, "adjusted") == Fraction("123.2")

    def test_totals_on_embedded_table(self):
        table = builtin_dryer_table()
        assert total_frequency(table, "languages") == 576
        assert total_frequency(table, "genera") == 322
        assert total_frequency(table, "adjusted") == Fraction("217.4")

    def test_unknown_unit(self):
        table = builtin_dryer_table()
        with pytest.raises(ValueError, match="unknown unit"):
            head_end_frequency(table, "nope")
        with pytest.raises(ValueError, match="unknown unit"):
            total_frequency(table, "nope")


class TestMeanDBridge:
    def test_published_values(self):
        assert mean_D_from_g(4, 369, 576) == pytest.approx(5.281, abs=5e-4)
        assert mean_D_from_g(4, 192, 322) == pytest.approx(5.193, abs=5e-4)

    def test_all_heads_medial(self):
        assert mean_D_from_g(4, 0, 100) == 4.0

    def test_all_heads_at_ends(self):
        assert mean_D_from_g(4, 100, 100) == 6.0
        assert mean_D_from_g(3, 100, 100) == 3.0

    def test_sign_correction(self):
        # derivation-consistent form, not the misprinted 2[2 - g/F]
        assert mean_D_from_g(4, 369, 576) == 5.28125
        assert mean_D_from_g(4, 369, 576) != 2.71875

    def test_unsupported_sizes(self):
        with pytest.raises(ValueError, match="3- or 4-word"):
            mean_D_from_g(5, 1, 2)
        with pytest.raises(ValueError, match="3- or 4-word"):
            mean_D_from_g(2, 1, 2)

    def test_g_bounds(self):
        with pytest.raises(ValueError):
            mean_D_from_g(4, 5, 4)
        with pytest.raises(ValueError):
            mean_D_from_g(4, -1, 4)


class TestRightBinomialTest:
    def test_published_values(self):
        assert right_binomial_test(369, 576, Fraction(1, 2)) == pytest.approx(
            7.3e-12, rel=0.05
        )
        assert right_binomial_test(192, 322, Fraction(1, 2)) == pytest.approx(
            3.3e-4, rel=0.05
        )

    def test_zero_successes(self):
        assert right_binomial_test(0, 100, Fraction(1, 2)) == 1.0

    def test_all_successes(self):
        assert right_binomial_test(20, 20, 0.5) == pytest.approx(2**-20, rel=1e-12)

    def test_against_exact_rationals(self):
        # exact-rational oracle, including tails far below 1e-12
        cases = [
            (5, 10, Fraction(1, 2)),
            (75, 100, Fraction(1, 2)),
            (95, 100, Fraction(1, 2)),
            (190, 200, Fraction(2, 3)),
            (180, 200, Fraction(1, 10)),
            (282, 340, Fraction(1, 2)),
        ]
        for successes, trials, p0 in cases:
            expected = float(exact_right_tail(successes, trials, p0))
            assert right_binomial_test(successes, trials, p0) == pytest.approx(
                expected, rel=1e-10
            )

    @pytest.mark.parametrize(
        "p0", [Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]
    )
    def test_exact_oracle_relative_error(self, p0):
        # every tail of n <= 2000 at a spread of thresholds, down past 1e-150
        worst = 0.0
        deep = 0
        for trials in (1, 7, 50, 333, 963, 2000):
            numerators, denominator = exact_pmf_numerators(trials, p0)
            tails = list(accumulate(reversed(numerators)))[::-1]
            for successes in sorted({1, *range(0, trials + 1, max(1, trials // 40))}):
                exact = Fraction(tails[successes], denominator)
                computed = right_binomial_test(successes, trials, p0)
                if exact < Fraction(1, 10**300):
                    assert computed < 1e-290
                    continue
                deep += exact < Fraction(1, 10**150)
                worst = max(worst, abs(computed - exact) / exact)
        assert deep > 0
        assert worst <= 1e-12

    def test_exact_oracle_deepest_known_case(self):
        exact = exact_right_tail(721, 963, Fraction(1, 3))
        assert exact < Fraction(1, 10**150)
        computed = right_binomial_test(721, 963, Fraction(1, 3))
        assert abs(computed - exact) / exact <= 1e-12

    def test_underflow_gives_zero(self):
        assert right_binomial_test(2000, 2000, Fraction(1, 10)) == 0.0

    def test_deep_tail_magnitude(self):
        # (180, 200, 1/10) is around 1e-40 territory; check 3 significant figures
        exact = exact_right_tail(180, 200, Fraction(1, 10))
        computed = right_binomial_test(180, 200, Fraction(1, 10))
        assert float(exact) < 1e-40
        assert computed == pytest.approx(float(exact), rel=1e-3)

    def test_against_scipy(self):
        for trials in (17, 322, 576, 1000):
            for p0 in (0.5, 2 / 3, 0.1):
                for successes in (0, 1, trials // 3, trials // 2, trials - 1, trials):
                    ours = right_binomial_test(successes, trials, p0)
                    reference = binom.sf(successes - 1, trials, p0)
                    assert ours == pytest.approx(reference, rel=1e-9, abs=1e-300)

    def test_monotone_in_successes(self):
        previous = 1.0
        for successes in range(0, 577):
            p = right_binomial_test(successes, 576, Fraction(1, 2))
            assert p <= previous + 1e-15
            previous = p

    def test_pmf_normalization(self):
        for trials in (10, 576, 10_000):
            for p0 in (0.5, 2 / 3):
                total = math.fsum(
                    math.exp(binomial_log_pmf(k, trials, p0)) for k in range(trials + 1)
                )
                assert abs(total - 1.0) <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            right_binomial_test(5, 4, 0.5)
        with pytest.raises(ValueError):
            right_binomial_test(-1, 4, 0.5)
        with pytest.raises(ValueError):
            right_binomial_test(2, 4, 1)
        with pytest.raises(ValueError):
            right_binomial_test(2, 4, 0)
        with pytest.raises(ValueError, match="integer"):
            right_binomial_test(2.5, 4, 0.5)


class TestQuadBinomialTest:
    def test_adjusted_pairings_and_values(self):
        results = quad_binomial_test(Fraction("123.2"), Fraction("217.4"), Fraction(1, 2))
        pairs = [(trials, successes) for trials, successes, _ in results]
        assert pairs == [(217, 123), (218, 123), (217, 124), (218, 124)]
        expected = {(217, 123): 0.029, (218, 123): 0.034, (217, 124): 0.021, (218, 124): 0.025}
        for trials, successes, p in results:
            assert p == pytest.approx(expected[(trials, successes)], abs=5e-4)

    def test_integer_inputs_collapse(self):
        results = quad_binomial_test(123, 217, Fraction(1, 2))
        assert len(set(results)) == 1
        assert results[0][:2] == (217, 123)

    def test_each_distinct_pair_tested_once(self, monkeypatch):
        import headorder.stats as stats

        calls = []

        def counted(successes, trials, p0):
            calls.append((trials, successes))
            return right_binomial_test(successes, trials, p0)

        monkeypatch.setattr(stats, "right_binomial_test", counted)
        assert quad_binomial_test(123, 217, Fraction(1, 2))[0][:2] == (217, 123)
        assert calls == [(217, 123)]
        calls.clear()
        quad_binomial_test(Fraction("123.2"), Fraction("217.4"), Fraction(1, 2))
        assert calls == [(217, 123), (218, 123), (217, 124), (218, 124)]

    def test_last_adjusted_row(self):
        results = quad_binomial_test(124, 218, Fraction(1, 2))
        assert all(p == pytest.approx(0.025, abs=5e-4) for _, _, p in results)

    def test_bounds(self):
        with pytest.raises(ValueError):
            quad_binomial_test(5, 4, 0.5)

    def test_same_unit_interval_clamps(self):
        results = quad_binomial_test(Fraction("3.7"), Fraction("3.9"), 0.5)
        for trials, successes, _ in results:
            assert successes <= trials

    def test_float_and_fraction_inputs_agree(self):
        exact = quad_binomial_test(Fraction("123.2"), Fraction("217.4"), Fraction(1, 2))
        from_floats = quad_binomial_test(123.2, 217.4, 0.5)
        assert exact == from_floats


class TestConfidenceInterval:
    def test_symmetric_at_half(self):
        for F in (10, 322, 576, 1001):
            lo, hi = binomial_proportion_ci(0.5, F, 0.05)
            assert lo + hi == pytest.approx(1.0, abs=1e-9)
            assert lo < 0.5 < hi

    def test_languages_interval_clears_half(self):
        lo, hi = binomial_proportion_ci(0.641, 576, 0.05)
        assert lo > 0.5
        assert lo < 0.641 < hi

    def test_width_shrinks_with_F(self):
        lo_small, hi_small = binomial_proportion_ci(0.596, 322, 0.05)
        lo_large, hi_large = binomial_proportion_ci(0.596, 576, 0.05)
        assert hi_small - lo_small > hi_large - lo_large

    def test_non_integer_F_rounded(self):
        assert binomial_proportion_ci(0.5, Fraction("217.4"), 0.05) == (
            binomial_proportion_ci(0.5, 217, 0.05)
        )
        assert binomial_proportion_ci(0.5, 217.5, 0.05) == (
            binomial_proportion_ci(0.5, 218, 0.05)
        )

    def test_degenerate_proportions(self):
        assert binomial_proportion_ci(0.0, 50, 0.05) == (0.0, 0.0)
        assert binomial_proportion_ci(1.0, 50, 0.05) == (1.0, 1.0)

    def test_F_rounding_to_zero_trials(self):
        assert binomial_proportion_ci(1.0, Fraction(2, 5)) == (1.0, 1.0)
        assert binomial_proportion_ci(0.5, Fraction(1, 2)) == (0.0, 1.0)
        with pytest.raises(ValueError, match=r"F = 2/5 rounds to 0 trials"):
            binomial_proportion_ci(0.5, Fraction(2, 5))

    def test_quantile_against_scipy(self):
        for trials in (10, 217, 576):
            for p in (0.3, 0.5, 0.640625):
                for q in (0.025, 0.5, 0.975):
                    assert binomial_quantile(q, trials, p) == int(
                        binom.ppf(q, trials, p)
                    )

    @pytest.mark.parametrize(
        "p", [Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]
    )
    def test_quantile_against_exact_rationals(self, p):
        # n odd at p = 1/2 puts the median exactly on a tie, P(X <= (n-1)/2) = 1/2
        for trials in (1, 2, 9, 217, 576, 1001, 2000):
            for q in (0.025, 0.5, 0.975):
                assert binomial_quantile(q, trials, p) == exact_quantile(q, trials, p)

    def test_million_trials_against_scipy(self):
        start = time.perf_counter()
        tail = right_binomial_test(500_800, 1_000_000, Fraction(1, 2))
        lo, hi = binomial_proportion_ci(0.505, 1_000_000)
        elapsed = time.perf_counter() - start
        assert tail == pytest.approx(binom.sf(500_799, 1_000_000, 0.5), rel=1e-9)
        assert lo == binom.ppf(0.025, 1_000_000, 0.505) / 1_000_000
        assert hi == binom.ppf(0.975, 1_000_000, 0.505) / 1_000_000
        assert elapsed < 1.0

    def test_quantile_validation(self):
        with pytest.raises(ValueError):
            binomial_quantile(0.0, 10, 0.5)
        with pytest.raises(ValueError):
            binomial_quantile(1.0, 10, 0.5)


class TestSigmaSeparation:
    def test_published_values(self):
        assert sigma_separation_k(5.28125, 576, 4) == pytest.approx(6.75, abs=5e-3)
        assert sigma_separation_k(mean_D_from_g(4, 192, 322), 322, 4) == pytest.approx(
            3.46, abs=5e-3
        )
        mean_adjusted = mean_D_from_g(4, Fraction("123.2"), Fraction("217.4"))
        assert sigma_separation_k(mean_adjusted, 217.4, 4) == pytest.approx(
            1.97, abs=5e-3
        )

    def test_closed_form_matches_ratio_route(self):
        for n, mean_D in ((4, 5.3), (4, 4.7), (3, 2.8), (3, 2.5)):
            for F in (81, 322, 576, 217.4):
                ratio = abs(mean_D - float(expected_D(n))) / sigma_mean_D(star(n), F)
                assert sigma_separation_k(mean_D, F, n) == pytest.approx(
                    ratio, rel=1e-12
                )

    def test_verdict(self):
        assert three_sigma_verdict(6.75)
        assert not three_sigma_verdict(1.97)
        assert three_sigma_verdict(3.0)
        with pytest.raises(ValueError):
            three_sigma_verdict(-0.1)


class TestAntiLocalityEquivalence:
    def test_order_distance_sum(self):
        assert order_distance_sum("nAND", "n") == 6
        assert order_distance_sum("DNAn", "n") == 6
        assert order_distance_sum("DnAN", "n") == 4
        assert order_distance_sum("AnND", "n") == 4

    def test_order_distance_sum_matches_star_arrangement(self):
        # the gaps summed word by word equal the closed form analyze uses
        for n in range(3, 7):
            symbols = "ABCDEF"[:n]
            for order in map("".join, permutations(symbols)):
                for head in symbols:
                    position = order.index(head) + 1
                    assert order_distance_sum(order, head) == single_head_D(n, position)

    def test_f_plus_equals_head_end_frequency(self):
        table = builtin_dryer_table()
        for unit in table.units:
            f_plus, f_minus = anti_locality_counts(table, unit)
            assert f_plus == head_end_frequency(table, unit)
            assert f_plus + f_minus == total_frequency(table, unit)

    def test_identical_p_values(self):
        table = builtin_dryer_table()
        for unit in ("languages", "genera"):
            f_plus, _ = anti_locality_counts(table, unit)
            F = total_frequency(table, unit)
            assert right_binomial_test(f_plus, F, Fraction(1, 2)) == right_binomial_test(
                head_end_frequency(table, unit), F, Fraction(1, 2)
            )


def make_table(frequencies, alphabet="DNAn", head="n", unit="u"):
    orders = ["".join(p) for p in permutations(alphabet)]
    rows = {
        order: {unit: Fraction(value)}
        for order, value in zip(orders, frequencies)
        if value
    }
    return OrderFrequencyTable(tuple(alphabet), head, (unit,), rows)


class TestAnalyze:
    def test_embedded_table_languages(self):
        reports = analyze(builtin_dryer_table())
        by_unit = {r.unit: r for r in reports}
        languages = by_unit["languages"]
        assert languages.F == 576
        assert languages.g == 369
        assert len(languages.p_values) == 1
        assert languages.p_values[0][2] == pytest.approx(7.3e-12, rel=0.05)
        assert languages.mean_D == pytest.approx(5.281, abs=5e-4)
        assert languages.k == pytest.approx(6.75, abs=5e-3)
        assert languages.three_sigma_significant

    def test_embedded_table_adjusted_quad(self):
        reports = analyze(builtin_dryer_table())
        adjusted = {r.unit: r for r in reports}["adjusted"]
        assert len(adjusted.p_values) == 4
        p_by_pair = {(t, s): p for t, s, p in adjusted.p_values}
        assert p_by_pair[(217, 123)] == pytest.approx(0.029, abs=5e-4)
        assert p_by_pair[(218, 124)] == pytest.approx(0.025, abs=5e-4)
        assert not adjusted.three_sigma_significant

    def test_significance_ordering_across_units(self):
        reports = analyze(builtin_dryer_table())
        by_unit = {r.unit: r for r in reports}
        p_languages = by_unit["languages"].p_values[0][2]
        p_genera = by_unit["genera"].p_values[0][2]
        assert p_languages < p_genera
        assert all(p_genera < p for _, _, p in by_unit["adjusted"].p_values)

    def test_zero_total_frequency(self):
        empty = OrderFrequencyTable(
            ("D", "N", "A", "n"), "n", ("u",), {"nAND": {"u": Fraction(0)}}
        )
        with pytest.raises(ValueError, match="zero total frequency"):
            analyze(empty)

    def test_three_symbol_table_uses_two_thirds(self):
        orders = ["".join(p) for p in permutations("SOV")]
        rows = {order: {"u": Fraction(10)} for order in orders}
        table = OrderFrequencyTable(("S", "O", "V"), "V", ("u",), rows)
        report = analyze(table)[0]
        # g/F = 2/3 exactly matches the null, so the right tail is fat
        assert report.g == 40
        assert report.p_values[0][2] == pytest.approx(
            float(exact_right_tail(40, 60, Fraction(2, 3))), rel=1e-9
        )

    def test_refuses_counts_beyond_float_exactness(self):
        rows = {"nAND": {"u": Fraction(10) ** 400}}
        table = OrderFrequencyTable(("D", "N", "A", "n"), "n", ("u",), rows)
        with pytest.raises(ValueError, match=r"2\*\*53"):
            analyze(table)
        rows = {"nAND": {"u": Fraction(2**53)}}
        table = OrderFrequencyTable(("D", "N", "A", "n"), "n", ("u",), rows)
        assert analyze(table)[0].g == 2**53

    def test_p0_override(self):
        table = builtin_dryer_table()
        default = analyze(table)[0].p_values[0][2]
        overridden = analyze(table, p0=Fraction(2, 3))[0].p_values[0][2]
        assert overridden != default

    @given(
        st.lists(st.integers(min_value=0, max_value=50), min_size=24, max_size=24).filter(
            lambda xs: sum(xs) > 0
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_bridge_matches_per_row_average(self, frequencies):
        table = make_table(frequencies)
        F = total_frequency(table, "u")
        g = head_end_frequency(table, "u")
        weighted = sum(
            order_distance_sum(order, "n") * table.frequency(order, "u")
            for order in table.rows
        )
        assert mean_D_from_g(4, g, F) == pytest.approx(float(weighted / F), abs=1e-12)


    def test_mean_D_and_k_exact_for_every_length(self):
        rng = random.Random(4)
        for n in range(3, 7):
            alphabet = "ABCDEn"[-n:]
            orders = ["".join(p) for p in permutations(alphabet)]
            for _ in range(5):
                frequencies = [
                    Fraction(rng.randint(0, 400), rng.choice((1, 4, 100)))
                    for _ in orders
                ]
                frequencies[0] += 1  # no all-zero table
                table = make_table(frequencies, alphabet=alphabet)
                report = analyze(table)[0]
                F = sum(frequencies)
                exact_mean = sum(
                    f * order_distance_sum(o, "n") for o, f in zip(orders, frequencies)
                ) / F
                k_squared = (exact_mean - expected_D(n)) ** 2 * F / variance_D_star(n)
                with localcontext() as context:
                    context.prec = 40
                    exact_k = (
                        Decimal(k_squared.numerator) / Decimal(k_squared.denominator)
                    ).sqrt()
                assert abs(Fraction(report.mean_D) - exact_mean) <= 1e-12 * exact_mean
                assert abs(Decimal(report.k) - exact_k) <= Decimal(1e-12) * exact_k
                assert report.F == F

    def test_mean_D_equals_bridge_bit_for_bit(self):
        rng = random.Random(34)
        tables = [builtin_dryer_table()]
        for n in (3, 4):
            alphabet = "ABn" if n == 3 else "DNAn"
            for _ in range(20):
                count = math.factorial(n)
                frequencies = [Fraction(rng.randint(0, 999), 100) for _ in range(count)]
                frequencies[0] += 1
                tables.append(make_table(frequencies, alphabet=alphabet))
        for table in tables:
            for report in analyze(table):
                assert report.mean_D == mean_D_from_g(report.n, report.g, report.F)

    @given(
        st.sampled_from([3, 4])
        .flatmap(
            lambda n: st.lists(
                st.fractions(min_value=0, max_value=40, max_denominator=12),
                min_size=math.factorial(n),
                max_size=math.factorial(n),
            )
        )
        .filter(lambda cells: sum(cells) >= Fraction(1, 2))
    )
    @settings(max_examples=100, deadline=None)
    def test_each_transform_is_the_integer_table_row(self, cells):
        # (T, s) of a fractional unit reports what a table with F = T, g = s does
        alphabet, end, middle = ("ABn", "nAB", "AnB") if len(cells) == 6 else (
            "DNAn", "nDNA", "DnNA"
        )
        report = analyze(make_table(cells, alphabet=alphabet))[0]
        fractional = report.F.denominator > 1 or report.g.denominator > 1
        tests, distances = head_end_test_rows([report]), distance_rows([report])
        assert len(distances) == 1 + (len(tests) if fractional else 0)
        for i, (T, s, _) in enumerate(report.p_values):
            rows = {end: {"u": Fraction(s)}, middle: {"u": Fraction(T - s)}}
            table = OrderFrequencyTable(tuple(alphabet), "n", ("u",), rows)
            (integer,) = analyze(table)
            assert head_end_test_rows([integer]) == [tests[i]]
            if fractional:
                assert distance_rows([integer]) == [distances[1 + i]]

class TestOrderFrequencyTable:
    def test_rejects_non_permutation_row(self):
        with pytest.raises(ValueError, match="permutation"):
            OrderFrequencyTable(
                ("D", "N", "A", "n"), "n", ("u",), {"DDAN": {"u": Fraction(1)}}
            )

    def test_rejects_negative_frequency(self):
        with pytest.raises(ValueError, match="negative"):
            OrderFrequencyTable(
                ("D", "N", "A", "n"), "n", ("u",), {"nAND": {"u": Fraction(-1)}}
            )

    def test_rejects_unknown_head(self):
        with pytest.raises(ValueError, match="head"):
            OrderFrequencyTable(("D", "N", "A", "n"), "x", ("u",), {})

    def test_rejects_unknown_unit_in_row(self):
        with pytest.raises(ValueError, match="unknown unit"):
            OrderFrequencyTable(
                ("D", "N", "A", "n"), "n", ("u",), {"nAND": {"v": Fraction(1)}}
            )

    def test_missing_orders_count_as_zero(self):
        table = OrderFrequencyTable(
            ("D", "N", "A", "n"), "n", ("u",), {"nAND": {"u": Fraction(3)}}
        )
        assert table.frequency("DNAn", "u") == 0
        assert total_frequency(table, "u") == 3
