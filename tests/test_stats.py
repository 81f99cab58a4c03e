import math
import random
import time
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import accumulate, permutations
from math import comb

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from frequency_oracle import (
    anti_locality_counts,
    head_end_frequency,
    mean_D_from_g,
    order_distance_sum,
    star_variance,
    total_frequency,
)
from headorder.dataio import builtin_dryer_table, ci_rows, distance_rows, head_end_test_rows
from headorder.nullmodel import expected_D, sigma_mean_D
from headorder.stats import (
    OrderFrequencyTable,
    TableParseError,
    analyze,
    binomial_log_pmf,
    binomial_proportion_ci,
    binomial_quantile,
    quad_binomial_test,
    right_binomial_test,
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
        with pytest.raises(ValueError, match="unknown unit 'nope'"):
            table.frequency("nAND", "nope")


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

    def test_alpha_leaves_an_upper_quantile(self):
        # below ~2**-53, 1 - alpha/2 rounds to 1.0; refused before any pmf walk,
        # and by analyze itself, since ci_rows computes a report's intervals later
        for alpha in (0.0, 1.0, 1e-17, 1e-320, 5e-324, math.nan):
            with pytest.raises(ValueError, match=r"1 - alpha/2 < 1 as a float"):
                binomial_proportion_ci(0.5, 10**7, alpha)
            with pytest.raises(ValueError, match=r"^alpha must lie in \(0, 1\) with 1 - alpha/2"):
                analyze(builtin_dryer_table(), alpha=alpha)
        lo, hi = binomial_proportion_ci(0.5, 100, 2**-52)  # 1 - 2**-53 < 1.0
        assert 0 <= lo < 0.5 < hi <= 1
        for _, ends, lo, hi, middle, mid_lo, mid_hi, _ in ci_rows(
            analyze(builtin_dryer_table(), alpha=2**-52)
        ):
            assert 0 <= lo <= ends <= hi <= 1
            assert 0 <= mid_lo <= middle <= mid_hi <= 1

    def test_report_intervals_follow_its_alpha(self):
        report = analyze(builtin_dryer_table(), alpha=0.2)[0]
        assert report.alpha == 0.2
        row = ci_rows([report])[0]
        assert row[2:4] == binomial_proportion_ci(report.proportion, report.F, 0.2)
        assert row[5:7] == binomial_proportion_ci(1 - report.proportion, report.F, 0.2)
        wider = ci_rows([report._replace(alpha=0.01)])[0]
        assert wider[2] < row[2] and row[3] < wider[3]

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


@pytest.mark.parametrize(
    "function, message",
    [
        (lambda: binomial_log_pmf(1, 10, 0.0), r"strictly between 0 and 1, got 0.0$"),
        (lambda: binomial_log_pmf(1, 10, 1.0), r"strictly between 0 and 1, got 1.0$"),
        (lambda: binomial_quantile(0.5, -1, 0.5), r"trials must be >= 0, got -1$"),
        (lambda: binomial_quantile(0.5, 10, -0.1), r"must be in \[0, 1\], got -0.1$"),
        (lambda: binomial_quantile(0.5, 10, 1.5), r"must be in \[0, 1\], got 1.5$"),
        (lambda: binomial_proportion_ci(-0.1, 10), r"proportion must be in \[0, 1\], got -0.1$"),
        (lambda: binomial_proportion_ci(1.5, 10), r"proportion must be in \[0, 1\], got 1.5$"),
        (lambda: binomial_proportion_ci(0.5, 0), r"F must be positive, got 0$"),
        (lambda: binomial_proportion_ci(0.5, -3), r"F must be positive, got -3$"),
    ],
    ids=[
        "log_pmf-p0", "log_pmf-p1", "quantile-trials", "quantile-p-low", "quantile-p-high",
        "ci-proportion-low", "ci-proportion-high", "ci-F-zero", "ci-F-negative",
    ],
)
def test_an_argument_out_of_its_domain_is_refused(function, message):
    with pytest.raises(ValueError, match=message):
        function()


@pytest.mark.parametrize(
    "function, expected",
    [
        (lambda: binomial_log_pmf(-1, 10, 0.5), -math.inf),
        (lambda: binomial_log_pmf(11, 10, 0.5), -math.inf),
        (lambda: binomial_quantile(0.5, 10, 0.0), 0),
        (lambda: binomial_quantile(0.5, 10, 1.0), 10),
    ],
    ids=["log_pmf-below", "log_pmf-above", "quantile-p0", "quantile-p1"],
)
def test_edges_of_the_binomial_support(function, expected):
    # no mass outside 0..n; a certain outcome is its own quantile at every level
    assert function() == expected


@pytest.mark.parametrize("F", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "function",
    [
        lambda F: sigma_mean_D(star(4), F),
        lambda F: binomial_proportion_ci(0.5, F),
        lambda F: quad_binomial_test(3, F, 0.5),
    ],
    ids=["sigma_mean_D", "binomial_proportion_ci", "quad_binomial_test"],
)
def test_a_non_finite_F_is_refused_by_name(function, F):
    # no silent nan, no 0.0 sigma at F = inf and no OverflowError
    with pytest.raises(ValueError, match=f"F must be a finite number, got {F}$"):
        function(F)


class TestSigmaSeparation:
    # analyze computes k and applies the 3-sigma rule, k >= 3, to every row
    def test_published_values(self):
        languages, genera, adjusted = analyze(builtin_dryer_table())
        assert languages.k == pytest.approx(6.75, abs=5e-3)
        assert genera.k == pytest.approx(3.46, abs=5e-3)
        assert adjusted.k == pytest.approx(1.97, abs=5e-3)
        assert languages.three_sigma_significant and genera.three_sigma_significant
        assert not adjusted.three_sigma_significant

    def test_closed_form_matches_ratio_route(self):
        rng = random.Random(14)
        tables = [builtin_dryer_table()]
        for alphabet in ("ABn", "DNAn"):
            for scale in (1, 10):  # integer and fractional F
                count = math.factorial(len(alphabet))
                frequencies = [Fraction(rng.randint(0, 99), scale) for _ in range(count)]
                frequencies[0] += 1
                tables.append(make_table(frequencies, alphabet=alphabet))
        for table in tables:
            for report in analyze(table):
                null_mean = float(expected_D(report.n))
                rows = ((report.F, report.mean_D, report.k),) + tuple(
                    (F, mean_D, k) for F, mean_D, _, k in report.transforms
                )
                for F, mean_D, k in rows:
                    ratio = abs(mean_D - null_mean) / sigma_mean_D(star(report.n), F)
                    assert k == pytest.approx(ratio, rel=1e-12)

    def test_binomial_z_score_for_n_up_to_4(self):
        # n <= 4: <D> is linear in g, so k = |g - pF| / sqrt(F p (1 - p)), p = 2/n;
        # each transform row's k is that of its (T, s) pair. Cells stay small so
        # that a nonzero |<D> - mu| is far above the rounding of <D>.
        rng = random.Random(18)
        tables = [builtin_dryer_table()]
        for alphabet, top in (("ABn", 40), ("DNAn", 20)):
            for scale in (1, 4):  # integer and fractional cells
                for _ in range(10):
                    count = math.factorial(len(alphabet))
                    frequencies = [Fraction(rng.randint(0, top), scale) for _ in range(count)]
                    frequencies[rng.randrange(count)] += 1
                    tables.append(make_table(frequencies, alphabet=alphabet))
        for table in tables:
            for report in analyze(table):
                p = Fraction(2, report.n)

                def z(g, F):
                    return float(abs(g - p * F)) / math.sqrt(float(F * p * (1 - p)))

                assert report.k == pytest.approx(z(report.g, report.F), rel=1e-12)
                fractional = report.F.denominator > 1 or report.g.denominator > 1
                assert len(report.transforms) == (len(report.p_values) if fractional else 0)
                for (T, s, _), (F, _, _, k) in zip(report.p_values, report.transforms):
                    assert F == T
                    assert k == pytest.approx(z(s, T), rel=1e-12)

    def test_verdict(self):
        # n = 4: D = 6 with the head at an end and 4 in the middle, mu = 5 and
        # V = 1. Every order head-final gives k = sqrt(F). 20 x nADN and 5 x
        # DnAN give F = 25 and <D> = 28/5, so k = 3 exactly, which the rule
        # must accept although float k is 2.9999999999999982.
        #
        # With fractional cells the unit is summed over scale > 1, the lcm of
        # its denominators. Each tie below reads k = 3 exactly in rationals,
        # and the case after it moves one cell by 1e-17 to just below the tie:
        # the float k does not change, the verdict does.
        # n = 4, all head-end: k = sqrt(F), so F = 9 from halves.
        # n = 4, 91/8 head-end and 7/8 in the middle: F = 49/4, <D> = 46/7.
        # n = 3: mu = 8/3, V = 2/9, and all head-end gives k = sqrt(F / 2).
        # n = 5: mu = 8, V = 14/5, and all head-end gives k = sqrt(10 F / 7).
        below = Fraction(1, 10**17)
        cases = (
            ("DNAn", {"DNAn": 9}, 3.0, True),
            ("DNAn", {"DNAn": 8}, math.sqrt(8), False),
            ("DNAn", {"nADN": 20, "DnAN": 5}, pytest.approx(3.0, rel=1e-12), True),
            ("DNAn", {"DNAn": Fraction(9, 2), "nDNA": Fraction(9, 2)}, 3.0, True),
            ("DNAn", {"DNAn": Fraction(9, 2), "nDNA": Fraction(9, 2) - below}, 3.0, False),
            ("DNAn", {"nADN": Fraction(91, 8), "DnAN": Fraction(7, 8)}, 2.9999999999999987, True),
            (
                "DNAn",
                {"nADN": Fraction(91, 8), "DnAN": Fraction(7, 8) + below},
                2.9999999999999987,
                False,
            ),
            ("ABn", {"ABn": Fraction(17, 2), "nAB": Fraction(19, 2)}, 3.0000000000000013, True),
            (
                "ABn",
                {"ABn": Fraction(17, 2), "nAB": Fraction(19, 2) - below},
                3.0000000000000013,
                False,
            ),
            ("ABCDn", {"ABCDn": Fraction(63, 20), "nABCD": Fraction(63, 20)}, 3.0, True),
            ("ABCDn", {"ABCDn": Fraction(63, 20), "nABCD": Fraction(63, 20) - below}, 3.0, False),
        )
        for alphabet, rows, k, significant in cases:
            table = OrderFrequencyTable(
                tuple(alphabet), "n", ("u",), {order: {"u": F} for order, F in rows.items()}
            )
            (report,) = analyze(table)
            assert report.k == k
            assert report.three_sigma_significant is significant


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
        # the bound is set by cost, far below where floats lose counts (2**53);
        # a one-row unit at the bound is fast: its proportion is degenerate
        for F in (10**9 + 1, Fraction(10) ** 400):
            rows = {"nAND": {"u": Fraction(F)}}
            table = OrderFrequencyTable(("D", "N", "A", "n"), "n", ("u",), rows)
            with pytest.raises(ValueError, match="above the limit of 1,000,000,000"):
                analyze(table)
        rows = {"nAND": {"u": Fraction(10**9)}}
        table = OrderFrequencyTable(("D", "N", "A", "n"), "n", ("u",), rows)
        assert analyze(table)[0].g == 10**9

    def test_limit_holds_for_fractional_cells(self):
        # the unit is summed over scale = 2; F = 10**9 + 1/2 is refused with
        # the same message as an integer F, and F = 10**9 from halves is not
        rows = {"nAND": {"u": Fraction(2 * 10**9 + 1, 2)}}
        table = OrderFrequencyTable(("D", "N", "A", "n"), "n", ("u",), rows)
        with pytest.raises(ValueError) as info:
            analyze(table)
        assert str(info.value) == (
            "total frequency of unit 'u' is above the limit of 1,000,000,000: "
            "its intervals walk O(sqrt F) pmf terms"
        )
        rows = {"nAND": {"u": Fraction(2 * 10**9 - 1, 2)}, "DNAn": {"u": Fraction(1, 2)}}
        table = OrderFrequencyTable(("D", "N", "A", "n"), "n", ("u",), rows)
        assert analyze(table)[0].F == 10**9

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
                k_squared = (exact_mean - expected_D(n)) ** 2 * F / star_variance(n)
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


# Mersenne primes and two 30-bit primes: distinct large denominators, so the
# lcm that a unit is summed over grows to hundreds of bits
LARGE_PRIMES = (998_244_353, 1_000_000_007, 2**61 - 1, 2**89 - 1, 2**127 - 1)


def _over(denominators, top):
    """Fractions a/d with d drawn from `denominators` and 0 <= a/d <= top."""
    return st.sampled_from(denominators).flatmap(
        lambda d: st.integers(0, top * d).map(lambda a: Fraction(a, d))
    )


class TestIntegerSums:
    """analyze sums a unit in integers over the lcm of its denominators."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_exact_oracle(self, data):
        n = data.draw(st.sampled_from([3, 4, 5, 6]), label="n")
        alphabet = "ABCDEn"[-n:]
        cell = st.one_of(
            _over((1,), 500),
            _over((10, 100, 1000), 50),
            _over((3, 7), 200),
            _over(LARGE_PRIMES, 300),
        )
        orders = st.permutations(alphabet).map("".join)
        cells = data.draw(st.dictionaries(orders, cell, min_size=1, max_size=12), label="cells")
        F = sum(cells.values())
        assume(F >= Fraction(1, 2))
        rows = {order: {"u": f} for order, f in cells.items()}
        table = OrderFrequencyTable(tuple(alphabet), "n", ("u",), rows)
        (report,) = analyze(table)
        assert report.F == total_frequency(table, "u") == F
        assert report.g == head_end_frequency(table, "u")
        assert report.proportion == float(report.g / F)
        exact_mean = sum(order_distance_sum(o, "n") * f for o, f in cells.items()) / F
        assert report.mean_D == float(exact_mean)
        significant = F * (exact_mean - expected_D(n)) ** 2 >= 9 * star_variance(n)
        assert report.three_sigma_significant is significant

    def test_fraction_additions_do_not_grow_with_the_rows(self, monkeypatch):
        # the 24-row Dryer table makes no more Fraction additions than two of
        # its rows with the same units: none of them is per cell
        dryer = builtin_dryer_table()
        full = [order for order, freqs in dryer.rows.items() if all(freqs.values())]
        two_rows = dryer._replace(rows={order: dryer.rows[order] for order in full[:2]})
        assert len(dryer.rows) == 24 and len(two_rows.rows) == 2
        counted = []
        for name in ("__add__", "__radd__"):
            original = getattr(Fraction, name)

            def counting(a, b, original=original):
                counted.append(1)
                return original(a, b)

            monkeypatch.setattr(Fraction, name, counting)
        additions = []
        for table in (two_rows, dryer):
            counted.clear()
            analyze(table)
            additions.append(len(counted))
        assert additions[1] <= additions[0]


class TestOrderFrequencyTable:
    # each refusal is a TableParseError, still a ValueError, with no line
    # and with the row at fault, if any, as `order`
    def refusal(self, match, alphabet, head, units, rows):
        with pytest.raises(TableParseError, match=match) as info:
            OrderFrequencyTable(tuple(alphabet), head, units, rows)
        assert isinstance(info.value, ValueError) and info.value.line is None
        return info.value.order

    def test_rejects_non_permutation_row(self):
        rows = {"DDAN": {"u": Fraction(1)}}
        assert self.refusal("permutation", "DNAn", "n", ("u",), rows) == "DDAN"

    def test_rejects_negative_frequency(self):
        rows = {"nAND": {"u": Fraction(-1)}}
        assert self.refusal("negative", "DNAn", "n", ("u",), rows) == "nAND"

    def test_rejects_unknown_head(self):
        assert self.refusal("head", "DNAn", "x", ("u",), {}) is None

    def test_rejects_unknown_unit_in_row(self):
        rows = {"nAND": {"v": Fraction(1)}}
        assert self.refusal("unknown unit", "DNAn", "n", ("u",), rows) == "nAND"

    @pytest.mark.parametrize("alphabet", ["DDAn", ("D", "NA", "n"), ("D", "", "n"), ()])
    def test_rejects_an_alphabet_of_no_distinct_characters(self, alphabet):
        assert self.refusal("alphabet", alphabet, "n", ("u",), {}) is None

    @pytest.mark.parametrize("value", [math.inf, math.nan, "x", None, "1/0", "2.5", "1e3000000"])
    def test_rejects_a_frequency_that_is_not_a_number(self, value):
        rows = {"nAND": {"u": value}}
        assert self.refusal("not a finite number", "DNAn", "n", ("u",), rows) == "nAND"

    @pytest.mark.parametrize("units", [("u", "u"), ("",), ()])
    def test_rejects_units_that_are_empty_or_repeated(self, units):
        assert self.refusal("units", "DNAn", "n", units, {}) is None

    def test_missing_orders_count_as_zero(self):
        table = OrderFrequencyTable(
            ("D", "N", "A", "n"), "n", ("u",), {"nAND": {"u": Fraction(3)}}
        )
        assert table.frequency("DNAn", "u") == 0
        assert total_frequency(table, "u") == 3
