"""Frequency-table analysis of head placement: counts, tests, intervals.

Central quantities, per measurement unit of an order-frequency table:

* F       total frequency over all orders of the phrase
* g       frequency of orders placing the head first or last
* <D>     frequency-weighted average dependency-distance sum, exact from the
          frequency at each head position for any n >= 3
* k       separation |<D> - mean| in units of sigma(<D>), for the 3-sigma rule

Binomial tails and quantiles take one saddle-point log-pmf (Loader 2000) at
an anchor and extend it with the ratio recurrence
pmf(k+1)/pmf(k) = (n-k)p / ((k+1)q), walking outward until the terms are
negligible. p-values down at 1e-37 and far beyond keep full relative accuracy,
and F = 10^6 costs milliseconds.
Frequencies stay exact :class:`~fractions.Fraction` values until a float is
actually reported.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .nullmodel import expected_D, variance_D_star
from .trees import single_head_D

Real = Union[int, float, Fraction]

# The binomial kernel works in float, where counts above 2**53 stop being exact.
_MAX_TOTAL_FREQUENCY = 2**53


@dataclass(frozen=True)
class OrderFrequencyTable:
    """Frequencies of the n! orders of an n-symbol phrase, per measurement unit.

    Symbols are single characters so that an order is a plain string (e.g.
    ``"nAND"``); order strings are case-sensitive. Orders absent from `rows`
    count as frequency zero. The alphabet is a set; it is stored sorted so
    that tables built from differently-ordered alphabets compare equal.
    """

    alphabet: tuple[str, ...]
    head: str
    units: tuple[str, ...]
    rows: dict[str, dict[str, Fraction]]

    def __post_init__(self) -> None:
        alphabet = tuple(sorted(self.alphabet))
        units = tuple(self.units)
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "units", units)
        if len(set(alphabet)) != len(alphabet) or not alphabet:
            raise ValueError("alphabet must be a non-empty set of distinct symbols")
        if any(len(s) != 1 for s in alphabet):
            raise ValueError("category symbols must be single characters")
        if self.head not in alphabet:
            raise ValueError(f"head symbol {self.head!r} not in alphabet")
        if not units or len(set(units)) != len(units):
            raise ValueError("units must be non-empty and distinct")
        canon = sorted(alphabet)
        rows: dict[str, dict[str, Fraction]] = {}
        for order, freqs in self.rows.items():
            if sorted(order) != canon:
                raise ValueError(f"order {order!r} is not a permutation of the alphabet")
            clean: dict[str, Fraction] = {}
            for unit, value in freqs.items():
                if unit not in units:
                    raise ValueError(f"unknown unit {unit!r} in row {order!r}")
                value = Fraction(value)
                if value < 0:
                    raise ValueError(f"negative frequency for {order!r} / {unit!r}")
                clean[unit] = value
            rows[order] = clean
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return len(self.alphabet)

    def frequency(self, order: str, unit: str) -> Fraction:
        if unit not in self.units:
            raise ValueError(f"unknown unit {unit!r}")
        return self.rows.get(order, {}).get(unit, Fraction(0))


_HALF_LOG_TWO_PI = 0.5 * math.log(2 * math.pi)


def _stirlerr(m: int) -> float:
    """Stirling-series error log(m!) - [(m+1/2)log m - m + log sqrt(2 pi)].

    Direct evaluation below m=30 (the cancelling pieces are small enough),
    four series terms beyond (next term < 5e-17 there).
    """
    if m < 30:
        return math.lgamma(m + 1) - ((m + 0.5) * math.log(m) - m + _HALF_LOG_TWO_PI)
    mm = float(m * m)
    return (1 / 12.0 - (1 / 360.0 - (1 / 1260.0 - 1 / (1680.0 * mm)) / mm) / mm) / m


def _binomial_deviance(x: float, mean: float) -> float:
    """x log(x/mean) + mean - x, evaluated without cancellation near x = mean."""
    if abs(x - mean) < 0.1 * (x + mean):
        d = x - mean
        v = d / (x + mean)
        s = d * v
        correction = 2 * x * v
        v_squared = v * v
        j = 1
        while True:
            correction *= v_squared
            updated = s + correction / (2 * j + 1)
            if updated == s:
                return updated
            s = updated
            j += 1
    return x * math.log(x / mean) + mean - x


def binomial_log_pmf(k: int, n: int, p: Real) -> float:
    """log P(X = k) for X ~ Binomial(n, p).

    Saddle-point form (Stirling errors plus deviance terms), so the absolute
    error of the log stays near 1e-13 even for n = 10^4, where a plain
    lgamma-difference loses five digits to cancellation.
    """
    p = float(p)
    if not 0 < p < 1:
        raise ValueError(f"probability must be strictly between 0 and 1, got {p}")
    if not 0 <= k <= n:
        return -math.inf
    if k == 0:
        return n * math.log1p(-p)
    if k == n:
        return n * math.log(p)
    q = 1.0 - p
    exponent = (
        _stirlerr(n)
        - _stirlerr(k)
        - _stirlerr(n - k)
        - _binomial_deviance(k, n * p)
        - _binomial_deviance(n - k, n * q)
    )
    log_scale = math.log(2 * math.pi) + math.log(k) + math.log1p(-k / n)
    return exponent - 0.5 * log_scale


def _validate_counts(successes: Real, trials: Real) -> tuple[int, int]:
    for name, value in (("trials", trials), ("successes", successes)):
        if int(value) != value:
            raise ValueError(f"{name} must be an integer, got {value}")
    successes, trials = int(successes), int(trials)
    if trials < 0 or not 0 <= successes <= trials:
        raise ValueError(f"need 0 <= successes <= trials, got {successes}/{trials}")
    return successes, trials


# A term below this share of the running sum ends a walk; the dropped
# remainder is then far below double rounding of the sum.
_NEGLIGIBLE = 2.0**-60


def _binomial_mode(trials: int, p: float) -> int:
    """floor((trials + 1) p): the pmf rises up to it and falls after it."""
    return min(trials, math.floor((trials + 1) * p))


def _pmf_window(
    trials: int, p: float, anchor: int, lowest: int, share: float
) -> tuple[int, list[float]]:
    """pmf(k) / pmf(anchor) for the k in lowest..trials that carry the mass.

    Walks right from `anchor` with pmf(k+1)/pmf(k) = (n-k)p / ((k+1)q) and
    left down to `lowest` with its inverse, ending each direction at its last
    k or once a term drops below `share` of the running sum. The anchor must
    be a mode of the pmf, or lie at or beyond it with `lowest == anchor`, so
    that terms fall monotonically away from it and none overflows. The step
    ratio r shrinks outward too, so what a direction drops is below
    share * sum * r / (1 - r), r taken where it stopped: about
    share * sum * sqrt(npq) / 9 for share = 2**-60.
    Returns the first k of the window and its terms in increasing k.
    """
    q = 1.0 - p
    right = [1.0]
    term = total = 1.0
    for k in range(anchor, trials):
        term *= (trials - k) * p / ((k + 1) * q)
        if term < share * total:
            break
        right.append(term)
        total += term
    left = []
    term = 1.0
    for k in range(anchor, lowest, -1):
        term *= k * q / ((trials - k + 1) * p)
        if term < share * total:
            break
        left.append(term)
        total += term
    left.reverse()
    return anchor - len(left), left + right


def right_binomial_test(successes: Real, trials: Real, p0: Real) -> float:
    """Exact right-tail P(X >= successes) for X ~ Binomial(trials, p0).

    One saddle-point log-pmf at max(successes, mode) anchors the tail; the
    other terms follow from the pmf ratio recurrence relative to it, so the
    result keeps full relative accuracy however deep the tail, and only
    degrades to zero below the smallest representable float (~1e-308).
    """
    successes, trials = _validate_counts(successes, trials)
    p = float(p0)
    if not 0 < p < 1:
        raise ValueError(f"null probability must be strictly inside (0, 1), got {p0}")
    if successes == 0:
        return 1.0
    anchor = max(successes, _binomial_mode(trials, p))
    _, terms = _pmf_window(trials, p, anchor, successes, _NEGLIGIBLE)
    log_tail = binomial_log_pmf(anchor, trials, p) + math.log(math.fsum(terms))
    return min(1.0, math.exp(log_tail))  # the anchor's rounding can overshoot 1


def quad_binomial_test(
    g: Real, F: Real, p0: Real
) -> tuple[tuple[int, int, float], ...]:
    """Right-tail tests over the four floor/ceil integer transformations.

    Returns (trials, successes, p) for each distinct pair among
    (floor F, floor g), (ceil F, floor g), (floor F, ceil g), (ceil F, ceil g),
    in that order, leaving out pairs with no trial (floor F = 0 when F < 1).
    Integer inputs give a single test. When F and g fall in the same unit
    interval, ceil g can exceed floor F; successes are clamped to trials in
    that degenerate combination.
    """
    if not 0 <= g <= F:
        raise ValueError(f"need 0 <= g <= F, got g={g}, F={F}")
    g_lo, g_hi = math.floor(g), math.ceil(g)
    F_lo, F_hi = math.floor(F), math.ceil(F)
    tails: dict[tuple[int, int], float] = {}
    for trials, successes in ((F_lo, g_lo), (F_hi, g_lo), (F_lo, g_hi), (F_hi, g_hi)):
        successes = min(successes, trials)
        if trials and (trials, successes) not in tails:
            tails[trials, successes] = right_binomial_test(successes, trials, p0)
    return tuple((trials, successes, p) for (trials, successes), p in tails.items())


def binomial_quantile(q: float, trials: int, p: Real) -> int:
    """Smallest x with P(X <= x) >= q for X ~ Binomial(trials, p).

    A 1e-12 relative tie tolerance absorbs float rounding where the true
    cumulative hits q exactly (e.g. the median of a symmetric binomial).
    The cumulative runs over the ratio-recurrence window around the mode,
    normalised by the window's sum; the window drops a mass far below
    1e-12 q on either side, so the decision matches the full sum.
    """
    if not 0 < q < 1:
        raise ValueError(f"quantile level must be in (0, 1), got {q}")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    p = float(p)
    if not 0 <= p <= 1:
        raise ValueError(f"probability must be in [0, 1], got {p}")
    if p == 0.0:
        return 0
    if p == 1.0:
        return trials
    first, terms = _pmf_window(
        trials, p, _binomial_mode(trials, p), 0, _NEGLIGIBLE * q
    )
    cumulative = list(itertools.accumulate(terms))
    index = bisect.bisect_left(cumulative, q * (1.0 - 1e-12) * math.fsum(terms))
    # past the end: round-off kept the running sum a hair below q
    return first + min(index, len(terms) - 1)


def binomial_proportion_ci(
    proportion: float, F: Real, alpha: float = 0.05
) -> tuple[float, float]:
    """Quantile-inversion confidence interval for a binomial proportion.

    With Q the Binomial(F, proportion) quantile function, the interval is
    (Q(alpha/2)/F, Q(1 - alpha/2)/F). A non-integer F is rounded to the
    nearest integer (ties away from zero) first. Degenerate proportions 0 and
    1 return the point interval; any other proportion is refused when F < 1/2
    rounds to 0 trials.
    """
    if not 0 <= proportion <= 1:
        raise ValueError(f"proportion must be in [0, 1], got {proportion}")
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if F <= 0:
        raise ValueError(f"F must be positive, got {F}")
    trials = _round_half_away(F)
    if proportion == 0:
        return (0.0, 0.0)
    if proportion == 1:
        return (1.0, 1.0)
    if trials == 0:
        raise ValueError(
            f"F = {F} rounds to 0 trials, which leaves no confidence interval "
            f"for the proportion {proportion:.6g}; F must be at least 1/2"
        )
    lo = binomial_quantile(alpha / 2, trials, proportion) / trials
    hi = binomial_quantile(1 - alpha / 2, trials, proportion) / trials
    return (lo, hi)


def _round_half_away(x: Real) -> int:
    if isinstance(x, float):
        x = Fraction(x)
    if x < 0:
        return -_round_half_away(-x)
    return math.floor(Fraction(x) + Fraction(1, 2))


def sigma_separation_k(mean_D: float, F: Real, n: int) -> float:
    """Separation of <D> from its null mean, in units of sigma(<D>).

    k = |<D> - (n^2-1)/3| / sqrt(V_n / F), where V_n is the shuffling
    variance of D for the n-word star (:func:`variance_D_star`), e.g. 1 for
    n=4 and 2/9 for n=3.
    """
    if n < 3:
        raise ValueError(f"the sigma-separation statistic needs n >= 3, got {n}")
    if F <= 0:
        raise ValueError(f"total frequency F must be positive, got {F}")
    return math.sqrt(float(F) / float(variance_D_star(n))) * abs(
        mean_D - float(expected_D(n))
    )


def three_sigma_verdict(k: float) -> bool:
    """True iff k >= 3, the (conservative) 3-sigma significance rule."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    return k >= 3


@dataclass(frozen=True)
class HeadPlacementReport:
    """Per-unit analysis bundle for one order-frequency table.

    `transforms` holds the (F, <D>, sigma(<D>), k) row of each integer
    transformation in `p_values` of a fractional unit; it is empty for integer
    units and from n = 5 on, where (F, g) no longer fix <D>.
    """

    unit: str
    n: int
    F: Fraction
    g: Fraction
    proportion: float
    p_values: tuple[tuple[int, int, float], ...]  # (trials, successes, p)
    mean_D: float
    sigma_mean_D: float
    k: float
    three_sigma_significant: bool
    ci_ends: tuple[float, float]
    ci_mid: tuple[float, float]
    transforms: tuple[tuple[Fraction, float, float, float], ...]

    @property
    def null_mean_D(self) -> Fraction:
        return expected_D(self.n)


def _distance_row(
    n: int, F: Fraction, total_D: Real
) -> tuple[Fraction, float, float, float]:
    """(F, <D>, sigma(<D>), k) of F star phrases whose D values sum to total_D."""
    mean_D = float(total_D / F)
    sigma = math.sqrt(float(variance_D_star(n)) / float(F))
    return F, mean_D, sigma, sigma_separation_k(mean_D, F, n)


def analyze(
    table: OrderFrequencyTable,
    alpha: float = 0.05,
    p0: Real | None = None,
) -> list[HeadPlacementReport]:
    """Full head-placement analysis, one report per measurement unit.

    p0 defaults to 2/n, the null probability of a head-end placement. The
    four-way integer-transformation test is always run, so integer units carry
    a single p-value and fractional units up to four, each with its distance
    row for n <= 4. One pass over the rows gives the frequency at each head
    position, and from it F, g and the exact <D>. A unit whose F lies below
    1/2 is refused: it rounds to 0 trials.
    """
    n = table.n
    if n < 3:
        raise ValueError(
            f"head-end test is degenerate for n={n}: "
            "every order puts the head at an end"
        )
    null_p = Fraction(p0) if p0 is not None else Fraction(2, n)
    head_at = [(order.index(table.head), freqs) for order, freqs in table.rows.items()]
    reports = []
    for unit in table.units:
        at = [Fraction(0)] * n  # frequency of the orders with the head at i+1
        for i, freqs in head_at:
            value = freqs.get(unit)
            if value:
                at[i] += value
        F = sum(at)
        if F > _MAX_TOTAL_FREQUENCY:
            raise ValueError(
                f"total frequency of unit {unit!r} exceeds 2**53 = "
                f"{_MAX_TOTAL_FREQUENCY}, the largest count a float holds exactly"
            )
        if float(F) == 0:  # also an F below the smallest float, 5e-324
            raise ValueError(f"zero total frequency for unit {unit!r}")
        if F < Fraction(1, 2):
            # a tiny decimal such as 1e-320 is exact only with hundreds of digits
            shown = F if F.denominator <= 10**6 else f"{float(F):.3g}"
            raise ValueError(
                f"F = {shown} rounds to 0 trials for unit {unit!r}; "
                "a total frequency must be at least 1/2"
            )
        g = at[0] + at[-1]
        p_values = quad_binomial_test(g, F, null_p)
        _, mean_D, sigma, k = _distance_row(
            n, F, sum(f * single_head_D(n, i + 1) for i, f in enumerate(at))
        )
        transforms = ()
        if n <= 4 and (F.denominator > 1 or g.denominator > 1):
            # n <= 4: D takes one value at the ends, one in the middle
            end_D, middle_D = single_head_D(n, 1), single_head_D(n, 2)
            transforms = tuple(
                _distance_row(n, Fraction(T), s * end_D + (T - s) * middle_D)
                for T, s, _ in p_values
            )
        proportion = float(g / F)
        reports.append(
            HeadPlacementReport(
                unit=unit,
                n=n,
                F=F,
                g=g,
                proportion=proportion,
                p_values=p_values,
                mean_D=mean_D,
                sigma_mean_D=sigma,
                k=k,
                three_sigma_significant=three_sigma_verdict(k),
                ci_ends=binomial_proportion_ci(proportion, F, alpha),
                ci_mid=binomial_proportion_ci(1 - proportion, F, alpha),
                transforms=transforms,
            )
        )
    return reports
