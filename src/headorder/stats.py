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
actually reported. `analyze` sums each unit in integers over one common
denominator, scale, the lcm of the denominators of its nonzero cells:
T = scale F, scale g and S = scale sum D*f are integers, <D> = S / T is one
int/int division, and k >= 3 is decided as the integer inequality
(3S - (n^2-1) T)^2 * V_n.denominator >= 81 * V_n.numerator * T * scale.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import namedtuple
from fractions import Fraction
from typing import Union

from .messages import clip
from .nullmodel import expected_D, variance_D
from .trees import single_head_D, star

Real = Union[int, float, Fraction]

# analyze refuses a larger unit F before any pmf walk. Its intervals walk O(sqrt F)
# terms: one balanced unit takes ~0.5 s at 10**9, ~2 s at 10**10, ~35 min at 2**53.
MAX_TOTAL_FREQUENCY = 10**9


class TableParseError(ValueError):
    """An order-frequency table broke one of its rules.

    `line` is the 1-based line of the CSV text at fault (None for a table
    built directly); `order` names the row at fault, if a row is.
    """

    def __init__(self, line: int | None, message: str, order: str | None = None):
        self.line = line
        self.order = order
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


class OrderFrequencyTable(namedtuple("OrderFrequencyTable", "alphabet head units rows")):
    """Frequencies of the n! orders of an n-symbol phrase, per measurement unit.

    Symbols are single characters so that an order is a plain string (e.g.
    ``"nAND"``); order strings are case-sensitive. Orders absent from `rows`
    count as frequency zero. The alphabet is a set; it is stored sorted so
    that tables built from differently-ordered alphabets compare equal.
    Construction, and `_make` and `_replace` through it, check every rule of
    a table and raise :class:`TableParseError` for the first one broken.
    """

    __slots__ = ()

    def __new__(cls, alphabet, head: str, units, rows) -> OrderFrequencyTable:
        alphabet = tuple(sorted(alphabet))
        units = tuple(units)
        symbols, canon = "".join(alphabet), list(alphabet)
        # distinct single characters: their characters, sorted, are the alphabet
        if not canon or sorted(set(symbols)) != canon:
            message = "must be a non-empty set of single characters"
            raise TableParseError(None, f"alphabet {clip(repr(alphabet))} {message}")
        if head not in alphabet:
            message = f"head symbol {clip(repr(head))} not in alphabet {clip(repr(symbols))}"
            raise TableParseError(None, message)
        if not units or not all(units) or len(set(units)) != len(units):
            message = f"units must be non-empty and distinct, got {clip(repr(units))}"
            raise TableParseError(None, message)
        clean_rows: dict[str, dict[str, Fraction]] = {}
        for order, freqs in rows.items():
            if sorted(order) != canon:
                message = f"order {clip(repr(order))} is not a permutation"
                raise TableParseError(None, f"{message} of {clip(repr(symbols))}", order)
            clean: dict[str, Fraction] = {}
            for unit, value in freqs.items():
                if unit not in units:
                    message = f"unknown unit {clip(repr(unit))} in row {clip(repr(order))}"
                    raise TableParseError(None, message, order)
                if type(value) is not Fraction:
                    if isinstance(value, str):
                        message = f"frequency {clip(repr(value))} of {clip(repr(order))} is text,"
                        message += " not a finite number; read text with dataio.parse_exact"
                        raise TableParseError(None, message, order)
                    try:
                        value = Fraction(value)
                    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
                        message = f"frequency {clip(repr(value))} of {clip(repr(order))}"
                        message += " is not a finite number"
                        raise TableParseError(None, message, order) from None
                if value.numerator < 0:
                    message = f"negative frequency {clip(str(value))} for {clip(repr(order))}"
                    raise TableParseError(None, f"{message} / {clip(repr(unit))}", order)
                clean[unit] = value
            clean_rows[order] = clean
        return super().__new__(cls, alphabet, head, units, clean_rows)

    @classmethod
    def _make(cls, iterable) -> OrderFrequencyTable:
        return cls(*iterable)

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


def check_alpha(alpha: float, name: str = "alpha") -> None:
    """Refuse an alpha outside (0, 1) or so small that 1 - alpha/2 rounds to 1.0."""
    if not (0 < alpha < 1 and 1 - alpha / 2 < 1.0):
        raise ValueError(f"{name} must lie in (0, 1) with 1 - alpha/2 < 1 as a float, got {alpha}")


def _check_finite(F: Real) -> None:
    # an exact F is finite by construction; a float F may be nan or inf
    if isinstance(F, float) and not math.isfinite(F):
        raise ValueError(f"F must be a finite number, got {F}")


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
    that degenerate combination. A float F that is nan or infinite is refused.
    """
    _check_finite(F)
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
    rounds to 0 trials. alpha must lie in (0, 1) with 1 - alpha/2 < 1 as a
    float: below ~2**-53 the upper level rounds to 1, which has no quantile.
    A float F that is nan or infinite is refused.
    """
    if not 0 <= proportion <= 1:
        raise ValueError(f"proportion must be in [0, 1], got {proportion}")
    check_alpha(alpha)
    _check_finite(F)
    if F <= 0:
        raise ValueError(f"F must be positive, got {F}")
    trials = math.floor(Fraction(F) + Fraction(1, 2))
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


class HeadPlacementReport(
    namedtuple(
        "HeadPlacementReport",
        "unit n F g proportion p_values mean_D sigma_mean_D k three_sigma_significant"
        " alpha transforms",
    )
):
    """Per-unit analysis bundle for one order-frequency table.

    `transforms` holds the (F, <D>, sigma(<D>), k) row of each integer
    transformation in `p_values` of a fractional unit; it is empty for integer
    units and from n = 5 on, where (F, g) no longer fix <D>.
    """

    __slots__ = ()

    @property
    def null_mean_D(self) -> Fraction:
        return expected_D(self.n)


def _distance_row(
    mu: float, variance: float, total: int, total_D: int, scale: int
) -> tuple[float, float, float]:
    """(<D>, sigma(<D>), k) of F = total/scale star phrases whose D values sum
    to total_D/scale.

    The unit's frequencies are integer numerators over one common
    denominator, scale, so <D> = total_D / total rounds once, as
    float(Fraction) does. mu = (n^2-1)/3 and variance = V_n are the shuffling
    mean and variance of D for the n-word star, e.g. V_n = 1 for n=4 and 2/9
    for n=3. Then sigma(<D>) = sqrt(V_n / F), and the 3-sigma rule compares
    k = |<D> - mu| / sigma(<D>) with 3; `analyze` decides it on the integers,
    not on this float k.
    """
    mean_D = total_D / total
    F = total / scale
    sigma = math.sqrt(variance / F)
    k = math.sqrt(F / variance) * abs(mean_D - mu)
    return mean_D, sigma, k


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
    position, in integers over the lcm of the unit's denominators, and from
    it F, g and the exact <D>. A unit whose F lies below 1/2 is refused: it
    rounds to 0 trials. A bad alpha is refused up front.
    """
    check_alpha(alpha)
    n = table.n
    if n < 3:
        raise ValueError(
            f"head-end test is degenerate for n={n}: "
            "every order puts the head at an end"
        )
    null_p = Fraction(p0) if p0 is not None else Fraction(2, n)
    null_variance = variance_D(star(n))
    mu, variance = float(expected_D(n)), float(null_variance)
    head_at = [(order.index(table.head), freqs) for order, freqs in table.rows.items()]
    D_at = [single_head_D(n, i + 1) for i in range(n)]
    reports = []
    for unit in table.units:
        cells = [(i, value) for i, freqs in head_at if (value := freqs.get(unit))]
        # every cell times scale is an integer: frequencies are numerators over scale
        scale = math.lcm(*(value.denominator for _, value in cells))
        at = [0] * n  # scale times the frequency of the orders with the head at i+1
        for i, value in cells:
            at[i] += value.numerator * (scale // value.denominator)
        total = sum(at)
        if total > MAX_TOTAL_FREQUENCY * scale:
            raise ValueError(
                f"total frequency of unit {unit!r} is above the limit of "
                f"{MAX_TOTAL_FREQUENCY:,}: its intervals walk O(sqrt F) pmf terms"
            )
        if total / scale == 0:  # also an F below the smallest float, 5e-324
            raise ValueError(f"zero total frequency for unit {unit!r}")
        F = Fraction(total, scale)
        if 2 * total < scale:
            # a tiny decimal such as 1e-320 is exact only with hundreds of digits
            shown = F if F.denominator <= 10**6 else f"{float(F):.3g}"
            raise ValueError(
                f"F = {shown} rounds to 0 trials for unit {unit!r}; "
                "a total frequency must be at least 1/2"
            )
        ends = at[0] + at[-1]
        g = Fraction(ends, scale)
        p_values = quad_binomial_test(g, F, null_p)
        total_D = sum(f * D for f, D in zip(at, D_at))
        mean_D, sigma, k = _distance_row(mu, variance, total, total_D, scale)
        transforms = ()
        if n <= 4 and (F.denominator > 1 or g.denominator > 1):
            # n <= 4: D takes one value at the ends, one in the middle
            end_D, middle_D = D_at[0], D_at[1]
            transforms = tuple(
                (Fraction(T), *_distance_row(mu, variance, T, s * end_D + (T - s) * middle_D, 1))
                for T, s, _ in p_values
            )
        # k >= 3 in exact arithmetic: F (<D> - mu)^2 >= 9 V_n. With T = scale F
        # and S = scale sum D*f, times 9 T scale: (3S - (n^2-1) T)^2 >= 81 V_n T scale
        deviation = 3 * total_D - (n * n - 1) * total
        significant = (
            deviation * deviation * null_variance.denominator
            >= 81 * null_variance.numerator * total * scale
        )
        reports.append(
            HeadPlacementReport(
                unit=unit,
                n=n,
                F=F,
                g=g,
                proportion=ends / total,
                p_values=p_values,
                mean_D=mean_D,
                sigma_mean_D=sigma,
                k=k,
                three_sigma_significant=significant,
                alpha=alpha,
                transforms=transforms,
            )
        )
    return reports
