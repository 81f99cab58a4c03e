"""Direct recomputations from a table's rows: the oracles for `analyze`.

`analyze` takes F, g and <D> from its one pass over the head positions, and
<D> through the closed form `single_head_D`; these recompute them
independently, one order at a time, or <D> from (F, g) for n = 3 and 4.
"""

from fractions import Fraction

from headorder.stats import OrderFrequencyTable


def total_frequency(table: OrderFrequencyTable, unit: str) -> Fraction:
    """F: the summed frequency over all orders, in the given unit."""
    if unit not in table.units:
        raise ValueError(f"unknown unit {unit!r}")
    return sum((freqs.get(unit, Fraction(0)) for freqs in table.rows.values()), Fraction(0))


def head_end_frequency(table: OrderFrequencyTable, unit: str) -> Fraction:
    """g: the summed frequency of orders whose head is first or last."""
    if unit not in table.units:
        raise ValueError(f"unknown unit {unit!r}")
    total = Fraction(0)
    for order, freqs in table.rows.items():
        if order[0] == table.head or order[-1] == table.head:
            total += freqs.get(unit, Fraction(0))
    return total


def order_distance_sum(order, head) -> int:
    """D of a single-head order: the gaps from the head to every other word."""
    return sum(abs(j - order.index(head)) for j in range(len(order)))


def anti_locality_counts(table: OrderFrequencyTable, unit: str) -> tuple[Fraction, Fraction]:
    """(f_plus, f_minus): frequency of orders with D above / below (n^2 - 1)/3.

    For star phrases f_plus is the head-end frequency g, which makes the
    anti-locality test and the head-end test the same binomial test.
    """
    null_mean = Fraction(table.n**2 - 1, 3)
    f_plus = f_minus = Fraction(0)
    for order, freqs in table.rows.items():
        d = order_distance_sum(order, table.head)
        if d > null_mean:
            f_plus += freqs.get(unit, Fraction(0))
        elif d < null_mean:
            f_minus += freqs.get(unit, Fraction(0))
    return f_plus, f_minus


def mean_D_from_g(n: int, g, F) -> float:
    """<D> from (F, g) alone, for 3- or 4-word star phrases.

    With D two-valued ({2,3} resp. {4,6}), the frequency-weighted average is
    [D_min (F - g) + D_max g] / F, i.e. 2 + g/F for n=3 and 4 + 2 g/F for n=4.
    From n=5 on D takes more values and (F, g) no longer fix <D>; `analyze`
    computes <D> from the head positions for every n.
    """
    if n not in (3, 4):
        raise ValueError(
            "the head-end bridge to <D> is only defined for 3- or 4-word phrases"
        )
    if F <= 0:
        raise ValueError(f"total frequency F must be positive, got {F}")
    if not 0 <= g <= F:
        raise ValueError(f"head-end frequency g={g} outside 0..F={F}")
    if isinstance(g, (int, Fraction)) and isinstance(F, (int, Fraction)):
        ratio = Fraction(g, 1) / Fraction(F, 1)
    else:
        ratio = float(g) / float(F)
    if n == 3:
        return float(2 + ratio)
    return float(4 + 2 * ratio)
