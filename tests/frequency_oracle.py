"""F and g summed straight from a table's rows: the oracle for `analyze`.

`analyze` takes F and g from its one pass over the head positions; these
recompute them independently, one order at a time.
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
