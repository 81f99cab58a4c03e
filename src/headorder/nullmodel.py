"""Moments and exact distributions of D under uniform random shuffling.

The null hypothesis: all n! orderings of the sequence are equally likely.
Moments are exact rationals throughout; floats appear only at reporting
boundaries (sigma values). The exact distribution of D comes from a subset
DP over gap cuts, O(2^n * n) big-integer operations; its moments are checked
against the closed forms.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import Union

from .trees import FreeTree

Real = Union[int, float, Fraction]

# The DP visits 2^n vertex subsets and keeps up to C(n, n/2) polynomials
# alive: n=14 takes ~70 ms, n=16 ~0.5 s and ~20 MB, and each further vertex
# multiplies both by ~2.3.
DP_CEILING = 16


class DiscreteDistribution(namedtuple("DiscreteDistribution", "support counts")):
    """Exact distribution over integer values of D, held as integer counts.

    Value ``support[i]`` occurs in ``counts[i]`` of ``total`` equally likely
    arrangements (n! of them for a tree on n vertices). Construction, and
    `_make` and `_replace` through it, check both.
    """

    __slots__ = ()

    def __new__(cls, support, counts) -> DiscreteDistribution:
        # Tuples are built from lists throughout this class: a tuple built from
        # a generator grows by resizing, which skips CPython's tuple free list
        # on the way in but refills it on release, so a long-lived process
        # would keep up to 2000 dead tuples of every size below 20 resident.
        support = tuple(support)
        counts = tuple(counts)
        if not support or len(support) != len(counts):
            raise ValueError("support and counts must be matched, non-empty sequences")
        if any(b <= a for a, b in zip(support, support[1:])):
            raise ValueError("support must be strictly increasing")
        if any(type(c) is not int or c <= 0 for c in counts):
            raise ValueError("all counts must be positive integers")
        return super().__new__(cls, support, counts)

    @classmethod
    def _make(cls, iterable) -> DiscreteDistribution:
        return cls(*iterable)

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def mass(self) -> tuple[Fraction, ...]:
        total = self.total
        return tuple([Fraction(c, total) for c in self.counts])

    def mean(self) -> Fraction:
        first = sum([v * c for v, c in zip(self.support, self.counts)])
        return Fraction(first, self.total)

    def variance(self) -> Fraction:
        """E[D^2] - E[D]^2, exact."""
        first = second = 0
        for v, c in zip(self.support, self.counts):
            first += v * c
            second += v * v * c
        total = self.total
        return Fraction(second * total - first * first, total * total)

    def to_csv(self) -> str:
        """CSV rows of value, exact probability, decimal probability."""
        lines = ["value,probability,probability_decimal"]
        total = self.total
        for v, c in zip(self.support, self.counts):
            m = Fraction(c, total)
            lines.append(f"{v},{m.numerator}/{m.denominator},{float(m):.12g}")
        return "\n".join(lines) + "\n"


def expected_D(n: int) -> Fraction:
    """Mean of D under random shuffling: (n^2 - 1)/3, for any tree on n vertices."""
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    return Fraction(n * n - 1, 3)


def variance_D(tree: FreeTree) -> Fraction:
    """Variance of D under random shuffling, exact for an arbitrary tree.

    V(D) = ((n+1)/45) * [(n-1)^2 + (n/4 - 1) * n * <k^2>], where <k^2> is the
    second moment of degree about zero. The degree term vanishes at n = 4, so
    every 4-vertex tree has V(D) = 1.
    """
    n = tree.n
    k2 = Fraction(sum(d * d for d in tree.degrees), n)
    return Fraction(n + 1, 45) * ((n - 1) ** 2 + (Fraction(n, 4) - 1) * n * k2)


def sigma_mean_D(tree: FreeTree, F: Real) -> float:
    """Standard deviation of the F-instance average of D: sigma(D)/sqrt(F)."""
    if isinstance(F, float) and not math.isfinite(F):
        raise ValueError(f"instance count F must be a finite number, got {F}")
    if F <= 0:
        raise ValueError(f"instance count F must be positive, got {F}")
    sigma = math.sqrt(float(variance_D(tree)) / float(F))
    if math.isinf(sigma):
        raise ValueError(f"sigma(<D>) at F = {F} overflows a float")
    return sigma


def null_moments(
    tree: FreeTree, F: Real | None = None
) -> tuple[Fraction, Fraction, float | None]:
    """(mean, variance) of D under shuffling, and sigma(<D>) at F (None without F)."""
    sigma = None if F is None else sigma_mean_D(tree, F)
    return expected_D(tree.n), variance_D(tree), sigma


def enumerate_D_distribution(tree: FreeTree) -> DiscreteDistribution:
    """Exact pmf of D over all n! arrangements of the tree's vertices.

    An arrangement is a chain of vertex sets S_1 < ... < S_n, S_k holding the
    vertices in positions 1..k, and D is the sum of the cuts |edges(S_k, V-S_k)|
    over the gaps. A DP over subsets keeps, per S, the generating polynomial
    in D of the orderings of S, packed into one int with `width` bits per
    coefficient; adding vertex v shifts it by cut(S + v) = cut(S) + deg v
    - 2|N(v) & S|. Cost is O(2^n * n) big-int operations, so it refuses above
    DP_CEILING rather than sampling, since its whole point is exactness.
    """
    n = tree.n
    if n > DP_CEILING:
        raise ValueError(
            f"the exact distribution for n={n} would visit 2**{n} = {2**n:,} "
            f"vertex subsets, above the limit of n <= {DP_CEILING}"
        )
    neighbours = [0] * n
    for u, v in tree.edges:
        neighbours[u - 1] |= 1 << (v - 1)
        neighbours[v - 1] |= 1 << (u - 1)
    degrees = [mask.bit_count() for mask in neighbours]
    width = math.factorial(n).bit_length() + 1  # a count never exceeds n!
    cuts = {0: 0}
    layer = {0: 1}  # one popcount layer of S -> polynomial in D
    for _ in range(n):
        sums: dict[int, int] = {}
        next_cuts: dict[int, int] = {}
        for mask, poly in layer.items():
            cut = cuts[mask]
            for v in range(n):
                bit = 1 << v
                if mask & bit:
                    continue
                grown = mask | bit
                if grown in sums:
                    sums[grown] += poly
                else:
                    sums[grown] = poly
                    next_cuts[grown] = (
                        cut + degrees[v] - 2 * (neighbours[v] & mask).bit_count()
                    )
        layer = {mask: poly << width * next_cuts[mask] for mask, poly in sums.items()}
        cuts = next_cuts
    (poly,) = layer.values()
    digit = (1 << width) - 1
    support: list[int] = []
    counts: list[int] = []
    d = 0
    while poly:
        if poly & digit:
            support.append(d)
            counts.append(poly & digit)
        poly >>= width
        d += 1
    return DiscreteDistribution(support, counts)


def is_unimodal(dist: DiscreteDistribution) -> bool:
    """True iff the masses rise (weakly) to a single peak, then fall (weakly).

    Plateaus count as unimodal, so a two-point distribution qualifies. The
    counts share one denominator, so comparing them compares the masses.
    A finite support has a finite variance, so unimodality is the one
    precondition of the 3-sigma rule (Vysochanskij-Petunin) left to check.
    """
    counts = dist.counts
    i = 0
    while i + 1 < len(counts) and counts[i + 1] >= counts[i]:
        i += 1
    while i + 1 < len(counts) and counts[i + 1] <= counts[i]:
        i += 1
    return i == len(counts) - 1


# perfbench/tracing.py resolves this name; it goes when the tracer drops it
check_three_sigma_assumptions = is_unimodal
