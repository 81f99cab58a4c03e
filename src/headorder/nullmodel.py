"""Moments and exact distributions of D under uniform random shuffling.

The null hypothesis: all n! orderings of the sequence are equally likely.
Moments are exact rationals throughout; floats appear only at reporting
boundaries (sigma values). The exact distribution of D comes from a subset
DP over gap cuts, O(2^n * n) big-integer operations; its moments are checked
against the closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

from .trees import FreeTree, degree_second_moment

Real = Union[int, float, Fraction]

# The DP visits 2^n vertex subsets and keeps up to C(n, n/2) polynomials
# alive: n=14 takes ~70 ms, n=16 ~0.5 s and ~20 MB, and each further vertex
# multiplies both by ~2.3.
DP_CEILING = 16


@dataclass(frozen=True)
class DiscreteDistribution:
    """Exact probability mass function over integer values of D."""

    support: tuple[int, ...]
    mass: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        support = tuple(self.support)
        # Tuples are built from lists throughout this class: a tuple built from
        # a generator grows by resizing, which skips CPython's tuple free list
        # on the way in but refills it on release, so a long-lived process
        # would keep up to 2000 dead tuples of every size below 20 resident.
        mass = tuple([Fraction(m) for m in self.mass])
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "mass", mass)
        if not support or len(support) != len(mass):
            raise ValueError("support and mass must be matched, non-empty sequences")
        if any(b <= a for a, b in zip(support, support[1:])):
            raise ValueError("support must be strictly increasing")
        if any(m <= 0 for m in mass):
            raise ValueError("all masses must be positive")
        if sum(mass) != 1:
            raise ValueError("masses must sum exactly to 1")

    @classmethod
    def from_counts(cls, counts: Mapping[int, int]) -> "DiscreteDistribution":
        total = sum(counts.values())
        support = tuple(sorted(v for v, c in counts.items() if c))
        return cls(support, tuple([Fraction(counts[v], total) for v in support]))

    def _power_sums(self) -> tuple[int, int, int]:
        # (sum v*c, sum v^2*c, L), the masses written as c/L over one
        # common denominator L, so the moments need integer sums only
        scale = math.lcm(*[m.denominator for m in self.mass])
        first = second = 0
        for v, m in zip(self.support, self.mass):
            weighted = v * m.numerator * (scale // m.denominator)
            first += weighted
            second += v * weighted
        return first, second, scale

    def mean(self) -> Fraction:
        first, _, scale = self._power_sums()
        return Fraction(first, scale)

    def variance(self) -> Fraction:
        """E[D^2] - E[D]^2, exact."""
        first, second, scale = self._power_sums()
        return Fraction(second * scale - first * first, scale * scale)

    def to_csv(self) -> str:
        """CSV rows of value, exact probability, decimal probability."""
        lines = ["value,probability,probability_decimal"]
        for v, m in zip(self.support, self.mass):
            lines.append(f"{v},{m.numerator}/{m.denominator},{float(m):.12g}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class NullMoments:
    """Mean and variance of D under shuffling; sigma of the F-fold average."""

    mean: Fraction
    variance: Fraction
    sigma_mean_D: float | None = None


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
    k2 = degree_second_moment(tree)
    return Fraction(n + 1, 45) * ((n - 1) ** 2 + (Fraction(n, 4) - 1) * n * k2)


def variance_D_star(n: int) -> Fraction:
    """Variance of D under random shuffling for the star tree on n vertices."""
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    return Fraction((n - 2) * (n - 1) * (n + 1) * (n + 2), 180)


def sigma_mean_D(tree: FreeTree, F: Real) -> float:
    """Standard deviation of the F-instance average of D: sigma(D)/sqrt(F)."""
    if F <= 0:
        raise ValueError(f"instance count F must be positive, got {F}")
    return math.sqrt(float(variance_D(tree)) / float(F))


def null_moments(tree: FreeTree, F: Real | None = None) -> NullMoments:
    sigma = None if F is None else sigma_mean_D(tree, F)
    return NullMoments(expected_D(tree.n), variance_D(tree), sigma)


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
    counts: dict[int, int] = {}
    d = 0
    while poly:
        if poly & digit:
            counts[d] = poly & digit
        poly >>= width
        d += 1
    return DiscreteDistribution.from_counts(counts)


def is_unimodal(dist: DiscreteDistribution) -> bool:
    """True iff the masses rise (weakly) to a single peak, then fall (weakly).

    Plateaus count as unimodal, so a two-point distribution qualifies.
    """
    masses = dist.mass
    i = 0
    while i + 1 < len(masses) and masses[i + 1] >= masses[i]:
        i += 1
    while i + 1 < len(masses) and masses[i + 1] <= masses[i]:
        i += 1
    return i == len(masses) - 1


@dataclass(frozen=True)
class ThreeSigmaAssumptions:
    """Preconditions of the Vysochanskij-Petunin inequality for a distribution.

    A finite support always has a finite variance, so unimodality is the one
    precondition left to check.
    """

    unimodal: bool


def check_three_sigma_assumptions(dist: DiscreteDistribution) -> ThreeSigmaAssumptions:
    """Diagnostic for applying the 3-sigma rule to the supplied distribution."""
    return ThreeSigmaAssumptions(unimodal=is_unimodal(dist))
