"""Published reference values, each column with the rule it is compared under.

A rule is EXACT, SIG_FIGS or an absolute tolerance: proportions, <D> and
sigma to within 1e-3, k to within 1e-2, p-values to two significant figures,
counts exactly.
"""

from __future__ import annotations

import math

EXACT = "exact"
SIG_FIGS = "two significant figures"
PROPORTION_TOL = 1e-3
MEAN_D_TOL = 1e-3
SIGMA_TOL = 1e-3
K_TOL = 1e-2
F_TOL = 1e-9

# Each table's COLUMNS name its columns and its RULES say how each is compared.
# Fractional-unit rows repeat per integer transform; a unit's first row is exact.
TABLE2_COLUMNS = ("unit", "proportion", "counts F", "counts g", "p-value")
TABLE2_RULES = (EXACT, PROPORTION_TOL, EXACT, EXACT, SIG_FIGS)
TABLE2_PUBLISHED: tuple[tuple[str, float, int, int, float], ...] = (
    ("languages", 0.641, 576, 369, 7.3e-12),
    ("genera", 0.596, 322, 192, 3.3e-4),
    ("adjusted", 0.567, 217, 123, 0.029),
    ("adjusted", 0.564, 218, 123, 0.034),
    ("adjusted", 0.571, 217, 124, 0.021),
    ("adjusted", 0.569, 218, 124, 0.025),
)

TABLE3_COLUMNS = ("unit", "F", "D_min", "null mean", "sigma", "<D>", "D_max", "k")
TABLE3_RULES = (EXACT, F_TOL, EXACT, EXACT, SIGMA_TOL, MEAN_D_TOL, EXACT, K_TOL)
TABLE3_PUBLISHED: tuple[tuple[str, float, int, int, float, float, int, float], ...] = (
    ("languages", 576, 4, 5, 0.042, 5.281, 6, 6.75),
    ("genera", 322, 4, 5, 0.056, 5.193, 6, 3.46),
    ("adjusted", 217.4, 4, 5, 0.068, 5.133, 6, 1.97),
    ("adjusted", 217, 4, 5, 0.068, 5.134, 6, 1.97),
    ("adjusted", 218, 4, 5, 0.068, 5.128, 6, 1.9),
    ("adjusted", 217, 4, 5, 0.068, 5.143, 6, 2.1),
    ("adjusted", 218, 4, 5, 0.068, 5.138, 6, 2.03),
)

# published right-tail p-values for the verb-end test on dominant S/O/V orders
SOV_PUBLISHED: dict[str, float] = {"languages": 2.7e-30, "families": 9.2e-37}

# the Fig. 4 hexagon: the node cycle, and the edges joining neighbours on it
RING_NODES_PUBLISHED = ("SOV", "SVO", "VSO", "VOS", "OVS", "OSV")
RING_COLUMNS = ("node cycle", "edges")
RING_RULES = (EXACT, EXACT)


def within(value: float, reference: float, tolerance: float) -> bool:
    return abs(value - reference) <= tolerance


def same_to_sig_figs(value: float, reference: float, figures: int = 2) -> bool:
    """True iff both round to the same `figures`-significant-figure decimal."""
    spec = f".{figures - 1}e"
    return format(value, spec) == format(reference, spec)


def agrees(value, reference, rule) -> bool:
    """True iff `value` matches `reference` under `rule`; tolerances compare floats."""
    if rule is EXACT:
        return value == reference
    if rule is SIG_FIGS:
        return same_to_sig_figs(value, reference)
    return within(float(value), reference, rule)


def within_order_of_magnitude(value: float, reference: float) -> bool:
    """True iff the two positive values differ by at most a factor of ten."""
    if value <= 0 or reference <= 0:
        return False
    return abs(math.log10(value) - math.log10(reference)) <= 1.0
