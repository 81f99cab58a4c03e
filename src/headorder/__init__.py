"""Head-placement statistics for linearized single-head phrases.

Exact null models of the dependency-distance sum D under random shuffling,
right-tail binomial tests for head-first-or-last placement (with the
four-way integer transformation for fractional frequencies), quantile
confidence intervals, the exact average distance sum <D> for any phrase
length n >= 3 with the 3-sigma separation statistic, and the swap-distance
permutation ring of constituent orders.
"""

from .dataio import (
    TableSchema,
    builtin_dryer_table,
    builtin_sov_aggregates,
    export_plot_data,
    load_frequency_table,
    reports_to_csv,
    reports_to_text,
    serialize_frequency_table,
)
from .nullmodel import (
    DiscreteDistribution,
    enumerate_D_distribution,
    expected_D,
    is_unimodal,
    null_moments,
    sigma_mean_D,
    variance_D,
)
from .rings import PermutationRing, build_ring, ring_layout, swap_distance
from .stats import (
    HeadPlacementReport,
    OrderFrequencyTable,
    TableParseError,
    analyze,
    binomial_proportion_ci,
    binomial_quantile,
    quad_binomial_test,
    right_binomial_test,
)
from .trees import (
    FreeTree,
    parse_tree,
    path,
    single_head_D,
    star,
)

__version__ = "0.1.0"

__all__ = [
    "DiscreteDistribution",
    "FreeTree",
    "HeadPlacementReport",
    "OrderFrequencyTable",
    "PermutationRing",
    "TableParseError",
    "TableSchema",
    "analyze",
    "binomial_proportion_ci",
    "binomial_quantile",
    "build_ring",
    "builtin_dryer_table",
    "builtin_sov_aggregates",
    "enumerate_D_distribution",
    "expected_D",
    "export_plot_data",
    "is_unimodal",
    "load_frequency_table",
    "null_moments",
    "parse_tree",
    "path",
    "quad_binomial_test",
    "reports_to_csv",
    "reports_to_text",
    "right_binomial_test",
    "ring_layout",
    "serialize_frequency_table",
    "sigma_mean_D",
    "single_head_D",
    "star",
    "swap_distance",
    "variance_D",
]
