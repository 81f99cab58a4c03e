"""The public surface of headorder: `__all__` is what a star import binds."""

import inspect

import headorder
from headorder import dataio, nullmodel, rings, stats, trees

# Names removed from the package because no production path called them.
DELETED = {
    trees: (
        "LinearArrangement", "sum_dependency_distances", "DependencyDistanceSummary",
        "single_head_summary", "tree_to_text",
    ),
    stats: (
        "binomial_pmf", "p_head_at_ends", "order_distance_sum", "anti_locality_counts",
        "mean_D_from_g",
    ),
    rings: ("adjacent",),
    # EnumerationCapError: every resource refusal is a plain ValueError
    nullmodel: (
        "DEFAULT_ENUMERATION_CAP", "_mass_sequence", "EnumerationCapError",
    ),
}
DELETED_MEMBERS = {
    trees.FreeTree: ("degree", "is_star"),
    stats.HeadPlacementReport: ("d_min", "d_max"),
    nullmodel.DiscreteDistribution: ("probability", "from_counts", "_power_sums"),
    nullmodel.ThreeSigmaAssumptions: ("satisfied",),
}


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from headorder import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(headorder.__all__)
    assert len(set(headorder.__all__)) == len(headorder.__all__)


def test_every_entry_resolves():
    missing = [name for name in headorder.__all__ if not hasattr(headorder, name)]
    assert missing == []


def test_deleted_names_are_gone():
    for module, names in DELETED.items():
        for name in names:
            assert name not in headorder.__all__
            assert not hasattr(headorder, name), name
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    for cls, members in DELETED_MEMBERS.items():
        for member in members:
            assert not hasattr(cls, member), f"{cls.__name__}.{member}"


def test_one_limit_for_the_exact_distribution():
    parameters = inspect.signature(nullmodel.enumerate_D_distribution).parameters
    assert list(parameters) == ["tree"]


def test_dataio_only_formats_reports():
    # every statistic of a report row, the integer transforms' included, is
    # computed by stats.analyze; dataio reads and formats it
    statistics = {"sigma_mean_D", "mean_D_from_g", "sigma_separation_k", "star"}
    bound = [
        name for name in vars(dataio)
        if name in statistics or name.startswith("variance_D")
    ]
    assert bound == []
