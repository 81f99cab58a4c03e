"""The public surface of headorder: `__all__` is what a star import binds."""

import importlib
import inspect

import pytest

import headorder
from headorder import cli, dataio, nullmodel, reproduce, rings, stats, trees

# Names removed from the package because no production path called them.
DELETED = {
    trees: (
        "LinearArrangement", "sum_dependency_distances", "DependencyDistanceSummary",
        "single_head_summary", "tree_to_text",
        # single_head_D and variance_D give D_min, D_max and <k^2> already
        "d_min_single_head", "d_max_single_head", "degree_second_moment",
    ),
    stats: (
        "binomial_pmf", "p_head_at_ends", "order_distance_sum", "anti_locality_counts",
        "mean_D_from_g", "sigma_separation_k", "three_sigma_verdict", "_round_half_away",
    ),
    rings: ("adjacent",),
    # EnumerationCapError: every resource refusal is a plain ValueError
    nullmodel: (
        "DEFAULT_ENUMERATION_CAP", "_mass_sequence", "EnumerationCapError",
        "ThreeSigmaAssumptions",
        # variance_D(star(n)) is the star's variance; null_moments returns a tuple
        "variance_D_star", "NullMoments",
    ),
    # the reproduction gate lives in reproduce: agrees applies every rule
    reproduce: ("within", "same_to_sig_figs"),
    cli: ("REPRODUCE_TARGETS", "DRYER_TARGETS", "_reproduce_one"),
    # each report block's header, titles and cells are one dataio.Block
    dataio: (
        "HEAD_END_TEST_HEADER", "DISTANCE_HEADER", "CI_HEADER", "HEAD_END_TEST_TITLES",
        "DISTANCE_TITLES", "head_end_test_cells", "distance_cells", "render_block",
    ),
}
DELETED_MEMBERS = {
    trees.FreeTree: ("degree", "is_star", "head"),
    rings.PermutationRing: ("symbols",),
    stats.HeadPlacementReport: ("d_min", "d_max", "ci_ends", "ci_mid"),
    nullmodel.DiscreteDistribution: ("probability", "from_counts", "_power_sums"),
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
            assert member not in cls._fields, member
    # kept in nullmodel only as an alias of is_unimodal for the benchmark tracer
    assert "check_three_sigma_assumptions" not in headorder.__all__


def test_published_module_is_gone():
    # its values, rules and comparisons moved into headorder.reproduce
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("headorder.published")


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


def test_reproduce_formats_through_blocks():
    # reproduce renders through dataio's blocks and binds no formatter of its own
    formatters = [
        name for name in vars(reproduce)
        if name in ("format_p_value", "render_block")
        or name.endswith(("_cells", "_TITLES"))
    ]
    assert formatters == []
    assert isinstance(reproduce.SOV_FOOTNOTE, dataio.Block)


def test_no_parameter_that_no_caller_sets():
    assert list(inspect.signature(trees.star).parameters) == ["n"]
    assert list(inspect.signature(reproduce.dryer_reports).parameters) == []
    assert list(inspect.signature(reproduce.sov_ring).parameters) == []


RECORDS = (
    trees.FreeTree, nullmodel.DiscreteDistribution, stats.OrderFrequencyTable,
    stats.HeadPlacementReport, rings.PermutationRing, dataio.Block, dataio.TableSchema,
)


def test_records_are_tuples_without_instance_dicts():
    for cls in RECORDS:
        assert issubclass(cls, tuple) and cls.__slots__ == (), cls.__name__
    assert trees.FreeTree(2, [(2, 1)]) == (2, frozenset({(1, 2)}))
    assert dataio.TableSchema("n") == ("n", False)


@pytest.mark.parametrize(
    "record, field, bad, error, message",
    [
        (trees.FreeTree(3, {(1, 2), (2, 3)}), "n", 0, ValueError, "vertex count must be >= 1"),
        (trees.FreeTree(3, {(1, 2), (2, 3)}), "edges", {(1, 2)}, ValueError, "needs 2 edges"),
        (
            nullmodel.DiscreteDistribution([0, 1], [1, 1]), "counts", [1, 0], ValueError,
            "positive integers",
        ),
        (
            stats.OrderFrequencyTable("nA", "n", ("u",), {}), "head", "x", stats.TableParseError,
            "head symbol 'x'",
        ),
    ],
    ids=["tree-n", "tree-edges", "distribution", "table"],
)
def test_checked_records_check_every_copy(record, field, bad, error, message):
    # a namedtuple's own _make, and _replace through it, would skip __new__
    cls = type(record)
    fields = {**record._asdict(), field: bad}
    with pytest.raises(error, match=message):
        cls(**fields)
    with pytest.raises(error, match=message):
        cls._make(fields.values())
    with pytest.raises(error, match=message):
        record._replace(**{field: bad})
    with pytest.raises(AttributeError):
        setattr(record, field, bad)
    assert cls._make(record) == record._replace() == record
