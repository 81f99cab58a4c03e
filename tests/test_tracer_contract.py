"""The benchmark tracer (perfbench/tracing.py) patches headorder by name.

`Tracer.install` resolves every (module, function) pair of `SPANNED` with
`getattr` on the package, and also wraps `stats.binomial_log_pmf` and
`rings.swap_distance`. A rename or removal in headorder would break
`perfbench/run.py --trace 1` without any other test noticing. One test runs
the tracer over two requests, as `--trace 1` does, without starting perfbench.
"""

import importlib.util
from pathlib import Path

import headorder
import headorder.cli  # noqa: F401  (binds headorder.cli and headorder.reproduce)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_spanned_function_resolves():
    tracing = load_tracing()
    missing = [
        f"{module}.{function}"
        for module, functions in tracing.SPANNED.items()
        for function in functions
        if not callable(getattr(getattr(headorder, module, None), function, None))
    ]
    assert missing == []


def test_counted_inner_functions_resolve():
    assert callable(headorder.stats.binomial_log_pmf)
    assert callable(headorder.rings.swap_distance)


def test_tracer_spans_a_run_and_restores_every_attribute(capsys):
    tracing = load_tracing()
    modules = [headorder] + [
        module for module in vars(headorder).values()
        if getattr(module, "__name__", "").startswith("headorder.")
    ]
    before = {
        (module, attr): value for module in modules for attr, value in vars(module).items()
    }
    tracer = tracing.Tracer(headorder)
    tracer.install()
    try:
        assert headorder.cli.main is not before[headorder.cli, "main"]
        # the patched attribute, as perfbench's worker calls it
        assert headorder.cli.main(["null-model", "--tree", "star:5", "--distribution"]) == 0
        # fig2 prints the intervals, so it reaches binomial_quantile; table2 does not
        assert headorder.cli.main(["reproduce", "fig2"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    names = {span[0] for span in tracer.spans}
    for name in (
        "nullmodel.is_unimodal", "nullmodel.enumerate_D_distribution", "stats.analyze",
        "stats.binomial_quantile",
    ):
        assert name in names
    changed = [
        f"{module.__name__}.{attr}" for (module, attr), value in before.items()
        if getattr(module, attr) is not value
    ]
    assert changed == []
