"""The benchmark tracer (perfbench/tracing.py) patches headorder by name.

`Tracer.install` resolves every (module, function) pair of `SPANNED` with
`getattr` on the package, and also wraps `stats.binomial_log_pmf` and
`rings.swap_distance`. A rename or removal in headorder would break
`perfbench/run.py --trace 1` without any other test noticing.
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
