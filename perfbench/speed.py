"""Machine-speed probe that puts every timing on one reference speed.

On a shared host the CPU speed of this benchmark's process drifts by up to
~40% over tens of seconds (other tenants compete for the core), and medians
of raw wall times drift with it from run to run. So every timed call is
bracketed by two runs of a fixed pure-Python loop, outside the timed window,
and its wall time is rescaled by REFERENCE_S / (median of the probes):
the time the call would take on a machine where the probe takes
REFERENCE_S. That reference is the fast state of the shared 2-vCPU virtual
machine the benchmark was calibrated on. The rescaling cancels the drift because the
interpreter-bound program slows down in step with the probe; reports print
the raw wall times beside the rescaled ones. Long calls also get probes
inside them (see worker.py); the median keeps one disturbed probe from
skewing the factor.
"""

import statistics
from time import perf_counter

REFERENCE_S = 400e-6


def probe() -> float:
    """Wall time of a fixed pure-Python loop: dict stores, int and float math."""
    start = perf_counter()
    table, total = {}, 0.0
    for i in range(3000):
        table[i & 63] = (i * i) % 7
        total += (i % 13) * 0.5
    return perf_counter() - start


def at_reference(seconds: float, *probes: float) -> float:
    """`seconds` measured among the given probes, at reference speed."""
    return seconds * REFERENCE_S / statistics.median(probes)
