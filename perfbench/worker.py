"""Benchmark worker: imports the headorder CLI, reports ready, runs requests.

Protocol over stdin/stdout, one JSON object per line. The worker prints
"ready" as soon as `headorder.cli` is imported (the parent times spawn to
ready as set-up), then reads one config line:

  {"mode": "setup"}   exit at once
  {"mode": "run", "workload", "seed", "seconds", "trace", "input_path"}

In a run it answers every request with {"i", "block", "slot", "phase", "s",
"probes", "rc", "out", "err", "error"} and ends with {"done": ...}. Requests
run in-process through `headorder.cli.main(argv)`, one after another; "s"
is the wall time of that call and "probes" the speed probes around and
inside it.
"""

import sys

# Imported first and alone: the parent times spawn-to-ready as the set-up a
# CLI user pays, so nothing the CLI does not need may load before "ready".
import headorder.cli

print("ready " + headorder.cli.__file__, flush=True)

import contextlib
import io
import json
import resource
import signal
import traceback
import warnings
from fractions import Fraction
from time import perf_counter

import speed
import tracing
import workloads

MIN_REQUESTS = 100  # so that at least ten latency samples lie beyond p90
# A request longer than this gets speed probes inside it too, from a timer
# signal: on a shared host the speed can change during a long request. The
# probes' own time is taken off the request's time.
SAMPLE_S = 0.1
_samples: list[float] = []
HARD_CAP_S = 120.0  # stop starting blocks after this, whatever the minimum
SWEEP_REPEATS = 3


def send(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")


def run_request(request: dict, input_path: str) -> dict:
    argv = [input_path if arg == "{input}" else arg for arg in request["argv"]]
    if request["input"] is not None:
        with open(input_path, "w", encoding="utf-8") as handle:
            handle.write(request["input"])
    out, err = io.StringIO(), io.StringIO()
    error = None
    probes = [speed.probe()]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        start = perf_counter()
        try:
            rc = headorder.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash is a failed response, not a failed run
            rc = None
            error = traceback.format_exc(limit=3)
        signal.setitimer(signal.ITIMER_REAL, 0)  # first, so every sample is inside
        elapsed = perf_counter() - start
    inside = _samples[:]
    _samples.clear()
    probes += inside + [speed.probe()]
    return {"s": elapsed - sum(inside), "probes": probes, "rc": rc,
            "out": out.getvalue(), "err": err.getvalue(), "error": error}


def _sample(signum, frame) -> None:
    _samples.append(speed.probe())


def run_blocks(config, phase, blocks=None, tracer=None, budget=None, minimum=0):
    """Run whole blocks; stop after `blocks` blocks, or once `budget` seconds
    have passed and `minimum` requests are done. Returns the blocks run."""
    done = 0
    started = perf_counter()
    index = 0
    while True:
        if blocks is not None and index == blocks:
            break
        if blocks is None and index > 0:
            elapsed = perf_counter() - started
            if (elapsed >= budget and done >= minimum) or elapsed >= HARD_CAP_S:
                break
        requests = workloads.block(config["workload"], config["seed"], index)
        for slot, request in enumerate(requests):
            if tracer is not None:
                tracer.request = done
            response = run_request(request, config["input_path"])
            send(dict(response, i=done, block=index, slot=slot, phase=phase))
            done += 1
        index += 1
    return index


def sweep() -> dict:
    """Timings of single public functions at fixed sizes, outside any workload.

    Each case runs SWEEP_REPEATS times; returns its last value and, per run,
    [seconds, probe before, probe after]."""
    from headorder import dataio, nullmodel, rings, stats, trees

    half = Fraction(1, 2)
    dryer = dataio.builtin_dryer_table()
    cases = {
        "stats.right_tail_ms.F576": lambda: stats.right_binomial_test(369, 576, half),
        "stats.right_tail_ms.F5128": lambda: stats.right_binomial_test(2971, 5128, half),
        "stats.right_tail_ms.F1e5": lambda: stats.right_binomial_test(50500, 100000, half),
        "stats.ci_ms.F576": lambda: stats.binomial_proportion_ci(369 / 576, 576),
        "stats.ci_ms.F5128": lambda: stats.binomial_proportion_ci(2971 / 5128, 5128),
        "stats.ci_ms.F1e5": lambda: stats.binomial_proportion_ci(0.505, 100000),
        "nullmodel.enumerate_ms.star8":
            lambda: _moments(nullmodel.enumerate_D_distribution(trees.star(8))),
        "nullmodel.enumerate_ms.path9":
            lambda: _moments(nullmodel.enumerate_D_distribution(trees.path(9))),
        "rings.build_ms.m4": lambda: [list(e) for e in rings.build_ring("ABCD").edges],
        "rings.build_ms.m5": lambda: [list(e) for e in rings.build_ring("ABCDE").edges],
        "dataio.roundtrip_ms.dryer": lambda: dataio.load_frequency_table(
            dataio.serialize_frequency_table(dryer), dataio.TableSchema(head="n")
        ) == dryer,
    }
    results = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # build_ring warns that m > 3 is no ring
        for name, case in cases.items():
            runs = []
            for _ in range(SWEEP_REPEATS):
                before = speed.probe()
                start = perf_counter()
                value = case()
                runs.append([perf_counter() - start, before, speed.probe()])
            results[name] = {"runs": runs, "value": value}
    return results


def _moments(dist) -> list[str]:
    return [str(sum(dist.mass)), str(dist.mean()), str(dist.variance())]


def main() -> None:
    config = json.loads(sys.stdin.readline())
    if config["mode"] == "setup":
        return
    signal.signal(signal.SIGALRM, _sample)
    if not config["trace"]:
        run_blocks(config, "run", budget=config["seconds"], minimum=MIN_REQUESTS)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        send({"done": True, "rss_kb": rss_kb})
        return
    tracer = tracing.Tracer(sys.modules["headorder"])
    tracer.install()
    try:
        blocks = run_blocks(config, "traced", tracer=tracer, budget=config["seconds"] / 2)
    finally:
        tracer.uninstall()
    run_blocks(config, "untraced", blocks=blocks)
    send({"done": True, "spans": tracer.spans, "sweep": sweep()})


if __name__ == "__main__":
    main()
