"""headorder benchmark: the CLI driven in-process by a closed loop of one client.

Run from the root of a headorder checkout:

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 30 --trace 0

Each run spawns fresh workers (see worker.py) that import `headorder.cli`
from ./src and call `headorder.cli.main(argv)` for a seeded request stream
(see workloads.py), one request at a time. Every response is checked (see
verify.py) after the timed loop. With --trace 0 the last stdout line is a
JSON object with the end-to-end metrics named in BENCHMARK.json; with
--trace 1 it holds the per-layer metrics of a traced run (see tracing.py).
`--workload all` runs every workload and prefixes each metric with its
workload name.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import speed
import tracing
import verify
import workloads

HERE = Path(__file__).resolve().parent
# set-up samples per run besides the main worker's own spawn: half before the
# main worker, half after it, so one slow patch of the machine weighs less
SETUP_SPAWNS = 6
WORKER_TIMEOUT_S = 170
DIGEST_REQUESTS = 100


class BenchError(Exception):
    pass


class Worker:
    """A spawned worker process. `setup_wall_s` is spawn-to-ready wall time,
    `setup_s` the same at reference speed."""

    def __init__(self, root: Path):
        # no bytecode caches: set-up always includes compiling the package,
        # whatever the environment, and runs leave nothing under src/
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0",
                   PYTHONDONTWRITEBYTECODE="1")
        before = speed.probe()
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")],
            cwd=root, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        self.timer = threading.Timer(WORKER_TIMEOUT_S, self.proc.kill)
        self.timer.start()
        ready = self.proc.stdout.readline()
        self.setup_wall_s = time.perf_counter() - start
        self.setup_s = speed.at_reference(self.setup_wall_s, before, speed.probe())
        if not ready.startswith("ready "):
            self.close()
            raise BenchError("worker could not import headorder.cli from ./src")
        source = Path(ready[len("ready "):].strip()).resolve()
        if root / "src" not in source.parents:
            self.close()
            raise BenchError(f"worker imported headorder from {source}, not ./src")

    def run(self, config: dict) -> tuple[list[dict], dict | None]:
        """Send the config; collect responses until the worker exits."""
        try:
            self.proc.stdin.write(json.dumps(config) + "\n")
            self.proc.stdin.close()
            responses, done = [], None
            for line in self.proc.stdout:
                message = json.loads(line)
                if message.get("done"):
                    done = message
                else:
                    responses.append(message)
        finally:
            self.close()
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with code {self.proc.returncode}")
        return responses, done

    def close(self) -> None:
        self.timer.cancel()
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        if not self.proc.stdin.closed:
            self.proc.stdin.close()


def run_workload(root: Path, goldens: dict, workload: str, seed: int, seconds: int,
                 trace: bool) -> dict:
    digest = workloads.stream_digest(workload, seed, DIGEST_REQUESTS)
    if digest != workloads.stream_digest(workload, seed, DIGEST_REQUESTS):
        raise BenchError("request generator is not deterministic")
    setup, setup_wall = [], []

    def time_setup(spawns):
        for _ in range(spawns):
            worker = Worker(root)
            worker.run({"mode": "setup"})
            setup.append(worker.setup_s)
            setup_wall.append(worker.setup_wall_s)

    Worker(root).run({"mode": "setup"})  # unmeasured: warms the file cache
    time_setup(SETUP_SPAWNS // 2)
    workdir = HERE / "work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        worker = Worker(root)
        setup.append(worker.setup_s)
        setup_wall.append(worker.setup_wall_s)
        responses, done = worker.run({
            "mode": "run", "workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "input_path": os.path.relpath(workdir / "input.csv", root),
        })
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if done is None:
        raise BenchError("worker ended without a result")
    time_setup(SETUP_SPAWNS - SETUP_SPAWNS // 2)

    blocks: dict[int, list[dict]] = {}

    def request_of(response):
        index = response["block"]
        if index not in blocks:
            blocks[index] = workloads.block(workload, seed, index)
        return blocks[index][response["slot"]]

    failures = []
    first_good: dict[str, tuple[dict, dict]] = {}
    for response in responses:
        request = request_of(response)
        reason = verify.check(request, response, goldens)
        if reason:
            failures.append(f"{response['phase']} #{response['i']} {request['kind']}: {reason}")
        else:
            first_good.setdefault(request["kind"], (request, response))
    damaged = rejected = 0
    for request, response in first_good.values():
        for bad in verify.corruptions(response):
            damaged += 1
            rejected += verify.check(request, bad, goldens) is not None
    result = {
        "workload": workload,
        "digest": digest,
        "attempted": len(responses),
        "failed": len(failures),
        "failures": failures,
        "self_check": (rejected, damaged),
        "correct": not failures and rejected == damaged and damaged > 0,
    }
    if not trace:
        latencies = [reference_ms(r) for r in responses]
        wall = [r["s"] * 1e3 for r in responses]
        result["metrics"] = {
            "setup_s": statistics.median(setup),
            "throughput_rps": len(responses) / (sum(latencies) / 1e3),
            "latency_p50_ms": statistics.median(latencies),
            "latency_p90_ms": statistics.quantiles(latencies, n=10)[8],
            "peak_rss_mb": done["rss_kb"] / 1024,
            "ok_fraction": 1 - len(failures) / len(responses),
        }
        result["failed_fraction"] = len(failures) / len(responses)
        result["wall"] = {
            "setup_s": statistics.median(setup_wall),
            "throughput_rps": len(responses) / (sum(wall) / 1e3),
            "latency_p50_ms": statistics.median(wall),
            "latency_p90_ms": statistics.quantiles(wall, n=10)[8],
            "probe_us": statistics.median(p * 1e6 for r in responses for p in r["probes"]),
        }
        return result

    traced = [r for r in responses if r["phase"] == "traced"]
    untraced = [r for r in responses if r["phase"] == "untraced"]
    kinds = {r["i"]: request_of(r)["kind"] for r in traced}
    scale = {r["i"]: reference_ms(r) / (r["s"] * 1e3) for r in traced}
    metrics, by_kind = tracing.layer_metrics(done["spans"], kinds, scale)
    reproduce_all = by_kind.get("reproduce all", {})
    for key in ("reproduce.dryer_reports.calls", "reproduce.sov_footnote_rows.calls",
                "stats.log_pmf.calls"):
        metrics["reproduce.all." + key.split(".", 1)[1]] = reproduce_all.get(key, 0.0)
    sweep_problems = check_sweep(done["sweep"])
    result["failures"] += sweep_problems
    result["correct"] = result["correct"] and not sweep_problems
    for name, measured in done["sweep"].items():
        metrics[name] = statistics.median(
            speed.at_reference(*run) * 1e3 for run in measured["runs"]
        )
    traced_rps = len(traced) / (sum(map(reference_ms, traced)) / 1e3)
    untraced_rps = len(untraced) / (sum(map(reference_ms, untraced)) / 1e3)
    metrics["trace.throughput_rps"] = traced_rps
    metrics["trace.untraced_throughput_rps"] = untraced_rps
    metrics["trace.overhead_ratio"] = untraced_rps / traced_rps
    result["metrics"] = metrics
    result["by_kind"] = by_kind
    spans_path = HERE / "out" / f"spans-{workload}-seed{seed}.jsonl"
    spans_path.parent.mkdir(exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as handle:
        for index, (name, start, end, parent, request, counts) in enumerate(done["spans"]):
            handle.write(json.dumps({
                "id": index, "name": name, "start": start, "end": end, "parent": parent,
                "request": request, "kind": kinds[request], "counts": counts,
            }) + "\n")
    result["spans_path"] = os.path.relpath(spans_path, root)
    return result


def reference_ms(response: dict) -> float:
    """A response's wall time in ms, at reference speed."""
    return speed.at_reference(response["s"], *response["probes"]) * 1e3


def check_sweep(sweep: dict) -> list[str]:
    """Check the values the layer sweep computed, with the verify oracles."""
    problems = []
    for name, (s, n) in {"F576": (369, 576), "F5128": (2971, 5128),
                         "F1e5": (50500, 100000)}.items():
        got, want = sweep[f"stats.right_tail_ms.{name}"]["value"], verify.right_tail(s, n, 0.5)
        if abs(got - want) > verify.REL_TOL * want:
            problems.append(f"sweep right tail {name}: {got} vs {want}")
    for name, (share, n) in {"F576": (369 / 576, 576), "F5128": (2971 / 5128, 5128),
                             "F1e5": (0.505, 100000)}.items():
        lo, hi = sweep[f"stats.ci_ms.{name}"]["value"]
        if round(lo * n) not in verify.quantiles(0.025, n, share) or round(
            hi * n
        ) not in verify.quantiles(0.975, n, share):
            problems.append(f"sweep interval {name}: ({lo}, {hi})")
    for name, edges in {"star8": [(1, v) for v in range(2, 9)],
                        "path9": [(v, v + 1) for v in range(1, 9)]}.items():
        n = len(edges) + 1
        moments = sweep[f"nullmodel.enumerate_ms.{name}"]["value"]
        want = ["1", str(Fraction(n * n - 1, 3)), str(verify.tree_variance(n, edges))]
        if moments != want:
            problems.append(f"sweep enumeration {name}: {moments} vs {want}")
    for name, symbols in {"m4": "ABCD", "m5": "ABCDE"}.items():
        edges = {frozenset(e) for e in sweep[f"rings.build_ms.{name}"]["value"]}
        if edges != verify.adjacent_swaps(symbols):
            problems.append(f"sweep ring {name}: wrong edge set")
    if sweep["dataio.roundtrip_ms.dryer"]["value"] is not True:
        problems.append("sweep round trip changed the Dryer table")
    return problems


def report(results: list[dict], spec: dict, trace: bool, seed: int, seconds: int) -> dict:
    """Print the human-readable report; return the final JSON object."""
    section = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    print(f"headorder benchmark  seed={seed} seconds={seconds} trace={int(trace)}")
    for r in results:
        rejected, damaged = r["self_check"]
        print(f"{r['workload']}: stream digest (first {DIGEST_REQUESTS} requests) "
              f"sha256:{r['digest'][:16]}; {r['attempted']} responses checked, "
              f"{r['failed']} failed; self-check rejected {rejected}/{damaged} "
              f"corrupted responses")
        for failure in r["failures"][:5]:
            print(f"  FAILED {failure}")
    if not trace:
        columns = [("setup_s", "s", ".4f"), ("throughput_rps", "1/s", ".2f"),
                   ("latency_p50_ms", "ms", ".2f"), ("latency_p90_ms", "ms", ".2f"),
                   ("samples", "count", "d"), ("peak_rss_mb", "MB", ".1f"),
                   ("failed_fraction", "fraction", ".4f")]
        print("  ".join(["workload".ljust(14)] + [f"{n} [{u}]" for n, u, _ in columns]))
        for r in results:
            values = dict(r["metrics"], samples=r["attempted"],
                          failed_fraction=r["failed_fraction"])
            print("  ".join([r["workload"].ljust(14)] + [
                format(values[n], f).rjust(len(f"{n} [{u}]")) for n, u, f in columns
            ]))
        print(f"times above are at reference speed (speed probe = "
              f"{speed.REFERENCE_S * 1e6:.0f} us); unscaled wall clock:")
        for r in results:
            w = r["wall"]
            print(f"{r['workload'].ljust(14)}  setup_s {w['setup_s']:.4f}  "
                  f"throughput_rps {w['throughput_rps']:.2f}  "
                  f"latency_p50_ms {w['latency_p50_ms']:.2f}  "
                  f"latency_p90_ms {w['latency_p90_ms']:.2f}  "
                  f"median probe {w['probe_us']:.0f} us")
    else:
        for r in results:
            print(f"{r['workload']}: spans written to {r['spans_path']}")
            for name in units:
                print(f"  {name:<40} {r['metrics'][name]:>14.4f} {units[name]}")
            print("  calls per request, by request kind:")
            keys = tracing.KIND_COUNTS
            labels = [key.split(".")[-2] for key in keys]
            print("    " + "kind".ljust(24) + "".join(label.rjust(20) for label in labels))
            for kind, row in sorted(r["by_kind"].items()):
                print("    " + kind.ljust(24) + "".join(f"{row[k]:20.1f}" for k in keys))
    metrics = {}
    for r in results:
        missing = set(units) - set(r["metrics"])
        if missing:
            raise BenchError(f"metrics not measured: {', '.join(sorted(missing))}")
        prefix = f"{r['workload']}:" if len(results) > 1 else ""
        for name, unit in units.items():
            metrics[prefix + name] = {"value": r["metrics"][name], "unit": unit}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd().resolve()
    try:
        if not (root / "src" / "headorder" / "cli.py").is_file():
            raise BenchError("run from the root of a headorder checkout (no src/headorder)")
        with open(root / "BENCHMARK.json", encoding="utf-8") as handle:
            spec = json.load(handle)
        with open(HERE / "reproduce_goldens.json", encoding="utf-8") as handle:
            goldens = json.load(handle)
        chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        results = [
            run_workload(root, goldens, w, args.seed, args.seconds, bool(args.trace))
            for w in chosen
        ]
        final = report(results, spec, bool(args.trace), args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
