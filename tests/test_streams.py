"""The benchmark's request streams, pinned by one SHA-256 per response.

`goldens/streams.json` holds, for `analyze-large` seeds 1-3 (blocks 0-2) and
`null-model` seeds 1-2 (blocks 0-5), the SHA-256 of the JSON list
`[rc, stdout, stderr]` of every request, in block and slot order. The
requests are rebuilt with `perfbench/workloads.py` (loaded by path) and run
through in-process `main()`, as the benchmark's worker runs them. So an
output change on any table or tree of these streams fails here, with the
first request that differs named.

A change to `perfbench/workloads.py` changes the requests and needs a new
record; so does a deliberate output change, which should list the requests
it moves. To re-record, from the root of a checkout:

    PYTHONPATH=src python3 tests/test_streams.py
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import tempfile
from pathlib import Path

import pytest

from headorder.cli import main

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"
STREAMS = Path(__file__).parent / "goldens" / "streams.json"
# workload -> (seeds, blocks per seed)
COVERED = {"analyze-large": ((1, 2, 3), 3), "null-model": ((1, 2), 6)}


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def response_digest(request: dict, input_path: Path) -> str:
    """SHA-256 of [rc, stdout, stderr] of one request, run in-process."""
    argv = [str(input_path) if arg == "{input}" else arg for arg in request["argv"]]
    if request["input"] is not None:
        input_path.write_text(request["input"], encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
    response = json.dumps([rc, out.getvalue(), err.getvalue()])
    return hashlib.sha256(response.encode()).hexdigest()


def stream_digests(workloads, workload: str, seed: int, blocks: int, directory: Path):
    """{(block, slot): (argv, digest)} of the first `blocks` blocks of a stream."""
    return {
        (index, slot): (request["argv"], response_digest(request, directory / "input.csv"))
        for index in range(blocks)
        for slot, request in enumerate(workloads.block(workload, seed, index))
    }


def record(directory: Path) -> dict:
    workloads = load_workloads()
    recorded = {}
    for workload, (seeds, blocks) in COVERED.items():
        for seed in seeds:
            digests = stream_digests(workloads, workload, seed, blocks, directory)
            recorded[f"{workload}/{seed}"] = [
                [digests[index, slot][1] for slot in range(len(digests) // blocks)]
                for index in range(blocks)
            ]
    return recorded


CASES = [f"{w}/{s}" for w, (seeds, _) in COVERED.items() for s in seeds]


@pytest.mark.parametrize("case", CASES)
def test_stream_responses_match_the_record(case, tmp_path):
    workload, seed = case.split("/")
    expected = json.loads(STREAMS.read_text(encoding="utf-8"))[case]
    digests = stream_digests(load_workloads(), workload, int(seed), len(expected), tmp_path)
    assert len(digests) == sum(map(len, expected))
    for (index, slot), (argv, digest) in sorted(digests.items()):
        assert digest == expected[index][slot], (
            f"{workload} seed {seed} block {index} slot {slot}: "
            f"the response to {argv} differs from the record"
        )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        streams = record(Path(scratch))
    STREAMS.write_text(json.dumps(streams, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {sum(len(b) for blocks in streams.values() for b in blocks)} digests")
