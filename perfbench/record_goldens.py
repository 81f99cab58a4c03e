"""Record the stdout of every `headorder reproduce` target as the golden.

Run from the root of a headorder checkout, at a commit whose output is the
reference:

    python3 perfbench/record_goldens.py

Writes perfbench/reproduce_goldens.json, keyed "<target>/<format>". The
benchmark's reproduce workload requires byte-identical stdout.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, "src")

from headorder import cli  # noqa: E402

import verify  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    goldens = {}
    for target in workloads.REPRODUCE_TARGETS:
        for fmt in ("table", "csv"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(["reproduce", target, "--format", fmt])
            if rc != 0 or err.getvalue() != verify.REPRODUCE_VERDICT:
                print(f"error: reproduce {target} --format {fmt} failed", file=sys.stderr)
                return 1
            goldens[f"{target}/{fmt}"] = out.getvalue()
    path = Path(__file__).resolve().parent / "reproduce_goldens.json"
    path.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(goldens)} goldens to {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
