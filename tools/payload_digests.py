"""Digests of the CLI result payloads of the benchmark workloads.

    python3 tools/payload_digests.py --seeds 1 2 3 > digests.txt

Builds each workload's calls with ``perfbench/workloads.build`` for every
seed given (reading ``perfbench/``, changing nothing there), runs them in
one process through ``depmeasures.cli.run`` with their outputs under a
temporary directory, and prints one line per call:

    <workload> <seed> <call> <exit code> <sha256 of the sorted-key result JSON>

The digest is ``-`` when a call writes no output.  Run it in two checkouts
and diff the outputs: equal lines mean equal payloads and exit codes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from depmeasures import cli  # noqa: E402

import workloads  # noqa: E402


def _exit_code(argv: list) -> int | str:
    try:
        return cli.run(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


def _digest(path: str) -> str:
    if not os.path.exists(path):
        return "-"
    with open(path, encoding="utf-8") as fh:
        result = json.load(fh)["result"]
    return hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(workloads.WORKLOADS):
            for seed in args.seeds:
                work = os.path.join(tmp, f"{name}-{seed}")
                os.makedirs(work)
                for i, op in enumerate(workloads.build(name, seed, work)):
                    out = os.path.join(work, f"out-{i}.json")
                    code = _exit_code(op.argv + ["--out", out])
                    print(name, seed, op.name, code, _digest(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
