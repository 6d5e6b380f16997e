"""Which package functions each benchmark workload runs.

    python3 tools/coverage_map.py
    python3 tools/coverage_map.py --functions _walk score_sum_law _two_level_probs

Builds each workload's calls at one seed (default 1) with
``perfbench/workloads.build`` (reading ``perfbench/``, changing nothing
there), runs each call once, at full size, in one process through
``depmeasures.cli.run`` with its output under a temporary directory, and
records every function of ``src/depmeasures`` entered meanwhile:
``sys.setprofile`` watches the calling thread and ``threading.setprofile``
the threads the calls start (the Monte Carlo workers).  Prints, per
workload, the functions that ran as ``module.qualname``.  With
``--functions``, prints instead the workloads that reach each named
function; a bare name matches it in any module.  A speed claim on a
function then names a workload that runs it.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import tempfile
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "depmeasures")
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from depmeasures import cli  # noqa: E402

import workloads  # noqa: E402


def _reached(name: str, seed: int, tmp: str) -> set:
    """``module.qualname`` of every package function the workload's calls enter."""
    seen: set = set()

    def profile(frame, event, _arg):
        code = frame.f_code
        # comprehensions, generator expressions and lambdas count as their function
        if event == "call" and code.co_filename.startswith(PACKAGE + os.sep) and code.co_name[0] != "<":
            module = os.path.relpath(code.co_filename, PACKAGE)[: -len(".py")].replace(os.sep, ".")
            seen.add(f"{module}.{getattr(code, 'co_qualname', code.co_name)}")  # co_qualname: 3.11+

    work = os.path.join(tmp, f"{name}-{seed}")
    os.makedirs(work)
    for i, op in enumerate(workloads.build(name, seed, work)):
        threading.setprofile(profile)
        sys.setprofile(profile)
        try:
            with contextlib.suppress(SystemExit):  # argparse usage errors
                cli.run(op.argv + ["--out", os.path.join(work, f"out-{i}.json")])
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
    return seen


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--functions", nargs="+", metavar="NAME")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        reached = {name: _reached(name, args.seed, tmp) for name in sorted(workloads.WORKLOADS)}
    if args.functions:
        for name in args.functions:
            hits = [w for w, seen in reached.items() if any(f == name or f.endswith("." + name) for f in seen)]
            print(f"{name}: {' '.join(hits) if hits else '(no workload)'}")
        return 0
    for workload, seen in reached.items():
        print(f"{workload} ({len(seen)} functions)")
        for function in sorted(seen):
            print(f"  {function}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
