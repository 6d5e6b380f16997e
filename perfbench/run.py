"""Benchmark of the depmeasures CLI: one workload, one seed, one run.

    python3 perfbench/run.py --workload report-large --seed 1 --seconds 15 --trace 0

Runs from the root of a checkout that holds ``src/depmeasures`` and
``tests/oracles.py``.  Each run starts fresh worker processes, one at a
time: with ``--trace 0`` a few that only set up (so ``setup_s`` is a median)
and then one that also times passes of the workload for ``--seconds``.
With ``--trace 1`` the worker times untraced passes for half the time and
traced passes for the other half and reports per-layer metrics.  The
benchmark sets no thread variables: it measures the BLAS configuration a
user gets by default, and prints it.

The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``;
the lines before it give the environment and every metric with its unit.
Inputs, outputs and the span file of a traced run go under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".bench_work")
REQUIRED = (os.path.join("src", "depmeasures", "cli.py"), os.path.join("tests", "oracles.py"))

SETUPS = 3  # fresh processes whose set-up time is measured per untraced run
RUN_LIMIT_S = 170.0


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _worker(args: argparse.Namespace, work: str, deadline: float, setup_only: bool) -> tuple[float, dict]:
    """Run one worker; returns (its launch time, its JSON result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work", work]
    cmd += ["--setup-only"] * setup_only + ["--tiny"] * args.tiny
    launched = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - launched, 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return launched, json.loads(lines[-1])


def main(argv: list) -> int:
    spec = _spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    missing = [path for path in REQUIRED if not os.path.isfile(os.path.join(ROOT, path))]
    if missing:
        print(f"error: not a depmeasures checkout, missing {missing}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    run_dir = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    try:
        setups = []
        for k in range(SETUPS - 1 if not args.trace else 0):
            launched, res = _worker(args, os.path.join(run_dir, f"setup-{k}"), deadline, True)
            setups.append(res["ready_at"] - launched)
        launched, res = _worker(args, os.path.join(run_dir, "main"), deadline, False)
        setups.append(res["ready_at"] - launched)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    passes = len(res["wall_s"])
    if args.trace:
        section = spec["per_layer"]
        values = res["layers"]
    else:
        section = spec["end_to_end"]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(res["wall_s"]),
            "cpu_s": statistics.median(res["cpu_s"]),
            "peak_rss_mb": res["peak_rss_mb"],
            "success_ratio": 1.0 - res["failed"] / res["attempted"],
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}

    print("environment " + json.dumps(res["environment"], sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {res['calls_per_pass']} calls per pass, "
          f"{passes} untraced passes" + (f", {res['traced_passes']} traced passes" if args.trace else "")
          + f", {len(setups)} set-ups")
    print(f"  wall_s per pass: min {min(res['wall_s']):.4f} max {max(res['wall_s']):.4f}; "
          f"set-ups {', '.join(f'{s:.3f}' for s in setups)}")
    print(f"  calls: {res['attempted']} attempted, {res['failed']} failed")
    if res["probes"]:
        print(f"  dynamic-range probes (known defect, see ROADMAP.md): {res['probes']} run, "
              f"{res['probe_failed']} failed")
    for name, problem in sorted(res["problems"].items()):
        print(f"  miss {name}: {problem}")
    for name, m in metrics.items():
        print(f"  {name} {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
