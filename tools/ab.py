"""Alternating benchmark pairs: this checkout against a parent commit.

    python3 tools/ab.py --parent HEAD~1 --workload clt-theorem6 search-anneal --pairs 6 --seconds 20

Extracts the parent commit with ``git archive`` into ``.bench_work/ab-<sha>/``
(no network needed), then for seeds k = first, first + 1, ... runs
``perfbench/run.py --workload W --seed k --seconds S`` once in each tree:
the parent first on the first pair, this checkout first on the next, and so
on, so that drift of the machine falls on both sides alike.  Each run's last
JSON line gives its metrics.  Prints each tree's environment line once, and
stops with an error when a run's BLAS thread count, numpy or BLAS version
differs from the first run's.  Prints every pair, then, per end-to-end metric
of ``BENCHMARK.json``, both medians, the pairs this checkout won (strictly
better in the metric's direction) and the interquartile range of the
parent's runs.  Changes nothing under ``perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Environment fields that must agree between the two trees' runs.
SAME_SETUP = ("blas_threads", "numpy", "blas_version")


def _extract(rev: str) -> str:
    """The parent's committed files under ``.bench_work/``, extracted once."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         stdout=subprocess.PIPE, text=True, check=True).stdout.strip()
    dest = os.path.join(ROOT, ".bench_work", f"ab-{sha[:12]}")
    if not os.path.isdir(dest):
        archive = subprocess.run(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE, check=True).stdout
        partial = dest + ".partial"
        shutil.rmtree(partial, ignore_errors=True)
        os.makedirs(partial)
        subprocess.run(["tar", "-x", "-C", partial], input=archive, check=True)
        os.rename(partial, dest)
    return dest


def _run(tree: str, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The environment and {metric: value} of one ``perfbench/run.py`` run in ``tree``."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {' '.join(cmd)} in {tree} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    env = next(json.loads(line.split(" ", 1)[1]) for line in lines if line.startswith("environment "))
    return env, {name: m["value"] for name, m in json.loads(lines[-1])["metrics"].items()}


def _iqr(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def main(argv: list) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="the commit to compare against, e.g. HEAD~1")
    p.add_argument("--workload", required=True, nargs="+")
    p.add_argument("--pairs", type=int, default=4)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    trees = {"parent": _extract(args.parent), "change": ROOT}
    envs: dict = {}
    for workload in args.workload:
        runs: dict = {"parent": [], "change": []}
        seeds = range(args.first_seed, args.first_seed + args.pairs)
        for k, seed in enumerate(seeds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                env, metrics = _run(trees[side], workload, seed, args.seconds)
                if side not in envs:
                    envs[side] = env
                    print(f"{side} environment {json.dumps(env, sort_keys=True)}", flush=True)
                ref = next(iter(envs.values()))
                differ = {key: (ref.get(key), env.get(key)) for key in SAME_SETUP if env.get(key) != ref.get(key)}
                if differ:
                    raise SystemExit(f"error: the {side} run at seed {seed} has another BLAS setup "
                                     f"than the first run (first, this): {differ}")
                runs[side].append(metrics)
            pair = (f"{name} {runs['parent'][-1][name]:.4g} -> {runs['change'][-1][name]:.4g}" for name in better)
            print(f"{workload} seed {seed} ({order[0]} first): " + "  ".join(pair), flush=True)
        print(f"{workload}: {args.pairs} pairs, seeds {seeds[0]}-{seeds[-1]}, {args.seconds:g} s each")
        print(f"  {'metric':<14}{'parent median':>15}{'change median':>15}{'change won':>12}{'parent IQR':>12}")
        for name, direction in better.items():
            old = [run[name] for run in runs["parent"]]
            new = [run[name] for run in runs["change"]]
            sign = 1.0 if direction == "higher" else -1.0
            won = sum(sign * (b - a) > 0.0 for a, b in zip(old, new))
            print(f"  {name:<14}{statistics.median(old):>15.4g}{statistics.median(new):>15.4g}"
                  f"{f'{won}/{len(old)}':>12}{_iqr(old):>12.4g}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
