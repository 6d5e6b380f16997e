"""One benchmark worker: set up a workload, then time passes over it.

Started by ``run.py`` as a fresh interpreter, so set-up includes
interpreter start, ``import depmeasures`` and numpy, writing the inputs,
and one cold call per distinct command and shape (filling lazy caches such
as ``measures._class_masks``, which every CLI process pays for).  Prints a
single JSON line on stdout.

Each pass makes every call of the workload in order through
``depmeasures.cli.run`` with ``--out`` in the worker's directory; only the
calls are timed.  After each pass every output goes through the
workload's check and must reproduce the first pass's result payload byte
for byte.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".bench_work")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

from depmeasures import cli  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "DEPMEASURES_THREADS")


def _openblas_threads() -> int | None:
    """Size of the thread pool of the OpenBLAS that numpy loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _openblas_threads(),
        "inherited": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def call(op: workloads.Op, out: str) -> int | str:
    """Exit code of one CLI call, or the name of the exception it raised."""
    try:
        return cli.run(op.argv + ["--out", out])
    except SystemExit as exc:  # argparse usage errors
        return exc.code
    except Exception as exc:  # the program must not raise here; record it
        return f"{type(exc).__name__}: {exc}"


class Gate:
    """Checks every output of every pass; counts misses by kind of call."""

    def __init__(self, ops: list) -> None:
        self.ops = ops
        self.payloads: dict[str, str] = {}
        self.attempted = self.failed = 0
        self.probes = self.probe_failed = 0
        self.first_problem: dict[str, str] = {}

    def judge(self, outcomes: list, outs: list) -> int:
        """Gate one pass; returns the bytes the calls wrote."""
        docs: dict[str, dict] = {}
        written = 0
        for op, outcome, out in zip(self.ops, outcomes, outs):
            problems = []
            if outcome != 0:
                problems.append(f"exit {outcome}")
            else:
                written += os.path.getsize(out)
                with open(out, encoding="utf-8") as fh:
                    doc = json.load(fh)
                os.remove(out)
                docs[op.name] = doc
                try:
                    problems += op.check(doc, docs)
                except Exception:  # a malformed output is a miss, not a crash
                    problems.append(traceback.format_exc(limit=1).strip())
                payload = json.dumps(doc["result"], sort_keys=True)
                if self.payloads.setdefault(op.name, payload) != payload:
                    problems.append("result payload differs from the first pass")
            if op.probe:
                self.probes += 1
                self.probe_failed += bool(problems)
            else:
                self.attempted += 1
                self.failed += bool(problems)
            if problems:
                self.first_problem.setdefault(op.name, "; ".join(problems)[:500])
        return written


def timed_passes(ops: list, outs: list, gate: Gate, seconds: float, tracer=None) -> list:
    """Passes until ``seconds`` have elapsed (at least one)."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        mark = tracer.mark() if tracer else None
        outcomes = []
        w0, c0 = time.perf_counter(), time.process_time()
        for i, (op, out) in enumerate(zip(ops, outs)):
            if tracer:
                tracer.call_id = i
            outcomes.append(call(op, out))
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        written = gate.judge(outcomes, outs)
        passes.append({"wall_s": wall, "cpu_s": cpu, "out_bytes": written, "mark": mark})
    return passes


def main(argv: list) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args(argv)

    workloads.load_oracles(os.path.join(ROOT, "tests"))
    os.makedirs(args.work, exist_ok=True)
    ops = workloads.build(args.workload, args.seed, args.work, tiny=args.tiny)
    outs = [os.path.join(args.work, f"out-{i}.json") for i in range(len(ops))]
    cold = set()
    for op, out in zip(ops, outs):
        if op.key not in cold:
            cold.add(op.key)
            call(op, out)
    ready_at = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    gate = Gate(ops)
    plain_seconds = args.seconds / 2 if args.trace else args.seconds
    plain = timed_passes(ops, outs, gate, plain_seconds)
    result = {
        "ready_at": ready_at,
        "environment": environment(),
        "calls_per_pass": len(ops),
        "wall_s": [q["wall_s"] for q in plain],
        "cpu_s": [q["cpu_s"] for q in plain],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        tracer = tracing.Tracer()
        with tracer.install():
            traced = timed_passes(ops, outs, gate, args.seconds / 2, tracer)
        marks = [q["mark"] for q in traced] + [tracer.mark()]
        per_pass = [
            tracing.layer_metrics(tracer.spans, lo, hi, counts_hi - counts_lo, q["out_bytes"])
            for q, (lo, counts_lo), (hi, counts_hi) in zip(traced, marks, marks[1:])
        ]
        layers = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        layers["trace.overhead_s"] = statistics.median(q["wall_s"] for q in traced) - statistics.median(
            result["wall_s"]
        )
        result["layers"] = layers
        result["traced_passes"] = len(traced)
        tracer.write(os.path.join(WORK_ROOT, f"spans-{args.workload}.jsonl"))
    result.update(
        attempted=gate.attempted,
        failed=gate.failed,
        probes=gate.probes,
        probe_failed=gate.probe_failed,
        problems=gate.first_problem,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
