"""Self-test of the benchmark: tiny runs, metric coverage, and the gate.

    python3 perfbench/selftest.py

1. Runs every workload at a tiny size, untraced and traced, and checks
   that every metric BENCHMARK.json lists is printed by name with its
   unit, and that the last line is the result object.
2. Feeds the gate deliberately corrupted copies of real outputs (a
   perturbed value, witness, bound or estimate, a changed payload) and
   checks that each one is counted as a failure.
3. Runs the benchmark in a directory holding only BENCHMARK.json and the
   benchmark, where it must fail without printing a result.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import worker  # puts src/ on sys.path
import workloads

SPEC = json.load(open(os.path.join(worker.ROOT, "BENCHMARK.json"), encoding="utf-8"))
WORK = os.path.join(worker.WORK_ROOT, "selftest")


def _run(root: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def check_metrics() -> None:
    for w in SPEC["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = _run(worker.ROOT, w["name"], trace)
            assert proc.returncode == 0, (w["name"], trace, proc.stderr[-2000:])
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            names = {m["name"]: m["unit"] for m in SPEC[section]}
            assert set(result["metrics"]) == set(names), set(result["metrics"]) ^ set(names)
            for name, unit in names.items():
                assert result["metrics"][name]["unit"] == unit, (name, result["metrics"][name])
                assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                           for line in lines[:-1]), f"{name} not printed with {unit}"
            print(f"ok   {w['name']} trace={trace}: {len(names)} metrics printed with units")


def _judge(op: workloads.Op, doc: dict, reference: dict | None = None) -> int:
    """Failures the gate counts for one output, after an optional clean pass."""
    gate = worker.Gate([op])
    out = os.path.join(WORK, "out.json")
    for d in ([reference] if reference else []) + [doc]:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(d, fh)
        gate.judge([0], [out])
    return gate.failed + gate.probe_failed


def check_gate() -> None:
    """Every clean output passes; every corrupted copy is a failure."""
    corruptions = {
        "report-large": [
            ("tau", lambda r: r.__setitem__("tau", r["tau"] * (1 + 1e-6))),
            ("psi witness", lambda r: r["psi_witness"].__setitem__("row_set", [])),
            ("rho scores", lambda r: r["rho_witness"]["f"].__setitem__(0, r["rho_witness"]["f"][0] + 1.0)),
            ("mode flag", lambda r: r["mode_flags"].__setitem__("tau", "heuristic")),
        ],
        "fuzz-small": [
            ("near-sharp value", lambda r: next(
                i for i in r["near_sharp"] if i["check_name"] == "lambda<=tau"
            ).__setitem__("rhs", 0.5)),
            ("failure", lambda r: r["failures"].append(copy.deepcopy(r["near_sharp"][0]))),
        ],
        "search-anneal": [
            ("objective", lambda r: r.__setitem__("objective", r["bound"] * 2 + 1)),
            ("best tau", lambda r: r["best_report"].__setitem__("tau", r["best_report"]["tau"] + 1e-3)),
        ],
        "clt-theorem6": [
            ("estimate", lambda r: r.__setitem__("value", r["value"] + 0.5)),
        ],
    }
    workloads.load_oracles(os.path.join(worker.ROOT, "tests"))
    for name, cases in corruptions.items():
        work = os.path.join(WORK, name)
        os.makedirs(work, exist_ok=True)
        ops = workloads.build(name, 7, work, tiny=True)
        out = os.path.join(work, "out.json")
        docs = {}
        for op in ops:
            assert worker.call(op, out) == 0 or op.probe, op.name
            if not op.probe:
                with open(out, encoding="utf-8") as fh:
                    docs[op.name] = json.load(fh)
        # the MC estimate is checked against the exact value of its pass
        target = next(op for op in ops if not op.probe and "mc" in op.name) \
            if name == "clt-theorem6" else next(op for op in ops if not op.probe)
        if name == "clt-theorem6":
            target.check = _with_pass(target.check, docs)
        clean = docs[target.name]
        assert _judge(target, clean) == 0, f"{name}: clean output rejected"
        for label, corrupt in cases:
            bad = copy.deepcopy(clean)
            corrupt(bad["result"])
            assert _judge(target, bad) == 1, f"{name}: corrupted {label} not caught"
            print(f"ok   {name}: corrupted {label} counted as a failure")
        changed = copy.deepcopy(clean)
        changed["result"]["extra"] = 1
        assert _judge(target, changed, reference=clean) == 1, f"{name}: payload change not caught"
        print(f"ok   {name}: payload differing from the first pass counted as a failure")


def _with_pass(check, docs):
    def wrapped(doc, this_pass):
        return check(doc, {**docs, **this_pass})

    return wrapped


def check_bare_directory() -> None:
    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(worker.ROOT, "perfbench"), os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(worker.ROOT, "BENCHMARK.json"), bare)
    proc = _run(bare, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0 and "metrics" not in proc.stdout, proc.stdout
    print(f"ok   bare directory: exit {proc.returncode}, no result printed")


def main() -> int:
    os.makedirs(WORK, exist_ok=True)
    try:
        check_gate()
        check_bare_directory()
        check_metrics()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
