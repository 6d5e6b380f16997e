"""The four benchmark workloads: seeded inputs, CLI calls and their gate.

A workload is built once per worker from the workload seed.  Building it
writes every input file and returns the list of CLI calls that make up
one pass; each call carries the check that its output must pass.  Checks
re-evaluate witnesses with the independent slow functions in
``tests/oracles.py``, so a wrong value, witness or bound is caught even
when the program reports success.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from depmeasures.joint_pmf import random_joint

# Loaded by ``load_oracles`` from the checkout's tests/ directory.
oracles = None

Check = Callable[[dict, dict], list]

WITNESS_RTOL = 1e-9
WITNESS_ATOL = 1e-12
CHAIN_TOL = 1e-9
RHO_TOL = 1e-8
MC_SIGMAS = 4.0


def load_oracles(tests_dir: str) -> None:
    """Import ``oracles.py`` from the checkout (read only)."""
    import importlib.util

    global oracles
    spec = importlib.util.spec_from_file_location("oracles", os.path.join(tests_dir, "oracles.py"))
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)


@dataclass
class Op:
    """One CLI call of a pass.

    ``key`` groups calls of the same command and shape: set-up makes one
    cold call per key.  A ``probe`` is an input of the extreme-dynamic-range
    families that ROADMAP.md lists as breaking the program; its outcome is
    recorded separately from the failures of ordinary calls.
    """

    name: str
    argv: list
    key: str
    check: Check
    probe: bool = False


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _random_matrix(rng: np.random.Generator, n_rows: int, n_cols: int, style: str) -> np.ndarray:
    if style == "dense":
        arr = rng.random((n_rows, n_cols))
    elif style == "sparse":
        arr = rng.random((n_rows, n_cols))
        arr[rng.random((n_rows, n_cols)) < 0.5] = 0.0
        arr[rng.integers(n_rows), rng.integers(n_cols)] += 1.0
    else:  # near_independent
        r = rng.random(n_rows) + 0.1
        c = rng.random(n_cols) + 0.1
        arr = np.outer(r / r.sum(), c / c.sum())
        arr = np.maximum(arr + 0.01 * arr.mean() * rng.uniform(-1.0, 1.0, arr.shape), 0.0)
    return arr / arr.sum()


# Extreme dynamic range (the robustness item of ROADMAP.md).  When the
# benchmark was written the first three ended in an uncaught
# ZeroDivisionError or a false InvariantViolation; the others are from the
# same families and passed.
# They are fixed, not drawn: whether a member of these families breaks
# depends on the last bits of its entries.
DYNAMIC_RANGE_PROBES = {
    "probe-underflow-2x4": [[3.6e-300, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
    "probe-underflow-2x2": [[1e-300, 0.0], [0.0, 1.0]],
    "probe-subnormal-2x4": [[2e-310, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
    "probe-tiny-atom-3x3": [[1e-300, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]],
    "probe-tiny-atom-2x2": [[1e-155, 0.0], [0.0, 1.0]],
    "probe-near-identity-3x3": (np.eye(3) / 3.0 + 1e-17).tolist(),
}


def _write(path: str, obj: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def _close(a: float, b: float, noise: float = 0.0) -> bool:
    return abs(a - b) <= WITNESS_RTOL * max(abs(a), abs(b)) + noise + WITNESS_ATOL


def _event_value(entries: np.ndarray, witness: dict, kind: str) -> tuple[float, float]:
    """The oracle's statistic of one event pair, and its rounding noise.

    The oracle forms the covariance as P(AB) - P(A)P(B), which cancels when
    the covariance is far below P(AB); the noise bound is a few ulps of
    P(AB) over the kind's denominator.  The oracle divides by a product of
    two masses, which underflows on extreme dynamic range; there the same
    oracle masses are divided in stages.
    """
    rows, cols = witness["row_set"], witness["col_set"]
    pa, pac, pb, pbc, pab = oracles.subset_masses(entries, rows, cols)
    if kind == "psi":
        den = [pa, pb]
    elif kind == "lambda":
        den = [math.sqrt(pa), math.sqrt(pb)]
    else:
        den = [math.sqrt(pa * pac), math.sqrt(pb * pbc)]
    if min(den) <= 0.0:
        return oracles.naive_event_statistic(entries, rows, cols, kind), 0.0
    noise = 8.0 * sys.float_info.epsilon * max(pab, pa * pb) / den[0] / den[1]
    try:
        return oracles.naive_event_statistic(entries, rows, cols, kind), noise
    except ZeroDivisionError:
        return abs(pab - pa * pb) / den[0] / den[1], noise


def report_problems(entries: np.ndarray, rep: dict, mode: str) -> list:
    """Witnesses, rho scores and (exact mode) the inequality chain."""
    problems = []
    for kind in ("psi", "lambda", "tau"):
        value = rep[kind]
        again, noise = _event_value(entries, rep[f"{kind}_witness"], kind)
        if not (math.isfinite(value) and _close(again, value, noise)):
            problems.append(f"{kind}={value!r} but its witness gives {again!r}")
    f, g = rep["rho_witness"]["f"], rep["rho_witness"]["g"]
    corr = oracles.correlation_of_scores(entries, f, g)
    if rep["rho"] > 0.0 and not abs(abs(corr) - rep["rho"]) <= RHO_TOL:
        problems.append(f"rho={rep['rho']!r} but its scores correlate {corr!r}")
    flags = set(rep["mode_flags"][k] for k in ("psi", "lambda", "tau"))
    if flags != {mode}:
        problems.append(f"mode flags {rep['mode_flags']} where {mode} was expected")
    if mode == "exact":
        lam, tau, rho, psi = rep["lambda"], rep["tau"], rep["rho"], rep["psi"]
        if not (lam <= tau + CHAIN_TOL and tau <= rho + CHAIN_TOL
                and rho <= min(1.0, psi) + CHAIN_TOL and tau <= 2.0 * lam + CHAIN_TOL):
            problems.append(f"chain broken: lambda={lam} tau={tau} rho={rho} psi={psi}")
    return problems


def _report_check(entries: np.ndarray, mode: str) -> Check:
    def check(doc: dict, _pass: dict) -> list:
        return report_problems(entries, doc["result"], mode)

    return check


# check name -> (statistic, side of the check that holds it, factor)
_FUZZ_WITNESSED = {
    "lambda<=tau": ("tau", "rhs", 1.0),
    "tau<=rho": ("tau", "lhs", 1.0),
    "rho<=psi": ("psi", "rhs", 1.0),
    "tau<=2*lambda": ("lambda", "rhs", 0.5),
    "tau(kron)<=max(tau1,psi2)": ("tau", "lhs", 1.0),
    "tau(kron)>=max(tau1,tau2)": ("tau", "rhs", 1.0),
}


def _fuzz_check(doc: dict, _pass: dict) -> list:
    """No failed check, and every witnessed near-sharp value reproduces."""
    result = doc["result"]
    problems = [f"fuzz check failed: {f['check_name']}" for f in result["failures"]]
    if result["total"] <= 0:
        problems.append("fuzz ran no checks")
    for item in result["near_sharp"]:
        spec = _FUZZ_WITNESSED.get(item["check_name"])
        if spec is None or item["witness"] is None:
            continue
        kind, side, factor = spec
        d = item["instance_digest"]
        n_rows, n_cols = d["shape"]
        entries = random_joint(n_rows, n_cols, d["seed"], d["style"]).entries
        if "kron" in item["check_name"]:
            entries = np.kron(entries, random_joint(n_rows, n_cols, d["seed2"], d["style"]).entries)
        again, noise = _event_value(entries, item["witness"], kind)
        if not _close(again, factor * item[side], noise):
            problems.append(f"{item['check_name']} #{d['index']}: witness gives {again!r}")
    return problems


def _search_check(objective: str, tau_cap: float) -> Check:
    def check(doc: dict, _pass: dict) -> list:
        res = doc["result"]
        rep = res["best_report"]
        entries = np.array(res["best"]["matrix"])
        problems = report_problems(entries, rep, "exact")
        if rep["tau"] > tau_cap + CHAIN_TOL:
            problems.append(f"best state infeasible: tau={rep['tau']} > {tau_cap}")
        if res["objective"] > res["bound"] + CHAIN_TOL:
            problems.append(f"objective {res['objective']} above bound {res['bound']}")
        if objective == "rho" and not abs(res["objective"] - rep["rho"]) <= RHO_TOL:
            problems.append(f"objective {res['objective']} is not rho {rep['rho']}")
        if objective == "tensor-gap" and not abs(res["bound"] - (rep["psi"] - rep["tau"])) <= CHAIN_TOL:
            problems.append(f"bound {res['bound']} is not psi - tau")
        best = [v for _, v in res["trace"]]
        if best != sorted(best) or best[-1] != res["objective"]:
            problems.append("trace is not the running best")
        return problems

    return check


def _theorem6_check(n: int, method: str, reference: str | None = None) -> Check:
    def check(doc: dict, this_pass: dict) -> list:
        res = doc["result"]
        problems = []
        if res["n"] != n or res["method"] != method or not -1.0 <= res["value"] <= 1.0:
            problems.append(f"bad estimate {res}")
        if reference is not None:
            exact = this_pass.get(reference)
            if exact is None:
                problems.append(f"no exact value from {reference} to compare with")
            elif abs(res["value"] - exact["result"]["value"]) > MC_SIGMAS * res["stderr"]:
                problems.append(
                    f"monte carlo {res['value']} +- {res['stderr']} misses exact "
                    f"{exact['result']['value']}"
                )
        return problems

    return check


def _lemma7_check(grid: int) -> Check:
    def check(doc: dict, _pass: dict) -> list:
        res = doc["result"]
        ends = res["endpoint_checks"]
        ok = (
            res["grid_points"] == grid
            and res["grid_min"] > 0.0
            and 0.0 < res["c_root"] < 1.0
            and all(res["sign_pattern"].values())
            and abs(ends["f_at_1"]) <= 1e-12
            and abs(ends["fprime_at_1"]) <= 1e-12
        )
        return [] if ok else [f"lemma7 profile fails its identities: {res}"]

    return check


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _report_large(rng: np.random.Generator, work: str, tiny: bool) -> list:
    """Exact reports near the 14x14 cap, heuristic ones beyond it, probes."""
    ops = []
    styles = ("dense", "sparse", "near_independent")
    exact = [(3, s) for s in styles] + [(4, "dense")] if tiny else (
        [(10, s) for s in styles] + [(12, s) for s in styles] + [(14, "dense")]
    )
    heuristic = [(15, "dense")] if tiny else [(24, "dense"), (40, "sparse"), (64, "near_independent")]
    for mode, specs in (("exact", exact), ("auto", heuristic)):
        for n, style in specs:
            entries = _random_matrix(rng, n, n, style)
            name = f"{mode}-{n}x{n}-{style}"
            path = _write(os.path.join(work, f"{name}.json"), {"matrix": entries.tolist()})
            ops.append(Op(
                name, ["measures", "--in", path, "--mode", mode], f"measures-{mode}-{n}x{n}",
                _report_check(entries, "exact" if mode == "exact" else "heuristic"),
            ))
    for name, matrix in DYNAMIC_RANGE_PROBES.items():
        entries = np.array(matrix)
        path = _write(os.path.join(work, f"{name}.json"), {"matrix": matrix})
        shape = "x".join(map(str, entries.shape))
        ops.append(Op(
            name, ["measures", "--in", path, "--mode", "exact"], f"measures-exact-{shape}",
            _report_check(entries, "exact"), probe=True,
        ))
    return ops


def _fuzz_small(rng: np.random.Generator, work: str, tiny: bool) -> list:
    """Thousands of tiny reports: 2x2 and 3x3 with pair checks (joins <= 9x9)."""
    ops = []
    count = 6 if tiny else 120
    for k in range(2):
        seed = int(rng.integers(2**31))
        ops.append(Op(
            f"fuzz-{k}",
            ["fuzz", "--count", str(count), "--shape", "2x2", "3x3",
             "--style", "dense", "sparse", "near_independent", "--seed", str(seed)],
            "fuzz", _fuzz_check,
        ))
    return ops


def _search_anneal(rng: np.random.Generator, work: str, tiny: bool) -> list:
    """Annealing: exact tau per proposal, rho objective and tensor gap."""
    ops = []
    # Search cost per proposal depends on where the chain wanders (the
    # share of proposals under the tau cap, the lattice grid of the
    # tensor-gap objective), and peak memory on the largest grid reached,
    # so each pass runs many short searches on different seeds.
    plans = [
        ("rho", "4x4", ["--tau-cap", "0.1"], 0.1, 250, 2, 4),
        ("rho", "2x8", ["--two-atom", "--tau-cap", "0.1"], 0.1, 250, 2, 4),
        ("tensor-gap", "3x3", ["--nmax", "2"], 1.0, 20, 2, 8),
    ]
    for objective, shape, extra, tau_cap, budget, restarts, repeats in plans:
        if tiny:
            budget, restarts, repeats = 5, 1, 1
        for k in range(repeats):
            seed = int(rng.integers(2**31))
            ops.append(Op(
                f"search-{objective}-{shape}-{k}",
                ["search", objective, "--shape", shape, *extra, "--budget", str(budget),
                 "--restarts", str(restarts), "--seed", str(seed)],
                f"search-{objective}-{shape}", _search_check(objective, tau_cap),
            ))
    return ops


def _clt_theorem6(rng: np.random.Generator, work: str, tiny: bool) -> list:
    """Lattice convolution, Monte Carlo and the Lemma 7 profile."""
    ops = []
    t = float(rng.uniform(0.2, 0.8))
    yy = [[(1 + t) / 4, (1 - t) / 4], [(1 - t) / 4, (1 + t) / 4]]
    yy_path = _write(os.path.join(work, "yy.json"), {"matrix": yy, "g": [-1, 1], "h": [-1, 1]})
    # Marginals (1/8, 3/4, 1/8) make scores (-1, 0, 1) normalize to the
    # rational (-2, 0, 2): a wider lattice than the sign pair's.
    marg = np.array([1 / 8, 3 / 4, 1 / 8])
    corner = np.array([[1.0, 0.0, -1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 1.0]])
    base3 = np.outer(marg, marg) + float(rng.uniform(0.2, 0.9)) / 64 * corner
    b3_path = _write(os.path.join(work, "base3.json"),
                     {"matrix": base3.tolist(), "g": [-1, 0, 1], "h": [-1, 0, 1]})
    n_big, n_ref, n_b3 = (16, 8, 6) if tiny else (384, 256, 128)
    samples, grid = (1000, 1000) if tiny else (1_000_000, 1_000_000)
    mc_seed = int(rng.integers(2**31))
    ops += [
        Op("t6-exact-yy-big", ["theorem6", "--base", yy_path, "--n", str(n_big)],
           "theorem6-exact-2x2", _theorem6_check(n_big, "exact")),
        Op("t6-exact-yy-ref", ["theorem6", "--base", yy_path, "--n", str(n_ref)],
           "theorem6-exact-2x2", _theorem6_check(n_ref, "exact")),
        Op("t6-mc-yy", ["theorem6", "--base", yy_path, "--n", str(n_ref), "--method", "mc",
                        "--samples", str(samples), "--seed", str(mc_seed)],
           "theorem6-mc-2x2", _theorem6_check(n_ref, "monte_carlo", "t6-exact-yy-ref")),
        Op("t6-exact-3x3", ["theorem6", "--base", b3_path, "--n", str(n_b3)],
           "theorem6-exact-3x3", _theorem6_check(n_b3, "exact")),
        Op("lemma7", ["lemma7", "--grid", str(grid)], "lemma7", _lemma7_check(grid)),
    ]
    return ops


WORKLOADS = {
    "report-large": _report_large,
    "fuzz-small": _fuzz_small,
    "search-anneal": _search_anneal,
    "clt-theorem6": _clt_theorem6,
}


def build(name: str, seed: int, work: str, tiny: bool = False) -> list:
    """Write the inputs of one workload under ``work``; return its calls."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(sorted(WORKLOADS).index(name),)))
    return WORKLOADS[name](rng, work, tiny)
