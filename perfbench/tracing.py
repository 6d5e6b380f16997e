"""Spans around the calls that cross depmeasures module boundaries.

The tracer lives entirely in the benchmark: :meth:`Tracer.install` replaces
each traced function in every ``depmeasures`` module namespace that holds
it (``from .measures import rho as _rho`` included), and restores the
originals on exit.  Function-local imports resolve at call time, so
patching the defining module covers them too.

A span is ``(name, start, end, parent, call_id, info)``: ``parent`` is the
index of the enclosing span (-1 at the top), ``call_id`` the CLI call the
span belongs to, and ``info`` an optional value a note hook attaches (for
example a digest of the input matrix).  Spans are kept in memory and
written out once, at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Iterator

# (module, attribute) -> span name.  The attribute is looked up in the
# defining module; every other depmeasures namespace holding the same
# object gets the same wrapper.
SPANS = {
    ("cli", "run"): "cli.run",
    ("joint_pmf", "from_matrix"): "joint_pmf.from_matrix",
    ("joint_pmf", "load_json"): "joint_pmf.load_json",
    ("joint_pmf", "kron"): "joint_pmf.kron",
    ("joint_pmf", "random_joint"): "joint_pmf.random_joint",
    ("measures", "_exact_scan"): "measures.exact_scan",
    ("measures", "_heuristic_scan"): "measures.heuristic_scan",
    ("measures", "full_report"): "measures.full_report",
    ("measures", "rho"): "measures.rho",
    ("measures", "event_statistic"): "measures.event_statistic",
    ("measures", "score_correlation"): "measures.score_correlation",
    ("theorem_suite", "fuzz"): "theorem_suite.fuzz",
    ("theorem_suite", "check_cousin"): "theorem_suite.check_cousin",
    ("theorem_suite", "check_csaki_fischer"): "theorem_suite.check_csaki_fischer",
    ("sharpness_search", "search_max_rho"): "sharpness_search.search_max_rho",
    ("sharpness_search", "search_tensor_gap"): "sharpness_search.search_tensor_gap",
    ("sharpness_search", "tensor_gap_lower_bound"): "sharpness_search.tensor_gap_lower_bound",
    ("constructions", "theorem6_corr"): "constructions.theorem6_corr",
    ("constructions", "lemma7_profile"): "constructions.lemma7_profile",
}

LAYERS = ("cli", "joint_pmf", "measures", "theorem_suite", "sharpness_search", "constructions")


def _matrix_digest(args: tuple, kwargs: dict) -> str:
    """Digest of the JointPMF a measures call receives (its first argument)."""
    M = args[0] if args else kwargs["M"]
    return hashlib.blake2b(M.entries.tobytes() + repr(M.entries.shape).encode(), digest_size=12).hexdigest()


def _note_full_report(args, kwargs, result):
    exact = result is not None and result.mode_flags["tau"] == "exact"
    return {"digest": _matrix_digest(args, kwargs), "exact": exact}


def _note_rho(args, kwargs, result):
    return {"digest": _matrix_digest(args, kwargs)}


def _note_theorem6(args, kwargs, result):
    return {} if result is None else {"method": result.method}


NOTES: dict[str, Callable] = {
    "measures.full_report": _note_full_report,
    "measures.rho": _note_rho,
    "constructions.theorem6_corr": _note_theorem6,
}


class Tracer:
    """In-memory span recorder plus the two search counters."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self.call_id = -1
        self.counts: Counter = Counter()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        note = NOTES.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = raised = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                raised = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                info = note(args, kwargs, result) if note is not None else None
                if raised is not None:
                    info = dict(info or {}, raised=raised)
                spans[idx] = (name, start, end, parent, self.call_id, info)
            return result

        return traced

    def _count_proposals(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts["proposals"] += 1
            return fn(*args, **kwargs)

        return counted

    def _count_objective(self, fn: Callable) -> Callable:
        """Wrap ``_anneal`` so its objective evaluations are counted.

        ``_anneal`` evaluates the objective once on the initial state and
        then once per proposal that passes the tau cap; only the latter are
        counted as feasible proposals.
        """

        @functools.wraps(fn)
        def counted(cfg, objective_fn, *args, **kwargs):
            def objective(entries):
                self.counts["objective_evals"] += 1
                return objective_fn(entries)

            self.counts["objective_evals"] -= 1
            return fn(cfg, objective, *args, **kwargs)

        return counted

    @contextlib.contextmanager
    def install(self) -> Iterator["Tracer"]:
        """Patch every depmeasures namespace; restore the originals on exit."""
        import depmeasures  # noqa: F401  (loads every submodule)

        package = "depmeasures"
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        replacements: dict[int, Callable] = {}
        for (mod, attr), name in SPANS.items():
            fn = getattr(sys.modules[f"{package}.{mod}"], attr)
            replacements[id(fn)] = self._wrap(name, fn)
        search = sys.modules[f"{package}.sharpness_search"]
        replacements[id(search._propose)] = self._count_proposals(search._propose)
        replacements[id(search._anneal)] = self._count_objective(search._anneal)

        saved = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    saved.append((module, attr, value))
                    setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, value in saved:
                setattr(module, attr, value)

    def mark(self) -> tuple[int, Counter]:
        """Position to slice spans and counters of one pass from."""
        return len(self.spans), Counter(self.counts)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, call_id, info in self.spans:
                fh.write(json.dumps([name, start, end, parent, call_id, info]) + "\n")


def self_times(spans: list[tuple], lo: int, hi: int) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [0.0] * (hi - lo)
    for k in range(lo, hi):
        _, start, end, parent, _, _ = spans[k]
        own[k - lo] += end - start
        if parent >= lo:
            own[parent - lo] -= end - start
    return own


def layer_metrics(spans: list[tuple], lo: int, hi: int, counts: Counter, out_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one pass: spans[lo:hi] plus counter deltas."""
    own = self_times(spans, lo, hi)
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    digests: defaultdict = defaultdict(set)
    exact_reports = failed_reports = 0
    theorem6 = {"exact": 0.0, "monte_carlo": 0.0}
    for k in range(lo, hi):
        name, _, _, _, _, info = spans[k]
        layer = name.split(".", 1)[0]
        calls[name] += 1
        calls[layer] += 1
        self_s[name] += own[k - lo]
        self_s[layer] += own[k - lo]
        info = info or {}
        if "digest" in info:
            digests[name].add(info["digest"])
        if name == "measures.full_report":
            exact_reports += bool(info.get("exact"))
            failed_reports += "raised" in info
        if name == "constructions.theorem6_corr" and "method" in info:
            theorem6[info["method"]] += own[k - lo]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {
        "measures.exact_scan.calls": calls["measures.exact_scan"],
        "measures.exact_scan.self_s": self_s["measures.exact_scan"],
        "measures.heuristic_scan.calls": calls["measures.heuristic_scan"],
        "measures.heuristic_scan.self_s": self_s["measures.heuristic_scan"],
        "measures.full_report.calls": calls["measures.full_report"],
        "measures.full_report.self_s": self_s["measures.full_report"],
        "measures.full_report.exact_calls": exact_reports,
        "measures.full_report.fail_ratio": ratio(failed_reports, calls["measures.full_report"]),
        "measures.full_report.distinct_ratio": ratio(
            len(digests["measures.full_report"]), calls["measures.full_report"]
        ),
        "measures.rho.calls": calls["measures.rho"],
        "measures.rho.self_s": self_s["measures.rho"],
        "measures.rho.distinct_ratio": ratio(len(digests["measures.rho"]), calls["measures.rho"]),
        "measures.event_statistic.self_s": self_s["measures.event_statistic"],
        "measures.score_correlation.self_s": self_s["measures.score_correlation"],
        "joint_pmf.calls": calls["joint_pmf"],
        "theorem_suite.fuzz.self_s": self_s["theorem_suite.fuzz"],
        "theorem_suite.check_cousin.self_s": self_s["theorem_suite.check_cousin"],
        "theorem_suite.check_csaki_fischer.self_s": self_s["theorem_suite.check_csaki_fischer"],
        "sharpness_search.proposals": counts["proposals"],
        "sharpness_search.feasible_ratio": ratio(counts["objective_evals"], counts["proposals"]),
        "sharpness_search.tensor_gap_lower_bound.self_s": self_s[
            "sharpness_search.tensor_gap_lower_bound"
        ],
        "constructions.theorem6_corr.exact_s": theorem6["exact"],
        "constructions.theorem6_corr.mc_s": theorem6["monte_carlo"],
        "constructions.lemma7_profile.self_s": self_s["constructions.lemma7_profile"],
        "cli.out_bytes": out_bytes,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
    return metrics
