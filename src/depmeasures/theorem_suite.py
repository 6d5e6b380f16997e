"""Inequality and equality checkers over concrete finite instances.

Each checker evaluates both sides of one proved relation between the
dependence measures and records the outcome as data (a CheckResult), never
as an exception: a failing check on a valid instance means an
implementation bug somewhere, and the fuzz harness exists to hunt for
exactly that.  Relations covered:

  * the chain lambda <= tau <= rho <= psi and the doubling tau <= 2*lambda;
  * rho <= tau * sqrt(1 - log tau) when the row field has two atoms;
  * rho <= tau * (1 - log tau) unrestricted;
  * rho of an independent join equals the max of the factor rhos;
  * tau of an independent join is at most max(tau_1, psi_2), with the
    embedding lower bound max(tau_1, tau_2) as a companion.

The join checkers also record (without asserting) the experimental gap
tau(join) - max(tau_1, rho_2), evidence for whether psi can be weakened
to rho in the join upper bound -- an open question.
"""

from __future__ import annotations

import dataclasses
import math
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvariantViolation, OutOfRange, ShapeError, TooLargeForExact
from .joint_pmf import STATE_CAP, EventPair, JointPMF, _check_seed, kron, kron_all, random_joint
from .measures import CHAIN_TOL, KINDS, DependenceReport, RhoResult, full_report, within_exact_cap
from .measures import _checked_rho, _exact_scan, _quoted, _report, _spectral_parts, rho as _rho

BOUND_TOL = 1e-9
SPECTRAL_EQ_TOL = 1e-8
# Results kept per check name in a fuzz report's near-sharp list.
_NEAR_SHARP_PER_CHECK = 10
# Instances fuzz draws, reports and ranks at a time: its memory follows this.
_FUZZ_CHUNK = 64


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one inequality instance: lhs <= rhs within tolerance."""

    check_name: str
    lhs: float
    rhs: float
    slack: float
    passed: bool
    tolerance: float
    instance_digest: dict
    witness: EventPair | None = None

    def to_jsonable(self) -> dict:
        out = {
            "check_name": self.check_name,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "pass": self.passed,
            "tolerance": self.tolerance,
            "instance_digest": self.instance_digest,
        }
        out["witness"] = self.witness.to_jsonable() if self.witness else None
        return out


@dataclass(frozen=True)
class FuzzReport:
    """Aggregate of a fuzz run: failures are data, not errors."""

    total: int
    failures: list[CheckResult]
    near_sharp: list[CheckResult]
    rng_seed: int

    def to_jsonable(self) -> dict:
        return {
            "total": self.total,
            "failures": [r.to_jsonable() for r in self.failures],
            "near_sharp": [r.to_jsonable() for r in self.near_sharp],
            "rng_seed": self.rng_seed,
        }


def _result(
    name: str,
    lhs: float,
    rhs: float,
    tol: float,
    digest: dict,
    witness: EventPair | None = None,
) -> CheckResult:
    lhs, rhs = float(lhs), float(rhs)
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise InvariantViolation(f"{name}: non-finite sides lhs={lhs} rhs={rhs}")
    slack = rhs - lhs
    return CheckResult(
        check_name=name,
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        passed=slack >= -tol,
        tolerance=tol,
        instance_digest=dict(digest),
        witness=witness,
    )


# ---------------------------------------------------------------------------
# Bound functions (0 * (1 - log 0) read as 0)
# ---------------------------------------------------------------------------


def tau_log_bound(t: float) -> float:
    """t * (1 - log t), the unrestricted upper bound for rho at tau = t."""
    if not -1e-12 <= t <= 1.0 + 1e-9:
        raise OutOfRange(f"t must be in [0, 1], got {t!r}")
    if t <= 0.0:
        return 0.0
    return t * (1.0 - math.log(t))


def tau_sqrt_log_bound(t: float) -> float:
    """t * sqrt(1 - log t), the two-atom upper bound for rho at tau = t."""
    if not -1e-12 <= t <= 1.0 + 1e-9:
        raise OutOfRange(f"t must be in [0, 1], got {t!r}")
    if t <= 0.0:
        return 0.0
    return t * math.sqrt(1.0 - math.log(t))


# ---------------------------------------------------------------------------
# Individual checkers
# ---------------------------------------------------------------------------


def _shape_digest(M: JointPMF, **extra) -> dict:
    d = {"shape": [M.n_rows, M.n_cols]}
    d.update(extra)
    return d


def _chain_results(rep: DependenceReport, digest: dict) -> list[CheckResult]:
    return [
        _result("lambda<=tau", rep.lam, rep.tau, CHAIN_TOL, digest, rep.tau_witness),
        _result("tau<=rho", rep.tau, rep.rho, CHAIN_TOL, digest, rep.tau_witness),
        _result("rho<=psi", rep.rho, rep.psi, CHAIN_TOL, digest, rep.psi_witness),
        _result("tau<=2*lambda", rep.tau, 2.0 * rep.lam, CHAIN_TOL, digest, rep.lambda_witness),
    ]


def check_chain(M: JointPMF, digest: dict | None = None) -> list[CheckResult]:
    """The elementary chain and doubling inequalities on one instance."""
    rep = full_report(M, mode="exact")
    return _chain_results(rep, digest or _shape_digest(M))


def _two_atom_result(rep: DependenceReport, digest: dict) -> CheckResult:
    return _result(
        "rho<=tau*sqrt(1-log tau)",
        rep.rho,
        tau_sqrt_log_bound(min(rep.tau, 1.0)),
        BOUND_TOL,
        digest,
        rep.tau_witness,
    )


def check_two_atom_bound(M: JointPMF, digest: dict | None = None) -> CheckResult:
    """Two-atom row field: rho at most tau * sqrt(1 - log tau)."""
    if M.n_rows != 2:
        raise ShapeError(f"two-atom bound needs exactly 2 rows, got {M.n_rows}")
    rep = full_report(M, mode="exact")
    return _two_atom_result(rep, digest or _shape_digest(M))


def _peyre_result(rep: DependenceReport, digest: dict) -> CheckResult:
    return _result(
        "rho<=tau*(1-log tau)",
        rep.rho,
        tau_log_bound(min(rep.tau, 1.0)),
        BOUND_TOL,
        digest,
        rep.tau_witness,
    )


def check_peyre_bound(M: JointPMF, digest: dict | None = None) -> CheckResult:
    """Unrestricted sharp bound: rho at most tau * (1 - log tau)."""
    rep = full_report(M, mode="exact")
    return _peyre_result(rep, digest or _shape_digest(M))


def _pair_digest(M1: JointPMF, M2: JointPMF, digest: dict | None) -> dict:
    return digest or {"shape1": [M1.n_rows, M1.n_cols], "shape2": [M2.n_rows, M2.n_cols]}


def _csaki_results(r1: float, r2: float, rk: float, digest: dict) -> list[CheckResult]:
    d = dict(digest)
    d.update({"rho1": r1, "rho2": r2, "rho_kron": rk})
    target = max(r1, r2)
    return [
        _result("rho(kron)<=max(rho1,rho2)", rk, target, SPECTRAL_EQ_TOL, d),
        _result("rho(kron)>=max(rho1,rho2)", target, rk, SPECTRAL_EQ_TOL, d),
    ]


def check_csaki_fischer(
    M1: JointPMF, M2: JointPMF, digest: dict | None = None
) -> list[CheckResult]:
    """Independent join: rho(join) equals max(rho_1, rho_2).

    Emitted as two one-sided results at the spectral tolerance.
    """
    joined = kron(M1, M2)
    r1 = _rho(M1).value
    r2 = _rho(M2).value
    rk = _rho(joined).value
    return _csaki_results(r1, r2, rk, _pair_digest(M1, M2, digest))


def _cousin_results(
    repk: DependenceReport, rep1: DependenceReport, rep2: DependenceReport, digest: dict
) -> list[CheckResult]:
    d = dict(digest)
    d.update(
        {
            "tau1": rep1.tau,
            "tau2": rep2.tau,
            "psi2": rep2.psi,
            "tau_kron": repk.tau,
            # evidence only: can psi_2 be weakened to rho_2?  not asserted
            "rho_replacement_gap": repk.tau - max(rep1.tau, rep2.rho),
        }
    )
    return [
        _result(
            "tau(kron)<=max(tau1,psi2)",
            repk.tau,
            max(rep1.tau, rep2.psi),
            BOUND_TOL,
            d,
            repk.tau_witness,
        ),
        _result(
            "tau(kron)>=max(tau1,tau2)",
            max(rep1.tau, rep2.tau),
            repk.tau,
            BOUND_TOL,
            d,
            repk.tau_witness,
        ),
    ]


def check_cousin(
    M1: JointPMF, M2: JointPMF, digest: dict | None = None
) -> list[CheckResult]:
    """Independent join: tau(join) <= max(tau_1, psi_2), plus embedding bound.

    The companion result asserts tau(join) >= max(tau_1, tau_2), which holds
    because each factor's events embed into the join.  The digest records
    the non-asserted gap tau(join) - max(tau_1, rho_2).  The join's report
    comes first: it raises TooLargeForExact when the join is beyond the cap.
    """
    repk = full_report(kron(M1, M2), mode="exact")
    rep1 = full_report(M1, mode="exact")
    rep2 = full_report(M2, mode="exact")
    return _cousin_results(repk, rep1, rep2, _pair_digest(M1, M2, digest))


def check_cousin_multi(Ms: Sequence[JointPMF], digest: dict | None = None) -> CheckResult:
    """Iterated join: tau(join of all) <= max(tau_1, max over n>=2 of psi_n)."""
    if not Ms:
        raise ShapeError("need at least one factor")
    repk = full_report(kron_all(list(Ms)), mode="exact")
    reps = [full_report(M, mode="exact") for M in Ms]
    rhs = reps[0].tau
    for rep in reps[1:]:
        rhs = max(rhs, rep.psi)
    d = digest or {"shapes": [[M.n_rows, M.n_cols] for M in Ms]}
    d = dict(d)
    d.update({"tau_join": repk.tau, "bound": rhs})
    return _result(
        "tau(join)<=max(tau1,max psi_n)", repk.tau, rhs, BOUND_TOL, d, repk.tau_witness
    )


# ---------------------------------------------------------------------------
# Fuzz harness
# ---------------------------------------------------------------------------


def fuzz(
    shapes: Sequence[tuple[int, int]],
    styles: Sequence[str],
    count: int,
    seed: int,
    include_pair_checks: bool = True,
) -> FuzzReport:
    """Run every applicable checker on ``count`` generated instances.

    Instances cycle deterministically through the shape x style grid; per
    instance seeds derive from the master seed, so identical arguments give
    identical reports.  Failing results re-embed their matrices in the
    digest for replay.  ``count`` is at most ``STATE_CAP``.  Instances are
    drawn, scored and ranked a chunk at a time: the arithmetic runs stacked
    (:func:`_chunk_parts`), then every check runs per matrix in the order of
    one report at a time, so the first failing check raises at its turn.
    """
    shapes = [(int(a), int(b)) for a, b in shapes]
    if not shapes or not styles:
        raise OutOfRange("need at least one shape and one style")
    if count < 0:
        raise OutOfRange(f"count must be >= 0, got {count}")
    if count > STATE_CAP:
        raise OutOfRange(f"count must be at most {STATE_CAP}, got {count}")
    for n_rows, n_cols in shapes:
        if not within_exact_cap(n_rows, n_cols):
            raise TooLargeForExact(f"shape {n_rows}x{n_cols} beyond exact caps")
    master = np.random.default_rng(_check_seed(seed))
    grid = [(sh, st) for st in styles for sh in shapes]
    total = 0
    failures: list[CheckResult] = []
    near: list[CheckResult] = []

    for lo in range(0, count, _FUZZ_CHUNK):
        # Drawn chunk by chunk, the seeds are the rows of one (count, 2) draw.
        seeds = master.integers(0, 2**63 - 1, size=(min(_FUZZ_CHUNK, count - lo), 2))
        cases = []
        for idx, (seed_a, seed_b) in enumerate(seeds.tolist(), start=lo):
            (n_rows, n_cols), style = grid[idx % len(grid)]
            m_a = random_joint(n_rows, n_cols, seed_a, style)
            m_b = random_joint(n_rows, n_cols, seed_b, style) if include_pair_checks else None
            digest = {"index": idx, "shape": [n_rows, n_cols], "style": style, "seed": seed_a}
            joined = kron(m_a, m_b) if m_b is not None else None
            cases.append((digest, seed_b, m_a, m_b, joined))
        parts = _chunk_parts(cases)
        results: list[CheckResult] = []
        for digest, seed_b, m_a, m_b, joined in cases:
            rep = _checked(m_a, parts)
            batch = _chain_results(rep, digest)
            batch.append(_peyre_result(rep, digest))
            if m_a.n_rows == 2:
                batch.append(_two_atom_result(rep, digest))
            if m_b is not None:
                pair_digest = dict(digest, seed2=seed_b)
                if within_exact_cap(*joined.shape):  # join, then partner
                    repk, rep_b = _checked(joined, parts), _checked(m_b, parts)
                    batch.extend(_csaki_results(rep.rho, rep_b.rho, repk.rho, pair_digest))
                    batch.extend(_cousin_results(repk, rep, rep_b, pair_digest))
                else:
                    rho_b, rho_k = _checked(m_b, parts).value, _checked(joined, parts).value
                    batch.extend(_csaki_results(rep.rho, rho_b, rho_k, pair_digest))
            results.extend(batch)
            for res in batch:
                if not res.passed:
                    embedded = dict(res.instance_digest, matrix=m_a.to_jsonable()["matrix"])
                    if m_b is not None and "seed2" in embedded:
                        embedded["matrix2"] = m_b.to_jsonable()["matrix"]
                    failures.append(dataclasses.replace(res, instance_digest=embedded))
        total += len(results)
        near = _near_sharp(near + results)

    return FuzzReport(total=total, failures=failures, near_sharp=near, rng_seed=int(seed))


def _chunk_parts(cases: list[tuple]) -> dict:
    """The unchecked parts of every matrix of a chunk, keyed by the matrix: its
    exact scan (None for a partner and join beyond the exact caps) and its
    :func:`_spectral_parts` entry.  Matrices of one kind and shape form a stack.
    """
    stacks: defaultdict = defaultdict(list)
    for _, _, m_a, m_b, joined in cases:
        stacks[True, m_a.shape].append(m_a)
        if m_b is not None:
            exact = within_exact_cap(*joined.shape)
            stacks[exact, m_b.shape].append(m_b)
            stacks[exact, joined.shape].append(joined)
    parts = {}
    for (exact, _), Ms in stacks.items():
        entries = [M.entries for M in Ms]
        values, wits = _exact_scan(np.array(entries), KINDS, witnesses=True) if exact else ({}, {})
        for i, (M, spectral) in enumerate(zip(Ms, _spectral_parts(entries))):
            scan = {k: v[i] for k, v in values.items()}, {k: w[i] for k, w in wits.items()}
            parts[M] = (scan if exact else None, spectral)
    return parts


def _checked(M: JointPMF, parts: dict) -> DependenceReport | RhoResult:
    """M's exact report with every check :func:`full_report` runs, in its
    order, or its checked :func:`rho` where its parts hold no scan.  The
    parts are consumed, so a chunk's memory falls as its checks run."""
    scan, spectral = parts.pop(M)
    if scan is None:
        return _checked_rho(*spectral)
    values, wit = scan
    values = _quoted(M, values, wit, True)
    return _report(M, values, wit, "exact", _checked_rho(*spectral))


def _near_sharp(results: list[CheckResult]) -> list[CheckResult]:
    """The ``_NEAR_SHARP_PER_CHECK`` smallest slacks of each check, sorted by
    (slack, check name, index): a total order, so cuts chunk by chunk agree."""
    results.sort(key=lambda res: (res.slack, res.check_name, res.instance_digest["index"]))
    kept: Counter = Counter()
    near: list[CheckResult] = []
    for res in results:
        if kept[res.check_name] < _NEAR_SHARP_PER_CHECK:
            kept[res.check_name] += 1
            near.append(res)
    return near

