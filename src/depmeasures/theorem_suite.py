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
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvariantViolation, OutOfRange, ShapeError, TooLargeForExact
from .joint_pmf import EventPair, JointPMF, kron, kron_all, random_joint
from .measures import CHAIN_TOL, DependenceReport, full_report, rho as _rho, within_exact_cap

BOUND_TOL = 1e-9
SPECTRAL_EQ_TOL = 1e-8
# Results kept per check name in a fuzz report's near-sharp list.
_NEAR_SHARP_PER_CHECK = 10


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
    digest for replay.
    """
    shapes = [(int(a), int(b)) for a, b in shapes]
    if not shapes or not styles:
        raise OutOfRange("need at least one shape and one style")
    if count < 0:
        raise OutOfRange(f"count must be >= 0, got {count}")
    for n_rows, n_cols in shapes:
        if not within_exact_cap(n_rows, n_cols):
            raise TooLargeForExact(f"shape {n_rows}x{n_cols} beyond exact caps")
    master = np.random.default_rng(int(seed))
    inst_seeds = master.integers(0, 2**63 - 1, size=(max(count, 1), 2))

    grid = [(sh, st) for st in styles for sh in shapes]
    results: list[CheckResult] = []
    failures: list[CheckResult] = []

    for idx in range(count):
        (n_rows, n_cols), style = grid[idx % len(grid)]
        seed_a, seed_b = int(inst_seeds[idx, 0]), int(inst_seeds[idx, 1])
        m_a = random_joint(n_rows, n_cols, seed_a, style)
        digest = {
            "index": idx,
            "shape": [n_rows, n_cols],
            "style": style,
            "seed": seed_a,
        }
        rep = full_report(m_a, mode="exact")
        batch = _chain_results(rep, digest)
        batch.append(_peyre_result(rep, digest))
        if n_rows == 2:
            batch.append(_two_atom_result(rep, digest))
        m_b: JointPMF | None = None
        if include_pair_checks:
            m_b = random_joint(n_rows, n_cols, seed_b, style)
            pair_digest = dict(digest)
            pair_digest["seed2"] = seed_b
            joined = kron(m_a, m_b)
            if within_exact_cap(*joined.shape):
                repk = full_report(joined, mode="exact")
                rep_b = full_report(m_b, mode="exact")
                batch.extend(_csaki_results(rep.rho, rep_b.rho, repk.rho, pair_digest))
                batch.extend(_cousin_results(repk, rep, rep_b, pair_digest))
            else:
                rho_b, rho_k = _rho(m_b).value, _rho(joined).value
                batch.extend(_csaki_results(rep.rho, rho_b, rho_k, pair_digest))
        results.extend(batch)
        for res in batch:
            if not res.passed:
                embedded = dict(res.instance_digest, matrix=m_a.to_jsonable()["matrix"])
                if m_b is not None and "seed2" in embedded:
                    embedded["matrix2"] = m_b.to_jsonable()["matrix"]
                failures.append(dataclasses.replace(res, instance_digest=embedded))

    # The _NEAR_SHARP_PER_CHECK smallest slacks of each check, in one sort.
    results.sort(key=lambda res: (res.slack, res.check_name, res.instance_digest["index"]))
    kept: Counter = Counter()
    near: list[CheckResult] = []
    for res in results:
        if kept[res.check_name] < _NEAR_SHARP_PER_CHECK:
            kept[res.check_name] += 1
            near.append(res)

    return FuzzReport(
        total=len(results), failures=failures, near_sharp=near, rng_seed=int(seed)
    )
