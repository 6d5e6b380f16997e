"""The per-instance fuzz loop, kept as a test oracle.

This is the loop ``theorem_suite.fuzz`` ran before it scored each chunk's
same-shape matrices as one stack: the whole seed array drawn at once, one
``full_report`` (or ``rho``) call per matrix in the order instance, join,
partner, and the near-sharp list cut from one sort of every result.  The
stacked harness must return the same report, byte for byte once
serialized, and raise the same first error.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Sequence

import numpy as np

from depmeasures.errors import OutOfRange, TooLargeForExact
from depmeasures.joint_pmf import JointPMF, kron, random_joint
from depmeasures.measures import full_report, rho, within_exact_cap
from depmeasures.theorem_suite import (
    _NEAR_SHARP_PER_CHECK,
    CheckResult,
    FuzzReport,
    _chain_results,
    _cousin_results,
    _csaki_results,
    _peyre_result,
    _two_atom_result,
)


def fuzz(
    shapes: Sequence[tuple[int, int]],
    styles: Sequence[str],
    count: int,
    seed: int,
    include_pair_checks: bool = True,
) -> FuzzReport:
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
                rho_b, rho_k = rho(m_b).value, rho(joined).value
                batch.extend(_csaki_results(rep.rho, rho_b, rho_k, pair_digest))
        results.extend(batch)
        for res in batch:
            if not res.passed:
                embedded = dict(res.instance_digest, matrix=m_a.to_jsonable()["matrix"])
                if m_b is not None and "seed2" in embedded:
                    embedded["matrix2"] = m_b.to_jsonable()["matrix"]
                failures.append(dataclasses.replace(res, instance_digest=embedded))

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
