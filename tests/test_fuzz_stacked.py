"""The stacked fuzz harness against the per-instance loop it replaced.

``fuzz_oracle.fuzz`` reports one matrix at a time through ``full_report``
and ``rho``; ``theorem_suite.fuzz`` draws its instances a chunk at a time
and reports each chunk's same-shape matrices through stacked kernels.
Their serialized reports must be byte-identical, and a failing check must
raise the same first error.  The stacked kernels are also checked
directly: every matrix of a stack gets the bits it gets alone.
"""

import importlib.util
import json
import re
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

import depmeasures.measures as measures
import depmeasures.theorem_suite as suite
from depmeasures import from_matrix, kron, random_joint
from depmeasures.errors import InvariantViolation, OutOfRange
from depmeasures.joint_pmf import STATE_CAP
from depmeasures.measures import KINDS, _checked_rho, _exact_scan, _spectral_parts, _spectral_rho

import fuzz_oracle

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
STYLES = ("dense", "sparse", "near_independent")


def payload(report) -> str:
    return json.dumps(report.to_jsonable(), sort_keys=True)


def assert_matches_oracle(**kwargs):
    assert payload(suite.fuzz(**kwargs)) == payload(fuzz_oracle.fuzz(**kwargs))


def benchmark_fuzz_calls(seed: int, work: Path, monkeypatch) -> list[dict]:
    """The keyword arguments of the fuzz-small workload's calls at ``seed``."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up
    spec.loader.exec_module(workloads)
    calls = []
    for op in workloads.build("fuzz-small", seed, str(work)):
        args: dict = defaultdict(list)
        flag = None
        for token in op.argv[1:]:
            if token.startswith("--"):
                flag = token[2:]
            else:
                args[flag].append(token)
        calls.append({
            "shapes": [tuple(int(x) for x in s.split("x")) for s in args["shape"]],
            "styles": args["style"],
            "count": int(args["count"][0]),
            "seed": int(args["seed"][0]),
        })
    return calls


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_benchmark_calls_match_the_oracle(seed, tmp_path, monkeypatch):
    calls = benchmark_fuzz_calls(seed, tmp_path, monkeypatch)
    assert len(calls) == 2
    for kwargs in calls:
        assert_matches_oracle(**kwargs)


@pytest.mark.parametrize("shape", [(2, 3), (3, 2), (1, 3), (2, 4), (4, 4), (5, 5)])
def test_shapes_match_the_oracle(shape):
    # 2x4, 4x4 and 5x5 join to 4x16, 16x16 and 25x25: the rho-only branch
    assert_matches_oracle(shapes=[shape], styles=STYLES, count=18, seed=sum(shape))


def test_without_pair_checks_matches_the_oracle():
    assert_matches_oracle(shapes=[(2, 2), (3, 3)], styles=STYLES, count=30, seed=4,
                          include_pair_checks=False)


@pytest.mark.parametrize("count", [0, 1, 2 * suite._FUZZ_CHUNK + 5])
def test_counts_match_the_oracle(count):
    assert_matches_oracle(shapes=[(2, 2), (3, 2)], styles=STYLES, count=count, seed=5)


def test_chunk_boundaries_match_the_oracle(monkeypatch):
    # 14 instances in chunks of 4: three boundaries, a short last chunk
    monkeypatch.setattr(suite, "_FUZZ_CHUNK", 4)
    assert_matches_oracle(shapes=[(2, 2), (3, 3)], styles=STYLES, count=14, seed=6)


def test_chunked_seed_draws_equal_one_draw():
    count = 3 * suite._FUZZ_CHUNK + 7
    whole = np.random.default_rng(1).integers(0, 2**63 - 1, size=(count, 2))
    master = np.random.default_rng(1)
    parts = [master.integers(0, 2**63 - 1, size=(min(suite._FUZZ_CHUNK, count - lo), 2))
             for lo in range(0, count, suite._FUZZ_CHUNK)]
    assert len(parts) == 4
    np.testing.assert_array_equal(np.concatenate(parts), whole)


def test_first_failure_raises_the_oracle_error(monkeypatch):
    # every witness quote now fails the witness rule: the stacked path must
    # replay instance 0 and raise exactly what the per-instance loop raises
    monkeypatch.setattr(measures, "WITNESS_TOL", -1.0)
    kwargs = dict(shapes=[(3, 3)], styles=["sparse"], count=5, seed=7)
    with pytest.raises(InvariantViolation) as want:
        fuzz_oracle.fuzz(**kwargs)
    with pytest.raises(InvariantViolation) as got:
        suite.fuzz(**kwargs)
    assert str(got.value) == str(want.value)


def test_lowest_index_failure_raises_the_oracle_error(monkeypatch):
    # a check fails on a few 9x9 joins only, the first of them well into
    # the run: both paths must raise for that join, not for a later one
    enforce = measures._enforce_report_invariants

    def picky(M, rep):
        if M.n_rows == 9 and rep.tau > 0.7:
            raise InvariantViolation(f"{M.shape} tau={rep.tau!r}")
        enforce(M, rep)

    monkeypatch.setattr(measures, "_enforce_report_invariants", picky)
    kwargs = dict(shapes=[(2, 2), (3, 3)], styles=STYLES, count=40, seed=8)
    with pytest.raises(InvariantViolation) as want:
        fuzz_oracle.fuzz(**kwargs)
    with pytest.raises(InvariantViolation) as got:
        suite.fuzz(**kwargs)
    assert str(got.value) == str(want.value)


def assert_same_first_error(**kwargs) -> str:
    """Both paths raise InvariantViolation with one message; returns it."""
    with pytest.raises(InvariantViolation) as want:
        fuzz_oracle.fuzz(**kwargs)
    with pytest.raises(InvariantViolation) as got:
        suite.fuzz(**kwargs)
    assert str(got.value) == str(want.value)
    return str(want.value)


def test_rho_failure_on_a_partner_raises_before_its_join(monkeypatch):
    # 2x4 instances join to 4x16: beyond the cap, so partner and join are
    # rho-only.  Every instance has rho <= 0.7; the first partner above it
    # fails, and so would its join (rho of the join is the larger factor
    # rho), but the partner's rho is checked first.
    checked_rho = measures._checked_rho

    def picky(q, *rest):
        res = checked_rho(q, *rest)
        if res.value > 0.7:
            raise InvariantViolation(f"{q.shape} rho={res.value!r}")
        return res

    monkeypatch.setattr(measures, "_checked_rho", picky)
    monkeypatch.setattr(suite, "_checked_rho", picky)
    kwargs = dict(shapes=[(2, 4)], styles=STYLES, count=12, seed=1)
    fuzz_oracle.fuzz(**kwargs, include_pair_checks=False)  # no instance fails
    assert assert_same_first_error(**kwargs).startswith("(2, ")


@pytest.mark.parametrize("fail_joins", [True, False])
def test_report_failure_on_a_partner_raises_after_its_join(fail_joins, monkeypatch):
    # Every 3x3 instance has tau <= 0.6; the first partner above it fails.
    # Its 9x9 join, tau at least the partner's, is checked first: with joins
    # failing too the join's error raises, else the partner's.
    enforce = measures._enforce_report_invariants

    def picky(M, rep):
        if rep.tau > 0.6 and (fail_joins or M.n_rows != 9):
            raise InvariantViolation(f"{M.shape} tau={rep.tau!r}")
        enforce(M, rep)

    monkeypatch.setattr(measures, "_enforce_report_invariants", picky)
    kwargs = dict(shapes=[(3, 3)], styles=["dense"], count=12, seed=1)
    fuzz_oracle.fuzz(**kwargs, include_pair_checks=False)  # no instance fails
    message = assert_same_first_error(**kwargs)
    assert message.startswith("(9, 9)" if fail_joins else "(3, 3)")


@pytest.mark.parametrize("joins_only", [True, False])
def test_witness_failure_deep_in_a_chunk_raises_the_oracle_error(joins_only, monkeypatch):
    # The scan's tau is moved off its witness quote by 1e-6 per column on
    # matrices whose tau lies in a narrow band, so they fail the witness
    # rule.  At this seed the first such matrix is the 9x9 join of instance
    # 19, deep in the first chunk.  With every shape moved, its partner
    # (quoted in the 3x3 stack, ahead of every join) fails too, but is
    # checked after the join.
    scan = measures._exact_scan

    def moved(entries, kinds=KINDS, witnesses=False):
        values, wit = scan(entries, kinds, witnesses)
        n_cols = entries.shape[-1]
        if "tau" in values and (n_cols == 9 or not joins_only):
            def move(t):
                return t + 1e-6 * n_cols if 0.59 < t < 0.6 else t
            taus = values["tau"]
            values["tau"] = [move(t) for t in taus] if entries.ndim == 3 else move(taus)
        return values, wit

    monkeypatch.setattr(measures, "_exact_scan", moved)
    monkeypatch.setattr(suite, "_exact_scan", moved)
    kwargs = dict(shapes=[(3, 3)], styles=STYLES, count=40, seed=8)
    fuzz_oracle.fuzz(**dict(kwargs, count=19))  # no earlier instance fails
    message = assert_same_first_error(**kwargs)
    quoted, found = re.fullmatch(r"tau witness reproduces (\S+), the exact scan found (\S+)",
                                 message).groups()
    assert float(found) - float(quoted) == pytest.approx(9e-6)  # the join's


def test_count_beyond_the_state_cap_is_rejected():
    suite.fuzz(shapes=[(2, 2)], styles=["dense"], count=0, seed=1)
    for count in (STATE_CAP + 1, 10**12):
        with pytest.raises(OutOfRange, match="count must be at most"):
            suite.fuzz(shapes=[(2, 2)], styles=["dense"], count=count, seed=1)


def test_negative_seed_is_rejected():
    with pytest.raises(OutOfRange, match="seed must be >= 0, got -1"):
        suite.fuzz(shapes=[(2, 2)], styles=["dense"], count=0, seed=-1)


def stack_cases():
    """Same-shape groups with zero-mass atoms, ties and joins mixed in."""
    rng = np.random.default_rng(41)
    groups = defaultdict(list)
    for shape in ((2, 2), (3, 3), (2, 5), (5, 2), (9, 9), (4, 16), (12, 10)):
        for style in STYLES:
            for _ in range(3):
                m = random_joint(*shape, seed=int(rng.integers(1e9)), style=style)
                groups[shape].append(m.entries)
    padded = np.zeros((3, 3))
    padded[1:, 1:] = [[0.25, 0.25], [0.25, 0.25]]
    groups[3, 3].append(from_matrix(padded).entries)
    d, o = 0.375, 0.125
    sign = from_matrix([[d, o], [o, d]])
    groups[2, 2].append(sign.entries)
    uniform = from_matrix([[0.25, 0.25], [0.25, 0.25]])
    groups[4, 4].extend([kron(sign, sign).entries, kron(sign, uniform).entries])
    return list(groups.values())


@pytest.mark.parametrize("kinds, witnesses", [(KINDS, True), (KINDS, False), (("tau",), False)])
def test_stacked_scan_gives_each_matrix_its_own_bits(kinds, witnesses):
    for group in stack_cases():
        values, wit = _exact_scan(np.array(group), kinds, witnesses)
        # one split path: asking for witnesses changes no value
        other, _ = _exact_scan(np.array(group), kinds, not witnesses)
        for i, entries in enumerate(group):
            alone, alone_wit = _exact_scan(entries, kinds, witnesses)
            for k in kinds:
                assert values[k][i] == alone[k] == other[k][i]
                if witnesses:
                    assert wit[k][i] == alone_wit[k]


def test_stacked_svds_give_each_matrix_its_own_bits():
    for group in stack_cases():
        for entries, parts in zip(group, _spectral_parts(group)):
            res, alone = _checked_rho(*parts), _spectral_rho(entries)
            assert (res.value, res.spectral) == (alone.value, alone.spectral)
            for got, want in zip(res.witness, alone.witness):
                assert got.tobytes() == want.tobytes()
