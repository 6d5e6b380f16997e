import json
import math

import numpy as np
import pytest

from depmeasures import (
    ShapeError,
    TooLargeForExact,
    check_chain,
    check_cousin,
    check_cousin_multi,
    check_csaki_fischer,
    check_peyre_bound,
    check_two_atom_bound,
    from_matrix,
    fuzz,
    random_joint,
    tau_log_bound,
    tau_sqrt_log_bound,
    yy_pair,
)
from depmeasures.errors import OutOfRange


def outer(r, c):
    return from_matrix(np.outer(np.asarray(r), np.asarray(c)))


class TestBoundFunctions:
    def test_zero_convention(self):
        assert tau_log_bound(0.0) == 0.0
        assert tau_sqrt_log_bound(0.0) == 0.0

    def test_strictly_increasing_on_grid(self):
        ts = np.linspace(0.0, 1.0, 400)
        for bound in (tau_log_bound, tau_sqrt_log_bound):
            vals = [bound(float(t)) for t in ts]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_value_at_one(self):
        assert tau_log_bound(1.0) == 1.0
        assert tau_sqrt_log_bound(1.0) == 1.0

    def test_domain_checked(self):
        with pytest.raises(OutOfRange):
            tau_log_bound(1.5)
        with pytest.raises(OutOfRange):
            tau_sqrt_log_bound(-0.2)


class TestChain:
    def test_sign_pair_doubling_is_tight(self):
        results = check_chain(yy_pair(0.6))
        assert all(r.passed for r in results)
        doubling = next(r for r in results if r.check_name == "tau<=2*lambda")
        assert doubling.slack == pytest.approx(0.0, abs=1e-12)

    def test_outer_product_all_zero(self):
        results = check_chain(outer([0.3, 0.7], [0.5, 0.2, 0.3]))
        for r in results:
            assert r.passed
            assert r.lhs == pytest.approx(0.0, abs=1e-12)

    def test_random_fuzz_no_failures(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            m = random_joint(4, 4, seed=int(rng.integers(1e9)))
            assert all(r.passed for r in check_chain(m))


class TestTwoAtomBound:
    def test_sign_pair_half(self):
        res = check_two_atom_bound(yy_pair(0.5))
        assert res.passed
        assert res.lhs == pytest.approx(0.5, abs=1e-9)
        assert res.rhs == pytest.approx(0.6506049455237689, abs=1e-12)

    def test_two_row_outer_product(self):
        res = check_two_atom_bound(outer([0.4, 0.6], [0.2, 0.3, 0.5]))
        assert res.passed
        assert res.lhs <= 1e-9
        assert res.rhs <= 1e-7

    def test_shape_enforced(self):
        with pytest.raises(ShapeError):
            check_two_atom_bound(random_joint(3, 3, seed=1))

    def test_random_two_row_instances(self):
        rng = np.random.default_rng(2)
        for trial in range(500):
            m = random_joint(2, 6, seed=int(rng.integers(1e9)),
                             style="sparse" if trial % 2 else "dense")
            assert check_two_atom_bound(m).passed


class TestPeyreBound:
    def test_sign_pair_slack_formula(self):
        for t in (0.2, 0.5, 0.8):
            res = check_peyre_bound(yy_pair(t))
            assert res.passed
            assert res.slack == pytest.approx(t * (1 - math.log(t)) - t, abs=1e-9)

    def test_outer_product(self):
        res = check_peyre_bound(outer([0.5, 0.5], [0.1, 0.9]))
        assert res.passed

    def test_random_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            m = random_joint(5, 5, seed=int(rng.integers(1e9)))
            assert check_peyre_bound(m).passed


class TestCsakiFischer:
    def test_sign_pair_factors(self):
        results = check_csaki_fischer(yy_pair(0.3), yy_pair(0.6))
        assert all(r.passed for r in results)
        assert results[0].instance_digest["rho_kron"] == pytest.approx(0.6, abs=1e-8)

    def test_independent_second_factor(self):
        m1 = random_joint(3, 3, seed=4)
        from depmeasures import rho

        results = check_csaki_fischer(m1, outer([0.5, 0.5], [0.5, 0.5]))
        assert all(r.passed for r in results)
        assert results[0].instance_digest["rho_kron"] == pytest.approx(
            rho(m1).value, abs=1e-8
        )

    def test_random_pairs(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(50):
            m1 = random_joint(int(rng.integers(2, 5)), int(rng.integers(2, 5)),
                              seed=int(rng.integers(1e9)))
            m2 = random_joint(int(rng.integers(2, 5)), int(rng.integers(2, 5)),
                              seed=int(rng.integers(1e9)))
            results = check_csaki_fischer(m1, m2)
            assert all(r.passed for r in results)
            worst = max(worst, abs(results[0].slack))
        assert worst <= 1e-8


class TestCousin:
    def test_independent_second_factor_squeezes(self):
        m1 = yy_pair(0.45)
        results = check_cousin(m1, outer([0.3, 0.7], [0.6, 0.4]))
        upper, lower = results
        assert upper.passed and lower.passed
        assert upper.instance_digest["tau_kron"] == pytest.approx(0.45, abs=1e-9)

    def test_matched_sign_pairs(self):
        results = check_cousin(yy_pair(0.5), yy_pair(0.5))
        upper, lower = results
        assert upper.passed and lower.passed
        assert upper.instance_digest["tau_kron"] == pytest.approx(0.5, abs=1e-9)

    def test_records_rho_replacement_gap(self):
        results = check_cousin(yy_pair(0.2), yy_pair(0.4))
        assert "rho_replacement_gap" in results[0].instance_digest

    def test_random_pairs_upper_and_lower(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            m1 = random_joint(3, 3, seed=int(rng.integers(1e9)))
            m2 = random_joint(3, 3, seed=int(rng.integers(1e9)))
            upper, lower = check_cousin(m1, m2)
            assert upper.passed
            assert lower.passed

    def test_size_guard(self):
        with pytest.raises(TooLargeForExact):
            check_cousin(random_joint(4, 4, seed=7), random_joint(4, 4, seed=8))


class TestCousinMulti:
    def test_three_sign_pairs(self):
        res = check_cousin_multi([yy_pair(0.5)] * 3)
        assert res.passed
        assert res.instance_digest["tau_join"] == pytest.approx(0.5, abs=1e-9)

    def test_single_factor_trivial(self):
        res = check_cousin_multi([random_joint(3, 3, seed=9)])
        assert res.passed

    def test_no_factors(self):
        with pytest.raises(ShapeError, match="at least one factor"):
            check_cousin_multi([])

    def test_random_triples(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            ms = [random_joint(2, 2, seed=int(rng.integers(1e9))) for _ in range(3)]
            assert check_cousin_multi(ms).passed


class TestFuzz:
    def test_empty_run(self):
        rep = fuzz(shapes=[(3, 3)], styles=["dense"], count=0, seed=1)
        assert rep.total == 0
        assert rep.failures == []
        assert rep.near_sharp == []

    def test_negative_count_rejected(self):
        with pytest.raises(OutOfRange, match="count"):
            fuzz(shapes=[(3, 3)], styles=["dense"], count=-5, seed=1)

    def test_no_shapes_rejected(self):
        with pytest.raises(OutOfRange, match="at least one shape"):
            fuzz([], ["dense"], 1, 1)

    def test_seed_must_be_an_integer(self):
        # 2.9 once ran as seed 2
        for seed in (2.9, True):
            with pytest.raises(OutOfRange, match="seed must be an integer"):
                fuzz(shapes=[(2, 2)], styles=["dense"], count=1, seed=seed)
        want = fuzz(shapes=[(2, 2)], styles=["dense"], count=3, seed=2).to_jsonable()
        got = fuzz(shapes=[(2, 2)], styles=["dense"], count=3, seed=np.int32(2))
        assert got.rng_seed == 2 and type(got.rng_seed) is int
        assert got.to_jsonable() == want

    def test_deterministic(self):
        a = fuzz(shapes=[(3, 3), (2, 4)], styles=["dense", "sparse"], count=40, seed=11)
        b = fuzz(shapes=[(3, 3), (2, 4)], styles=["dense", "sparse"], count=40, seed=11)
        assert json.dumps(a.to_jsonable(), sort_keys=True) == json.dumps(
            b.to_jsonable(), sort_keys=True
        )

    def test_no_failures_on_valid_instances(self):
        rep = fuzz(shapes=[(4, 4)], styles=["dense"], count=200, seed=12,
                   include_pair_checks=False)
        assert rep.failures == []
        assert rep.total == 200 * 5  # 4 chain + 1 peyre per instance

    def test_two_atom_check_included_for_two_rows(self):
        rep = fuzz(shapes=[(2, 3)], styles=["dense"], count=10, seed=13,
                   include_pair_checks=False)
        names = {r.check_name for r in rep.near_sharp}
        assert "rho<=tau*sqrt(1-log tau)" in names

    def test_near_sharp_sorted(self):
        rep = fuzz(shapes=[(3, 3)], styles=["dense"], count=50, seed=14)
        slacks = [r.slack for r in rep.near_sharp]
        assert slacks == sorted(slacks)

    def test_pair_checks_present(self):
        rep = fuzz(shapes=[(2, 2)], styles=["dense"], count=10, seed=15)
        names = {r.check_name for r in rep.near_sharp}
        assert "rho(kron)<=max(rho1,rho2)" in names
        assert "tau(kron)<=max(tau1,psi2)" in names

    def test_shape_cap(self):
        with pytest.raises(TooLargeForExact):
            fuzz(shapes=[(20, 2)], styles=["dense"], count=1, seed=16)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4, 4)])
    def test_pair_results_match_the_public_checkers(self, shape):
        # fuzz reuses each factor's report; its pair results must equal
        # what the public checkers compute from scratch
        count, seed = 3, 18
        rep = fuzz(shapes=[shape], styles=["sparse"], count=count, seed=seed)
        seeds = np.random.default_rng(seed).integers(0, 2**63 - 1, size=(count, 2))
        expected = []
        for idx, (seed_a, seed_b) in enumerate(seeds):
            m_a = random_joint(*shape, int(seed_a), "sparse")
            m_b = random_joint(*shape, int(seed_b), "sparse")
            digest = {"index": idx, "shape": list(shape), "style": "sparse",
                      "seed": int(seed_a), "seed2": int(seed_b)}
            expected += check_csaki_fischer(m_a, m_b, digest)
            if shape != (4, 4):  # 16x16 join: beyond the exact caps
                expected += check_cousin(m_a, m_b, digest)
        def key(res):
            return res.check_name, res.instance_digest["index"]

        got = [r for r in rep.near_sharp if "seed2" in r.instance_digest]
        assert sorted(got, key=key) == sorted(expected, key=key)

    def test_failures_embed_matrices_for_replay(self, monkeypatch):
        import depmeasures.theorem_suite as suite

        def broken_peyre(rep, digest):
            return suite._result("rho<=tau*(1-log tau)", 1.0, 0.0, 1e-9, digest,
                                 rep.tau_witness)

        monkeypatch.setattr(suite, "_peyre_result", broken_peyre)
        rep = suite.fuzz(shapes=[(3, 3)], styles=["dense"], count=3, seed=17,
                         include_pair_checks=False)
        assert rep.failures
        for res in rep.failures:
            assert not res.passed
            matrix = res.instance_digest["matrix"]
            assert len(matrix) == 3 and len(matrix[0]) == 3

    def test_failing_pair_check_embeds_both_matrices(self, monkeypatch):
        import depmeasures.theorem_suite as suite

        def broken_csaki(r1, r2, rk, digest):
            return [suite._result("rho(kron)<=max(rho1,rho2)", 1.0, 0.0, 1e-9, digest)]

        monkeypatch.setattr(suite, "_csaki_results", broken_csaki)
        rep = suite.fuzz(shapes=[(2, 3)], styles=["sparse"], count=2, seed=23)
        assert [res.instance_digest["index"] for res in rep.failures] == [0, 1]
        for res in rep.failures:
            d = res.instance_digest
            assert d["matrix"] == random_joint(2, 3, d["seed"], "sparse").to_jsonable()["matrix"]
            assert d["matrix2"] == random_joint(2, 3, d["seed2"], "sparse").to_jsonable()["matrix"]
