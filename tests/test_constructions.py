import itertools
import math

import numpy as np
import pytest

from depmeasures import (
    OutOfRange,
    PreconditionFailed,
    StateSpaceTooLarge,
    TooFewSamples,
    ZeroVariance,
    clt_limit_corr,
    embellish,
    event_measure,
    from_matrix,
    full_report,
    lemma7_profile,
    make_scored_base,
    orthant_prob,
    random_joint,
    rho,
    scored_base_from_jsonable,
    theorem6_corr,
    theorem6_witness_search,
    yy_pair,
)

import depmeasures.constructions as constructions
import depmeasures.sharpness_search as sharpness_search
from depmeasures.constructions import MC_MIN_SAMPLES, STATE_CAP, score_sum_law
from depmeasures.sharpness_search import tensor_gap_lower_bound
from depmeasures.theorem_suite import BOUND_TOL

from lattice_oracle import full_grid_score_sum_law
from oracles import sum_indicator_corr_bruteforce

# Root of f'' on (0, 1), computed independently with mpmath findroot.
C_ROOT_REFERENCE = 0.5401714199816521


def pm_one_base(t):
    return make_scored_base(yy_pair(t), [-1.0, 1.0], [-1.0, 1.0])


class TestYyPair:
    def test_zero_is_uniform(self):
        assert np.array_equal(yy_pair(0.0).entries, np.full((2, 2), 0.25))

    def test_one_is_perfectly_dependent(self):
        m = yy_pair(1.0)
        assert np.array_equal(m.entries, [[0.5, 0.0], [0.0, 0.5]])
        rep = full_report(m)
        assert rep.tau == pytest.approx(1.0, abs=1e-12)
        assert rep.rho == pytest.approx(1.0, abs=1e-9)

    def test_level_04_report(self):
        rep = full_report(yy_pair(0.4))
        assert rep.psi == pytest.approx(0.4, abs=1e-12)
        assert rep.tau == pytest.approx(0.4, abs=1e-12)
        assert rep.rho == pytest.approx(0.4, abs=1e-9)

    def test_domain(self):
        with pytest.raises(OutOfRange):
            yy_pair(1.2)


class TestEmbellish:
    def test_independent_base(self):
        base = from_matrix(np.outer([0.5, 0.5], [0.3, 0.7]))
        joined, checks = embellish(base, 0.3)
        assert all(c.passed for c in checks)
        assert event_measure(joined, "tau", mode="exact").value == pytest.approx(
            0.3, abs=1e-9
        )
        assert rho(joined).value == pytest.approx(0.3, abs=1e-9)

    def test_sign_pair_base_below_level(self):
        joined, checks = embellish(yy_pair(0.2), 0.5)
        assert all(c.passed for c in checks)
        assert event_measure(joined, "tau", mode="exact").value == pytest.approx(
            0.5, abs=1e-9
        )

    def test_base_at_level_forces_equality(self):
        joined, checks = embellish(yy_pair(0.35), 0.35)
        assert all(c.passed for c in checks)
        assert event_measure(joined, "tau", mode="exact").value == pytest.approx(
            0.35, abs=1e-9
        )

    def test_precondition(self):
        with pytest.raises(PreconditionFailed):
            embellish(yy_pair(0.6), 0.3)

    def test_level_domain(self):
        with pytest.raises(OutOfRange):
            embellish(yy_pair(0.1), 1.0)

    def test_rho_never_drops(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            base = random_joint(3, 3, seed=int(rng.integers(1e9)))
            tau_base = event_measure(base, "tau", mode="exact").value
            if tau_base >= 0.95:
                continue
            t = tau_base + (1 - tau_base) * 0.5
            joined, checks = embellish(base, t)
            assert all(c.passed for c in checks)
            assert rho(joined).value >= rho(base).value - 1e-9


class TestOrthant:
    def test_anchor_points_exact(self):
        assert orthant_prob(0.0) == 0.25
        assert orthant_prob(0.5) == 1 / 3
        assert orthant_prob(1.0) == 0.5

    def test_complement_symmetry(self):
        for r in np.linspace(-1, 1, 41):
            assert orthant_prob(float(r)) + orthant_prob(float(-r)) == pytest.approx(
                0.5, abs=1e-15
            )

    def test_domain(self):
        with pytest.raises(OutOfRange):
            orthant_prob(1.01)


class TestCltLimit:
    def test_endpoints(self):
        assert clt_limit_corr(0.0) == 0.0
        assert clt_limit_corr(1.0) == 1.0
        assert clt_limit_corr(0.5) == pytest.approx(1 / 3, abs=1e-15)

    def test_inverse_identity_on_grid(self):
        for t in np.linspace(0.01, 0.99, 99):
            r = math.sin(math.pi * t / 2.0)
            assert clt_limit_corr(r) == pytest.approx(float(t), abs=1e-12)

    def test_odd_and_increasing(self):
        grid = np.linspace(-1, 1, 81)
        vals = [clt_limit_corr(float(r)) for r in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        for r in grid:
            assert clt_limit_corr(float(-r)) == pytest.approx(
                -clt_limit_corr(float(r)), abs=1e-15
            )


class TestScoredBase:
    def test_sign_scores_already_normalized(self):
        sb = pm_one_base(0.4)
        assert np.array_equal(sb.g, [-1.0, 1.0])
        assert np.array_equal(sb.h, [-1.0, 1.0])
        assert sb.r == pytest.approx(0.4, abs=1e-15)

    def test_normalization_enforced(self):
        base = random_joint(3, 4, seed=2)
        sb = make_scored_base(base, [10.0, -3.0, 2.5], [0.0, 1.0, 5.0, -2.0])
        r_m = base.entries.sum(axis=1)
        c_m = base.entries.sum(axis=0)
        assert r_m @ sb.g == pytest.approx(0.0, abs=1e-12)
        assert c_m @ sb.h == pytest.approx(0.0, abs=1e-12)
        assert r_m @ sb.g**2 == pytest.approx(1.0, abs=1e-12)
        assert c_m @ sb.h**2 == pytest.approx(1.0, abs=1e-12)

    def test_non_numeric_scores_are_out_of_range(self):
        with pytest.raises(OutOfRange, match="scores must be lists of real numbers"):
            make_scored_base(yy_pair(0.5), ["x", 1.0], [-1.0, 1.0])
        with pytest.raises(OutOfRange, match="scores must be lists of real numbers"):
            make_scored_base(yy_pair(0.5), [-1.0, 1.0], [[-1.0], 1.0])

    def test_constant_scores_rejected(self):
        with pytest.raises(ZeroVariance):
            make_scored_base(yy_pair(0.2), [3.0, 3.0], [-1.0, 1.0])

    def test_rho_witness_scores_attain_rho(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            base = random_joint(4, 4, seed=int(rng.integers(1e9)))
            res = rho(base)
            if res.value <= 1e-6:
                continue
            sb = make_scored_base(base, res.witness[0], res.witness[1])
            assert abs(sb.r) == pytest.approx(res.value, abs=1e-8)

    @pytest.mark.parametrize("g", [["-1", "1"], [True, False], np.array(["-1", "1"]), ("-1", 1.0)])
    def test_text_or_bool_scores_rejected(self, g):
        with pytest.raises(OutOfRange):
            make_scored_base(yy_pair(0.5), g, [-1.0, 1.0])

    @pytest.mark.parametrize("g, h", [
        ([math.nan, 1.0], [-1.0, 1.0]),
        ([math.inf, 1.0], [-1.0, 1.0]),
        ([-1.0, 1.0], [-1.0, -math.inf]),
    ])
    def test_non_finite_scores_rejected(self, g, h):
        with pytest.raises(OutOfRange, match="scores must be finite"):
            make_scored_base(yy_pair(0.5), g, h)

    def test_overflowing_variance_rejected(self):
        with pytest.raises(OutOfRange, match="g variance overflows"):
            make_scored_base(yy_pair(0.5), [1e308, -1e308], [-1.0, 1.0])
        with pytest.raises(OutOfRange, match="h variance overflows"):
            make_scored_base(yy_pair(0.5), [-1.0, 1.0], [-1e308, 1e308])

    def test_scores_near_the_float_limit_normalize(self):
        # the square of the largest score overflows, the variance does not
        sb = make_scored_base(yy_pair(0.5), [1.5e154, 0.0], [-1.0, 1.0])
        assert np.array_equal(sb.g, [1.0, -1.0])
        with pytest.raises(ZeroVariance):
            make_scored_base(yy_pair(0.5), [1e200, 1e200], [-1.0, 1.0])

    def test_scalar_scores_rejected(self):
        with pytest.raises(OutOfRange):
            make_scored_base(yy_pair(0.5), 1.0, [-1.0, 1.0])

    def test_json_roundtrip(self):
        sb = pm_one_base(0.3)
        back = scored_base_from_jsonable(sb.to_jsonable())
        assert np.allclose(back.g, sb.g, atol=1e-12)
        assert back.r == pytest.approx(sb.r, abs=1e-12)


class TestTheorem6Corr:
    def test_n1_sign_scores_exact(self):
        est = theorem6_corr(pm_one_base(0.5), 1, method="exact")
        assert est.value == 0.5
        assert est.stderr == 0.0
        assert est.method == "exact"

    def test_n1_equals_tau_of_base(self):
        for t in (0.25, 0.4, 0.7):
            est = theorem6_corr(pm_one_base(t), 1, method="exact")
            tau = event_measure(yy_pair(t), "tau", mode="exact").value
            assert abs(est.value - tau) <= 1e-15

    def test_small_n_matches_bruteforce(self):
        sb = pm_one_base(0.4)
        for n in (1, 2, 3, 4):
            est = theorem6_corr(sb, n, method="exact")
            want = sum_indicator_corr_bruteforce(
                sb.base.entries, sb.g, sb.h, n
            )
            assert est.value == pytest.approx(want, abs=1e-12)

    def test_score_sum_law_matches_enumeration(self):
        entries = np.array([[0.1, 0.2, 0.0], [0.3, 0.0, 0.4]])
        a, b, n = np.array([-1, 2]), np.array([0, 1, -3]), 3
        law, lo_a, lo_b = score_sum_law(entries, a, b, n)
        assert law.shape == (n * 3 + 1, n * 4 + 1)
        assert (lo_a, lo_b) == (-n, -3 * n)
        want = np.zeros_like(law)
        for cells in itertools.product(np.ndindex(*entries.shape), repeat=n):
            p = math.prod(entries[c] for c in cells)
            want[sum(a[i] for i, _ in cells) - lo_a, sum(b[j] for _, j in cells) - lo_b] += p
        assert np.allclose(law, want, rtol=0.0, atol=1e-15)

    def test_score_sum_law_checks_the_grid_before_allocating(self):
        # a 2 x (10^12 + 1) grid would need 16 TB
        with pytest.raises(StateSpaceTooLarge, match="exceeds"):
            score_sum_law(yy_pair(0.5).entries, np.array([0, 1]), np.array([0, 10**12]), 1)

    def test_irrational_scores_fall_back_to_enumeration(self):
        base = random_joint(2, 2, seed=4)
        res = rho(base)
        sb = make_scored_base(base, res.witness[0], res.witness[1])
        est = theorem6_corr(sb, 3, method="exact")
        want = sum_indicator_corr_bruteforce(sb.base.entries, sb.g, sb.h, 3)
        assert est.value == pytest.approx(want, abs=1e-12)

    def test_state_cap(self):
        base = random_joint(3, 3, seed=5)
        res = rho(base)
        sb = make_scored_base(base, res.witness[0], res.witness[1])
        with pytest.raises(StateSpaceTooLarge):
            theorem6_corr(sb, 64, method="exact")

    def test_sign_pair_lattice_beyond_state_cap(self):
        # the full grid has 3201^2 > STATE_CAP cells, though the sign pair's
        # sums fill only one cell in two on each side
        sb = pm_one_base(0.5)
        with pytest.raises(StateSpaceTooLarge, match="lattice grid 3201x3201"):
            theorem6_corr(sb, 1600, method="exact")
        est = theorem6_corr(sb, 1600, method="auto", samples=MC_MIN_SAMPLES, seed=1)
        assert est.method == "monte_carlo"

    def test_mc_requires_samples_and_seed(self):
        sb = pm_one_base(0.5)
        with pytest.raises(TooFewSamples):
            theorem6_corr(sb, 4, method="monte_carlo", samples=10, seed=1)
        with pytest.raises(PreconditionFailed):
            theorem6_corr(sb, 4, method="monte_carlo", samples=5000)

    def test_mc_negative_seed(self):
        sb = pm_one_base(0.5)
        with pytest.raises(OutOfRange, match="seed must be >= 0, got -5"):
            theorem6_corr(sb, 4, method="monte_carlo", samples=5000, seed=-5)

    def test_mc_deterministic_and_accurate(self):
        sb = pm_one_base(0.5)
        a = theorem6_corr(sb, 8, method="monte_carlo", samples=200_000, seed=6)
        b = theorem6_corr(sb, 8, method="monte_carlo", samples=200_000, seed=6)
        assert a.value == b.value and a.stderr == b.stderr
        exact = theorem6_corr(sb, 8, method="exact")
        assert abs(a.value - exact.value) <= 4 * a.stderr

    def test_mc_stderr_consistent_across_seeds(self):
        sb = pm_one_base(0.5)
        exact = theorem6_corr(sb, 16, method="exact").value
        estimates = [
            theorem6_corr(sb, 16, method="monte_carlo", samples=20_000, seed=s)
            for s in range(30)
        ]
        spread = np.std([e.value for e in estimates])
        typical_stderr = np.median([e.stderr for e in estimates])
        assert spread <= 3 * typical_stderr
        assert typical_stderr <= 3 * max(spread, 1e-6)
        assert abs(np.mean([e.value for e in estimates]) - exact) <= 3 * typical_stderr

    def test_independent_scores_give_zero(self):
        base = from_matrix(np.outer([0.5, 0.5], [0.5, 0.5]))
        sb = make_scored_base(base, [-1.0, 1.0], [-1.0, 1.0])
        est = theorem6_corr(sb, 6, method="exact")
        assert est.value == pytest.approx(0.0, abs=1e-12)
        mc = theorem6_corr(sb, 6, method="monte_carlo", samples=100_000, seed=7)
        assert abs(mc.value) <= 3 * mc.stderr + 1e-9

    def test_auto_falls_back_to_mc(self):
        base = random_joint(3, 3, seed=8)
        res = rho(base)
        sb = make_scored_base(base, res.witness[0], res.witness[1])
        est = theorem6_corr(sb, 64, method="auto", samples=5000, seed=9)
        assert est.method == "monte_carlo"


def lattice_gcd(entries, scores, axis):
    """gcd of the positive-mass atoms' distances from the smallest such score."""
    kept = scores[entries.sum(axis=axis) > 0.0]
    return math.gcd(*(int(x) for x in kept - kept.min()))


def same_law(got, want):
    law, lo_a, lo_b = got
    ref, ref_a, ref_b = want
    return law.shape == ref.shape and law.tobytes() == ref.tobytes() and (lo_a, lo_b) == (ref_a, ref_b)


def even_scored_3x3():
    """Marginals (1/8, 3/4, 1/8), under which scores (-1, 0, 1) normalize to (-2, 0, 2)."""
    marg = np.array([1 / 8, 3 / 4, 1 / 8])
    corner = np.array([[1.0, 0.0, -1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 1.0]])
    sb = make_scored_base(from_matrix(np.outer(marg, marg) + corner / 128), [-1, 0, 1], [-1, 0, 1])
    assert np.array_equal(sb.g, [-2.0, 0.0, 2.0]) and np.array_equal(sb.h, [-2.0, 0.0, 2.0])
    return sb


class TestScoreSumSublattice:
    """The sublattice convolution against the full-grid oracle, bit for bit."""

    def test_seeded_sweep_is_bit_identical(self):
        rng = np.random.default_rng(20)
        gcds = set()
        for _ in range(400):
            n_rows, n_cols = (int(k) for k in rng.integers(1, 5, size=2))
            entries = rng.random((n_rows, n_cols)) * (rng.random((n_rows, n_cols)) > 0.3)
            if not entries.any():
                entries[0, 0] = 1.0
            entries /= entries.sum()
            a = rng.integers(-3, 4, size=n_rows) * int(rng.choice([1, 2, 3, 5, 6]))
            b = rng.integers(-3, 4, size=n_cols) * int(rng.choice([1, 2, 5]))
            n = int(rng.integers(1, 7))
            gcds.add(lattice_gcd(entries, a, 1))
            gcds.add(lattice_gcd(entries, b, 0))
            assert same_law(score_sum_law(entries, a, b, n), full_grid_score_sum_law(entries, a, b, n))
        assert {1, 2, 5} <= gcds

    @pytest.mark.parametrize(
        "entries, a, b",
        [
            # a zero-mass atom carries the smallest score on each side
            ([[0.0, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]], [-7, 0, 4], [-9, 2, 6]),
            # a zero-mass row whose score (0.3 at scale 10) is off the sublattice
            ([[0.25, 0.25], [0.0, 0.0], [0.25, 0.25]], [-10, 3, 10], [-1, 1]),
            # a point mass: every offset is equal
            ([[0.0, 0.0], [0.0, 1.0]], [-2, 3], [1, 5]),
            # a zero-mass atom carries the largest score
            ([[0.5, 0.0], [0.5, 0.0]], [0, 4], [-1, 8]),
        ],
        ids=["zero-mass-minimum", "zero-mass-off-lattice", "point-mass", "zero-mass-maximum"],
    )
    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_zero_mass_atoms_keep_the_full_grid(self, entries, a, b, n):
        entries, a, b = np.array(entries), np.array(a), np.array(b)
        assert same_law(score_sum_law(entries, a, b, n), full_grid_score_sum_law(entries, a, b, n))

    @pytest.mark.parametrize(
        "sb, n",
        [
            (pm_one_base(0.4), 128),
            (even_scored_3x3(), 64),
            (
                make_scored_base(
                    from_matrix([[0.25, 0.25], [0.0, 0.0], [0.25, 0.25]]), [-1.0, 0.3, 1.0], [-1.0, 1.0]
                ),
                9,
            ),
        ],
        ids=["sign-pair", "3x3-even-scores", "off-lattice-zero-row"],
    )
    def test_theorem6_value_unchanged(self, monkeypatch, sb, n):
        got = theorem6_corr(sb, n, method="exact").value
        monkeypatch.setattr(constructions, "score_sum_law", full_grid_score_sum_law)
        assert got == theorem6_corr(sb, n, method="exact").value

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_tensor_gap_unchanged(self, monkeypatch, seed):
        m = random_joint(3, 3, seed=seed)
        got = tensor_gap_lower_bound(m, n_max=3)
        monkeypatch.setattr(sharpness_search, "score_sum_law", full_grid_score_sum_law)
        assert got == tensor_gap_lower_bound(m, n_max=3)


class TestWitnessSearch:
    def test_sign_pair_gated_out(self):
        # r = t < sin((pi/2) t) on (0, 1): the scan cannot help
        sb = pm_one_base(0.5)
        assert theorem6_witness_search(0.5, sb, 8, method="exact") is None

    def test_precondition_tau_equals_t(self):
        sb = pm_one_base(0.5)
        with pytest.raises(PreconditionFailed):
            theorem6_witness_search(0.3, sb, 4, method="exact")

    def test_domain_checks(self):
        sb = pm_one_base(0.5)
        with pytest.raises(OutOfRange):
            theorem6_witness_search(0.0, sb, 4)
        with pytest.raises(OutOfRange):
            theorem6_witness_search(0.5, sb, 0)

    def test_hit_reported_when_gate_open(self):
        # Synthetic scored base: tau = t but the score correlation exceeds
        # sin((pi/2) t) because the scores see a finer structure.
        base = yy_pair(0.2)
        sb_forced = make_scored_base(base, [-1.0, 1.0], [-1.0, 1.0])
        object.__setattr__(sb_forced, "r", 0.9)  # force the gate open
        hit = theorem6_witness_search(0.2, sb_forced, 2, method="exact")
        # the true correlations stay at 0.2-level, so no n can win
        assert hit is None


    def test_no_hit_from_float_noise_at_n_one(self):
        # At n = 1 the indicator correlation is tau(base) = t in exact
        # arithmetic; the exact lattice read it 6.9e-18 above t.
        marg = np.array([1 / 8, 3 / 4, 1 / 8])
        corner = np.array([[1.0, 0.0, -1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 1.0]])
        base = from_matrix(np.outer(marg, marg) + 0.32203486496116707 / 64 * corner)
        sb = make_scored_base(base, [-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0])
        t = event_measure(base, "tau", mode="exact").value
        assert theorem6_witness_search(t, sb, 1, method="exact") is None
        hit = theorem6_witness_search(t, sb, 3, method="exact")
        assert hit is not None and hit.n == 2
        assert hit.check.slack > BOUND_TOL
        assert hit.check.tolerance == BOUND_TOL


class TestLemma7:
    def test_profile_at_aceptance_resolution(self):
        prof = lemma7_profile(100_000)
        assert prof.grid_min > 0.0
        assert abs(prof.c_root - C_ROOT_REFERENCE) <= 1e-9
        assert prof.endpoint_checks["f_at_1"] == 0.0
        assert abs(prof.endpoint_checks["fprime_at_1"]) <= 1e-12
        assert prof.sign_pattern["negative_below_root"]
        assert prof.sign_pattern["positive_above_root"]

    def test_grid_min_decreases_with_resolution(self):
        coarse = lemma7_profile(1000)
        fine = lemma7_profile(100_000)
        assert fine.grid_min < coarse.grid_min
        assert fine.grid_min > 0.0

    def test_minimum_resolution(self):
        with pytest.raises(OutOfRange):
            lemma7_profile(999)

    def test_grid_bounded_by_state_cap(self):
        with pytest.raises(OutOfRange):
            lemma7_profile(STATE_CAP + 1)
