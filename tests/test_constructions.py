import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from depmeasures import (
    InvariantViolation,
    OutOfRange,
    PreconditionFailed,
    ShapeError,
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
from mc_oracle import mc_corr
from oracles import sum_indicator_corr_bruteforce, sum_indicator_corr_rational

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

    def test_correlation_outside_its_range(self):
        with pytest.raises(OutOfRange, match=r"r must be in \[-1, 1\]"):
            clt_limit_corr(1.5)


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
        with pytest.raises(OutOfRange, match="row scores must be real numbers"):
            make_scored_base(yy_pair(0.5), ["x", 1.0], [-1.0, 1.0])
        with pytest.raises(OutOfRange, match="column scores must be real numbers"):
            make_scored_base(yy_pair(0.5), [-1.0, 1.0], [[-1.0], 1.0])

    def test_score_count_not_matching_the_side_is_a_shape_error(self):
        with pytest.raises(ShapeError, match=r"row scores have shape \(3,\), M has 2 row atoms"):
            make_scored_base(yy_pair(0.5), [-1.0, 0.0, 1.0], [-1.0, 1.0])
        with pytest.raises(ShapeError, match=r"column scores have shape \(1,\), M has 2 column atoms"):
            make_scored_base(yy_pair(0.5), [-1.0, 1.0], [1.0])

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

    @pytest.mark.parametrize("g", [["-1", "1"], [True, False], np.array(["-1", "1"]), ("-1", 1.0),
                                   np.array([1j, 1.0]), [np.complex128(-1), 1.0]])
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

    @pytest.mark.parametrize("big", [1e11, 1e100, 1e160, 1e200, -1e308])
    def test_zero_mass_atom_does_not_decide_the_normalization(self, big):
        # the empty row's score once raised ZeroVariance (1e11, 1e100) or
        # OutOfRange (1e160 and up): 0 * inf in its variance term gave nan
        m = from_matrix([[0.3, 0.2], [0.1, 0.4], [0.0, 0.0]])
        want = make_scored_base(m, [-1, 1, 0], [-1, 1])
        got = make_scored_base(m, [-1, 1, big], [-1, 1])
        assert np.array_equal(got.g[:2], want.g[:2]) and np.array_equal(got.h, want.h) and got.r == want.r
        assert theorem6_corr(got, 5, method="exact") == theorem6_corr(want, 5, method="exact")
        assert make_scored_base(from_matrix(m.entries.T), [-1, 1], [-1, 1, big]).r == got.r

    def test_zero_mass_score_overflowing_once_scaled_rejected(self):
        # scores +-0.01 have standard deviation 0.01, so 1e308 scales past the float range
        m = from_matrix([[0.3, 0.2], [0.2, 0.3], [0.0, 0.0]])
        with pytest.raises(OutOfRange, match="g of a zero-mass atom overflows"):
            make_scored_base(m, [-0.01, 0.01, 1e308], [-1, 1])

    def test_scalar_scores_rejected(self):
        with pytest.raises(ShapeError, match=r"row scores have shape \(\)"):
            make_scored_base(yy_pair(0.5), 1.0, [-1.0, 1.0])

    def test_json_roundtrip(self):
        sb = pm_one_base(0.3)
        back = scored_base_from_jsonable(sb.to_jsonable())
        assert np.allclose(back.g, sb.g, atol=1e-12)
        assert back.r == pytest.approx(sb.r, abs=1e-12)

    def test_json_without_scores(self):
        with pytest.raises(OutOfRange, match="lacks keys"):
            scored_base_from_jsonable({"matrix": [[0.5, 0.0], [0.0, 0.5]]})


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
        a, b, n = np.array([0, 3]), np.array([3, 4, 0]), 3
        law = score_sum_law(entries, a, b, n)
        assert law.shape == (n * 3 + 1, n * 4 + 1)
        want = np.zeros_like(law)
        for cells in itertools.product(np.ndindex(*entries.shape), repeat=n):
            p = math.prod(entries[c] for c in cells)
            want[sum(a[i] for i, _ in cells), sum(b[j] for _, j in cells)] += p
        assert np.allclose(law, want, rtol=0.0, atol=1e-15)

    def test_score_sum_law_checks_the_grid_before_allocating(self):
        # a 2 x (10^12 + 1) grid would need 16 TB
        with pytest.raises(StateSpaceTooLarge, match="exceeds"):
            score_sum_law(yy_pair(0.5).entries, np.array([0, 1]), np.array([0, 10**12]), 1)

    def test_irrational_scores_read_by_type(self):
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
        # the step grid has 3163^2 > STATE_CAP cells: the sign pair's sums
        # move in steps of 2, one step a copy, so a side has n + 1 cells
        sb = pm_one_base(0.5)
        with pytest.raises(StateSpaceTooLarge, match="lattice grid 3163x3163"):
            theorem6_corr(sb, 3162, method="exact")
        est = theorem6_corr(sb, 3162, method="auto", samples=MC_MIN_SAMPLES, seed=1)
        assert est.method == "monte_carlo"

    def test_two_level_path_holds_one_step_grid(self):
        # the upper walk is the one step-grid array; the law of K and the
        # lower walk are held one draw count at a time
        n = 1000
        tracemalloc.start()
        try:
            theorem6_corr(pm_one_base(0.45), n, method="exact")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * (n + 1) ** 2 * 8

    def test_masses_are_divided_by_their_total(self):
        # a total of 1 + 5e-10 passes validation; read as probabilities, it
        # drifted the value by about n times 5e-10
        scaled = from_matrix(yy_pair(0.5).entries * (1.0 + 5e-10))
        assert math.fsum(scaled.entries.ravel()) != 1.0
        sb = make_scored_base(scaled, [-1.0, 1.0], [-1.0, 1.0])
        assert abs(theorem6_corr(sb, 1, method="exact").value - 0.5) <= 1e-15
        want = theorem6_corr(pm_one_base(0.5), 384, method="exact").value
        got = theorem6_corr(sb, 384, method="exact").value
        assert abs(got - want) <= 1e-14 * want

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

    def test_mc_seed_must_be_an_integer(self):
        sb = pm_one_base(0.5)
        for seed in (1.5, True):
            with pytest.raises(OutOfRange, match="seed must be an integer"):
                theorem6_corr(sb, 4, method="monte_carlo", samples=5000, seed=seed)
        want = theorem6_corr(sb, 4, method="monte_carlo", samples=5000, seed=3)
        assert theorem6_corr(sb, 4, method="monte_carlo", samples=5000, seed=np.int64(3)) == want

    def test_bad_n_or_method(self):
        sb = pm_one_base(0.5)
        with pytest.raises(OutOfRange, match="n must be >= 1"):
            theorem6_corr(sb, 0)
        with pytest.raises(OutOfRange, match="unknown method"):
            theorem6_corr(sb, 1, method="bogus")

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


# Masses (1/3, 2/3) on each side center the scores (-1, 1) to (-4/3, 2/3),
# which normalize to (-sqrt 2, sqrt 2 / 2): no common denominator, but each
# side is (-2, 1) times its smallest |score|, and -2k + (n - k) ties at 0.
THIRDS = [[0.2, 0.1333333333333333], [0.1333333333333333, 0.5333333333333333]]


def one_lattice_side_base():
    """Rows on the lattice (-2, 1); the column scores share no lattice, so
    that side is read by its type."""
    m = np.outer([1 / 3, 2 / 3], [0.25, 0.35, 0.4]) + [[0.02, 0.0, -0.02], [-0.02, 0.0, 0.02]]
    return make_scored_base(from_matrix(m), [-1, 1], [0, 1, math.sqrt(2)])


def snap_band_base(d):
    """Scores (-1, 1) on both sides of a 2x2 base with row masses 0.5 +- d."""
    return make_scored_base(from_matrix([[0.3 + d, 0.2], [0.25, 0.25 - d]]), [-1, 1], [-1, 1])


def centred_signs(masses):
    """Scores (-1, 1) centred under the float masses, as exact Fractions."""
    mean = sum(Fraction(float(w)) * x for w, x in zip(masses, (-1, 1)))
    return [x - mean for x in (-1, 1)]


def thirds_base():
    return make_scored_base(from_matrix(THIRDS), [-1, 1], [-1, 1])


class TestExactTies:
    """A score sum that is 0 in exact arithmetic counts as not positive."""

    @pytest.mark.parametrize("n", [3, 6, 9])
    def test_exact_matches_rational_oracle(self, n):
        sb = thirds_base()
        want = sum_indicator_corr_rational(sb.base.entries, [-2, 1], [-2, 1], n)
        assert theorem6_corr(sb, n, method="exact").value == pytest.approx(want, abs=1e-12)

    def test_mc_within_4_stderr(self):
        sb = thirds_base()
        want = sum_indicator_corr_rational(sb.base.entries, [-2, 1], [-2, 1], 3)
        est = theorem6_corr(sb, 3, method="monte_carlo", samples=10**6, seed=1)
        assert abs(est.value - want) <= 4 * est.stderr

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_lattice_snap_band(self, n):
        # Scores within 1e-9 of a lattice of denominator <= 10^4 (after
        # dividing by the least |score|) are snapped, and ties count on the
        # snapped steps.  Row masses 0.5 +- 2^-34 put the rows inside that
        # band, on (-1, 1), and the columns on (-9, 11); at 1e-7 no lattice
        # is found and the float scores are read exactly.  The two readings
        # differ by the tie mass: 0.0659878 against 0.0722724 at n = 2.
        inside, outside = (snap_band_base(d) for d in (2.0**-34, 1e-7))
        want = sum_indicator_corr_rational(inside.base.entries, [-1, 1], [-9, 11], n)
        assert abs(theorem6_corr(inside, n, method="exact").value - want) <= 1e-14
        e = outside.base.entries
        want = sum_indicator_corr_rational(e, centred_signs(e.sum(axis=1)), centred_signs(e.sum(axis=0)), n)
        assert abs(theorem6_corr(outside, n, method="exact").value - want) <= 1e-14

    def test_one_side_on_its_lattice(self):
        sb = one_lattice_side_base()
        steps, first = constructions._lattice(sb.g, sb.base.entries.sum(axis=1), 6)
        # -2k + (6 - k) > 0 needs k >= 5 copies at the upper level
        assert steps.tolist() == [0, 1] and first == 5
        assert constructions._lattice(sb.h, sb.base.entries.sum(axis=0), 6) is None
        want = sum_indicator_corr_rational(sb.base.entries, [-2, 1], sb.h, 6)
        assert theorem6_corr(sb, 6, method="exact").value == pytest.approx(want, abs=1e-12)

    def test_grid_message_names_each_side(self):
        # 216 lattice step sums by 215 * 216 + 1 type cells: the first n past the cap
        sb = one_lattice_side_base()
        masses = sb.base.entries.sum(axis=1), sb.base.entries.sum(axis=0)
        kinds, widths, _ = zip(*(constructions._side(x, w, 214) for x, w in zip((sb.g, sb.h), masses)))
        assert kinds == ("lattice", "type") and math.prod(widths) <= STATE_CAP
        with pytest.raises(StateSpaceTooLarge, match="^lattice x type grid 216x46441 exceeds"):
            theorem6_corr(sb, 215, method="exact")

    @pytest.mark.parametrize("n", [3, 4])
    def test_wide_lattice_read_by_type(self, n):
        # raw scores (-4999, 1, 5000) under masses (1/4, 1/2, 1/4) center to
        # (-19999, 1, 19997) / 4: steps (0, 5000, 9999) of 4 units each.  At
        # n = 3 their 29998 step sums are wider than the 13 of the type grid.
        # At n = 4 the type (1 low, 2 mid, 1 high) ties at 0, and its sign is
        # decided on the lattice steps, not on the rounded float scores
        marg = np.array([0.25, 0.5, 0.25])
        corner = np.array([[1.0, 0.0, -1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 1.0]])
        sb = make_scored_base(from_matrix(np.outer(marg, marg) + corner / 64), [-4999, 1, 5000], [-4999, 1, 5000])
        lat = constructions._lattice(sb.g, marg, n)
        assert lat[0].tolist() == [0, 5000, 9999] and lat[1] == 5000 * n
        kind, width, read = constructions._side(sb.g, marg, n)
        assert kind == "type" and width == n * (n + 1) + 1 and read()[0].tolist() == [0, 1, n + 1]
        want = sum_indicator_corr_rational(sb.base.entries, [-19999, 1, 19997], [-19999, 1, 19997], n)
        assert theorem6_corr(sb, n, method="exact").value == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 6, 9])
    def test_zero_mass_atom_does_not_decide_the_lattice(self, n):
        # the empty row's score, pi, is off any lattice; the other rows
        # center to (-4/3, 2/3), so the row side has steps (0, 1)
        m = [[0.2, 0.13333333333333333], [0.3, 0.36666666666666664], [0.0, 0.0]]
        sb = make_scored_base(from_matrix(m), [-1, 1, math.pi], [-1, 1])
        steps, _ = constructions._lattice(sb.g, sb.base.entries.sum(axis=1), n)
        assert steps.tolist() == [0, 1, 0]
        want = sum_indicator_corr_rational(sb.base.entries, [-2, 1, 0], [-1, 1], n)
        assert abs(theorem6_corr(sb, n, method="exact").value - want) <= 1e-14 * abs(want)


def float_scores(scores):
    """The normalized float scores as exact Fractions, for the rational oracle."""
    return [Fraction(float(x)) for x in scores]


class TestTypeReading:
    """A side off its lattice, or on one wider than its type grid, is read by
    its type: how many draws sit at each distinct positive-mass score, each
    type's sign decided exactly, on the lattice steps where the side has a
    lattice, else on the scores' exact binary values."""

    @pytest.mark.parametrize("n", [12, 20])
    def test_random_2x2_matches_rational_oracle(self, n):
        sb = make_scored_base(random_joint(2, 2, seed=0), [-1, 1], [-1, 1])
        assert constructions._lattice(sb.g, sb.base.entries.sum(axis=1), n) is None
        want = sum_indicator_corr_rational(sb.base.entries, float_scores(sb.g), float_scores(sb.h), n)
        assert abs(theorem6_corr(sb, n, method="exact").value - want) <= 1e-12

    def test_random_2x2_reaches_the_state_cap(self):
        # two types a side: n + 1 step sums, and the two-level path
        sb = make_scored_base(random_joint(2, 2, seed=0), [-1, 1], [-1, 1])
        est = theorem6_corr(sb, 3161, method="exact")
        assert abs(est.value - clt_limit_corr(sb.r)) <= 1e-4
        with pytest.raises(StateSpaceTooLarge, match="^type grid 3163x3163 exceeds"):
            theorem6_corr(sb, 3162, method="exact")

    @pytest.mark.parametrize("n", [8, 9])
    def test_random_3x3_matches_rational_oracle(self, n):
        sb = make_scored_base(random_joint(3, 3, seed=0), [-1, 0, 1], [-1, 0, 1])
        want = sum_indicator_corr_rational(sb.base.entries, float_scores(sb.g), float_scores(sb.h), n)
        assert abs(theorem6_corr(sb, n, method="exact").value - want) <= 1e-12

    def test_many_scores_at_small_n_run_monte_carlo(self):
        # 14 scores a side: a type grid of 2^12 + 1 cells at n = 1
        base = random_joint(14, 14, seed=1)
        sb = make_scored_base(base, *rho(base).witness)
        with pytest.raises(StateSpaceTooLarge, match="^type grid 4097x4097 exceeds"):
            theorem6_corr(sb, 1, method="exact")
        assert theorem6_corr(sb, 1, samples=MC_MIN_SAMPLES, seed=1).method == "monte_carlo"

    def test_grid_checked_before_allocating(self):
        # three scores off any lattice at n = 10^6: about 10^12 type cells a side
        sb = make_scored_base(random_joint(3, 3, seed=0), [-1, 0, math.sqrt(2)], [-1, 0, math.sqrt(3)])
        tracemalloc.start()
        try:
            with pytest.raises(StateSpaceTooLarge, match="^type grid 1000001000001x1000001000001 exceeds"):
                theorem6_corr(sb, 10**6, method="exact")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    @pytest.mark.parametrize("n", [5, 40])
    @pytest.mark.parametrize("seed", range(5))
    def test_split_atom_keeps_the_value(self, seed, n):
        # row 0 split into copies of 0.3 and 0.7 of its mass, both scored -1
        m = random_joint(2, 2, seed=seed).entries
        split = from_matrix(np.vstack([0.3 * m[0], 0.7 * m[0], m[1]]))
        want = theorem6_corr(make_scored_base(from_matrix(m), [-1, 1], [-1, 1]), n, method="exact").value
        got = theorem6_corr(make_scored_base(split, [-1, -1, 1], [-1, 1]), n, method="exact").value
        assert abs(got - want) <= 1e-13


MC_BASES = {
    "sign-pair": lambda: pm_one_base(0.5),
    "corner-3x3": lambda: even_scored_3x3(),  # the clt-theorem6 benchmark's base
    "irregular-3x4": lambda: make_scored_base(
        random_joint(3, 4, seed=12), [-1.3, 0.2, 2.7], [0.5, -1.1, 3.3, 0.05]
    ),
}


class TestMcPool:
    """The thread pool returns the serial loop's bits, whatever the CPUs."""

    @pytest.mark.parametrize("samples", [1000, 65_536, 65_537, 10**6 + 3])
    @pytest.mark.parametrize("name", sorted(MC_BASES))
    def test_equals_serial_oracle(self, monkeypatch, name, samples):
        sb = MC_BASES[name]()
        want = mc_corr(sb, 12, samples, 5)
        streams = -(-samples // constructions.MC_STREAM_SIZE)
        pools = []

        class Recording(constructions.ThreadPoolExecutor):
            # one task per worker, however many streams
            def __init__(self, max_workers):
                pools.append([max_workers, 0])
                super().__init__(max_workers=max_workers)

            def submit(self, fn, *args):
                pools[-1][1] += 1
                return super().submit(fn, *args)

        monkeypatch.setattr(constructions, "ThreadPoolExecutor", Recording)
        for cpus in (1, streams + 3):
            monkeypatch.setattr(constructions.os, "sched_getaffinity", lambda pid, k=cpus: set(range(k)))
            assert constructions._mc_corr(sb, 12, samples, 5) == want
        assert pools == [[1, 1], [streams, streams]]

    def test_estimate_is_the_serial_one(self):
        sb = even_scored_3x3()
        est = theorem6_corr(sb, 6, method="monte_carlo", samples=70_000, seed=3)
        assert (est.value, est.stderr) == mc_corr(sb, 6, 70_000, 3)


class TestMcMasses:
    """Masses numpy's sampler would reject are rescaled; no others are."""

    @pytest.mark.parametrize("matrix", [
        [[0.3, 0.2], [0.5000000004, 0.0]],  # leading cells sum above 1 + 1e-12
        [[5e-11, 5e-11], [5e-11, 1.00000000005]],  # a mass above 1
    ])
    def test_valid_base_samples(self, matrix):
        sb = make_scored_base(from_matrix(matrix), [-1, 1], [-1, 1])
        est = theorem6_corr(sb, 4, method="monte_carlo", samples=2000, seed=1)
        assert -1.0 <= est.value <= 1.0 and math.isfinite(est.stderr)

    def test_sampled_masses_keep_their_stream(self):
        # leading cells sum to 1 + 1e-13, within numpy's slack: the masses
        # reach the sampler unchanged, as before the rescaling rule
        sb = make_scored_base(from_matrix([[0.3, 0.2], [0.5 + 1e-13, 0.0]]), [-1, 1], [-1, 1])
        assert math.fsum(sb.base.entries.ravel()[:-1]) > 1.0
        assert constructions._mc_corr(sb, 4, 2000, 1) == mc_corr(sb, 4, 2000, 1)


class TestIntegerRule:
    """Counts and sizes are integers (booleans excluded), else OutOfRange."""

    @pytest.mark.parametrize("bad", [2.5, 4.0, True, "4"])
    def test_theorem6_n(self, bad):
        with pytest.raises(OutOfRange, match="n must be an integer"):
            theorem6_corr(pm_one_base(0.5), bad)

    @pytest.mark.parametrize("bad", [5000.5, 5000.0, True])
    def test_theorem6_samples(self, bad):
        with pytest.raises(OutOfRange, match="samples must be an integer"):
            theorem6_corr(pm_one_base(0.5), 4, method="monte_carlo", samples=bad, seed=1)

    def test_numpy_integers_become_ints(self):
        est = theorem6_corr(pm_one_base(0.5), np.int64(4), method="monte_carlo",
                            samples=np.int32(5000), seed=1)
        assert type(est.n) is int and type(est.samples) is int
        assert est == theorem6_corr(pm_one_base(0.5), 4, method="monte_carlo", samples=5000, seed=1)

    @pytest.mark.parametrize("kwargs, name", [
        ({"n_max": 2.5}, "n_max"),
        ({"n_max": True}, "n_max"),
        ({"n_max": 2, "samples": 1e5}, "samples"),
    ])
    def test_witness_search(self, kwargs, name):
        with pytest.raises(OutOfRange, match=f"{name} must be an integer"):
            theorem6_witness_search(0.5, pm_one_base(0.5), **kwargs)

    @pytest.mark.parametrize("bad", [1000.0, True])
    def test_lemma7_grid_points(self, bad):
        with pytest.raises(OutOfRange, match="grid_points must be an integer"):
            lemma7_profile(bad)
        assert type(lemma7_profile(np.int64(1000)).grid_points) is int


def same_law(got, want):
    law, lo_a, lo_b = got
    ref, ref_a, ref_b = want
    return law.shape == ref.shape and law.tobytes() == ref.tobytes() and (lo_a, lo_b) == (ref_a, ref_b)


def sublattice_steps(entries, scores, axis):
    """(low, d, steps) of integer scores: the positive-mass atoms score
    low + d * step, d the gcd of their distances from low; zero-mass atoms
    get step 0."""
    kept = entries.sum(axis=axis) > 0.0
    low = int(scores[kept].min())
    d = math.gcd(*(int(x) for x in scores[kept] - low)) or 1
    return low, d, np.where(kept, (scores - low) // d, 0)


def int_lattice(entries, scores, axis, n):
    """(steps, first) of integer scores: a sum of n draws is positive
    exactly when its step sum is at least first."""
    low, d, steps = sublattice_steps(entries, scores, axis)
    return steps, max((-n * low) // d + 1, 0)


def scattered_law(entries, a, b, n):
    """The step law of the reduced integer scores ``a``, ``b``, scattered
    with stride d into their full grid: (law, lo_a, lo_b) as the full-grid
    oracle returns it."""
    low_a, d_a, step_a = sublattice_steps(entries, a, 1)
    low_b, d_b, step_b = sublattice_steps(entries, b, 0)
    law = score_sum_law(entries, step_a, step_b, n)
    amin, bmin = int(a.min()), int(b.min())
    full = np.zeros((n * (int(a.max()) - amin) + 1, n * (int(b.max()) - bmin) + 1))
    o_a, o_b = n * (low_a - amin), n * (low_b - bmin)
    full[o_a : o_a + d_a * (law.shape[0] - 1) + 1 : d_a, o_b : o_b + d_b * (law.shape[1] - 1) + 1 : d_b] = law
    return full, n * amin, n * bmin


def full_grid_step_law(entries, a, b, n):
    """The full-grid oracle in :func:`score_sum_law`'s signature."""
    return full_grid_score_sum_law(entries, a, b, n)[0]


def full_grid_scan(monkeypatch):
    """Make the tensor-gap search convolve and scan the full grid of its
    integer scores, less their smallest, as it did before its sides were
    reduced to steps."""
    monkeypatch.setattr(sharpness_search, "_steps", lambda ints, kept: (int(ints.min()), 1, ints - ints.min()))
    monkeypatch.setattr(sharpness_search, "score_sum_law", full_grid_step_law)


def even_scored_3x3():
    """Marginals (1/8, 3/4, 1/8), under which scores (-1, 0, 1) normalize to (-2, 0, 2)."""
    marg = np.array([1 / 8, 3 / 4, 1 / 8])
    corner = np.array([[1.0, 0.0, -1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 1.0]])
    sb = make_scored_base(from_matrix(np.outer(marg, marg) + corner / 128), [-1, 0, 1], [-1, 0, 1])
    assert np.array_equal(sb.g, [-2.0, 0.0, 2.0]) and np.array_equal(sb.h, [-2.0, 0.0, 2.0])
    return sb


def three_by_four_scored():
    """Centered scores (-1, 0, 1) and (-3, -1, 1, 3): three and four levels."""
    rows, cols = np.array([1 / 4, 1 / 2, 1 / 4]), np.array([1 / 8, 3 / 8, 3 / 8, 1 / 8])
    bend = np.array([[1.0, 0.0, 0.0, -1.0], [0.0, 0.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 1.0]]) / 64
    return make_scored_base(from_matrix(np.outer(rows, cols) + bend), [-1, 0, 1], [-3, -1, 1, 3])


class TestScoreSumSublattice:
    """The step-grid convolution, scattered back onto the full grid of the
    integer scores, against the full-grid oracle, bit for bit."""

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
            gcds.add(sublattice_steps(entries, a, 1)[1])
            gcds.add(sublattice_steps(entries, b, 0)[1])
            assert same_law(scattered_law(entries, a, b, n), full_grid_score_sum_law(entries, a, b, n))
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
        assert same_law(scattered_law(entries, a, b, n), full_grid_score_sum_law(entries, a, b, n))

    @pytest.mark.parametrize(
        "sb, n",
        [(even_scored_3x3(), 64), (three_by_four_scored(), 24)],
        ids=["3x3-even-scores", "3x4-three-and-four-levels"],
    )
    def test_theorem6_value_unchanged(self, monkeypatch, sb, n):
        # neither side has two score levels, so the joint law is used
        got = theorem6_corr(sb, n, method="exact").value
        monkeypatch.setattr(constructions, "score_sum_law", full_grid_step_law)
        assert got == theorem6_corr(sb, n, method="exact").value

    @pytest.mark.parametrize("rows, cols, seed", [(3, 3, 1), (3, 3, 2), (3, 3, 3), (2, 5, 1)])
    def test_tensor_gap_unchanged(self, monkeypatch, rows, cols, seed):
        m = random_joint(rows, cols, seed=seed)
        got = tensor_gap_lower_bound(m, n_max=3)
        full_grid_scan(monkeypatch)
        assert got == pytest.approx(tensor_gap_lower_bound(m, n_max=3), rel=1e-13, abs=1e-15)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("rows, cols, seed", [(3, 3, 1), (3, 3, 2), (2, 3, 1), (2, 5, 1), (2, 6, 4)])
    def test_threshold_family_on_the_step_grid(self, monkeypatch, rows, cols, seed, n):
        # the scan on each side's steps finds the full grid's best threshold
        # pair; its block sums, without the zero cells between steps, move
        # in the last bits only
        entries = random_joint(rows, cols, seed=seed).entries
        heights = []

        def spy(entries, a, b, n):
            law = score_sum_law(entries, a, b, n)
            heights.append(law.shape[0])
            return law

        monkeypatch.setattr(sharpness_search, "score_sum_law", spy)
        got = sharpness_search._threshold_family_bound(entries, n)
        if rows == 2:
            assert heights == [n + 1]  # a two-valued side has n + 1 step sums
        full_grid_scan(monkeypatch)
        want = sharpness_search._threshold_family_bound(entries, n)
        assert want > 0.05
        assert abs(got - want) <= 1e-13 * want


# Masses (1/4, 3/4) center the row scores (-1, 1) to (-3, 1) / 2, and
# (1/4, 1/2, 1/4) the column scores (-1, 0, 2) to (-5, -1, 7) / 4.
TWO_BY_THREE = [[1 / 8, 1 / 16, 1 / 16], [1 / 8, 7 / 16, 3 / 16]]


def law_unused(*args):
    raise AssertionError("a side with two score levels needs no joint law")


def full_grid_probs(entries, a, b, n):
    """(qa, qb, q11) read off the full-grid joint law of the score sums."""
    law, lo_a, lo_b = full_grid_score_sum_law(entries, a, b, n)
    pos_a = np.arange(law.shape[0]) + lo_a > 0
    pos_b = np.arange(law.shape[1]) + lo_b > 0
    return float(law[pos_a].sum()), float(law[:, pos_b].sum()), float(law[np.ix_(pos_a, pos_b)].sum())


class TestTwoLevelPath:
    """A side whose positive-mass scores take two values fixes its sum by
    its level count; the other side's law is conditioned on that count."""

    @pytest.mark.parametrize("n", [16, 33, 64])
    @pytest.mark.parametrize("t", [0.2, 0.37, 0.5, 0.8, 0.93])
    def test_sign_pair_matches_rational_oracle(self, monkeypatch, t, n):
        sb = pm_one_base(t)
        monkeypatch.setattr(constructions, "score_sum_law", law_unused)
        got = theorem6_corr(sb, n, method="exact").value
        want = sum_indicator_corr_rational(sb.base.entries, [-1, 1], [-1, 1], n)
        assert abs(got - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("n", [5, 12])
    def test_transpose_gives_the_same_value(self, monkeypatch, n):
        m = np.array(TWO_BY_THREE)
        sb = make_scored_base(from_matrix(m), [-1, 1], [-1, 0, 2])
        transposed = make_scored_base(from_matrix(m.T), [-1, 0, 2], [-1, 1])
        monkeypatch.setattr(constructions, "score_sum_law", law_unused)
        got = theorem6_corr(sb, n, method="exact").value
        assert theorem6_corr(transposed, n, method="exact").value == got
        want = sum_indicator_corr_rational(m, [-3, 1], [-5, -1, 7], n)
        assert abs(got - want) <= 1e-14 * abs(want)

    def test_sign_pair_matches_the_full_grid_law(self, monkeypatch):
        sb = pm_one_base(0.4)
        monkeypatch.setattr(constructions, "score_sum_law", law_unused)
        got = theorem6_corr(sb, 128, method="exact").value
        steps, first = constructions._lattice(sb.g, sb.base.entries.sum(axis=1), 128)
        assert steps.tolist() == [0, 1] and first == 65
        qa, qb, q11 = full_grid_probs(sb.base.entries, np.array([-1, 1]), np.array([-1, 1]), 128)
        want = constructions._indicator_corr(q11, qa, qb)
        assert abs(got - want) <= 1e-14 * abs(want)

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_off_lattice_zero_row(self, monkeypatch, n):
        # the positive-mass rows score -1 and 1, the empty row 0.3, off
        # their lattice; masses (0.4, 0.6) center the column scores (-1, 1)
        # to (-3, 2) / 2.5
        m = np.array([[0.3, 0.2], [0.0, 0.0], [0.1, 0.4]])
        sb = make_scored_base(from_matrix(m), [-1.0, 0.3, 1.0], [-1.0, 1.0])
        steps, first = constructions._lattice(sb.g, m.sum(axis=1), n)
        assert steps.tolist() == [0, 0, 1] and first == n // 2 + 1
        monkeypatch.setattr(constructions, "score_sum_law", law_unused)
        got = theorem6_corr(sb, n, method="exact").value
        want = sum_indicator_corr_rational(m, [-1, Fraction(3, 10), 1], [-3, 2], n)
        assert abs(got - want) <= 1e-14 * abs(want)

    def test_seeded_sweep_matches_the_full_grid_law(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n_rows, n_cols = (int(k) for k in rng.integers(2, 5, size=2))
            entries = rng.random((n_rows, n_cols)) * (rng.random((n_rows, n_cols)) > 0.3)
            a = rng.choice(rng.integers(-4, 5, size=2), size=n_rows) * int(rng.choice([1, 3]))
            b = rng.integers(-3, 4, size=n_cols) * int(rng.choice([1, 2]))
            if np.unique(a[entries.sum(axis=1) > 0.0]).size != 2:
                continue
            entries /= entries.sum()
            n = int(rng.integers(1, 13))
            lat_a, lat_b = int_lattice(entries, a, 1, n), int_lattice(entries, b, 0, n)
            got = constructions._two_level_probs(entries, lat_a, lat_b, n)
            want = full_grid_probs(entries, a, b, n)
            assert np.allclose(got, want, rtol=1e-13, atol=0.0)

    def test_auto_picks_the_method_it_did_on_both_sides_of_the_cap(self):
        # at n = 3161 the step grid has 3162^2 <= STATE_CAP cells: exact, and
        # the conditional walks would underflow to nan without their scaling
        sb = pm_one_base(0.5)
        est = theorem6_corr(sb, 3161, method="auto", samples=MC_MIN_SAMPLES, seed=1)
        assert est.method == "exact"
        assert abs(est.value - clt_limit_corr(0.5)) <= 1e-3
        with pytest.raises(StateSpaceTooLarge, match="lattice grid 3163x3163"):
            theorem6_corr(sb, 3162, method="exact")
        est = theorem6_corr(sb, 3162, method="auto", samples=MC_MIN_SAMPLES, seed=1)
        assert est.method == "monte_carlo"


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

    def test_failed_sign_pattern_raises(self, monkeypatch):
        # f'' dented negative on (0.85, 0.9), right of its root: the profile
        # once returned positive_above_root = False instead of raising.
        real = constructions._f_double_prime

        def dented(t):
            t = np.asarray(t, dtype=np.float64)
            return np.where((t > 0.85) & (t < 0.9), -1.0, real(t))

        monkeypatch.setattr(constructions, "_f_double_prime", dented)
        with pytest.raises(InvariantViolation, match="sign pattern"):
            lemma7_profile(2000)

    def test_sine_scaled_by_1_2_fails_positivity(self, monkeypatch):
        # t(1 - log t) - 1.2 sin(pi t / 2) is negative near t = 0.54
        real = constructions._f

        def scaled(t):
            return real(t) - 0.2 * np.sin(np.pi * np.asarray(t, dtype=np.float64) / 2.0)

        monkeypatch.setattr(constructions, "_f", scaled)
        with pytest.raises(InvariantViolation, match="positivity"):
            lemma7_profile(2000)
