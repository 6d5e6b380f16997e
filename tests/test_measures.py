import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from depmeasures import (
    ConvergenceFailure,
    EventPair,
    InvariantViolation,
    OutOfRange,
    ShapeError,
    TooLargeForExact,
    event_covariance,
    event_measure,
    event_statistic,
    exact_event_values,
    from_matrix,
    full_report,
    permute,
    random_joint,
    rho,
    score_correlation,
)
from depmeasures import measures

from oracles import (
    correlation_of_scores,
    naive_event_measure,
    naive_event_statistic,
)


def yy(t):
    d, o = (1 + t) / 4, (1 - t) / 4
    return from_matrix([[d, o], [o, d]])


def complement(indices, n):
    return frozenset(range(n)) - frozenset(indices)


def isolated_atom_matrices(count=60):
    """Uniform n x n matrices, n in [15, 22), with one atom of 1e-8 to 1e-39
    alone in its row and column: psi is near 1/atom, beyond the exact cap."""
    rng = np.random.default_rng(0)
    out = []
    for _ in range(count):
        n = int(rng.integers(15, 22))
        a = rng.random((n, n))
        i, j = (int(x) for x in rng.integers(n, size=2))
        a[i, :] = 0.0
        a[:, j] = 0.0
        a[i, j] = 10.0 ** -int(rng.integers(8, 40))
        out.append(from_matrix(a, normalize=True))
    return out


class TestEventStatistic:
    def test_sign_pair_single_atoms_tau(self):
        pair = EventPair.of((1,), (1,))
        assert event_statistic(yy(0.4), pair, "tau") == pytest.approx(0.4, abs=1e-15)

    def test_full_row_event_scores_zero(self):
        m = random_joint(3, 3, seed=1)
        pair = EventPair.of((0, 1, 2), (0, 1))
        for kind in ("psi", "lambda", "tau"):
            assert event_statistic(m, pair, kind) == 0.0

    def test_matches_independent_summation_oracle(self):
        rng = np.random.default_rng(2)
        for trial in range(30):
            m = random_joint(3, 3, seed=int(rng.integers(1e9)), style="sparse" if trial % 2 else "dense")
            rows = tuple(int(i) for i in rng.integers(0, 3, size=2))
            cols = tuple(int(j) for j in rng.integers(0, 3, size=2))
            pair = EventPair.of(rows, cols)
            for kind in ("psi", "lambda", "tau"):
                got = event_statistic(m, pair, kind)
                want = naive_event_statistic(m.entries, rows, cols, kind)
                assert got == pytest.approx(want, abs=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(OutOfRange):
            event_statistic(yy(0.2), EventPair.of((0,), (0,)), "alpha")

    def test_index_validation(self):
        with pytest.raises(OutOfRange):
            event_statistic(yy(0.2), EventPair.of((5,), (0,)), "tau")


class TestComplementInvariance:
    """The covariance determinant and the tau statistic are bit-exact under
    complementing either event; psi and lambda are not (their suprema are
    still complement-class invariant via the smaller-probability member)."""

    def test_covariance_exact_under_complements(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            m = random_joint(4, 3, seed=int(rng.integers(1e9)))
            rows = tuple(int(i) for i in rng.integers(0, 4, size=2))
            cols = tuple(int(j) for j in rng.integers(0, 3, size=1))
            base = abs(event_covariance(m, EventPair.of(rows, cols)))
            flip_rows = abs(
                event_covariance(m, EventPair(complement(rows, 4), frozenset(cols)))
            )
            flip_cols = abs(
                event_covariance(m, EventPair(frozenset(rows), complement(cols, 3)))
            )
            assert base == flip_rows
            assert base == flip_cols

    def test_tau_statistic_exact_under_complements(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            m = random_joint(3, 4, seed=int(rng.integers(1e9)), style="sparse")
            rows = tuple(int(i) for i in rng.integers(0, 3, size=1))
            cols = tuple(int(j) for j in rng.integers(0, 4, size=2))
            pair = EventPair.of(rows, cols)
            base = event_statistic(m, pair, "tau")
            assert base == event_statistic(m, EventPair(complement(rows, 3), frozenset(cols)), "tau")
            assert base == event_statistic(m, EventPair(frozenset(rows), complement(cols, 4)), "tau")


class TestEventMeasure:
    def test_unknown_mode(self):
        with pytest.raises(OutOfRange, match="mode must be one of"):
            event_measure(yy(0.4), "tau", mode="bogus")

    def test_sign_pair_values(self):
        m = yy(0.4)
        assert event_measure(m, "tau", mode="exact").value == pytest.approx(0.4, abs=1e-12)
        assert event_measure(m, "psi", mode="exact").value == pytest.approx(0.4, abs=1e-12)
        assert event_measure(m, "lambda", mode="exact").value == pytest.approx(0.2, abs=1e-12)

    def test_exact_matches_bruteforce(self):
        rng = np.random.default_rng(5)
        for trial in range(40):
            n_rows = int(rng.integers(1, 6))
            n_cols = int(rng.integers(1, 6))
            style = ("dense", "sparse", "near_independent")[trial % 3]
            m = random_joint(n_rows, n_cols, seed=int(rng.integers(1e9)), style=style)
            for kind in ("psi", "lambda", "tau"):
                got = event_measure(m, kind, mode="exact")
                assert got.value == pytest.approx(
                    naive_event_measure(m.entries, kind), abs=1e-10
                )

    def test_exact_matches_rational_oracle_at_extreme_scales(self):
        # dyadic matrices (exact as floats) mixing huge and tiny cells;
        # the rational oracle is immune to cancellation at any magnitude
        from fractions import Fraction

        from oracles import rational_measure_squared

        rng = np.random.default_rng(23)
        for _ in range(12):
            n_rows, n_cols = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            k = 60
            raw = rng.integers(1, 2**16, size=n_rows * n_cols).astype(object)
            for pos in rng.choice(n_rows * n_cols, size=2, replace=False):
                raw[pos] = int(rng.integers(1, 4))  # cells ~1e-14 of total
            raw = [int(x) * 2**20 for x in raw]
            raw[0] += 2**k - sum(raw)  # exact dyadic total
            cells = [Fraction(x, 2**k) for x in raw]
            m = from_matrix(np.array([float(f) for f in cells]).reshape(n_rows, n_cols))
            for kind in ("psi", "lambda", "tau"):
                want_sq = float(rational_measure_squared(cells, n_rows, n_cols, kind))
                got = event_measure(m, kind, mode="exact").value
                assert got**2 == pytest.approx(want_sq, rel=1e-9, abs=1e-30)

    def test_independent_product_scores_zero(self):
        m = random_joint(4, 4, seed=6, style="near_independent", noise=0.0)
        for kind in ("psi", "lambda", "tau"):
            assert event_measure(m, kind, mode="exact").value <= 1e-12

    def test_witness_reproduces_value(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            m = random_joint(4, 5, seed=int(rng.integers(1e9)), style="sparse")
            for kind in ("psi", "lambda", "tau"):
                got = event_measure(m, kind, mode="exact")
                assert event_statistic(m, got.witness, kind) == pytest.approx(
                    got.value, abs=1e-12
                )

    def test_uniform_witness_is_canonical_smallest(self):
        got = event_measure(from_matrix([[0.25] * 2] * 2), "tau", mode="exact")
        assert got.value == 0.0
        assert got.witness == EventPair.of((0,), (0,))

    def test_tie_break_prefers_smallest_index_sets(self):
        # all four complement variants of the 2x2 class tie for tau;
        # the reported witness must be the lexicographically smallest
        got = event_measure(yy(0.5), "tau", mode="exact")
        assert got.witness == EventPair.of((0,), (0,))

    def test_exact_cap_enforced(self):
        m = random_joint(15, 2, seed=8)
        with pytest.raises(TooLargeForExact):
            event_measure(m, "tau", mode="exact")
        with pytest.raises(TooLargeForExact):
            exact_event_values(m)
        assert event_measure(m, "tau", mode="auto").mode == "heuristic"

    def test_heuristic_sound_and_flagged(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            m = random_joint(5, 6, seed=int(rng.integers(1e9)))
            for kind in ("psi", "lambda", "tau"):
                exact = event_measure(m, kind, mode="exact")
                heur = event_measure(m, kind, mode="heuristic")
                assert heur.mode == "heuristic"
                assert heur.value <= exact.value + 1e-12
                assert event_statistic(m, heur.witness, kind) == pytest.approx(
                    heur.value, abs=1e-12
                )

    def test_heuristic_tau_survives_tiny_variance(self):
        # A row of mass ~1e-33: forming the covariance as P(ST) - P(S)P(T)
        # leaves rounding noise of ~1e-17 over a row standard deviation of
        # ~4e-17, which once reported tau near 10 here.
        m = from_matrix([[0.6, 0.3, 0.1], [2e-34, 1e-33, 2e-34]])
        heur = event_measure(m, "tau", mode="heuristic")
        assert heur.value <= 1.0
        assert heur.value == event_statistic(m, heur.witness, "tau")
        assert heur.value <= event_measure(m, "tau", mode="exact").value * (1 + 1e-12)

    def test_trivial_row_field(self):
        m = random_joint(1, 5, seed=10)
        got = event_measure(m, "tau", mode="exact")
        assert got.value == 0.0
        assert got.witness == EventPair()

    def test_join_witness_decodes_into_factor_blocks(self):
        from depmeasures import kron

        joined = kron(yy(0.5), from_matrix([[0.25] * 2] * 2))
        got = event_measure(joined, "tau", mode="exact")
        assert got.value == pytest.approx(0.5, abs=1e-12)
        # lexicographic product indexing: the optimal event is the first
        # factor-1 atom joined with everything in factor 2, rows {0, 1}
        assert got.witness.row_set == frozenset({0, 1})
        assert got.witness.col_set == frozenset({0, 1})

    def test_chunked_enumeration_matches_single_pass(self, monkeypatch):
        import depmeasures.measures as measures_mod
        from depmeasures import kron

        rng = np.random.default_rng(22)
        cases = [
            random_joint(shape[0], shape[1], seed=int(rng.integers(1e9)), style=style)
            for shape in ((5, 6), (6, 5))
            for style in ("dense", "sparse", "near_independent")
        ]
        cases.append(kron(yy(0.5), from_matrix([[0.25] * 2] * 2)))
        expected = [
            (kind, event_measure(m, kind, mode="exact"))
            for m in cases
            for kind in ("psi", "lambda", "tau")
        ]
        expected_values = [exact_event_values(m) for m in cases]
        assert measures_mod._BATCH_CLASSES >= 31  # every case fits one batch
        for batch in (1, 3):
            monkeypatch.setattr(measures_mod, "_BATCH_CLASSES", batch)
            for (kind, want), m in zip(expected, [m for m in cases for _ in range(3)]):
                got = event_measure(m, kind, mode="exact")
                assert got.value == want.value
                assert got.witness == want.witness
            # raw maxima may move by an ulp: BLAS rounds the class masses
            # of differently shaped batches differently
            for m, want_values in zip(cases, expected_values):
                assert exact_event_values(m) == pytest.approx(want_values, rel=1e-13)


class TestRho:
    def test_sign_pair(self):
        res = rho(yy(0.7))
        assert res.value == pytest.approx(0.7, abs=1e-9)
        assert res.spectral.sigma1 == pytest.approx(1.0, abs=1e-9)

    def test_outer_product_is_zero(self):
        r = np.array([0.2, 0.5, 0.3])
        c = np.array([0.6, 0.4])
        res = rho(from_matrix(np.outer(r, c)))
        assert res.value <= 1e-12

    def test_dominates_random_scores(self):
        m = random_joint(4, 4, seed=11)
        res = rho(m)
        rng = np.random.default_rng(12)
        for _ in range(1000):
            f = rng.normal(size=4)
            g = rng.normal(size=4)
            assert abs(correlation_of_scores(m.entries, f, g)) <= res.value + 1e-9

    def test_witness_scores_attain_value(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            m = random_joint(5, 3, seed=int(rng.integers(1e9)), style="sparse")
            res = rho(m)
            f, g = res.witness
            if res.value > 0:
                assert abs(score_correlation(m, f, g)) == pytest.approx(
                    res.value, abs=1e-9
                )
                oracle = abs(correlation_of_scores(m.entries, f, g))
                assert oracle == pytest.approx(res.value, abs=1e-9)

    def test_witness_scores_are_normalized(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            m = random_joint(4, 5, seed=int(rng.integers(1e9)))
            res = rho(m)
            if res.value <= 1e-9:
                continue
            f, g = res.witness
            row = m.entries.sum(axis=1)
            col = m.entries.sum(axis=0)
            assert row @ f == pytest.approx(0.0, abs=1e-12)
            assert col @ g == pytest.approx(0.0, abs=1e-12)
            assert row @ f**2 == pytest.approx(1.0, abs=1e-10)
            assert col @ g**2 == pytest.approx(1.0, abs=1e-10)

    def test_zero_mass_atoms_ignored(self):
        base = yy(0.55).entries
        padded = np.zeros((3, 3))
        padded[:2, :2] = base
        res = rho(from_matrix(padded))
        assert res.value == pytest.approx(0.55, abs=1e-9)
        assert res.witness[0][2] == 0.0

    def test_degenerate_space(self):
        res = rho(from_matrix([[0.5, 0.5]]))
        assert res.value == 0.0
        assert res.spectral.sigma2 == 0.0

    def test_repeated_top_singular_value_witness_is_centered(self):
        # sigma1 = sigma2 = 1: the SVD's second vector may be sqrt(r) itself
        m = from_matrix([[1e-30, 0.0, 0.0], [0.0, 0.3, 0.7]], normalize=True)
        res = rho(m)
        assert res.value == 1.0
        f, g = res.witness
        assert m.entries.sum(axis=1) @ f == pytest.approx(0.0, abs=1e-12)
        assert m.entries.sum(axis=0) @ g == pytest.approx(0.0, abs=1e-12)
        assert abs(score_correlation(m, f, g)) == pytest.approx(1.0, abs=1e-9)
        assert full_report(m).rho == 1.0

    def test_isolated_tiny_atom_blocks_report_cleanly(self):
        # A 1e-100 atom beside a random block repeats the top singular value;
        # these raised a false rho-witness InvariantViolation before.
        rng = np.random.default_rng(0)
        for _ in range(200):
            a, b = rng.integers(2, 5, size=2)
            arr = np.zeros((a + 1, b + 1))
            arr[0, 0] = 1e-100
            arr[1:, 1:] = rng.random((a, b))
            m = from_matrix(arr / arr.sum(), normalize=True)
            rep = full_report(m)
            assert rep.rho == pytest.approx(1.0, abs=1e-9)
            assert abs(score_correlation(m, *rep.rho_witness)) == pytest.approx(
                1.0, abs=1e-9
            )

    def test_unreachable_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(measures, "DEFAULT_RHO_TOL", 1e-18)
        with pytest.raises(ConvergenceFailure):
            rho(random_joint(4, 4, seed=14))


class TestFullReport:
    def test_sign_pair_half(self):
        rep = full_report(yy(0.5))
        assert rep.psi == pytest.approx(0.5, abs=1e-12)
        assert rep.lam == pytest.approx(0.25, abs=1e-12)
        assert rep.tau == pytest.approx(0.5, abs=1e-12)
        assert rep.rho == pytest.approx(0.5, abs=1e-9)
        assert rep.mode_flags == {
            "psi": "exact", "lambda": "exact", "tau": "exact", "rho": "exact"
        }

    def test_uniform_all_zero(self):
        rep = full_report(from_matrix([[0.25] * 2] * 2))
        assert rep.psi == rep.lam == rep.tau == 0.0
        assert rep.rho <= 1e-12

    def test_transpose_symmetry(self):
        m = random_joint(5, 5, seed=15)
        a = full_report(m)
        b = full_report(from_matrix(m.entries.T.copy()))
        assert b.psi == pytest.approx(a.psi, abs=1e-12)
        assert b.lam == pytest.approx(a.lam, abs=1e-12)
        assert b.tau == pytest.approx(a.tau, abs=1e-12)
        assert b.rho == pytest.approx(a.rho, abs=1e-9)

    def test_chain_on_random_instances(self):
        rng = np.random.default_rng(16)
        for trial in range(50):
            style = ("dense", "sparse")[trial % 2]
            m = random_joint(
                int(rng.integers(2, 6)), int(rng.integers(2, 6)),
                seed=int(rng.integers(1e9)), style=style,
            )
            rep = full_report(m)  # raises InvariantViolation on violation
            assert rep.lam <= rep.tau + 1e-9
            assert rep.tau <= rep.rho + 1e-9
            assert rep.rho <= min(1.0, rep.psi) + 1e-9
            assert rep.tau <= 2 * rep.lam + 1e-12
            pos = m.entries[m.entries > 0]
            assert rep.psi <= 1.0 / pos.min() + 1e-6

    def test_two_atom_equality(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            m = random_joint(2, 2, seed=int(rng.integers(1e9)))
            rep = full_report(m)
            assert abs(rep.rho - rep.tau) <= 1e-9

    def test_permutation_invariance(self):
        m = random_joint(4, 4, seed=18, style="sparse")
        rep = full_report(m)
        rng = np.random.default_rng(19)
        for _ in range(5):
            p = permute(
                m,
                row_order=rng.permutation(4).tolist(),
                col_order=rng.permutation(4).tolist(),
            )
            prep = full_report(p)
            assert prep.psi == pytest.approx(rep.psi, abs=1e-12)
            assert prep.lam == pytest.approx(rep.lam, abs=1e-12)
            assert prep.tau == pytest.approx(rep.tau, abs=1e-12)
            assert prep.rho == pytest.approx(rep.rho, abs=1e-9)

    @pytest.mark.parametrize(
        "arr",
        [[[1e-300, 0.0], [0.0, 1.0]], [[3.6e-300, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]]],
        ids=["2x2", "2x4"],
    )
    def test_underflowing_score_variances(self, arr):
        # the rho witness scores of a ~1e-300 atom have variances whose
        # product underflows; the report must still certify rho = 1
        rep = full_report(from_matrix(arr))
        assert rep.rho == pytest.approx(1.0, abs=1e-9)
        assert rep.tau == pytest.approx(1.0, abs=1e-9)
        assert abs(score_correlation(from_matrix(arr), *rep.rho_witness)) == pytest.approx(1.0)

    def test_psi_sanity_bound_is_relative(self):
        # psi is about 1e20 here, so an absolute slack of 1e-6 is below its ulp
        m = from_matrix(
            [
                [1e-20, 0, 0, 0],
                [0, 0.16983907276498375, 0.1527896704525226, 0.16363595174591353],
                [0, 0.12202756418380792, 0.045375786940476275, 0.14201483046180086],
                [0, 0.0391155338497711, 0.15361189782605128, 0.01158969177467262],
            ],
            normalize=True,
        )
        rep = full_report(m, mode="exact")
        assert rep.psi > 1e19
        assert rep.psi <= 1.0 / m.entries[m.entries > 0].min() * (1.0 + 1e-9)

    def test_score_correlation_huge_scores(self):
        m = yy(0.5)
        for scale in (1e155, 1e300, 1e-300):
            f = np.array([1.0, -1.0]) * scale
            assert score_correlation(m, f, np.array([2.0, -2.0])) == pytest.approx(0.5)

    @pytest.mark.parametrize("big", [1e11, 1e100, 1e160, 1e200, 1e308, -1e308])
    def test_score_correlation_ignores_a_zero_mass_atom(self, big):
        # the empty row's score once set the scale: 0.40825056 at 1e160, 0.0 at 1e200
        m = from_matrix([[0.3, 0.2], [0.1, 0.4], [0.0, 0.0]])
        assert score_correlation(m, [-1.0, 1.0, big], [-1.0, 1.0]) == score_correlation(m, [-1.0, 1.0, 0.0], [-1.0, 1.0])
        mt = from_matrix(m.entries.T)
        assert score_correlation(mt, [-1.0, 1.0], [-1.0, 1.0, big]) == score_correlation(mt, [-1.0, 1.0], [-1.0, 1.0, 0.0])

    @pytest.mark.parametrize("bad", [[np.nan, 1, 2], [np.inf, 1, 2], [-np.inf, 1, 2],
                                     ["a", 1, 2], ["1", 2, 3], [True, False, True],
                                     np.array([1j, 1, 2]), [np.complex128(1), 2, 3]])
    def test_score_correlation_rejects_scores_that_are_not_finite_reals(self, bad):
        # nan and inf scores once returned nan with a RuntimeWarning, and
        # strings a bare numpy ValueError
        m = random_joint(3, 3, 1)
        good = [1.0, 2.0, 4.0]
        for f, g in ((bad, good), (good, bad)):
            with pytest.raises(OutOfRange, match="scores must be"):
                score_correlation(m, f, g)

    @pytest.mark.parametrize("bad", [[1, 2], [1, 2, 3, 4], [[1, 2, 3]], 1.0])
    def test_score_correlation_rejects_scores_of_the_wrong_shape(self, bad):
        m = random_joint(3, 3, 1)
        good = [1.0, 2.0, 4.0]
        for f, g in ((bad, good), (good, bad)):
            with pytest.raises(ShapeError, match="scores have shape"):
                score_correlation(m, f, g)
        assert score_correlation(m, good, np.array(good)) == score_correlation(m, good, good)

    def test_score_correlation_of_constant_scores_is_zero(self):
        # zero scores have no scale, constant ones no variance: both read 0
        m = yy(0.5)
        g = np.array([2.0, -2.0])
        for f in (np.zeros(2), np.array([0.3, 0.3])):
            assert score_correlation(m, f, g) == 0.0
            assert score_correlation(m, g, f) == 0.0

    def test_constant_scores_read_zero_whatever_the_rounding(self):
        # the marginals of random_joint sum to 1 within an ulp, so a centered
        # constant kept a variance near 1e-32 and read +-1e-16 to 5e-16
        for s in range(300):
            m = random_joint(3, 4, seed=s)
            assert score_correlation(m, np.full(3, 0.3), [1, 2, 3, 4]) == 0.0
            assert score_correlation(m, [1, 2, 3], np.full(4, -7.1)) == 0.0

    def test_scores_constant_on_the_positive_mass_atoms_read_zero(self):
        m = from_matrix([[0.3, 0.0, 0.2], [0.1, 0.0, 0.4]])
        assert score_correlation(m, [1.0, -2.0], [0.7, 5.0, 0.7]) == 0.0
        # a spread far below the rounding of a variance still counts
        tiny = score_correlation(m, [1.0, -2.0], [1.0, 0.0, 1.0 + 2.0**-40])
        assert tiny == pytest.approx(score_correlation(m, [1.0, -2.0], [0.0, 0.0, 1.0]), rel=1e-3)

    def test_heuristic_witness_check_is_relative(self):
        # psi reaches 1e39 here, where one ulp exceeds an absolute 1e-12:
        # 25 of these 60 raised a false witness InvariantViolation before
        for m in isolated_atom_matrices():
            rep = full_report(m)
            assert rep.mode_flags["psi"] == "heuristic"
            assert event_statistic(m, rep.psi_witness, "psi") == pytest.approx(
                rep.psi, rel=1e-12
            )

    def test_non_maximal_exact_witness_raises(self, monkeypatch):
        # A scan whose psi witness is not maximal must not have that
        # witness's statistic quoted as the supremum.  The runner-up atom
        # stays above rho, so no chain check would catch it.
        m = random_joint(4, 4, seed=7)
        atoms = sorted(
            (EventPair.of((i,), (j,)) for i in range(4) for j in range(4)),
            key=lambda e: event_statistic(m, e, "psi"),
        )
        rep = full_report(m)
        assert rep.rho < event_statistic(m, atoms[-2], "psi") < rep.psi - 0.1
        scan = measures._exact_scan

        def corrupted(entries, kinds=measures.KINDS, witnesses=False):
            values, wit = scan(entries, kinds, witnesses)
            if "psi" in wit:
                wit["psi"] = atoms[-2]
            return values, wit

        monkeypatch.setattr(measures, "_exact_scan", corrupted)
        with pytest.raises(InvariantViolation, match="psi witness"):
            full_report(m)
        with pytest.raises(InvariantViolation, match="psi witness"):
            event_measure(m, "psi")

    @pytest.mark.parametrize("mode", ["exact", "heuristic"])
    def test_overflowing_psi_raises(self, mode):
        # psi = 1/2e-310 = 5e309 overflows a float; no report carries inf
        m = from_matrix([[2e-310, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        with pytest.raises(OutOfRange, match="not finite"):
            full_report(m, mode=mode)
        with pytest.raises(OutOfRange, match="not finite"):
            event_measure(m, "psi", mode=mode)
        assert event_measure(m, "tau", mode=mode).value == pytest.approx(1.0, abs=1e-12)

    def test_overflowing_psi_raises_from_exact_values(self):
        m = from_matrix([[2e-310, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        with pytest.raises(OutOfRange, match="psi is not finite"):
            exact_event_values(m)

    def test_heuristic_mode_flagged(self):
        m = random_joint(3, 3, seed=20)
        rep = full_report(m, mode="heuristic")
        assert rep.mode_flags["tau"] == "heuristic"
        assert rep.mode_flags["rho"] == "exact"


@st.composite
def matrices_and_pairs(draw):
    n_rows = draw(st.integers(2, 4))
    n_cols = draw(st.integers(2, 4))
    cells = draw(
        st.lists(
            st.floats(0.0, 1.0, allow_nan=False),
            min_size=n_rows * n_cols,
            max_size=n_rows * n_cols,
        )
    )
    arr = np.array(cells).reshape(n_rows, n_cols)
    if arr.sum() <= 0:
        arr[0, 0] = 1.0
    rows = draw(st.sets(st.integers(0, n_rows - 1)))
    cols = draw(st.sets(st.integers(0, n_cols - 1)))
    return from_matrix(arr, normalize=True), EventPair.of(rows, cols)


@given(matrices_and_pairs())
@settings(max_examples=80, deadline=None)
def test_tau_complement_invariance_property(mp):
    m, pair = mp
    flipped = EventPair(
        frozenset(range(m.n_rows)) - pair.row_set, pair.col_set
    )
    assert event_statistic(m, pair, "tau") == event_statistic(m, flipped, "tau")


@given(matrices_and_pairs())
@example((from_matrix([[2.2e-311, 0.0], [0.0, 1.0]]), EventPair.of((0,), (0,))))
@settings(max_examples=80, deadline=None)
def test_statistic_never_exceeds_measure_property(mp):
    m, pair = mp
    for kind in ("psi", "lambda", "tau"):
        try:
            value = event_measure(m, kind, mode="exact").value
        except OutOfRange:
            # the non-finite rule: psi overflows at a subnormal single atom
            assert kind == "psi"
            atoms = [EventPair.of((i,), (j,)) for i in range(m.n_rows) for j in range(m.n_cols)]
            assert any(math.isinf(event_statistic(m, a, "psi")) for a in atoms)
            continue
        assert event_statistic(m, pair, kind) <= value + 1e-12
