import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depmeasures import (
    EventPair,
    IndexOutOfRange,
    NegativeEntry,
    NonRectangular,
    NotNormalized,
    OutOfRange,
    SizeOverflow,
    ZeroTotal,
    event_prob,
    event_statistic,
    exact_event_values,
    from_matrix,
    kron,
    kron_all,
    marginals,
    merge_cols,
    merge_rows,
    permute,
    random_joint,
)
from depmeasures.joint_pmf import NORMALIZATION_TOL, from_jsonable

from oracles import naive_event_measure, subset_masses


def yy_entries(t):
    d, o = (1 + t) / 4, (1 - t) / 4
    return [[d, o], [o, d]]


class TestFromMatrix:
    def test_uniform_valid(self):
        m = from_matrix([[0.25, 0.25], [0.25, 0.25]])
        assert m.shape == (2, 2)
        assert m.entries.sum() == 1.0

    def test_normalize_scales(self):
        m = from_matrix([[1, 1], [1, 1]], normalize=True)
        assert np.array_equal(m.entries, np.full((2, 2), 0.25))

    def test_not_normalized_rejected(self):
        with pytest.raises(NotNormalized):
            from_matrix([[0.5, 0.6]])

    def test_ragged_rejected(self):
        with pytest.raises(NonRectangular):
            from_matrix([[0.5], [0.25, 0.25]])

    def test_negative_rejected(self):
        with pytest.raises(NegativeEntry):
            from_matrix([[1.1, -0.1]])

    def test_tiny_negative_clamped(self):
        m = from_matrix([[1.0 + 5e-13, -5e-13]])
        assert m.entries[0, 1] == 0.0

    def test_nan_rejected(self):
        with pytest.raises(NegativeEntry):
            from_matrix([[float("nan"), 1.0]])

    def test_infinite_entry_rejected(self):
        with pytest.raises(NegativeEntry, match="finite"):
            from_matrix([[math.inf, 0.0], [0.0, 0.0]])

    def test_empty_matrix_rejected(self):
        with pytest.raises(NonRectangular, match="at least 1x1"):
            from_matrix(np.zeros((0, 3)))

    def test_zero_total(self):
        with pytest.raises(ZeroTotal):
            from_matrix([[0.0, 0.0]], normalize=True)

    def test_entries_read_only(self):
        m = from_matrix([[1.0]])
        with pytest.raises(ValueError):
            m.entries[0, 0] = 0.5

    def test_labels_length_checked(self):
        with pytest.raises(NonRectangular):
            from_matrix([[1.0]], row_labels=["a", "b"])

    def test_non_numeric_array_is_a_bad_entry(self):
        with pytest.raises(NegativeEntry):
            from_matrix(np.array([["0.5", "x"]]))

    @pytest.mark.parametrize(
        "arr",
        [
            np.array([["0.5", "0.5"]]),
            np.array([[True, False]]),
            np.array([[0.5 + 0j, 0.5]]),
            [np.array([0.5 + 0j, 0.5])],
            [[np.complex128(0.5), 0.5]],
        ],
        ids=["text", "bool", "complex", "complex-rows", "numpy-complex"],
    )
    def test_convertible_non_real_array_is_a_bad_entry(self, arr):
        # a float64 cast of complex values would warn (an error under the
        # test filter) and drop the imaginary part before any check
        with pytest.raises(NegativeEntry):
            from_matrix(arr)

    def test_integer_entries_accepted(self):
        assert np.array_equal(from_matrix([[1, 0], [0, 0]]).entries, [[1.0, 0.0], [0.0, 0.0]])


class TestMarginals:
    def test_uniform(self):
        m = marginals(from_matrix([[0.25, 0.25], [0.25, 0.25]]))
        assert np.array_equal(m.row, [0.5, 0.5])
        assert np.array_equal(m.col, [0.5, 0.5])

    def test_sign_pair_t04(self):
        m = marginals(from_matrix(yy_entries(0.4)))
        assert np.allclose(m.row, [0.5, 0.5], atol=1e-15)
        assert np.allclose(m.col, [0.5, 0.5], atol=1e-15)

    def test_random_vs_resummation(self):
        m = random_joint(3, 4, seed=11)
        marg = marginals(m)
        for i in range(3):
            assert marg.row[i] == pytest.approx(
                math.fsum(m.entries[i, j] for j in range(4)), abs=1e-15
            )
        for j in range(4):
            assert marg.col[j] == pytest.approx(
                math.fsum(m.entries[i, j] for i in range(3)), abs=1e-15
            )

    def test_event_prob_rectangle(self):
        m = random_joint(4, 3, seed=5, style="sparse")
        pair = EventPair.of((0, 2), (1,))
        pa, pb, pab = event_prob(m, pair)
        opa, _, opb, _, opab = subset_masses(m.entries, {0, 2}, {1})
        assert pa == pytest.approx(opa, abs=1e-15)
        assert pb == pytest.approx(opb, abs=1e-15)
        assert pab == pytest.approx(opab, abs=1e-15)

    def test_column_index_outside_shape(self):
        m = random_joint(2, 3, seed=5)
        pair = EventPair.of((0,), (3,))
        with pytest.raises(IndexOutOfRange, match="col index 3 outside"):
            event_prob(m, pair)
        with pytest.raises(IndexOutOfRange, match="col index 3 outside"):
            event_statistic(m, pair, "tau")
        assert issubclass(IndexOutOfRange, OutOfRange)

    @pytest.mark.parametrize("pair", [
        EventPair(frozenset({0.5}), frozenset()),
        EventPair(frozenset({1}), frozenset({1.0})),
        EventPair(frozenset({True}), frozenset({0})),
        EventPair(frozenset({0}), frozenset({np.bool_(True)})),
        EventPair(frozenset({"1"}), frozenset({0})),
    ], ids=["half", "float-col", "bool", "numpy-bool", "text"])
    def test_index_that_is_not_an_integer(self, pair):
        # True once read as the whole row event: P(A) = 1, tau = 0
        m = random_joint(2, 3, seed=1)
        with pytest.raises(IndexOutOfRange, match="is not an integer"):
            event_prob(m, pair)
        with pytest.raises(IndexOutOfRange, match="is not an integer"):
            event_statistic(m, pair, "tau")

    def test_numpy_integer_indices(self):
        m = random_joint(2, 3, seed=1)
        plain = EventPair.of((1,), (0, 2))
        numpy = EventPair(frozenset({np.int64(1)}), frozenset({np.int32(0), np.uint8(2)}))
        assert event_prob(m, numpy) == event_prob(m, plain)
        assert event_statistic(m, numpy, "tau") == event_statistic(m, plain, "tau")


class TestKron:
    def test_uniform_product(self):
        u = from_matrix([[0.25, 0.25], [0.25, 0.25]])
        k = kron(u, u)
        assert np.allclose(k.entries, np.full((4, 4), 1 / 16), atol=1e-15)

    def test_lexicographic_indexing(self):
        a = random_joint(2, 3, seed=1)
        b = random_joint(3, 2, seed=2)
        k = kron(a, b)
        for i1, i2, j1, j2 in [(0, 2, 1, 0), (1, 0, 2, 1)]:
            assert k.entries[i1 * 3 + i2, j1 * 2 + j2] == pytest.approx(
                a.entries[i1, j1] * b.entries[i2, j2], abs=1e-16
            )

    def test_marginal_outer_product(self):
        a = random_joint(2, 2, seed=3)
        b = random_joint(3, 3, seed=4)
        mk = marginals(kron(a, b))
        expect = np.outer(marginals(a).row, marginals(b).row).ravel()
        assert np.allclose(mk.row, expect, atol=1e-15)

    def test_associative_up_to_relabeling(self):
        ms = [random_joint(2, 2, seed=s) for s in (5, 6, 7)]
        left = kron(kron(ms[0], ms[1]), ms[2])
        right = kron(ms[0], kron(ms[1], ms[2]))
        assert np.max(np.abs(left.entries - right.entries)) <= 1e-15

    def test_factors_within_tolerance_join(self):
        # each factor sums to 1 + 6e-10, inside the tolerance; the product's
        # 1 + 1.2e-9 is outside it, so the product is rescaled to total 1
        m = from_matrix([[0.3, 0.2], [0.1, 0.4 + 6e-10]])
        k = kron(m, m)
        assert abs(k.entries.sum() - 1.0) <= NORMALIZATION_TOL
        assert np.allclose(k.entries, np.kron(m.entries, m.entries), rtol=2e-9, atol=0.0)
        # a product within the tolerance is kept bit for bit
        u = random_joint(3, 2, seed=1)
        assert np.array_equal(kron(u, u).entries, np.kron(u.entries, u.entries))

    def test_join_of_no_factors(self):
        with pytest.raises(NonRectangular, match="at least one factor"):
            kron_all([])

    def test_size_overflow(self):
        # 3163^2 = 10,004,569 entries, just past STATE_CAP: raised before
        # the product is allocated
        m = from_matrix(np.full((1, 3163), 1.0 / 3163))
        with pytest.raises(SizeOverflow):
            kron(m, m)

    def test_labels_combined(self):
        a = from_matrix([[1.0]], row_labels=["x"], col_labels=["u"])
        b = from_matrix([[1.0]], row_labels=["y"], col_labels=["v"])
        k = kron(a, b)
        assert k.row_labels == ("(x,y)",)
        assert k.col_labels == ("(u,v)",)


class TestRandomJoint:
    def test_deterministic(self):
        for style in ("dense", "sparse", "near_independent"):
            a = random_joint(3, 4, seed=9, style=style)
            b = random_joint(3, 4, seed=9, style=style)
            assert np.array_equal(a.entries, b.entries)

    def test_dense_sums_to_one(self):
        m = random_joint(3, 3, seed=10)
        assert abs(m.entries.sum() - 1.0) <= 1e-12

    def test_exact_independence_when_noise_zero(self):
        m = random_joint(4, 5, seed=12, style="near_independent", noise=0.0)
        values = exact_event_values(m)
        assert all(v <= 1e-12 for v in values.values())

    def test_unknown_style(self):
        with pytest.raises(OutOfRange):
            random_joint(2, 2, seed=1, style="bogus")

    def test_negative_seed(self):
        random_joint(2, 2, seed=0)
        with pytest.raises(OutOfRange, match="seed must be >= 0, got -1"):
            random_joint(2, 2, seed=-1)

    @pytest.mark.parametrize("seed", [1.7, True, "1", np.float64(1.0)],
                             ids=["float", "bool", "text", "numpy-float"])
    def test_seed_that_is_not_an_integer(self, seed):
        # 1.7 and True once gave seed 1's matrix
        with pytest.raises(OutOfRange, match="seed must be an integer"):
            random_joint(2, 2, seed=seed)

    def test_numpy_integer_seed(self):
        want = random_joint(3, 2, seed=7).entries
        for seed in (np.int64(7), np.uint8(7)):
            assert np.array_equal(random_joint(3, 2, seed=seed).entries, want)

    def test_empty_shape(self):
        with pytest.raises(IndexOutOfRange, match="at least 1x1"):
            random_joint(0, 2, seed=1)

    def test_sparse_has_zeros(self):
        m = random_joint(5, 5, seed=13, style="sparse")
        assert (m.entries == 0.0).any()
        assert abs(m.entries.sum() - 1.0) <= 1e-12


class TestMergeAtoms:
    def test_merge_two_row_matrix_trivializes(self):
        m = random_joint(2, 4, seed=14)
        merged = merge_rows(m, 0, 1)
        assert merged.shape == (1, 4)
        assert all(v == 0.0 for v in exact_event_values(merged).values())

    def test_column_marginal_preserved(self):
        m = random_joint(4, 3, seed=15)
        merged = merge_rows(m, 1, 3)
        assert np.allclose(
            marginals(merged).col, marginals(m).col, atol=1e-15
        )

    def test_never_increases_any_measure(self):
        for seed in range(6):
            m = random_joint(4, 4, seed=100 + seed)
            merged = merge_rows(m, seed % 4, (seed + 1) % 4)
            for kind in ("psi", "lambda", "tau"):
                before = naive_event_measure(m.entries, kind)
                after = naive_event_measure(merged.entries, kind)
                assert after <= before + 1e-12

    def test_merge_cols_mirrors_merge_rows(self):
        m = random_joint(3, 4, seed=16)
        a = merge_cols(m, 0, 2)
        b = merge_rows(
            from_matrix(m.entries.T.copy()), 0, 2
        )
        assert np.allclose(a.entries, b.entries.T, atol=0)

    def test_merged_labels(self):
        m = from_matrix([[0.1, 0.2], [0.3, 0.4]], row_labels=["a", "b"], col_labels=["x", "y"])
        assert merge_rows(m, 1, 0).row_labels == ("a+b",)
        assert merge_rows(m, 1, 0).col_labels == ("x", "y")
        assert merge_cols(m, 1, 0).col_labels == ("x+y",)
        assert merge_cols(m, 1, 0).row_labels == ("a", "b")

    def test_bad_indices(self):
        m = random_joint(3, 3, seed=17)
        with pytest.raises(IndexOutOfRange):
            merge_rows(m, 0, 0)
        with pytest.raises(IndexOutOfRange):
            merge_rows(m, 0, 5)

    @pytest.mark.parametrize("index", [0.7, "2", True], ids=["float", "text", "bool"])
    def test_index_that_is_not_an_integer(self, index):
        # 0.7 once merged row 0, and "2" row 2
        m = random_joint(3, 3, seed=17)
        for merge in (merge_rows, merge_cols):
            with pytest.raises(IndexOutOfRange, match="is not an integer"):
                merge(m, index, 1)
            with pytest.raises(IndexOutOfRange, match="is not an integer"):
                merge(m, 1, index)

    def test_numpy_integer_indices(self):
        m = random_joint(3, 3, seed=17)
        for merge in (merge_rows, merge_cols):
            merged = merge(m, np.int64(2), np.int32(0))
            assert np.array_equal(merged.entries, merge(m, 2, 0).entries)


class TestPermute:
    def test_permutation_keeps_measures(self):
        m = random_joint(4, 4, seed=18)
        p = permute(m, row_order=[2, 0, 3, 1], col_order=[1, 3, 0, 2])
        base = exact_event_values(m)
        moved = exact_event_values(p)
        for kind in base:
            assert moved[kind] == pytest.approx(base[kind], abs=1e-12)

    def test_invalid_permutation(self):
        m = random_joint(3, 3, seed=19)
        with pytest.raises(IndexOutOfRange):
            permute(m, row_order=[0, 0, 1])
        with pytest.raises(IndexOutOfRange):
            permute(m, col_order=[0, 0])

    def test_labels_follow_their_atoms(self):
        m = from_matrix([[0.1, 0.2], [0.3, 0.4]], row_labels=["a", "b"], col_labels=["x", "y"])
        moved = permute(m, row_order=[1, 0], col_order=[1, 0])
        assert (moved.row_labels, moved.col_labels) == (("b", "a"), ("y", "x"))
        assert moved.entries.tolist() == [[0.4, 0.3], [0.2, 0.1]]

    @pytest.mark.parametrize("order", [[True, False, 2], [0, 1.0, 2], [0, "1", 2]],
                             ids=["bool", "float", "text"])
    def test_index_that_is_not_an_integer(self, order):
        # True was once read as row 1
        m = random_joint(3, 3, seed=19)
        with pytest.raises(IndexOutOfRange, match="is not an integer"):
            permute(m, row_order=order)
        with pytest.raises(IndexOutOfRange, match="is not an integer"):
            permute(m, col_order=order)

    def test_numpy_integer_indices(self):
        m = random_joint(3, 3, seed=19)
        moved = permute(m, row_order=np.array([2, 0, 1]), col_order=[np.int64(1), 2, 0])
        assert np.array_equal(moved.entries, permute(m, [2, 0, 1], [1, 2, 0]).entries)


class TestJson:
    def test_roundtrip(self, tmp_path):
        m = random_joint(3, 2, seed=20)
        blob = json.dumps(m.to_jsonable())
        back = from_jsonable(json.loads(blob))
        assert np.array_equal(back.entries, m.entries)

    def test_accepts_wrapped_document(self):
        m = random_joint(2, 2, seed=21)
        wrapped = {"manifest": {}, "result": m.to_jsonable()}
        back = from_jsonable(wrapped)
        assert np.array_equal(back.entries, m.entries)

    def test_missing_matrix_key(self):
        with pytest.raises(NonRectangular):
            from_jsonable({"rows": []})

    @pytest.mark.parametrize(
        "doc, error",
        [
            ({"matrix": [[0.5, "x"]]}, NegativeEntry),
            ({"matrix": 5}, NonRectangular),
            ({"matrix": [0.5, 0.5]}, NonRectangular),
            ({"matrix": [[0.5, [0.5]]]}, NonRectangular),
            ({"matrix": [[[0.5]], [[0.5]]]}, NonRectangular),
            ({"matrix": [[0.5, 0.5]], "row_labels": 5}, NonRectangular),
            ([1, 2], NonRectangular),
            ({"matrix": [["0.5", "0.5"]]}, NegativeEntry),
            ({"matrix": [[True, False]]}, NegativeEntry),
            ({"matrix": [[0.5, True], [0.0, 0.0]]}, NegativeEntry),
        ],
    )
    def test_malformed_document_names_its_problem(self, doc, error):
        with pytest.raises(error):
            from_jsonable(doc)


@st.composite
def small_matrices(draw):
    n_rows = draw(st.integers(1, 4))
    n_cols = draw(st.integers(1, 4))
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
    return from_matrix(arr, normalize=True)


@given(small_matrices())
@settings(max_examples=60, deadline=None)
def test_total_mass_one_after_normalize(m):
    assert abs(m.entries.sum() - 1.0) <= 1e-9


@given(small_matrices())
@settings(max_examples=60, deadline=None)
def test_merge_preserves_total(m):
    if m.n_rows < 2:
        return
    merged = merge_rows(m, 0, 1)
    assert abs(merged.entries.sum() - 1.0) <= 1e-9
    assert np.allclose(marginals(merged).col, marginals(m).col, atol=1e-15)


def test_package_exports_no_future_feature():
    # __all__ was every non-underscore name, the `from __future__` import too
    import depmeasures

    assert "annotations" not in depmeasures.__all__
    assert "from_matrix" in depmeasures.__all__
    namespace = {}
    exec("from depmeasures import *", namespace)
    assert "annotations" not in namespace
