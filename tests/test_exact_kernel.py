"""Differential tests of the exact event-supremum kernel.

The package computes psi in closed form and lambda/tau by one-sided
enumeration; ``grid_oracle.grid_scan`` scores every complement-class pair
and ``oracles.naive_event_measure`` every event pair.  Values must agree
within 1e-13 relative.  Witnesses must agree, or else the kernel's must be
a tie of the grid's (event statistics within 1e-13 relative: both sides
round) with a smaller tie-break key.  A value-only scan must return the
witnessed scan's values bit for bit.
"""

import tracemalloc

import numpy as np
import pytest

from depmeasures import EventPair, event_measure, event_statistic, from_matrix, kron, random_joint
from depmeasures.measures import _BATCH_CLASSES, KINDS, _class_members, _exact_scan

from grid_oracle import _class_masks, grid_scan
from oracles import naive_event_measure

REL = 1e-13
STYLES = ("dense", "sparse", "near_independent")


def yy(t):
    d, o = (1 + t) / 4, (1 - t) / 4
    return from_matrix([[d, o], [o, d]])


def uniform(n_rows, n_cols):
    return from_matrix(np.full((n_rows, n_cols), 1.0 / (n_rows * n_cols)))


def close(a, b):
    return abs(a - b) <= REL * max(abs(a), abs(b))


def key(pair):
    rows, cols = sorted(pair.row_set), sorted(pair.col_set)
    return (len(rows), len(cols), rows, cols)


def stat(m, pair, kind):
    return event_statistic(m, pair, kind) if pair.row_set or pair.col_set else 0.0


def assert_matches_grid(m):
    values, wit = _exact_scan(m.entries, KINDS, witnesses=True)
    plain, _ = _exact_scan(m.entries)  # value-only: the same splits, unwitnessed
    assert plain == values
    want_values, want_wit = grid_scan(m.entries, witness_kinds=KINDS)
    for kind in KINDS:
        assert close(values[kind], want_values[kind]), (kind, values[kind], want_values[kind])
        if wit[kind] != want_wit[kind]:
            # The grid breaks ties by its own rounding, so its witness may
            # be any of several pairs equal up to ulps; the kernel's must be
            # such a tie with a smaller key.
            got = stat(m, wit[kind], kind)
            assert close(got, stat(m, want_wit[kind], kind)), (kind, wit[kind], want_wit[kind])
            assert close(got, want_values[kind])
            assert key(wit[kind]) < key(want_wit[kind]), (kind, wit[kind], want_wit[kind])


def random_cases():
    rng = np.random.default_rng(31)
    for n_rows in range(1, 9):
        for n_cols in range(1, 9):
            for style in STYLES:
                yield random_joint(n_rows, n_cols, seed=int(rng.integers(1e9)), style=style)
    for shape in ((15, 2), (2, 15)):
        for style in STYLES:
            yield random_joint(*shape, seed=int(rng.integers(1e9)), style=style)


def padded_cases():
    """Zero-mass rows and columns, atom 0 included."""
    rng = np.random.default_rng(32)
    for n_rows, n_cols in ((3, 4), (4, 3), (5, 5), (2, 6)):
        for style in STYLES:
            base = random_joint(n_rows, n_cols, seed=int(rng.integers(1e9)), style=style).entries
            rows = sorted(rng.choice(n_rows + 2, size=n_rows, replace=False))
            cols = sorted(rng.choice(n_cols + 1, size=n_cols, replace=False))
            arr = np.zeros((n_rows + 2, n_cols + 1))
            arr[np.ix_(rows, cols)] = base
            yield from_matrix(arr)
            padded = np.zeros((n_rows + 1, n_cols + 1))
            padded[1:, 1:] = base
            yield from_matrix(padded)


def wide_cases():
    """More than 8 atoms on both sides, and a zero-mass row and column."""
    rng = np.random.default_rng(35)
    for shape in ((10, 9), (9, 10), (11, 9)):
        for style in STYLES:
            arr = random_joint(*shape, seed=int(rng.integers(1e9)), style=style).entries.copy()
            arr[int(rng.integers(shape[0]))] = 0.0
            arr[:, int(rng.integers(shape[1]))] = 0.0
            yield from_matrix(arr, normalize=True)


def tie_cases():
    for t in (0.0, 0.25, 0.5, 1.0):
        yield yy(t)
    for shape in ((1, 1), (2, 2), (3, 3), (2, 5), (4, 2)):
        yield uniform(*shape)
    yield from_matrix(np.eye(4) / 4.0)
    yield kron(yy(0.5), uniform(2, 2))
    yield kron(uniform(2, 2), yy(0.5))
    yield kron(yy(0.3), uniform(3, 1))
    yield kron(random_joint(2, 3, seed=33), uniform(2, 2))
    yield kron(uniform(1, 3), random_joint(3, 2, seed=34, style="sparse"))


@pytest.mark.parametrize(
    "family",
    [random_cases, padded_cases, wide_cases, tie_cases],
    ids=["random", "zero_mass", "wide", "ties"],
)
def test_kernel_matches_grid_oracle(family):
    for m in family():
        assert_matches_grid(m)


@pytest.mark.parametrize(
    "family", [random_cases, padded_cases, tie_cases], ids=["random", "zero_mass", "ties"]
)
def test_kernel_matches_naive_enumeration(family):
    for m in family():
        if m.n_rows + m.n_cols > 9:
            continue
        for kind in KINDS:
            got = event_measure(m, kind, mode="exact").value
            want = naive_event_measure(m.entries, kind)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15), (m.entries, kind)


def test_requested_kinds_only():
    m = random_joint(4, 4, seed=36)
    full, _ = _exact_scan(m.entries)
    tau_only, wit = _exact_scan(m.entries, ("tau",))
    assert tau_only == {"tau": full["tau"]}
    assert wit == {}


def test_pinned_tie_witnesses_for_every_kind():
    # the tau cases are pinned in test_measures; psi and lambda tie there too
    for kind in KINDS:
        assert event_measure(uniform(2, 2), kind, mode="exact").witness == EventPair.of((0,), (0,))
        assert event_measure(yy(0.5), kind, mode="exact").witness == EventPair.of((0,), (0,))


@pytest.mark.parametrize("batch", [1, 3, _BATCH_CLASSES])
def test_class_members_match_the_grid_oracle(batch):
    for n in range(1, 13):
        count = 2 ** (n - 1) - 1
        parts = [_class_members(n, lo, min(lo + batch, count)) for lo in range(0, count, batch)]
        got = np.concatenate(parts) if parts else np.zeros((0, n), dtype=bool)
        assert got.dtype == bool
        np.testing.assert_array_equal(got, _class_masks(n)[0])


@pytest.mark.parametrize("n", [16, 18])
def test_exact_scan_memory_stays_flat_past_the_cap(n):
    # classes are built per batch, so the peak does not grow with the
    # 2^(n-1) class count
    m = random_joint(n, n, seed=41)
    tracemalloc.start()
    try:
        _exact_scan(m.entries, KINDS, witnesses=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
