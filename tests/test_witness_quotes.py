"""The stacked witness quote against the single-pair quote.

``measures._stacked_quotes`` quotes many (matrix, event pair) statistics of
a stack in one gathered reduction per quadrant shape.  Every value must
equal ``event_statistic``'s for every kind, bit for bit: the gather must
reproduce the column-major pairwise summation of each quadrant block.
"""

import itertools

import numpy as np
import pytest

from depmeasures import EventPair, event_statistic, from_matrix, random_joint
from depmeasures.measures import KINDS, _stacked_quotes

STYLES = ("dense", "sparse", "near_independent")
# The dynamic-range probes of the report benchmark: tiny and subnormal atoms.
PROBES = [
    [[3.6e-300, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
    [[1e-300, 0.0], [0.0, 1.0]],
    [[2e-310, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
    [[1e-300, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]],
    [[1e-155, 0.0], [0.0, 1.0]],
    (np.eye(3) / 3.0 + 1e-17).tolist(),
]


def pair_of(rmask, cmask) -> EventPair:
    return EventPair.of(np.flatnonzero(rmask), np.flatnonzero(cmask))


def every_pair(n_rows: int, n_cols: int) -> list[EventPair]:
    """Every (row mask, column mask) pair, the empty and full masks included."""
    rows = itertools.product((False, True), repeat=n_rows)
    cols = list(itertools.product((False, True), repeat=n_cols))
    return [pair_of(r, c) for r in rows for c in cols]


def random_pairs(rng, n_rows: int, n_cols: int, count: int) -> list[EventPair]:
    """Masks of random density, so their quadrant blocks take many shapes."""
    out = []
    for _ in range(count):
        p_row, p_col = rng.random(2)
        out.append(pair_of(rng.random(n_rows) < p_row, rng.random(n_cols) < p_col))
    return out


def assert_quotes_match(Ms, pairs):
    got = _stacked_quotes(np.array([M.entries for M in Ms]), Ms, pairs)
    for k in KINDS:
        want = [event_statistic(Ms[i], e, k) for i, e in pairs]
        assert got[k].tolist() == want, k
        assert got[k].tobytes() == np.array(want).tobytes(), k


def shape_id(shape) -> str:
    return f"{shape[0]}x{shape[1]}"


@pytest.mark.parametrize("shape", list(itertools.product(range(1, 5), repeat=2)), ids=shape_id)
def test_every_mask_pair_up_to_4x4(shape):
    Ms = [random_joint(*shape, seed=sum(shape) + s, style=style)
          for s, style in enumerate(STYLES)]
    assert_quotes_match(Ms, [(i, e) for i in range(len(Ms)) for e in every_pair(*shape)])


@pytest.mark.parametrize("shape", [(9, 9), (14, 14), (24, 24), (64, 64), (15, 300)], ids=shape_id)
def test_random_masks_on_larger_shapes(shape):
    # 64x64 and 15x300 blocks pass 128 elements: numpy's pairwise sum recurses
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    Ms = [random_joint(*shape, seed=int(rng.integers(1e9)), style=style) for style in STYLES]
    pairs = [(i, e) for i in range(len(Ms)) for e in random_pairs(rng, *shape, 40)]
    assert_quotes_match(Ms, pairs)


def test_empty_and_full_masks_and_zero_mass_atoms():
    entries = random_joint(6, 5, seed=3, style="dense").entries.copy()
    entries[[1, 4]] = 0.0
    entries[:, 2] = 0.0
    M = from_matrix(entries, normalize=True)
    masks = [
        (np.zeros(6, bool), np.zeros(5, bool)),
        (np.ones(6, bool), np.ones(5, bool)),
        (np.zeros(6, bool), np.ones(5, bool)),
        (np.ones(6, bool), np.zeros(5, bool)),
        (np.isin(np.arange(6), [1, 4]), np.arange(5) == 2),  # zero-mass atoms only
        (np.isin(np.arange(6), [1, 4]), np.ones(5, bool)),
        (np.ones(6, bool), np.arange(5) == 2),
        (np.isin(np.arange(6), [0, 1]), np.arange(5) != 2),
    ]
    assert_quotes_match([M], [(0, pair_of(r, c)) for r, c in masks])


@pytest.mark.parametrize("probe", PROBES, ids=lambda p: f"{len(p)}x{len(p[0])}-{p[0][0]:g}")
def test_dynamic_range_probes(probe):
    M = from_matrix(probe)
    assert_quotes_match([M], [(0, e) for e in every_pair(M.n_rows, M.n_cols)])


def test_stacks_mixing_block_shapes():
    # many matrices, many pairs each, in shuffled order with repeats: every
    # quadrant groups quotes of several shapes, and each quote is its own
    rng = np.random.default_rng(5)
    Ms = [random_joint(7, 6, seed=s, style=STYLES[s % 3]) for s in range(12)]
    pairs = [(int(rng.integers(len(Ms))), e) for e in random_pairs(rng, 7, 6, 150)]
    pairs += pairs[:20]
    rng.shuffle(pairs)
    assert_quotes_match(Ms, pairs)
    stack = np.array([M.entries for M in Ms])
    whole = _stacked_quotes(stack, Ms, pairs)
    for q in (0, 77, len(pairs) - 1):
        one = _stacked_quotes(stack, Ms, pairs[q : q + 1])
        assert all(one[k][0] == whole[k][q] for k in KINDS)
