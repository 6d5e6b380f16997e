"""The measures do not change under proportional splits, permutations and
transposes, and never grow under merges.

Splits go past the exact cap (10x200, 36x36), so the exact scan is called
directly there.  The comparisons allow 1e-13 relative: a split or merge
sums the same masses in another order, which moves a value in its last
bits (at most 1.5e-15 relative on these bases), and nothing more.
"""

import numpy as np
import pytest

from depmeasures import (
    event_measure,
    from_matrix,
    full_report,
    merge_cols,
    merge_rows,
    permute,
    random_joint,
    rho,
)
from depmeasures.measures import _exact_scan

from splits import split_both, split_cols

STYLES = ["dense", "sparse", "near_independent"]
REL = 1e-13


def close(got, want):
    return abs(got - want) <= REL * abs(want)


def report_values(m):
    r = full_report(m, mode="exact")
    return r.psi, r.lam, r.tau, r.rho


@pytest.mark.parametrize("style", STYLES)
@pytest.mark.parametrize("seed", range(4))
def test_split_columns_keep_every_measure(style, seed):
    # 10x10 split into 10x200: 20 copies a column
    m = random_joint(10, 10, seed, style=style)
    split = split_cols(m.entries, 20, np.random.default_rng(seed))
    want, got = _exact_scan(m.entries)[0], _exact_scan(split)[0]
    assert all(close(got[k], want[k]) for k in want)
    assert close(rho(from_matrix(split)).value, rho(m).value)


@pytest.mark.parametrize("style", STYLES)
@pytest.mark.parametrize("seed", range(3))
def test_heuristic_on_a_split_stays_under_the_exact_value(style, seed):
    # 12x12 split three ways on both sides: the heuristic is a lower bound
    # on a value the split does not change
    m = random_joint(12, 12, seed, style=style)
    split = from_matrix(split_both(m.entries, 3, np.random.default_rng(seed)))
    for kind, exact in _exact_scan(m.entries)[0].items():
        assert event_measure(split, kind, mode="heuristic").value <= exact * (1.0 + REL)


@pytest.mark.parametrize("style", STYLES)
@pytest.mark.parametrize("seed", range(4))
def test_permutations_and_transposes_keep_the_report(style, seed):
    m = random_joint(10, 10, seed, style=style)
    rng = np.random.default_rng(seed)
    want = report_values(m)
    moved = permute(m, rng.permutation(10).tolist(), rng.permutation(10).tolist())
    for other in (from_matrix(m.entries.T), moved):
        assert all(close(got, w) for got, w in zip(report_values(other), want))


@pytest.mark.parametrize("style", STYLES)
@pytest.mark.parametrize("seed", range(4))
def test_merges_never_raise_the_report(style, seed):
    # rows 0 and 1, then columns 2 and 3, merged; a value may rise only by
    # rounding, so "never larger" carries the relative slack
    m = random_joint(10, 10, seed, style=style)
    merged = merge_cols(merge_rows(m, 0, 1), 2, 3)
    assert all(got <= w * (1.0 + REL) for got, w in zip(report_values(merged), report_values(m)))
