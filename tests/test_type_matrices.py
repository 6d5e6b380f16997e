"""Type matrices as oracles for n-fold joins past the join caps.

``kron`` stops at 10^7 entries and the exact scan at 14x14, but the type
matrix of n draws (``tests/type_oracle.py``) stays small: a 3x3 base has
231 types a side at n = 20.
"""

import numpy as np
import pytest

from depmeasures import event_measure, from_matrix, random_joint, rho
from depmeasures.measures import _exact_scan
from depmeasures.sharpness_search import _threshold_family_bound, tensor_gap_lower_bound
from depmeasures.theorem_suite import BOUND_TOL, SPECTRAL_EQ_TOL

from type_oracle import type_matrix


def exact_tau(entries):
    # the scan itself: a 3x3 base at n = 4 has 15x15 types, past the exact cap
    return _exact_scan(entries, ("tau",))[0]["tau"]


@pytest.mark.parametrize("n", [2, 8, 20])
@pytest.mark.parametrize("rows, cols, seed", [(3, 3, 0), (3, 3, 2), (2, 4, 1)])
def test_rho_of_the_types_is_rho_of_one_copy(rows, cols, seed, n):
    m = random_joint(rows, cols, seed=seed)
    assert abs(rho(from_matrix(type_matrix(m.entries, n))).value - rho(m).value) <= SPECTRAL_EQ_TOL


@pytest.mark.parametrize(
    "rows, cols, seed, n",
    [(r, c, s, n) for n in (3, 4) for r, c, s in [(2, 3, 1), (2, 3, 3), (3, 3, 2)]]
    + [(2, c, s, n) for n in (5, 6) for c, s in [(3, 1), (3, 3), (4, 1), (5, 2)]],
)
def test_threshold_family_within_tau_of_the_types(rows, cols, seed, n):
    # threshold events of summed scores see each side only through its
    # type; at n = 6 a 2x5 base has 7x210 types
    entries = random_joint(rows, cols, seed=seed).entries
    assert _threshold_family_bound(entries, n) <= exact_tau(type_matrix(entries, n)) + BOUND_TOL


@pytest.mark.parametrize("n, gap", [(2, 1.7524e-3), (3, 2.8592e-3), (4, 3.5537e-3)])
def test_exchangeable_gap_of_the_corner_base(n, gap):
    # the base of test_no_hit_from_float_noise_at_n_one: the tensor-gap
    # bound at n_max = n reaches tau of the n-draw types
    marg = np.array([1 / 8, 3 / 4, 1 / 8])
    corner = np.array([[1.0, 0.0, -1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 1.0]])
    base = from_matrix(np.outer(marg, marg) + 0.32203486496116707 / 64 * corner)
    exchangeable = exact_tau(type_matrix(base.entries, n)) - event_measure(base, "tau", mode="exact").value
    assert exchangeable == pytest.approx(gap, abs=5e-8)
    assert abs(exchangeable - tensor_gap_lower_bound(base, n_max=n)) <= 1e-12
