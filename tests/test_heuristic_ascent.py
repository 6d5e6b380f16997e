"""Differential tests of the batched threshold-ascent heuristic.

``heuristic_oracle.heuristic_scan`` runs the same ascent one restart and
one fixed event at a time.  Batching the restarts must not move a single
bit: values are compared with ``==`` and witnesses must be equal.
"""

import numpy as np
import pytest

from depmeasures import EventPair, from_matrix, kron, random_joint
from depmeasures.measures import KINDS, _heuristic_scan

from heuristic_oracle import heuristic_scan

STYLES = ("dense", "sparse", "near_independent")


def stress_matrices(count=48, seed=0):
    """Shapes 2-69 in six families, including extreme dynamic range."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        n, m = (int(x) for x in rng.integers(2, 70, size=2))
        family = i % 6
        if family < 3:
            a = random_joint(n, m, seed=int(rng.integers(1e9)), style=STYLES[family]).entries
        elif family == 3:
            a = rng.random((n, m)) ** 40
        elif family == 4:  # one isolated atom of 1e-8 to 1e-39
            a = rng.random((n, m))
            i0, j0 = int(rng.integers(n)), int(rng.integers(m))
            a[i0, :] = 0.0
            a[:, j0] = 0.0
            a /= a.sum()
            a[i0, j0] = 10.0 ** -int(rng.integers(8, 40))
        else:  # near-identity plus 1e-17
            k = min(n, m)
            a = np.zeros((n, m))
            a[np.arange(k), np.arange(k)] = 1.0 / k
            a += 1e-17
        out.append(from_matrix(a, normalize=True))
    return out


def assert_same(entries, kind):
    value, witness = _heuristic_scan(entries, kind)
    want_value, want_witness = heuristic_scan(entries, kind)
    assert value == want_value
    assert witness == want_witness
    return value, witness


@pytest.mark.parametrize("kind", KINDS)
def test_batched_ascent_matches_sequential(kind):
    for m in stress_matrices():
        assert_same(m.entries, kind)


@pytest.mark.parametrize(
    "matrix",
    [
        np.full((1, 5), 0.2),
        np.full((5, 1), 0.2),
        np.array([[0.3, 0.0, 0.0], [0.5, 0.0, 0.0], [0.2, 0.0, 0.0]]),
        np.full((4, 4), 1.0 / 16),
    ],
    ids=["1x5", "5x1", "one-positive-column", "uniform"],
)
@pytest.mark.parametrize("kind", KINDS)
def test_degenerate_inputs_score_zero(matrix, kind):
    assert assert_same(from_matrix(matrix).entries, kind) == (0.0, EventPair())


def test_tensor_gap_join():
    m = random_joint(4, 4, seed=11)
    value, _ = assert_same(kron(m, m).entries, "tau")
    assert value > 0.0
