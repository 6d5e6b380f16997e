"""The full-grid score-sum convolution, kept as a test oracle.

This is the loop the package ran before it convolved on integer steps:
every step multiplies and adds every cell of the (n * span(a) + 1) x
(n * span(b) + 1) grid of integer scores, including the cells that are
always zero.  The law of the reduced steps, scattered back onto that
grid, must be the same array bit for bit.
"""

from __future__ import annotations

import numpy as np


def full_grid_score_sum_law(
    entries: np.ndarray, a: np.ndarray, b: np.ndarray, n: int
) -> tuple[np.ndarray, int, int]:
    """(law, lo_a, lo_b) with law[i, j] = P(sum a = lo_a + i, sum b = lo_b + j)."""
    amin, bmin = int(a.min()), int(b.min())
    span_a, span_b = int(a.max()) - amin, int(b.max()) - bmin
    steps = [
        (int(a[i]) - amin, int(b[j]) - bmin, float(entries[i, j]))
        for i, j in zip(*np.nonzero(entries > 0.0))
    ]
    cur = np.ones((1, 1))
    for _ in range(n):
        new = np.zeros((cur.shape[0] + span_a, cur.shape[1] + span_b))
        for ia, jb, p in steps:
            new[ia : ia + cur.shape[0], jb : jb + cur.shape[1]] += p * cur
        cur = new
    return cur, n * amin, n * bmin
