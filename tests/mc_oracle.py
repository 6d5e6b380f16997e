"""The serial Monte Carlo loop, kept as a test oracle.

This is the loop ``constructions._mc_corr`` ran before it drew its
substreams in a thread pool: one stream of ``MC_STREAM_SIZE`` draws at a
time, each drawn by a single ``multinomial`` call on its own generator
keyed by (seed, stream index), projected onto the two scores, and counted
into running totals.  The pooled path must return the same value and
standard error, compared with ``==``.
"""

from __future__ import annotations

import numpy as np

from depmeasures.constructions import (
    MC_STREAM_SIZE,
    ScoredBase,
    _delta_stderr,
    _indicator_corr,
)


def mc_corr(sb: ScoredBase, n: int, samples: int, seed: int) -> tuple[float, float]:
    """Serial Monte Carlo estimate and its delta-method standard error."""
    p_cells = sb.base.entries.ravel()
    g_cell = np.repeat(sb.g, sb.base.n_cols)
    h_cell = np.tile(sb.h, sb.base.n_rows)
    n11 = na = nb = 0
    done = 0
    stream = 0
    while done < samples:
        take = min(MC_STREAM_SIZE, samples - done)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))
        counts = rng.multinomial(n, p_cells, size=take)
        ya = counts @ g_cell > 0.0
        zb = counts @ h_cell > 0.0
        n11 += int((ya & zb).sum())
        na += int(ya.sum())
        nb += int(zb.sum())
        done += take
        stream += 1
    q11 = n11 / samples
    qa = na / samples
    qb = nb / samples
    return _indicator_corr(q11, qa, qb), _delta_stderr(q11, qa, qb, samples)
