"""The sequential threshold-ascent heuristic, kept as a test oracle.

This is the ascent the package ran before it batched its restarts: one
restart at a time, one fixed event per split-kernel call, and the best
pair kept by a strict ``>`` in (restart, round, half-round) order.  The
batched ascent must return the same value and witness bit for bit.
"""

from __future__ import annotations

import numpy as np

from depmeasures.joint_pmf import EventPair
from depmeasures.measures import (
    _HEURISTIC_ATOM_RESTARTS,
    _HEURISTIC_MAX_ROUNDS,
    _HEURISTIC_RANDOM_RESTARTS,
    _HEURISTIC_SEED,
    _split_stat,
    _splits,
)


def _best_threshold_side(kind: str, w: np.ndarray, marg: np.ndarray) -> tuple[float, np.ndarray]:
    """Best threshold set on one side against a fixed event on the other.

    ``w[0, j]`` and ``w[1, j]`` are P(fixed event and atom j) and P(its
    complement and atom j).  Scores every split of :func:`_splits` against
    the fixed event itself, not its class, and returns the better of T and
    T^c (T on a tie).
    """
    pos = np.nonzero(marg > 0.0)[0]
    mask = np.zeros(marg.size, dtype=bool)
    if pos.size < 2:
        return 0.0, mask
    order, num, pt, ptc, p_s, p_sc = _splits(w[:, None, pos], marg[pos])
    stat = _split_stat(kind, num, pt, ptc, p_s, p_sc, fixed=True)[0]
    k = int(np.argmax(stat))
    ranked = pos[order[0]]
    if kind != "tau" and pt[0, k] > ptc[0, k]:
        mask[ranked[k + 1 :]] = True
    else:
        mask[ranked[: k + 1]] = True
    return float(stat[k]), mask


def heuristic_scan(entries: np.ndarray, kind: str) -> tuple[float, EventPair]:
    n_rows, n_cols = entries.shape
    if n_rows < 2 or n_cols < 2:
        return 0.0, EventPair()
    r = entries.sum(axis=1)
    c = entries.sum(axis=0)
    rng = np.random.default_rng(_HEURISTIC_SEED)

    seeds: list[np.ndarray] = []
    for _ in range(_HEURISTIC_RANDOM_RESTARTS):
        mask = rng.random(n_rows) < 0.5
        if not mask.any():
            mask[int(rng.integers(n_rows))] = True
        if mask.all():
            mask[int(rng.integers(n_rows))] = False
        seeds.append(mask)
    for i in np.argsort(-r, kind="stable")[:_HEURISTIC_ATOM_RESTARTS]:
        mask = np.zeros(n_rows, dtype=bool)
        mask[int(i)] = True
        seeds.append(mask)

    best_val = 0.0
    best_pair = EventPair()
    for s_mask in seeds:
        local = 0.0
        for _ in range(_HEURISTIC_MAX_ROUNDS):
            val_t, t_mask = _best_threshold_side(
                kind, np.stack((s_mask, ~s_mask)).astype(np.float64) @ entries, c
            )
            if val_t > best_val:
                best_val = val_t
                best_pair = EventPair.of(np.nonzero(s_mask)[0], np.nonzero(t_mask)[0])
            val_s, s_new = _best_threshold_side(
                kind, np.stack((t_mask, ~t_mask)).astype(np.float64) @ entries.T, r
            )
            if val_s > best_val:
                best_val = val_s
                best_pair = EventPair.of(np.nonzero(s_new)[0], np.nonzero(t_mask)[0])
            s_mask = s_new
            round_best = max(val_t, val_s)
            if round_best <= local + 1e-15:
                break
            local = round_best
    return best_val, best_pair
