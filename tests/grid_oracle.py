"""The two-sided complement-class grid scan, kept as a test oracle.

This is the enumeration the package used before its one-sided kernel: it
materializes every row-class x column-class pair with four chunked
matmuls and picks witnesses from the full grid.  It is exponentially
slower than the package but shares none of its ranking or splitting, so
the differential tests compare the two on values and witnesses.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from depmeasures.joint_pmf import EventPair
from depmeasures.measures import KINDS

_CHUNK_ELEMS = 2_000_000


@lru_cache(maxsize=32)
def _class_masks(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Representatives of nontrivial complement classes of an n-atom field.

    Each pair {S, S^c} with S not in {empty, full} contains exactly one
    member avoiding atom 0; those members, the subsets of {1..n-1} ordered
    by bitmask value, are enumerated here.  Returns (bool matrix, float
    matrix, complement float matrix, popcounts), each over 2^(n-1) - 1
    subsets.  Complement masks are materialized so complement masses can be
    computed as direct sums; masses of zero-mass events then come out as
    exact 0.0 and the 0/0 convention applies without tolerances.
    """
    if n < 2:
        empty = np.zeros((0, n), dtype=bool)
        fl = empty.astype(np.float64)
        return empty, fl, fl, np.zeros(0, dtype=np.int64)
    ints = np.arange(1, 1 << (n - 1), dtype=np.uint32)
    bits = (ints[:, None] >> np.arange(n - 1, dtype=np.uint32)[None, :]) & 1
    bools = np.concatenate([np.zeros((ints.size, 1), dtype=bool), bits.astype(bool)], axis=1)
    pc = bits.sum(axis=1).astype(np.int64)
    floats = bools.astype(np.float64)
    comp = (~bools).astype(np.float64)
    for arr in (bools, floats, comp, pc):
        arr.flags.writeable = False
    return bools, floats, comp, pc


def _indices_tuple(mask: np.ndarray) -> tuple[int, ...]:
    return tuple(int(i) for i in np.nonzero(mask)[0])


def _side_variants(kind: str, mask: np.ndarray, p: float, pc: float) -> list[np.ndarray]:
    """Complement-class members attaining the class maximum on one side."""
    comp = ~mask
    if kind == "tau":
        return [mask, comp]
    if p < pc:
        return [mask]
    if p > pc:
        return [comp]
    return [mask, comp]


def grid_scan(
    entries: np.ndarray,
    witness_kinds: Sequence[str] = (),
) -> tuple[dict[str, float], dict[str, EventPair]]:
    """Exact suprema of all three event statistics, with optional witnesses.

    Witness tie-break: among maximizers, smallest (|row_set|, |col_set|,
    lexicographic index tuples).
    """
    n_rows, n_cols = entries.shape
    r = entries.sum(axis=1)
    c = entries.sum(axis=0)
    row_b, row_f, row_cf, row_pc = _class_masks(n_rows)
    col_b, col_f, col_cf, col_pc = _class_masks(n_cols)
    n_rc, n_cc = row_f.shape[0], col_f.shape[0]

    values = {k: 0.0 for k in KINDS}
    witnesses = {k: EventPair() for k in witness_kinds}
    if n_rc == 0 or n_cc == 0:
        return values, witnesses

    p_s = row_f @ r
    p_t = col_f @ c
    # Complement masses are summed directly (never as 1 - p) so that
    # events of probability 0 or 1 are recognized exactly and score 0.
    p_sc = row_cf @ r
    p_tc = col_cf @ c
    u = row_f @ entries  # class x column intersection masses
    uc = row_cf @ entries

    ps_min = np.minimum(p_s, p_sc)
    pt_min = np.minimum(p_t, p_tc)
    ps_var = p_s * p_sc
    pt_var = p_t * p_tc

    chunk = max(1, _CHUNK_ELEMS // max(n_cc, 1))
    # Per kind: (value, key, EventPair) running best across chunks.
    best: dict[str, tuple[float, tuple | None, EventPair]] = {
        k: (0.0, None, EventPair()) for k in witness_kinds
    }

    ps_min_sqrt = np.sqrt(ps_min)
    pt_min_sqrt = np.sqrt(pt_min)
    ps_var_sqrt = np.sqrt(ps_var)
    pt_var_sqrt = np.sqrt(pt_var)

    col_t = col_f.T
    col_ct = col_cf.T
    for lo in range(0, n_rc, chunk):
        hi = min(lo + chunk, n_rc)
        # Covariance in determinant form over the four quadrant masses:
        # |p11*p00 - p10*p01| keeps full relative accuracy even when the
        # covariance is far below the resolution of P(S and T) - P(S)P(T).
        p11 = u[lo:hi] @ col_t
        p10 = u[lo:hi] @ col_ct
        p01 = uc[lo:hi] @ col_t
        p00 = uc[lo:hi] @ col_ct
        num = np.abs(p11 * p00 - p10 * p01)
        # Staged divisions: denominator products of near-degenerate masses
        # can underflow to 0 while the statistic itself is moderate.
        nontrivial = (ps_min[lo:hi] > 0.0)[:, None] & (pt_min[None, :] > 0.0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            stats = {
                "psi": np.where(
                    nontrivial, num / ps_min[lo:hi, None] / pt_min[None, :], 0.0
                ),
                "lambda": np.where(
                    nontrivial, num / ps_min_sqrt[lo:hi, None] / pt_min_sqrt[None, :], 0.0
                ),
                "tau": np.where(
                    nontrivial, num / ps_var_sqrt[lo:hi, None] / pt_var_sqrt[None, :], 0.0
                ),
            }
        for k in KINDS:
            cmax = float(stats[k].max())
            if cmax > values[k]:
                values[k] = cmax
            if k not in best or cmax <= 0.0:
                continue
            cur_val, cur_key, _ = best[k]
            if cmax < cur_val:
                continue
            key, pair = _chunk_best_witness(
                k, stats[k], cmax, lo, row_b, col_b, row_pc, col_pc, p_s, p_sc, p_t, p_tc
            )
            if cmax > cur_val or cur_key is None or key < cur_key:
                best[k] = (cmax, key, pair)

    for k in witness_kinds:
        val, key, pair = best[k]
        if values[k] <= 0.0 and n_rows >= 2 and n_cols >= 2:
            # Everything ties at 0; canonical smallest nontrivial pair.
            witnesses[k] = EventPair.of((0,), (0,))
        elif key is not None:
            witnesses[k] = pair
    return values, witnesses


def _chunk_best_witness(
    kind: str,
    stat: np.ndarray,
    cmax: float,
    row_offset: int,
    row_b: np.ndarray,
    col_b: np.ndarray,
    row_pc: np.ndarray,
    col_pc: np.ndarray,
    p_s: np.ndarray,
    p_sc: np.ndarray,
    p_t: np.ndarray,
    p_tc: np.ndarray,
) -> tuple[tuple, EventPair]:
    """Minimal-key maximizer within one chunk of the statistic array."""
    ties = np.argwhere(stat == cmax)
    gi = ties[:, 0] + row_offset
    tj = ties[:, 1]
    n_rows = row_b.shape[1]
    n_cols = col_b.shape[1]

    # Vector prefilter on the two size components of the key.
    if kind == "tau":
        size_s = np.minimum(row_pc[gi], n_rows - row_pc[gi])
        size_t = np.minimum(col_pc[tj], n_cols - col_pc[tj])
    else:
        ps, psc = p_s[gi], p_sc[gi]
        pt, ptc = p_t[tj], p_tc[tj]
        size_s = np.where(
            ps < psc,
            row_pc[gi],
            np.where(ps > psc, n_rows - row_pc[gi], np.minimum(row_pc[gi], n_rows - row_pc[gi])),
        )
        size_t = np.where(
            pt < ptc,
            col_pc[tj],
            np.where(pt > ptc, n_cols - col_pc[tj], np.minimum(col_pc[tj], n_cols - col_pc[tj])),
        )
    keep = size_s == size_s.min()
    gi, tj, size_t = gi[keep], tj[keep], size_t[keep]
    keep = size_t == size_t.min()
    gi, tj = gi[keep], tj[keep]

    best_key: tuple | None = None
    best_pair = EventPair()
    for g, t in zip(gi.tolist(), tj.tolist()):
        for rows_mask in _side_variants(kind, row_b[g], float(p_s[g]), float(p_sc[g])):
            rows = _indices_tuple(rows_mask)
            for cols_mask in _side_variants(kind, col_b[t], float(p_t[t]), float(p_tc[t])):
                cols = _indices_tuple(cols_mask)
                key = (len(rows), len(cols), rows, cols)
                if best_key is None or key < best_key:
                    best_key = key
                    best_pair = EventPair.of(rows, cols)
    assert best_key is not None
    return best_key, best_pair
