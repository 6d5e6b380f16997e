"""The four dependence measures of a joint mass matrix.

For events A (union of row atoms) and B (union of column atoms) with
nu = P(A and B) - P(A)P(B), the three event-pair coefficients are suprema
of |nu| over all event pairs, normalized by

    psi:    P(A) * P(B)
    lambda: sqrt(P(A) * P(B))
    tau:    sqrt(P(A)(1-P(A)) * P(B)(1-P(B)))   (= |Corr(1_A, 1_B)|)

with 0/0 read as 0.  The fourth, maximal correlation, is the supremum of
|Corr(X, Y)| over square-integrable X measurable in the row field and Y in
the column field; on finite spaces it equals the second singular value of
the mass matrix normalized by its marginals (zero-mass atoms removed), and
the second singular vectors rescale into optimal score functions.

Exact psi has a closed form, max |p_ij/(r_i c_j) - 1| over single atoms.
Exact lambda and tau enumerate one representative per complement class
{S, S^c} of the smaller side only (|nu| is invariant under complements);
against a fixed S the best T is a threshold set of the other side's atoms,
so each class costs one sort and a few cumulative sums.  The scan keeps
no state: ``_class_members`` builds each batch's members from their class
numbers, so its memory is O(``_BATCH_CLASSES`` x atoms), also for a stack
of matrices scanned (and their rho SVDs run) in one call: a stacked batch
holds at most ``_BATCH_CLASSES`` (matrix, class, atom) cells, or one
matrix.  The stacked kernels check nothing: their caller quotes and checks
each matrix's parts on its own, as :func:`full_report` does.  Exact mode
runs up to ``EXACT_CAP`` (14) atoms on each side: :func:`within_exact_cap`
is the one rule for it, which every public way into the exact scan applies
through one gate and the fuzz harness and the search reuse.  Beyond the
cap an alternating threshold-ascent heuristic returns certified lower
bounds, handing the split kernel all its restarts at once.  All three
statistics, of one pair or of many splits, come from one elementwise
kernel, ``_statistic``.

Witness rule: in both modes the statistic of each witness pair, by
:func:`event_statistic`, must agree with the scan's or the heuristic's raw
value within ``WITNESS_TOL`` relative to max(1, |value|), else
InvariantViolation is raised.  An exact value is reported as its witness's
statistic; a heuristic value as the heuristic found it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ConvergenceFailure,
    InvariantViolation,
    OutOfRange,
    TooLargeForExact,
)
from .joint_pmf import EventPair, JointPMF, event_masks

KINDS = ("psi", "lambda", "tau")
MODES = ("exact", "heuristic", "auto")

EXACT_CAP = 14
DEFAULT_RHO_TOL = 1e-10
# A second left singular vector whose overlap with sqrt(r) exceeds this
# comes from a repeated top singular value, not from the second pair.
_TOP_SPACE_TOL = 1e-8

# Witness fidelity (relative to max(1, |value|)) and chain tolerances
# enforced on every report.
WITNESS_TOL = 1e-12
CHAIN_TOL = 1e-9
DOUBLING_TOL = 1e-12

# The heuristic is a deterministic function of the matrix: restarts draw
# from a fixed-seed generator.
_HEURISTIC_SEED = 0x5EED
_HEURISTIC_RANDOM_RESTARTS = 16
_HEURISTIC_ATOM_RESTARTS = 4
_HEURISTIC_MAX_ROUNDS = 40


@dataclass(frozen=True)
class RhoSpectral:
    """Diagnostics of the spectral maximal-correlation computation."""

    sigma1: float
    sigma2: float
    residual: float

    def to_jsonable(self) -> dict:
        return {
            "sigma1": self.sigma1,
            "sigma2": self.sigma2,
            "residual": self.residual,
        }


@dataclass(frozen=True)
class RhoResult:
    value: float
    spectral: RhoSpectral
    witness: tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class EventMeasure:
    value: float
    witness: EventPair
    mode: str


@dataclass(frozen=True)
class DependenceReport:
    """All four measures with optimality witnesses.

    ``lam`` is the lambda coefficient (field renamed: keyword).  Witness
    events reproduce their value under :func:`event_statistic` (exactly in
    exact mode, within ``WITNESS_TOL`` in heuristic mode); the rho witness
    is a pair of mean-0 variance-1 score vectors over row/column atoms
    whose correlation equals rho.
    """

    psi: float
    lam: float
    tau: float
    rho: float
    psi_witness: EventPair
    lambda_witness: EventPair
    tau_witness: EventPair
    rho_witness: tuple[np.ndarray, np.ndarray]
    mode_flags: dict[str, str]

    def to_jsonable(self) -> dict:
        f, g = self.rho_witness
        return {
            "psi": self.psi,
            "lambda": self.lam,
            "tau": self.tau,
            "rho": self.rho,
            "psi_witness": self.psi_witness.to_jsonable(),
            "lambda_witness": self.lambda_witness.to_jsonable(),
            "tau_witness": self.tau_witness.to_jsonable(),
            "rho_witness": {
                "f": [float(x) for x in f],
                "g": [float(x) for x in g],
            },
            "mode_flags": dict(self.mode_flags),
        }


def _check_kind(kind: str) -> str:
    if kind not in KINDS:
        raise OutOfRange(f"kind must be one of {KINDS}, got {kind!r}")
    return kind


# ---------------------------------------------------------------------------
# Single event-pair statistics
# ---------------------------------------------------------------------------


def _quadrants(entries: np.ndarray, rmask: np.ndarray, cmask: np.ndarray) -> tuple[np.float64, ...]:
    rows, rest, rest_c = entries[rmask], entries[~rmask], ~cmask
    return rows[:, cmask].sum(), rows[:, rest_c].sum(), rest[:, cmask].sum(), rest[:, rest_c].sum()


def event_covariance(M: JointPMF, e: EventPair) -> float:
    """Signed covariance of the indicator pair, P(A and B) - P(A)P(B).

    Computed in the determinant form p11*p00 - p10*p01 over the collapsed
    2x2 table, which flips sign bit-exactly when either event is replaced
    by its complement (the two forms agree whenever total mass is exactly
    1).
    """
    rmask, cmask = event_masks(M, e)
    p11, p10, p01, p00 = _quadrants(M.entries, rmask, cmask)
    return float(p11 * p00 - p10 * p01)


def event_statistic(M: JointPMF, e: EventPair, kind: str) -> float:
    """One event pair's psi, lambda, or tau statistic (0/0 read as 0)."""
    _check_kind(kind)
    rmask, cmask = event_masks(M, e)
    p11, p10, p01, p00 = _quadrants(M.entries, rmask, cmask)
    num = abs(p11 * p00 - p10 * p01)
    return float(_statistic(kind, num, p11 + p10, p01 + p00, p11 + p01, p10 + p00))


def _statistic(kind: str, num, pa, pac, pb, pbc) -> np.ndarray:
    """psi, lambda or tau from |covariance| and event masses, elementwise.

    pa, pac, pb, pbc are P(A), P(A^c), P(B), P(B^c); psi and lambda read
    only P(A) and P(B).  0/0 is read as 0.  Divisions are staged: products
    of near-degenerate event masses can underflow even when the statistic
    itself is moderate.  Scalars must be numpy floats, so that a zero
    divisor yields a masked quotient rather than an exception.
    """
    da, db = (pa * pac, pb * pbc) if kind == "tau" else (pa, pb)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if kind == "psi":
            stat = num / da / db
        else:
            stat = num / np.sqrt(da) / np.sqrt(db)
    return np.where((da > 0.0) & (db > 0.0), stat, 0.0)


# ---------------------------------------------------------------------------
# Threshold splits: the kernel shared by exact and heuristic scans
# ---------------------------------------------------------------------------


def _splits(w: np.ndarray, marg: np.ndarray, rank: bool = True) -> tuple[np.ndarray | None, ...]:
    """Covariance and masses of every threshold split against fixed events.

    ``w[0, ..., b, j]``, ``w[1, ..., b, j]`` are P(S_b and j), P(S_b^c and j)
    over positive-mass atoms j of the other side, of masses ``marg``
    (broadcast against ``w[0]``); leading axes stack instances.  Against
    S_b the covariance of T is linear in T and each statistic is
    quasiconvex in (covariance, P(T)), so it peaks at a prefix or suffix of
    the atoms ranked by the centered key w[0]*P(S_b^c) - w[1]*P(S_b) per
    unit mass: a positive multiple of w[0]/marg minus a per-class constant,
    so the plain ratio ranks them and keeps exact ties exact.  With
    ``rank``, split k puts the first k + 1 ranked atoms in T; without,
    split j puts in T every atom whose ratio is at least atom j's (all
    vertices again, in fewer array operations on few atoms).  Quadrant
    masses are never formed by subtraction, and the covariance is the
    complement-invariant determinant |p11*p00 - p10*p01|.

    Returns (ranking or None, |covariance|, P(T), P(T^c), P(S_b), P(S_b^c)).
    """
    ratio = w[0] / marg
    order = None
    if rank:
        order = np.argsort(-ratio, axis=-1, kind="stable")
        ranked = np.take_along_axis(w, order[None], axis=-1)
        p11, p01 = np.cumsum(ranked[..., :-1], axis=-1)
        p10, p00 = np.cumsum(ranked[..., :0:-1], axis=-1)[..., ::-1]
    else:
        in_t = ratio[..., None, :] >= ratio[..., :, None]
        p11, p01 = (in_t @ w[..., None])[..., 0]
        p10, p00 = (~in_t @ w[..., None])[..., 0]
    p_s, p_sc = w.sum(axis=-1)
    return order, np.abs(p11 * p00 - p10 * p01), p11 + p01, p10 + p00, p_s, p_sc


def _split_stat(kind: str, num, pt, ptc, p_s, p_sc, fixed: bool = False) -> np.ndarray:
    """Statistic of every split, scoring the better of T and T^c.

    psi and lambda score the smaller of P(S), P(S^c) (P(S) when the event
    S is ``fixed`` rather than a class) and the smaller of P(T), P(T^c);
    tau is complement-invariant.
    """
    if kind != "tau":
        p_s = p_s if fixed else np.minimum(p_s, p_sc)
        pt = np.minimum(pt, ptc)
    return _statistic(kind, num, p_s[..., None], p_sc[..., None], pt, ptc)


def _attaining(kind: str, pa, pb) -> tuple:
    """Whether members a, b of a class, of masses pa, pb, attain its statistic.

    tau is complement-invariant; psi and lambda are largest on the member
    of smaller mass (both members on a tie).  Scalars or arrays.
    """
    if kind == "tau":
        return True, True
    return pa <= pb, pb <= pa


# ---------------------------------------------------------------------------
# Exact suprema: closed-form psi, one-sided enumeration for lambda and tau
# ---------------------------------------------------------------------------

# Complement classes scored per batch, and (matrix, class, atom) cells per
# batch of a stack of small matrices.  A stacked matmul makes one BLAS call
# per matrix, so batches this small also keep it off the BLAS thread pool,
# which costs more than it saves.
_BATCH_CLASSES = 2048
# Value-only scans enumerating at most this many atoms (127 classes; the
# split side is within the cap) compare atoms pairwise, not by sorting:
# faster there on a 2-core x86 VM, even at 9 atoms and slower from 10 on.
# The ranked path alone would do, but it costs value-only tau scans of 2x8,
# 3x3 and 4x4 matrices a fifth to a third more (min of 75 calls), and its
# values differ from these in the last bits (up to 2.7e-15 relative) on
# 15-27% of them: search payloads, whose base tau scans run here, would change.
_LEAN_SIDE = 8
# Statistics within this fraction of the maximum tie with it; witnesses are
# the smallest key among ties, so rounding does not pick among exact ties.
_TIE_FRACTION = 1.0 - 1e-14


def _class_members(n: int, lo: int, hi: int) -> np.ndarray:
    """Members of the complement classes numbered lo .. hi-1 of an n-atom field.

    Each pair {S, S^c} with S not in {empty, full} contains exactly one
    member avoiding atom 0: class g's is the subset of {1..n-1} whose
    bitmask (bit i for atom i) is 2(g + 1), so classes run in bitmask
    order.  There are 2^(n-1) - 1 classes.  Returns a bool matrix, unpacked
    from the bytes of the little-endian bitmasks.
    """
    codes = np.arange(2 * lo + 2, 2 * hi + 2, 2, dtype="<u8").view(np.uint8).reshape(-1, 8)
    return np.unpackbits(codes, axis=1, count=n, bitorder="little").view(bool)


def _indices_tuple(mask: np.ndarray) -> tuple[int, ...]:
    return tuple(np.flatnonzero(mask).tolist())


def _sum_excluding(a: np.ndarray) -> np.ndarray:
    """Row sums of ``a`` leaving out each column in turn, summed directly."""
    out = np.zeros_like(a)
    out[..., 1:] += np.cumsum(a[..., :-1], axis=-1)
    out[..., :-1] += np.cumsum(a[..., :0:-1], axis=-1)[..., ::-1]
    return out


def _psi_closed_form(stack: np.ndarray) -> tuple[np.ndarray, list[EventPair]]:
    """psi of each matrix of a stack, and its first single-atom pair tied with it.

    P(AB)/(P(A)P(B)) is a mediant of the ratios p_ij/(r_i c_j), so psi is
    max |p_ij/(r_i c_j) - 1|, attained at single atoms; each atom's
    covariance is in determinant form over quadrant masses summed directly.
    Ties go to the first pair in row-major order.
    """
    p10 = _sum_excluding(stack)
    p01 = _sum_excluding(stack.swapaxes(1, 2)).swapaxes(1, 2)
    p00 = _sum_excluding(p10.swapaxes(1, 2)).swapaxes(1, 2)
    num = np.abs(stack * p00 - p10 * p01)
    stat = _statistic("psi", num, stack + p10, None, stack + p01, None).reshape(len(stack), -1)
    top = stat.max(axis=1)
    first = np.argmax(stat >= top[:, None] * _TIE_FRACTION, axis=1)
    n_cols = stack.shape[2]
    return top, [EventPair.of((f // n_cols,), (f % n_cols,)) for f in first.tolist()]


def _exact_scan(
    entries: np.ndarray,
    kinds: Sequence[str] = KINDS,
    witnesses: bool = False,
) -> tuple[dict, dict]:
    """Exact suprema of the requested event statistics, optionally witnessed.

    ``entries`` is one matrix, or a (B, rows, cols) stack whose values and
    witnesses come back as lists, each matrix's bits those it gets alone.
    lambda and tau enumerate the complement classes of the smaller side
    (rows on a tie) and, per class, only the threshold splits of the other
    side's positive-mass atoms (see :func:`_splits`).  Witness tie-break:
    among pairs tied with the running maximum (see ``_TIE_FRACTION``),
    smallest (|row_set|, |col_set|, lexicographic index tuples).
    """
    stack = entries if entries.ndim == 3 else entries[None]
    n_mats, n_rows, n_cols = stack.shape
    values = {k: [0.0] * n_mats for k in kinds}
    best: dict[str, list] = {k: [None] * n_mats for k in kinds} if witnesses else {}
    if "psi" in kinds:
        psi, atoms = _psi_closed_form(stack)
        values["psi"] = psi.tolist()
        best["psi"] = [((), pair, 0.0) for pair in atoms]

    split_kinds = [k for k in kinds if k != "psi"]
    transposed = n_cols < n_rows
    n = min(n_rows, n_cols)
    n_classes = (1 << (n - 1)) - 1 if split_kinds else 0
    rank = witnesses or n > _LEAN_SIDE
    # Matrices with the same positive-mass atoms on the thresholded side form
    # a stack, scanned in batches of at most _BATCH_CLASSES (matrix, class,
    # atom) cells, or of one matrix.
    groups: dict[bytes, tuple] = {}
    for i, p in enumerate(stack.transpose(0, 2, 1) if transposed else stack) if n_classes else ():
        marg = p.sum(axis=0)
        pos = np.nonzero(marg > 0.0)[0]
        if pos.size >= 2:
            _, group, masses, subs = groups.setdefault(pos.tobytes(), (pos, [], [], []))
            group.append(i)
            masses.append(marg[pos])
            subs.append(p[:, pos])
    for pos, group, masses, subs in groups.values():
        # a lone matrix's stack is a view of it
        sub = subs[0][None] if len(group) == 1 else np.array(subs)
        gmarg = masses[0][None] if len(group) == 1 else np.array(masses)
        step = max(1, _BATCH_CLASSES // (min(n_classes, _BATCH_CLASSES) * pos.size))
        for lo in range(0, n_classes, _BATCH_CLASSES):
            members = _class_members(n, lo, min(lo + _BATCH_CLASSES, n_classes))
            for start in range(0, len(group), step):
                at = group[start : start + step]
                # Complement masks make complement masses direct sums: zero-mass
                # events come out as exact 0.0 and the 0/0 rule needs no tolerance.
                # One (classes, n) @ (n, size) BLAS call per matrix and side;
                # the splits run on (matrix, class) rows.
                masks = np.array((members, ~members), dtype=np.float64)[:, None]
                w = (masks @ sub[start : start + step]).reshape(2, -1, pos.size)
                del masks  # freed before the splits allocate theirs
                row_marg = gmarg[start : start + 1] if len(at) == 1 else np.repeat(
                    gmarg[start : start + step], len(members), axis=0
                )
                order, num, pt, ptc, p_s, p_sc = _splits(w, row_marg, rank)
                for k in split_kinds:
                    stat = _split_stat(k, num, pt, ptc, p_s, p_sc)
                    cmaxes = stat.reshape(len(at), -1).max(axis=1).tolist()
                    tops = values[k]
                    for i, cmax in zip(at, cmaxes):
                        tops[i] = max(tops[i], cmax)
                    if witnesses:
                        _best_witnesses(
                            k, best[k], at, cmaxes, [tops[i] for i in at], stat, members,
                            p_s, p_sc, pos, order, pt, ptc, transposed,
                        )

    wit: dict[str, list] = {}
    if witnesses:
        # Where everything ties at 0: the canonical smallest nontrivial pair.
        zero = EventPair.of((0,), (0,)) if n_rows >= 2 and n_cols >= 2 else EventPair()
        for k in kinds:
            wit[k] = [b[1] if v > 0.0 else zero for b, v in zip(best[k], values[k])]
    if entries.ndim == 2:
        one = {k: w[0] for k, w in wit.items()} if witnesses else {}
        return {k: v[0] for k, v in values.items()}, one
    return values, wit


def _best_witnesses(
    kind: str, best: list, at: list, cmaxes: list, tops: list, stat: np.ndarray,
    members: np.ndarray, p_s: np.ndarray, p_sc: np.ndarray, pos: np.ndarray, order: np.ndarray,
    pt: np.ndarray, ptc: np.ndarray, transposed: bool,
) -> None:
    """Update ``best[i]``, (key, pair, cell statistic), for the matrices ``at`` of a batch.

    A matrix whose batch maximum ``cmax`` ties its running maximum ``top``
    offers its minimal-key cell with stat >= top * ``_TIE_FRACTION``; rows
    of ``stat`` are (matrix, class) pairs, and ``order`` ranks atoms ``pos``.
    """
    floor = np.array([top * _TIE_FRACTION for top in tops])
    held = np.array([cmax > 0.0 and cmax >= f for cmax, f in zip(cmaxes, floor.tolist())])
    if not held.any():
        return
    cells = (len(at), len(members), -1)
    stat, pt, ptc, order = (a.reshape(cells) for a in (stat, pt, ptc, order))
    p_s, p_sc = p_s.reshape(cells[:2]), p_sc.reshape(cells[:2])

    def min_size(na, nb, pa, pb):
        take_a, take_b = _attaining(kind, pa, pb)
        return np.where(take_a & take_b, np.minimum(na, nb), np.where(take_a, na, nb))

    inst, b, k = np.nonzero((stat >= floor[:, None, None]) & held[:, None, None])
    pc = members[b].sum(axis=1)
    size_s = min_size(pc, members.shape[1] - pc, p_s[inst, b], p_sc[inst, b])
    size_t = min_size(k + 1, pos.size - 1 - k, pt[inst, b, k], ptc[inst, b, k])
    size_rows, size_cols = (size_t, size_s) if transposed else (size_s, size_t)
    # Keep each matrix's cells of smallest |rows|, then smallest |cols|.
    code = size_rows * (members.shape[1] + pos.size) + size_cols
    least = np.full(len(stat), code.max())
    np.minimum.at(least, inst, code)
    keep = code == least[inst]

    found: list = [None] * len(at)
    for i, bi, ki in zip(inst[keep].tolist(), b[keep].tolist(), k[keep].tolist()):
        mask = members[bi]
        ranked = pos[order[i, bi]].tolist()
        s_sides = (_indices_tuple(mask), _indices_tuple(~mask))
        t_sides = (tuple(sorted(ranked[: ki + 1])), tuple(sorted(ranked[ki + 1 :])))
        s_take = _attaining(kind, p_s[i, bi], p_sc[i, bi])
        t_take = _attaining(kind, pt[i, bi, ki], ptc[i, bi, ki])
        for s in (m for m, take in zip(s_sides, s_take) if take):
            for t in (m for m, take in zip(t_sides, t_take) if take):
                rows, cols = (t, s) if transposed else (s, t)
                key = (len(rows), len(cols), rows, cols)
                if found[i] is None or key < found[i][0]:
                    found[i] = (key, EventPair.of(rows, cols), float(stat[i, bi, ki]))
    for j, hit in enumerate(found):
        old = best[at[j]]
        if hit is not None and (old is None or old[2] < floor[j] or hit[0] < old[0]):
            best[at[j]] = hit


# ---------------------------------------------------------------------------
# Alternating threshold-ascent heuristic (certified lower bound)
# ---------------------------------------------------------------------------


def _best_threshold_sides(
    kind: str, fixed: np.ndarray, side: np.ndarray, marg: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each restart's best threshold set T against its fixed event F_b.

    ``fixed[b]`` masks F_b over the rows of ``side``; its columns, of masses
    ``marg`` (two or more positive), are split as in :func:`_splits` and
    scored against F_b, not its class.  Returns each restart's statistic at
    its first best split, and T, or T^c where psi or lambda prefer it.
    """
    # (B, 2, n) @ (n, m) makes one (2, n) @ (n, m) BLAS call per restart, so
    # batching leaves every restart's masses bit for bit unchanged.
    w = np.stack((fixed, ~fixed), axis=1).astype(np.float64) @ side
    pos = np.nonzero(marg > 0.0)[0]
    order, num, pt, ptc, p_s, p_sc = _splits(w[:, :, pos].transpose(1, 0, 2), marg[pos])
    stat = _split_stat(kind, num, pt, ptc, p_s, p_sc, fixed=True)
    k = np.argmax(stat, axis=1)[:, None]
    flip = np.take_along_axis(pt > ptc, k, axis=1) & (kind != "tau")
    mask = np.zeros((len(fixed), marg.size), dtype=bool)
    mask[:, pos] = (np.argsort(order, axis=1) <= k) ^ flip
    return np.take_along_axis(stat, k, axis=1)[:, 0], mask


def _heuristic_scan(entries: np.ndarray, kind: str) -> tuple[float, EventPair]:
    """Alternating threshold ascent: a certified lower bound and its witness.

    Restarts fix a row event S: 16 random halves seeded by ``_HEURISTIC_SEED``
    (never empty or full), then the 4 heaviest single rows.  All ascend in
    lockstep, one batch per half-round: the best column threshold T against
    S, then the best row threshold S against T.  A restart's values count
    until a round gains at most 1e-15 on the last, or for
    ``_HEURISTIC_MAX_ROUNDS`` rounds; a finished restart leaves the batch.
    The first maximum in (restart, round, half-round) order wins, else 0
    and ``EventPair()``.
    """
    r = entries.sum(axis=1)
    c = entries.sum(axis=0)
    if np.count_nonzero(r > 0.0) < 2 or np.count_nonzero(c > 0.0) < 2:
        return 0.0, EventPair()
    rng = np.random.default_rng(_HEURISTIC_SEED)
    atoms = np.argsort(-r, kind="stable")[:_HEURISTIC_ATOM_RESTARTS]
    s = np.zeros((_HEURISTIC_RANDOM_RESTARTS + atoms.size, r.size), dtype=bool)
    s[_HEURISTIC_RANDOM_RESTARTS + np.arange(atoms.size), atoms] = True
    for mask in s[:_HEURISTIC_RANDOM_RESTARTS]:
        mask[:] = rng.random(r.size) < 0.5
        if not mask.any():
            mask[int(rng.integers(r.size))] = True
        if mask.all():
            mask[int(rng.integers(r.size))] = False

    best, local, live = np.zeros(len(s)), np.zeros(len(s)), np.arange(len(s))
    best_s, best_t = np.zeros_like(s), np.zeros((len(s), c.size), dtype=bool)
    for _ in range(_HEURISTIC_MAX_ROUNDS):
        # s holds the fixed events of the live restarts only
        val_t, t = _best_threshold_sides(kind, s, entries, c)
        val_s, s_new = _best_threshold_sides(kind, t, entries.T, r)
        for val, s_at in ((val_t, s), (val_s, s_new)):
            gain = val > best[live]
            rows = live[gain]
            best[rows], best_s[rows], best_t[rows] = val[gain], s_at[gain], t[gain]
        round_best = np.maximum(val_t, val_s)
        going = round_best > local[live] + 1e-15
        local[live] = round_best
        live, s = live[going], s_new[going]
        if not live.size:
            break
    b = int(np.argmax(best))
    return float(best[b]), EventPair.of(np.nonzero(best_s[b])[0], np.nonzero(best_t[b])[0])


# ---------------------------------------------------------------------------
# Public event-measure API
# ---------------------------------------------------------------------------


def within_exact_cap(n_rows: int, n_cols: int) -> bool:
    """Whether exact event enumeration is allowed at this shape."""
    return n_rows <= EXACT_CAP and n_cols <= EXACT_CAP


def _use_exact(M: JointPMF, mode: str) -> bool:
    """Resolve ``mode`` for M: exact requires the cap, auto prefers exact."""
    if mode not in MODES:
        raise OutOfRange(f"mode must be one of {MODES}, got {mode!r}")
    within = within_exact_cap(M.n_rows, M.n_cols)
    if mode == "exact" and not within:
        raise TooLargeForExact(
            f"shape {M.n_rows}x{M.n_cols} exceeds exact caps {EXACT_CAP}x{EXACT_CAP}"
        )
    return within and mode != "heuristic"


def event_measure(M: JointPMF, kind: str, mode: str = "auto") -> EventMeasure:
    """Supremum of one event statistic, exact or heuristic.

    Exact mode (requires the shape within the cap) is the closed form for
    psi and one-sided class enumeration for lambda and tau; heuristic mode
    returns a lower bound from threshold ascent and is flagged as such.
    ``auto`` picks exact whenever it is feasible.  The witness rule of
    the module docstring applies.
    """
    _check_kind(kind)
    values, wit, used = _witnessed(M, (kind,), mode)
    return EventMeasure(value=values[kind], witness=wit[kind], mode=used)


def _witnessed(
    M: JointPMF, kinds: Sequence[str], mode: str
) -> tuple[dict[str, float], dict[str, EventPair], str]:
    """Suprema of ``kinds``, witnesses, and the mode ``mode`` resolved to."""
    exact = _use_exact(M, mode)
    if exact:
        values, wit = _exact_scan(M.entries, kinds, witnesses=True)
    else:
        values, wit = {}, {}
        for k in kinds:
            values[k], wit[k] = _heuristic_scan(M.entries, k)
    return _quoted(M, values, wit, exact), wit, "exact" if exact else "heuristic"


def _quoted(
    M: JointPMF, values: dict[str, float], wit: dict[str, EventPair], exact: bool
) -> dict[str, float]:
    """``values`` under the witness rule of the module docstring.

    Evaluates each witness's statistic once.  Exact values are quoted at the
    witness because the scan and the single-pair evaluation follow different
    float paths: quoting keeps witness fidelity exact at every magnitude.
    """
    for k, value in values.items():
        quoted = event_statistic(M, wit[k], k)
        _require_finite(k, value, quoted)
        if abs(quoted - value) > WITNESS_TOL * max(1.0, abs(quoted)):
            used = "exact" if exact else "heuristic"
            raise InvariantViolation(
                f"{k} witness reproduces {quoted!r}, the {used} scan found {value!r}"
            )
        if exact:
            values[k] = quoted
    return values


def _require_finite(kind: str, value: float, *more: float) -> None:
    """The non-finite rule: a value that is not finite raises OutOfRange."""
    if not all(math.isfinite(v) for v in (value, *more)):
        raise OutOfRange(f"{kind} is not finite on this matrix: {value!r}")


def exact_event_values(M: JointPMF) -> dict[str, float]:
    """All three exact suprema in one enumeration pass (no witnesses).

    A value that is not finite raises OutOfRange, as in reports.
    """
    _use_exact(M, "exact")
    values, _ = _exact_scan(M.entries)
    for k, v in values.items():
        _require_finite(k, v)
    return values


# ---------------------------------------------------------------------------
# Maximal correlation (spectral)
# ---------------------------------------------------------------------------


def rho(M: JointPMF) -> RhoResult:
    """Maximal correlation via the normalized matrix's second singular value.

    Zero-mass rows/columns are deleted; Q = p / sqrt(outer(r, c)) has top
    singular triple (1, sqrt(r), sqrt(c)) and its second singular value is
    the maximal correlation.  Witness score functions are the second
    singular vectors rescaled by 1/sqrt(marginal): mean 0, variance 1, and
    correlation equal to the reported value.

    Degenerate pairs (fewer than two positive-mass atoms on either side)
    have maximal correlation 0 and a zero witness.  When the top singular
    value repeats, the witness comes from the part of the top space
    orthogonal to sqrt(r) (see :func:`_centered_top_pair`).
    """
    return _spectral_rho(M.entries)


def _spectral_rho(entries: np.ndarray) -> RhoResult:
    """:func:`rho` of a validated joint pmf array, with every check."""
    parts = _normalized(entries)
    return _checked_rho(*parts, *_svd(parts[0]))


def _spectral_parts(matrices: Sequence[np.ndarray]) -> list[tuple]:
    """:func:`_normalized` parts and SVD factors of each array, for :func:`_checked_rho`.
    Matrices whose normalized forms share a shape share one stacked SVD,
    which runs LAPACK per matrix: each gets the bits it gets alone."""
    parts = [_normalized(entries) for entries in matrices]
    groups: dict[tuple, list[int]] = {}
    for i, part in enumerate(parts):
        groups.setdefault(part[0].shape, []).append(i)
    out: list = [None] * len(parts)
    for group in groups.values():
        for i, svd in zip(group, zip(*_svd(np.array([parts[i][0] for i in group])))):
            out[i] = (*parts[i], *svd)
    return out


def _normalized(entries: np.ndarray) -> tuple[np.ndarray, ...]:
    """(q, sqrt r, sqrt c, positive rows, positive columns) of a joint pmf
    array, where q is the array normalized by its marginals, zero-mass atoms
    removed: (1, sqrt r, sqrt c) is its top singular triple."""
    r = entries.sum(axis=1)
    c = entries.sum(axis=0)
    rpos = r > 0.0
    cpos = c > 0.0
    sqrt_r = np.sqrt(r[rpos])
    sqrt_c = np.sqrt(c[cpos])
    # Two-stage division: sqrt(outer(r, c)) can underflow to 0 for
    # near-degenerate atoms even though every quotient is bounded by 1.
    q = (entries[rpos][:, cpos] / sqrt_r[:, None]) / sqrt_c[None, :]
    if not np.isfinite(q).all():
        raise ConvergenceFailure("normalized matrix has non-finite entries")
    return q, sqrt_r, sqrt_c, rpos, cpos


def _svd(q: np.ndarray) -> tuple[np.ndarray, ...]:
    try:
        return np.linalg.svd(q)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise ConvergenceFailure(f"SVD did not converge: {exc}") from exc


def _checked_rho(
    q: np.ndarray, sqrt_r: np.ndarray, sqrt_c: np.ndarray, rpos: np.ndarray, cpos: np.ndarray,
    u_mat: np.ndarray, s: np.ndarray, vt: np.ndarray,
) -> RhoResult:
    """rho, its score witness and every check, from :func:`_normalized` and
    the SVD of q."""
    f = np.zeros(rpos.size)
    g = np.zeros(cpos.size)
    sigma1 = float(s[0]) if s.size else 0.0
    if abs(sigma1 - 1.0) > 1e-9:
        raise InvariantViolation(
            f"top singular value {sigma1!r} of the normalized matrix is not 1"
        )
    if min(q.shape) < 2:
        spectral = RhoSpectral(sigma1=sigma1, sigma2=0.0, residual=0.0)
        return RhoResult(value=0.0, spectral=spectral, witness=(f, g))

    sigma2 = float(s[1])
    if not -1e-12 <= sigma2 <= sigma1 + 1e-12:
        raise InvariantViolation(f"singular values out of order: {sigma1}, {sigma2}")
    u2 = u_mat[:, 1]
    v2 = vt[1]
    if abs(float(u2 @ sqrt_r)) > _TOP_SPACE_TOL:
        u2, v2 = _centered_top_pair(q, u_mat[:, :2], sqrt_r)
    # Euclidean norms, formed as np.linalg.norm forms them: sqrt(x . x).
    left, right = q @ v2 - sigma2 * u2, q.T @ u2 - sigma2 * v2
    residual = max(math.sqrt(left @ left), math.sqrt(right @ right))
    if residual > DEFAULT_RHO_TOL:
        raise ConvergenceFailure(f"singular-pair residual {residual} exceeds {DEFAULT_RHO_TOL}")
    f[rpos] = u2 / sqrt_r
    g[cpos] = v2 / sqrt_c
    value = min(max(sigma2, 0.0), 1.0)
    spectral = RhoSpectral(sigma1=sigma1, sigma2=sigma2, residual=residual)
    return RhoResult(value=value, spectral=spectral, witness=(f, g))


def _centered_top_pair(
    q: np.ndarray, u_top: np.ndarray, sqrt_r: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """A singular pair of the repeated top space orthogonal to (sqrt r, sqrt c).

    When sigma1 = sigma2 the SVD may return any orthonormal basis of the
    top space, so its second left vector need not be orthogonal to sqrt(r)
    and its rescaled scores need not be centered.  sqrt(r) is projected
    out of both top left vectors, the longer remainder (the better
    conditioned one) is normalized to u, and v = q^T u / |q^T u|.
    """
    unit = sqrt_r / np.linalg.norm(sqrt_r)
    rest = u_top - np.outer(unit, unit @ u_top)
    lengths = np.linalg.norm(rest, axis=0)
    k = int(np.argmax(lengths))
    u = rest[:, k] / lengths[k]
    v = q.T @ u
    return u, v / np.linalg.norm(v)


def score_correlation(M: JointPMF, f: np.ndarray, g: np.ndarray) -> float:
    """Correlation of score functions f(row), g(col) under the joint law."""
    # Correlation is scale-invariant: max-abs scaling keeps squared scores
    # finite, and the staged division keeps vf * vg from underflowing.
    f_scale = np.abs(np.asarray(f, dtype=np.float64)).max(initial=0.0)
    g_scale = np.abs(np.asarray(g, dtype=np.float64)).max(initial=0.0)
    if f_scale <= 0.0 or g_scale <= 0.0:
        return 0.0
    f = np.asarray(f, dtype=np.float64) / f_scale
    g = np.asarray(g, dtype=np.float64) / g_scale
    r = M.entries.sum(axis=1)
    c = M.entries.sum(axis=0)
    ef = float(r @ f)
    eg = float(c @ g)
    vf = float(r @ (f - ef) ** 2)
    vg = float(c @ (g - eg) ** 2)
    if vf <= 0.0 or vg <= 0.0:
        return 0.0
    cov = float((f - ef) @ M.entries @ (g - eg))
    return cov / math.sqrt(vf) / math.sqrt(vg)


# ---------------------------------------------------------------------------
# Aggregate report
# ---------------------------------------------------------------------------


def full_report(M: JointPMF, mode: str = "auto") -> DependenceReport:
    """All four measures, witnesses, and mode flags, invariants enforced.

    In both modes each event witness is checked against its value (the
    witness rule of the module docstring) and the rho witness against rho.
    With exact event measures the report is also checked against the
    inequality chain lambda <= tau <= rho <= min(1, psi) and the doubling
    bound tau <= 2*lambda.  Violations raise InvariantViolation (they
    indicate a bug, not bad input).
    """
    values, wit, used = _witnessed(M, KINDS, mode)
    return _report(M, values, wit, used, rho(M))


def _report(
    M: JointPMF, values: dict[str, float], wit: dict[str, EventPair], used: str, rho_res: RhoResult
) -> DependenceReport:
    flags = dict.fromkeys(KINDS, used)
    flags["rho"] = "exact"
    report = DependenceReport(
        psi=values["psi"],
        lam=values["lambda"],
        tau=values["tau"],
        rho=rho_res.value,
        psi_witness=wit["psi"],
        lambda_witness=wit["lambda"],
        tau_witness=wit["tau"],
        rho_witness=rho_res.witness,
        mode_flags=flags,
    )
    _enforce_report_invariants(M, report)
    return report


def _enforce_report_invariants(M: JointPMF, rep: DependenceReport) -> None:
    wcorr = score_correlation(M, *rep.rho_witness)
    if rep.rho > 0.0 and abs(abs(wcorr) - rep.rho) > 10.0 * DEFAULT_RHO_TOL:
        raise InvariantViolation(
            f"rho witness correlation {wcorr!r} vs reported {rep.rho!r}"
        )
    all_exact = all(rep.mode_flags[k] == "exact" for k in KINDS)
    if all_exact:
        if not (rep.lam <= rep.tau + CHAIN_TOL and rep.tau <= rep.rho + CHAIN_TOL):
            raise InvariantViolation(
                f"chain violated: lambda={rep.lam} tau={rep.tau} rho={rep.rho}"
            )
        if rep.rho > min(1.0, rep.psi) + CHAIN_TOL:
            raise InvariantViolation(f"rho={rep.rho} exceeds min(1, psi={rep.psi})")
        if rep.tau > 2.0 * rep.lam + DOUBLING_TOL:
            raise InvariantViolation(f"tau={rep.tau} exceeds 2*lambda={2 * rep.lam}")
        # psi <= 1/min positive entry; the slack is relative because psi
        # reaches 1e300 on matrices with tiny atoms.
        pos = M.entries[M.entries > 0.0]
        if pos.size and rep.psi > 1.0 / float(pos.min()) * (1.0 + CHAIN_TOL):
            raise InvariantViolation(
                f"psi={rep.psi} exceeds 1/min positive entry sanity bound"
            )
