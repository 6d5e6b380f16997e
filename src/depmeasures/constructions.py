"""Explicit constructions and closed-form comparison quantities.

Contents:

  * the sign-product family: a 2x2 pair with P(diagonal cell) = (1+t)/4,
    whose psi = tau = rho = t and whose indicator correlation between the
    two "+1" events is exactly t;
  * embellishment: joining any base pair independently with a sign-product
    pair of level t pins tau of the join to exactly t (squeeze between the
    embedding lower bound and the join upper bound) without lowering rho;
  * the positive-quadrant probability 1/4 + arcsin(r)/(2 pi) of a standard
    bivariate normal pair, and the limiting indicator correlation
    (2/pi) * arcsin(r) of sign events of normalized i.i.d. score sums;
  * exact and Monte Carlo evaluation of Corr(1[Y_n > 0], 1[Z_n > 0]) where
    Y_n, Z_n are normalized sums of n i.i.d. copies of scored atoms, and a
    scanner for the smallest n at which that correlation exceeds a target
    level.  The exact lattice path conditions on the level count of a side
    whose positive-mass scores take two values, in O(n^2) cells; otherwise
    it uses :func:`score_sum_law`, the n-fold joint law of integer score
    sums, which the tensor-gap search also uses; it convolves on the
    sublattice that the positive-mass scores span and returns the law on
    the full grid.  A sum of exactly 0 counts as not positive, and is
    decided in integers on every side whose scores lie on a lattice;
  * a grid profile of f(t) = t(1 - log t) - sin(pi t / 2), which is
    positive on (0, 1) with f(1) = f'(1) = 0 and a single inflection of
    f'' in the interior.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    InvariantViolation,
    OutOfRange,
    PreconditionFailed,
    StateSpaceTooLarge,
    TooFewSamples,
    ZeroVariance,
)
from .joint_pmf import (
    STATE_CAP,
    JointPMF,
    _Record,
    _check_integer,
    _check_real,
    from_jsonable,
    from_matrix,
    holds_bool_or_text,
    kron,
    real_array,
    unwrap_manifest,
)
from .measures import event_measure, rho as _rho
from .theorem_suite import BOUND_TOL, CheckResult, _result

LATTICE_MAX_DENOMINATOR = 10**4
MC_MIN_SAMPLES = 1000
MC_STREAM_SIZE = 1 << 16
_MC_BLOCK = 1 << 13  # samples per multinomial call; a stream is drawn in blocks

_LONG_PI = np.arccos(np.longdouble(-1.0))


# ---------------------------------------------------------------------------
# Sign-product family and embellishment
# ---------------------------------------------------------------------------


def yy_pair(t: float) -> JointPMF:
    """2x2 pair with mass (1 + t*y1*y2)/4 on cell (y1, y2), y in {-1, +1}.

    Diagonal cells carry (1+t)/4, off-diagonal (1-t)/4; both marginals are
    uniform and psi = tau = rho = t, lambda = t/2.
    """
    t = _check_real("t", t, 0.0, 1.0)
    diag = (1.0 + t) / 4.0
    off = (1.0 - t) / 4.0
    return from_matrix(
        [[diag, off], [off, diag]],
        row_labels=("-1", "+1"),
        col_labels=("-1", "+1"),
    )


def embellish(base: JointPMF, t: float) -> tuple[JointPMF, list[CheckResult]]:
    """Join a base pair independently with a sign-product pair of level t.

    Requires exact tau(base) <= t.  The join's tau is then squeezed to
    exactly t: it is at least t because the sign-product events embed, and
    at most max(tau(base), psi of the sign-product factor) = t.  rho can
    only grow (factor rhos max under independent joins).  Returns the join
    and the three verified results.
    """
    t = _check_real("t", t, 0.0, 1.0, "()")
    tau_base = event_measure(base, "tau", mode="exact").value
    # tau at exactly the level t may float a few ulps above it
    if tau_base > t + 1e-12:
        raise PreconditionFailed(f"tau(base) = {tau_base!r} exceeds t = {t!r}")
    rho_base = _rho(base).value
    joined = kron(base, yy_pair(t))
    tau_joined = event_measure(joined, "tau", mode="exact").value
    rho_joined = _rho(joined).value
    digest = {
        "base_shape": [base.n_rows, base.n_cols],
        "t": t,
        "tau_base": tau_base,
        "tau_joined": tau_joined,
    }
    checks = [
        _result("tau(embellished)<=t", tau_joined, t, BOUND_TOL, digest),
        _result("tau(embellished)>=t", t, tau_joined, BOUND_TOL, digest),
        _result("rho(embellished)>=rho(base)", rho_base, rho_joined, BOUND_TOL, digest),
    ]
    return joined, checks


# ---------------------------------------------------------------------------
# Closed-form normal quantities
# ---------------------------------------------------------------------------


def orthant_prob(r: float) -> float:
    """P(Y > 0, Z > 0) for standard bivariate normal correlation r.

    Evaluated as 1/4 + arcsin(r)/(2 pi) in extended precision so that the
    anchor points r in {0, 1/2, 1} round to exactly 1/4, 1/3, 1/2.
    """
    rl = np.longdouble(_check_real("r", r, -1.0, 1.0))
    return float(np.longdouble(0.25) + np.arcsin(rl) / (2.0 * _LONG_PI))


def clt_limit_corr(r: float) -> float:
    """Limit of Corr(1[Y_n > 0], 1[Z_n > 0]): (2/pi) * arcsin(r).

    Odd, strictly increasing, and the exact functional inverse of
    r = sin((pi/2) t) on t in [0, 1].
    """
    rl = np.longdouble(_check_real("r", r, -1.0, 1.0))
    return float(2.0 * np.arcsin(rl) / _LONG_PI)


# ---------------------------------------------------------------------------
# Scored bases and indicator correlations of summed scores
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScoredBase(_Record):
    """A joint base law with centered, unit-variance atom scores.

    ``g`` scores row atoms, ``h`` scores column atoms; under the marginals
    both have mean 0 and variance 1, and ``r`` is their correlation under
    the joint law.
    """

    base: JointPMF
    g: np.ndarray
    h: np.ndarray
    r: float

    def to_jsonable(self) -> dict:
        """The base's file format with the record's other fields added."""
        out = super().to_jsonable()
        return {**out.pop("base"), **out}


def make_scored_base(
    base: JointPMF, g_raw: Sequence[float], h_raw: Sequence[float]
) -> ScoredBase:
    """Affinely normalize raw scores to mean 0, variance 1 and record r."""
    try:
        g_arr = real_array(g_raw)
        h_arr = real_array(h_raw)
    except (TypeError, ValueError) as exc:
        raise OutOfRange(f"scores must be lists of real numbers: {exc}") from exc
    if g_arr.shape != (base.n_rows,) or h_arr.shape != (base.n_cols,):
        raise OutOfRange(
            f"score lengths {g_arr.shape}, {h_arr.shape} do not match shape "
            f"{base.n_rows}x{base.n_cols}"
        )
    if holds_bool_or_text(g_raw) or holds_bool_or_text(h_raw):
        raise OutOfRange("scores must be real numbers, not booleans or strings")
    if not (np.isfinite(g_arr).all() and np.isfinite(h_arr).all()):
        raise OutOfRange("scores must be finite")
    r_m = base.entries.sum(axis=1)
    c_m = base.entries.sum(axis=0)
    g = _normalize_scores(g_arr, r_m, "g")
    h = _normalize_scores(h_arr, c_m, "h")
    r = float(g @ base.entries @ h)
    if not -1.0 - 1e-9 <= r <= 1.0 + 1e-9:
        raise InvariantViolation(f"score correlation {r!r} outside [-1, 1]")
    return ScoredBase(base=base, g=g, h=h, r=min(max(r, -1.0), 1.0))


def _normalize_scores(raw: np.ndarray, weights: np.ndarray, name: str) -> np.ndarray:
    """Center and scale finite scores; a variance past the float range raises
    OutOfRange, and ``peak * peak``, unlike ``peak ** 2``, rounds to inf."""
    mean = float(weights @ raw)
    with np.errstate(over="ignore", invalid="ignore"):
        centered = raw - mean
        var = float(weights @ centered**2)
    if not math.isfinite(var):
        raise OutOfRange(f"{name} variance overflows a float")
    peak = max(1.0, float(np.abs(raw).max()))
    if var <= 1e-20 * peak * peak:
        raise ZeroVariance(f"{name} has zero variance under its marginal")
    return centered / math.sqrt(var)


def scored_base_from_jsonable(obj: dict) -> ScoredBase:
    """Load {"matrix": ..., "g": [...], "h": [...]} (re-normalizing)."""
    obj = unwrap_manifest(obj)
    missing = [key for key in ("matrix", "g", "h") if key not in obj]
    if missing:
        raise OutOfRange(f"scored-base JSON lacks keys: {missing}")
    return make_scored_base(from_jsonable(obj), obj["g"], obj["h"])


@dataclass(frozen=True)
class CltEstimate(_Record):
    """Corr(1[Y_n > 0], 1[Z_n > 0]) under n i.i.d. copies of the base."""

    n: int
    value: float
    stderr: float
    method: str
    samples: int


def _indicator_corr(q11: float, qa: float, qb: float) -> float:
    num = q11 - qa * qb
    den_sq = qa * (1.0 - qa) * qb * (1.0 - qb)
    if den_sq <= 0.0:
        return 0.0
    return num / math.sqrt(den_sq)


def _lattice_scale(values: np.ndarray, max_den: int, tol: float = 1e-9) -> int | None:
    """Common integer denominator of all values, if one exists within tol."""
    scale = 1
    for x in values:
        frac = Fraction(float(x)).limit_denominator(max_den)
        if abs(float(frac) - float(x)) > tol:
            return None
        scale = scale * frac.denominator // math.gcd(scale, frac.denominator)
        if scale > max_den:
            return None
    return scale


def _integer_scores(sb: ScoredBase, n: int) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Integer scores of the row and column atoms whose sums have the signs
    of the sums of ``g`` and of ``h``; None for a side that has none.

    Both sides share one scale when all their scores admit a common
    denominator up to ``LATTICE_MAX_DENOMINATOR``.  Otherwise each side,
    divided by its smallest |score| above the lattice tolerance, is tried
    alone, so the (-sqrt 2, sqrt 2 / 2) scores of masses (1/3, 2/3) become
    (-2, 1).  A side whose n-fold sums could leave int64 gets None too.
    """
    scale = _lattice_scale(np.concatenate([sb.g, sb.h]), LATTICE_MAX_DENOMINATOR)
    if scale is not None:
        return _on_lattice(sb.g * scale, n), _on_lattice(sb.h * scale, n)
    return _side_on_lattice(sb.g, n), _side_on_lattice(sb.h, n)


def _side_on_lattice(x: np.ndarray, n: int) -> np.ndarray | None:
    unit = x / np.abs(x)[np.abs(x) > 1e-9].min()
    scale = _lattice_scale(unit, LATTICE_MAX_DENOMINATOR)
    return None if scale is None else _on_lattice(unit * scale, n)


def _on_lattice(x: np.ndarray, n: int) -> np.ndarray | None:
    return np.rint(x).astype(np.int64) if n * float(np.abs(x).max()) < 2.0**62 else None


def _grid_shape(a: np.ndarray, b: np.ndarray, n: int) -> tuple[int, int]:
    """Shape of the full grid of n-fold integer score sums; more than
    ``STATE_CAP`` cells raise StateSpaceTooLarge, before anything is
    allocated."""
    size_a = n * (int(a.max()) - int(a.min())) + 1
    size_b = n * (int(b.max()) - int(b.min())) + 1
    if size_a * size_b > STATE_CAP:
        raise StateSpaceTooLarge(f"lattice grid {size_a}x{size_b} exceeds {STATE_CAP} states")
    return size_a, size_b


def _sublattice(scores: np.ndarray) -> tuple[int, int, np.ndarray]:
    """(low, d, steps) for the integer scores of the positive-mass cells: low
    is the smallest score, d the gcd of the others' distances from it (1 if
    there are none), and each score is low + d * step."""
    low = int(scores.min())
    d = math.gcd(*(int(x) for x in scores - low)) or 1
    return low, d, (scores - low) // d


def score_sum_law(entries: np.ndarray, a: np.ndarray, b: np.ndarray, n: int) -> tuple[np.ndarray, int, int]:
    """Joint law of the integer score sums of n i.i.d. copies of a base.

    ``a`` and ``b`` are integer scores of the row and column atoms of the
    mass matrix ``entries``.  Returns (law, lo_a, lo_b) with law[i, j] =
    P(sum of a = lo_a + i, sum of b = lo_b + j); the law has
    (n * span(a) + 1) x (n * span(b) + 1) cells, and a grid of more than
    ``STATE_CAP`` cells raises StateSpaceTooLarge before anything is
    allocated.

    On each side every sum lands on n * low + d * k, where low is the
    smallest score of a positive-mass cell and d the gcd of the other such
    scores' distances from it.  So the n-fold convolution over the
    positive-mass cells (row-major order) runs on that sublattice and is
    scattered into the full grid.  The cells it skips are exact zeros at
    every step, so the law is bit for bit the one a convolution on the
    full grid gives.  d comes from positive-mass cells only: a zero-mass
    atom may carry any score.
    """
    size_a, size_b = _grid_shape(a, b, n)
    amin, bmin = int(a.min()), int(b.min())
    rows, cols = np.nonzero(entries > 0.0)
    low_a, d_a, step_a = _sublattice(a[rows])
    low_b, d_b, step_b = _sublattice(b[cols])
    steps = [(int(i), int(j), float(entries[r, c])) for i, j, r, c in zip(step_a, step_b, rows, cols)]
    span_a, span_b = int(step_a.max()), int(step_b.max())
    cur = np.ones((1, 1))
    for _ in range(n):
        new = np.zeros((cur.shape[0] + span_a, cur.shape[1] + span_b))
        for ia, jb, p in steps:
            new[ia : ia + cur.shape[0], jb : jb + cur.shape[1]] += p * cur
        cur = new
    law = np.zeros((size_a, size_b))
    o_a, o_b = n * (low_a - amin), n * (low_b - bmin)
    law[o_a : o_a + d_a * (cur.shape[0] - 1) + 1 : d_a, o_b : o_b + d_b * (cur.shape[1] - 1) + 1 : d_b] = cur
    return law, n * amin, n * bmin


def _exact_corr(sb: ScoredBase, n: int) -> float:
    """Exact indicator correlation, every tie decided in integers where it can be.

    The lattice path runs when both sides have integer scores; when their
    full grid passes the state cap, or a side has none, every atom sequence
    is enumerated instead, summing integers on each side that has them.
    """
    a, b = _integer_scores(sb, n)
    if a is not None and b is not None:
        try:
            return _exact_corr_lattice(sb, n, a, b)
        except StateSpaceTooLarge:
            if _sequences_exceed_cap(sb, n):
                raise
    return _exact_corr_enumerate(sb, n, a, b)


def _exact_corr_lattice(sb: ScoredBase, n: int, a: np.ndarray, b: np.ndarray) -> float:
    """Indicator correlation from the integer score sums of n copies.

    A full grid past the state cap raises StateSpaceTooLarge first, on
    every path.  When the positive-mass cells of a side carry exactly two
    scores, :func:`_two_level_probs` conditions on that side's level count
    in O(n^2) cells (rows first; the correlation is symmetric in the
    sides).  Otherwise the probabilities are read off the joint law of
    :func:`score_sum_law`, O(n^3) cells.
    """
    _grid_shape(a, b, n)
    entries = sb.base.entries
    rows, cols = np.nonzero(entries > 0.0)
    if np.unique(a[rows]).size == 2:
        qa, qb, q11 = _two_level_probs(entries, a, b, n)
    elif np.unique(b[cols]).size == 2:
        qb, qa, q11 = _two_level_probs(entries.T, b, a, n)
    else:
        cur, lo_a, lo_b = score_sum_law(entries, a, b, n)
        pos_a = np.arange(cur.shape[0]) + lo_a > 0
        pos_b = np.arange(cur.shape[1]) + lo_b > 0
        qa = float(cur[pos_a, :].sum())
        qb = float(cur[:, pos_b].sum())
        q11 = float(cur[np.ix_(pos_a, pos_b)].sum())
    return _indicator_corr(q11, qa, qb)


def _two_level_probs(entries: np.ndarray, a: np.ndarray, b: np.ndarray, n: int) -> tuple[float, float, float]:
    """(qa, qb, q11) for row scores ``a`` that take two values, low and
    low + d, on the positive-mass cells.

    The row sum is n * low + d * K, K the number of copies at the upper
    level, so it is fixed by K.  Given K = k, the column sum adds k draws
    from the upper level's cells and n - k from the lower level's.  With B
    the law of K and T(k) = P(column sum > 0 | K = k), qa sums B(k) over
    the k with a positive row sum, qb sums B(k) T(k) over every k, and q11
    over the former.  Every walk steps one positive-mass cell at a time,
    as :func:`score_sum_law` does; T(k) is divided by the computed totals
    of its own two walks, so their rounding drift cancels.  The conditional
    walks are scaled by a power of two at each step, which is exact, so
    that they cannot underflow.  Every sum is of nonnegative terms, and
    ties are decided on integer indices.
    """
    rows, cols = np.nonzero(entries > 0.0)
    low_a, d_a, level = _sublattice(a[rows])
    low_b, d_b, step_b = _sublattice(b[cols])
    cells = [(int(k), int(j), float(entries[r, c])) for k, j, r, c in zip(level, step_b, rows, cols)]
    law_k = _walks([(k, p) for k, _, p in cells], n)[-1]
    lower = _walks([(j, p) for k, j, p in cells if k == 0], n, scaled=True)
    upper = _walks([(j, p) for k, j, p in cells if k == 1], n, scaled=True)
    # tails[k, w]: mass of the n - k lower draws whose steps sum to >= w
    tails = np.zeros((n + 1, lower.shape[1] + 1))
    tails[:, :-1] = np.cumsum(lower[::-1, ::-1], axis=1)[:, ::-1]
    first_b = (-n * low_b) // d_b + 1  # the least positive column sum's step
    above = tails[:, np.clip(first_b - np.arange(upper.shape[1]), 0, lower.shape[1])]
    cond = np.einsum("ij,ij->i", upper, above) / (upper.sum(axis=1) * tails[:, 0])
    first_a = max((-n * low_a) // d_a + 1, 0)  # the least K with a positive row sum
    qa = float(law_k[first_a:].sum())
    qb = float(law_k @ cond)
    q11 = float(law_k[first_a:] @ cond[first_a:])
    return qa, qb, q11


def _walks(steps: list[tuple[int, float]], n: int, scaled: bool = False) -> np.ndarray:
    """Row j holds the walk of j draws: [j, u] is the mass of the j-draw
    sequences of the (step, mass) cells whose steps sum to u.  When
    ``scaled``, each row is multiplied by the power of two that puts its
    total in [1/2, 1); that is exact, and keeps long walks from underflowing."""
    span = max(s for s, _ in steps)
    out = np.zeros((n + 1, n * span + 1))
    out[0, 0] = 1.0
    for j in range(1, n + 1):
        prev, row = out[j - 1, : (j - 1) * span + 1], out[j, : j * span + 1]
        for s, p in steps:
            row[s : s + prev.size] += p * prev
        if scaled:
            np.ldexp(row, -math.frexp(float(row.sum()))[1], out=row)
    return out


def _sequences_exceed_cap(sb: ScoredBase, n: int) -> bool:
    # at least 2 cells carry mass, so past n = 64 the count exceeds any cap
    return int(np.count_nonzero(sb.base.entries > 0.0)) ** min(n, 64) > STATE_CAP


def _exact_corr_enumerate(
    sb: ScoredBase, n: int, a: np.ndarray | None, b: np.ndarray | None
) -> float:
    """Vectorized enumeration of all (I*J)^n atom sequences; the sums of a
    side run on its integer scores ``a`` or ``b`` unless that is None."""
    rows, cols = np.nonzero(sb.base.entries > 0.0)
    if _sequences_exceed_cap(sb, n):
        raise StateSpaceTooLarge(f"{rows.size}^{n} sequences exceed the {STATE_CAP} cap")
    gstep = (sb.g if a is None else a)[rows]
    hstep = (sb.h if b is None else b)[cols]
    pstep = sb.base.entries[rows, cols]
    sums_g = np.zeros(1, dtype=gstep.dtype)
    sums_h = np.zeros(1, dtype=hstep.dtype)
    probs = np.ones(1)
    for _ in range(n):
        sums_g = (sums_g[:, None] + gstep[None, :]).ravel()
        sums_h = (sums_h[:, None] + hstep[None, :]).ravel()
        probs = (probs[:, None] * pstep[None, :]).ravel()
    mask_a = sums_g > 0
    mask_b = sums_h > 0
    qa = float(probs[mask_a].sum())
    qb = float(probs[mask_b].sum())
    q11 = float(probs[mask_a & mask_b].sum())
    return _indicator_corr(q11, qa, qb)


def _mc_corr(sb: ScoredBase, n: int, samples: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate with delta-method standard error.

    Sampling runs in substreams of ``MC_STREAM_SIZE`` draws keyed by
    (seed, stream index).  The substreams are drawn concurrently, one
    thread per CPU the process may use (at most one per stream), and
    numpy's multinomial sampler releases the interpreter lock.  Every
    stream yields three integer counts, and integer sums are exact, so the
    estimate and its standard error do not depend on the number of CPUs;
    no setting chooses it.  Each draw is projected onto the integer scores
    of :func:`_integer_scores` on every side that has them, so a sum that
    is 0 in exact arithmetic counts as not positive.
    """
    p_cells = _sampler_masses(sb.base.entries.ravel())
    a, b = _integer_scores(sb, n)
    g_cell = np.repeat(sb.g if a is None else a, sb.base.n_cols)
    h_cell = np.tile(sb.h if b is None else b, sb.base.n_rows)
    n_streams = -(-samples // MC_STREAM_SIZE)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(cpus, n_streams)

    def tally(first: int) -> tuple[int, int, int]:
        # streams first, first + workers, ...; each in blocks, since
        # consecutive multinomial calls on one generator continue its
        # sequence, so a worker holds one block at a time
        n11 = na = nb = 0
        for stream in range(first, n_streams, workers):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))
            take = min(MC_STREAM_SIZE, samples - stream * MC_STREAM_SIZE)
            for done in range(0, take, _MC_BLOCK):
                counts = rng.multinomial(n, p_cells, size=min(_MC_BLOCK, take - done))
                ya = counts @ g_cell > 0
                zb = counts @ h_cell > 0
                n11 += int((ya & zb).sum())
                na += int(ya.sum())
                nb += int(zb.sum())
        return n11, na, nb

    with ThreadPoolExecutor(max_workers=workers) as pool:
        n11, na, nb = (sum(column) for column in zip(*pool.map(tally, range(workers))))
    q11 = n11 / samples
    qa = na / samples
    qb = nb / samples
    value = _indicator_corr(q11, qa, qb)
    stderr = _delta_stderr(q11, qa, qb, samples)
    return value, stderr


def _sampler_masses(p: np.ndarray) -> np.ndarray:
    """Cell masses as numpy's multinomial sampler accepts them.

    The sampler rejects a mass above 1 and masses before the last cell
    summing above 1 + 1e-12, which a valid matrix (total within 1e-9 of 1)
    can hold.  Only those get divided by their sum; every other matrix
    keeps its masses, and so its streams, unchanged.
    """
    if p.max() > 1.0 or math.fsum(p[:-1]) > 1.0 + 1e-12:
        return p / math.fsum(p)
    return p


def _delta_stderr(q11: float, qa: float, qb: float, n_samples: int) -> float:
    """First-order variance of the indicator correlation estimator.

    The per-draw observation is multinomial over the four sign cells; the
    correlation is a smooth function of three free cell proportions, so
    grad' Cov grad / N estimates its variance.
    """
    q10 = qa - q11
    q01 = qb - q11
    q = np.array([q11, q10, q01])

    def phi(x: np.ndarray) -> float:
        a = x[0] + x[1]
        b = x[0] + x[2]
        return _indicator_corr(x[0], a, b)

    h = 1e-7
    grad = np.zeros(3)
    for k in range(3):
        up = q.copy()
        dn = q.copy()
        up[k] += h
        dn[k] -= h
        grad[k] = (phi(up) - phi(dn)) / (2.0 * h)
    cov = np.diag(q) - np.outer(q, q)
    var = float(grad @ cov @ grad) / n_samples
    return math.sqrt(max(var, 0.0))


def theorem6_corr(
    sb: ScoredBase,
    n: int,
    method: str = "auto",
    samples: int = 0,
    seed: int | None = None,
) -> CltEstimate:
    """Corr(1[Y_n > 0], 1[Z_n > 0]) for Y_n, Z_n sums of n scored copies.

    A tie (a sum of exactly 0) counts as not positive, and it is decided
    in integers on every side with integer scores: both sides on one scale
    when all scores admit a common denominator up to 1e4, else each side
    by itself once divided by its smallest |score|.  Exact mode works on
    that integer lattice when both sides have one and its full grid fits
    the state cap: in O(n^2) cells when the positive-mass scores of a side
    take two values, by the joint law of :func:`score_sum_law` in O(n^3)
    otherwise.  Else it enumerates every atom sequence under the cap,
    summing floats only on a side without integer scores.  Monte Carlo
    projects its draws onto the same scores; it needs ``samples`` >= 1000
    and a seed, and its standard error comes from the delta method.
    ``auto`` prefers exact and falls back to Monte Carlo.  ``n`` and
    ``samples`` follow the integer rule of :func:`_check_integer`.
    """
    n = _check_integer("n", n, 1)
    samples = _check_integer("samples", samples)
    if method not in ("exact", "monte_carlo", "auto"):
        raise OutOfRange(f"unknown method {method!r}")

    def run_exact() -> CltEstimate:
        value = min(max(_exact_corr(sb, n), -1.0), 1.0)
        return CltEstimate(n=n, value=value, stderr=0.0, method="exact", samples=0)

    def run_mc() -> CltEstimate:
        if samples < MC_MIN_SAMPLES:
            raise TooFewSamples(f"monte_carlo needs >= {MC_MIN_SAMPLES} samples")
        if seed is None:
            raise PreconditionFailed("monte_carlo requires a seed")
        value, stderr = _mc_corr(sb, n, samples, _check_integer("seed", seed, 0))
        value = min(max(value, -1.0), 1.0)
        return CltEstimate(
            n=n, value=value, stderr=stderr, method="monte_carlo", samples=samples
        )

    if method == "exact":
        return run_exact()
    if method == "monte_carlo":
        return run_mc()
    try:
        return run_exact()
    except StateSpaceTooLarge:
        return run_mc()


@dataclass(frozen=True)
class WitnessHit(_Record):
    """First n at which the summed-score indicator correlation beats t."""

    n: int
    estimate: CltEstimate
    check: CheckResult


def theorem6_witness_search(
    t: float,
    sb: ScoredBase,
    n_max: int,
    method: str = "auto",
    samples: int = 200_000,
    seed: int | None = None,
) -> WitnessHit | None:
    """Scan n = 1..n_max for indicator correlation above t by more than BOUND_TOL.

    Requires tau(base) = t exactly (within 1e-9).  Returns None at once
    when r <= sin((pi/2) t): the limiting correlation (2/pi) arcsin(r) then
    cannot exceed t, so the scan is hopeless.  In Monte Carlo mode success
    demands a 3-standard-error margin.  A hit is a concrete finite join
    whose tau exceeds the per-copy level t; the tolerance keeps float noise
    (at n = 1 the correlation equals t in exact arithmetic) from counting.
    ``n_max`` and ``samples`` follow the integer rule of :func:`_check_integer`.
    """
    t = _check_real("t", t, 0.0, 1.0, "()")
    n_max = _check_integer("n_max", n_max, 1)
    samples = _check_integer("samples", samples)
    tau_base = event_measure(sb.base, "tau", mode="exact").value
    if abs(tau_base - t) > 1e-9:
        raise PreconditionFailed(f"tau(base) = {tau_base!r} is not t = {t!r}")
    gate = math.sin(math.pi * t / 2.0)
    if sb.r <= gate:
        return None
    for n in range(1, n_max + 1):
        est = theorem6_corr(sb, n, method=method, samples=samples, seed=seed)
        margin = 0.0 if est.method == "exact" else 3.0 * est.stderr
        rhs = est.value - margin
        if rhs - t > BOUND_TOL:
            digest = {"n": n, "t": t, "r": sb.r, "method": est.method, "samples": est.samples}
            check = _result("sum_indicator_corr>t", t, rhs, BOUND_TOL, digest)
            return WitnessHit(n=n, estimate=est, check=check)
    return None


# ---------------------------------------------------------------------------
# Profile of f(t) = t(1 - log t) - sin(pi t / 2)
# ---------------------------------------------------------------------------


def _f(t: np.ndarray | float) -> np.ndarray | float:
    # t in (0, 1] only: the grid is interior and f(0) = 0 is a constant
    return t * (1.0 - np.log(t)) - np.sin(np.pi * t / 2.0)


def _f_prime(t: float) -> float:
    return -math.log(t) - (math.pi / 2.0) * math.cos(math.pi * t / 2.0)


def _f_double_prime(t: np.ndarray | float) -> np.ndarray | float:
    return -1.0 / t + (np.pi / 2.0) ** 2 * np.sin(np.pi * t / 2.0)


@dataclass(frozen=True)
class Lemma7Profile(_Record):
    """Grid evidence that t(1 - log t) dominates sin(pi t / 2) on (0, 1)."""

    grid_min: float
    c_root: float
    endpoint_checks: dict[str, float]
    sign_pattern: dict[str, bool]
    grid_points: int


def lemma7_profile(grid_points: int = 100_000) -> Lemma7Profile:
    """Evaluate f on a uniform interior grid and locate the f'' root.

    The second derivative is strictly increasing on (0, 1], negative near
    0 and positive at 1, so bisection pins its unique root c; the sign
    pattern (f'' < 0 left of c, > 0 right of c) is verified at grid
    resolution, and f(1) = 0, f'(1) = 0 are checked directly.
    ``grid_points`` follows the integer rule of :func:`_check_integer`.
    """
    grid_points = _check_integer("grid_points", grid_points, 1000, STATE_CAP)
    ts = np.arange(1, grid_points + 1, dtype=np.float64) / (grid_points + 1)
    grid_min = float(np.min(_f(ts)))

    lo, hi = 1e-6, 1.0
    if not (_f_double_prime(lo) < 0.0 < _f_double_prime(hi)):
        raise InvariantViolation("f'' does not change sign on (0, 1]")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if _f_double_prime(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    c = 0.5 * (lo + hi)

    spacing = 1.0 / (grid_points + 1)
    fpp = _f_double_prime(ts)
    neg_below = bool(np.all(fpp[ts < c - spacing] < 0.0))
    pos_above = bool(np.all(fpp[ts > c + spacing] > 0.0))

    f_at_0 = 0.0  # 0 * (1 - log 0) read as 0, sin(0) = 0
    f_at_1 = float(_f(1.0))
    fprime_at_1 = _f_prime(1.0)

    profile = Lemma7Profile(
        grid_min=grid_min,
        c_root=c,
        endpoint_checks={"f_at_0": f_at_0, "f_at_1": f_at_1, "fprime_at_1": fprime_at_1},
        sign_pattern={"negative_below_root": neg_below, "positive_above_root": pos_above},
        grid_points=grid_points,
    )
    if not (profile.grid_min > 0.0 and 0.0 < c < 1.0):
        raise InvariantViolation(f"profile violates positivity: {profile}")
    if not (neg_below and pos_above):
        raise InvariantViolation(f"f'' sign pattern violated: {profile}")
    if abs(f_at_1) > 1e-12 or abs(fprime_at_1) > 1e-12:
        raise InvariantViolation(f"endpoint identities violated: {profile}")
    return profile
