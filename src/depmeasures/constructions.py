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
    level.  Each side whose positive-mass scores lie on a lattice is
    written once as integer steps, and a sum is positive exactly when its
    step sum reaches a threshold, so a sum of exactly 0 counts as not
    positive.  The exact lattice path conditions on the level count of a
    side with two score levels, in O(n^2) cells; otherwise it uses
    :func:`score_sum_law`, the n-fold joint law of step sums, which the
    tensor-gap search also uses;
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
from typing import Iterator, Sequence

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
    kron,
    unwrap_manifest,
)
from .measures import _scores, event_measure, rho as _rho
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
    """Affinely normalize raw scores to mean 0, variance 1 and record r.

    Raw scores follow the rule of :func:`measures.score_correlation`: finite
    real numbers (else OutOfRange), one per atom of their side (else
    ShapeError).
    """
    g_arr, _ = _scores(g_raw, base.n_rows, "row")
    h_arr, _ = _scores(h_raw, base.n_cols, "column")
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


def _steps(ints: np.ndarray, kept: np.ndarray) -> tuple[int, int, np.ndarray]:
    """(low, d, steps): the ``kept`` atoms score low + d * step, low their least
    score and d the gcd of their distances from it (1 if none); others step 0."""
    low = int(ints[kept].min())
    d = math.gcd(*(int(x) for x in ints[kept] - low)) or 1
    return low, d, np.where(kept, (ints - low) // d, 0)


# (steps, first) of one side: a sum of n draws is positive when its step sum is >= first
Lattice = tuple[np.ndarray, int]


def _lattice(scores: np.ndarray, masses: np.ndarray, n: int) -> Lattice | None:
    """(steps, first) for one side whose scores lie on a lattice, else None.

    The positive-mass scores, divided by the least |score| above the
    lattice tolerance, must share a denominator up to
    ``LATTICE_MAX_DENOMINATOR``: masses (1/3, 2/3) give (-sqrt 2, sqrt 2 / 2),
    which is (-2, 1).  As integers they are low + d * step (:func:`_steps`),
    so a sum of n draws is positive exactly when its step sum is at least
    ``first``.  None too when n-fold step sums could leave int64.
    """
    kept = masses > 0.0
    size = np.abs(scores[kept])
    unit = np.where(kept, scores, 0.0) / size[size > 1e-9].min()
    scale = _lattice_scale(unit[kept], LATTICE_MAX_DENOMINATOR)
    if scale is None or n * scale * float(np.abs(unit).max()) >= 2.0**61:
        return None
    low, d, steps = _steps(np.rint(unit * scale).astype(np.int64), kept)
    return steps, max((-n * low) // d + 1, 0)


def _sum_test(scores: np.ndarray, lattice: Lattice | None) -> tuple[np.ndarray, int]:
    """Per-atom values and a bar: a sum of draws of ``scores`` is positive
    exactly when the draws' values sum above the bar.  The values are the
    integer steps of ``lattice`` when the side has one, else the scores."""
    if lattice is None:
        return scores, 0
    steps, first = lattice
    return steps, first - 1


def _check_step_grid(size_a: int, size_b: int) -> None:
    """More than ``STATE_CAP`` cells of step sums raise StateSpaceTooLarge,
    before anything is allocated."""
    if size_a * size_b > STATE_CAP:
        raise StateSpaceTooLarge(f"lattice grid {size_a}x{size_b} exceeds {STATE_CAP} states")


def _cells(entries: np.ndarray, a: np.ndarray, b: np.ndarray) -> list[tuple[int, list[tuple[int, float]]]]:
    """The positive-mass cells, row-major, by atom row: (row step,
    [(column step, mass), ...])."""
    return [
        (int(a[r]), [(int(b[c]), float(entries[r, c])) for c in np.flatnonzero(entries[r] > 0.0)])
        for r in np.flatnonzero((entries > 0.0).any(axis=1))
    ]


def _convolve(cur: np.ndarray, out: np.ndarray, shifts: list[tuple[int, float]]) -> None:
    """One more draw along the last axis: add each (step, mass) shift's mass
    times ``cur``, moved by its step, into ``out``."""
    width = cur.shape[-1]
    for s, p in shifts:
        out[..., s : s + width] += p * cur


def score_sum_law(entries: np.ndarray, a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Joint law of the step sums of n i.i.d. copies of a base.

    ``a`` and ``b`` are nonnegative integer steps of the row and column
    atoms of the mass matrix ``entries``.  Returns law[i, j] = P(sum of a
    = i, sum of b = j) on (n * span_a + 1) x (n * span_b + 1) cells, the
    spans being the largest steps of positive-mass cells; past
    ``STATE_CAP`` cells it raises StateSpaceTooLarge before allocating.
    """
    cells = _cells(entries, a, b)
    span_a = max(i for i, _ in cells)
    span_b = max(j for _, row in cells for j, _ in row)
    _check_step_grid(n * span_a + 1, n * span_b + 1)
    cur = np.ones((1, 1))
    for _ in range(n):
        new = np.zeros((cur.shape[0] + span_a, cur.shape[1] + span_b))
        for i, row in cells:
            _convolve(cur, new[i : i + cur.shape[0]], row)
        cur = new
    return cur


def _exact_corr(sb: ScoredBase, n: int) -> float:
    """Exact indicator correlation, every tie decided in integers where it can be.

    Every exact path reads the masses here, divided by their ``fsum`` when
    that is not exactly 1, so a total off 1 does not drift the value by n
    times its error.  When a side has no lattice, or the step grid passes
    the state cap, every atom sequence is enumerated instead.
    """
    entries = sb.base.entries
    total = math.fsum(entries.ravel())
    if total != 1.0:
        entries = entries / total
    lat_a = _lattice(sb.g, entries.sum(axis=1), n)
    lat_b = _lattice(sb.h, entries.sum(axis=0), n)
    if lat_a is not None and lat_b is not None:
        try:
            return _exact_corr_lattice(entries, n, lat_a, lat_b)
        except StateSpaceTooLarge:
            if _sequences_exceed_cap(entries, n):
                raise
    return _exact_corr_enumerate(entries, n, _sum_test(sb.g, lat_a), _sum_test(sb.h, lat_b))


def _exact_corr_lattice(entries: np.ndarray, n: int, lat_a: Lattice, lat_b: Lattice) -> float:
    """Indicator correlation from the step sums of n copies.

    The step grid, (n * max step + 1) cells a side, is the largest array
    either path allocates, and past the state cap raises first.  A side of
    two score levels (largest step 1) takes :func:`_two_level_probs`, in
    O(n^2) cells, rows first; else :func:`score_sum_law`, O(n^3) cells.
    """
    (a, first_a), (b, first_b) = lat_a, lat_b
    _check_step_grid(n * int(a.max()) + 1, n * int(b.max()) + 1)
    if a.max() == 1:
        qa, qb, q11 = _two_level_probs(entries, lat_a, lat_b, n)
    elif b.max() == 1:
        qb, qa, q11 = _two_level_probs(entries.T, lat_b, lat_a, n)
    else:
        law = score_sum_law(entries, a, b, n)
        qa = float(law[first_a:].sum())
        qb = float(law[:, first_b:].sum())
        q11 = float(law[first_a:, first_b:].sum())
    return _indicator_corr(q11, qa, qb)


def _two_level_probs(entries: np.ndarray, lat_a: Lattice, lat_b: Lattice, n: int) -> tuple[float, ...]:
    """(qa, qb, q11) for row steps 0 and 1 on the positive-mass cells.

    The row step sum is K, the number of copies at the upper level.  Given
    K = k, the column sum adds k draws from the upper level's cells and
    n - k from the lower level's.  With B the law of K and T(k) = P(column
    step sum >= first_b | K = k), qa sums B(k) over k >= first_a, qb sums
    B(k) T(k) over every k, and q11 over the former.  Each walk adds one
    positive-mass cell at a time; T(k) is divided by the computed totals of
    its own two walks, so their rounding drift cancels, and those walks are
    scaled by an exact power of two at each step, so they cannot underflow.
    Only the upper walk is kept whole, on the step grid; B and the lower
    walk are read one draw count at a time.
    """
    (a, first_a), (b, first_b) = lat_a, lat_b
    cells = _cells(entries, a, b)
    for law_k in _walk([(k, p) for k, row in cells for _, p in row], n):
        pass
    lower, upper = ([shift for k, row in cells if k == level for shift in row] for level in (0, 1))
    # ups[k]: the upper walk of k draws
    ups = np.zeros((n + 1, n * max(j for j, _ in upper) + 1))
    for k, row in enumerate(_walk(upper, n, scaled=True)):
        ups[k, : row.size] = row
    # tail[w]: mass of the m lower draws whose steps sum to >= w, 0 past them
    tail = np.zeros(n * max(j for j, _ in lower) + 2)
    index = np.clip(first_b - np.arange(ups.shape[1]), 0, tail.size - 1)
    cond = np.empty(n + 1)
    for m, row in enumerate(_walk(lower, n, scaled=True)):
        np.cumsum(row[::-1], out=tail[row.size - 1 :: -1])
        terms = np.cumsum(ups[n - m] * tail[index])  # summed left to right
        cond[n - m] = terms[-1] / (ups[n - m].sum() * tail[0])
    qa = float(law_k[first_a:].sum())
    qb = float(law_k @ cond)
    q11 = float(law_k[first_a:] @ cond[first_a:])
    return qa, qb, q11


def _walk(shifts: list[tuple[int, float]], n: int, scaled: bool = False) -> Iterator[np.ndarray]:
    """Yield the walk of j draws for j = 0, ..., n: [u] is the mass of the
    j-draw sequences of the (step, mass) shifts whose steps sum to u.  When
    ``scaled``, each walk is multiplied by the power of two that puts its
    total in [1/2, 1); that is exact, and keeps long walks from underflowing."""
    span = max(s for s, _ in shifts)
    row = np.ones(1)
    yield row
    for j in range(1, n + 1):
        prev, row = row, np.zeros(j * span + 1)
        _convolve(prev, row, shifts)
        if scaled:
            np.ldexp(row, -math.frexp(float(row.sum()))[1], out=row)
        yield row


def _sequences_exceed_cap(entries: np.ndarray, n: int) -> bool:
    # at least 2 cells carry mass, so past n = 64 the count exceeds any cap
    return int(np.count_nonzero(entries > 0.0)) ** min(n, 64) > STATE_CAP


def _exact_corr_enumerate(
    entries: np.ndarray, n: int, test_a: tuple[np.ndarray, int], test_b: tuple[np.ndarray, int]
) -> float:
    """Vectorized enumeration of all (I*J)^n atom sequences; a side's sum is
    positive when its values sum above its bar (see :func:`_sum_test`)."""
    rows, cols = np.nonzero(entries > 0.0)
    if _sequences_exceed_cap(entries, n):
        raise StateSpaceTooLarge(f"{rows.size}^{n} sequences exceed the {STATE_CAP} cap")
    (g, bar_a), (h, bar_b) = test_a, test_b
    gstep, hstep, pstep = g[rows], h[cols], entries[rows, cols]
    sums_g = np.zeros(1, dtype=gstep.dtype)
    sums_h = np.zeros(1, dtype=hstep.dtype)
    probs = np.ones(1)
    for _ in range(n):
        sums_g = (sums_g[:, None] + gstep[None, :]).ravel()
        sums_h = (sums_h[:, None] + hstep[None, :]).ravel()
        probs = (probs[:, None] * pstep[None, :]).ravel()
    mask_a = sums_g > bar_a
    mask_b = sums_h > bar_b
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
    no setting chooses it.  Each draw is projected onto the steps of
    :func:`_lattice` on every side that has them, so a sum that is 0 in
    exact arithmetic counts as not positive.
    """
    entries = sb.base.entries
    p_cells = _sampler_masses(entries.ravel())
    g, bar_a = _sum_test(sb.g, _lattice(sb.g, entries.sum(axis=1), n))
    h, bar_b = _sum_test(sb.h, _lattice(sb.h, entries.sum(axis=0), n))
    g_cell = np.repeat(g, sb.base.n_cols)
    h_cell = np.tile(h, sb.base.n_rows)
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
                ya = counts @ g_cell > bar_a
                zb = counts @ h_cell > bar_b
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
    in integer steps on every side with a lattice (:func:`_lattice`).
    Exact mode divides the masses by their total and works on the steps
    when both sides have them and the step grid, (n * largest step + 1)
    cells a side, fits the state cap: in O(n^2) cells when a side has two
    score levels, by the joint law of :func:`score_sum_law` in O(n^3)
    otherwise.  Else it enumerates every atom sequence under the cap,
    summing floats only on a side without a lattice.  Monte Carlo projects
    its draws onto the same steps; it needs ``samples`` >= 1000 and a
    seed, and its standard error comes from the delta method.
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
