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
    level.  Exact mode writes each side once as integer steps, by its
    lattice or by its type (the count of draws at each score), and decides
    the sign of every step sum exactly, so a sum of exactly 0 counts as not
    positive.  It conditions on the level count of a side with two score
    levels, in O(n^2) cells; otherwise it uses :func:`score_sum_law`, the
    n-fold joint law of step sums, which the tensor-gap search also uses;
    :func:`_walk` adds every draw to every one of these laws;
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
from typing import Callable, Iterator, Sequence

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
    g = _normalize_scores(_scores(g_raw, base.n_rows, "row"), base.entries.sum(axis=1), "g")
    h = _normalize_scores(_scores(h_raw, base.n_cols, "column"), base.entries.sum(axis=0), "h")
    r = float(g @ base.entries @ h)
    if not -1.0 - 1e-9 <= r <= 1.0 + 1e-9:
        raise InvariantViolation(f"score correlation {r!r} outside [-1, 1]")
    return ScoredBase(base=base, g=g, h=h, r=min(max(r, -1.0), 1.0))


def _normalize_scores(raw: np.ndarray, weights: np.ndarray, name: str) -> np.ndarray:
    """Center and scale finite scores by their positive-mass atoms only; a
    variance or a scaled score past the float range raises OutOfRange, and
    ``peak * peak``, unlike ``peak ** 2``, rounds to inf."""
    kept = weights > 0.0
    mean = float(weights @ np.where(kept, raw, 0.0))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        centered = raw - mean
        var = float(weights @ np.where(kept, centered, 0.0) ** 2)
        scaled = centered / math.sqrt(var)
    if not math.isfinite(var):
        raise OutOfRange(f"{name} variance overflows a float")
    peak = max(1.0, float(np.abs(raw[kept]).max()))
    if var <= 1e-20 * peak * peak:
        raise ZeroVariance(f"{name} has zero variance under its marginal")
    if not np.isfinite(scaled).all():
        raise OutOfRange(f"{name} of a zero-mass atom overflows a float once scaled")
    return scaled


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


def _side(scores: np.ndarray, masses: np.ndarray, n: int) -> tuple[str, int, Callable[[], tuple]]:
    """(kind, width, read): one side as integer steps, "lattice" or "type".

    ``read()`` gives (steps, pick): a sum of n draws is positive exactly when
    its step sum is in ``pick``, a slice when those sums are a suffix, else a
    boolean mask.  ``width``, n * largest step + 1, is a Python int, checked
    before ``read`` builds anything.  The lattice (:func:`_lattice`) is kept
    when it is no wider than the type grid of the d distinct values of
    :func:`_sum_test`, n * (n + 1)^(d - 2) + 1 step sums (:func:`_type_side`).
    """
    kept = masses > 0.0
    lattice = _lattice(scores, masses, n)
    values, bar = _sum_test(scores, lattice)
    levels = sorted(set(values[kept].tolist()))  # np.unique would import numpy.ma
    width = n * (n + 1) ** (len(levels) - 2) + 1
    if lattice is not None and (size := n * int(values.max()) + 1) <= width:
        return "lattice", size, lambda: (values, slice(lattice[1], None))
    return "type", width, lambda: _type_side(values, kept, n, levels, bar)


def _type_side(values: np.ndarray, kept: np.ndarray, n: int, levels: list, bar: int) -> tuple:
    """A side read by its type, how many of the n draws sit at each level.

    ``levels``, the distinct positive-mass ``values`` least first, get steps
    0, 1, n + 1, (n + 1)^2, ..., and zero-mass atoms step 0: the base-(n + 1)
    digits of a step sum count the draws at each level but the least, and
    sums whose digits add past n name no type.  Each type's sign is decided
    once, exactly, by its levels summing above ``bar`` (:func:`_sum_test`):
    integer steps on a side with a lattice, so its ties hold, else Fractions.
    """
    exact = [Fraction(x) for x in levels]
    weights = [(n + 1) ** k for k in range(len(levels) - 1)]
    sums = np.arange(n * weights[-1] + 1)
    typed = sums[sum(sums // w % (n + 1) for w in weights) <= n]
    counts = ((typed // w % (n + 1)).astype(object) for w in weights)
    total = n * exact[0] + sum(c * (x - exact[0]) for c, x in zip(counts, exact[1:]))
    positive = np.zeros(sums.size, dtype=bool)
    positive[typed[total > bar]] = True
    steps = np.zeros(values.size, dtype=np.int64)
    steps[kept] = np.array([0] + weights)[np.searchsorted(levels, values[kept])]
    first = int(positive.argmax())
    return steps, slice(first, None) if positive[first:].all() else positive


def _check_step_grid(kinds: tuple[str, str], size_a: int, size_b: int) -> None:
    """More than ``STATE_CAP`` cells of step sums raise StateSpaceTooLarge,
    before anything is allocated, naming how each side was read (``kinds``)."""
    if size_a * size_b > STATE_CAP:
        grid = " x ".join(dict.fromkeys(kinds))
        raise StateSpaceTooLarge(f"{grid} grid {size_a}x{size_b} exceeds {STATE_CAP} states")


def _cells(entries: np.ndarray, a: np.ndarray, b: np.ndarray) -> list[tuple[tuple[int, int], float]]:
    """The positive-mass cells, row-major: ((row step, column step), mass)."""
    return [((int(a[r]), int(b[c])), float(entries[r, c])) for r, c in zip(*np.nonzero(entries > 0.0))]


def score_sum_law(entries: np.ndarray, a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Joint law of the step sums of n i.i.d. copies of a base.

    ``a`` and ``b`` are nonnegative integer steps of the row and column
    atoms of the mass matrix ``entries``.  Returns law[i, j] = P(sum of a
    = i, sum of b = j) on (n * span_a + 1) x (n * span_b + 1) cells, the
    spans being the largest steps of positive-mass cells; past
    ``STATE_CAP`` cells it raises StateSpaceTooLarge before allocating.
    It is the last law of :func:`_walk` over the positive-mass cells.
    """
    cells = _cells(entries, a, b)
    _check_step_grid(("lattice", "lattice"), *(n * max(axis) + 1 for axis in zip(*(s for s, _ in cells))))
    return _last(_walk(cells, n))


def _exact_corr(sb: ScoredBase, n: int) -> float:
    """Exact indicator correlation: every side in integer steps, every sign exact.

    The masses are divided by their ``fsum`` when that is not exactly 1, so
    a total off 1 does not drift the value by n times its error.  A side of
    two levels (largest step 1; its pick is always a slice) takes
    :func:`_two_level_probs` when the other side's pick is a slice too;
    else :func:`score_sum_law` is read through both picks (:func:`_side`).
    """
    entries = sb.base.entries
    total = math.fsum(entries.ravel())
    if total != 1.0:
        entries = entries / total
    kinds, widths, reads = zip(_side(sb.g, entries.sum(axis=1), n), _side(sb.h, entries.sum(axis=0), n))
    _check_step_grid(kinds, *widths)
    (a, pick_a), (b, pick_b) = (read() for read in reads)
    if a.max() == 1 and isinstance(pick_b, slice):
        qa, qb, q11 = _two_level_probs(entries, (a, pick_a.start), (b, pick_b.start), n)
    elif b.max() == 1 and isinstance(pick_a, slice):
        qb, qa, q11 = _two_level_probs(entries.T, (b, pick_b.start), (a, pick_a.start), n)
    else:
        law = score_sum_law(entries, a, b, n)
        qa = float(law[pick_a].sum())
        qb = float(law[:, pick_b].sum())
        q11 = float(law[pick_a][:, pick_b].sum())
    return _indicator_corr(q11, qa, qb)


def _two_level_probs(entries: np.ndarray, lat_a: Lattice, lat_b: Lattice, n: int) -> tuple[float, ...]:
    """(qa, qb, q11) for row steps 0 and 1 on the positive-mass cells.

    The row step sum is K, the number of copies at the upper level.  Given
    K = k, the column sum adds k draws from the upper level's cells and
    n - k from the lower level's.  With B the law of K and T(k) = P(column
    step sum >= first_b | K = k), qa sums B(k) over k >= first_a, qb sums
    B(k) T(k) over every k, and q11 over the former.  :func:`_walk` gives B
    over the cells' row steps and each level's walk over its column steps;
    T(k) is divided by the computed totals of its own two walks, so their
    rounding drift cancels, and those walks are scaled by an exact power of
    two at each step, so they cannot underflow.  Only the upper walk is
    kept whole, on the step grid; B and the lower walk are read one draw
    count at a time.
    """
    (a, first_a), (b, first_b) = lat_a, lat_b
    cells = _cells(entries, a, b)
    law_k = _last(_walk([((i,), p) for (i, _), p in cells], n))
    lower, upper = ([((j,), p) for (i, j), p in cells if i == level] for level in (0, 1))
    # ups[k]: the upper walk of k draws
    ups = np.zeros((n + 1, n * max(j for (j,), _ in upper) + 1))
    for k, row in enumerate(_walk(upper, n, scaled=True)):
        ups[k, : row.size] = row
    # tail[w]: mass of the m lower draws whose steps sum to >= w, 0 past them
    tail = np.zeros(n * max(j for (j,), _ in lower) + 2)
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


def _walk(shifts: list[tuple[tuple[int, ...], float]], n: int, scaled: bool = False) -> Iterator[np.ndarray]:
    """Yield the law of j draws for j = 0, ..., n: [u] is the mass of the j-draw
    sequences of the (steps, mass) shifts, one step an axis, whose steps sum
    to u.  Each draw adds every shift, in list order (which fixes the last
    bits), into a zero array longer by the spans, the largest steps, so a
    shift by s covers [s, s - span).  When ``scaled``, each law is multiplied by the
    power of two that puts its total in [1/2, 1); that is exact, and keeps
    long walks from underflowing."""
    spans = [max(axis) for axis in zip(*(steps for steps, _ in shifts))]
    cuts = [(tuple(slice(s, s - span or None) for s, span in zip(steps, spans)), p) for steps, p in shifts]
    law = np.ones((1,) * len(spans))
    yield law
    for _ in range(n):
        prev, law = law, np.zeros([size + span for size, span in zip(law.shape, spans)])
        for cut, p in cuts:
            law[cut] += p * prev
        if scaled:
            np.ldexp(law, -math.frexp(float(law.sum()))[1], out=law)
        yield law


def _last(walk: Iterator[np.ndarray]) -> np.ndarray:
    """The last law of a walk."""
    for law in walk:
        pass
    return law


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

    A tie (a sum of exactly 0) counts as not positive.  Exact mode divides
    the masses by their total and reads every side as integer steps, by
    its lattice or by its type (:func:`_side`), each sign decided exactly:
    it sums no floats, and off a lattice it is exact on the normalized
    float scores.  Scores within 1e-9 of a lattice of denominator at most
    10^4, after dividing by the least |score|, are snapped to it, and ties
    are then counted on the snapped steps (:func:`_lattice`).  The step
    grid must fit the state cap: a side of two score levels takes O(n^2)
    cells, else :func:`score_sum_law` is read.  Many
    distinct scores off a lattice pass the cap even at small n (a 10x10
    rho witness at n = 2), so there ``auto`` needs Monte Carlo settings.
    Monte Carlo projects its draws onto the lattice steps of every side
    that has them; it needs ``samples`` >= 1000 and a seed, and its
    standard error comes from the delta method.  ``auto`` prefers exact
    and falls back to Monte Carlo.  ``n`` and ``samples`` follow the
    integer rule of :func:`_check_integer`.
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
