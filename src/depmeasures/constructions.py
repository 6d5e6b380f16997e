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
    level.  The exact lattice path uses :func:`score_sum_law`, the n-fold
    joint law of integer score sums, which the tensor-gap search also uses;
    it convolves on the sublattice that the positive-mass scores span and
    returns the law on the full grid;
  * a grid profile of f(t) = t(1 - log t) - sin(pi t / 2), which is
    positive on (0, 1) with f(1) = f'(1) = 0 and a single inflection of
    f'' in the interior.
"""

from __future__ import annotations

import math
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
    _check_seed,
    from_jsonable,
    from_matrix,
    holds_bool_or_text,
    kron,
    unwrap_manifest,
)
from .measures import event_measure, rho as _rho
from .theorem_suite import BOUND_TOL, CheckResult, _result

LATTICE_MAX_DENOMINATOR = 10**4
MC_MIN_SAMPLES = 1000
MC_STREAM_SIZE = 1 << 16

_LONG_PI = np.arccos(np.longdouble(-1.0))


# ---------------------------------------------------------------------------
# Sign-product family and embellishment
# ---------------------------------------------------------------------------


def yy_pair(t: float) -> JointPMF:
    """2x2 pair with mass (1 + t*y1*y2)/4 on cell (y1, y2), y in {-1, +1}.

    Diagonal cells carry (1+t)/4, off-diagonal (1-t)/4; both marginals are
    uniform and psi = tau = rho = t, lambda = t/2.
    """
    if not 0.0 <= t <= 1.0:
        raise OutOfRange(f"t must be in [0, 1], got {t!r}")
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
    if not 0.0 < t < 1.0:
        raise OutOfRange(f"t must be in (0, 1), got {t!r}")
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
    if not -1.0 <= r <= 1.0:
        raise OutOfRange(f"r must be in [-1, 1], got {r!r}")
    rl = np.longdouble(r)
    return float(np.longdouble(0.25) + np.arcsin(rl) / (2.0 * _LONG_PI))


def clt_limit_corr(r: float) -> float:
    """Limit of Corr(1[Y_n > 0], 1[Z_n > 0]): (2/pi) * arcsin(r).

    Odd, strictly increasing, and the exact functional inverse of
    r = sin((pi/2) t) on t in [0, 1].
    """
    if not -1.0 <= r <= 1.0:
        raise OutOfRange(f"r must be in [-1, 1], got {r!r}")
    rl = np.longdouble(r)
    return float(2.0 * np.arcsin(rl) / _LONG_PI)


# ---------------------------------------------------------------------------
# Scored bases and indicator correlations of summed scores
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScoredBase:
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
        out = self.base.to_jsonable()
        out["g"] = [float(x) for x in self.g]
        out["h"] = [float(x) for x in self.h]
        out["r"] = self.r
        return out


def make_scored_base(
    base: JointPMF, g_raw: Sequence[float], h_raw: Sequence[float]
) -> ScoredBase:
    """Affinely normalize raw scores to mean 0, variance 1 and record r."""
    try:
        g_arr = np.asarray(g_raw, dtype=np.float64)
        h_arr = np.asarray(h_raw, dtype=np.float64)
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
class CltEstimate:
    """Corr(1[Y_n > 0], 1[Z_n > 0]) under n i.i.d. copies of the base."""

    n: int
    value: float
    stderr: float
    method: str
    samples: int

    def to_jsonable(self) -> dict:
        return {
            "n": self.n,
            "value": self.value,
            "stderr": self.stderr,
            "method": self.method,
            "samples": self.samples,
        }


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


def score_sum_law(entries: np.ndarray, a: np.ndarray, b: np.ndarray, n: int) -> tuple[np.ndarray, int, int]:
    """Joint law of the integer score sums of n i.i.d. copies of a base.

    ``a`` and ``b`` are integer scores of the row and column atoms of the
    mass matrix ``entries``.  Returns (law, lo_a, lo_b) with law[i, j] =
    P(sum of a = lo_a + i, sum of b = lo_b + j); the law has
    (n * span(a) + 1) x (n * span(b) + 1) cells, and a grid of more than
    ``STATE_CAP`` cells raises StateSpaceTooLarge before anything is
    allocated.

    On each side every sum lands on n * o + d * k, where o is the smallest
    score of a positive-mass cell (shifted by the minimum score) and d the
    gcd of the other such scores' distances from it.  So the n-fold
    convolution over the positive-mass cells (row-major order) runs on
    that sublattice and is scattered into the full grid.  The cells it
    skips are exact zeros at every step, so the law is bit for bit the
    one a convolution on the full grid gives.  d comes from positive-mass
    cells only: a zero-mass atom may carry any score.
    """
    amin, bmin = int(a.min()), int(b.min())
    size_a = n * (int(a.max()) - amin) + 1
    size_b = n * (int(b.max()) - bmin) + 1
    if size_a * size_b > STATE_CAP:
        raise StateSpaceTooLarge(f"lattice grid {size_a}x{size_b} exceeds {STATE_CAP} states")
    rows, cols = np.nonzero(entries > 0.0)
    off_a, off_b = a[rows] - amin, b[cols] - bmin
    o_a, o_b = int(off_a.min()), int(off_b.min())
    d_a = math.gcd(*(int(x) for x in off_a - o_a)) or 1
    d_b = math.gcd(*(int(x) for x in off_b - o_b)) or 1
    steps = [
        ((int(x) - o_a) // d_a, (int(y) - o_b) // d_b, float(entries[i, j]))
        for x, y, i, j in zip(off_a, off_b, rows, cols)
    ]
    span_a, span_b = max(s[0] for s in steps), max(s[1] for s in steps)
    cur = np.ones((1, 1))
    for _ in range(n):
        new = np.zeros((cur.shape[0] + span_a, cur.shape[1] + span_b))
        for ia, jb, p in steps:
            new[ia : ia + cur.shape[0], jb : jb + cur.shape[1]] += p * cur
        cur = new
    law = np.zeros((size_a, size_b))
    law[
        n * o_a : n * o_a + d_a * (cur.shape[0] - 1) + 1 : d_a,
        n * o_b : n * o_b + d_b * (cur.shape[1] - 1) + 1 : d_b,
    ] = cur
    return law, n * amin, n * bmin


def _exact_corr_lattice(sb: ScoredBase, n: int, scale: int) -> float:
    """Indicator correlation from the joint law of integer score sums."""
    a_vals = np.rint(sb.g * scale).astype(np.int64)
    b_vals = np.rint(sb.h * scale).astype(np.int64)
    cur, lo_a, lo_b = score_sum_law(sb.base.entries, a_vals, b_vals, n)
    pos_a = np.arange(cur.shape[0]) + lo_a > 0
    pos_b = np.arange(cur.shape[1]) + lo_b > 0
    qa = float(cur[pos_a, :].sum())
    qb = float(cur[:, pos_b].sum())
    q11 = float(cur[np.ix_(pos_a, pos_b)].sum())
    return _indicator_corr(q11, qa, qb)


def _exact_corr_enumerate(sb: ScoredBase, n: int) -> float:
    """Vectorized enumeration of all (I*J)^n atom sequences."""
    cells = [
        (float(sb.g[i]), float(sb.h[j]), float(sb.base.entries[i, j]))
        for i in range(sb.base.n_rows)
        for j in range(sb.base.n_cols)
        if sb.base.entries[i, j] > 0.0
    ]
    n_cells = len(cells)
    if n_cells**n > STATE_CAP:
        raise StateSpaceTooLarge(
            f"{n_cells}^{n} sequences exceed the {STATE_CAP} cap"
        )
    gstep = np.array([c[0] for c in cells])
    hstep = np.array([c[1] for c in cells])
    pstep = np.array([c[2] for c in cells])
    sums_g = np.zeros(1)
    sums_h = np.zeros(1)
    probs = np.ones(1)
    for _ in range(n):
        sums_g = (sums_g[:, None] + gstep[None, :]).ravel()
        sums_h = (sums_h[:, None] + hstep[None, :]).ravel()
        probs = (probs[:, None] * pstep[None, :]).ravel()
    mask_a = sums_g > 0.0
    mask_b = sums_h > 0.0
    qa = float(probs[mask_a].sum())
    qb = float(probs[mask_b].sum())
    q11 = float(probs[mask_a & mask_b].sum())
    return _indicator_corr(q11, qa, qb)


def _mc_corr(sb: ScoredBase, n: int, samples: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate with delta-method standard error.

    Sampling runs in fixed-size substreams keyed by (seed, stream index);
    the merged counts, and hence the estimate, do not depend on how the
    streams would be scheduled.
    """
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
    value = _indicator_corr(q11, qa, qb)
    stderr = _delta_stderr(q11, qa, qb, samples)
    return value, stderr


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

    Exact mode convolves on an integer lattice when both score vectors
    admit a common denominator up to 1e4 (integer-exact thresholding at 0,
    ties count as not positive), and falls back to full sequence
    enumeration under the state cap.  Monte Carlo needs ``samples`` >= 1000
    and a seed; its standard error comes from the delta method.  ``auto``
    prefers exact and falls back to Monte Carlo.
    """
    if n < 1:
        raise OutOfRange(f"n must be >= 1, got {n}")
    if method not in ("exact", "monte_carlo", "auto"):
        raise OutOfRange(f"unknown method {method!r}")

    def run_exact() -> CltEstimate:
        scale = _lattice_scale(
            np.concatenate([sb.g, sb.h]), LATTICE_MAX_DENOMINATOR
        )
        if scale is not None:
            value = _exact_corr_lattice(sb, n, scale)
        else:
            value = _exact_corr_enumerate(sb, n)
        value = min(max(value, -1.0), 1.0)
        return CltEstimate(n=n, value=value, stderr=0.0, method="exact", samples=0)

    def run_mc() -> CltEstimate:
        if samples < MC_MIN_SAMPLES:
            raise TooFewSamples(f"monte_carlo needs >= {MC_MIN_SAMPLES} samples")
        if seed is None:
            raise PreconditionFailed("monte_carlo requires a seed")
        value, stderr = _mc_corr(sb, n, samples, _check_seed(seed))
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
class WitnessHit:
    """First n at which the summed-score indicator correlation beats t."""

    n: int
    estimate: CltEstimate
    check: CheckResult

    def to_jsonable(self) -> dict:
        return {
            "n": self.n,
            "estimate": self.estimate.to_jsonable(),
            "check": self.check.to_jsonable(),
        }


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
    """
    if not 0.0 < t < 1.0:
        raise OutOfRange(f"t must be in (0, 1), got {t!r}")
    if n_max < 1:
        raise OutOfRange(f"n_max must be >= 1, got {n_max}")
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
    t = np.asarray(t, dtype=np.float64)
    out = np.where(t > 0.0, t * (1.0 - np.log(np.where(t > 0.0, t, 1.0))), 0.0)
    return out - np.sin(np.pi * t / 2.0)


def _f_prime(t: float) -> float:
    return -math.log(t) - (math.pi / 2.0) * math.cos(math.pi * t / 2.0)


def _f_double_prime(t: np.ndarray | float) -> np.ndarray | float:
    return -1.0 / t + (np.pi / 2.0) ** 2 * np.sin(np.pi * t / 2.0)


@dataclass(frozen=True)
class Lemma7Profile:
    """Grid evidence that t(1 - log t) dominates sin(pi t / 2) on (0, 1)."""

    grid_min: float
    c_root: float
    endpoint_checks: dict[str, float]
    sign_pattern: dict[str, bool]
    grid_points: int

    def to_jsonable(self) -> dict:
        return {
            "grid_min": self.grid_min,
            "c_root": self.c_root,
            "endpoint_checks": dict(self.endpoint_checks),
            "sign_pattern": dict(self.sign_pattern),
            "grid_points": self.grid_points,
        }


def lemma7_profile(grid_points: int = 100_000) -> Lemma7Profile:
    """Evaluate f on a uniform interior grid and locate the f'' root.

    The second derivative is strictly increasing on (0, 1], negative near
    0 and positive at 1, so bisection pins its unique root c; the sign
    pattern (f'' < 0 left of c, > 0 right of c) is verified at grid
    resolution, and f(1) = 0, f'(1) = 0 are checked directly.
    """
    if not 1000 <= grid_points <= STATE_CAP:
        raise OutOfRange(f"grid_points must be in [1000, {STATE_CAP}], got {grid_points}")
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
    below = ts[ts < c - spacing]
    above = ts[ts > c + spacing]
    neg_below = bool(np.all(_f_double_prime(below) < 0.0)) if below.size else True
    pos_above = bool(np.all(_f_double_prime(above) > 0.0)) if above.size else True

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
    if abs(f_at_1) > 1e-12 or abs(fprime_at_1) > 1e-12:
        raise InvariantViolation(f"endpoint identities violated: {profile}")
    return profile
