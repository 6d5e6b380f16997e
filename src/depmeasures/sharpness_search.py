"""Stochastic search over joint mass matrices.

Two objectives:

  * max rho subject to an exact tau cap -- probing how close desk-scale
    instances get to the sharp bounds t*(1 - log t) (general) and
    t*sqrt(1 - log t) (two-atom row field).  The bounds are theorems, so a
    run reporting an objective above its bound is a build-failing internal
    error, never a discovery.
  * max tensor gap -- tau(M join M) - tau(M), exact when the join is
    within the exact caps (bases up to 3x3) and otherwise a certified lower
    bound from embedded single-copy events, threshold events of summed
    atom scores (their law from the lattice convolution
    ``constructions.score_sum_law``, which theorem6 also uses when each
    side of its base has three or more score levels), and the
    alternating heuristic on the join.  Threshold events of higher join
    powers (``n_max >= 3``) raise it further.  The gap can never exceed
    psi(M) - tau(M).

Proposals are Dirichlet perturbations centered at the current state,
validated once as a joint pmf where they are made.  Infeasible proposals
(exact tau above the cap) are rejected outright so feasibility is
unconditional, and acceptance is by annealed Metropolis on the objective.
Everything is deterministic given the config.

Feasibility is decided by the exact tau scan unless rho certifies it: tau
<= rho, so rho + ``CHAIN_TOL`` <= cap proves tau <= cap (``CHAIN_TOL`` is
the slack ``full_report`` allows in tau <= rho).  The rho search reads rho
of every feasible proposal anyway, so it tries the certificate first on
every proposal; the tensor-gap search needs tau anyway, so it never tries
it.  Tau, rho and the objective are each computed at most once per
distinct chain state: the state keeps its scores, and a proposal that
repeats it byte for byte (a collapsed chain proposes its state again and
again) reuses them.  The accept hook gets the exact tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .constructions import _indicator_corr, _steps, score_sum_law, yy_pair
from .errors import InvariantViolation, OutOfRange, ShapeError
from .joint_pmf import JointPMF, _kron_entries, _validated, from_matrix
from .joint_pmf import _Record, _check_integer, _check_real, _check_shape
from .measures import (
    CHAIN_TOL,
    DependenceReport,
    _exact_scan,
    _heuristic_scan,
    _require_exact_cap,
    _spectral_rho,
    full_report,
    within_exact_cap,
)
from .theorem_suite import BOUND_TOL, tau_log_bound, tau_sqrt_log_bound

_TEMPERATURE_0 = 0.05
_TEMPERATURE_DECAY = 0.995
_REJECT_STREAK = 25
_SCALE_SHRINK = 0.8
_SCALE_FLOOR = 1e-4
_GAP_GRID_CAP = 2_000_000

AcceptHook = Callable[[np.ndarray, float, float], None]


@dataclass(frozen=True)
class SearchConfig(_Record):
    """Shape, constraint, and budget of one search run.

    Exact tau decides feasibility wherever rho cannot certify it, so keep
    shapes small: 4x4 is the recommended general default, 2x8 for the
    two-atom regime.  ``two_atom`` picks the rho search's two-atom bound;
    the tensor-gap search rejects it.  A shape beyond the exact caps raises
    TooLargeForExact, and ``two_atom`` without exactly 2 rows ShapeError.
    """

    shape: tuple[int, int] = (4, 4)
    tau_cap: float = 1.0
    two_atom: bool = False
    budget: int = 1000
    restarts: int = 4
    seed: int = 0
    step_scale: float = 0.25

    def __post_init__(self) -> None:
        shape = _check_shape(self.shape)
        _require_exact_cap(*shape)
        if self.two_atom and shape[0] != 2:
            raise ShapeError(f"two-atom bound needs exactly 2 rows, got {shape[0]}")
        # stored as the rules return them: plain ints and floats
        for name, value in dict(
            shape=shape,
            tau_cap=_check_real("tau_cap", self.tau_cap, 0.0, 1.0, "(]"),
            budget=_check_integer("budget", self.budget, 1),
            restarts=_check_integer("restarts", self.restarts, 1),
            seed=_check_integer("seed", self.seed, 0),
            step_scale=_check_real("step_scale", self.step_scale, 0.0, math.inf, "()"),
        ).items():
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class SearchResult(_Record):
    """Best state found, its report, and the relevant theorem bound."""

    best: JointPMF
    best_report: DependenceReport
    objective: float
    bound: float
    ratio: float
    trace: list[tuple[int, float]]
    seed: int


def _exact_tau(entries: np.ndarray) -> float:
    values, _ = _exact_scan(entries, ("tau",))
    return values["tau"]


class _ChainScores:
    """Exact tau, rho and objective of one chain's latest proposal and state.

    One slot, keyed on the array object, serves the feasibility test, the
    objective and the accept hook of a proposal.  The chain's state keeps
    its scores under its bytes: a proposal whose bytes equal the state's
    (the Dirichlet step repeats a collapsed state byte for byte) takes
    them, so each score is computed at most once per distinct chain state.
    With ``certify``, :meth:`feasible` tries the rho certificate before the
    tau scan (see the module docstring).
    """

    def __init__(self, tau_cap: float, certify: bool, state: np.ndarray, known: dict) -> None:
        self.tau_cap = tau_cap
        self.certify = certify
        self._entries: np.ndarray | None = None
        self._scores: dict[str, float] = {}
        self._state_key, self._state_scores = state.tobytes(), known

    def _slot(self, entries: np.ndarray) -> None:
        if entries is not self._entries:
            self._entries = entries
            same = entries.tobytes() == self._state_key
            self._scores = self._state_scores if same else {}

    def keep(self, state: np.ndarray) -> bool:
        """Make ``state``, the slot's array, the chain's state.

        Returns whether its bytes differ from the previous state's.
        """
        self._slot(state)
        key = state.tobytes()
        changed = key != self._state_key
        self._state_key, self._state_scores = key, self._scores
        return changed

    def score(self, entries: np.ndarray, name: str, fn: Callable[[np.ndarray], float]) -> float:
        """``fn(entries)``, computed once per slot and kept with the state."""
        self._slot(entries)
        value = self._scores.get(name)
        if value is None:
            value = self._scores[name] = fn(entries)
        return value

    def tau(self, entries: np.ndarray) -> float:
        return self.score(entries, "tau", _exact_tau)

    def rho(self, entries: np.ndarray) -> float:
        return self.score(entries, "rho", lambda e: _spectral_rho(e).value)

    def feasible(self, entries: np.ndarray) -> bool:
        if self.certify and self.rho(entries) + CHAIN_TOL <= self.tau_cap:
            return True
        return self.tau(entries) <= self.tau_cap


def _sign_pair_embedding(shape: tuple[int, int], t: float) -> np.ndarray:
    """Initial feasible state: a sign-product pair padded with zero atoms."""
    n_rows, n_cols = shape
    arr = np.zeros(shape)
    if n_rows >= 2 and n_cols >= 2:
        arr[:2, :2] = yy_pair(t).entries
    else:
        arr[:] = 1.0 / (n_rows * n_cols)
    return arr


def _concentration(state: np.ndarray, scale: float) -> np.ndarray:
    """Dirichlet parameters of a step of size ``scale`` from ``state``."""
    return np.maximum(state.ravel(), 1e-4) / max(scale, 1e-9)


def _propose(rng: np.random.Generator, alpha: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Dirichlet step centered at the current state, of parameters ``alpha``.

    ``alpha`` comes from :func:`_concentration`.  Entries below a relative
    dust floor are zeroed and the matrix is renormalized: Dirichlet tails
    produce subnormal masses that carry no probability worth exploring but
    degrade the conditioning of the exact feasibility check.  The proposal
    is normalized and validated here, once, as ``from_matrix`` would; the
    objectives read the array as it is.
    """
    q = rng.dirichlet(alpha).reshape(shape)
    q[q < 1e-9 * q.max()] = 0.0
    return _validated(q, normalize=True)


def _anneal(
    cfg: SearchConfig,
    objective_fn: Callable[[np.ndarray], float],
    restart: int,
    init: np.ndarray,
    on_accept: AcceptHook | None,
    scores: _ChainScores,
) -> tuple[float, np.ndarray, list[tuple[int, float]]]:
    """One chain from the feasible ``init``; ``scores`` decides feasibility.

    ``objective_fn`` runs once on ``init`` and once per feasible proposal.
    ``scores`` must start with ``init`` as the chain's state.
    """
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(restart,)))
    state = init
    state_obj = objective_fn(state)
    best_obj, best_state = state_obj, state
    trace = [(0, best_obj)]
    temperature = _TEMPERATURE_0
    scale = cfg.step_scale
    alpha = _concentration(state, scale)  # changes only with the state or the scale
    streak = 0
    for k in range(cfg.budget):
        proposal = _propose(rng, alpha, state.shape)
        accepted = False
        if scores.feasible(proposal):
            obj_p = objective_fn(proposal)
            delta = obj_p - state_obj
            accepted = delta >= 0.0 or rng.random() < math.exp(delta / temperature)
            if accepted:
                state, state_obj = proposal, obj_p
                if on_accept is not None:
                    on_accept(proposal, scores.tau(proposal), obj_p)
                if scores.keep(state):
                    alpha = _concentration(state, scale)
                if obj_p > best_obj:
                    best_obj, best_state = obj_p, proposal
                    trace.append((k + 1, best_obj))
        if accepted:
            streak = 0
        else:
            streak += 1
            if streak >= _REJECT_STREAK:
                scale = max(scale * _SCALE_SHRINK, _SCALE_FLOOR)
                alpha = _concentration(state, scale)
                streak = 0
        temperature *= _TEMPERATURE_DECAY
    trace.append((cfg.budget, best_obj))
    return best_obj, best_state, trace


def _feasible_init(cfg: SearchConfig) -> tuple[np.ndarray, float]:
    """The validated sign-pair start and its exact tau, within the cap."""
    t = cfg.tau_cap
    for _ in range(4):
        init = _validated(_sign_pair_embedding(cfg.shape, t))
        tau = _exact_tau(init)
        if tau <= cfg.tau_cap:
            return init, tau
        t *= 1.0 - 1e-12  # shave float dust off the embedded level
    raise InvariantViolation("could not construct a feasible initial state")


def _search(
    cfg: SearchConfig,
    objective_of: Callable[[_ChainScores], Callable[[np.ndarray], float]],
    bound_of: Callable[[DependenceReport], float],
    on_accept: AcceptHook | None,
    certify: bool,
) -> SearchResult:
    """Anneal the objective from the feasible start; check and report the best.

    Each restart anneals from the same initial state, with the objective
    ``objective_of`` its own chain scores; the restarts share the scores of
    the initial state.  The best objective wins (the earliest restart on a
    tie).  The winner's objective must not exceed ``bound_of`` its exact
    report (a theorem) nor its tau the cap (checked on every proposal), so
    a breach raises InvariantViolation.
    """
    init, init_tau = _feasible_init(cfg)
    init_scores = {"tau": init_tau}
    outcomes = []
    for restart in range(cfg.restarts):
        scores = _ChainScores(cfg.tau_cap, certify, init, init_scores)
        outcomes.append(_anneal(cfg, objective_of(scores), restart, init, on_accept, scores))
    winner = max(range(cfg.restarts), key=lambda i: (outcomes[i][0], -i))
    best_obj, best_state, trace = outcomes[winner]

    best = from_matrix(best_state)
    report = full_report(best, mode="exact")
    bound = bound_of(report)
    if best_obj > bound + BOUND_TOL:
        raise InvariantViolation(
            f"objective {best_obj!r} exceeds its bound {bound!r}; "
            "this is an implementation bug"
        )
    if report.tau > cfg.tau_cap + BOUND_TOL:
        raise InvariantViolation(f"best state infeasible: tau={report.tau!r}")
    return SearchResult(
        best=best,
        best_report=report,
        objective=best_obj,
        bound=bound,
        ratio=best_obj / bound if bound > 1e-12 else 0.0,
        trace=trace,
        seed=cfg.seed,
    )


def search_max_rho(cfg: SearchConfig, on_accept: AcceptHook | None = None) -> SearchResult:
    """Anneal toward max rho over states with exact tau <= tau_cap.

    The initial state embeds a sign-product pair at the cap level, so the
    objective starts at tau_cap.  ``on_accept(state, tau, rho)`` fires on
    every accepted state, which the caller can use to audit feasibility.
    The bound is the sharp theorem bound at tau_cap.
    """
    bound = tau_sqrt_log_bound(cfg.tau_cap) if cfg.two_atom else tau_log_bound(cfg.tau_cap)
    return _search(cfg, lambda scores: scores.rho, lambda _report: bound, on_accept, True)


# ---------------------------------------------------------------------------
# Tensor gap
# ---------------------------------------------------------------------------


def _threshold_family_bound(entries: np.ndarray, n: int) -> float:
    """Best |indicator corr| of summed-score threshold events on the n-fold join.

    The score functions are the maximal-correlation witnesses quantized to
    an integer lattice (quantizing only changes which events are scanned,
    so the result stays a valid lower bound for tau of the join); the
    joint law of their step sums (:func:`_steps`), on which the threshold
    pairs are scanned, comes from :func:`score_sum_law`.  The scale halves
    until the full grid fits; returns 0 when it never does.
    """
    res = _spectral_rho(entries)
    if res.value <= 1e-8:
        # near-independent base: the family cannot beat float dust
        return 0.0
    g, h = res.witness
    scale = 64
    while scale >= 1:
        a = np.rint(g * scale).astype(np.int64)
        b = np.rint(h * scale).astype(np.int64)
        size_a = n * int(a.max() - a.min()) + 1
        size_b = n * int(b.max() - b.min()) + 1
        if size_a * size_b <= _GAP_GRID_CAP:
            break
        scale //= 2
    else:
        return 0.0
    if a.max() == a.min() or b.max() == b.min():
        return 0.0
    _, _, a = _steps(a, entries.sum(axis=1) > 0.0)
    _, _, b = _steps(b, entries.sum(axis=0) > 0.0)
    cur = score_sum_law(entries, a, b, n)
    # survival[i, j] = P(sum_a index >= i, sum_b index >= j); the running
    # cumsum only RANKS candidate threshold pairs -- far-tail cells carry
    # sequential-summation dust, so extreme tails are masked out and the
    # winner is re-evaluated from pairwise block sums, keeping the returned
    # value a sound lower bound.
    survival = np.cumsum(np.cumsum(cur[::-1, ::-1], axis=0), axis=1)[::-1, ::-1]
    pa = survival[:, 0].copy()
    pb = survival[0, :].copy()
    usable = np.outer(
        (pa > 1e-6) & (pa < 1.0 - 1e-6), (pb > 1e-6) & (pb < 1.0 - 1e-6)
    )
    if not usable.any():
        return 0.0
    # The grid can hold millions of cells: correlations are formed in
    # place in ``survival`` and one buffer, not in a temporary per step.
    buf = np.multiply.outer(pa, pb)
    corr = np.abs(np.subtract(survival, buf, out=survival), out=survival)
    np.multiply.outer(pa * (1.0 - pa), pb * (1.0 - pb), out=buf)  # variance product
    usable &= buf > 0.0
    np.divide(corr, np.sqrt(buf, out=buf, where=usable), out=corr, where=usable)
    corr[~usable] = 0.0
    i_star, j_star = np.unravel_index(int(np.argmax(corr)), corr.shape)
    q11 = float(cur[i_star:, j_star:].sum())
    qa = float(cur[i_star:, :].sum())
    qb = float(cur[:, j_star:].sum())
    return min(abs(_indicator_corr(q11, qa, qb)), 1.0)


def tensor_gap_lower_bound(M: JointPMF, n_max: int = 2) -> float:
    """Certified lower bound on max over 2..n_max of tau(n-fold join) - tau(M).

    When the 2-fold join is within the exact caps (bases up to 3x3), its
    gap is exact: tau of the join comes from the value-only exact scan,
    so at ``n_max = 2`` the result is the true gap.  Beyond the caps the
    2-fold candidates are threshold events of summed scores and the
    alternating heuristic on the join.  Every ``n >= 3`` adds the
    threshold events of that join power.  Every candidate evaluates
    actual events (the single-copy embedding gives gap 0), so the result
    never exceeds the true gap.  M must be within the exact cap.
    """
    n_max = _check_integer("n_max", n_max, 2)
    _require_exact_cap(M.n_rows, M.n_cols)
    return _tensor_gap(M.entries, _exact_tau(M.entries), n_max)


def _tensor_gap(entries: np.ndarray, tau_m: float, n_max: int) -> float:
    """:func:`tensor_gap_lower_bound` of a validated array of exact tau ``tau_m``.

    The join is formed by ``kron``'s own rule (``_kron_entries``).
    """
    joined = _kron_entries(entries, entries)
    if within_exact_cap(*joined.shape):
        # threshold events of the 2-fold join cannot beat its exact tau
        lower = _exact_tau(joined)
        first_family = 3
    else:
        lower, _ = _heuristic_scan(joined, "tau")
        first_family = 2
    lower = max(lower, tau_m)  # embedding of a single copy
    for n in range(first_family, n_max + 1):
        lower = max(lower, _threshold_family_bound(entries, n))
    return lower - tau_m


def search_tensor_gap(
    cfg: SearchConfig, n_max: int = 2, on_accept: AcceptHook | None = None
) -> SearchResult:
    """Anneal toward max tensor gap (exact at n_max = 2 up to 3x3 bases).

    The reported bound is psi(best) - tau(best): tau of any independent
    join of copies of M is at most max(tau, psi) = psi, so no state can
    have a larger gap.  The objective may be 0 (for example whenever
    psi = tau, as in the sign-product family).  Each proposal's tau, from
    its feasibility test, serves as tau(M).  ``cfg.two_atom`` raises
    OutOfRange: it picks a rho bound and would do nothing here.
    """
    n_max = _check_integer("n_max", n_max, 2)
    if cfg.two_atom:
        raise OutOfRange("two_atom picks a rho bound; the tensor-gap search takes none")

    def objective_of(scores: _ChainScores) -> Callable[[np.ndarray], float]:
        def gap(entries: np.ndarray) -> float:
            return _tensor_gap(entries, scores.tau(entries), n_max)

        return lambda entries: scores.score(entries, "gap", gap)

    return _search(cfg, objective_of, lambda report: report.psi - report.tau, on_accept, False)
