"""The annealing search with its per-proposal scoring as it was, kept as an oracle.

This is the search before feasibility could be certified by rho: every
proposal pays the exact tau scan first, and each feasible one is
re-validated through ``from_matrix`` and scored by the public functions,
``rho(...).value`` or ``tensor_gap_lower_bound``.  The package's search,
which tries the rho certificate first where the chain's history says it
pays and scores the validated array, must return the same result bit for
bit.
"""

from __future__ import annotations

import math

import numpy as np

from depmeasures.errors import InvariantViolation
from depmeasures.joint_pmf import from_matrix
from depmeasures.measures import full_report, rho
from depmeasures.sharpness_search import (
    _REJECT_STREAK,
    _SCALE_FLOOR,
    _SCALE_SHRINK,
    _TEMPERATURE_0,
    _TEMPERATURE_DECAY,
    SearchResult,
    _exact_tau,
    _sign_pair_embedding,
    tensor_gap_lower_bound,
)
from depmeasures.theorem_suite import BOUND_TOL, tau_log_bound, tau_sqrt_log_bound


def _propose(rng, state, scale):
    alpha = np.maximum(state.ravel(), 1e-4) / max(scale, 1e-9)
    q = rng.dirichlet(alpha).reshape(state.shape)
    q[q < 1e-9 * q.max()] = 0.0
    return q / q.sum()


def _anneal(cfg, objective, restart, init):
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(restart,)))
    state = init.copy()
    if _exact_tau(state) > cfg.tau_cap:
        raise InvariantViolation("initial state infeasible")
    state_obj = objective(state)
    best_obj, best_state = state_obj, state.copy()
    trace = [(0, best_obj)]
    temperature = _TEMPERATURE_0
    scale = cfg.step_scale
    streak = 0
    for k in range(cfg.budget):
        proposal = _propose(rng, state, scale)
        accepted = False
        if _exact_tau(proposal) <= cfg.tau_cap:
            obj_p = objective(proposal)
            delta = obj_p - state_obj
            accepted = delta >= 0.0 or rng.random() < math.exp(delta / temperature)
            if accepted:
                state, state_obj = proposal, obj_p
                if obj_p > best_obj:
                    best_obj, best_state = obj_p, proposal.copy()
                    trace.append((k + 1, best_obj))
        if accepted:
            streak = 0
        else:
            streak += 1
            if streak >= _REJECT_STREAK:
                scale = max(scale * _SCALE_SHRINK, _SCALE_FLOOR)
                streak = 0
        temperature *= _TEMPERATURE_DECAY
    trace.append((cfg.budget, best_obj))
    return best_obj, best_state, trace


def _feasible_init(cfg):
    t = cfg.tau_cap
    for _ in range(4):
        init = _sign_pair_embedding(cfg.shape, t)
        if _exact_tau(init) <= cfg.tau_cap:
            return init
        t *= 1.0 - 1e-12
    raise InvariantViolation("could not construct a feasible initial state")


def _search(cfg, objective, bound_of):
    init = _feasible_init(cfg)
    outcomes = [_anneal(cfg, objective, restart, init) for restart in range(cfg.restarts)]
    winner = max(range(cfg.restarts), key=lambda i: (outcomes[i][0], -i))
    best_obj, best_state, trace = outcomes[winner]
    best = from_matrix(best_state)
    report = full_report(best, mode="exact")
    bound = bound_of(report)
    return SearchResult(
        best=best,
        best_report=report,
        objective=best_obj,
        bound=bound,
        ratio=best_obj / bound if bound > 1e-12 else 0.0,
        trace=trace,
        seed=cfg.seed,
    )


def search_max_rho(cfg):
    def objective(entries):
        return rho(from_matrix(entries)).value

    bound = tau_sqrt_log_bound(cfg.tau_cap) if cfg.two_atom else tau_log_bound(cfg.tau_cap)
    result = _search(cfg, objective, lambda _report: bound)
    assert result.objective <= bound + BOUND_TOL
    return result


def search_tensor_gap(cfg, n_max=2):
    def objective(entries):
        return tensor_gap_lower_bound(from_matrix(entries), n_max=n_max)

    return _search(cfg, objective, lambda report: report.psi - report.tau)
