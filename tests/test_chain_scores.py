"""The annealer scores each chain state once: repeats reuse the state's scores.

A chain that collapses onto a point mass proposes its state again, byte for
byte, most of the time.  ``_ChainScores`` keeps the state's tau, rho and
objective under its bytes, so a repeat computes none of them; every result
must still equal ``search_oracle``'s, which scores every proposal afresh.
"""

from collections import Counter

import numpy as np
import pytest

import search_oracle
from test_bench_tracing import _tracing

from depmeasures import SearchConfig, search_max_rho, search_tensor_gap
import depmeasures.cli  # noqa: F401  (the tracer patches cli.run as well)
from depmeasures import sharpness_search
from depmeasures.joint_pmf import _validated
from depmeasures.measures import _spectral_rho
from depmeasures.sharpness_search import _ChainScores, _exact_tau

# 4x4 at cap 0.1 collapses onto point masses within a few hundred steps
COLLAPSING = dict(shape=(4, 4), tau_cap=0.1, budget=500, restarts=1, seed=11)


def count_calls(monkeypatch, names):
    """Count calls of ``sharpness_search`` globals as the search makes them."""
    calls = Counter()
    for name in names:
        fn = getattr(sharpness_search, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(sharpness_search, name, counted)
    return calls


@pytest.mark.parametrize("search, oracle, scored", [
    (search_max_rho, search_oracle.search_max_rho, ["_spectral_rho", "_exact_tau"]),
    (search_tensor_gap, search_oracle.search_tensor_gap, ["_tensor_gap", "_exact_tau"]),
], ids=["max-rho", "tensor-gap"])
def test_collapsing_chain_scores_below_one_per_proposal(search, oracle, scored, monkeypatch):
    cfg = SearchConfig(**COLLAPSING)
    calls = count_calls(monkeypatch, ["_propose", *scored])
    result = search(cfg).to_jsonable()
    assert calls["_propose"] == cfg.budget
    for name in scored:
        assert calls[name] < calls["_propose"] / 2, name
    monkeypatch.undo()
    assert result == oracle(cfg).to_jsonable()


@pytest.mark.parametrize("restarts", [1, 2, 8])
def test_restarts_match_the_oracle(restarts):
    cfg = SearchConfig(shape=(3, 3), tau_cap=0.3, budget=120, restarts=restarts, seed=5)
    assert search_max_rho(cfg).to_jsonable() == search_oracle.search_max_rho(cfg).to_jsonable()
    gap_cfg = SearchConfig(shape=(3, 3), tau_cap=1.0, budget=60, restarts=restarts, seed=5)
    assert search_tensor_gap(gap_cfg).to_jsonable() == (
        search_oracle.search_tensor_gap(gap_cfg).to_jsonable()
    )


@pytest.mark.parametrize("search", [search_max_rho, search_tensor_gap], ids=["max-rho", "tensor-gap"])
def test_accept_hook_gets_the_exact_tau_of_repeated_states(search):
    accepted = []
    search(SearchConfig(**COLLAPSING), on_accept=lambda state, tau, _obj: accepted.append((state, tau)))
    keys = [state.tobytes() for state, _ in accepted]
    assert sum(a == b for a, b in zip(keys, keys[1:])) > len(keys) // 2  # mostly repeats
    assert all(tau == _exact_tau(state) for state, tau in accepted)


def test_scripted_proposals_switch_the_slot(monkeypatch):
    """State copy, another array, state copy: only the other array is scored."""
    cfg = SearchConfig(shape=(3, 3), tau_cap=0.3, budget=6, restarts=1, seed=1)
    start = sharpness_search._feasible_init(cfg)
    init = start[0]
    infeasible = _validated(np.diag([0.5, 0.5, 0.0]))  # tau = 1
    a = 0.55
    better = _validated(np.array([[1 + a, 1, 1 - a], [1, 1, 1], [1 - a, 1, 1 + a]]), normalize=True)
    assert _exact_tau(better) <= cfg.tau_cap < _spectral_rho(better).value
    script = [init.copy(), infeasible, init.copy(), better, better.copy(), init.copy()]

    def scripted(*_args):
        return next(proposals)

    proposals = iter(script)
    monkeypatch.setattr(search_oracle, "_propose", scripted)
    expected = search_oracle.search_max_rho(cfg).to_jsonable()

    proposals = iter(script)
    monkeypatch.setattr(sharpness_search, "_propose", scripted)
    monkeypatch.setattr(sharpness_search, "_feasible_init", lambda _cfg: start)
    calls = count_calls(monkeypatch, ["_spectral_rho", "_exact_tau"])
    hooked = []
    result = search_max_rho(cfg, on_accept=lambda s, tau, obj: hooked.append((s, tau, obj)))
    assert result.to_jsonable() == expected
    # rho of init as the objective (its tau comes with the start); tau of
    # the infeasible array; tau and rho of ``better`` and of the last init copy
    assert calls == {"_exact_tau": 3, "_spectral_rho": 3}
    # the repeats are accepted (delta 0), and so is ``better``
    assert [id(s) for s, _, _ in hooked[:4]] == [id(script[k]) for k in (0, 2, 3, 4)]
    for state, tau, obj in hooked:
        assert tau == _exact_tau(state) and obj == _spectral_rho(state).value


@pytest.mark.parametrize("seed", [1, 11])
def test_reused_rho_sets_the_order_bit_as_a_computed_one(seed, monkeypatch):
    """Feasibility tries rho or tau first in the same order as without reuse."""
    cfg = SearchConfig(shape=(4, 4), tau_cap=0.1, budget=1500, restarts=1, seed=seed)
    orders = []
    feasible = _ChainScores.feasible

    def recording(self, entries):
        orders.append(self._rho_first)
        return feasible(self, entries)

    monkeypatch.setattr(_ChainScores, "feasible", recording)
    reused = search_max_rho(cfg).to_jsonable()
    reused_orders, orders[:] = orders[:], []

    def fresh_slot(self, entries):  # every proposal scored afresh
        if entries is not self._entries:
            self._entries, self._scores = entries, {}

    monkeypatch.setattr(_ChainScores, "_slot", fresh_slot)
    assert search_max_rho(cfg).to_jsonable() == reused
    assert orders == reused_orders and True in orders and False in orders


def test_slot_takes_the_state_scores_only_for_equal_bytes(monkeypatch):
    init = _validated(np.array([[0.4, 0.1], [0.1, 0.4]]))
    other = _validated(np.array([[0.3, 0.2], [0.2, 0.3]]))
    scores = _ChainScores(0.5, init, {"tau": _exact_tau(init)})
    calls = count_calls(monkeypatch, ["_spectral_rho", "_exact_tau"])
    assert scores.tau(init.copy()) == _exact_tau(init) and not calls
    rho_init = scores.rho(init.copy())
    assert calls == {"_spectral_rho": 1}
    scores.tau(other)
    assert calls == {"_spectral_rho": 1, "_exact_tau": 1}
    assert scores.rho(init.copy()) == rho_init and calls["_spectral_rho"] == 1
    scores.tau(other)  # the slot left it: scored afresh
    assert calls == {"_spectral_rho": 1, "_exact_tau": 2}
    assert scores.keep(other) and not scores.keep(other.copy())
    assert scores.tau(other.copy()) == _exact_tau(other) and calls["_exact_tau"] == 2
    scores.rho(init.copy())  # no longer the state: scored afresh
    assert calls == {"_spectral_rho": 2, "_exact_tau": 2}


@pytest.mark.parametrize("search, oracle, oracle_objective", [
    (search_max_rho, search_oracle.search_max_rho, "rho"),
    (search_tensor_gap, search_oracle.search_tensor_gap, "tensor_gap_lower_bound"),
], ids=["max-rho", "tensor-gap"])
def test_tracer_counts_every_proposal_and_feasible_evaluation(
    search, oracle, oracle_objective, monkeypatch
):
    """Reused scores hide no proposal and no objective call from the tracer."""
    cfg = SearchConfig(**dict(COLLAPSING, budget=200, restarts=2))
    calls = Counter()
    objective = getattr(search_oracle, oracle_objective)

    def counted(*args, **kwargs):
        calls["objective"] += 1
        return objective(*args, **kwargs)

    monkeypatch.setattr(search_oracle, oracle_objective, counted)
    expected = oracle(cfg).to_jsonable()
    feasible = calls["objective"] - cfg.restarts  # the oracle also scores each start

    tracing = _tracing()
    tracer = tracing["Tracer"]()
    with tracer.install():
        result = search(cfg)
    assert result.to_jsonable() == expected
    assert tracer.counts["proposals"] == cfg.budget * cfg.restarts
    assert tracer.counts["objective_evals"] == feasible
    metrics = tracing["layer_metrics"](tracer.spans, 0, len(tracer.spans), tracer.counts, 0)
    assert metrics["sharpness_search.feasible_ratio"] == feasible / (cfg.budget * cfg.restarts)
