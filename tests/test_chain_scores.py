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
    # rho of init as the objective (its tau comes with the start); the rho
    # certificate, then tau, of the infeasible array, of ``better`` and of
    # the last init copy
    assert calls == {"_exact_tau": 3, "_spectral_rho": 4}
    # the repeats are accepted (delta 0), and so is ``better``
    assert [id(s) for s, _, _ in hooked[:4]] == [id(script[k]) for k in (0, 2, 3, 4)]
    for state, tau, obj in hooked:
        assert tau == _exact_tau(state) and obj == _spectral_rho(state).value


@pytest.mark.parametrize("search, certify", [
    (search_max_rho, True), (search_tensor_gap, False),
], ids=["max-rho", "tensor-gap"])
def test_only_the_rho_chains_try_the_rho_certificate(search, certify, monkeypatch):
    """Rho chains read rho first on every proposal; tensor-gap chains never read it."""
    cfg = SearchConfig(shape=(3, 3), tau_cap=0.3, budget=200, restarts=2, seed=1)
    reads = []
    feasible, score = _ChainScores.feasible, _ChainScores.score

    def recording_feasible(self, entries):
        reads.append("feasible")
        return feasible(self, entries)

    def recording_score(self, entries, name, fn):
        reads.append(name)
        return score(self, entries, name, fn)

    monkeypatch.setattr(_ChainScores, "feasible", recording_feasible)
    monkeypatch.setattr(_ChainScores, "score", recording_score)
    search(cfg)
    firsts = [reads[i + 1] for i, name in enumerate(reads) if name == "feasible"]
    assert len(firsts) == cfg.budget * cfg.restarts
    assert set(firsts) == ({"rho"} if certify else {"tau"})
    assert ("rho" in reads) == certify
    assert reads.count("tau") > 0  # the certificate fails on some proposals


def test_slot_takes_the_state_scores_only_for_equal_bytes(monkeypatch):
    init = _validated(np.array([[0.4, 0.1], [0.1, 0.4]]))
    other = _validated(np.array([[0.3, 0.2], [0.2, 0.3]]))
    scores = _ChainScores(0.5, True, init, {"tau": _exact_tau(init)})
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
