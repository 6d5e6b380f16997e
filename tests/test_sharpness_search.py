import dataclasses
import json

import numpy as np
import pytest

import search_oracle
from grid_oracle import grid_scan

from depmeasures import (
    InvariantViolation,
    OutOfRange,
    SearchConfig,
    ShapeError,
    TooLargeForExact,
    event_measure,
    kron,
    random_joint,
    search_max_rho,
    search_tensor_gap,
    tau_log_bound,
    tensor_gap_lower_bound,
    yy_pair,
)
from depmeasures.cli import run
from depmeasures.joint_pmf import RANDOM_STYLES, from_matrix
from depmeasures import sharpness_search
from depmeasures.measures import _heuristic_scan
from depmeasures.sharpness_search import _exact_tau, _threshold_family_bound


def grid_gap(m):
    """Exact 2-fold gap and tau of the join, from the two-sided grid oracle."""
    tau_join = grid_scan(kron(m, m).entries)[0]["tau"]
    return tau_join - grid_scan(m.entries)[0]["tau"], tau_join


class TestSearchConfig:
    def test_validation(self):
        with pytest.raises(OutOfRange):
            SearchConfig(shape=(0, 3))
        with pytest.raises(OutOfRange):
            SearchConfig(shape=(3, 3), tau_cap=0.0)
        with pytest.raises(OutOfRange):
            SearchConfig(shape=(3, 3), tau_cap=1.5)
        with pytest.raises(ShapeError):
            SearchConfig(shape=(3, 3), two_atom=True)
        with pytest.raises(OutOfRange):
            SearchConfig(shape=(3, 3), budget=0)
        with pytest.raises(TooLargeForExact):
            SearchConfig(shape=(16, 3))
        with pytest.raises(OutOfRange, match="restarts must be >= 1"):
            SearchConfig(restarts=0)
        with pytest.raises(OutOfRange, match=r"step_scale must be in \(0, inf\)"):
            SearchConfig(step_scale=0.0)

    def test_negative_seed(self):
        # once numpy's ValueError, raised by the first restart's generator
        assert SearchConfig(shape=(2, 2), seed=0).seed == 0
        with pytest.raises(OutOfRange, match="seed must be >= 0, got -1"):
            SearchConfig(shape=(2, 2), seed=-1)

    @pytest.mark.parametrize("seed", [1.5, True], ids=["float", "bool"])
    def test_seed_that_is_not_an_integer(self, seed):
        # 1.5 once escaped from the first restart's generator as numpy's TypeError
        with pytest.raises(OutOfRange, match="seed must be an integer"):
            SearchConfig(shape=(2, 2), seed=seed)

    def test_numpy_integer_seed(self):
        # stored as an int, so the config and the result still serialize
        cfg = SearchConfig(shape=(2, 2), budget=5, restarts=1, seed=np.int64(3))
        assert type(cfg.seed) is int
        want = search_max_rho(dataclasses.replace(cfg, seed=3)).to_jsonable()
        assert json.dumps(search_max_rho(cfg).to_jsonable()) == json.dumps(want)

    def test_jsonable(self):
        cfg = SearchConfig(shape=(2, 4), tau_cap=0.3, two_atom=True, seed=5)
        blob = cfg.to_jsonable()
        assert blob["shape"] == [2, 4]
        assert blob["two_atom"] is True


class TestSearchMaxRho:
    def test_budget_one_two_atom_starts_feasible(self):
        cfg = SearchConfig(shape=(2, 4), tau_cap=0.35, two_atom=True,
                           budget=1, restarts=1, seed=1)
        res = search_max_rho(cfg)
        assert res.objective >= 0.35 - 1e-9
        assert res.best_report.tau <= 0.35 + 1e-9
        assert res.bound == pytest.approx(
            0.35 * (1 - np.log(0.35)) ** 0.5, abs=1e-12
        )

    def test_unconstrained_cap_reaches_one_immediately(self):
        cfg = SearchConfig(shape=(3, 3), tau_cap=1.0, budget=5, restarts=1, seed=2)
        res = search_max_rho(cfg)
        assert res.objective == pytest.approx(1.0, abs=1e-9)

    def test_feasibility_of_every_accepted_state(self):
        # the hook gets the exact tau even where rho certified feasibility;
        # the long 4x4 chain accepts most of its states on that certificate
        for shape, tau_cap, budget, restarts in (((3, 3), 0.25, 400, 2), ((4, 4), 0.1, 2000, 1)):
            cfg = SearchConfig(shape=shape, tau_cap=tau_cap, budget=budget,
                               restarts=restarts, seed=3)
            taus = []

            def hook(state, tau, objective):
                assert tau == _exact_tau(state)
                taus.append(tau)

            res = search_max_rho(cfg, on_accept=hook)
            assert taus, "annealing never accepted a state"
            assert max(taus) <= tau_cap
            assert res.best_report.tau <= tau_cap + 1e-9

    def test_objective_never_beats_bound(self):
        for seed in range(4):
            cfg = SearchConfig(shape=(4, 4), tau_cap=0.15, budget=200,
                               restarts=1, seed=seed)
            res = search_max_rho(cfg)
            assert res.objective <= res.bound + 1e-9
            assert res.bound == pytest.approx(tau_log_bound(0.15), abs=1e-15)

    def test_trace_monotone_and_reproducible(self):
        cfg = SearchConfig(shape=(4, 4), tau_cap=0.4, budget=300, restarts=2, seed=4)
        a = search_max_rho(cfg)
        b = search_max_rho(cfg)
        assert a.trace == b.trace
        assert json.dumps(a.to_jsonable(), sort_keys=True) == json.dumps(
            b.to_jsonable(), sort_keys=True
        )
        vals = [v for _, v in a.trace]
        assert vals == sorted(vals)

    def test_report_matches_objective(self):
        cfg = SearchConfig(shape=(3, 4), tau_cap=0.5, budget=150, restarts=1, seed=5)
        res = search_max_rho(cfg)
        assert res.best_report.rho == pytest.approx(res.objective, abs=1e-12)
        assert res.ratio == pytest.approx(res.objective / res.bound, abs=1e-15)


class TestTensorGap:
    def test_sign_pair_gap_zero(self):
        assert tensor_gap_lower_bound(yy_pair(0.5)) == pytest.approx(0.0, abs=1e-12)

    def test_outer_product_gap_zero(self):
        m = random_joint(3, 3, seed=6, style="near_independent", noise=0.0)
        assert tensor_gap_lower_bound(m) == pytest.approx(0.0, abs=1e-9)

    def test_lower_bound_sound_against_exact_join(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            m = random_joint(2, 2, seed=int(rng.integers(1e9)))
            lb = tensor_gap_lower_bound(m)
            tau_m = event_measure(m, "tau", mode="exact").value
            tau_join = event_measure(kron(m, m), "tau", mode="exact").value
            assert lb <= tau_join - tau_m + 1e-10

    def test_gap_capped_by_psi_minus_tau(self):
        rng = np.random.default_rng(8)
        for shape in ((2, 2), (3, 3)):
            for _ in range(10):
                m = random_joint(*shape, seed=int(rng.integers(1e9)))
                from depmeasures import exact_event_values

                vals = exact_event_values(m)
                assert tensor_gap_lower_bound(m) <= (
                    vals["psi"] - vals["tau"] + 1e-9
                )

    def test_search_respects_cap_and_reproduces(self):
        cfg = SearchConfig(shape=(2, 2), tau_cap=1.0, budget=30, restarts=1, seed=9)
        a = search_tensor_gap(cfg)
        b = search_tensor_gap(cfg)
        assert a.objective == b.objective
        assert a.objective <= a.bound + 1e-9
        assert a.objective >= -1e-12

    def test_two_fold_gap_is_exact_within_cap(self):
        rng = np.random.default_rng(10)
        for shape in ((2, 2), (3, 3)):
            for style in RANDOM_STYLES:
                for _ in range(4):
                    m = random_joint(*shape, seed=int(rng.integers(1e9)), style=style)
                    gap, tau_join = grid_gap(m)
                    assert abs(tensor_gap_lower_bound(m, 2) - gap) <= 1e-13 * tau_join

    @pytest.mark.parametrize("shape", [(4, 4), (2, 8)])
    def test_beyond_cap_keeps_the_lower_bound_path(self, shape):
        m = random_joint(*shape, seed=11)
        tau_m = _exact_tau(m.entries)
        heur, _ = _heuristic_scan(kron(m, m).entries, "tau")
        expected = max(tau_m, _threshold_family_bound(m.entries, 2), heur) - tau_m
        assert tensor_gap_lower_bound(m, 2) == expected

    def test_base_beyond_the_exact_cap_raises(self):
        with pytest.raises(TooLargeForExact):
            tensor_gap_lower_bound(random_joint(15, 2, seed=1))

    def test_fewer_than_two_copies_raises(self):
        with pytest.raises(OutOfRange, match="n_max must be >= 2"):
            tensor_gap_lower_bound(yy_pair(0.5), n_max=1)

    def test_two_atom_is_rejected(self):
        # it picks the rho search's bound, so it once changed nothing here
        cfg = SearchConfig(shape=(2, 3), two_atom=True, budget=3, restarts=1, seed=1)
        with pytest.raises(OutOfRange, match="two_atom"):
            search_tensor_gap(cfg)

    def test_more_join_powers_never_lower_the_gap(self):
        rng = np.random.default_rng(12)
        for shape in ((2, 2), (3, 3)):
            for _ in range(3):
                m = random_joint(*shape, seed=int(rng.integers(1e9)))
                assert tensor_gap_lower_bound(m, 3) >= tensor_gap_lower_bound(m, 2)

    def test_best_state_above_the_tau_cap_raises(self, monkeypatch):
        # both objectives share one driver, so the tensor gap's best state
        # is checked against the tau cap like the rho search's
        exact_report = sharpness_search.full_report

        def above_cap(M, mode="auto"):
            rep = exact_report(M, mode=mode)
            return dataclasses.replace(rep, tau=rep.tau + 0.5, psi=rep.psi + 0.5)

        monkeypatch.setattr(sharpness_search, "full_report", above_cap)
        cfg = SearchConfig(shape=(2, 2), tau_cap=0.3, budget=5, restarts=1, seed=1)
        with pytest.raises(InvariantViolation, match="infeasible"):
            search_tensor_gap(cfg)


class TestAgainstSearchOracle:
    """The certified feasibility test and the array-level objectives move no bit.

    ``search_oracle`` scans tau on every proposal and scores it through
    ``from_matrix`` and the public functions.
    """

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(shape=(4, 4), tau_cap=0.1, budget=1500, restarts=1),
            dict(shape=(2, 8), tau_cap=0.1, two_atom=True, budget=1500, restarts=1),
            dict(shape=(3, 3), tau_cap=0.25, budget=400, restarts=2),
            dict(shape=(3, 3), tau_cap=1e-13, budget=300, restarts=1),
            # no sign pair fits: the chains start from the uniform state
            dict(shape=(1, 4), tau_cap=0.5, budget=200, restarts=2),
            dict(shape=(3, 1), tau_cap=0.5, budget=200, restarts=2),
        ],
        ids=["4x4-cap0.1", "2x8-two-atom", "3x3-cap0.25", "3x3-cap1e-13", "1x4", "3x1"],
    )
    def test_max_rho(self, kwargs, seed):
        cfg = SearchConfig(seed=seed, **kwargs)
        assert search_max_rho(cfg).to_jsonable() == search_oracle.search_max_rho(cfg).to_jsonable()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize(
        "shape, tau_cap, n_max, budget",
        [((3, 3), 1.0, 2, 300), ((3, 3), 0.3, 2, 300), ((3, 3), 1.0, 3, 40), ((4, 4), 1.0, 2, 30)],
        ids=["3x3-nmax2", "3x3-cap0.3", "3x3-nmax3", "4x4-heuristic-join"],
    )
    def test_tensor_gap(self, shape, tau_cap, n_max, budget, seed):
        cfg = SearchConfig(shape=shape, tau_cap=tau_cap, budget=budget, restarts=2, seed=seed)
        assert search_tensor_gap(cfg, n_max).to_jsonable() == (
            search_oracle.search_tensor_gap(cfg, n_max).to_jsonable()
        )


class TestTensorGapCli:
    def test_objective_is_the_exact_gap_of_the_best_state(self, tmp_path):
        out = tmp_path / "gap.json"
        argv = ["search", "tensor-gap", "--shape", "3x3", "--nmax", "2",
                "--budget", "20", "--restarts", "1", "--seed", "3"]
        assert run([*argv, "--out", str(out)]) == 0
        with open(out, encoding="utf-8") as fh:
            res = json.load(fh)["result"]
        best = from_matrix(np.array(res["best"]["matrix"]))
        gap, _ = grid_gap(best)
        assert res["objective"] == pytest.approx(gap, rel=0, abs=1e-12)
        assert res["objective"] <= res["bound"] + 1e-9
        running = [v for _, v in res["trace"]]
        assert running == sorted(running)
        assert running[-1] == res["objective"]
