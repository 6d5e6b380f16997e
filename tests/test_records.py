"""The JSON of every result record, and the one rule that writes it.

Each record below is built from fixed inputs, numpy scalars and arrays
among them, and its ``to_jsonable()`` must dump to the pinned text: the
payloads written before the records shared ``_Record``'s rule, byte for
byte under ``json.dumps(..., sort_keys=True)``.
"""

import dataclasses
import json

import numpy as np
import pytest

from depmeasures import (
    CheckResult,
    CltEstimate,
    DependenceReport,
    EventMeasure,
    EventPair,
    FuzzReport,
    JointPMF,
    Lemma7Profile,
    Marginals,
    RhoResult,
    RhoSpectral,
    ScoredBase,
    SearchConfig,
    SearchResult,
    WitnessHit,
    from_matrix,
    marginals,
)
from depmeasures import cli, constructions, joint_pmf, measures, sharpness_search, theorem_suite
from depmeasures.joint_pmf import _Record

# Fields renamed or reshaped for JSON, which the rule cannot know.
OVERRIDES = {DependenceReport, CheckResult, JointPMF, ScoredBase}

PINNED = {
    "JointPMF": '{"matrix": [[0.375, 0.125], [0.125, 0.375]], "row_labels": ["a", "b"]}',
    "JointPMF-plain": '{"matrix": [[0.5, 0.0, 0.25], [0.0, 0.25, 0.0]]}',
    "EventPair": '{"col_set": [2], "row_set": [0, 1]}',
    "EventPair-empty": '{"col_set": [], "row_set": []}',
    "Marginals": '{"col": [0.5, 0.25, 0.25], "row": [0.25, 0.75]}',
    "Marginals-of": '{"col": [0.5, 0.25, 0.25], "row": [0.75, 0.25]}',
    "RhoSpectral": '{"residual": 2.5e-16, "sigma1": 1.0, "sigma2": 0.5}',
    "DependenceReport": (
        '{"lambda": 0.25, "lambda_witness": {"col_set": [], "row_set": []}, '
        '"mode_flags": {"lambda": "exact", "psi": "exact", "tau": "exact"}, "psi": 0.5, '
        '"psi_witness": {"col_set": [2], "row_set": [0, 1]}, "rho": 0.5, '
        '"rho_witness": {"f": [1.0, -1.0], "g": [-1.0, 1.0, 0.0]}, "tau": 0.5, '
        '"tau_witness": {"col_set": [0], "row_set": [0]}}'
    ),
    "CheckResult": (
        '{"check_name": "chain:tau<=rho", "instance_digest": {"seed": [1, 2], '
        '"shape": [2, 2], "style": "dense"}, "lhs": 0.25, "pass": true, "rhs": 0.5, '
        '"slack": 0.25, "tolerance": 1e-09, "witness": {"col_set": [2], "row_set": [0, 1]}}'
    ),
    "CheckResult-failed": (
        '{"check_name": "csaki_fischer:rho_join==max", '
        '"instance_digest": {"matrix": [[0.5, 0.0], [0.0, 0.5]], "shape": [2, 2]}, '
        '"lhs": 0.75, "pass": false, "rhs": 0.5, "slack": -0.25, "tolerance": 1e-08, '
        '"witness": null}'
    ),
    "FuzzReport": (
        '{"failures": [{"check_name": "csaki_fischer:rho_join==max", '
        '"instance_digest": {"matrix": [[0.5, 0.0], [0.0, 0.5]], "shape": [2, 2]}, '
        '"lhs": 0.75, "pass": false, "rhs": 0.5, "slack": -0.25, "tolerance": 1e-08, '
        '"witness": null}], "near_sharp": [{"check_name": "chain:tau<=rho", '
        '"instance_digest": {"seed": [1, 2], "shape": [2, 2], "style": "dense"}, '
        '"lhs": 0.25, "pass": true, "rhs": 0.5, "slack": 0.25, "tolerance": 1e-09, '
        '"witness": {"col_set": [2], "row_set": [0, 1]}}], "rng_seed": 7, "total": 3}'
    ),
    "CltEstimate": '{"method": "exact", "n": 4, "samples": 0, "stderr": 0.0, "value": 0.3125}',
    "WitnessHit": (
        '{"check": {"check_name": "chain:tau<=rho", "instance_digest": {"seed": [1, 2], '
        '"shape": [2, 2], "style": "dense"}, "lhs": 0.25, "pass": true, "rhs": 0.5, '
        '"slack": 0.25, "tolerance": 1e-09, "witness": {"col_set": [2], "row_set": [0, 1]}}, '
        '"estimate": {"method": "exact", "n": 4, "samples": 0, "stderr": 0.0, '
        '"value": 0.3125}, "n": 4}'
    ),
    "Lemma7Profile": (
        '{"c_root": 0.5402, "endpoint_checks": {"f_at_0": 0.0, "f_at_1": 0.0, '
        '"fprime_at_1": -0.0}, "grid_min": 0.001, "grid_points": 1000, '
        '"sign_pattern": {"negative_below_root": true, "positive_above_root": true}}'
    ),
    "ScoredBase": (
        '{"g": [-1.0, 1.0], "h": [1.0, -1.0], "matrix": [[0.375, 0.125], [0.125, 0.375]], '
        '"r": -0.5, "row_labels": ["a", "b"]}'
    ),
    "SearchConfig": (
        '{"budget": 10, "restarts": 2, "seed": 3, "shape": [2, 3], "step_scale": 0.125, '
        '"tau_cap": 0.5, "two_atom": true}'
    ),
    "SearchResult": (
        '{"best": {"matrix": [[0.5, 0.0, 0.25], [0.0, 0.25, 0.0]]}, '
        '"best_report": {"lambda": 0.25, "lambda_witness": {"col_set": [], "row_set": []}, '
        '"mode_flags": {"lambda": "exact", "psi": "exact", "tau": "exact"}, "psi": 0.5, '
        '"psi_witness": {"col_set": [2], "row_set": [0, 1]}, "rho": 0.5, '
        '"rho_witness": {"f": [1.0, -1.0], "g": [-1.0, 1.0, 0.0]}, "tau": 0.5, '
        '"tau_witness": {"col_set": [0], "row_set": [0]}}, "bound": 0.75, '
        '"objective": 0.625, "ratio": 0.8333333333333334, "seed": 3, '
        '"trace": [[0, 0.5], [3, 0.625], [10, 0.625]]}'
    ),
}


def records():
    labelled = from_matrix([[0.375, 0.125], [0.125, 0.375]], row_labels=["a", "b"])
    plain = from_matrix([[0.5, 0.0, 0.25], [0.0, 0.25, 0.0]])
    witness = EventPair.of([1, 0], [2])
    report = DependenceReport(
        psi=np.float64(0.5),
        lam=0.25,
        tau=0.5,
        rho=np.float64(0.5),
        psi_witness=witness,
        lambda_witness=EventPair(),
        tau_witness=EventPair.of([0], [0]),
        rho_witness=(np.array([1.0, -1.0]), np.array([-1.0, 1.0, 0.0])),
        mode_flags={"lambda": "exact", "psi": "exact", "tau": "exact"},
    )
    passed = CheckResult(
        check_name="chain:tau<=rho",
        lhs=0.25,
        rhs=0.5,
        slack=0.25,
        passed=True,
        tolerance=1e-9,
        instance_digest={"shape": [2, 2], "style": "dense", "seed": [1, 2]},
        witness=witness,
    )
    failed = CheckResult(
        check_name="csaki_fischer:rho_join==max",
        lhs=0.75,
        rhs=0.5,
        slack=-0.25,
        passed=False,
        tolerance=1e-8,
        instance_digest={"shape": [2, 2], "matrix": [[0.5, 0.0], [0.0, 0.5]]},
    )
    estimate = CltEstimate(n=4, value=0.3125, stderr=0.0, method="exact", samples=0)
    return {
        "JointPMF": labelled,
        "JointPMF-plain": plain,
        "EventPair": witness,
        "EventPair-empty": EventPair(),
        "Marginals": Marginals(row=np.array([0.25, 0.75]), col=np.array([0.5, 0.25, 0.25])),
        "Marginals-of": marginals(plain),
        "RhoSpectral": RhoSpectral(sigma1=np.float64(1.0), sigma2=0.5, residual=2.5e-16),
        "DependenceReport": report,
        "CheckResult": passed,
        "CheckResult-failed": failed,
        "FuzzReport": FuzzReport(total=3, failures=[failed], near_sharp=[passed], rng_seed=7),
        "CltEstimate": estimate,
        "WitnessHit": WitnessHit(n=4, estimate=estimate, check=passed),
        "Lemma7Profile": Lemma7Profile(
            grid_min=0.001,
            c_root=0.5402,
            endpoint_checks={"f_at_0": 0.0, "f_at_1": 0.0, "fprime_at_1": -0.0},
            sign_pattern={"negative_below_root": True, "positive_above_root": True},
            grid_points=1000,
        ),
        "ScoredBase": ScoredBase(
            base=labelled, g=np.array([-1.0, 1.0]), h=np.array([1.0, -1.0]), r=-0.5
        ),
        "SearchConfig": SearchConfig(
            shape=(2, 3), tau_cap=0.5, two_atom=True, budget=10, restarts=2, seed=3, step_scale=0.125
        ),
        "SearchResult": SearchResult(
            best=plain,
            best_report=report,
            objective=np.float64(0.625),
            bound=0.75,
            ratio=0.625 / 0.75,
            trace=[(0, np.float64(0.5)), (np.int64(3), 0.625), (10, 0.625)],
            seed=3,
        ),
    }


def assert_plain(value):
    """Only JSON's own types: no numpy scalars, tuples or sets left."""
    if isinstance(value, dict):
        assert all(type(key) is str for key in value)
        for item in value.values():
            assert_plain(item)
    elif type(value) is list:
        for item in value:
            assert_plain(item)
    else:
        assert type(value) in (float, int, str, bool, type(None)), type(value)


def serializable_classes():
    modules = (cli, constructions, joint_pmf, measures, sharpness_search, theorem_suite)
    return [
        obj
        for module in modules
        for name, obj in vars(module).items()
        if isinstance(obj, type)
        and dataclasses.is_dataclass(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
        and hasattr(obj, "to_jsonable")
    ]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_payload_is_pinned(name):
    payload = records()[name].to_jsonable()
    assert_plain(payload)
    assert json.dumps(payload, sort_keys=True) == PINNED[name]


def test_every_record_class_is_pinned():
    assert {type(record) for record in records().values()} == set(serializable_classes())


def test_one_rule_and_four_overrides():
    classes = serializable_classes()
    assert {cls.__name__ for cls in classes} == {
        "CheckResult", "CltEstimate", "DependenceReport", "EventPair", "FuzzReport",
        "JointPMF", "Lemma7Profile", "Marginals", "RhoSpectral", "ScoredBase",
        "SearchConfig", "SearchResult", "WitnessHit",
    }
    for cls in classes:
        assert issubclass(cls, _Record), cls
        assert ("to_jsonable" in vars(cls)) == (cls in OVERRIDES), cls
    assert not hasattr(RhoResult, "to_jsonable")
    assert not hasattr(EventMeasure, "to_jsonable")


def test_dicts_are_copied():
    digest = {"shape": [2, 2]}
    result = CheckResult("c", 0.0, 1.0, 1.0, True, 1e-9, digest)
    payload = result.to_jsonable()
    assert payload["instance_digest"] == digest
    assert payload["instance_digest"] is not digest
