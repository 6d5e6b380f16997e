"""Every scalar argument of the public API follows one of two rules.

Counts, sizes, shapes, join powers and seeds follow the integer rule
(``joint_pmf._check_integer``); levels, correlations, caps, scales and noise
follow the real rule (``joint_pmf._check_real``).  A value outside its rule
raises ``OutOfRange`` (``IndexOutOfRange`` for a size below 1), never a
``TypeError`` or ``ValueError``, and is never truncated.  Valid values of any
numeric type give the bits their Python float or int gives.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from depmeasures import (
    IndexOutOfRange,
    OutOfRange,
    SearchConfig,
    clt_limit_corr,
    embellish,
    fuzz,
    lemma7_profile,
    make_scored_base,
    orthant_prob,
    random_joint,
    search_max_rho,
    search_tensor_gap,
    tau_log_bound,
    tau_sqrt_log_bound,
    tensor_gap_lower_bound,
    theorem6_corr,
    theorem6_witness_search,
    yy_pair,
)

M = yy_pair(0.3)
SB = make_scored_base(M, [-1.0, 1.0], [-1.0, 1.0])  # r = 0.3
TINY = dict(shape=(2, 2), budget=2, restarts=1, seed=1)


def rejected(call, error=OutOfRange, match=None):
    return call, error, match


REJECTED = {
    # truncated, or accepted and failing inside the run
    "fuzz-shape-float": rejected(lambda: fuzz([(2.5, 2)], ["dense"], 1, 1)),
    "config-shape-float": rejected(lambda: SearchConfig(shape=(2.5, 2))),
    "config-budget-float": rejected(lambda: SearchConfig(budget=1.5)),
    "config-restarts-float": rejected(lambda: SearchConfig(restarts=1.5)),
    # TypeError or ValueError at once
    "config-shape-1-tuple": rejected(lambda: SearchConfig(shape=(2,))),
    "config-shape-int": rejected(lambda: SearchConfig(shape=5)),
    "fuzz-count-float": rejected(lambda: fuzz([(2, 2)], ["dense"], 1.5, 1)),
    "fuzz-count-str": rejected(lambda: fuzz([(2, 2)], ["dense"], "2", 1)),
    "fuzz-shape-1-tuple": rejected(lambda: fuzz([(2,)], ["dense"], 1, 1)),
    "fuzz-shape-int": rejected(lambda: fuzz([2], ["dense"], 1, 1)),
    "random-joint-rows-float": rejected(lambda: random_joint(2.5, 2, 1)),
    "gap-bound-n-max-float": rejected(lambda: tensor_gap_lower_bound(M, 2.5)),
    "gap-bound-n-max-str": rejected(lambda: tensor_gap_lower_bound(M, "3")),
    "gap-search-n-max-float": rejected(lambda: search_tensor_gap(SearchConfig(**TINY), 2.5)),
    "yy-str": rejected(lambda: yy_pair("0.5")),
    "embellish-str": rejected(lambda: embellish(M, "0.5")),
    "sqrt-log-bound-str": rejected(lambda: tau_sqrt_log_bound("a")),
    "clt-limit-none": rejected(lambda: clt_limit_corr(None)),
    "noise-str": rejected(lambda: random_joint(2, 2, 1, "near_independent", noise="x")),
    # booleans are not counts, levels or caps
    "fuzz-count-bool": rejected(lambda: fuzz([(2, 2)], ["dense"], True, 1)),
    "config-budget-bool": rejected(lambda: SearchConfig(budget=True)),
    "config-tau-cap-bool": rejected(lambda: SearchConfig(tau_cap=True)),
    "yy-bool": rejected(lambda: yy_pair(True)),
    # wrong class: ZeroTotal from inside the run
    "config-step-scale-inf": rejected(lambda: search_max_rho(SearchConfig(step_scale=math.inf, **TINY))),
    "noise-nan": rejected(lambda: random_joint(2, 2, 1, "near_independent", noise=math.nan)),
    "noise-inf": rejected(lambda: random_joint(2, 2, 1, "near_independent", noise=math.inf)),
    "yy-overflowing-int": rejected(lambda: yy_pair(10**400)),
    # a style the grid never reaches is still checked
    "fuzz-style-unreached": rejected(
        lambda: fuzz([(2, 2)], ["dense", "bogus"], 1, 1), match="unknown style 'bogus'"
    ),
    "fuzz-style-no-count": rejected(lambda: fuzz([(2, 2)], ["bogus"], 0, 1), match="unknown style"),
    # sizes below 1 name the shape
    "random-joint-rows-0": rejected(lambda: random_joint(0, 3, 1), IndexOutOfRange, "at least 1x1"),
    "fuzz-shape-0-no-count": rejected(
        lambda: fuzz([(0, 2)], ["dense"], 0, 1), IndexOutOfRange, "at least 1x1"
    ),
    # each interval's open ends
    "embellish-0": rejected(lambda: embellish(M, 0.0)),
    "witness-search-1": rejected(lambda: theorem6_witness_search(1.0, SB, 2)),
    "config-tau-cap-0": rejected(lambda: SearchConfig(tau_cap=0.0)),
    "log-bound-above-slack": rejected(lambda: tau_log_bound(1.0 + 2e-9)),
    "orthant-below-minus-1": rejected(lambda: orthant_prob(-1.0 - 1e-15), match=r"r must be in \[-1, 1\]"),
    "lemma7-grid-999": rejected(lambda: lemma7_profile(999)),
}


@pytest.mark.parametrize("call, error, match", REJECTED.values(), ids=REJECTED.keys())
def test_argument_outside_its_rule_raises_out_of_range(call, error, match):
    with pytest.raises(error, match=match) as info:
        call()
    assert type(info.value) is error


def plain(value):
    """A value as JSON-comparable data."""
    if hasattr(value, "to_jsonable"):
        return value.to_jsonable()
    if isinstance(value, (tuple, list)):
        return [plain(v) for v in value]
    return value


ACCEPTED = {
    "yy-float32": (lambda: yy_pair(np.float32(0.5)), lambda: yy_pair(0.5)),
    "yy-fraction": (lambda: yy_pair(Fraction(1, 2)), lambda: yy_pair(0.5)),
    "yy-int": (lambda: yy_pair(1), lambda: yy_pair(1.0)),
    "yy-closed-0": (lambda: yy_pair(0.0), None),
    "embellish-fraction": (lambda: embellish(M, Fraction(1, 2)), lambda: embellish(M, 0.5)),
    "orthant-closed-minus-1": (lambda: orthant_prob(-1.0), lambda: 0.0),
    "clt-limit-float64": (lambda: clt_limit_corr(np.float64(1.0)), lambda: clt_limit_corr(1.0)),
    "log-bound-slack-top": (lambda: tau_log_bound(1.0 + 1e-9), None),
    "log-bound-slack-bottom": (lambda: tau_log_bound(-1e-12), lambda: 0.0),
    "sqrt-log-bound-fraction": (
        lambda: tau_sqrt_log_bound(Fraction(1, 4)), lambda: tau_sqrt_log_bound(0.25)
    ),
    "random-joint-numpy": (
        lambda: random_joint(np.int64(2), np.int32(3), np.int64(4), "near_independent", np.float64(0.02)),
        lambda: random_joint(2, 3, 4, "near_independent", 0.02),
    ),
    "random-joint-negative-noise": (
        lambda: random_joint(3, 3, 4, "near_independent", noise=-0.05),
        lambda: random_joint(3, 3, 4, "near_independent", noise=-0.05),
    ),
    "fuzz-numpy": (
        lambda: fuzz([(np.int64(2), 2)], ["dense"], np.int64(3), np.int64(1)),
        lambda: fuzz([(2, 2)], ["dense"], 3, 1),
    ),
    "gap-bound-numpy": (
        lambda: tensor_gap_lower_bound(M, np.int64(2)), lambda: tensor_gap_lower_bound(M, 2)
    ),
    "theorem6-numpy": (lambda: theorem6_corr(SB, np.int32(3)), lambda: theorem6_corr(SB, 3)),
    "witness-search-fraction": (
        lambda: theorem6_witness_search(Fraction(3, 10), SB, np.int64(2)),
        lambda: theorem6_witness_search(0.3, SB, 2),
    ),
    "lemma7-closed-1000": (lambda: lemma7_profile(np.int64(1000)), lambda: lemma7_profile(1000)),
}


@pytest.mark.parametrize("call, reference", ACCEPTED.values(), ids=ACCEPTED.keys())
def test_argument_within_its_rule_keeps_its_bits(call, reference):
    value = plain(call())
    if reference is not None:
        assert value == plain(reference())


def test_search_config_stores_what_the_rules_return():
    cfg = SearchConfig(
        shape=(np.int64(2), 2),
        tau_cap=np.float32(0.5),
        budget=np.int64(3),
        restarts=np.int32(1),
        seed=np.uint8(2),
        step_scale=Fraction(1, 4),
    )
    assert json.loads(json.dumps(cfg.to_jsonable())) == {
        "shape": [2, 2], "tau_cap": 0.5, "two_atom": False, "budget": 3,
        "restarts": 1, "seed": 2, "step_scale": 0.25,
    }
    assert cfg.shape == (2, 2) and type(cfg.budget) is int and type(cfg.tau_cap) is float
    plain_cfg = SearchConfig(shape=(2, 2), tau_cap=0.5, budget=3, restarts=1, seed=2, step_scale=0.25)
    assert search_max_rho(cfg).to_jsonable() == search_max_rho(plain_cfg).to_jsonable()
