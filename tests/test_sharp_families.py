"""The bound checks on families where the log factor decides them.

On random matrices rho/tau stays below about 1.5, so a bound with too
slow a growth in log(1/tau) passes every random test.  The ladders of
``ladders.py`` push rho/tau to 1.4-2.4 while staying within the sharp
bounds; a checker patched to a weaker bound must report a failure there.
"""

import math

import pytest

from depmeasures import theorem_suite
from depmeasures.theorem_suite import check_peyre_bound, check_two_atom_bound

from ladders import general_ladder, two_atom_ladder

TWO_ATOM = {"2x11": lambda: two_atom_ladder(11, 1e-2), "2x14": lambda: two_atom_ladder(14, 2.0**-8)}
GENERAL = {"4x4": lambda: general_ladder(4), "14x14": lambda: general_ladder(14)}


def weak_bound(t):
    return t * (1.0 - math.log(t)) ** 0.25


@pytest.mark.parametrize("name", sorted(TWO_ATOM))
def test_two_atom_bound_holds_on_the_ladder(name):
    res = check_two_atom_bound(TWO_ATOM[name]())
    assert res.passed
    # the ladder sits at two thirds of the bound, far above random matrices
    assert res.lhs > 0.6 * res.rhs


@pytest.mark.parametrize("name", sorted(GENERAL))
def test_peyre_bound_holds_on_the_ladder(name):
    res = check_peyre_bound(GENERAL[name]())
    assert res.passed
    assert res.lhs > 0.24 * res.rhs


def test_a_weaker_growth_fails_on_the_ladders(monkeypatch):
    # rho over the weak bound: 1.37 on the 14x14 ladder, 1.02 on 2x14
    monkeypatch.setattr(theorem_suite, "tau_log_bound", weak_bound)
    monkeypatch.setattr(theorem_suite, "tau_sqrt_log_bound", weak_bound)
    assert not check_peyre_bound(GENERAL["14x14"]()).passed
    assert not check_two_atom_bound(TWO_ATOM["2x14"]()).passed
