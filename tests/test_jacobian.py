"""Jacobian ideal standard bases, two ways, and the Tjurina number."""
from __future__ import annotations

from dataclasses import replace

import pytest

from cuspidal import CurveEquation, Semigroup
from cuspidal.differentials import delorme
from cuspidal.jacobian import (
    jacobian_basis_direct,
    jacobian_basis_via_differentials,
    tjurina_number,
)
from cuspidal.poly import TruncatedPoly
from cuspidal.rationals import Rat
from cuspidal.standard_basis import codimension
from conftest import CORPUS, curve_draws


@pytest.mark.parametrize("eq,tau", [
    (CurveEquation.nice(Semigroup(4, 5)), 12),
    (CurveEquation.nice(Semigroup(4, 5), {2: Rat(1)}), 11),
    (CurveEquation.nice(Semigroup(2, 3)), 2),
    (CurveEquation.nice(Semigroup(4, 9), {1: Rat(1)}), 21),
])
def test_tjurina_pins(eq, tau):
    assert tjurina_number(jacobian_basis_direct(eq)) == tau


def test_equation_horizon_below_2nm_is_rejected():
    """At horizon n*m the (4, 9) curve would read basis (4, 9) and tau = 24;
    every constructor now refuses a horizon below 2nm."""
    sg = Semigroup(4, 9)
    with pytest.raises(ValueError, match="at least 2\\*n\\*m = 72"):
        CurveEquation.nice(sg, {1: Rat(1)}, horizon=36)
    with pytest.raises(ValueError, match="at least 2\\*n\\*m = 72"):
        CurveEquation.adapted(sg, TruncatedPoly(sg.order, 71, {(0, 4): 1, (9, 0): 1}))
    eq = CurveEquation.nice(sg, {1: Rat(1)}, horizon=72)
    assert delorme(eq).values.basis == (4, 9, 14, 19)
    assert tjurina_number(jacobian_basis_direct(eq)) == 21


def test_tjurina_bounded_by_milnor():
    for pair in CORPUS:
        sg = Semigroup(*pair)
        milnor = (sg.n - 1) * (sg.m - 1)
        for eq in curve_draws(sg, 4, seed=3):
            tau = tjurina_number(jacobian_basis_direct(eq))
            assert tau <= milnor
            assert tau == codimension(jacobian_basis_direct(eq))


@pytest.mark.parametrize("pair", CORPUS)
def test_via_and_direct_agree(pair):
    sg = Semigroup(*pair)
    for eq in curve_draws(sg, 4, seed=17):
        diff = delorme(eq)
        via = jacobian_basis_via_differentials(eq, diff)
        direct = jacobian_basis_direct(eq)
        assert set(via.leading_powers) == set(direct.leading_powers)


@pytest.mark.parametrize("pair", CORPUS)
def test_leading_powers_recover_the_semimodule(pair):
    sg = Semigroup(*pair)
    for eq in curve_draws(sg, 4, seed=29):
        diff = delorme(eq)
        via = jacobian_basis_via_differentials(eq, diff)
        assert tuple(sorted(sg.n * (a + 1) + sg.m * (b + 1) - sg.n * sg.m
                            for a, b in via.leading_powers)) == diff.values.basis


def test_via_requires_matching_semigroup():
    eq45 = CurveEquation.nice(Semigroup(4, 5), {2: Rat(1)})
    diff49 = delorme(CurveEquation.nice(Semigroup(4, 9), {1: Rat(1)}))
    with pytest.raises(ValueError):
        jacobian_basis_via_differentials(eq45, diff49)


EQ45 = CurveEquation.nice(Semigroup(4, 5), {2: Rat(1)})  # values (4, 5, 11)


def _via(*lps):
    """The (4,5) basis with monomial reductions h_i at the given leading powers."""
    reductions = tuple(TruncatedPoly.monomial(EQ45.sg.order, Rat(1), e, horizon=200)
                       for e in lps)
    return jacobian_basis_via_differentials(
        EQ45, replace(delorme(EQ45), reductions=reductions))


def test_jacobian_basis_validates_shape():
    ok = _via((0, 3), (4, 0), (3, 2))
    assert ok.leading_powers == ((0, 3), (3, 2), (4, 0))
    with pytest.raises(ValueError):
        # (5, 1) is divisible by (4, 0) and encodes 14, not 11
        _via((0, 3), (4, 0), (5, 1))
    with pytest.raises(ValueError):
        _via((0, 3))


def test_jacobian_basis_requires_axis_leaders():
    with pytest.raises(ValueError):
        _via((1, 3), (4, 0))
    with pytest.raises(ValueError):
        _via((0, 3), (4, 1))
