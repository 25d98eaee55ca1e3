"""Jacobian ideal standard bases, two ways, and the Tjurina number."""
from __future__ import annotations

import pytest

from cuspidal import CurveEquation, Semigroup
from cuspidal.differentials import delorme
from cuspidal.jacobian import (
    JacobianBasis,
    jacobian_basis_direct,
    jacobian_basis_via_differentials,
    tjurina_number,
)
from cuspidal.poly import TruncatedPoly, WeightedOrder
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
        assert via.semimodule_values() == diff.values.lambdas


def test_via_requires_matching_semigroup():
    eq45 = CurveEquation.nice(Semigroup(4, 5), {2: Rat(1)})
    diff49 = delorme(CurveEquation.nice(Semigroup(4, 9), {1: Rat(1)}))
    with pytest.raises(ValueError):
        jacobian_basis_via_differentials(eq45, diff49)


def _mono(order, e):
    return TruncatedPoly.monomial(order, Rat(1), e, horizon=200)


def test_jacobian_basis_validates_shape():
    sg = Semigroup(4, 5)
    o = WeightedOrder(4, 5)
    ok = JacobianBasis(sg, (_mono(o, (0, 3)), _mono(o, (4, 0)), _mono(o, (3, 2))))
    assert ok.leading_powers == ((0, 3), (4, 0), (3, 2))
    assert ok.semimodule_values() == (4, 5, 11)
    with pytest.raises(ValueError):
        # (5, 1) is divisible by (4, 0): not an antichain
        JacobianBasis(sg, (_mono(o, (0, 3)), _mono(o, (4, 0)), _mono(o, (5, 1))))
    with pytest.raises(ValueError):
        JacobianBasis(sg, (_mono(o, (0, 3)),))


def test_jacobian_basis_requires_axis_leaders():
    sg = Semigroup(4, 5)
    o = WeightedOrder(4, 5)
    with pytest.raises(ValueError):
        JacobianBasis(sg, (_mono(o, (1, 3)), _mono(o, (4, 0))))
    with pytest.raises(ValueError):
        JacobianBasis(sg, (_mono(o, (0, 3)), _mono(o, (4, 1))))
