"""Weighted monomial order and truncated polynomial arithmetic."""
from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from cuspidal.poly import TruncatedPoly, WeightedOrder, divides
from cuspidal.rationals import Rat

O45 = WeightedOrder(4, 5)


def test_weighted_degree_and_ties():
    assert O45.degree((0, 4)) == 20
    assert O45.degree((5, 0)) == 20
    # equal weighted degree: the smaller x-exponent comes first
    assert O45.key((0, 4)) < O45.key((5, 0))
    assert O45.key((5, 0)) > O45.key((0, 4))
    assert O45.key((2, 1)) == (13, 2)


def test_default_horizon_is_four_nm():
    assert O45.default_horizon == 80
    assert WeightedOrder(6, 7).default_horizon == 168


def test_leading_term_is_minimal():
    p = TruncatedPoly(O45, 80, {(0, 4): 1, (5, 0): 1, (3, 2): Rat(1, 2)})
    assert p.leading_power == (0, 4)
    assert p.leading.coeff == 1
    assert p.min_degree() == 20


def test_horizon_truncation_is_inclusive():
    p = TruncatedPoly(O45, 80, {(0, 0): 1, (20, 0): 1})
    # weighted degree exactly 80 must survive the cut
    assert (20, 0) in {t.exponent for t in p.sorted_terms()}
    q = TruncatedPoly(O45, 80, {(0, 0): 1, (21, 0): 1})
    assert {t.exponent for t in q.sorted_terms()} == {(0, 0)}


def test_truncated_cuts_at_a_lower_horizon_only():
    p = TruncatedPoly(O45, 80, {(0, 0): 1, (5, 0): 2, (10, 0): 3})
    q = p.truncated(20)
    assert q.horizon == 20
    assert q.terms == {(0, 0): 1, (5, 0): 2}   # degree 20 survives, 40 does not
    assert p.truncated(80) == p
    with pytest.raises(ValueError, match="cannot raise"):
        p.truncated(81)


def test_binary_ops_take_min_horizon():
    a = TruncatedPoly(O45, 100, {(1, 0): 1})
    b = TruncatedPoly(O45, 40, {(0, 1): 1})
    assert (a + b).horizon == 40
    assert (a * b).horizon == 40


def test_product_of_leading_terms():
    p = TruncatedPoly(O45, 80, {(0, 4): 1, (5, 0): 2})
    q = TruncatedPoly(O45, 80, {(1, 0): 3, (0, 2): 1})
    assert (p * q).leading.exponent == (1, 4)
    assert (p * q).leading.coeff == 3


def test_partial_derivatives():
    p = TruncatedPoly(O45, 80, {(5, 0): 1, (0, 4): 1, (3, 2): Rat(1, 2)})
    px = p.partial_x()
    py = p.partial_y()
    assert {(t.exponent, t.coeff) for t in px.sorted_terms()} == {
        ((4, 0), Rat(5)), ((2, 2), Rat(3, 2))}
    assert {(t.exponent, t.coeff) for t in py.sorted_terms()} == {
        ((0, 3), Rat(4)), ((3, 1), Rat(1))}


def test_mul_monomial_and_scale():
    p = TruncatedPoly(O45, 80, {(0, 4): 1, (5, 0): 1})
    shifted = p.mul_monomial(Rat(2), (1, 1))
    assert {t.exponent for t in shifted.sorted_terms()} == {(1, 5), (6, 1)}
    assert all(t.coeff == 2 for t in shifted.sorted_terms())
    assert p.scale(Rat(0)).is_zero


@pytest.mark.parametrize("e1,e2,expected", [
    ((0, 0), (3, 2), True),
    ((1, 1), (3, 2), True),
    ((2, 1), (1, 2), False),
    ((0, 3), (4, 2), False),
])
def test_divides(e1, e2, expected):
    assert divides(e1, e2) is expected


def _random_poly(rng: random.Random, order: WeightedOrder, horizon: int) -> TruncatedPoly:
    terms = {}
    for _ in range(rng.randint(0, 5)):
        e = (rng.randint(0, 6), rng.randint(0, 5))
        terms[e] = Rat(rng.randint(-4, 4))
    return TruncatedPoly(order, horizon, terms)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_ring_laws(seed):
    """Distributivity and commutativity hold below a shared horizon."""
    rng = random.Random(seed)
    order = WeightedOrder(3, 5)
    h = 60
    p, q, r = (_random_poly(rng, order, h) for _ in range(3))
    assert p * (q + r) == p * q + p * r
    assert p * q == q * p
    assert p + (q + r) == (p + q) + r
    assert (p - p).is_zero


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_leading_multiplicative(seed):
    """leading(pq) = leading(p) leading(q) whenever both factors survive."""
    rng = random.Random(seed)
    order = WeightedOrder(4, 7)
    p = _random_poly(rng, order, 112)
    q = _random_poly(rng, order, 112)
    prod = p * q
    if p.is_zero or q.is_zero:
        assert prod.is_zero
        return
    e1, e2 = p.leading_power, q.leading_power
    joint = (e1[0] + e2[0], e1[1] + e2[1])
    if order.degree(joint) <= prod.horizon:
        lead = prod.leading
        assert lead.exponent == joint
        assert lead.coeff == p.leading.coeff * q.leading.coeff
