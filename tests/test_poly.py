"""Weighted monomial order and truncated polynomial arithmetic."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cuspidal.poly import TruncatedPoly, WeightedOrder, divides
from cuspidal.rationals import Rat, rat

O45 = WeightedOrder(4, 5)


def test_weighted_degree_and_ties():
    assert O45.degree((0, 4)) == 20
    assert O45.degree((5, 0)) == 20
    # a term's key is (weighted degree, x-exponent): at equal weighted
    # degree the smaller x-exponent comes first
    tie = TruncatedPoly(O45, 40, {(5, 0): 1, (0, 4): 1})
    assert sorted(tie.terms) == [(20, 0), (20, 5)]
    assert tie.leading_power == (0, 4)
    assert TruncatedPoly(O45, 40, {(2, 1): 1}).lead == (13, 2)
    assert O45.exponent((13, 2)) == (2, 1)


def test_leading_term_is_minimal():
    p = TruncatedPoly(O45, 80, {(0, 4): 1, (5, 0): 1, (3, 2): Rat(1, 2)})
    assert p.leading_power == (0, 4)
    assert p.coeffs[p.leading_power] == 1
    assert p.lead[0] == 20   # the order valuation: the leading key's degree


def test_horizon_truncation_is_inclusive():
    p = TruncatedPoly(O45, 80, {(0, 0): 1, (20, 0): 1})
    # weighted degree exactly 80 must survive the cut
    assert (20, 0) in p.coeffs
    # one degree past it is refused, not dropped
    with pytest.raises(ValueError, match="weighted degree 84 above the horizon 80"):
        TruncatedPoly(O45, 80, {(0, 0): 1, (21, 0): 1})


def test_truncated_cuts_at_a_lower_horizon_only():
    p = TruncatedPoly(O45, 80, {(0, 0): 1, (5, 0): 2, (10, 0): 3})
    q = p.truncated(20)
    assert q.horizon == 20
    assert q.coeffs == {(0, 0): 1, (5, 0): 2}   # degree 20 survives, 40 does not
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
    assert (p * q).leading_power == (1, 4)
    assert (p * q).coeffs[(1, 4)] == 3


def test_partial_derivatives():
    p = TruncatedPoly(O45, 80, {(5, 0): 1, (0, 4): 1, (3, 2): Rat(1, 2)})
    px, py = p.partials(80)
    assert px.coeffs == {(4, 0): Rat(5), (2, 2): Rat(3, 2)}
    assert py.coeffs == {(0, 3): Rat(4), (3, 1): Rat(1)}


def test_mul_monomial_and_scale():
    p = TruncatedPoly(O45, 80, {(0, 4): 1, (5, 0): 1})
    shifted = p.mul_monomial(Rat(2), (1, 1))
    assert set(shifted.coeffs) == {(1, 5), (6, 1)}
    assert all(c == 2 for c in shifted.coeffs.values())
    assert not p.scale(Rat(0))


@pytest.mark.parametrize("build", [
    lambda: TruncatedPoly(O45, 80, {(0, 0): 0.5}),
    lambda: TruncatedPoly.monomial(O45, 0.5, (0, 0), 80),
    lambda: TruncatedPoly(O45, 80, {(0, 4): 1}) * 0.5,
], ids=["constructor", "monomial", "scalar"])
def test_float_coefficients_are_refused(build):
    """No rounded value enters a computation: a float coefficient or scalar
    is a TypeError, wherever it comes in."""
    with pytest.raises(TypeError, match="exact rational"):
        build()


@pytest.mark.parametrize("exponent", [(-1, 0), (0, -2), (1.5, 2), (1.0, 0), (True, 0), (0, False)],
                         ids=["negative-a", "negative-b", "float", "integral-float", "true",
                              "false"])
def test_exponents_must_be_non_negative_ints(exponent):
    """An exponent is a pair of ints >= 0: a float or a bool would be stored
    as a key of another type (x^1.5, or (4.0, 1.0) for x^1.0), and a
    negative one is no monomial; the constructor and ``monomial`` refuse
    each."""
    for build in (lambda: TruncatedPoly(WeightedOrder(4, 9), 40, {exponent: 1}),
                  lambda: TruncatedPoly.monomial(WeightedOrder(4, 9), 1, exponent, 40)):
        with pytest.raises(ValueError, match="exponent"):
            build()


def test_rat_reads_a_rational_string():
    assert rat(" -7/2 ") == Rat(-7, 2)


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
    assert not (p - p)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_leading_multiplicative(seed):
    """leading(pq) = leading(p) leading(q) whenever both factors survive."""
    rng = random.Random(seed)
    order = WeightedOrder(4, 7)
    p = _random_poly(rng, order, 112)
    q = _random_poly(rng, order, 112)
    prod = p * q
    if not p or not q:
        assert not prod
        return
    e1, e2 = p.leading_power, q.leading_power
    joint = (e1[0] + e2[0], e1[1] + e2[1])
    if order.degree(joint) <= prod.horizon:
        assert prod.leading_power == joint
        assert prod.coeffs[joint] == p.coeffs[e1] * q.coeffs[e2]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.sampled_from([(2, 3), (3, 5), (4, 7)]), st.integers(-5, 60),
       st.dictionaries(st.tuples(st.integers(0, 12), st.integers(0, 9)),
                       st.fractions(max_denominator=6), max_size=6))
def test_construction_keeps_every_term_or_raises(pair, horizon, terms):
    """A term map is stored whole, apart from its zero coefficients, or
    refused with the first term above the horizon; no term is dropped in
    silence: ``truncated`` is the one way to cut terms."""
    order = WeightedOrder(*pair)
    above = [e for e in terms if order.degree(e) > horizon]
    if above:
        with pytest.raises(ValueError, match="above the horizon"):
            TruncatedPoly(order, horizon, terms)
        return
    p = TruncatedPoly(order, horizon, terms)
    assert p.coeffs == {e: c for e, c in terms.items() if c}


def _random_rational_poly(rng: random.Random, order: WeightedOrder,
                          horizon: int) -> dict:
    """exponent -> nonzero Fraction, every term at or below ``horizon``."""
    terms = {}
    for _ in range(rng.randint(0, 6)):
        e = (rng.randint(0, 7), rng.randint(0, 5))
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 9))
        if order.degree(e) <= horizon and c:
            terms[e] = c
    return terms


def _cut(order: WeightedOrder, terms: dict, horizon: int) -> dict:
    return {e: c for e, c in terms.items() if c and order.degree(e) <= horizon}


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_integer_arithmetic_is_the_fraction_arithmetic(seed):
    """The numerators over one denominator give, through ``coeffs``, exactly
    the coefficients of plain dict-of-``Fraction`` arithmetic, cut at the
    smaller horizon; and a scale that comes back to 1 gives an equal
    polynomial over a different denominator."""
    rng = random.Random(seed)
    order = WeightedOrder(*rng.choice([(2, 3), (3, 5), (4, 7)]))
    hp, hq = rng.randint(10, 60), rng.randint(10, 60)
    tp, tq = _random_rational_poly(rng, order, hp), _random_rational_poly(rng, order, hq)
    p, q = TruncatedPoly(order, hp, tp), TruncatedPoly(order, hq, tq)
    h = min(hp, hq)

    total, diff, prod = dict(_cut(order, tp, h)), dict(_cut(order, tp, h)), {}
    for e, c in _cut(order, tq, h).items():
        total[e] = total.get(e, 0) + c
        diff[e] = diff.get(e, 0) - c
    for (a1, b1), c1 in tp.items():
        for (a2, b2), c2 in tq.items():
            e = (a1 + a2, b1 + b2)
            prod[e] = prod.get(e, 0) + c1 * c2
    assert (p + q).coeffs == _cut(order, total, h)
    assert (p - q).coeffs == _cut(order, diff, h)
    assert (p * q).coeffs == _cut(order, prod, h)

    c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 4))
    da, db = rng.randint(0, 3), rng.randint(0, 2)
    shifted = {(a + da, b + db): c * v for (a, b), v in tp.items()}
    assert p.mul_monomial(c, (da, db)).coeffs == _cut(order, shifted, hp)

    cut = rng.randint(0, hp)
    px, py = p.partials(cut)
    assert px.coeffs == _cut(order, {(a - 1, b): a * v for (a, b), v in tp.items() if a}, cut)
    assert py.coeffs == _cut(order, {(a, b - 1): b * v for (a, b), v in tp.items() if b}, cut)
    assert (px.horizon, py.horizon) == (cut, cut)

    back = p.scale(Rat(2, 3)).scale(Rat(3, 2))
    assert back == p and back.coeffs == p.coeffs
    if p.terms:
        assert back.den == 6 * p.den
