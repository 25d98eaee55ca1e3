"""Local reduction, Buchberger completion, and the staircase codimension."""
from __future__ import annotations

import random
from collections import deque
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from cuspidal import CurveEquation, Semigroup
from cuspidal.jacobian import jacobian_generators
from cuspidal.poly import TruncatedPoly, WeightedOrder
from cuspidal.rationals import Rat
from cuspidal.standard_basis import (
    StandardBasis,
    _lcm_key,
    buchberger,
    codimension,
    final_reduction,
    reduce_step,
    s_process_min,
)

from cusp_testkit import (FractionPoly, adapted_curves, coprime_pairs, divides,
                          fraction_reduction, fraction_step, lattice_count, nice_curves,
                          random_staircase)

O45 = WeightedOrder(4, 5)


def _p(terms):
    return TruncatedPoly(O45, 80, terms)


def test_reduce_step_none_when_irreducible():
    g = _p({(1, 0): 1})
    basis = [_p({(0, 4): 1, (5, 0): 1})]
    assert reduce_step(g, basis) is None


def test_final_reduction_vanishes_on_member():
    f = _p({(0, 4): 1, (5, 0): 1})
    red = final_reduction(f.mul_monomial(Rat(3), (1, 1)), [f])
    assert red.vanished
    assert not red.remainder


def test_final_reduction_single_divisor():
    # y^4 = (y^4 + x^5) - x^5: one step, remainder -x^5
    f = _p({(0, 4): 1, (5, 0): 1})
    red = final_reduction(_p({(0, 4): 1}), [f])
    assert not red.vanished
    assert red.remainder == _p({(5, 0): -1})


def test_final_reduction_remainder_not_divisible():
    f = _p({(0, 4): 1, (5, 0): 1})
    g = _p({(0, 5): 1, (2, 1): 1})
    red = final_reduction(g, [f])
    assert not red.vanished
    lp = red.remainder.leading_power
    assert not (lp[0] >= 0 and lp[1] >= 4)


def test_s_process_cancels_leading_terms():
    g1 = _p({(0, 4): 1, (5, 0): 1})
    g2 = _p({(2, 1): 3, (4, 0): 1})
    s = s_process_min(g1, g2)
    # lcm of (0,4) and (2,1) is (2,4); both contributions cancel there
    assert s.leading_power != (2, 4)
    assert s == g1.mul_monomial(Rat(1), (2, 0)) - g2.mul_monomial(Rat(1, 3), (0, 3))


def test_buchberger_monomial_ideal_is_complete():
    gens = [_p({(0, 3): 1}), _p({(4, 0): 1})]
    basis = buchberger(gens)
    assert set(basis.leading_powers) == {(0, 3), (4, 0)}


def test_buchberger_drops_redundant_generator():
    f = _p({(0, 4): 1, (5, 0): 1})
    gens = [f, _p({(0, 3): 1}), _p({(4, 0): 5})]
    basis = buchberger(gens)
    assert set(basis.leading_powers) == {(0, 3), (4, 0)}


def test_buchberger_keeps_the_first_of_one_y_exponent():
    """Of the generators that lead at y^3 or x^2*y^3, only the first to lead
    at y^3 stays: x^2*y^3 shares its y-exponent, and 3*y^3 its leading
    power.  Their S-processes all vanish."""
    gens = [_p({(0, 3): 1, (1, 3): 1}), _p({(2, 3): 1}), _p({(0, 3): 3}), _p({(4, 0): 1})]
    basis = buchberger(gens)
    assert basis.polys == (gens[0], gens[3])


def test_buchberger_rejects_mixed_horizons():
    """Over mixed horizons a remainder of two high-horizon generators could
    lead past the lowest horizon, where no generator is trustworthy."""
    gens = [TruncatedPoly(O45, 12, {(0, 2): 1}), _p({(4, 0): 1, (1, 3): 1})]
    with pytest.raises(ValueError, match=r"share one horizon, got \[12, 80\]"):
        buchberger(gens)


def test_standard_basis_rejects_nested_leading_powers():
    """The leading powers must rise strictly in a and fall strictly in b,
    pair by adjacent pair."""
    for lps in ([(0, 3), (1, 3)],            # one b: y^3 divides x*y^3
                [(0, 5), (0, 3)],            # one a: y^3 divides y^5
                [(0, 3), (0, 3)],            # one leading power twice
                [(4, 0), (0, 3)],            # an antichain out of x-order
                [(0, 3), (2, 1), (1, 2)]):   # out of x-order at the last pair only
        with pytest.raises(ValueError, match="not a strict staircase"):
            StandardBasis(tuple(_p({e: 1}) for e in lps))


def test_codimension_infinite_without_pure_powers():
    basis = StandardBasis((_p({(1, 2): 1}),))
    assert codimension(basis) is None


def test_codimension_quasihomogeneous_milnor():
    # jacobian staircase of x^5 + y^4: codimension 4*3 = 12
    basis = StandardBasis((_p({(0, 3): 1}), _p({(4, 0): 1})))
    assert codimension(basis) == 12


@pytest.mark.parametrize("seed", range(25))
def test_codimension_matches_lattice_count(seed):
    lps = random_staircase(random.Random(seed), 5, 12)
    order = WeightedOrder(4, 5)
    polys = tuple(TruncatedPoly.monomial(order, Rat(1), e, horizon=200) for e in lps)
    assert codimension(StandardBasis(polys)) == lattice_count(lps)


def _fraction_s_process(g1: FractionPoly, g2: FractionPoly) -> FractionPoly:
    """g1 * x^s1 - (lc(g1)/lc(g2)) * g2 * x^s2 over lcm(lp(g1), lp(g2)), over
    ``Fraction`` coefficients."""
    (a1, b1), c1 = g1.leading
    (a2, b2), c2 = g2.leading
    la, lb = max(a1, a2), max(b1, b2)
    return g1.shifted(1, (la - a1, lb - b1)).minus_shifted(c1 / c2, (la - a2, lb - b2), g2)


def _reference_buchberger(gens):
    """Buchberger over ``Fraction`` coefficients on the ``FractionPoly`` of
    ``gens``: FIFO pairs, the minimal S-process, final reduction against the
    growing basis, and the same minimality pass; the kept polynomials
    sorted by x-exponent."""
    basis = [FractionPoly.of(g) for g in gens if g]
    order = basis[0].order
    queue = deque((i, j) for i in range(len(basis)) for j in range(i + 1, len(basis)))
    while queue:
        i, j = queue.popleft()
        remainder, _ = fraction_reduction(_fraction_s_process(basis[i], basis[j]), basis)
        if not remainder.coeffs:
            continue
        basis.append(remainder)
        queue.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    kept = []
    for p in sorted(basis, key=lambda q: (order.degree(q.leading[0]), q.leading[0][0])):
        if not any(divides(k.leading[0], p.leading[0]) for k in kept):
            kept.append(p)
    return sorted(kept, key=lambda p: p.leading[0][0])


def _assert_matches_reference(gens):
    """``buchberger`` on ``gens`` has the reference's leading powers, and
    each of its polynomials is a positive rational multiple of the
    reference's, at the same horizon, with integer coefficients of content
    1."""
    got = buchberger(gens)
    want = _reference_buchberger(gens)
    assert got.leading_powers == tuple(p.leading[0] for p in want)
    for p, q in zip(got.polys, want):
        coeffs = p.coeffs
        assert p.den == 1 and all(c.denominator == 1 for c in coeffs.values())
        assert gcd(*(c.numerator for c in coeffs.values())) == 1
        ratio = coeffs[p.leading_power] / q.leading[1]
        assert ratio > 0
        assert (p.horizon, coeffs) == (q.horizon, {e: ratio * c for e, c in q.coeffs.items()})


def _jacobian_generators(eq):
    h = eq.sg.jacobian_horizon
    return [p.truncated(h) for p in (eq.f, *eq.partials)]


def test_buchberger_matches_the_reference_on_jacobian_generators():
    """(f, f_x, f_y) and the Euler generators (g, f_x, f_y) of
    ``jacobian_generators`` at H_J for every coprime pair with n <= 7,
    m <= 13: the bare curve, nice curves at z-densities 0.3 and 1, and
    adapted curves with mu != 1 and denominators up to 97.  Both runs match
    the reference, and both have the same leading powers; g vanishes at H_J
    exactly when f has no term of degree in (nm, H_J], as on the bare
    curves."""
    bare = [CurveEquation.nice(Semigroup(n, m)) for n, m in coprime_pairs(range(2, 8), 13)]
    adapted = list(adapted_curves())
    assert all(eq.mu != 1 for eq in adapted)
    assert max(c.denominator for eq in adapted for c in eq.f.coeffs.values()) == 97
    for eq in [*bare, *nice_curves(28, densities=(0.3, 1)), *adapted]:
        plain = _jacobian_generators(eq)
        euler = jacobian_generators(eq, eq.sg.jacobian_horizon)
        _assert_matches_reference(plain)
        _assert_matches_reference(euler)
        assert buchberger(euler).leading_powers == buchberger(plain).leading_powers
        h, nm = eq.sg.jacobian_horizon, eq.sg.n * eq.sg.m
        assert (not euler[0]) == all(d == nm or d > h for d, _ in eq.f.terms)


def test_pairs_with_lcm_above_the_horizon_have_a_zero_s_process():
    """``buchberger`` passes by a pair whose leading powers have their lcm
    above the horizon; on the Euler generators of the curves above, the
    S-process of every such pair is 0, and most pairs are such pairs."""
    skipped = kept = 0
    for eq in [*nice_curves(28, densities=(0.3, 1)), *adapted_curves()]:
        gens = [g.primitive() for g in jacobian_generators(eq, eq.sg.jacobian_horizon) if g.terms]
        n, m, h = eq.sg.n, eq.sg.m, eq.sg.jacobian_horizon
        for i, g1 in enumerate(gens):
            for g2 in gens[i + 1:]:
                if _lcm_key(g1.lead, g2.lead, n, m)[0] > h:
                    skipped += 1
                    assert not s_process_min(g1, g2)
                else:
                    kept += 1
    assert skipped > kept > 0


@st.composite
def _rational_ideals(draw):
    """Two or three generators in WeightedOrder(4, 5) at one horizon, each
    with four to eight rational terms and no constant term, so that the
    ideal is proper and reduction steps are common."""
    horizon = draw(st.integers(24, 40))
    monomials = [(a, b) for a in range(horizon // 4 + 1) for b in range(horizon // 5 + 1)
                 if 0 < O45.degree((a, b)) <= horizon]
    coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=12).filter(bool)
    gens = draw(st.lists(st.dictionaries(st.sampled_from(monomials), coeffs,
                                         min_size=4, max_size=8),
                         min_size=2, max_size=3))
    return [TruncatedPoly(O45, horizon, terms) for terms in gens]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_rational_ideals())
def test_buchberger_matches_the_reference_on_random_ideals(gens):
    _assert_matches_reference(gens)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_rational_ideals(), st.integers(0, 2), st.integers(0, 10))
def test_steps_are_exact(gens, which, cut):
    """``s_process_min``, ``reduce_step`` and ``final_reduction`` give the
    polynomials of the ``Fraction`` steps on the ``coeffs`` exactly, in as
    many steps, and leave their arguments as they were.  One divisor is cut
    ``cut`` degrees below the others, so that a step also cuts at the
    smaller horizon."""
    basis = list(gens)
    which %= len(basis)
    low = basis[which].horizon - cut
    basis[which] = basis[which].truncated(low)
    if not basis[which]:
        return
    refs = [FractionPoly.of(b) for b in basis]
    before = [(dict(b.terms), b.den) for b in basis]
    s = s_process_min(basis[0], basis[1])
    want_s = _fraction_s_process(refs[0], refs[1])
    assert FractionPoly.of(s) == want_s
    assert s.den > 0
    remainder, steps = fraction_reduction(want_s, refs)
    seen, g = 0, s
    while (nxt := reduce_step(g, basis)) is not None:
        assert FractionPoly.of(nxt) == fraction_step(FractionPoly.of(g), refs)
        g, seen = nxt, seen + 1
    assert seen == steps
    red = final_reduction(s, basis)
    assert FractionPoly.of(red.remainder) == remainder
    assert red.vanished == (not remainder.coeffs)
    assert [(b.terms, b.den) for b in basis] == before


def test_partials_refuse_a_higher_horizon():
    """The horizon check lives in ``TruncatedPoly.partials``, so every
    caller, ``delorme`` and ``jacobian_generators`` alike, passes through
    it."""
    eq = CurveEquation.nice(Semigroup(4, 9), {1: Rat(1)})
    h = eq.sg.branch_horizon
    with pytest.raises(ValueError, match=f"cannot raise the horizon {h} to {h + 1}"):
        eq.f.partials(h + 1)
    assert [p.horizon for p in eq.f.partials(h)] == [h, h]


def test_numerators_over_one_denominator():
    """A polynomial is integer numerators keyed by (weighted degree,
    x-exponent) over the lcm of its denominators; ``coeffs`` reads it back,
    and ``primitive`` is the positive multiple of content 1 over 1."""
    p = _p({(0, 4): Rat(3, 4), (5, 0): Rat(-5, 6), (2, 3): 7})
    assert p.den == 12
    assert p.terms == {(20, 0): 9, (20, 5): -10, (23, 2): 84}
    assert p.coeffs == {(0, 4): Rat(3, 4), (5, 0): Rat(-5, 6), (2, 3): 7}
    assert p.leading_power == (0, 4) and p.lead == (20, 0)
    assert p.tail == (((20, 5), -10), ((23, 2), 84))
    r = _p({(0, 4): Rat(-3, 4), (5, 0): Rat(3, 2)}).primitive()
    assert (r.terms, r.den) == ({(20, 0): -1, (20, 5): 2}, 1)
