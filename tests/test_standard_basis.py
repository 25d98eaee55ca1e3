"""Local reduction, Buchberger completion, and the staircase codimension."""
from __future__ import annotations

import random

import pytest

from cuspidal.poly import TruncatedPoly, WeightedOrder
from cuspidal.rationals import Rat
from cuspidal.standard_basis import (
    StandardBasis,
    buchberger,
    codimension,
    final_reduction,
    reduce_step,
    s_process_min,
)

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
    assert red.poly.is_zero


def test_final_reduction_single_divisor():
    # y^4 = (y^4 + x^5) - x^5: one step, remainder -x^5
    f = _p({(0, 4): 1, (5, 0): 1})
    red = final_reduction(_p({(0, 4): 1}), [f])
    assert not red.vanished
    assert red.poly == _p({(5, 0): -1})


def test_final_reduction_remainder_not_divisible():
    f = _p({(0, 4): 1, (5, 0): 1})
    g = _p({(0, 5): 1, (2, 1): 1})
    red = final_reduction(g, [f])
    assert not red.vanished
    lp = red.poly.leading_power
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


def test_buchberger_rejects_mixed_horizons():
    """Over mixed horizons a remainder of two high-horizon generators could
    lead past the lowest horizon, where no generator is trustworthy."""
    gens = [TruncatedPoly(O45, 12, {(0, 2): 1}), _p({(4, 0): 1, (1, 3): 1})]
    with pytest.raises(ValueError, match=r"share one horizon, got \[12, 80\]"):
        buchberger(gens)


def test_standard_basis_rejects_nested_leading_powers():
    with pytest.raises(ValueError):
        StandardBasis((_p({(0, 3): 1}), _p({(1, 3): 1})))


def test_codimension_infinite_without_pure_powers():
    basis = StandardBasis((_p({(1, 2): 1}),))
    assert codimension(basis) is None


def test_codimension_quasihomogeneous_milnor():
    # jacobian staircase of x^5 + y^4: codimension 4*3 = 12
    basis = StandardBasis((_p({(0, 3): 1}), _p({(4, 0): 1})))
    assert codimension(basis) == 12


def _staircase(rng: random.Random):
    """Random finite-codimension antichain: a's strictly increasing from 0,
    b's strictly decreasing to 0."""
    k = rng.randint(1, 5)
    a_vals = sorted(rng.sample(range(0, 12), k))
    a_vals[0] = 0
    b_vals = sorted(rng.sample(range(0, 12), k), reverse=True)
    b_vals[-1] = 0
    if len(set(a_vals)) < k or len(set(b_vals)) < k:
        return None
    return list(zip(a_vals, b_vals))


def _brute_force_codim(lps):
    a_max = max(a for a, b in lps)
    b_max = max(b for a, b in lps)
    count = 0
    for a in range(a_max + 1):
        for b in range(b_max + 1):
            if not any(c <= a and d <= b for c, d in lps):
                count += 1
    return count


@pytest.mark.parametrize("seed", range(25))
def test_codimension_matches_lattice_count(seed):
    rng = random.Random(seed)
    lps = None
    while lps is None:
        lps = _staircase(rng)
    order = WeightedOrder(4, 5)
    polys = tuple(TruncatedPoly.monomial(order, Rat(1), e, horizon=200) for e in lps)
    assert codimension(StandardBasis(polys)) == _brute_force_codim(lps)
