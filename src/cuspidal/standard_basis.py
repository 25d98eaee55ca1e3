"""Standard bases of ideals of truncated polynomials under the weighted order.

Reduction here is leading-term cancellation: a step replaces g by
r = g - (lc(g)/lc(b)) * x^(lp(g)-lp(b)) * b, whose leading power is strictly
larger in the weighted order.  Because only finitely many exponents live below
the horizon, iterated reduction terminates: either with a nonzero
irreducible remainder or with every remaining term pushed beyond the horizon
(``FinalReduction.vanished``, which callers treat as ideal membership).

The steps run fraction-free on the integer numerators of ``TruncatedPoly``,
over its one positive denominator.  With c and c_b the leading numerators of
g and b and gamma = gcd(c, c_b), the step sets the numerators to
(|c_b|/gamma) * tail(g) - (+-c/gamma) * x^(lp(g)-lp(b)) * tail(b), the sign
that of c_b, and multiplies the denominator by |c_b|/gamma: the step above,
exactly.  The subtraction is ``poly._subtract_shifted``, the program's one
kernel for adding a scaled, shifted map into another.  ``reduce_step`` and
``final_reduction`` serve ``buchberger``; reduction modulo f alone runs
``differentials._reduce_by_f`` on the same kernel.  ``buchberger`` drops
the denominator and the content of each polynomial it keeps, so its basis
polynomials are positive multiples of those of the same run with rational
steps, with the same leading powers.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import NamedTuple, Sequence

from .poly import Exponent, TruncatedPoly, _subtract_shifted


class HorizonExhausted(RuntimeError):
    """A basis computation produced data that cannot be classified below the horizon."""


class FinalReduction(NamedTuple):
    remainder: TruncatedPoly

    @property
    def vanished(self) -> bool:
        """Every term was pushed beyond the horizon: ideal membership."""
        return not self.remainder.terms


def reduce_step(g: TruncatedPoly, basis: Sequence[TruncatedPoly]) -> TruncatedPoly | None:
    """One reduction step of g against the most specific applicable basis
    element: the largest dividing leading power, ties to the earliest.

    Returns the reduced polynomial, cut at the smaller horizon, or None when
    g is zero or no basis leading power divides lp(g).  g is left as it is.
    """
    lead = g.lead
    if lead is None:
        return None
    d, a = lead
    n = g.order.n
    mb = d - n * a  # m times the y-exponent of lp(g)
    divisor = top = None
    for p in basis:
        if (pl := p.lead) is not None and pl[1] <= a and pl[0] - n * pl[1] <= mb \
                and (top is None or pl > top):
            divisor, top = p, pl
    if divisor is None:
        return None
    terms = g.terms
    c, bc = terms[lead], divisor.terms[top]
    gam = gcd(c, bc)
    scale, q = (bc // gam, c // gam) if bc > 0 else (-bc // gam, -c // gam)
    h = divisor.horizon
    if h < g.horizon:
        terms = {k: v for k, v in terms.items() if k[0] <= h}
    else:
        h = g.horizon
    r = {k: v * scale for k, v in terms.items()} if scale != 1 else terms.copy()
    r.pop(lead, None)
    _subtract_shifted(r, q, divisor.tail, d - top[0], a - top[1], h)
    return TruncatedPoly._raw(g.order, h, r, g.den * scale)


def final_reduction(g: TruncatedPoly, basis: Sequence[TruncatedPoly]) -> FinalReduction:
    """Iterate reduce_step until irreducible or empty below the horizon."""
    while (nxt := reduce_step(g, basis)) is not None:
        g = nxt
    return FinalReduction(g)


def _lcm_key(k1: tuple, k2: tuple, n: int, m: int) -> tuple:
    """The key (weighted degree, x-exponent) of the lcm of the monomials
    of the keys k1 and k2 in the order of weights (n, m)."""
    (d1, a1), (d2, a2) = k1, k2
    la = max(a1, a2)
    return n * la + m * max((d1 - n * a1) // m, (d2 - n * a2) // m), la


def s_process_min(g1: TruncatedPoly, g2: TruncatedPoly) -> TruncatedPoly:
    """Minimal S-process: cancel the leading terms over lcm(lp(g1), lp(g2)).

    That is g1 * x^s1 - (lc(g1)/lc(g2)) * g2 * x^s2, exactly: with
    g = gcd(c1, c2) of the leading numerators, the numerators are
    (|c2|/g) * x^s1 * tail(g1) - (+-c1/g) * x^s2 * tail(g2), the sign that
    of c2, over the denominator den(g1) * |c2|/g, cut at the smaller
    horizon.
    """
    if g1.lead is None or g2.lead is None:
        raise ValueError("S-process needs nonzero polynomials")
    (d1, a1), (d2, a2) = g1.lead, g2.lead
    c1, c2 = g1.terms[g1.lead], g2.terms[g2.lead]
    g = gcd(c1, c2)
    p, q = (c2 // g, c1 // g) if c2 > 0 else (-c2 // g, -c1 // g)
    ld, la = _lcm_key(g1.lead, g2.lead, g1.order.n, g1.order.m)
    h = min(g1.horizon, g2.horizon)
    r = {}
    _subtract_shifted(r, -p, g1.tail, ld - d1, la - a1, h)
    _subtract_shifted(r, q, g2.tail, ld - d2, la - a2, h)
    return TruncatedPoly._raw(g1.order, h, r, g1.den * p)


@dataclass(frozen=True)
class StandardBasis:
    """Minimal standard basis, sorted by increasing x-exponent of leading powers.

    The leading powers (a_1, b_1), ..., (a_k, b_k) form a strict staircase:
    a_i < a_{i+1} and b_i > b_{i+1}, which ``__post_init__`` checks in one
    pass over adjacent pairs.  That is the same as an antichain under
    componentwise divisibility sorted by a: for i < j, a_i < a_j and
    b_i > b_j mean neither power divides the other, and an antichain sorted
    by a repeats no a, so its b strictly falls.  Only ``leading_power`` is
    read: ``buchberger`` keeps primitive integer polynomials, and
    ``delorme``'s reductions keep their denominators.
    """

    polys: tuple[TruncatedPoly, ...]

    def __post_init__(self) -> None:
        lps = self.leading_powers
        if None in lps:
            raise ValueError("zero polynomial in a standard basis")
        for (a1, b1), (a2, b2) in zip(lps, lps[1:]):
            if a1 >= a2 or b1 <= b2:
                raise ValueError(f"leading powers not a strict staircase: {(a1, b1)}, {(a2, b2)}")

    @cached_property
    def leading_powers(self) -> tuple[Exponent, ...]:
        """Built on the first read, which ``__post_init__`` makes."""
        return tuple(p.leading_power for p in self.polys)


def buchberger(gens: Sequence[TruncatedPoly]) -> StandardBasis:
    """Standard basis of the ideal generated by ``gens``, valid below the horizon.

    FIFO processing of S-process pairs; a final reduction that vanishes to the
    horizon counts as membership.  A pair whose leading powers have their
    lcm above the horizon is passed by: every term of a tail has at least
    its leading degree, so every term of the S-process has at least the
    lcm's degree, and the S-process is 0 at the horizon.  The result is
    made minimal in one pass: sorted by leading power (a, b), p is kept
    when its b lies below the last kept one's, the running minimum.  That
    keeps exactly the leading powers that no other divides, of equal ones
    the first in basis order (the sort is stable), and leaves them in
    x-order, the strict staircase that ``StandardBasis`` checks.
    The generators must share one horizon: then every new generator, a
    remainder at that horizon, leads at or below it.

    The run is fraction-free: each generator and each remainder that joins
    the basis is replaced by its ``primitive`` multiple, so the S-processes
    and reduction steps work on integers of content 1.  A nonzero scalar
    changes neither a leading power, nor the divisor a step takes, nor
    whether a reduction vanishes, and the steps are exact.  So, step by
    step, the run processes the pairs, takes the divisors and keeps the
    leading powers of the same run with rational steps, and each returned
    polynomial is a positive multiple of that run's, with integer
    coefficients of content 1 over the denominator 1.  No ``Rat`` is built.
    """
    horizons = {g.horizon for g in gens}
    if len(horizons) > 1:
        raise ValueError(f"generators must share one horizon, got {sorted(horizons)}")
    basis = [g.primitive() for g in gens if g.terms]
    if not basis:
        raise ValueError("no nonzero generators")
    (h,) = horizons
    n, m = basis[0].order.n, basis[0].order.m
    queue: deque[tuple[int, int]] = deque(
        (i, j) for i in range(len(basis)) for j in range(i + 1, len(basis)))
    while queue:
        i, j = queue.popleft()
        if _lcm_key(basis[i].lead, basis[j].lead, n, m)[0] > h:
            continue
        red = final_reduction(s_process_min(basis[i], basis[j]), basis)
        if red.vanished:
            continue
        basis.append(red.remainder.primitive())
        queue.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    # minimality: in x-order, keep p when its y-exponent falls below the last kept one's
    kept = []
    for p in sorted(basis, key=lambda p: p.leading_power):
        if not kept or p.leading_power[1] < kept[-1].leading_power[1]:
            kept.append(p)
    return StandardBasis(tuple(kept))


def codimension(basis: StandardBasis) -> int | None:
    """Vector-space codimension of the staircase ideal; None when infinite.

    The leading powers (a_1,b_1),...,(a_j,b_j) form the strict staircase
    that ``StandardBasis`` checks, a rising and b falling.  The codimension
    is finite iff a_1 = 0 and b_j = 0, and then equals
    sum_{i>=2} b_{i-1} * (a_i - a_{i-1}), the columns a_{i-1} <= a < a_i
    of height b_{i-1} each.
    """
    lps = basis.leading_powers
    if lps[0][0] != 0 or lps[-1][1] != 0:
        return None
    total = 0
    for i in range(1, len(lps)):
        total += lps[i - 1][1] * (lps[i][0] - lps[i - 1][0])
    return total

