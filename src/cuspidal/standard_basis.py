"""Standard bases of ideals of truncated polynomials under the weighted order.

Reduction here is leading-term cancellation: a step replaces g by
r = g - (lc(g)/lc(b)) * x^(lp(g)-lp(b)) * b, whose leading power is strictly
larger in the weighted order.  Because only finitely many exponents live below
the horizon, iterated reduction terminates: either with a nonzero
irreducible remainder or with every remaining term pushed beyond the horizon
(``FinalReduction.vanished``, which callers treat as ideal membership).
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .poly import Exponent, TruncatedPoly, divides


class HorizonExhausted(RuntimeError):
    """A basis computation produced data that cannot be classified below the horizon."""


@dataclass(frozen=True)
class FinalReduction:
    poly: TruncatedPoly

    @property
    def vanished(self) -> bool:
        """Every term was pushed beyond the horizon: ideal membership."""
        return self.poly.is_zero


def reduce_step(g: TruncatedPoly, basis: Sequence[TruncatedPoly]) -> TruncatedPoly | None:
    """One reduction step of g against the most specific applicable basis
    element: the largest dividing leading power, ties to the earliest.

    Returns the reduced polynomial, or None when g is zero or no basis
    leading power divides lp(g).
    """
    lead = g.leading
    if lead is None:
        return None
    lp, lc = lead
    eligible = [b for b in basis if b.terms and divides(b.leading_power, lp)]
    if not eligible:
        return None
    b = max(eligible, key=lambda p: g.order.key(p.leading_power))
    bp, bc = b.leading
    shift = (lp[0] - bp[0], lp[1] - bp[1])
    return g - b.mul_monomial(lc / bc, shift)


def final_reduction(g: TruncatedPoly, basis: Sequence[TruncatedPoly]) -> FinalReduction:
    """Iterate reduce_step until irreducible or empty below the horizon."""
    current = g
    while True:
        nxt = reduce_step(current, basis)
        if nxt is None:
            return FinalReduction(current)
        current = nxt


def s_process_min(g1: TruncatedPoly, g2: TruncatedPoly) -> TruncatedPoly:
    """Minimal S-process: cancel the leading terms over lcm(lp(g1), lp(g2))."""
    if g1.is_zero or g2.is_zero:
        raise ValueError("S-process needs nonzero polynomials")
    (a1, b1), c1 = g1.leading
    (a2, b2), c2 = g2.leading
    lcm = (max(a1, a2), max(b1, b2))
    left = g1.mul_monomial(1, (lcm[0] - a1, lcm[1] - b1))
    right = g2.mul_monomial(c1 / c2, (lcm[0] - a2, lcm[1] - b2))
    return left - right


@dataclass(frozen=True)
class StandardBasis:
    """Minimal standard basis, sorted by increasing x-exponent of leading powers.

    The leading powers form an antichain under componentwise divisibility, so
    sorting by increasing a is the same as sorting by decreasing b.
    """

    polys: tuple[TruncatedPoly, ...]

    def __post_init__(self) -> None:
        lps = [p.leading_power for p in self.polys]
        if any(lp is None for lp in lps):
            raise ValueError("zero polynomial in a standard basis")
        for i, e1 in enumerate(lps):
            for j, e2 in enumerate(lps):
                if i != j and divides(e1, e2):
                    raise ValueError(f"leading powers not an antichain: {e1} | {e2}")
        if [lp[0] for lp in lps] != sorted(lp[0] for lp in lps):
            raise ValueError("basis not sorted by increasing x-exponent")

    @property
    def leading_powers(self) -> tuple[Exponent, ...]:
        return tuple(p.leading_power for p in self.polys)

    def __len__(self) -> int:
        return len(self.polys)

    def __iter__(self):
        return iter(self.polys)


def _as_standard_basis(polys: Sequence[TruncatedPoly]) -> StandardBasis:
    return StandardBasis(tuple(sorted(polys, key=lambda p: p.leading_power[0])))


def buchberger(gens: Sequence[TruncatedPoly]) -> StandardBasis:
    """Standard basis of the ideal generated by ``gens``, valid below the horizon.

    FIFO processing of S-process pairs; a final reduction that vanishes to the
    horizon counts as membership.  The result is post-processed to minimality
    by discarding generators whose leading power is divisible by another's.
    The generators must share one horizon: then every new generator, a
    remainder at that horizon, leads at or below it.
    """
    horizons = {g.horizon for g in gens}
    if len(horizons) > 1:
        raise ValueError(f"generators must share one horizon, got {sorted(horizons)}")
    basis = [g for g in gens if not g.is_zero]
    if not basis:
        raise ValueError("no nonzero generators")
    order = basis[0].order
    queue: deque[tuple[int, int]] = deque(
        (i, j) for i in range(len(basis)) for j in range(i + 1, len(basis)))
    while queue:
        i, j = queue.popleft()
        s = s_process_min(basis[i], basis[j])
        red = final_reduction(s, basis)
        if red.vanished:
            continue
        basis.append(red.poly)
        new = len(basis) - 1
        queue.extend((k, new) for k in range(new))
    # minimality: keep only leading powers not divisible by a kept one
    kept: list[TruncatedPoly] = []
    for p in sorted(basis, key=lambda q: order.key(q.leading_power)):
        lp = p.leading_power
        if not any(divides(k.leading_power, lp) for k in kept):
            kept.append(p)
    return _as_standard_basis(kept)


def codimension(basis: StandardBasis) -> int | None:
    """Vector-space codimension of the staircase ideal; None when infinite.

    With leading powers (a_1,b_1),...,(a_j,b_j) sorted by increasing a, the
    codimension is finite iff a_1 = 0 and b_j = 0, and then equals
    sum_{i>=2} b_{i-1} * (a_i - a_{i-1}).
    """
    lps = basis.leading_powers
    if lps[0][0] != 0 or lps[-1][1] != 0:
        return None
    total = 0
    for i in range(1, len(lps)):
        total += lps[i - 1][1] * (lps[i][0] - lps[i - 1][0])
    return total

