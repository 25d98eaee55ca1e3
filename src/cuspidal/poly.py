"""Sparse bivariate polynomials truncated at a weighted-degree horizon.

Monomials x^a y^b are ordered by the local weighted order attached to a
coprime weight pair (n, m) with 2 <= n < m: compare n*a + m*b first, and
break ties by the smaller x-exponent.  The *leading* term of a polynomial is
its minimal term in this order (local convention), and the leading power of 0
is treated as +infinity by returning ``None``.

A :class:`TruncatedPoly` is exact on integers: numerators over one positive
denominator, each keyed by its monomial's (weighted degree, x-exponent), so
the least key is the leading term; ``WeightedOrder.exponent`` reads a key
back as its monomial.  The arithmetic works on the numerators and builds no
``Rat``; ``coeffs`` reads the polynomial as exponent -> ``Rat``.  It stores
only terms of weighted degree <= ``horizon``; it refuses an input term above
it (``truncated`` is the one way to drop terms), and every arithmetic
operation discards generated terms beyond the smaller of the operand
horizons.  Instances are treated as immutable: no method changes one, and
the kernels build new ones.

Each operation on numerator maps has one kernel, kept at the end of this
module: ``_subtract_shifted`` adds a scaled, shifted map into another in
place (``_add_shifted`` sets up the scales of a sum), and ``_add_products``
adds a scaled product.  ``TruncatedPoly``'s sum, difference and product run
them, and so do the reductions of ``standard_basis`` and Delorme's run,
replay and vector fields in ``differentials``.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from typing import Mapping

from .rationals import Rat, rat

Exponent = tuple[int, int]
Key = tuple[int, int]


@dataclass(frozen=True)
class WeightedOrder:
    """Weighted local monomial order for a coprime pair 2 <= n < m."""

    n: int
    m: int

    def __post_init__(self) -> None:
        if not (2 <= self.n < self.m):
            raise ValueError(f"need 2 <= n < m, got ({self.n}, {self.m})")
        if gcd(self.n, self.m) != 1:
            raise ValueError(f"weights must be coprime, got ({self.n}, {self.m})")

    def degree(self, e: Exponent) -> int:
        return self.n * e[0] + self.m * e[1]

    def exponent(self, k: Key) -> Exponent:
        """The monomial x^a y^b of the key k = (na + mb, a), its weighted
        degree and x-exponent; keys ascend from the leading (least)
        monomial upward."""
        d, a = k
        return (a, (d - self.n * a) // self.m)


def divides(e1: Exponent, e2: Exponent) -> bool:
    """x^e1 divides x^e2 (componentwise <=)."""
    return e1[0] <= e2[0] and e1[1] <= e2[1]


class TruncatedPoly:
    """Sparse polynomial, truncated at a weighted-degree horizon.

    The polynomial is ``terms / den``: ``terms`` maps the key (weighted
    degree, x-exponent) of each monomial to its nonzero integer numerator,
    and ``den`` is a positive integer, not always the least one, so ``==``
    compares values.  ``lead`` is the least key, None for 0, and ``not p``
    is the zero test.
    """

    __slots__ = ("order", "horizon", "terms", "den", "lead", "_tail")

    def __init__(self, order: WeightedOrder, horizon: int,
                 terms: Mapping[Exponent, Rat] | None = None):
        """The polynomial of ``terms``, exponent -> exact rational, over the
        lcm of their denominators; an exponent is a pair of ints >= 0."""
        clean: dict[Key, Rat] = {}
        if terms:
            n, m = order.n, order.m
            for e, c in terms.items():
                a, b = e
                if type(a) is not int or type(b) is not int:
                    raise ValueError(f"exponent {e} is not a pair of ints")
                if a < 0 or b < 0:
                    raise ValueError(f"negative exponent {e}")
                d = n * a + m * b
                if d > horizon:
                    raise ValueError(f"term {e} has weighted degree {d} "
                                     f"above the horizon {horizon}")
                c = rat(c)
                if c:
                    clean[(d, a)] = c
        den = lcm(*(c.denominator for c in clean.values()))
        _fill(self, order, horizon,
              {k: c.numerator * (den // c.denominator) for k, c in clean.items()}, den)

    @staticmethod
    def _raw(order: WeightedOrder, horizon: int, terms: dict[Key, int],
             den: int = 1) -> "TruncatedPoly":
        """``terms / den`` as given, unchecked: the kernels' constructor.  The
        caller keeps every key at or below the horizon, drops zero
        numerators, and hands over ``terms``, which nothing may change after."""
        p = object.__new__(TruncatedPoly)
        _fill(p, order, horizon, terms, den)
        return p

    # -- constructors ---------------------------------------------------

    @classmethod
    def monomial(cls, order: WeightedOrder, coeff, exponent: Exponent,
                 horizon: int) -> "TruncatedPoly":
        return cls(order, horizon, {tuple(exponent): rat(coeff)})

    # -- basic queries ---------------------------------------------------

    @property
    def coeffs(self) -> dict[Exponent, Rat]:
        """The polynomial as exponent -> nonzero ``Rat``, built on each read."""
        exponent, den = self.order.exponent, self.den
        return {exponent(k): Rat(c, den) for k, c in self.terms.items()}

    @property
    def leading_power(self) -> Exponent | None:
        return None if self.lead is None else self.order.exponent(self.lead)

    @property
    def tail(self) -> tuple:
        """Every term but the leading one, as (key, numerator), ascending."""
        if self._tail is None:
            self._tail = tuple(sorted(self.terms.items())[1:])
        return self._tail

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- arithmetic ------------------------------------------------------

    def _join(self, other: "TruncatedPoly") -> int:
        if self.order != other.order:
            raise ValueError("operands use different weighted orders")
        return min(self.horizon, other.horizon)

    def truncated(self, horizon: int) -> "TruncatedPoly":
        """The same polynomial cut at a horizon no larger than this one."""
        if horizon > self.horizon:
            raise ValueError(f"cannot raise the horizon {self.horizon} to {horizon}")
        return TruncatedPoly._raw(self.order, horizon, {
            k: c for k, c in self.terms.items() if k[0] <= horizon}, self.den)

    def _merge(self, other: "TruncatedPoly", negate: bool) -> "TruncatedPoly":
        """self + other, or self - other: ``_add_shifted`` with mu = +-1 and
        no shift, on self cut at the smaller horizon, over the lcm of the
        two denominators."""
        h = self._join(other)
        p = self if h == self.horizon else self.truncated(h)
        terms, den = _add_shifted(p, Rat(-1 if negate else 1), other, 0, 0, h)
        return TruncatedPoly._raw(self.order, h, terms, den)

    def __add__(self, other):
        if not isinstance(other, TruncatedPoly):
            return NotImplemented
        return self._merge(other, False)

    def __sub__(self, other):
        if not isinstance(other, TruncatedPoly):
            return NotImplemented
        return self._merge(other, True)

    def __neg__(self):
        return TruncatedPoly._raw(self.order, self.horizon,
                                  {k: -c for k, c in self.terms.items()}, self.den)

    def __mul__(self, other):
        """self * other by the product kernel (``_add_products``), cut at
        the smaller horizon, over the product of the denominators; a
        scalar other is ``scale``."""
        if not isinstance(other, TruncatedPoly):
            return self.scale(rat(other))
        h = self._join(other)
        out: dict[Key, int] = {}
        _add_products(out, self, other, 1, h)
        return TruncatedPoly._raw(self.order, h, out, self.den * other.den)

    def __rmul__(self, other):
        if isinstance(other, TruncatedPoly):
            return NotImplemented
        return self.scale(rat(other))

    def scale(self, c: Rat) -> "TruncatedPoly":
        if not c:
            return TruncatedPoly._raw(self.order, self.horizon, {})
        num = c.numerator
        return TruncatedPoly._raw(self.order, self.horizon,
                                  {k: num * v for k, v in self.terms.items()},
                                  self.den * c.denominator)

    def mul_monomial(self, coeff, shift: Exponent) -> "TruncatedPoly":
        """Multiply by coeff * x^shift, truncating at this horizon."""
        c = rat(coeff)
        if not c:
            return TruncatedPoly._raw(self.order, self.horizon, {})
        da, db = shift
        if da < 0 or db < 0:
            raise ValueError(f"negative shift {shift}")
        h, num = self.horizon, c.numerator
        d = self.order.n * da + self.order.m * db
        return TruncatedPoly._raw(self.order, h, {
            (k + d, a + da): num * v for (k, a), v in self.terms.items() if k + d <= h},
            self.den * c.denominator)

    # -- calculus --------------------------------------------------------

    def partials(self, horizon: int) -> tuple["TruncatedPoly", "TruncatedPoly"]:
        """(d/dx, d/dy) exactly, over the same denominator, cut at
        ``horizon``: the numerator c at key (d, a) becomes a*c at
        (d - n, a - 1) and b*c at (d - m, a), with b = (d - n*a)/m.  A
        horizon above this one raises: the terms above it are unknown."""
        if horizon > self.horizon:
            raise ValueError(f"cannot raise the horizon {self.horizon} to {horizon}")
        order = self.order
        n, m = order.n, order.m
        fx, fy = {}, {}
        for (d, a), c in self.terms.items():
            if a and d - n <= horizon:
                fx[(d - n, a - 1)] = a * c
            if d > n * a and d - m <= horizon:
                fy[(d - m, a)] = (d - n * a) // m * c
        return (TruncatedPoly._raw(order, horizon, fx, self.den),
                TruncatedPoly._raw(order, horizon, fy, self.den))

    def primitive(self) -> "TruncatedPoly":
        """The positive multiple with coprime integer coefficients, over 1;
        nonzero polynomials only."""
        content = gcd(*self.terms.values())
        return TruncatedPoly._raw(self.order, self.horizon,
                                  {k: c // content for k, c in self.terms.items()})

    # -- comparisons / display ------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, TruncatedPoly):
            return NotImplemented
        return (self.order == other.order and self.horizon == other.horizon
                and {k: c * other.den for k, c in self.terms.items()}
                == {k: c * self.den for k, c in other.terms.items()})

    __hash__ = None

    def __repr__(self):
        return f"TruncatedPoly({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        exponent, den = self.order.exponent, self.den
        for k, num in sorted(self.terms.items()):
            (a, b), c = exponent(k), Rat(num, den)
            mono = "*".join(
                ([] if a == 0 else ["x" if a == 1 else f"x^{a}"])
                + ([] if b == 0 else ["y" if b == 1 else f"y^{b}"]))
            if not mono:
                frag = str(c)
            elif c == 1:
                frag = mono
            elif c == -1:
                frag = f"-{mono}"
            else:
                frag = f"{c}*{mono}"
            parts.append(frag)
        text = " + ".join(parts)
        return text.replace("+ -", "- ")


def _fill(p: TruncatedPoly, order: WeightedOrder, horizon: int, terms: dict,
          den: int) -> None:
    p.order = order
    p.horizon = horizon
    p.terms = terms
    p.den = den
    p.lead = min(terms) if terms else None
    p._tail = None


# -- kernels on numerator maps (see the module docstring) ------------------


def _ascending(p: TruncatedPoly) -> tuple:
    """Every term of p as (key, numerator), ascending: the leading term and
    ``tail``, which ``p`` caches."""
    return p.tail if p.lead is None else ((p.lead, p.terms[p.lead]),) + p.tail


def _subtract_shifted(r: dict, q: int, tail: tuple, degree: int, da: int,
                      horizon: int) -> None:
    """r <- r - q * x^s * tail in place, cut at ``horizon``: x^s has weighted
    degree ``degree`` and x-exponent ``da``, and ``tail`` is ascending."""
    for (d, a), c in tail:
        d += degree
        if d > horizon:
            break
        e = (d, a + da)
        if s := r.get(e, 0) - q * c:
            r[e] = s
        else:
            del r[e]


def _add_shifted(p: TruncatedPoly, mu: Rat, q: TruncatedPoly, degree: int, da: int,
                 horizon: int) -> tuple:
    """(numerators, denominator) of p + mu * x^s * q cut at ``horizon``, x^s
    of weighted degree ``degree`` and x-exponent ``da``, over
    lcm(p.den, den(mu) * q.den); mu is nonzero and p lies at or below the
    horizon.  p's terms come first, in their order, and q's are subtracted
    with the scale -mu * (lcm / (den(mu) * q.den)) by ``_subtract_shifted``
    over q's ascending terms.  ``TruncatedPoly``'s sum and difference are
    the case mu = +-1 with no shift."""
    qden = mu.denominator * q.den
    den = lcm(p.den, qden)
    sp, sq = den // p.den, mu.numerator * (den // qden)
    out = {k: c * sp for k, c in p.terms.items()} if sp != 1 else dict(p.terms)
    _subtract_shifted(out, -sq, _ascending(q), degree, da, horizon)
    return out, den


def _add_products(out: dict, p: TruncatedPoly, q: TruncatedPoly, scale: int,
                  horizon: int) -> None:
    """out <- out + scale * P * Q in place, cut at ``horizon``, P and Q the
    numerators of p and q: for each term of p, q's terms ascending until
    the product passes the horizon.  ``TruncatedPoly.__mul__`` and both
    products of ``differentials.apply_vector_field`` run it."""
    terms = _ascending(q)
    get = out.get
    for (d1, a1), c1 in p.terms.items():
        c1 *= scale
        room = horizon - d1
        for (d2, a2), c2 in terms:
            if d2 > room:
                break
            k = (d1 + d2, a1 + a2)
            if v := get(k, 0) + c1 * c2:
                out[k] = v
            else:
                del out[k]
