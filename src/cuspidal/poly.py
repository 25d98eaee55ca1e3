"""Sparse bivariate polynomials truncated at a weighted-degree horizon.

Monomials x^a y^b are ordered by the local weighted order attached to a
coprime weight pair (n, m) with 2 <= n < m: compare n*a + m*b first, and
break ties by the smaller x-exponent.  The *leading* term of a polynomial is
its minimal term in this order (local convention), and the leading power of 0
is treated as +infinity by returning ``None``.

A :class:`TruncatedPoly` stores only terms of weighted degree <= ``horizon``;
every arithmetic operation discards generated terms beyond the smaller of the
operand horizons.  Instances are immutable once constructed.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Mapping, NamedTuple

from .rationals import Rat, rat

Exponent = tuple[int, int]


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

    def key(self, e: Exponent):
        """Sort key: ascending = from leading (smallest) upward."""
        return (self.n * e[0] + self.m * e[1], e[0])

    @property
    def default_horizon(self) -> int:
        return 4 * self.n * self.m


def divides(e1: Exponent, e2: Exponent) -> bool:
    """x^e1 divides x^e2 (componentwise <=)."""
    return e1[0] <= e2[0] and e1[1] <= e2[1]


class Term(NamedTuple):
    exponent: Exponent
    coeff: Rat


class TruncatedPoly:
    """Immutable sparse polynomial, truncated at a weighted-degree horizon."""

    __slots__ = ("order", "horizon", "terms", "_lead")

    def __init__(self, order: WeightedOrder, horizon: int,
                 terms: Mapping[Exponent, Rat] | None = None):
        clean: dict[Exponent, Rat] = {}
        if terms:
            n, m = order.n, order.m
            for e, c in terms.items():
                a, b = e
                if a < 0 or b < 0:
                    raise ValueError(f"negative exponent {e}")
                if n * a + m * b > horizon:
                    continue
                c = rat(c)
                if c:
                    clean[(a, b)] = c
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_lead", None)

    def __setattr__(self, name, value):  # immutability by convention + guard
        raise AttributeError("TruncatedPoly is immutable")

    @staticmethod
    def _raw(order: WeightedOrder, horizon: int, terms: dict[Exponent, Rat]) -> "TruncatedPoly":
        p = object.__new__(TruncatedPoly)
        object.__setattr__(p, "order", order)
        object.__setattr__(p, "horizon", horizon)
        object.__setattr__(p, "terms", terms)
        object.__setattr__(p, "_lead", None)
        return p

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, order: WeightedOrder, horizon: int | None = None) -> "TruncatedPoly":
        return cls._raw(order, order.default_horizon if horizon is None else horizon, {})

    @classmethod
    def monomial(cls, order: WeightedOrder, coeff, exponent: Exponent,
                 horizon: int | None = None) -> "TruncatedPoly":
        h = order.default_horizon if horizon is None else horizon
        return cls(order, h, {tuple(exponent): rat(coeff)})

    # -- basic queries ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def leading(self) -> Term | None:
        """Minimal term in the weighted order; None for the zero polynomial."""
        if not self.terms:
            return None
        cached = self._lead
        if cached is None:
            e = min(self.terms, key=self.order.key)
            cached = Term(e, self.terms[e])
            object.__setattr__(self, "_lead", cached)
        return cached

    @property
    def leading_power(self) -> Exponent | None:
        lead = self.leading
        return None if lead is None else lead.exponent

    def min_degree(self) -> int | None:
        """Smallest weighted degree among stored terms (the order valuation)."""
        if not self.terms:
            return None
        n, m = self.order.n, self.order.m
        return min(n * a + m * b for (a, b) in self.terms)

    def sorted_terms(self) -> list[Term]:
        return [Term(e, self.terms[e]) for e in sorted(self.terms, key=self.order.key)]

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- arithmetic ------------------------------------------------------

    def _join(self, other: "TruncatedPoly") -> int:
        if self.order != other.order:
            raise ValueError("operands use different weighted orders")
        return min(self.horizon, other.horizon)

    def _shrunk(self, horizon: int) -> dict[Exponent, Rat]:
        if horizon >= self.horizon:
            return dict(self.terms)
        n, m = self.order.n, self.order.m
        return {e: c for e, c in self.terms.items() if n * e[0] + m * e[1] <= horizon}

    def truncated(self, horizon: int) -> "TruncatedPoly":
        """The same polynomial cut at a horizon no larger than this one."""
        if horizon > self.horizon:
            raise ValueError(f"cannot raise the horizon {self.horizon} to {horizon}")
        return TruncatedPoly._raw(self.order, horizon, self._shrunk(horizon))

    def _merge(self, other: "TruncatedPoly", negate: bool) -> "TruncatedPoly":
        """self + other, or self - other in the same single pass."""
        h = self._join(other)
        out = self._shrunk(h)
        n, m = self.order.n, self.order.m
        for e, c in other.terms.items():
            if n * e[0] + m * e[1] > h:
                continue
            s = out.get(e)
            if s is None:
                out[e] = -c if negate else c
            else:
                s = s - c if negate else s + c
                if s:
                    out[e] = s
                else:
                    del out[e]
        return TruncatedPoly._raw(self.order, h, out)

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
                                  {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, TruncatedPoly):
            h = self._join(other)
            n, m = self.order.n, self.order.m
            out: dict[Exponent, Rat] = {}
            for (a1, b1), c1 in self.terms.items():
                d1 = n * a1 + m * b1
                for (a2, b2), c2 in other.terms.items():
                    if d1 + n * a2 + m * b2 > h:
                        continue
                    e = (a1 + a2, b1 + b2)
                    s = out.get(e)
                    if s is None:
                        out[e] = c1 * c2
                    else:
                        s = s + c1 * c2
                        if s:
                            out[e] = s
                        else:
                            del out[e]
            return TruncatedPoly._raw(self.order, h, out)
        c = rat(other)
        return self.scale(c)

    def __rmul__(self, other):
        if isinstance(other, TruncatedPoly):
            return NotImplemented
        return self.scale(rat(other))

    def scale(self, c: Rat) -> "TruncatedPoly":
        if not c:
            return TruncatedPoly._raw(self.order, self.horizon, {})
        return TruncatedPoly._raw(self.order, self.horizon,
                                  {e: c * v for e, v in self.terms.items()})

    def mul_monomial(self, coeff, shift: Exponent) -> "TruncatedPoly":
        """Multiply by coeff * x^shift, truncating at this horizon."""
        c = rat(coeff)
        if not c:
            return TruncatedPoly._raw(self.order, self.horizon, {})
        da, db = shift
        if da < 0 or db < 0:
            raise ValueError(f"negative shift {shift}")
        n, m, h = self.order.n, self.order.m, self.horizon
        d = n * da + m * db
        if c == 1:  # a plain shift, as in every lift of ``delorme``
            out = {(a + da, b + db): v for (a, b), v in self.terms.items()
                   if n * a + m * b + d <= h}
        else:
            out = {(a + da, b + db): c * v for (a, b), v in self.terms.items()
                   if n * a + m * b + d <= h}
        return TruncatedPoly._raw(self.order, h, out)

    # -- calculus --------------------------------------------------------

    def partial_x(self) -> "TruncatedPoly":
        """Exact formal derivative of the stored terms with respect to x."""
        out = {(a - 1, b): c * a for (a, b), c in self.terms.items() if a}
        return TruncatedPoly._raw(self.order, self.horizon, out)

    def partial_y(self) -> "TruncatedPoly":
        """Exact formal derivative of the stored terms with respect to y."""
        out = {(a, b - 1): c * b for (a, b), c in self.terms.items() if b}
        return TruncatedPoly._raw(self.order, self.horizon, out)

    # -- comparisons / display ------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, TruncatedPoly):
            return NotImplemented
        return (self.order == other.order and self.horizon == other.horizon
                and self.terms == other.terms)

    __hash__ = None

    def __repr__(self):
        return f"TruncatedPoly({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (a, b), c in self.sorted_terms():
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

