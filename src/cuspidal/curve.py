"""Cusp branches: numerical semigroup, cuspidal exponent sets, implicit
equations in adapted or nice form, and exact rational parametrizations.

A cusp is a plane branch whose semigroup is generated by a coprime pair
(n, m) with 2 <= n < m.  Everything here is exact: the parametrization is a
truncated power series over the rationals obtained by a Newton iteration, and
it doubles as the independent oracle for the differential-value machinery.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd

from . import _series
from .poly import Exponent, TruncatedPoly, WeightedOrder
from .rationals import ONE, Rat, ZERO, rat


class NotAdapted(ValueError):
    """The polynomial violates the adapted-form shape mu*x^m + y^n + higher."""


class NoSolution(ValueError):
    """The parametrization recursion is inconsistent; f is not a cusp equation."""


@dataclass(frozen=True)
class Semigroup:
    """Numerical semigroup <n, m> of a cusp with Puiseux pair (n, m)."""

    n: int
    m: int

    def __post_init__(self) -> None:
        if not (2 <= self.n < self.m):
            raise ValueError(f"need 2 <= n < m, got ({self.n}, {self.m})")
        if gcd(self.n, self.m) != 1:
            raise ValueError(f"generators must be coprime, got ({self.n}, {self.m})")

    @property
    def conductor(self) -> int:
        return (self.n - 1) * (self.m - 1)

    @property
    def t_horizon_floor(self) -> int:
        """n*m + conductor: a parametrization horizon must exceed it."""
        return self.n * self.m + self.conductor

    @cached_property
    def order(self) -> WeightedOrder:
        return WeightedOrder(self.n, self.m)

    @cached_property
    def _gap_set(self) -> frozenset:
        present = [False] * self.conductor
        for a in range(0, self.conductor // self.n + 1):
            base = self.n * a
            for b in range(0, (self.conductor - base) // self.m + 1):
                k = base + self.m * b
                if k < self.conductor:
                    present[k] = True
        return frozenset(k for k, ok in enumerate(present) if not ok)

    @cached_property
    def _m_inverse(self) -> int:
        return pow(self.m, -1, self.n)

    def __contains__(self, k: int) -> bool:
        if k < 0:
            return False
        if k >= self.conductor:
            return True
        return k not in self._gap_set

    def gaps(self) -> tuple:
        """All naturals below the conductor that are not in the semigroup."""
        return tuple(sorted(self._gap_set))

    def decompose(self, k: int) -> Exponent | None:
        """The representation k = n*a + m*b with 0 <= b < n, or None if k is
        outside the semigroup.  Below n*m this is the only representation."""
        if k < 0:
            return None
        b = (k * self._m_inverse) % self.n
        rest = k - self.m * b
        if rest < 0 or rest % self.n:
            return None
        return (rest // self.n, b)

    def elements_up_to(self, bound: int) -> tuple:
        """Sorted members k with 0 <= k <= bound."""
        return tuple(k for k in range(bound + 1) if k in self)


@dataclass(frozen=True)
class CuspidalSets:
    """The exponent set P, its value set J, and the reflected set M.

    P collects the exponents (p1, p2) inside the box [0, m-1) x [0, n-1)
    lying strictly above the (n, m)-weight line; J lists the corresponding
    shifted weights n*p1 + m*p2 - n*m, in bijection with P; M reflects P
    through (m-1, n-1).  All three are empty when n = 2.
    """

    sg: Semigroup
    P: frozenset
    J: tuple
    M: tuple
    _j_to_p: tuple = field(repr=False)

    @cached_property
    def j_to_p(self) -> dict:
        return dict(self._j_to_p)

    def p_of(self, j: int) -> Exponent:
        return self.j_to_p[j]


def cuspidal_sets(sg: Semigroup) -> CuspidalSets:
    """Build P, J, M by scanning the defining box; sanity-checks the P <-> J
    bijection (weights below n*m determine their exponent uniquely)."""
    n, m = sg.n, sg.m
    pairs: list[tuple[int, Exponent]] = []
    for p1 in range(m - 1):
        for p2 in range(n - 1):
            if n * p1 + m * p2 > n * m:
                pairs.append((n * p1 + m * p2 - n * m, (p1, p2)))
    pairs.sort()
    J = tuple(j for j, _ in pairs)
    if len(set(J)) != len(pairs):
        raise AssertionError("cuspidal values collided below n*m")
    P = frozenset(p for _, p in pairs)
    M = tuple((m - p1 - 1, n - p2 - 1) for _, (p1, p2) in pairs)
    return CuspidalSets(sg, P, J, M, tuple(pairs))


@dataclass(frozen=True)
class CurveEquation:
    """Implicit equation of a cusp in adapted or nice coordinates.

    Adapted means f = mu*x^m + y^n + (terms of weighted degree > n*m); nice
    additionally pins mu = 1 and restricts the extra monomials to the
    cuspidal exponent set P, with coefficients indexed by J.
    """

    sg: Semigroup
    f: TruncatedPoly
    form: str
    mu: Rat
    coeffs: tuple | None = None

    @classmethod
    def nice(cls, sg: Semigroup, coeffs=None, horizon: int | None = None) -> "CurveEquation":
        """f = x^m + y^n + sum z_j x^{p1,j} y^{p2,j} with every j in J."""
        sets = cuspidal_sets(sg)
        n, m = sg.n, sg.m
        omit = {(m, 0): ONE, (0, n): ONE}
        z: dict[int, Rat] = {}
        for j, c in (coeffs or {}).items():
            j = int(j)
            if j not in sets.j_to_p:
                raise ValueError(f"coefficient index {j} is outside J = {list(sets.J)}")
            c = rat(c)
            if c:
                z[j] = c
                omit[sets.j_to_p[j]] = c
        h = sg.order.default_horizon if horizon is None else horizon
        f = TruncatedPoly(sg.order, h, omit)
        return cls(sg, f, "nice", ONE, tuple(sorted(z.items())))

    @classmethod
    def adapted(cls, sg: Semigroup, f: TruncatedPoly) -> "CurveEquation":
        """Wrap an already-built adapted-form polynomial, validating its shape."""
        n, m = sg.n, sg.m
        if f.order != sg.order:
            raise NotAdapted("polynomial order does not match the semigroup")
        mu = f.terms.get((m, 0))
        if not mu:
            raise NotAdapted(f"missing x^{m} term")
        if f.terms.get((0, n)) != 1:
            raise NotAdapted(f"coefficient of y^{n} must be 1")
        for (a, b), _ in f.terms.items():
            if (a, b) in ((m, 0), (0, n)):
                continue
            if n * a + m * b <= n * m:
                raise NotAdapted(
                    f"term x^{a}*y^{b} has weighted degree {n * a + m * b} <= {n * m}")
        return cls(sg, f, "adapted", mu)

    def __post_init__(self) -> None:
        if self.form not in ("nice", "adapted"):
            raise ValueError(f"unknown form {self.form!r}")
        # The one horizon check every equation passes, however it is built:
        # below 2nm the truncation can cut terms that decide the values.
        floor = 2 * self.sg.n * self.sg.m
        if self.f.horizon < floor:
            raise ValueError(f"truncation horizon must be at least 2*n*m = {floor}, "
                             f"got {self.f.horizon}")

    @property
    def nice_coeffs(self) -> dict:
        """Mapping j -> z_j (nonzero entries only); nice form required."""
        if self.form != "nice":
            raise ValueError("coefficients by J-index exist only in nice form")
        return dict(self.coeffs or ())

    @cached_property
    def fx(self) -> TruncatedPoly:
        return self.f.partial_x()

    @cached_property
    def fy(self) -> TruncatedPoly:
        return self.f.partial_y()

    @cached_property
    def sets(self) -> CuspidalSets:
        return cuspidal_sets(self.sg)


@dataclass(frozen=True)
class Parametrization:
    """Primitive rational parametrization x = x_coeff * t^n, y = y(t).

    ``y`` stores the coefficients of t^0..t^{t_horizon}; the series has order
    m with a nonzero (rational) leading coefficient.  ``x_coeff`` is +1 or -1
    for mu = 1 equations and a rational power of mu otherwise: the sign/scale
    is exactly what keeps the coefficient recursion inside the rationals, and
    t-orders -- the only quantities consumed downstream -- do not depend on it.

    The cached powers y**b (``y_power``) are the one evaluator along the
    branch: ``compose`` sums them for any polynomial, ``newton_puiseux`` solves
    through ``compose``, and ``y_power_dy`` reads y**b * y' off them by the
    identity y**b * y' = (y**(b+1))' / (b+1), exact on truncated series.
    """

    n: int
    x_coeff: Rat
    y: tuple
    t_horizon: int

    def __post_init__(self) -> None:
        if len(self.y) != self.t_horizon + 1:
            raise ValueError("y series length disagrees with t_horizon")
        if not self.x_coeff:
            raise ValueError("x_coeff must be nonzero")
        if _series.ord_of(self.y) is None:
            raise ValueError("y series vanishes to the horizon")

    @property
    def m(self) -> int:
        return _series.ord_of(self.y)

    @cached_property
    def _y_powers(self) -> dict:
        return {0: (ONE,) + (ZERO,) * self.t_horizon, 1: self.y}

    def y_power(self, b: int) -> tuple:
        """y(t)**b truncated at the horizon, cached."""
        pows = self._y_powers
        got = pows.get(b)
        if got is None:
            prev = self.y_power(b - 1)
            got = tuple(_series.mul(prev, self.y, self.t_horizon))
            pows[b] = got
        return got

    @cached_property
    def _y_powers_dy(self) -> dict:
        return {}

    def y_power_dy(self, b: int) -> tuple:
        """y(t)**b * y'(t) = (y**(b+1))' / (b+1), trustworthy through power
        t_horizon - 1; cached."""
        pows = self._y_powers_dy
        got = pows.get(b)
        if got is None:
            got = tuple(c / (b + 1) for c in _series.deriv(self.y_power(b + 1)))
            pows[b] = got
        return got

    def compose(self, p: TruncatedPoly) -> list:
        """p(x(t), y(t)) as a series valid through the horizon."""
        out = _series.zeros(self.t_horizon)
        for (a, b), c in p.terms.items():
            shift = self.n * a
            if shift > self.t_horizon:
                continue
            _series.add_shifted(out, self.y_power(b), shift,
                                c * self.x_coeff ** a)
        return out


def pullback_value(eq: CurveEquation, param: Parametrization, h: TruncatedPoly) -> int | None:
    """ord_t of h(x(t), y(t)); None when every coefficient up to the horizon
    vanishes (infinite to the horizon; h = f itself is the canonical case)."""
    if param.n != eq.sg.n:
        raise ValueError("parametrization belongs to a different cusp")
    return _series.ord_of(param.compose(h))


def _leading_solution(n: int, m: int, mu: Rat) -> tuple:
    """Rational (xi, c0) with mu * xi^m + c0^n = 0, c0 != 0.

    Writing xi and c0 as signed powers of mu reduces the constraint to the
    Bezout relation 1 + m*u = n*v; the sign pattern splits on the parity of n
    (m is odd whenever n is even, since the pair is coprime).
    """
    u = (-pow(m % n, -1, n)) % n
    v = (1 + m * u) // n
    mu_u = mu ** u
    mu_v = mu ** v
    if n % 2:
        return mu_u, -mu_v
    return -mu_u, mu_v


def newton_puiseux(eq: CurveEquation, t_horizon: int | None = None) -> Parametrization:
    """Solve f(x(t), y(t)) = 0 for y as a truncated rational series.

    The coefficients of y are the unique solution of the successive linear
    equations obtained by matching powers of t; they are found here by a
    Newton iteration with progressive truncation, which produces the same
    series.  Each step evaluates f, and f_y when f does not vanish yet, by
    ``Parametrization.compose`` on the current truncation, so the solver and
    the oracle share one power table.  Postcondition (checked): the residual
    f(x(t), y(t)) vanishes identically through power t_horizon + n*m - m.
    """
    sg = eq.sg
    n, m = sg.n, sg.m
    nm = n * m
    if t_horizon is None:
        t_horizon = nm + 2 * sg.conductor
    elif t_horizon <= sg.t_horizon_floor:
        raise ValueError("t_horizon must exceed n*m + conductor")
    xi, c0 = _leading_solution(n, m, eq.mu)
    work = t_horizon + nm - m

    y = _series.zeros(m)
    y[m] = c0
    prec = m
    while prec < t_horizon:
        nxt = min(t_horizon, 2 * prec - m + 1)
        upto = nxt + nm - m
        cur = _series.trimmed(y, upto)
        branch = Parametrization(n, xi, tuple(cur), upto)
        val = branch.compose(eq.f)
        if _series.ord_of(val) is None:
            y = cur
            prec = nxt
            continue
        dval = branch.compose(eq.fy)
        if _series.ord_of(dval) != nm - m:
            raise NoSolution("derivative lost its expected order; not a cusp shape")
        delta = _series.div([-v for v in val], dval, nxt)
        _series.add_shifted(cur, delta)
        y = _series.trimmed(cur, nxt)
        prec = nxt

    y = _series.trimmed(y, t_horizon)
    check = Parametrization(n, xi, tuple(_series.trimmed(y, work)), work).compose(eq.f)
    if _series.ord_of(check) is not None:
        raise NoSolution("residual does not vanish to the horizon")
    return Parametrization(n, xi, tuple(y), t_horizon)
