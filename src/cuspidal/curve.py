"""Cusp branches: numerical semigroup, cuspidal exponent sets, implicit
equations, and exact rational parametrizations.  An equation is f alone,
held at 2nm and checked adapted when it is built; whether it is nice, and
its z_j, are read off f's terms.

A cusp is a plane branch whose semigroup is generated by a coprime pair
(n, m) with 2 <= n < m.  Everything here is exact: the parametrization solves
the coefficient recursion n * v_k = -P_k on integers, one coefficient per
step, once, on f cut at the horizon H of the forms it serves (2nm by
default), and is held as one scaled integer power table through
t^(H - nm + n + m); it is the independent oracle for the
differential-value machinery.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import lcm
from types import MappingProxyType

from . import _series
from .poly import Exponent, TruncatedPoly, WeightedOrder
from .rationals import ONE, Rat, ZERO
from .standard_basis import IntPoly


class NotAdapted(ValueError):
    """The polynomial violates the adapted-form shape mu*x^m + y^n + higher."""


class NoSolution(ValueError):
    """The parametrization recursion is inconsistent; f is not a cusp equation."""


_SEMIGROUPS: dict = {}  # (n, m) -> the Semigroup of that pair


class _OnePerPair(type):
    """Makes ``Semigroup(n, m)`` return the one instance of its pair in this
    process, so the cached tables of a pair are built on its first use and
    read by every later one.  A pair enters ``_SEMIGROUPS`` only once
    ``__post_init__`` has built its ``WeightedOrder``, whose checks are the
    pair check: an invalid pair raises on every call.  With one instance
    per pair, two semigroups are equal exactly when they are the same
    object, so ``Semigroup`` keeps ``object``'s ``==`` and hash."""

    def __call__(cls, n, m):
        sg = _SEMIGROUPS.get((n, m))
        if sg is None:
            sg = _SEMIGROUPS[n, m] = super().__call__(n, m)
        return sg


@dataclass(frozen=True, eq=False)
class Semigroup(metaclass=_OnePerPair):
    """Numerical semigroup <n, m> of a cusp with Puiseux pair (n, m).

    There is one instance per pair (``_OnePerPair``), and its tables are
    functions of (n, m) alone, built once and never written after: nothing
    of one curve is kept here.  It is compared and hashed by identity, which
    is value equality for one instance per pair, so every cache keyed by a
    pair (``bernstein._root_plans``, ``differentials._round_plan``) hashes
    it without a Python call.
    """

    n: int
    m: int
    order: WeightedOrder = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "order", WeightedOrder(self.n, self.m))

    @property
    def conductor(self) -> int:
        return (self.n - 1) * (self.m - 1)

    @property
    def hessian_degree(self) -> int:
        """D = 2nm - 2n - 2m, the weighted degree of x^(m-2)*y^(n-2): the
        Jacobian ideal (f, f_x, f_y) of a cusp contains every monomial of
        weighted degree > D (see ``jacobian_basis_direct``)."""
        return 2 * self.n * self.m - 2 * self.n - 2 * self.m

    @property
    def delorme_horizon(self) -> int:
        """H_Delta = max(D, nm): the proven horizon of Delorme's algorithm
        (``delorme``)."""
        return max(self.hessian_degree, self.n * self.m)

    @property
    def jacobian_horizon(self) -> int:
        """H_J = max(D, nm - n): the proven horizon of the direct Jacobian
        standard basis (``jacobian_basis_direct``); D for n >= 3."""
        return max(self.hessian_degree, self.n * self.m - self.n)

    @property
    def branch_horizon(self) -> int:
        """2nm: the one horizon of f.  ``CurveEquation`` holds f at it; the
        other layers cut f lower: ``delorme`` at H_Delta, the direct
        Jacobian basis at H_J, and ``newton_puiseux`` at the horizon of the
        forms its branch serves (2nm by default, H_Delta in ``verify``).

        A branch solved on f cut at any H >= nm is enough for every form at
        a horizon <= H: no term of f above H changes an order that the
        oracle reads for such a form, through t^(H - nm + n + m - 1).
        Matching t^(k + nm - m) in f(x(t), y(t)) = 0 fixes y_k from
        y_m..y_(k-1) (the recursion of ``newton_puiseux``), and a term of
        weight w reaches only t-orders >= w.  So a term of weight w > H
        moves y by some delta of t-order >= w - (n-1)m >= H - nm + m + 1,
        and y agrees through t^(H - nm + m).  The pullback
        A(x, y) x' + B(x, y) y' of A dx + B dy then moves by B * delta', of
        t-order >= beta + H - nm + m with beta = ord_t B(x, y) in Gamma,
        and by terms of t-order >= H - nm + n + m (A_y * delta * x' and
        B_y * delta * y').  Inside the window, orders
        <= H - nm + n + m - 1, that leaves beta = 0, and then the pullback
        has order m - 1 on both branches: its t^(m-1) coefficient is
        B(0, 0) * m * c0, as A(x, y) x' has no t^(m-1) term (m - n is not
        in Gamma) and delta' has t-order >= H - nm + m >= m.
        With H = 2nm: no layer needs a term of f above 2nm, and
        ``parse_spec`` refuses one."""
        return 2 * self.n * self.m

    @cached_property
    def _gap_set(self) -> frozenset:
        return frozenset(k for k in range(self.conductor) if self.decompose(k) is None)

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

    @cached_property
    def elements(self) -> tuple:
        """The elements below n + c, ascending: enough for every sieve of
        lambda + Gamma below n + c (``semimodules.covered``)."""
        return tuple(k for k in range(self.n + self.conductor) if k not in self._gap_set)

    @cached_property
    def sets(self) -> "CuspidalSets":
        """P, J and M of this pair, built on the pair's first use: every
        later spec check, equation and residue of the pair reads them."""
        return cuspidal_sets(self)

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


@dataclass(frozen=True, eq=False)
class CuspidalSets:
    """The exponent set P, its value set J, and the reflected set M.

    P collects the exponents (p1, p2) inside the box [0, m-1) x [0, n-1)
    lying strictly above the (n, m)-weight line; J lists the corresponding
    shifted weights n*p1 + m*p2 - n*m, in bijection with P; M reflects P
    through (m-1, n-1).  All three are empty when n = 2.  j_to_p maps each
    j to its exponent in P, read-only: every curve of the pair reads the
    one mapping.  Every program path reads the pair's one
    ``Semigroup.sets``, so the sets are compared and hashed by identity, as
    the semigroup is.
    """

    sg: Semigroup
    P: frozenset
    J: tuple
    M: tuple
    j_to_p: MappingProxyType = field(repr=False)

    @cached_property
    def M_by_target(self) -> tuple:
        """M sorted by decreasing weight n*a + m*b, then by (a, b): for every
        j the order of increasing residue target k = j + n + m - n*a - m*b.
        The root plan of each j (``bernstein._root_plans``) keeps the part
        of it with k >= 0, in which ``decide_root`` scans."""
        n, m = self.sg.n, self.sg.m
        return tuple(sorted(self.M, key=lambda ab: (-(n * ab[0] + m * ab[1]), ab)))


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
    return CuspidalSets(sg, P, J, M, MappingProxyType(dict(pairs)))


@dataclass(frozen=True)
class CurveEquation:
    """Implicit equation of a cusp: f alone, at 2nm
    (``Semigroup.branch_horizon``), checked on construction, however it was
    built.

    f is adapted: mu*x^m + y^n + (terms of weighted degree > n*m), with
    mu != 0.  It is nice when, besides, mu = 1 and every other term lies on
    the cuspidal exponent set P; its coefficients are then the z_j, with
    z_j at P's monomial j_to_p[j].  mu, the form and the z_j are read off f.
    """

    sg: Semigroup
    f: TruncatedPoly

    @classmethod
    def nice(cls, sg: Semigroup, coeffs=None) -> "CurveEquation":
        """f = x^m + y^n + sum z_j x^{p1,j} y^{p2,j} with every j in J, at
        2nm."""
        sets = sg.sets
        terms = {(sg.m, 0): ONE, (0, sg.n): ONE}
        for j, c in (coeffs or {}).items():
            j = int(j)
            if j not in sets.j_to_p:
                raise ValueError(f"coefficient index {j} is outside J = {list(sets.J)}")
            terms[sets.j_to_p[j]] = c
        return cls(sg, TruncatedPoly(sg.order, sg.branch_horizon, terms))

    def __post_init__(self) -> None:
        # The one check every equation passes, however it is built.  The
        # horizon comes first: f is held at exactly 2nm, the largest of the
        # layers' horizons.  Below it a layer would read f without terms
        # that decide its values, and the cut may drop x^m, which is no
        # fault of the shape; above it f would carry terms no layer reads.
        sg, f = self.sg, self.f
        n, m = sg.n, sg.m
        if f.horizon != sg.branch_horizon:
            raise ValueError(f"truncation horizon must be 2*n*m = {sg.branch_horizon}, "
                             f"got {f.horizon}")
        if f.order != sg.order:
            raise NotAdapted("polynomial order does not match the semigroup")
        if (m, 0) not in f.terms:
            raise NotAdapted(f"missing x^{m} term")
        if f.terms.get((0, n)) != 1:
            raise NotAdapted(f"coefficient of y^{n} must be 1")
        for a, b in f.terms:
            if (a, b) not in ((m, 0), (0, n)) and n * a + m * b <= n * m:
                raise NotAdapted(
                    f"term x^{a}*y^{b} has weighted degree {n * a + m * b} <= {n * m}")

    @property
    def mu(self) -> Rat:
        """The coefficient of x^m."""
        return self.f.terms[(self.sg.m, 0)]

    @cached_property
    def form(self) -> str:
        """The form of f: "nice" when mu = 1 and every other term lies on
        P, else "adapted"."""
        sg = self.sg
        corners = ((sg.m, 0), (0, sg.n))
        P = sg.sets.P
        return ("nice" if self.mu == 1 and all(e in P for e in self.f.terms if e not in corners)
                else "adapted")

    @cached_property
    def nice_coeffs(self) -> MappingProxyType:
        """j -> z_j over the nonzero z_j, j ascending; nice form required.
        One read-only mapping, built on the first read."""
        if self.form != "nice":
            raise ValueError("coefficients by J-index exist only in nice form")
        j_to_p, terms = self.sg.sets.j_to_p, self.f.terms
        return MappingProxyType({j: terms[p] for j, p in j_to_p.items() if p in terms})

    @cached_property
    def fx(self) -> TruncatedPoly:
        return self.f.partial_x()

    @cached_property
    def fy(self) -> TruncatedPoly:
        return self.f.partial_y()

    @cached_property
    def f_int(self) -> IntPoly:
        """f exactly, as integer numerators over the lcm of its
        denominators (``IntPoly.of``): the divisor of every reduction
        modulo f."""
        return IntPoly.of(self.f)

    @cached_property
    def support_sums(self) -> int:
        """The targets k <= 2nm that the support reaches, as a bitset: bit k
        is set iff k is a sum of parts j with nonzero z_j, repeats allowed
        (bit 0, the empty sum, always).  A target outside this set has no
        delta sequence.  The targets of every beta_j are below 2nm; a
        larger one (``residue`` with a larger beta) gets a bitset of its
        own in ``bernstein._delta_entries``."""
        return sums_bitset(self.nice_coeffs, self.sg.branch_horizon)

    @cached_property
    def delta_parts(self) -> tuple:
        """The parts of the residue recurrence (``bernstein._delta_entries``):
        (l, l * numerator(z_l), denominator(z_l), p1, p2) for every nonzero
        z_l, l ascending, with (p1, p2) the monomial of l."""
        j_to_p = self.sg.sets.j_to_p
        return tuple((l, l * c.numerator, c.denominator, *j_to_p[l])
                     for l, c in self.nice_coeffs.items())

    @cached_property
    def delta_table(self) -> dict:
        """The residue memo of this curve: k -> the t^k coefficient of
        exp(-sum z_j x^p1 y^p2 t^j), the delta sequences of k over the
        nonzero z_j, as (den, ((num, offset1, offset2), ...)): integer
        numerators over one positive denominator, one entry per offset pair
        with a nonzero sum.  ``bernstein._delta_entries`` fills it on the
        first use of each k, and with it the smaller support sums that the
        recurrence for k reads."""
        return {}


def sums_bitset(parts, limit: int) -> int:
    """The bitset of the sums of ``parts`` (positive integers, repeats
    allowed) up to ``limit``: bit k, 0 <= k <= limit, is set iff k is such a
    sum.  Shifting by l, 2l, 4l, ... adds the multiples 0..(2^t - 1)*l of
    the part l after t shifts, so each part takes about log2(limit/l)
    shifts; a sum above the limit is dropped, as is each sum it extends.
    The parts go in increasing order, and a part that is already a sum of
    smaller ones is passed by: every sum it takes part in is one of those
    already."""
    mask = (1 << (limit + 1)) - 1
    bits = 1
    for part in sorted(parts):
        if bits >> part & 1:
            continue  # a sum of smaller parts: it adds no new sum
        shift = part
        while shift <= limit:
            bits |= bits << shift & mask
            shift *= 2
    return bits


@dataclass(frozen=True)
class Parametrization:
    """Primitive rational parametrization x = x_coeff * t^n, y = y(t), held
    as the integer table that ``newton_puiseux`` solved.

    With D = ``scale``, the branch is y(D*s) = c0 * D^m * v(s), where v has
    integer coefficients and starts with s^m (``newton_puiseux`` proves it),
    so y_k = c0 * v_k / D^(k-m) (``y``), and v solves the rescaled integer
    equation H(s, v) = 0 of ``newton_puiseux``.  ``x_coeff`` and ``c0`` are
    +1 or -1 for mu = 1 equations and rational powers of mu otherwise: the
    sign/scale is exactly what keeps the coefficient recursion inside the
    rationals, and t-orders -- the only quantities consumed downstream -- do
    not depend on it.

    ``powers`` is the table v^0, v^1, ..., v^top (top the largest y-degree
    of H) through s^t_horizon, t_horizon = H_f - nm + n + m, solved once by
    ``newton_puiseux`` on f cut at H_f, where it passed the residual check;
    nothing here solves.  Only the orders the oracle reads are those of f's
    own branch at 2nm: ``y`` agrees with that branch through
    t^(H_f - nm + m), and past it holds the branch of f cut at H_f, which
    reads the same order for every form at a horizon <= H_f
    (``Semigroup.branch_horizon``).  The oracle reads every pullback off
    that table (higher powers than H's are appended on first read).  A *part*
    (shift, b, theta, num, den) stands for (num/den) * t^shift * Y, with
    integers num and den > 0, where Y = y^b, or Y = t * (y^b)' when
    ``theta``.  The t^k coefficient of Y is
    c0^b * T[k] / D^(k - m*b), with T = v^b, or T[k] = k * v^b[k] when
    ``theta``.  So the t^K coefficient of a sum of parts, scaled by D^K and
    one common denominator, is a sum of integer scalars times table entries,
    and ``order`` stops at the first nonzero one.
    """

    n: int
    m: int
    x_coeff: Rat
    c0: Rat
    scale: int
    powers: tuple = field(repr=False)

    def __post_init__(self) -> None:
        if not (self.x_coeff and self.c0):
            raise ValueError("x_coeff and c0 must be nonzero")
        if self.scale < 1:
            raise ValueError("scale must be a positive integer")
        if self.t_horizon < self.m:
            raise ValueError("the window must reach s^m")

    @property
    def t_horizon(self) -> int:
        """The last power of s (and of t) in the table."""
        return len(self.powers[1]) - 1

    def check_cusp(self, order: WeightedOrder) -> None:
        """Raise unless the weights (n, m) are this branch's own: the scale D
        belongs to one curve, so another cusp's data would be read wrongly."""
        if (order.n, order.m) != (self.n, self.m):
            raise ValueError("parametrization belongs to a different cusp")

    @cached_property
    def _tables(self) -> dict:
        return {(b, False): p for b, p in enumerate(self.powers)}

    def _table(self, b: int, theta: bool) -> tuple:
        """v^b, or k * v^b[k] when theta, through s^t_horizon; cached."""
        tables = self._tables
        got = tables.get((b, theta))
        if got is None:
            if theta:
                got = tuple(k * c for k, c in enumerate(self._table(b, False)))
            else:
                got = tuple(_series.mul(self._table(b - 1, False), self.powers[1],
                                        self.t_horizon))
            tables[(b, theta)] = got
        return got

    def order(self, parts, upto: int) -> int | None:
        """The least K <= upto whose t^K coefficient in the sum of parts is
        nonzero, walking K upward; None when all of t^0..t^upto vanish.
        Parts that start past upto are dropped."""
        cn, cd = self.c0.numerator, self.c0.denominator
        scaled = [(shift + self.m * b, shift, b, theta, num * cn ** b, den * cd ** b)
                  for shift, b, theta, num, den in parts if shift + self.m * b <= upto]
        if not scaled:
            return None
        # Row (start, shift, T, k): the t^K coefficient of the sum, times
        # den * D^(K - e0), is the sum of k * T[K - shift] over the rows with
        # start <= K (T vanishes below start - shift).
        e0 = min(start for start, *_ in scaled)
        den = lcm(*(d for *_, d in scaled))
        D = self.scale
        rows = sorted(((start, shift, self._table(b, theta),
                        num * (den // d) * D ** (start - e0))
                       for start, shift, b, theta, num, d in scaled),
                      key=lambda row: row[0])
        for K in range(e0, upto + 1):
            total = 0
            for start, shift, table, k in rows:
                if start > K:
                    break
                total += k * table[K - shift]
            if total:
                return K
        return None

    @cached_property
    def y(self) -> tuple:
        """The coefficients of t^0..t^t_horizon of y(t): those of f's branch
        at 2nm through t^(H_f - nm + m) only (see the class)."""
        cn, cd, D = self.c0.numerator, self.c0.denominator, self.scale
        return tuple(Rat(cn * c, cd * D ** (k - self.m)) if c else ZERO
                     for k, c in enumerate(self.powers[1]))


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


def _scaled_equation(f: TruncatedPoly, xi: Rat, c0: Rat) -> tuple:
    """(D, H): the scale D = n^2 * L and the integer terms (n*a, b, h) of
    H(s, v) = f(xi * (D*s)^n, c0 * D^m * v) / (c0^n * D^(nm)), whose term
    h * s^(n*a) * v^b comes from the term c * x^a * y^b of f."""
    n, m = f.order.n, f.order.m
    units = {(a, b): c * xi ** a * c0 ** (b - n) for (a, b), c in f.terms.items()}
    # x^m and y^n give -1 and 1, so taking them into L changes nothing.
    scale = n * n * lcm(*(u.denominator for u in units.values()))
    terms = [(n * a, b, _series.exact_div(u.numerator * scale ** (n * a + m * b - n * m),
                                          u.denominator))
             for (a, b), u in units.items()]
    return scale, terms


def _powers(v: list, top: int, upto: int) -> list:
    """The table v^0..v^top through s^upto."""
    pows = [_series.trimmed([1], upto), v]
    while len(pows) <= top:
        pows.append(_series.mul(pows[-1], v, upto))
    return pows


def _evaluate(terms, pows: list, upto: int) -> list:
    """sum of h * s^shift * v^b over the terms (shift, b, h), through s^upto."""
    out = _series.zeros(upto)
    for shift, b, h in terms:
        _series.add_shifted(out, pows[b], shift, h)
    return out


def _solve_branch(n: int, m: int, terms, window: int) -> list:
    """The table v^0..v^top of the branch through s^window, top the largest
    b among the terms (shift, b, h) of H: the recursion n * v_k = -P_k for
    k = m+1..window, then the residual check (see ``newton_puiseux``)."""
    nm = n * m
    top = max(b for _, b, _ in terms)
    work = window + nm - m

    # Each v^b starts in the table with its leading 1 at s^(mb).
    table = [_series.zeros(work) for _ in range(top + 1)]
    for b, power in enumerate(table):
        power[m * b] = 1
    v = table[1]
    support = [m]  # the j < k with v_j != 0, ascending
    for k in range(m + 1, window + 1):
        for b in range(2, top + 1):
            e = k + m * (b - 1)
            if e > work:
                break
            lower = table[b - 1]
            table[b][e] = sum(v[j] * lower[e - j] for j in support)
        p_k = sum(h * table[b][k + nm - m - shift] for shift, b, h in terms
                  if shift <= k + nm - m)
        v_k = _series.exact_div(-p_k, n)
        if v_k:
            support.append(k)
        for b in range(1, top + 1):
            e = k + m * (b - 1)
            if e > work:
                break
            table[b][e] += b * v_k

    pows = _powers(_series.trimmed(v, work), top, work)
    if _series.ord_of(_evaluate(terms, pows, work)) is not None:
        raise NoSolution("residual does not vanish to the horizon")
    return [tuple(p[:window + 1]) for p in pows]


def newton_puiseux(eq: CurveEquation, horizon: int | None = None) -> Parametrization:
    """Solve f(x(t), y(t)) = 0 for y as a truncated series, on integers,
    for the forms at horizons <= ``horizon`` (H_f; by default 2nm, f's
    own, ``Semigroup.branch_horizon``).  f is cut at H_f, which
    ``Semigroup.branch_horizon`` proves enough for those forms, and the
    branch is solved once, here, through t^t_horizon with
    t_horizon = H_f - nm + n + m.  Every coefficient of the table that the
    ``Parametrization`` holds has passed the residual check below.  Only
    the orders the oracle reads for those forms are guaranteed to be those
    of f's branch at 2nm: past t^(H_f - nm + m) the coefficients of y are
    the branch of f cut at H_f.  H_f must lie in [nm, 2nm]: above 2nm f
    has no terms to give (``TruncatedPoly.truncated`` refuses to raise the
    horizon), and below nm the cut drops x^m and y^n (and the window misses
    s^m for H_f < nm - n).

    The oracle reads a form at horizon H_w through
    min(2nm, H_w) - nm + n + m - 1 (``oracle_differential_value``), and
    refuses a form whose window passes t^(t_horizon - 1), the last order
    of the table; ``differential_value`` sees the values
    nu <= min(2nm, H_w) - nm + n + m: one window for every form.  It is
    past the conductor, and so past every value in Lambda minus Gamma.  It
    needs no check of its own: the branch of f is exact through any
    window >= m, by the recursion n * v_k = -P_k below.

    Take x = xi * t^n and y = c0 * t^m + ... (``_leading_solution``).  Let L
    be the lcm of the denominators of c * xi^a * c0^(b-n) over the terms
    c * x^a * y^b of f other than x^m and y^n, and D = n^2 * L.  Writing
    t = D*s and y = c0 * D^m * v(s), the equation becomes H(s, v) = 0 with

        H(s, v) = f(xi * (D*s)^n, c0 * D^m * v) / (c0^n * D^(nm)),

    whose coefficient at s^(na) * v^b is c * xi^a * c0^(b-n) * D^(na+mb-nm):
    -1 at s^(nm), 1 at v^n, and an integer for every other term, whose
    weight na + mb exceeds nm.  Then v = s^m + ... has integer coefficients
    (Eisenstein's theorem on algebraic power series, worked out for this
    equation).  Matching s^(k+nm-m) in H(s, v(s)) = 0 gives
    n * v_k = -P_k, with P_k an integer polynomial in v_m..v_(k-1), so only
    powers of n can enter a denominator.  Count them for the scale L alone,
    where v'_k = v_k / n^(2(k-m)): the claim is at most 2(k-m) - 1 of them
    for k > m.  In P_k, a product of factors v'_i from v^n has at least two
    factors with i > m (one alone is the term n * v'_k), whose excesses
    i - m sum to k - m; a product from a term of weight nm + e, e >= 1, has
    excesses summing to k - m - e.  By induction either product carries at
    most 2(k-m) - 2 factors n, and the division by n adds one.  Hence
    v_k = n^(2(k-m)) * v'_k is an integer.

    The solve (``_solve_branch``) runs that recursion, k = m+1..t_horizon,
    on a table of v^0..v^top (top the largest y-degree in f cut at H_f)
    through s^work, work = t_horizon + nm - m = H_f + n.  Each v^b starts
    at s^(mb) <= H_f, inside the table: the cut is what keeps it there.
    Since v starts with s^m, v_k first enters v^b at s^(k+m(b-1)), as
    b * v_k.  So step k fills that
    entry of each v^b from v_m..v_(k-1), as one coefficient of
    v^(b-1) * v; reads P_k, the s^(k+nm-m) coefficient of H on the table,
    where every term but v^n reads only finished entries; sets
    v_k = -P_k / n, an exact division (``_series.exact_div`` raises on a
    remainder); and adds b * v_k to the entries it filled.  Postcondition
    (checked): the residual H(s, v(s)) vanishes through s^work on a table
    rebuilt from v alone by ``_series.mul``, not the recursion's own.  That
    table v^0, v^1, ..., trimmed to s^t_horizon, is the one the
    parametrization holds.
    """
    sg = eq.sg
    n, m, nm = sg.n, sg.m, sg.n * sg.m
    h = sg.branch_horizon if horizon is None else horizon
    if h < nm:
        raise ValueError(f"branch horizon {h} is below nm = {nm}: the cut drops "
                         f"x^{m} and y^{n}")
    f = eq.f.truncated(h)
    xi, c0 = _leading_solution(n, m, eq.mu)
    scale, terms = _scaled_equation(f, xi, c0)
    powers = _solve_branch(n, m, terms, h - nm + n + m)
    return Parametrization(n, m, xi, c0, scale, tuple(powers))
