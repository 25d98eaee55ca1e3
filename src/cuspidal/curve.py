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
from math import gcd, lcm
from operator import itemgetter, mul
from types import MappingProxyType

from .poly import Exponent, TruncatedPoly, WeightedOrder
from .rationals import ONE, Rat, ZERO


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

    Gamma is held one way, as the bitset ``mask`` of its elements below
    n + c: membership and the gaps read its bits, and every lambda + Gamma
    of ``semimodules`` is a shift of it.  ``decompose`` gives the exponent
    (a, b) of an element, where a caller needs more than membership.
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
    def mask(self) -> int:
        """Gamma below n + c as a bitset (``sums_bitset``): bit k is set iff
        k is in Gamma, for 0 <= k < n + c.  Every k >= c is in Gamma, so
        this is enough for each lambda + Gamma below n + c
        (``semimodules.covered``)."""
        return sums_bitset((self.n, self.m), self.n + self.conductor - 1)

    def __contains__(self, k: int) -> bool:
        return k >= self.conductor or k >= 0 and self.mask >> k & 1 == 1

    def gaps(self) -> tuple:
        """All naturals below the conductor that are not in the semigroup."""
        return tuple(k for k in range(self.conductor) if not self.mask >> k & 1)

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
        b = k * pow(self.m, -1, self.n) % self.n
        rest = k - self.m * b
        if rest < 0 or rest % self.n:
            return None
        return (rest // self.n, b)


@dataclass(frozen=True, eq=False)
class CuspidalSets:
    """The value set J, the reflected set M, and the exponent set P as
    the values of j_to_p.

    P collects the exponents (p1, p2) inside the box [0, m-1) x [0, n-1)
    lying strictly above the (n, m)-weight line; J lists the corresponding
    shifted weights n*p1 + m*p2 - n*m, in bijection with P; M reflects P
    through (m-1, n-1).  All three are empty when n = 2.  j_to_p maps each
    j to its exponent in P, so P is ``j_to_p.values()``, in J's order.  It
    is the one P <-> J table: a key (d, a) of f's numerators
    (``TruncatedPoly``) lies on P exactly when d - nm is in J, since two
    monomials of one weighted degree differ by a multiple of (m, -n) and
    P's box leaves room for only one of them, so ``CurveEquation`` reads
    f's form and z_j through it.  The map is read-only: every curve of the
    pair reads the one mapping.  The sets hold no reference back to their
    pair: every program path reaches them through the pair's one
    ``Semigroup.sets``, so they are compared and hashed by identity, as
    the semigroup is.
    """

    J: tuple
    M: tuple
    j_to_p: MappingProxyType = field(repr=False)


def cuspidal_sets(sg: Semigroup) -> CuspidalSets:
    """Build J, M and P (as j_to_p) by scanning the defining box;
    sanity-checks the P <-> J bijection (weights below n*m determine their
    exponent uniquely)."""
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
    M = tuple((m - p1 - 1, n - p2 - 1) for _, (p1, p2) in pairs)
    return CuspidalSets(J, M, MappingProxyType(dict(pairs)))


@dataclass(frozen=True)
class CurveEquation:
    """Implicit equation of a cusp: f alone, at 2nm
    (``Semigroup.branch_horizon``), checked on construction, however it was
    built.

    f is adapted: mu*x^m + y^n + (terms of weighted degree > n*m), with
    mu != 0.  It is nice when, besides, mu = 1 and every other term lies on
    the cuspidal exponent set P; its coefficients are then the z_j, with
    z_j at P's monomial j_to_p[j].  mu, the form and the z_j are read off
    f's integer numerators over ``f.den``, the lcm of its denominators,
    which is f's numerator at y^n; f is the one divisor of every reduction
    modulo f.
    """

    sg: Semigroup
    f: TruncatedPoly

    @classmethod
    def nice(cls, sg: Semigroup, coeffs=None) -> "CurveEquation":
        """f = x^m + y^n + sum z_j x^{p1,j} y^{p2,j} with every j in J, at
        2nm; each index j is an ``int``."""
        sets = sg.sets
        terms = {(sg.m, 0): ONE, (0, sg.n): ONE}
        for j, c in (coeffs or {}).items():
            if type(j) is not int:
                raise ValueError(f"coefficient index {j!r} is not an int")
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
        n, m, nm = sg.n, sg.m, sg.n * sg.m
        if f.horizon != sg.branch_horizon:
            raise ValueError(f"truncation horizon must be 2*n*m = {sg.branch_horizon}, "
                             f"got {f.horizon}")
        if f.order != sg.order:
            raise NotAdapted("polynomial order does not match the semigroup")
        if (nm, m) not in f.terms:
            raise NotAdapted(f"missing x^{m} term")
        if f.terms.get((nm, 0)) != f.den:
            raise NotAdapted(f"coefficient of y^{n} must be 1")
        for d, a in f.terms:
            if d <= nm and (d, a) not in ((nm, m), (nm, 0)):
                raise NotAdapted(f"term x^{a}*y^{(d - n * a) // m} has weighted degree "
                                 f"{d} <= {nm}")

    @property
    def mu(self) -> Rat:
        """The coefficient of x^m."""
        return Rat(self.f.terms[(self.sg.n * self.sg.m, self.sg.m)], self.f.den)

    @cached_property
    def form(self) -> str:
        """The form of f: "nice" when mu = 1 and every other term lies on
        P, else "adapted".  f's terms past y^n (``TruncatedPoly.tail``)
        start at x^m, the one other term of degree nm, and each later key
        (d, a) lies on P exactly when d - nm is in the pair's table
        ``CuspidalSets.j_to_p``: the one monomial of degree d is then P's."""
        (_, mu), *rest = self.f.tail
        parts, nm = self.sg.sets.j_to_p, self.sg.n * self.sg.m
        return ("nice" if mu == self.f.den and all(d - nm in parts for (d, _), _ in rest)
                else "adapted")

    @cached_property
    def nice_coeffs(self) -> MappingProxyType:
        """j -> z_j over the nonzero z_j, j ascending; nice form required.
        One read-only mapping, built on the first read from
        ``delta_parts``."""
        return MappingProxyType({l: Rat(lz // l, zd) for l, lz, zd, _, _ in self.delta_parts})

    @cached_property
    def partials(self) -> tuple:
        """(f_x, f_y) at 2nm, exactly, over ``f.den``: the vector fields of
        the 1-forms apply them (``differentials.apply_vector_field``)."""
        return self.f.partials(self.sg.branch_horizon)

    @cached_property
    def support_sums(self) -> int:
        """The targets k <= 2nm that the support reaches, as a bitset: bit k
        is set iff k is a sum of parts j with nonzero z_j, repeats allowed
        (``sums_bitset``).  A target outside this set has no delta
        sequence.  The targets of every beta_j are below 2nm."""
        return sums_bitset([l for l, *_ in self.delta_parts], self.sg.branch_horizon)

    @cached_property
    def delta_parts(self) -> tuple:
        """The parts of the residue recurrence (``bernstein._delta_entries``):
        (l, l * numerator(z_l), denominator(z_l), p1, p2) for every nonzero
        z_l, l ascending, with (p1, p2) the monomial of l, read off f's
        numerators; nice form required.  f's terms past x^m, ascending
        (``TruncatedPoly.tail``), are the z_l in that order: the key (d, a)
        is that of l = d - nm, and the pair's table ``CuspidalSets.j_to_p``
        gives l's (p1, p2)."""
        if self.form != "nice":
            raise ValueError("coefficients by J-index exist only in nice form")
        f, parts, nm = self.f, self.sg.sets.j_to_p, self.sg.n * self.sg.m
        den = f.den
        out = []
        for (d, _), c in f.tail[1:]:
            l = d - nm
            p1, p2 = parts[l]
            g = gcd(c, den)
            out.append((l, l * (c // g), den // g, p1, p2))
        return tuple(out)

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
    """The sums <= limit of the parts, non-negative integers, repeats
    allowed, as a bitset: bit k is set iff k is such a sum (bit 0, the
    empty sum, always).

    Shifting by l, 2l, 4l, ... adds the multiples 0..(2^t - 1)*l of the
    part l after t shifts, so each part takes about log2(limit/l) shifts;
    a sum above the limit is dropped, as is each sum it extends.  A part
    that is already a sum of the parts before it is passed by: every sum
    it takes part in is one of those already.  The pass is also what ends
    the loop on a zero part, which ``_solve_branch`` gives for the x^m and
    y^n terms: 0 is always a sum, and a shift of 0 would never grow."""
    mask = (1 << (limit + 1)) - 1
    bits = 1
    for part in parts:
        if bits >> part & 1:
            continue  # a sum of earlier parts: it adds no new sum
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
    integers num != 0 and den > 0, where Y = y^b, or Y = t * (y^b)' when
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
                plain = self._table(b, False)
                got = tuple(map(mul, range(len(plain)), plain))
            else:
                got = tuple(_mul(self._table(b - 1, False), self.powers[1],
                                 self.t_horizon))
            tables[(b, theta)] = got
        return got

    def order(self, parts, upto: int) -> int | None:
        """The least K <= upto whose t^K coefficient in the sum of parts is
        nonzero, walking K upward; None when all of t^0..t^upto vanish.

        One pass scales each part by c0^b and finds the least start e0 of
        the parts, how many start there, and the lcm of the denominators.
        A part that starts past upto is dropped, and so is a part
        t * (y^0)', which is 0.  Every other part starts with a nonzero
        coefficient: num * c0^b / den times T[mb] = 1, or mb when theta,
        as v^b starts with s^(mb).  So a part alone at e0 makes e0 the
        order, and no table is read."""
        cn, cd, m = self.c0.numerator, self.c0.denominator, self.m
        scaled = []
        e0, den, ties = upto + 1, 1, 0
        for shift, b, theta, num, d in parts:
            start = shift + m * b
            if start <= upto and (b or not theta):
                d *= cd ** b
                scaled.append((start, shift, b, theta, num * cn ** b, d))
                den = lcm(den, d)
                if start < e0:
                    e0, ties = start, 1
                elif start == e0:
                    ties += 1
        if ties < 2:
            return e0 if ties else None
        # Row (shift, T, k): the t^K coefficient of the sum, times
        # den * D^(K - e0), is the sum of k * T[K - shift] over the rows of
        # the parts with start <= K (T vanishes below start - shift); a
        # part's row is built when K reaches its start.
        D, table = self.scale, self._table
        scaled.sort(reverse=True)
        rows = []
        for K in range(e0, upto + 1):
            while scaled and scaled[-1][0] <= K:
                start, shift, b, theta, num, d = scaled.pop()
                rows.append((shift, table(b, theta), num * (den // d) * D ** (start - e0)))
            total = 0
            for shift, row, k in rows:
                total += k * row[K - shift]
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
    (m is odd whenever n is even, since the pair is coprime).  The powers
    are taken on mu's numerator and denominator, which are coprime, and so
    are their powers.
    """
    u = (-pow(m % n, -1, n)) % n
    v = (1 + m * u) // n
    p, q = mu.numerator, mu.denominator
    mu_u, mu_v = Rat(p ** u, q ** u), Rat(p ** v, q ** v)
    if n % 2:
        return mu_u, -mu_v
    return -mu_u, mu_v


def _exact_div(a: int, b: int) -> int:
    """a / b for integers with b dividing a; a nonzero remainder raises."""
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"inexact division: remainder {r} modulo {b}")
    return q


def _mul(u, v, upto: int) -> list:
    """The product of the series u and v (coefficient lists, c[k] at
    s^k) through s^upto; only the nonzero coefficients of v are walked."""
    out = [0] * (upto + 1)
    nonzero = [(j, b) for j, b in enumerate(v[: upto + 1]) if b]
    for i, a in enumerate(u[: upto + 1]):
        if a:
            top = upto - i
            for j, b in nonzero:
                if j > top:
                    break
                out[i + j] += a * b
    return out


def _scaled_equation(f: TruncatedPoly, xi: Rat, c0: Rat) -> tuple:
    """(D, H): the scale D = n^2 * L and the integer terms (n*a, b, h) of
    H(s, v) = f(xi * (D*s)^n, c0 * D^m * v) / (c0^n * D^(nm)), whose term
    h * s^(n*a) * v^b comes from the term c * x^a * y^b of f.

    Each unit c * xi^a * c0^(b-n) is read off f's numerator over ``f.den``
    as a reduced p/q, from integer powers of the numerators and
    denominators of xi and c0, and L is the lcm of the q's."""
    order = f.order
    n, m, nm = order.n, order.m, order.n * order.m
    xn, xd, cn, cd = xi.numerator, xi.denominator, c0.numerator, c0.denominator
    units = []
    for (d, a), c in f.terms.items():
        b = (d - n * a) // m
        p, q = c * xn ** a, f.den * xd ** a
        if b >= n:
            p, q = p * cn ** (b - n), q * cd ** (b - n)
        else:
            p, q = p * cd ** (n - b), q * cn ** (n - b)
        g = gcd(p, q) if q > 0 else -gcd(p, q)
        units.append((n * a, b, d - nm, p // g, q // g))
    # x^m and y^n give -1 and 1, so taking them into L changes nothing.
    scale = n * n * lcm(*(q for *_, q in units))
    return scale, [(shift, b, _exact_div(p * scale ** e, q))
                   for shift, b, e, p, q in units]


def _solve_branch(n: int, m: int, terms, window: int) -> list:
    """The table v^0..v^top of the branch through s^window, top the largest
    b among the terms (shift, b, h) of H: the recursion n * v_k = -P_k for
    k = m+1..window, then the residual check (see ``newton_puiseux``).

    Both run on w = v / s^m, which starts with 1: the coefficient of
    s^(mb + i) in v^b is that of s^i in w^b, so each row of the table is
    held from its leading term on, and step k is step i = k - m,
    i = 1..span with span = window - m.  A term (shift, b, h) of weight
    nm + eps reads w^b at i - eps, from step i = eps on; the y^n term
    (eps = 0) reads the entry of w^n that step i is filling.

    The recursion holds w's support as the parallel lists js, ws (the j < i
    with w_j != 0, and w_j), so each entry of w^b is one dot product of ws
    with w^(b-1) read at i - js.  It takes only the steps i in S, the sums
    of the terms' eps (``sums_bitset``): at every other step w_i and each
    entry of each w^b are 0, so the step would leave the table as it is.
    By induction on i not in S: a read at i - eps >= 0 of a term with
    eps >= 1, and a product w_j * w^(b-1)[i - j] with 1 <= j < i and
    w_j != 0, so j in S, both fall on an index outside S (else
    i = eps + (i - eps) or j + (i - j) would be in S), which holds 0; the
    product with w_0 = 1 reads w^(b-1) at i itself, 0 by induction on b.
    So P_i = 0, w_i = 0, and every w^b is 0 at i.

    The check rebuilds each v^b from v alone by ``_mul``, and only
    through L_b = min(work, window + m(b - 1)), work = window + nm - m,
    which is all that it reads: as s^(mb) * w^b, with w^b through
    L_b - mb = min(span, work - mb).  A term (shift, b) = (na, b) of H has
    na + mb >= nm, so the residual through s^work reads v^b only through
    work - na <= work - nm + mb = window + m(b - 1), and no further than
    work.  v^b = v^(b-1) * v through s^L_b reads v^(b-1) only through
    L_b - m <= L_(b-1), since v_j = 0 for j < m, and v only through
    L_b - m(b - 1) <= window, where v ends.  The table's s^window is at
    most L_b for b >= 1; v^0 = 1 is written through s^window.  The
    residual vanishes through s^work exactly when H(s, v(s)) does."""
    nm = n * m
    top = max(b for _, b, _ in terms)
    work = window + nm - m
    span = window - m

    # rows[b][i] is the s^i coefficient of w^b for i = 0..span, and a row
    # b > n is filled only through work - mb, where s^(mb + i) reaches
    # work.  Each (b, w^b, w^(b-1), last index) of the chain is filled from
    # the row before it.
    rows = [[1] + [0] * span for _ in range(top + 1)]
    chain = [(b, rows[b], rows[b - 1], min(span, work - m * b)) for b in range(2, top + 1)]
    # (eps, h, w^b) of each term, in the order in which they start to read.
    pending = sorted(((shift + m * b - nm, h, rows[b]) for shift, b, h in terms),
                     key=itemgetter(0), reverse=True)
    active = []
    js, ws = [0], [1]  # the j < i with w_j != 0, ascending, and w_j
    reach = sums_bitset([eps for eps, _, _ in pending], span)
    for i in range(1, span + 1):
        if not reach >> i & 1:
            continue
        while pending and pending[-1][0] <= i:
            eps, h, row = pending.pop()
            active.append((h, row, eps))
        # While w = 1 + O(s^i), every w^b is too, and its entry at i is 0.
        if len(js) > 1:
            read = itemgetter(*[i - j for j in js])
            for b, power, lower, last in chain:
                if i > last:
                    break
                power[i] = sum(map(mul, ws, read(lower)))
        w_i = _exact_div(-sum(h * row[i - eps] for h, row, eps in active), n)
        if w_i:
            js.append(i)
            ws.append(w_i)
            rows[1][i] = w_i
            for b, power, _, last in chain:
                if i > last:
                    break
                power[i] += b * w_i

    # The check: each w^b rebuilt from w alone through L_b - mb.
    w = rows[1]
    pows = [[1] + [0] * window, w]
    for b in range(2, top + 1):
        pows.append(_mul(pows[-1], w, min(span, work - m * b)))
    # Each term adds h * s^eps * w^b; one with eps past span reads nothing.
    residual = [0] * (span + 1)
    for shift, b, h in terms:
        eps = shift + m * b - nm
        for k, c in enumerate(pows[b][:max(0, span + 1 - eps)], eps):
            if c:
                residual[k] += h * c
    if any(residual):
        raise NoSolution("residual does not vanish to the horizon")
    return [tuple(([0] * (m * b) + p)[:window + 1]) for b, p in enumerate(pows)]


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
    v_k = -P_k / n, an exact division (``_exact_div`` raises on a
    remainder); and adds b * v_k to the entries it filled.  A step whose
    k - m is no sum of the w - nm, w the weights of H's terms, is passed
    by: it would set v_k = 0 and leave every entry 0.  Postcondition (checked):
    the residual H(s, v(s)) vanishes through s^work on a table rebuilt
    from v alone by ``_mul``, not the recursion's own, each v^b
    only as far as the residual reads it.  That table v^0, v^1, ...,
    trimmed to s^t_horizon, is the one the parametrization holds.
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
