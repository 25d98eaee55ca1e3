"""Differential 1-forms on a cusp: values, tuning constants, and the minimal
standard basis computed by Delorme's algorithm.

The differential value of omega = A dx + B dy is read off the implicit
equation through the associated vector field X_omega = B d/dx - A d/dy: the
reduction h of X_omega(f) modulo f (``_reduce_by_f``, the kernel of
Delorme's run) with leading power (a, b) gives
nu(omega) = n(a+1) + m(b+1) - n*m, and a reduction that vanishes to the
horizon means the value is infinite.  The Newton-Puiseux parametrization
provides an independent oracle for the same number.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from math import gcd, lcm

from .curve import CurveEquation, Parametrization, Semigroup
from .poly import TruncatedPoly, _add_products, _add_shifted, _subtract_shifted
from .rationals import Rat
from .semimodules import AbstractSemimodule, _axis, covered


class ValueMismatch(ValueError):
    """Tuning requires both 1-forms to realize the same finite value."""


@dataclass(frozen=True)
class OneForm:
    """omega = dx_coeff * dx + dy_coeff * dy with polynomial coefficients.

    The forms of ``DifferentialBasis`` are built in one pass per component
    (``DifferentialBasis._replay``); the tests compare them with the
    ``TruncatedPoly`` operators' route, ``basic_form``, ``form_add`` and
    ``form_mul_monomial`` of ``tests/cusp_testkit.py``."""

    dx: TruncatedPoly
    dy: TruncatedPoly

    @property
    def is_zero(self) -> bool:
        return not (self.dx or self.dy)


def apply_vector_field(omega: OneForm, eq: CurveEquation) -> TruncatedPoly:
    """X_omega(f) = B * f_x - A * f_y for omega = A dx + B dy, from the
    equation's cached partials: both products run in one map by the
    product kernel (``poly._add_products``), B's scaled by
    lcm(A.den, B.den)/B.den and A's by -lcm/A.den, so the numerators lie
    over lcm(A.den, B.den) * f.den, cut at the smallest horizon of A, B
    and the partials."""
    fx, fy = eq.partials
    a_side, b_side = omega.dx, omega.dy
    order = fx.order
    if a_side.order != order or b_side.order != order:
        raise ValueError("operands use different weighted orders")
    h = min(a_side.horizon, b_side.horizon, fx.horizon, fy.horizon)
    den = lcm(a_side.den, b_side.den)
    out: dict = {}
    _add_products(out, b_side, fx, den // b_side.den, h)
    _add_products(out, a_side, fy, -(den // a_side.den), h)
    return TruncatedPoly._raw(order, h, out, den * fx.den)


def differential_value(omega: OneForm, eq: CurveEquation) -> int | None:
    """nu(omega) from the implicit equation; None = infinite to the horizon.

    X_omega(f), whose horizon is at most f's 2nm, is reduced modulo f by
    ``delorme``'s kernel (``_reduce_by_f``), and nu = n(a+1) + m(b+1) - nm
    of the leading power (a, b) is d + n + m - nm, read off the leading
    key (d, a)."""
    g = apply_vector_field(omega, eq)
    sg, f = eq.sg, eq.f
    nm = sg.n * sg.m
    lead, _ = _reduce_by_f(dict(g.terms), g.den, f.tail, f.den, sg.n, nm, g.horizon)
    return None if lead is None else lead[0] + sg.n + sg.m - nm


def monomial_value(omega: OneForm) -> int:
    """min of the weighted degrees of x * dx_coeff and y * dy_coeff: n and m
    plus the leading degree of each nonzero coefficient."""
    if omega.is_zero:
        raise ValueError("monomial value of the zero form")
    order = (omega.dx if omega.dx.terms else omega.dy).order
    return min(w + p.lead[0] for w, p in ((order.n, omega.dx), (order.m, omega.dy)) if p.terms)


def oracle_differential_value(omega: OneForm, param: Parametrization) -> int | None:
    """nu(omega) = ord_t(pullback) + 1 along x = xi t^n, y = y(t).

    The pullback (A(phi) * xi * n * t^{n-1} + B(phi) * y'(t)) dt is read
    through power min(2nm, H) - nm + n + m - 1, H the smaller horizon of A
    and B.  That is, for every form, the window of ``differential_value``,
    which reduces at the smaller of H and f's 2nm (``newton_puiseux``);
    None marks an order past it.  A branch solved at H_f reads that window
    exactly for a form at H <= H_f (``Semigroup.branch_horizon``), and its
    table ends at t^(H_f - nm + n + m): a form whose window passes
    t^(t_horizon - 1) raises ``ValueError`` instead of reading an order
    the branch does not hold.  Each
    monomial is one part of ``param``'s integer table, the term c*x^a*y^b*dy
    by y^b * y' = t^-1 * t(y^(b+1))' / (b+1), and the coefficients of the
    pullback are read upward only to the first nonzero one, and not at all
    when one part alone starts lowest (``Parametrization.order``).
    """
    param.check_cusp(omega.dx.order)
    n, m = param.n, param.m
    nm = n * m
    xn, xd = param.x_coeff.numerator, param.x_coeff.denominator
    dx, dy = omega.dx, omega.dy
    parts = [(n * a + n - 1, (d - n * a) // m, False, c * xn ** (a + 1) * n,
              dx.den * xd ** (a + 1)) for (d, a), c in dx.terms.items()]
    for (d, a), c in dy.terms.items():
        b1 = (d - n * a) // m + 1
        parts.append((n * a - 1, b1, True, c * xn ** a, dy.den * xd ** a * b1))
    horizon = min(2 * nm, dx.horizon, dy.horizon)
    upto = horizon - nm + n + m - 1
    if upto >= param.t_horizon:
        raise ValueError(f"a form at horizon {horizon} is read through t^{upto}, past "
                         f"the branch's window t^{param.t_horizon - 1}")
    o = param.order(parts, upto)
    return None if o is None else o + 1


def _tuning(r1: dict, den1: int, lead1: tuple | None, r2: dict, den2: int,
            lead2: tuple | None) -> tuple:
    """(mu, p, q): mu+ = -lc(r1)/lc(r2), the scalar that cancels the leading
    term of r1 against r2, and the integers with which ``delorme`` takes that
    step fraction-free.  r1 and r2 are reduced term maps of ``delorme``:
    integer numerators over the positive denominators den1 and den2, keyed
    by the order's sort key (weighted degree, x-exponent), and lead1 and
    lead2 their leading keys as ``_reduce_by_f`` returns them, None for a
    map that vanished.  Both must be nonzero with the same leading power.

    With r0 and p0 the leading numerators and g = gcd(r0, p0), p = +-p0/g
    and q = +-r0/g, the sign making p positive.  Then
    r1/den1 + mu * r2/den2 = (p*r1 - q*r2) / (den1*p), with
    mu = -q*den2 / (den1*p)."""
    if lead1 is None or lead2 is None:
        raise ValueMismatch("tuning needs finite values on both sides")
    if lead1 != lead2:
        raise ValueMismatch(
            f"values differ: leading keys (degree, x-exponent) {lead1} vs {lead2}")
    r0, p0 = r1[lead1], r2[lead1]
    g = gcd(r0, p0)
    p, q = (p0 // g, r0 // g) if p0 > 0 else (-p0 // g, -r0 // g)
    return Rat(-q * den2, den1 * p), p, q


def _last_uncovered(sg: Semigroup, taken: int) -> int:
    """last: the highest clear bit below the conductor of ``taken``, the
    bitset of the values that the lambda_j + Gamma cover
    (``semimodules.covered``).  No lambda_j is below n, so
    n - 1 <= last < c."""
    return (~taken & (1 << sg.conductor) - 1).bit_length() - 1


@cache
def _round_plan(sg: Semigroup, lambdas: tuple) -> tuple:
    """(last, u, s) of the round that lifts the newest of ``lambdas``: last,
    the highest clear bit of the cover of the lambda_j + Gamma
    (``covered``, ``_last_uncovered``), the axis u of the round, the lowest
    common bit of two such covers (``_axis``), both shifts of
    ``Semigroup.mask``, and the lift s = decompose(u - lambda_i), the one
    read that needs an exponent.  It depends on (n, m) and the lambda
    prefix alone, so each plan is built once per process and read by every
    run that reaches it."""
    i = len(lambdas) - 1
    last = _last_uncovered(sg, covered(sg, lambdas, sg.conductor))
    u = _axis(sg, lambdas, i)
    return last, u, sg.decompose(u - lambdas[i])


@cache
def _cover(sg: Semigroup, lambdas: tuple, value: int) -> tuple | None:
    """(j, shift) for the largest j with value - lambda_j in Gamma, shift
    its exponent (``decompose``, the membership test), or None when no
    lambda_j + Gamma covers ``value``: the form that a tuning step at
    ``value`` takes among the ``lambdas`` it may use.  It depends on (n, m),
    those lambdas and the value alone, so each is found once per process
    and read by every run that reaches it."""
    for j in range(len(lambdas) - 1, -1, -1):
        shift = sg.decompose(value - lambdas[j])
        if shift is not None:
            return j, shift
    return None


def _lifted(g: TruncatedPoly, degree: int, da: int, horizon: int) -> dict:
    """The numerators of x^s * g, over ``g.den``, cut at ``horizon``: x^s
    has weighted degree ``degree`` and x-exponent ``da``, as in
    ``poly._subtract_shifted``."""
    return {(d + degree, a + da): c for (d, a), c in g.terms.items() if d + degree <= horizon}


def _reduce_by_f(g: dict, den: int, tail: tuple, fden: int, n: int, nm: int,
                 horizon: int) -> tuple:
    """Reduce g/den modulo f, the numerators g in place; return (lead, den):
    the leading key, None when g vanished to the horizon, and the new
    denominator.  f leads at y^n with coefficient 1, and ``tail`` holds its
    other terms as ((degree, a), numerator) over ``fden``, degree ascending.
    A step pops the leading numerator c at x^a*y^b, b >= n, and with
    gamma = gcd(c, fden) sets the numerators to
    (fden/gamma) * g - (c/gamma) * x^a*y^(b-n)*tail, cut at the horizon, over
    den * fden/gamma: the rational step (see ``delorme``), which scales
    nothing when fden = 1.  It is the step of ``final_reduction(g, [f])``,
    and the one reduction modulo f of the program: ``delorme`` and
    ``differential_value`` run it."""
    while g:
        lead = min(g)
        d, a = lead
        if d - n * a < nm:  # m*b < nm: y^n does not divide the leading power
            return lead, den
        c = g.pop(lead)
        gam = gcd(c, fden)
        if gam != fden:
            scale = fden // gam
            for k in g:
                g[k] *= scale
            den *= scale
        _subtract_shifted(g, c // gam, tail, d - nm, a, horizon)
    return None, den


@dataclass(frozen=True)
class DifferentialBasis:
    """Minimal standard basis: the semimodule of values, the final
    reductions h_i of X_{omega_i}(f) whose leading powers encode the values,
    and the record from which the 1-forms omega_i are built when first read.
    The h_i are ``TruncatedPoly``, integer numerators over the one
    positive denominator that ``delorme`` reached for each.

    ``rounds`` holds, for each omega_i after dx and dy, the shift s of the
    lift x^s * omega_(i-1) and the tuning steps (j, mu, shift), each adding
    mu * x^shift * omega_j; ``ended`` is the record of the round that ended
    the run, None if s = n - 2 was reached.  The forms are replayed at the
    horizon of the reductions, H_Delta.
    """

    values: AbstractSemimodule
    reductions: tuple
    rounds: tuple
    ended: tuple | None

    def __post_init__(self) -> None:
        # The inversion nu = n(a+1) + m(b+1) - n*m must give back the basis;
        # this also rules out a zero h_i and fixes the seeds (0, n-1), (m-1, 0).
        # nu is d + n + m - nm, d = na + mb the degree of the leading key.
        sg = self.values.sg
        shift = sg.n + sg.m - sg.n * sg.m
        leads = [h.lead for h in self.reductions]
        if None in leads or tuple(d + shift for d, _ in leads) != self.values.basis:
            raise ValueError(f"leading powers {self.leading_powers} do not encode the "
                             f"values {self.values.basis}")

    @property
    def leading_powers(self) -> tuple:
        return tuple(h.leading_power for h in self.reductions)

    @cached_property
    def _replay(self) -> tuple:
        """(forms, trail), replayed from ``rounds`` and ``ended`` on the first
        read: the same operations in the same order as ``delorme`` would
        take.  Each form is built in one pass per component, straight to
        its numerators: a lift x^s * eta keeps eta's denominator
        (``_lifted``), and a step eta + mu * x^s * omega_j sets each
        component over lcm(den_eta, den(mu) * den_omega) by ``_add_shifted``,
        the kernel of ``TruncatedPoly``'s sum.  That is the form of the
        operators' route (``form_mul_monomial`` and ``form_add`` in
        ``tests/cusp_testkit.py``), term for term, with the same
        denominators.  The last form of each completed round is its basis
        form, the one object in both tuples."""
        order = self.values.sg.order
        h = self.reductions[0].horizon

        def form(dx: dict, dx_den: int, dy: dict, dy_den: int) -> OneForm:
            return OneForm(TruncatedPoly._raw(order, h, dx, dx_den),
                           TruncatedPoly._raw(order, h, dy, dy_den))

        forms = [form({(0, 0): 1}, 1, {}, 1), form({}, 1, {(0, 0): 1}, 1)]
        trail = []
        for lift, steps in self.rounds + ((self.ended,) if self.ended else ()):
            w, degree = forms[-1], order.degree(lift)
            eta = form(_lifted(w.dx, degree, lift[0], h), w.dx.den,
                       _lifted(w.dy, degree, lift[0], h), w.dy.den)
            trail.append(eta)
            for j, mu, shift in steps:
                w, degree = forms[j], order.degree(shift)
                eta = form(*_add_shifted(eta.dx, mu, w.dx, degree, shift[0], h),
                           *_add_shifted(eta.dy, mu, w.dy, degree, shift[0], h))
                trail.append(eta)
            forms.append(eta)
        return tuple(forms[:2 + len(self.rounds)]), tuple(trail)

    @cached_property
    def forms(self) -> tuple:
        """The basis 1-forms: dx, dy and the last form of each completed round."""
        return self._replay[0]

    @property
    def trail(self) -> tuple:
        """Every form the run passed through after dx and dy: each lift
        x^s * omega_i and each tuned form, the ending round's included."""
        return self._replay[1]


def delorme(eq: CurveEquation) -> DifferentialBasis:
    """Delorme's algorithm: the minimal standard basis of the differentials.

    Starting from (dx, dy), round i lifts the newest basis form omega_i by the
    monomial x^s of value u_i - lambda_i (u_i the axis) and then tunes it:
    each step cancels the leading term of the running reduction against
    mu+ x^shift omega_j, for the largest j whose shifted semigroup covers the
    current value.  The first step, at the axis itself, must use an earlier
    form than omega_i; later ones may use any.  Every step strictly raises the
    value (checked).  A round ends with a fresh basis 1-form (its value is a
    gap covered by no basis form) or with the value escaping to infinity,
    which terminates the algorithm.  The run itself tunes only the
    reductions: it records each round's lift and steps, the ending round's
    as ``ended``, and ``DifferentialBasis`` builds the 1-forms from that
    record when a caller first reads them.

    A round ends the run, with the value infinite, as soon as its value (the
    axis first) passes last: the largest value below the conductor c that no
    lambda_j + Gamma covers (``_last_uncovered``; n - 1 <= last < c).  The
    cut changes no output:

    - A round ends with a new basis value only at a value that no lambda_j
      covers.  Every value >= c lies in Gamma \\ {0} = (n + Gamma) u
      (m + Gamma), so that value is below c, hence <= last.  (The axis step
      never ends the round: an earlier form covers the axis, which is
      checked, and the step raises the value.)
    - Values rise strictly along a round, which is checked at every step,
      so a round past last can only climb through covered values or
      vanish: it cannot end with a new basis value.
    - An infinite round adds no basis value: the run records it as
      ``ended`` and breaks before it touches ``lambdas``, ``rounds`` or
      ``reductions``.

    Ending the round at c instead is the case last = c - 1.  The plan of a
    round, (last, u, s) (``_round_plan``), depends on (n, m) and the lambda
    prefix alone, never on the curve, so it is built once per pair and
    prefix and read by every later run that reaches it; so is the form that
    covers each value a step reaches (``_cover``).

    The run is fraction-free.  It works on integer term maps keyed by
    (weighted degree, x-exponent), as ``TruncatedPoly.terms`` is, so min()
    of a map is its leading term, each over one positive denominator, and
    the h_i are returned as the ``TruncatedPoly`` of their maps.  Let L be
    ``f.den``, the lcm of the denominators of f's coefficients.  f leads at
    y^n with coefficient 1 (``CurveEquation`` checks it), so its numerators
    are L at y^n and integers T on its tail.  Each step equals the step
    with rational coefficients, term for term:

    - Reduction modulo f (``_reduce_by_f``), in place.  f is the only
      divisor, so the step is that of ``final_reduction(g, [f])``.  While
      the leading term of g = G/den is (c/den)*x^a*y^b with b >= n, it
      subtracts (c/den)*x^a*y^(b-n)*f: the leading term cancels and
      -(c/(den*L))*x^a*y^(b-n)*T is added, every term above H_Delta
      dropped.  With gamma = gcd(c, L) that is
      ((L/gamma)*G' - (c/gamma)*x^a*y^(b-n)*T) / (den*L/gamma), G' being G
      without its leading term: the integer step, which drops the same
      terms.  Once b < n, f divides nothing and both stop.  For L = 1 the
      step scales nothing.
    - Tuning (``_tuning``).  Let r = R/den_r and part = P/den_p lead at the
      same power with numerators r0 and p0, and g = gcd(r0, p0).  Then
      mu = -(r0/den_r)/(p0/den_p) = -(r0/g)*den_p / (den_r*(p0/g)), and
      r + mu*part = ((p0/g)*R - (r0/g)*P) / (den_r*(p0/g)).  Flipping the
      sign of both quotients when p0 < 0 keeps the denominator positive.
      The recorded mu is that ``Rat``: the number the rational run
      records.
    - A lift x^s * g shifts the keys and keeps the numerators and the
      denominator.

    By induction on the steps, each map over its denominator is the
    rational run's polynomial.  So every leading key is the same, hence
    every branch, value and check, and so are ``rounds``, ``ended`` and the
    h_i.

    f, f_x and f_y are cut once, at H_Delta = max(D, nm)
    (``Semigroup.delorme_horizon``, D = 2nm - 2n - 2m the Hessian degree);
    the values, the leading powers, the forms' values and the h_i modulo
    the monomials of degree > H_Delta are those of every horizon
    >= H_Delta, f's own 2nm included:

    - Arithmetic cut at horizon H is exact in R/m_{>H}, where m_{>H} is
      spanned by the monomials of weighted degree > H, and a reduction step
      modulo f cancels the leading term and adds only terms above the
      current leading degree.  So the run at H takes the steps of the run
      at any larger horizon for as long as every leading term it reads has
      degree <= H, with the same tuning constants.
    - The values it reads are below the conductor c = nm - n - m + 1, since
      a value or axis > last ends the round, and last < c.  A value
      nu < c leads at (a, b) with n(a+1) + m(b+1) - nm = nu, so at weighted
      degree nu - n - m + nm <= 2nm - 2n - 2m = D <= H_Delta.  A reduction
      that vanishes at H_Delta therefore has value >= c at every horizon:
      infinite either way.  Without the axis cut, a round whose axis is
      >= c could see its lifted reduction vanish at H_Delta and fail to tune.
    - The seeds need x^m and y^n intact: X_dx(f) = -f_y and X_dy(f) = f_x
      lead at n*y^(n-1) and m*mu*x^(m-1), and f leads at y^n, of degree nm.
      Hence H_Delta >= nm; it exceeds D only on (2, m), (3, 4) and (3, 5).
    - A form loses at H_Delta only monomials c*x^a*y^b*dx or dy of degree
      > H_Delta, whose values are at least their monomial values, above
      H_Delta + n > c.  A basis value is below c, so every form keeps its
      value and its monomial value, and the oracle reads the same order
      from its pullback.  A form of the ending round may pass c; both routes
      read it in the one window of its horizon (``oracle_differential_value``).
    """
    sg = eq.sg
    n, m, nm = sg.n, sg.m, sg.n * sg.m
    h = sg.delorme_horizon
    f = eq.f  # leads at (nm, 0), y^n, with numerator f.den
    fden = f.den
    tail = f.tail  # ascending: each shift adds degree >= 0, so a step stops past h

    # The seeds X_dx(f) = -f_y and X_dy(f) = f_x, cut at H_Delta, lead at
    # (0, n-1) and (m-1, 0), which the leading power (0, n) of f divides
    # neither, so they are their own final reductions; DifferentialBasis
    # checks the powers.
    fx, fy = f.partials(h)
    reductions = [TruncatedPoly._raw(sg.order, h, {k: -c for k, c in fy.terms.items()}, fden),
                  fx]
    lambdas = [n, m]
    rounds = []
    ended = None

    for i in range(1, n - 1):
        prefix = tuple(lambdas)
        last, u, s = _round_plan(sg, prefix)
        if u > last:
            ended = (s, ())
            break
        steps = []
        r = _lifted(reductions[i], u - lambdas[i], s[0], h)
        lead, rden = _reduce_by_f(r, reductions[i].den, tail, fden, n, nm, h)
        value, usable = u, prefix[:i]  # the axis step may use only the forms before omega_i
        while True:
            cover = _cover(sg, usable, value)
            if cover is None:
                if len(usable) == i:
                    raise AssertionError(f"no earlier basis form covers the axis {u}")
                break
            j, shift = cover
            part = _lifted(reductions[j], value - lambdas[j], shift[0], h)
            plead, pden = _reduce_by_f(part, reductions[j].den, tail, fden, n, nm, h)
            mu, p, q = _tuning(r, rden, lead, part, pden, plead)
            steps.append((j, mu, shift))
            if p != 1:  # r <- p*r - q*part over rden*p: r + mu*part, in place
                for k in r:
                    r[k] *= p
                rden *= p
            _subtract_shifted(r, q, part.items(), 0, 0, h)  # all of part lies below h
            lead, rden = _reduce_by_f(r, rden, tail, fden, n, nm, h)
            if lead is None:
                value = None
                break
            raised = lead[0] + n + m - nm
            if raised <= value:
                raise AssertionError("tuning failed to raise the value")
            value = raised
            if value > last:
                value = None
                break
            usable = prefix

        if value is None:
            ended = (s, tuple(steps))
            break
        lambdas.append(value)
        rounds.append((s, tuple(steps)))
        reductions.append(TruncatedPoly._raw(sg.order, h, r, rden))

    return DifferentialBasis(AbstractSemimodule(sg, tuple(lambdas)), tuple(reductions),
                             tuple(rounds), ended)
