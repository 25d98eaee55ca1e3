"""Differential 1-forms on a cusp: values, tuning constants, and the minimal
standard basis computed by Delorme's algorithm.

The differential value of omega = A dx + B dy is read off the implicit
equation through the associated vector field X_omega = B d/dx - A d/dy: a
final reduction h of X_omega(f) modulo {f} with leading power (a, b) gives
nu(omega) = n(a+1) + m(b+1) - n*m, and a reduction that vanishes to the
horizon means the value is infinite.  The Newton-Puiseux parametrization
provides an independent oracle for the same number.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from math import gcd

from .curve import CurveEquation, Parametrization, Semigroup
from .poly import Exponent, TruncatedPoly
from .rationals import Rat
from .semimodules import AbstractSemimodule, _axis, covered
from .standard_basis import IntPoly, _subtract_shifted, final_reduction


class ValueMismatch(ValueError):
    """Tuning requires both 1-forms to realize the same finite value."""


@dataclass(frozen=True)
class OneForm:
    """omega = dx_coeff * dx + dy_coeff * dy with polynomial coefficients."""

    dx: TruncatedPoly
    dy: TruncatedPoly

    @classmethod
    def basic(cls, f: TruncatedPoly, which: str) -> "OneForm":
        """dx or dy over the ground ring of f, at its truncation horizon, so
        products against f are not clamped."""
        order, horizon = f.order, f.horizon
        one = TruncatedPoly.monomial(order, 1, (0, 0), horizon)
        zero = TruncatedPoly.zero(order, horizon)
        if which == "dx":
            return cls(one, zero)
        if which == "dy":
            return cls(zero, one)
        raise ValueError("which must be 'dx' or 'dy'")

    @property
    def is_zero(self) -> bool:
        return self.dx.is_zero and self.dy.is_zero

    def __add__(self, other: "OneForm") -> "OneForm":
        return OneForm(self.dx + other.dx, self.dy + other.dy)

    def mul_monomial(self, coeff, shift: Exponent) -> "OneForm":
        return OneForm(self.dx.mul_monomial(coeff, shift),
                       self.dy.mul_monomial(coeff, shift))


def apply_vector_field(omega: OneForm, eq: CurveEquation) -> TruncatedPoly:
    """X_omega(f) = dy_coeff * f_x - dx_coeff * f_y, from the equation's cached
    partials."""
    return omega.dy * eq.fx - omega.dx * eq.fy


def _value_of_power(sg: Semigroup, e: Exponent) -> int:
    return sg.n * (e[0] + 1) + sg.m * (e[1] + 1) - sg.n * sg.m


def differential_value(omega: OneForm, eq: CurveEquation) -> int | None:
    """nu(omega) from the implicit equation; None = infinite to the horizon."""
    red = final_reduction(IntPoly.of(apply_vector_field(omega, eq)), [eq.f_int])
    if red.vanished:
        return None
    return _value_of_power(eq.sg, red.remainder.leading_power)


def monomial_value(omega: OneForm) -> int:
    """min of the weighted degrees of x * dx_coeff and y * dy_coeff."""
    if omega.is_zero:
        raise ValueError("monomial value of the zero form")
    order = omega.dx.order if omega.dx.terms or not omega.dy.terms else omega.dy.order
    n, m = order.n, order.m
    best = None
    da = omega.dx.min_degree()
    if da is not None:
        best = n + da
    db = omega.dy.min_degree()
    if db is not None:
        best = m + db if best is None else min(best, m + db)
    return best


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
    pullback are read upward only to the first nonzero one.
    """
    param.check_cusp(omega.dx.order)
    n, m = param.n, param.m
    nm = n * m
    xn, xd = param.x_coeff.numerator, param.x_coeff.denominator
    parts = [(n * a + n - 1, b, False, c.numerator * xn ** (a + 1) * n,
              c.denominator * xd ** (a + 1)) for (a, b), c in omega.dx.terms.items()]
    parts += [(n * a - 1, b + 1, True, c.numerator * xn ** a,
               c.denominator * xd ** a * (b + 1)) for (a, b), c in omega.dy.terms.items()]
    horizon = min(2 * nm, omega.dx.horizon, omega.dy.horizon)
    upto = horizon - nm + n + m - 1
    if upto >= param.t_horizon:
        raise ValueError(f"a form at horizon {horizon} is read through t^{upto}, past "
                         f"the branch's window t^{param.t_horizon - 1}")
    o = param.order(parts, upto)
    return None if o is None else o + 1


def _tuning(r1: dict, den1: int, r2: dict, den2: int) -> tuple:
    """(mu, p, q): mu+ = -lc(r1)/lc(r2), the scalar that cancels the leading
    term of r1 against r2, and the integers with which ``delorme`` takes that
    step fraction-free.  r1 and r2 are reduced term maps of ``delorme``:
    integer numerators over the positive denominators den1 and den2, keyed
    by the order's sort key (weighted degree, x-exponent).  Both must be
    nonzero with the same leading power.

    With r0 and p0 the leading numerators and g = gcd(r0, p0), p = +-p0/g
    and q = +-r0/g, the sign making p positive.  Then
    r1/den1 + mu * r2/den2 = (p*r1 - q*r2) / (den1*p), with
    mu = -q*den2 / (den1*p)."""
    if not r1 or not r2:
        raise ValueMismatch("tuning needs finite values on both sides")
    lead1, lead2 = min(r1), min(r2)
    if lead1 != lead2:
        raise ValueMismatch(
            f"values differ: leading keys (degree, x-exponent) {lead1} vs {lead2}")
    r0, p0 = r1[lead1], r2[lead2]
    g = gcd(r0, p0)
    p, q = (p0 // g, r0 // g) if p0 > 0 else (-p0 // g, -r0 // g)
    return Rat(-q * den2, den1 * p), p, q


def _last_uncovered(sg: Semigroup, taken: set) -> int:
    """last: the largest value below the conductor outside ``taken``, the
    values that the lambda_j + Gamma cover.  No lambda_j is below n, so
    n - 1 <= last < c."""
    return next(k for k in range(sg.conductor - 1, -1, -1) if k not in taken)


@cache
def _round_plan(sg: Semigroup, lambdas: tuple) -> tuple:
    """(last, u, s) of the round that lifts the newest of ``lambdas``: last
    for the values the lambda_j + Gamma cover (``_last_uncovered``), the
    axis u of the round and the lift s = decompose(u - lambda_i).  It
    depends on (n, m) and the lambda prefix alone, so each plan is built
    once per process and read by every run that reaches it."""
    i = len(lambdas) - 1
    last = _last_uncovered(sg, covered(sg, lambdas, sg.conductor))
    u = _axis(sg, lambdas, i)
    return last, u, sg.decompose(u - lambdas[i])


def _lifted(g: dict, shift: Exponent, degree: int, horizon: int) -> dict:
    """x^shift * g cut at ``horizon``; ``degree`` is the weighted degree of
    x^shift."""
    da = shift[0]
    return {(d + degree, a + da): c for (d, a), c in g.items() if d + degree <= horizon}


def _reduce_by_f(g: dict, den: int, tail: tuple, fden: int, n: int, nm: int,
                 horizon: int) -> tuple:
    """Reduce g/den modulo f, the numerators g in place; return (lead, den):
    the leading key, None when g vanished to the horizon, and the new
    denominator.  f leads at y^n with coefficient 1, and ``tail`` holds its
    other terms as ((degree, a), numerator) over ``fden``, degree ascending.
    A step pops the leading numerator c at x^a*y^b, b >= n, and with
    gamma = gcd(c, fden) sets the numerators to
    (fden/gamma) * g - (c/gamma) * x^a*y^(b-n)*tail, cut at the horizon, over
    den * fden/gamma: the ``Fraction`` step (see ``delorme``), which scales
    nothing when fden = 1."""
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
    The h_i are ``IntPoly``, integer numerators over one positive
    denominator, as ``delorme`` computed them; ``.poly()`` gives each as a
    ``TruncatedPoly``, exactly.

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
        lps = self.leading_powers
        if (None in lps or tuple(_value_of_power(self.values.sg, e) for e in lps)
                != self.values.basis):
            raise ValueError(f"leading powers {lps} do not encode the values "
                             f"{self.values.basis}")

    @property
    def leading_powers(self) -> tuple:
        return tuple(h.leading_power for h in self.reductions)

    @cached_property
    def _replay(self) -> tuple:
        """(forms, trail), replayed from ``rounds`` and ``ended`` on the first
        read: the same operations in the same order as ``delorme`` would take."""
        zero = TruncatedPoly.zero(self.values.sg.order, self.reductions[0].horizon)
        forms = [OneForm.basic(zero, "dx"), OneForm.basic(zero, "dy")]
        trail = []
        for lift, steps in self.rounds + ((self.ended,) if self.ended else ()):
            eta = forms[-1].mul_monomial(1, lift)
            trail.append(eta)
            for j, mu, shift in steps:
                eta = eta + forms[j].mul_monomial(mu, shift)
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
    prefix and read by every later run that reaches it.

    The run is fraction-free.  It works on integer term maps keyed by
    ``WeightedOrder.key`` (weighted degree, x-exponent), so min() of a map
    is its leading term, each over one positive denominator; the h_i are
    returned as ``IntPoly``, and no subcommand turns them into
    ``TruncatedPoly``.  Let L be the lcm of the denominators of f's
    coefficients (``CurveEquation.f_int``).  f leads at y^n with
    coefficient 1 (``CurveEquation`` checks it), so its numerators are L at
    y^n and integers T on its tail.  Each step equals the step over
    ``Fraction`` coefficients, term for term:

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
      The recorded mu is that ``Rat``: the number the ``Fraction`` run
      records.
    - A lift x^s * g shifts the keys and keeps the numerators and the
      denominator.

    By induction on the steps, each map over its denominator is the
    ``Fraction`` run's polynomial.  So every leading key is the same, hence
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
    f = eq.f_int  # leads at (nm, 0), y^n, with numerator f.den
    fden = f.den
    tail = f.tail  # ascending: each shift adds degree >= 0, so a step stops past h

    # The seeds X_dx(f) = -f_y and X_dy(f) = f_x, cut at H_Delta, lead at
    # (0, n-1) and (m-1, 0), which the leading power (0, n) of f divides
    # neither, so they are their own final reductions; DifferentialBasis
    # checks the powers.  Each h_i is held as (numerators, denominator).
    fx, fy = f.partials(h)
    reductions = [({k: -c for k, c in fy.terms.items()}, fden), (fx.terms, fden)]
    lambdas = [n, m]
    rounds = []
    ended = None

    for i in range(1, n - 1):
        last, u, s = _round_plan(sg, tuple(lambdas))
        if u > last:
            ended = (s, ())
            break
        steps = []
        g, den = reductions[i]
        r = _lifted(g, s, u - lambdas[i], h)
        _, rden = _reduce_by_f(r, den, tail, fden, n, nm, h)
        value, usable = u, i  # the axis step may use only the forms before omega_i
        while True:
            # decompose is the membership test of value - lambda_j in Gamma.
            cover = next(((j, shift) for j in range(usable - 1, -1, -1)
                          if (shift := sg.decompose(value - lambdas[j])) is not None),
                         None)
            if cover is None:
                if usable == i:
                    raise AssertionError(f"no earlier basis form covers the axis {u}")
                break
            j, shift = cover
            g, den = reductions[j]
            part = _lifted(g, shift, value - lambdas[j], h)
            _, pden = _reduce_by_f(part, den, tail, fden, n, nm, h)
            mu, p, q = _tuning(r, rden, part, pden)
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
            usable = len(lambdas)

        if value is None:
            ended = (s, tuple(steps))
            break
        lambdas.append(value)
        rounds.append((s, tuple(steps)))
        reductions.append((r, rden))

    reductions = tuple(IntPoly(sg.order, h, g, den) for g, den in reductions)
    return DifferentialBasis(AbstractSemimodule(sg, tuple(lambdas)), reductions,
                             tuple(rounds), ended)
