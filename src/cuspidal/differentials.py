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

import random
from dataclasses import dataclass
from functools import cached_property

from .curve import CurveEquation, Parametrization, Semigroup
from .poly import Exponent, TruncatedPoly
from .rationals import Rat, rat
from .semimodules import AbstractSemimodule, _axis, covered
from .standard_basis import FinalReduction, final_reduction


class ValueMismatch(ValueError):
    """Tuning requires both 1-forms to realize the same finite value."""


@dataclass(frozen=True)
class OneForm:
    """omega = dx_coeff * dx + dy_coeff * dy with polynomial coefficients."""

    dx: TruncatedPoly
    dy: TruncatedPoly

    @classmethod
    def d(cls, h: TruncatedPoly) -> "OneForm":
        """The exact differential dh."""
        return cls(h.partial_x(), h.partial_y())

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

    def scale(self, c) -> "OneForm":
        c = rat(c)
        return OneForm(self.dx.scale(c), self.dy.scale(c))

    def mul_monomial(self, coeff, shift: Exponent) -> "OneForm":
        return OneForm(self.dx.mul_monomial(coeff, shift),
                       self.dy.mul_monomial(coeff, shift))


def random_form(rng: random.Random, eq: CurveEquation) -> OneForm:
    """A nonzero 1-form A dx + B dy with 0-2 monomials on each side, small
    integer coefficients, and weighted degrees at most nm."""
    sg = eq.sg
    nm = sg.n * sg.m
    order = eq.f.order
    horizon = eq.f.horizon
    while True:
        sides = []
        for _ in range(2):
            # A repeated monomial adds up; the constructor drops a sum that cancels.
            terms = {}
            for _ in range(rng.randint(0, 2)):
                while True:
                    a = rng.randint(0, nm // sg.n)
                    b = rng.randint(0, sg.n - 1)
                    if sg.n * a + sg.m * b <= nm:
                        break
                coeff = Rat(rng.choice([-1, 1]) * rng.randint(1, 3))
                terms[(a, b)] = terms[(a, b)] + coeff if (a, b) in terms else coeff
            sides.append(TruncatedPoly(order, horizon, terms))
        form = OneForm(sides[0], sides[1])
        if not form.is_zero:
            return form


def apply_vector_field(omega: OneForm, eq: CurveEquation) -> TruncatedPoly:
    """X_omega(f) = dy_coeff * f_x - dx_coeff * f_y, from the equation's cached
    partials."""
    return omega.dy * eq.fx - omega.dx * eq.fy


def _value_of_power(sg: Semigroup, e: Exponent) -> int:
    return sg.n * (e[0] + 1) + sg.m * (e[1] + 1) - sg.n * sg.m


def differential_value(omega: OneForm, eq: CurveEquation) -> int | None:
    """nu(omega) from the implicit equation; None = infinite to the horizon."""
    red = final_reduction(apply_vector_field(omega, eq), [eq.f])
    if red.vanished:
        return None
    return _value_of_power(eq.sg, red.poly.leading_power)


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

    The pullback (A(phi) * xi * n * t^{n-1} + B(phi) * y'(t)) dt is trusted
    through power t_horizon - 1; None marks an order past that window.  Each
    monomial is one part of ``param``'s integer table, the term c*x^a*y^b*dy
    by y^b * y' = t^-1 * t(y^(b+1))' / (b+1), and the coefficients of the
    pullback are read upward only to the first nonzero one.
    """
    param.check_cusp(omega.dx.order)
    n = param.n
    xn, xd = param.x_coeff.numerator, param.x_coeff.denominator
    parts = [(n * a + n - 1, b, False, c.numerator * xn ** (a + 1) * n,
              c.denominator * xd ** (a + 1)) for (a, b), c in omega.dx.terms.items()]
    parts += [(n * a - 1, b + 1, True, c.numerator * xn ** a,
               c.denominator * xd ** a * (b + 1)) for (a, b), c in omega.dy.terms.items()]
    o = param.order(parts, param.t_horizon - 1)
    return None if o is None else o + 1


def _tuning(r1: FinalReduction, r2: FinalReduction) -> Rat:
    """mu+ = -lc(r1)/lc(r2): the scalar that cancels the leading term of r1
    against r2.  Both reductions must be nonzero with the same leading power."""
    if r1.vanished or r2.vanished:
        raise ValueMismatch("tuning needs finite values on both sides")
    lt1, lt2 = r1.poly.leading, r2.poly.leading
    if lt1.exponent != lt2.exponent:
        raise ValueMismatch(
            f"values differ: leading powers {lt1.exponent} vs {lt2.exponent}")
    return -lt1.coeff / lt2.coeff


def _last_uncovered(sg: Semigroup, taken: set) -> int:
    """last: the largest value below the conductor outside ``taken``, the
    values that the lambda_j + Gamma cover.  No lambda_j is below n, so
    n - 1 <= last < c."""
    return next(k for k in range(sg.conductor - 1, -1, -1) if k not in taken)


@dataclass(frozen=True)
class DifferentialBasis:
    """Minimal standard basis: the semimodule of values, the final
    reductions h_i of X_{omega_i}(f) whose leading powers encode the values,
    and the record from which the 1-forms omega_i are built when first read.

    ``rounds`` holds, for each omega_i after dx and dy, the shift s of the
    lift x^s * omega_(i-1) and the tuning steps (j, mu, shift), each adding
    mu * x^shift * omega_j; ``horizon`` is that of the forms.
    """

    values: AbstractSemimodule
    reductions: tuple
    horizon: int
    rounds: tuple

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
    def forms(self) -> tuple:
        """The basis 1-forms, replayed from ``rounds`` on the first read:
        the same operations in the same order as ``delorme`` would take."""
        zero = TruncatedPoly.zero(self.values.sg.order, self.horizon)
        forms = [OneForm.basic(zero, "dx"), OneForm.basic(zero, "dy")]
        for lift, steps in self.rounds:
            eta = forms[-1].mul_monomial(1, lift)
            for j, mu, shift in steps:
                eta = eta + forms[j].mul_monomial(mu, shift)
            forms.append(eta)
        return tuple(forms)


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
    reductions: it records each round's lift and steps, and
    ``DifferentialBasis.forms`` builds the 1-forms from that record when a
    caller first reads them.

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
    - An infinite round returns nothing: the run breaks before it touches
      ``lambdas``, ``rounds`` or ``reductions``.

    Ending the round at c instead is the case last = c - 1.

    f, f_x and f_y are cut once, at H_Delta = max(D, nm)
    (``Semigroup.delorme_horizon``, D = 2nm - 2n - 2m the Hessian degree),
    whatever the horizon of f; the values, the leading powers, the forms'
    values and the h_i modulo the monomials of degree > H_Delta are those of
    every horizon >= H_Delta, f's own (>= 2nm) included:

    - ``TruncatedPoly`` arithmetic at horizon H is exact in R/m_{>H}, where
      m_{>H} is spanned by the monomials of weighted degree > H, and a
      reduction step modulo f cancels the leading term and adds only terms
      above the current leading degree.  So the run at H takes the steps of
      the run at any larger horizon for as long as every leading term it
      reads has degree <= H, with the same tuning constants.
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
      from its pullback.
    """
    sg = eq.sg
    c = sg.conductor
    h = sg.delorme_horizon
    f, fx, fy = (p.truncated(h) for p in (eq.f, eq.fx, eq.fy))

    # The seeds X_dx(f) = -f_y and X_dy(f) = f_x lead at (0, n-1) and
    # (m-1, 0), which the leading power (0, n) of f divides neither, so they
    # are their own final reductions; DifferentialBasis checks the powers.
    reductions = [-fy, fx]
    lambdas = [sg.n, sg.m]
    taken = covered(sg, lambdas, c)
    rounds = []

    for i in range(1, sg.n - 1):
        last = _last_uncovered(sg, taken)
        u = _axis(sg, tuple(lambdas), i)
        if u > last:
            break
        s = sg.decompose(u - lambdas[i])
        steps = []
        r = final_reduction(reductions[i].mul_monomial(1, s), [f])
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
            part = final_reduction(reductions[j].mul_monomial(1, shift), [f])
            mu = _tuning(r, part)
            steps.append((j, mu, shift))
            r = final_reduction(r.poly + part.poly.scale(mu), [f])
            if r.vanished:
                value = None
                break
            raised = _value_of_power(sg, r.poly.leading_power)
            if raised <= value:
                raise AssertionError("tuning failed to raise the value")
            value = raised
            if value > last:
                value = None
                break
            usable = len(lambdas)

        if value is None:
            break
        lambdas.append(value)
        taken |= covered(sg, (value,), c)
        rounds.append((s, tuple(steps)))
        reductions.append(r.poly)

    return DifferentialBasis(AbstractSemimodule(sg, tuple(lambdas)), tuple(reductions),
                             h, tuple(rounds))
