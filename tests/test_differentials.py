"""Differential values, the minimal basis algorithm, and the series oracle."""
from __future__ import annotations

import inspect
import random
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest

from cuspidal import CurveEquation, Semigroup, cuspidal_sets, parse_spec
from cuspidal import differentials
from cuspidal.curve import newton_puiseux
from cuspidal.differentials import (
    DifferentialBasis,
    OneForm,
    ValueMismatch,
    _last_uncovered,
    _round_plan,
    _tuning,
    apply_vector_field,
    delorme,
    differential_value,
    monomial_value,
    oracle_differential_value,
)
from cuspidal.poly import TruncatedPoly
from cuspidal.rationals import Rat
from cuspidal.semimodules import AbstractSemimodule, _axis, covered
from cuspidal.standard_basis import final_reduction, reduce_step
from cusp_testkit import (CORPUS, FractionPoly, adapted_curves, basic_form, coprime_pairs,
                          curve_draws, form_add, form_mul_monomial, fraction_reduction,
                          nice_curves, random_form)
from branch_window_sweep import check_curve, sweep_curves

EQ45 = CurveEquation.nice(Semigroup(4, 5), {2: Rat(1)})
EQ49 = CurveEquation.nice(Semigroup(4, 9), {1: Rat(1)})


def test_basic_forms_have_axis_values():
    for eq in (EQ45, EQ49):
        assert differential_value(basic_form(eq.f, "dx"), eq) == eq.sg.n
        assert differential_value(basic_form(eq.f, "dy"), eq) == eq.sg.m


def test_vector_field_of_the_equation_vanishes():
    # X_df(f) = f_y f_x - f_x f_y = 0, so df carries no finite value
    df = OneForm(*EQ45.partials)
    assert not apply_vector_field(df, EQ45)
    assert differential_value(df, EQ45) is None


def test_monomial_value():
    eq = EQ45
    x_dy = form_mul_monomial(basic_form(eq.f, "dy"), Rat(1), (1, 0))
    y_dx = form_mul_monomial(basic_form(eq.f, "dx"), Rat(1), (0, 1))
    assert monomial_value(x_dy) == 9
    assert monomial_value(y_dx) == 9
    assert monomial_value(form_add(x_dy, form_mul_monomial(y_dx, Rat(-5, 4), (0, 0)))) == 9


def test_monomial_forms_realize_their_value():
    """nu(x^a y^b dx) = n(a+1) + m(b+1) - nm wherever that lies in Gamma."""
    eq = EQ49
    n, m = eq.sg.n, eq.sg.m
    for a, b, which in [(0, 0, "dx"), (0, 0, "dy"), (2, 0, "dx"), (1, 1, "dy")]:
        w = form_mul_monomial(basic_form(eq.f, which), Rat(1), (a, b))
        assert differential_value(w, eq) == monomial_value(w)
        base = n if which == "dx" else m
        assert monomial_value(w) == base + n * a + m * b


def _reduced(w: OneForm, eq: CurveEquation) -> tuple:
    """The final reduction of X_w(f) modulo f, as ``delorme`` holds it:
    integer numerators keyed by (weighted degree, x-exponent), their
    denominator and the leading key, None when it vanished."""
    red = final_reduction(apply_vector_field(w, eq), [eq.f]).remainder
    return red.terms, red.den, red.lead


def test_tuning_constant_45():
    """mu+ = -mu1/mu2 from the leading terms of the final reductions of
    X_eta1(f) and X_eta2(f) raises the value of eta1 + mu+ eta2, and the
    integers (p, q) take the same step fraction-free."""
    eq = EQ45
    x_dy = form_mul_monomial(basic_form(eq.f, "dy"), Rat(1), (1, 0))
    y_dx = form_mul_monomial(basic_form(eq.f, "dx"), Rat(1), (0, 1))
    (r1, den1, lead1), (r2, den2, lead2) = _reduced(x_dy, eq), _reduced(y_dx, eq)
    mu, p, q = _tuning(r1, den1, lead1, r2, den2, lead2)
    assert mu == Rat(-5, 4)
    assert p > 0
    fraction_free = {k: Rat(p * r1.get(k, 0) - q * r2.get(k, 0), den1 * p)
                     for k in r1.keys() | r2.keys()}
    assert fraction_free == {k: Rat(r1.get(k, 0), den1) + mu * Rat(r2.get(k, 0), den2)
                             for k in r1.keys() | r2.keys()}
    jumped = form_add(x_dy, form_mul_monomial(y_dx, mu, (0, 0)))
    assert differential_value(jumped, eq) == 11


def test_tuning_constant_needs_equal_values():
    dx, dy = basic_form(EQ45.f, "dx"), basic_form(EQ45.f, "dy")
    with pytest.raises(ValueMismatch, match=r"values differ: .* \(15, 0\) vs \(16, 4\)"):
        _tuning(*_reduced(dx, EQ45), *_reduced(dy, EQ45))
    # df has infinite value: X_df(f) = 0, so its reduction vanishes
    with pytest.raises(ValueMismatch, match="finite values"):
        _tuning(*_reduced(dx, EQ45), *_reduced(OneForm(*EQ45.partials), EQ45))


@pytest.mark.parametrize("eq,lambdas,lps", [
    (EQ45, (4, 5, 11), ((0, 3), (4, 0), (3, 2))),
    (EQ49, (4, 9, 14, 19), ((0, 3), (8, 0), (7, 1), (6, 2))),
    (CurveEquation.nice(Semigroup(4, 9), {1: Rat(1), 2: Rat(7, 18)}),
     (4, 9, 14), ((0, 3), (8, 0), (7, 1))),
    (CurveEquation.nice(Semigroup(4, 5)), (4, 5), ((0, 3), (4, 0))),
])
def test_delorme_pins(eq, lambdas, lps):
    diff = delorme(eq)
    assert diff.values.basis == lambdas
    assert diff.leading_powers == lps


def test_delorme_values_are_a_semimodule_with_readme_pins():
    values = delorme(EQ49).values
    assert isinstance(values, AbstractSemimodule)
    assert values.basis == (4, 9, 14, 19)
    assert values.axes == (13, 18, 23)
    assert values.critical == (4, 9, 13, 17, 21)


def test_differential_basis_rejects_reductions_that_miss_the_values():
    diff = delorme(EQ49)
    h = diff.reductions
    zero = TruncatedPoly(EQ49.sg.order, EQ49.f.horizon)
    for bad in (h[:-1],                    # one value without its h_i
                (h[1], h[0]) + h[2:],      # seeds swapped
                h[:-1] + (h[-1].mul_monomial(Rat(1), (1, 0)),),
                h[:-1] + (zero,)):
        with pytest.raises(ValueError):
            replace(diff, reductions=bad)


def test_delorme_values_are_realized():
    """The algorithm's claimed values match a from-scratch evaluation of the
    returned forms, and the reductions witness them through their leading
    powers."""
    for eq in (EQ45, EQ49):
        diff = delorme(eq)
        n, m = eq.sg.n, eq.sg.m
        for form, lam, red in zip(diff.forms, diff.values.basis, diff.reductions):
            assert differential_value(form, eq) == lam
            a, b = red.leading_power
            assert n * (a + 1) + m * (b + 1) - n * m == lam


@pytest.mark.parametrize("pair", CORPUS)
def test_delorme_structure_battery(pair):
    """Monomial values hit the critical sequence, the basis stays strictly
    above the axes, and the first axis is always n + m."""
    sg = Semigroup(*pair)
    for eq in curve_draws(sg, 6, seed=11):
        diff = delorme(eq)
        basis = diff.values
        assert basis.basis[:2] == (sg.n, sg.m)
        assert basis.axes[0] == sg.n + sg.m
        assert basis.critical[:2] == (sg.n, sg.m)
        if basis.s >= 1:
            assert basis.critical[2] == sg.n + sg.m
        # item (2): the i-th basis form realizes the i-th critical value
        for form, t in zip(diff.forms, basis.critical):
            assert monomial_value(form) == t
        # item (5): lambda_i > u_i for 1 <= i <= s
        for i in range(1, basis.s + 1):
            assert basis.basis[i + 1] > basis.axes[i - 1]


def test_aligned_horizon_formula():
    """The branch window is that of f at 2nm, the one horizon of f:
    t = 2nm - nm + n + m."""
    nm = 4 * 9
    assert EQ49.f.horizon == 2 * nm
    assert newton_puiseux(EQ49).t_horizon == nm + 4 + 9


def test_oracle_matches_on_basis_forms():
    for eq in (EQ45, EQ49):
        param = newton_puiseux(eq)
        diff = delorme(eq)
        for form, lam in zip(diff.forms, diff.values.basis):
            assert oracle_differential_value(form, param) == lam
        assert oracle_differential_value(OneForm(*eq.partials), param) is None


@pytest.mark.parametrize("pair", [(3, 5), (4, 9), (5, 6)])
def test_oracle_matches_on_random_forms(pair):
    sg = Semigroup(*pair)
    rng = random.Random(f"42:{pair}")
    for eq in curve_draws(sg, 3, seed=5):
        param = newton_puiseux(eq)
        for _ in range(20):
            w = random_form(rng, eq)
            assert differential_value(w, eq) == oracle_differential_value(w, param)


@pytest.mark.parametrize("horizon,value", [(71, 48), (70, None)])
def test_oracle_window_edge(horizon, value):
    """x^11 dx has value 48 on EQ49: its pullback has order 47, the last
    power read in the window of a form at horizon 71
    (71 - nm + n + m - 1 = 47) and the first one past that of a form at
    horizon 70.  The implicit route sees the same window."""
    order = EQ49.sg.order
    form = OneForm(TruncatedPoly.monomial(order, 1, (11, 0), horizon),
                   TruncatedPoly(order, horizon))
    assert oracle_differential_value(form, newton_puiseux(EQ49)) == value
    assert differential_value(form, EQ49) == value


@pytest.mark.parametrize("mult", [2, 3, 4], ids=["2nm", "3nm", "4nm"])
def test_both_routes_read_one_window(mult):
    """x^12 dx has value 52 on EQ49, past nm + n + m = 49, the window of f at
    2nm.  The implicit route reduces at the smaller of the form's horizon
    and f's 2nm, and the oracle reads through the branch's window, so at
    every horizon of the form the two routes read one window: both say
    infinite."""
    order = EQ49.sg.order
    horizon = mult * 36
    form = OneForm(TruncatedPoly.monomial(order, 1, (12, 0), horizon),
                   TruncatedPoly(order, horizon))
    assert monomial_value(form) == 52
    assert differential_value(form, EQ49) is None
    assert oracle_differential_value(form, newton_puiseux(EQ49)) is None


def test_oracle_reads_the_window_of_the_forms_horizon():
    """On the (4, 7) curve with z_2 = -2, Delorme's run ends with
    -7/4 y^2 dx + x y dy, built at H_Delta = 34.  The implicit route sees
    values up to 34 - 28 + 11 = 17 there, and the oracle reads the same
    window, not f's: both say infinite, although the pullback has order
    19."""
    eq = CurveEquation.nice(Semigroup(4, 7), {2: Rat(-2)})
    order = eq.sg.order
    form = OneForm(TruncatedPoly(order, 34, {(0, 2): Rat(-7, 4)}),
                   TruncatedPoly(order, 34, {(1, 1): Rat(1)}))
    assert delorme(eq).trail[-1] == form
    assert differential_value(form, eq) is None
    assert oracle_differential_value(form, newton_puiseux(eq)) is None


def test_oracle_refuses_a_form_past_the_branch_window():
    """A branch solved at H_Delta = 46 holds t^0..t^(46 - 36 + 13) on EQ49.
    dx at 2nm would be read through t^(nm + n + m - 1) = t^48, past it, so
    the oracle raises instead of reading an order the branch does not hold;
    dx at H_Delta reads its value there, as on the 2nm branch."""
    sg = EQ49.sg
    param = newton_puiseux(EQ49, sg.delorme_horizon)
    assert param.t_horizon == 23
    with pytest.raises(ValueError, match="read through t\\^48, past the branch's window t\\^22"):
        oracle_differential_value(basic_form(EQ49.f, "dx"), param)
    dx = basic_form(EQ49.f.truncated(sg.delorme_horizon), "dx")
    assert oracle_differential_value(dx, param) == 4
    assert oracle_differential_value(dx, newton_puiseux(EQ49)) == 4


def test_branch_window_sweep():
    """Every coprime pair with 2 <= n <= 6, m <= 13, seven curves each (three
    for n = 2): nice at z-densities 0, 0.3 and 1, and adapted with mu != 1
    and a term of y-degree > n.  The branch at H_Delta has the 2nm branch's
    y through t^(H_Delta - nm + m), and on every basis and trail form both
    oracles and the implicit route read one value.  On 11 of the 164
    curves, y parts from the 2nm branch's later, inside the window: only
    the orders the oracle reads are kept."""
    outcomes = [check_curve(eq) for eq in sweep_curves(6, 13)]
    assert len(outcomes) == 164
    assert [o.mismatch for o in outcomes if o.mismatch] == []
    assert sum(o.forms for o in outcomes) == 842
    assert sum(o.y_parts for o in outcomes) == 11


@pytest.mark.parametrize("text,lifts,steps", [
    ("n = 2\nm = 7\n", 0, 0),                      # no round
    ("n = 3\nm = 5\n", 1, 0),                      # ended at the axis 8 > last
    ("n = 4\nm = 7\n", 1, 1),                      # the tuned form is infinite
    ("n = 4\nm = 9\nz 1 = 1\n", 2, 2),             # both rounds give a basis form
])
def test_trail_holds_every_form_of_the_run(text, lifts, steps):
    """The trail is the lift and each tuned form of every round, the ending
    round's included; the basis forms are the last form of each completed
    round, replayed once with the trail."""
    diff = delorme(parse_spec(text))
    rounds = diff.rounds + ((diff.ended,) if diff.ended else ())
    assert (len(rounds), sum(len(record[1]) for record in rounds)) == (lifts, steps)
    assert len(diff.trail) == lifts + steps
    ends, at = [], -1
    for _, round_steps in rounds:
        at += 1 + len(round_steps)
        ends.append(diff.trail[at])
    assert diff.forms[2:] == tuple(ends[:len(diff.rounds)])
    assert (diff.ended is None) == (len(diff.values.basis) == diff.values.sg.n)


def test_trail_values_agree_on_both_routes():
    """On every ``_horizon_draws()`` curve the oracle agrees with the
    implicit route on each form of the run, and the form that ends it has a
    value past last, or an infinite one.  Adding 3g*df for g in {1, x, y}
    keeps a form's value on both routes: g*df pulls back to zero."""
    for eq in _horizon_draws():
        diff = delorme(eq)
        param = newton_puiseux(eq)
        values = [differential_value(w, eq) for w in diff.trail]
        assert values == [oracle_differential_value(w, param) for w in diff.trail]
        multiples = [form_mul_monomial(OneForm(*eq.partials), 3, g)
                     for g in ((0, 0), (1, 0), (0, 1))]
        for w, value in zip(diff.trail, values):
            for g_df in multiples:
                moved = form_add(w, g_df)
                assert differential_value(moved, eq) == value
                assert oracle_differential_value(moved, param) == value
        if diff.ended:
            sg = eq.sg
            last = _last_uncovered(sg, covered(sg, diff.values.basis, sg.conductor))
            assert values[-1] is None or values[-1] > last


def _reference_replay(diff: DifferentialBasis) -> tuple:
    """(forms, trail) by the operators' route of the testkit, ``basic_form``,
    ``form_mul_monomial`` and ``form_add``, in the order of the run's record."""
    zero = TruncatedPoly(diff.values.sg.order, diff.reductions[0].horizon)
    forms = [basic_form(zero, "dx"), basic_form(zero, "dy")]
    trail = []
    for lift, steps in diff.rounds + ((diff.ended,) if diff.ended else ()):
        eta = form_mul_monomial(forms[-1], 1, lift)
        trail.append(eta)
        for j, mu, shift in steps:
            eta = form_add(eta, form_mul_monomial(forms[j], mu, shift))
            trail.append(eta)
        forms.append(eta)
    return tuple(forms[:2 + len(diff.rounds)]), tuple(trail)


def _raw_parts(p: TruncatedPoly) -> tuple:
    """p term for term: its order, horizon, numerators and denominator."""
    return p.order, p.horizon, p.terms, p.den


def test_replay_and_vector_fields_equal_the_reference_route():
    """On the bare curve, nice curves at z-densities 0.3 and 1 and an
    adapted curve of every coprime pair with n <= 7, m <= 13, the replayed
    forms and trail, and X_omega(f) of each, equal those of the testkit's
    operators' route and ``TruncatedPoly``'s products and difference, term for
    term and denominator for denominator; each basis form past dx and dy is
    the last trail form of its round.  So are X_omega(f) of random forms
    whose two sides are cut at different horizons.

    Both sides run the same kernels (``poly._add_shifted`` and
    ``poly._add_products``), so this checks the wiring of the replay and
    of the vector fields, not the kernels: the ``Fraction`` checks of
    ``test_vector_fields_and_values_are_the_fraction_arithmetic`` and
    ``test_poly`` do that."""
    bare = [CurveEquation.nice(Semigroup(n, m)) for n, m in coprime_pairs(range(2, 8), 13)]
    curves = [*bare, *nice_curves(17, densities=(0.3, 1)), *adapted_curves()]
    rng = random.Random(17)
    dens = Counter()
    for eq in curves:
        diff = delorme(eq)
        want_forms, want_trail = _reference_replay(diff)
        assert (len(diff.forms), len(diff.trail)) == (len(want_forms), len(want_trail))
        fx, fy = eq.partials
        for got, want in zip((*diff.forms, *diff.trail), (*want_forms, *want_trail)):
            for side in ("dx", "dy"):
                assert _raw_parts(getattr(got, side)) == _raw_parts(getattr(want, side))
                dens[getattr(got, side).den > 1] += 1
            assert (_raw_parts(apply_vector_field(got, eq))
                    == _raw_parts(want.dy * fx - want.dx * fy))
        at = -1
        for i, (_, steps) in enumerate(diff.rounds):
            at += 1 + len(steps)
            assert diff.forms[2 + i] is diff.trail[at]
        w = random_form(rng, eq)
        cut = OneForm(w.dx.truncated(eq.sg.delorme_horizon), w.dy)
        for form in (w, cut, OneForm(cut.dy, cut.dx)):
            assert (_raw_parts(apply_vector_field(form, eq))
                    == _raw_parts(form.dy * fx - form.dx * fy))
    assert dens[True] > 0 and dens[False] > 0


def _fraction_form(rng: random.Random, eq: CurveEquation, horizons) -> OneForm:
    """A 1-form with 0-3 monomials of degree <= nm on each side, coefficients
    +-(1..5)/(1..4), and each side at its own horizon of ``horizons``."""
    sg = eq.sg
    sides = []
    for h in horizons:
        terms = {}
        for _ in range(rng.randint(0, 3)):
            a, b = rng.randint(0, sg.m), rng.randint(0, sg.n - 1)
            if sg.order.degree((a, b)) <= min(h, sg.n * sg.m):
                terms[(a, b)] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 5),
                                         rng.randint(1, 4))
        sides.append(TruncatedPoly(sg.order, h, terms))
    return OneForm(*sides)


def _fraction_vector_field(omega: OneForm, eq: CurveEquation) -> FractionPoly:
    """B*f_x - A*f_y by plain dict arithmetic over ``Fraction``: f_x and f_y
    differentiated on f's ``coeffs``, every product of two terms summed,
    and the sum cut at the smallest horizon of A, B and f."""
    order, f = eq.sg.order, eq.f.coeffs
    h = min(omega.dx.horizon, omega.dy.horizon, eq.f.horizon)
    fx = {(a - 1, b): a * Fraction(c) for (a, b), c in f.items() if a}
    fy = {(a, b - 1): b * Fraction(c) for (a, b), c in f.items() if b}
    out = {}
    for side, partial, sign in ((omega.dy, fx, 1), (omega.dx, fy, -1)):
        for (a1, b1), c1 in side.coeffs.items():
            for (a2, b2), c2 in partial.items():
                e = (a1 + a2, b1 + b2)
                out[e] = out.get(e, 0) + sign * c1 * c2
    return FractionPoly(order, h, {e: c for e, c in out.items()
                                   if c and order.degree(e) <= h})


def test_vector_fields_and_values_are_the_fraction_arithmetic():
    """On the bare curve, nice curves at z-densities 0.3 and 1 and an
    adapted curve of every coprime pair with n <= 7, m <= 13, and random
    forms whose two sides lie at different horizons:

    - X_omega(f) of ``apply_vector_field`` is B*f_x - A*f_y computed as
      dicts of ``Fraction``, cut at the smaller horizon, the product
      kernel's independent check;
    - ``differential_value``, which reduces modulo f by ``_reduce_by_f``,
      equals the value read off ``final_reduction(X_omega(f), [f])`` and off
      the ``Fraction`` reduction (``fraction_reduction``), infinite values
      included: df times a monomial has none, and so, at H_Delta, do some
      forms cut there.  The Euler form x^k * (n*x dy - m*y dx) sends f to
      x^k * (nm*f - g), g = 0 on the bare curve (``jacobian_generators``),
      so its reduction cancels the whole leading degree nm of f, and its
      value is infinite on the bare curve."""
    bare = [CurveEquation.nice(Semigroup(n, m)) for n, m in coprime_pairs(range(2, 8), 13)]
    curves = [*bare, *nice_curves(17, densities=(0.3, 1)), *adapted_curves()]
    rng = random.Random(43)
    values = Counter()
    for eq in curves:
        sg, nm = eq.sg, eq.sg.n * eq.sg.m
        f = FractionPoly.of(eq.f)

        def value_of(power):
            """n(a+1) + m(b+1) - nm of the leading power (a, b); None for 0."""
            return power and sg.n * (power[0] + 1) + sg.m * (power[1] + 1) - nm

        low = sg.delorme_horizon
        forms = [_fraction_form(rng, eq, hs) for hs in
                 ((2 * nm, 2 * nm), (low, 2 * nm), (2 * nm, low), (rng.randint(nm, 2 * nm), low))]
        fx, fy = eq.partials
        x = TruncatedPoly.monomial(sg.order, Rat(rng.randint(1, 3), 2), (rng.randint(0, 2), 0),
                                   2 * nm)
        forms.append(OneForm(x * fx, x * fy))
        k = rng.randint(0, 2)  # x^k * (n*x dy - m*y dx): X(f) = x^k * (nm*f - g), Euler's g
        forms.append(OneForm(TruncatedPoly(sg.order, 2 * nm, {(k, 1): -sg.m}),
                             TruncatedPoly(sg.order, 2 * nm, {(k + 1, 0): sg.n})))
        for omega in forms:
            field = apply_vector_field(omega, eq)
            want = _fraction_vector_field(omega, eq)
            assert (field.horizon, field.coeffs) == (want.horizon, want.coeffs)
            by_steps = final_reduction(field, [eq.f]).remainder.leading_power
            rem, _ = fraction_reduction(want, [f])
            by_fractions = rem.leading and rem.leading[0]
            value = differential_value(omega, eq)
            assert value == value_of(by_steps) == value_of(by_fractions)
            values[value is None] += 1
    assert values[True] >= len(curves) and values[False] > 2 * len(curves)


@pytest.mark.parametrize("pair", [(5, 7), (4, 11)])
def test_oracle_rejects_a_branch_of_another_cusp(pair):
    param = newton_puiseux(CurveEquation.nice(Semigroup(*pair)))
    with pytest.raises(ValueError, match="different cusp"):
        oracle_differential_value(basic_form(EQ49.f, "dx"), param)


def _horizon_draws():
    """Seeded curves for every coprime pair with n <= 9, m <= 15: the bare
    curve, one nonzero z_j, two nice draws at each support density 0.15, 0.4
    and 1, and an adapted curve with mu != 1 and random terms above nm, of
    which f at 2nm keeps those up to 2nm."""
    rng = random.Random(2026)
    for n, m in coprime_pairs(range(2, 10), 15):
        sg = Semigroup(n, m)
        J = cuspidal_sets(sg).J
        yield CurveEquation.nice(sg)
        if J:
            yield CurveEquation.nice(sg, {J[0]: Rat(1)})
        for density in (0.15, 0.15, 0.4, 0.4, 1.0, 1.0):
            yield CurveEquation.nice(sg, {
                j: Rat(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 3))
                for j in J if rng.random() < density})
        terms = {(m, 0): Rat(rng.choice([-3, -1, 2, 5]), rng.randint(1, 3)), (0, n): 1}
        while len(terms) < 5:
            a, b = rng.randint(0, 2 * m), rng.randint(0, n + 2)
            if n * a + m * b > n * m and (a, b) != (m, 0):
                terms[(a, b)] = Rat(rng.choice([-1, 1]) * rng.randint(1, 4), rng.randint(1, 3))
        drawn = TruncatedPoly(sg.order, n * 2 * m + m * (n + 2), terms)
        yield CurveEquation(sg, drawn.truncated(sg.branch_horizon))


def _guard_fires(eq, diff) -> bool:
    """Whether the last round ended at an axis at or past the conductor.  The
    cut at last < c fires there whatever last is: the guard u >= c is the
    special case last = c - 1."""
    i = len(diff.values.basis) - 1
    return i < eq.sg.n - 1 and _axis(eq.sg, diff.values.basis, i) >= eq.sg.conductor


def test_delorme_at_its_horizon_equals_the_full_horizon(monkeypatch):
    """At H_Delta = max(D, nm) Delorme gives the values, leading powers,
    monomial values, ending round, and forms and h_i cut at H_Delta, of a
    run at f's own horizon 2nm: the proof in the ``delorme`` docstring,
    checked."""
    pairs, fired = set(), set()
    for eq in _horizon_draws():
        sg = eq.sg
        ours = delorme(eq)
        with monkeypatch.context() as patch:
            patch.setattr(Semigroup, "delorme_horizon", property(lambda s: s.branch_horizon))
            full = delorme(eq)
        h = sg.delorme_horizon
        assert h == max(2 * sg.n * sg.m - 2 * sg.n - 2 * sg.m, sg.n * sg.m)
        assert {p.horizon for p in ours.reductions} == {h}
        assert {p.horizon for p in full.reductions} == {2 * sg.n * sg.m} != {h}
        assert ours.values == full.values
        assert ours.leading_powers == full.leading_powers
        assert ours.forms == tuple(OneForm(w.dx.truncated(h), w.dy.truncated(h))
                                   for w in full.forms)
        assert ours.ended == full.ended
        assert ours.reductions == tuple(p.truncated(h) for p in full.reductions)
        assert [monomial_value(w) for w in ours.forms] == [monomial_value(w) for w in full.forms]
        pairs.add((sg.n, sg.m))
        if _guard_fires(eq, ours):
            z = tuple(eq.nice_coeffs.items()) if eq.form == "nice" else None
            fired.add((sg.n, sg.m, eq.form, z))
    assert len(pairs) == 47
    # The guard ends a round on the bare (3,4), on (4,5) with z_2 alone, on
    # adapted curves and on curves with n >= 5, where H_Delta = D.
    assert {(3, 4, "nice", ()), (4, 5, "nice", ((2, 1),))} <= fired
    assert any(form == "adapted" for _, _, form, _ in fired)
    assert any(n >= 5 for n, _, _, _ in fired)


def _bs_roots_draws():
    """Three nice curves at each support density 0.3 and 1 on (7,10), (9,13)
    and (11,13), the pairs on which bs-roots spends most of its delorme time."""
    rng = random.Random(14)
    for n, m in ((7, 10), (9, 13), (11, 13)):
        sg = Semigroup(n, m)
        for density in (0.3, 0.3, 0.3, 1.0, 1.0, 1.0):
            yield CurveEquation.nice(sg, {
                j: Rat(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 3))
                for j in sg.sets.J if rng.random() < density})


@contextmanager
def _cut_at_the_conductor(patch):
    """Round plans built with last = c - 1, the cut at the conductor, for the
    length of the block; the plans built there are dropped on both ends."""
    patch.setattr(differentials, "_last_uncovered", lambda sg, taken: sg.conductor - 1)
    _round_plan.cache_clear()
    try:
        yield
    finally:
        _round_plan.cache_clear()


def test_the_cut_at_last_is_invisible(monkeypatch):
    """Ending a round once its value or axis passes last changes no output:
    with the round plans built with last = c - 1, the cut at the conductor,
    delorme gives the same values, horizon, rounds, reductions and forms on
    every ``_horizon_draws()`` curve and on the bs-roots pairs.  There the cut
    saves reductions modulo f, and on some curve with n >= 5 it ends a round
    below c, which is the only way it can save one."""
    calls = []
    reduce_by_f = differentials._reduce_by_f

    def counted(*args):
        calls.append(args)
        return reduce_by_f(*args)

    def run(eq):
        calls.clear()
        diff = delorme(eq)
        reductions = diff.reductions
        return (diff.values, diff.rounds, reductions, diff.forms), len(calls)

    monkeypatch.setattr(differentials, "_reduce_by_f", counted)
    saved, below_c = Counter(), False
    for eq in [*_horizon_draws(), *_bs_roots_draws()]:
        ours, cut = run(eq)
        with monkeypatch.context() as patch, _cut_at_the_conductor(patch):
            old, full = run(eq)
        assert ours == old
        assert cut <= full
        saved[eq.sg.n, eq.sg.m] += full - cut
        below_c |= eq.sg.n >= 5 and cut < full
    assert all(saved[pair] > 0 for pair in ((7, 10), (9, 13), (11, 13)))
    assert below_c


def _reference_tuning(r1: FractionPoly, r2: FractionPoly) -> Rat:
    if not r1.coeffs or not r2.coeffs:
        raise ValueMismatch("tuning needs finite values on both sides")
    (e1, c1), (e2, c2) = r1.leading, r2.leading
    if e1 != e2:
        raise ValueMismatch("values differ")
    return -c1 / c2


def _reference_delorme(eq: CurveEquation) -> DifferentialBasis:
    """Delorme's run over ``Fraction`` coefficients on the ``coeffs`` of f,
    f_x and f_y (``FractionPoly``, reduced by ``fraction_reduction``), with
    last, the axis and the lift found afresh each round: the independent
    route that ``delorme`` must match term for term.  f_x and f_y are
    differentiated here, on f's ``coeffs``."""
    sg = eq.sg
    c = sg.conductor
    h = sg.delorme_horizon
    f = FractionPoly.of(eq.f.truncated(h))
    terms = FractionPoly.of(eq.f).coeffs
    fx = FractionPoly(sg.order, h, {(a - 1, b): a * v for (a, b), v in terms.items()
                                    if a and sg.order.degree((a - 1, b)) <= h})
    fy = FractionPoly(sg.order, h, {(a, b - 1): b * v for (a, b), v in terms.items()
                                    if b and sg.order.degree((a, b - 1)) <= h})
    reductions = [fy.shifted(-1, (0, 0)), fx]
    lambdas = [sg.n, sg.m]
    taken = covered(sg, lambdas, c)
    rounds = []
    ended = None
    for i in range(1, sg.n - 1):
        last = _last_uncovered(sg, taken)
        u = _axis(sg, tuple(lambdas), i)
        s = sg.decompose(u - lambdas[i])
        if u > last:
            ended = (s, ())
            break
        steps = []
        r, _ = fraction_reduction(reductions[i].shifted(1, s), [f])
        value, usable = u, i
        while True:
            cover = next(((j, shift) for j in range(usable - 1, -1, -1)
                          if (shift := sg.decompose(value - lambdas[j])) is not None),
                         None)
            if cover is None:
                assert usable != i
                break
            j, shift = cover
            part, _ = fraction_reduction(reductions[j].shifted(1, shift), [f])
            mu = _reference_tuning(r, part)
            steps.append((j, mu, shift))
            r, _ = fraction_reduction(r.minus_shifted(-mu, (0, 0), part), [f])
            if not r.coeffs:
                value = None
                break
            lp = r.leading[0]
            raised = sg.n * (lp[0] + 1) + sg.m * (lp[1] + 1) - sg.n * sg.m
            assert raised > value
            value = raised
            if value > last:
                value = None
                break
            usable = len(lambdas)
        if value is None:
            ended = (s, tuple(steps))
            break
        lambdas.append(value)
        taken |= covered(sg, (value,), c)
        rounds.append((s, tuple(steps)))
        reductions.append(r)
    return DifferentialBasis(AbstractSemimodule(sg, tuple(lambdas)),
                             tuple(TruncatedPoly(p.order, p.horizon, p.coeffs) for p in reductions),
                             tuple(rounds), ended)


def _adapted_specs():
    """Random adapted specs with mu != 1 and raw terms between nm and 2nm,
    on pairs with 3 <= n <= 8."""
    rng = random.Random(26)
    pairs = [(n, m) for n, m in coprime_pairs(range(3, 9), 14)]
    for _ in range(60):
        n, m = rng.choice(pairs)
        lines = [f"n = {n}", f"m = {m}",
                 f"mu = {rng.choice([-3, -2, -1, 2, 5])}/{rng.choice([1, 3])}"]
        seen = set()
        for _ in range(rng.randint(1, 6)):
            a, b = rng.randint(0, 2 * m), rng.randint(0, 2 * n)
            if n * m < n * a + m * b <= 2 * n * m and (a, b) not in seen:
                seen.add((a, b))
                lines.append(f"term {rng.choice([-1, 1]) * rng.randint(1, 5)}/{rng.randint(1, 3)}"
                             f" {a} {b}")
        yield parse_spec("\n".join(lines) + "\n")


def test_delorme_matches_the_reference_run(monkeypatch):
    """The run on term maps, reduced modulo f in place and planned once per
    pair and lambda prefix, gives the reference run's values, rounds, ending
    round, reductions (terms and horizon) and trail, on every
    ``_horizon_draws()`` and ``_bs_roots_draws()`` curve and on random
    adapted specs with mu != 1.  After every reduction modulo f the map
    holds no zero coefficient and no term above H_Delta, and the key
    returned is its leading one."""
    reduce_by_f = differentials._reduce_by_f

    def checked(g, den, tail, fden, n, nm, horizon):
        lead, den = reduce_by_f(g, den, tail, fden, n, nm, horizon)
        assert lead == (min(g) if g else None)
        assert all(g.values()) and all(d <= horizon for d, _ in g)
        assert den > 0
        return lead, den

    monkeypatch.setattr(differentials, "_reduce_by_f", checked)
    adapted = list(_adapted_specs())
    assert sum(eq.mu != 1 for eq in adapted) == len(adapted) >= 50
    for eq in [*_horizon_draws(), *_bs_roots_draws(), *adapted]:
        ours, ref = delorme(eq), _reference_delorme(eq)
        assert ours.values == ref.values
        assert (ours.rounds, ours.ended) == (ref.rounds, ref.ended)
        assert ([FractionPoly.of(p) for p in ours.reductions]
                == [FractionPoly.of(p) for p in ref.reductions])
        assert ours.trail == ref.trail


def _denominator_draws():
    """Curves whose f has L = 2, 3, 6 or 12 as the lcm of its coefficients'
    denominators: nice curves with one z_j = +-1/L and others over the
    divisors of L, and adapted curves with mu = k/L, on pairs with
    3 <= n <= 11 and m <= 20."""
    rng = random.Random(29)
    pairs = [(n, m) for n, m in coprime_pairs(range(3, 12), 20) if Semigroup(n, m).sets.J]
    for L in (2, 3, 6, 12):
        divisors = [d for d in range(1, L + 1) if L % d == 0]
        for _ in range(8):
            sg = Semigroup(*rng.choice(pairs))
            J = sg.sets.J
            z = {j: Rat(rng.choice([-1, 1]) * rng.randint(1, 7), rng.choice(divisors))
                 for j in J if rng.random() < 0.9}
            z[rng.choice(J)] = Rat(rng.choice([-1, 1]), L)
            yield CurveEquation.nice(sg, z)
        for _ in range(3):
            n, m = rng.choice(pairs)
            terms = {(m, 0): Rat(rng.choice([-5, -1, 1, 7]), L), (0, n): 1}
            while len(terms) < 5:
                a, b = rng.randint(0, 2 * m), rng.randint(0, 2 * n)
                if n * m < n * a + m * b <= 2 * n * m:
                    terms[(a, b)] = Rat(rng.choice([-1, 1]) * rng.randint(1, 7),
                                        rng.choice(divisors))
            sg = Semigroup(n, m)
            yield CurveEquation(sg, TruncatedPoly(sg.order, sg.branch_horizon, terms))


def test_fraction_free_steps_are_the_fraction_steps(monkeypatch):
    """On curves whose f has denominators of lcm L = 2, 3, 6 or 12, every
    reduction modulo f that delorme makes is ``final_reduction(g, [f])``, the
    same numerators over the same denominator, in as many steps; that is
    the ``Fraction`` reduction exactly (``test_steps_are_exact``).  Every tuning takes
    p > 0, every denominator stays positive, and the run's mu, values,
    ending round and h_i equal those of the ``Fraction`` reference run.  The
    draws reach steps where 1 < gcd(c, L) < L and where L divides c, and
    tunings against a negative leading numerator p0."""
    reduce_by_f, tuning = differentials._reduce_by_f, differentials._tuning
    subtract = differentials._subtract_shifted
    subtracted, seen = [], Counter()

    def checked(g, den, tail, fden, n, nm, horizon):
        assert fden == eq.f.den
        ref, steps = TruncatedPoly._raw(eq.sg.order, horizon, dict(g), den), 0
        while (nxt := reduce_step(ref, [eq.f])) is not None:
            gam = gcd(ref.terms[ref.lead], fden)
            seen["1 < gcd < L"] += 1 < gam < fden
            seen["L | c"] += gam == fden > 1
            ref, steps = nxt, steps + 1
        before = len(subtracted)
        lead, den = reduce_by_f(g, den, tail, fden, n, nm, horizon)
        assert len(subtracted) - before == steps
        assert (lead, g, den) == (ref.lead, ref.terms, ref.den)
        assert den > 0
        return lead, den

    def tuned(r1, den1, lead1, r2, den2, lead2):
        assert (lead1, lead2) == (min(r1), min(r2))
        mu, p, q = tuning(r1, den1, lead1, r2, den2, lead2)
        p0 = r2[lead2]
        seen["p0 < 0"] += p0 < 0
        assert p > 0 and mu == -Rat(r1[lead1], den1) / Rat(p0, den2)
        return mu, p, q

    monkeypatch.setattr(differentials, "_reduce_by_f", checked)
    monkeypatch.setattr(differentials, "_tuning", tuned)
    monkeypatch.setattr(differentials, "_subtract_shifted",
                        lambda *args: subtracted.append(args) or subtract(*args))
    draws = list(_denominator_draws())
    assert {e.f.den for e in draws} == {2, 3, 6, 12}
    rng = random.Random(30)
    for eq in draws:
        ours, ref = delorme(eq), _reference_delorme(eq)
        assert ours.values == ref.values
        assert (ours.rounds, ours.ended) == (ref.rounds, ref.ended)
        assert all(p.den > 0 for p in ours.reductions)
        assert ours.reductions == ref.reductions
        # Random g divisible by y^n: reductions of many more steps.
        sg, h = eq.sg, eq.sg.delorme_horizon
        tail = tuple(t for t in eq.f.tail if t[0][0] <= h)
        for _ in range(4):
            powers = ((rng.randint(0, sg.m), rng.randint(sg.n, 2 * sg.n)) for _ in range(8))
            g = TruncatedPoly(sg.order, h, {
                e: Rat(rng.choice([-1, 1]) * rng.randint(1, 7), rng.randint(1, 4))
                for e in powers if sg.order.degree(e) <= h})
            checked(dict(g.terms), g.den, tail, eq.f.den, sg.n, sg.n * sg.m, h)
    assert min(seen["1 < gcd < L"], seen["L | c"], seen["p0 < 0"]) > 0


def test_round_plans_belong_to_the_pair_and_prefix():
    """The plan cache is keyed by (semigroup, lambda prefix) alone: after a
    cleared cache has served many curves, it holds one plan for each prefix
    the runs reached, every such key is a hit, and no curve data is in it."""
    assert list(inspect.signature(_round_plan.__wrapped__).parameters) == ["sg", "lambdas"]
    _round_plan.cache_clear()
    reached = set()
    for eq in [*_horizon_draws(), *_bs_roots_draws()]:
        diff = delorme(eq)
        depth = 1 + len(diff.rounds) + (diff.ended is not None)
        basis = diff.values.basis
        reached |= {(eq.sg, basis[:k]) for k in range(2, depth + 1)}
    info = _round_plan.cache_info()
    assert info.currsize == len(reached) < info.hits
    for key in reached:
        plan = _round_plan(*key)
        assert all(isinstance(x, (int, tuple)) for x in plan)
    assert _round_plan.cache_info().misses == info.misses
