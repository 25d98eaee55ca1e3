"""Jacobian ideal standard bases, two ways, and the Tjurina number."""
from __future__ import annotations

import random
from dataclasses import replace

import pytest

from cuspidal import CurveEquation, Semigroup
from cuspidal.curve import NotAdapted
from cuspidal.differentials import delorme
from cuspidal.cli import main
from cuspidal.jacobian import (
    check_jacobian_staircase,
    jacobian_basis_direct,
    jacobian_basis_via_differentials,
    jacobian_generators,
    tjurina_number,
)
from cuspidal.poly import TruncatedPoly
from cuspidal.rationals import Rat
from cuspidal.semimodules import elements_outside
from cuspidal.specfile import parse_spec
from cuspidal.standard_basis import HorizonExhausted, StandardBasis, buchberger, codimension
from cusp_testkit import CORPUS, adapted_curves, curve_draws, nice_curves
from jacobian_horizon_sweep import check_curve, sweep_curves


@pytest.mark.parametrize("eq,tau", [
    (CurveEquation.nice(Semigroup(4, 5)), 12),
    (CurveEquation.nice(Semigroup(4, 5), {2: Rat(1)}), 11),
    (CurveEquation.nice(Semigroup(2, 3)), 2),
    (CurveEquation.nice(Semigroup(4, 9), {1: Rat(1)}), 21),
])
def test_tjurina_pins(eq, tau):
    assert tjurina_number(jacobian_basis_direct(eq)) == tau


def test_equation_horizon_below_2nm_is_rejected():
    """At horizon n*m the (4, 9) curve would read basis (4, 9) and tau = 24;
    every constructor refuses a horizon below 2nm."""
    sg = Semigroup(4, 9)
    full = TruncatedPoly(sg.order, 72, {(0, 4): 1, (9, 0): 1, (7, 1): 1})
    with pytest.raises(ValueError, match="must be 2\\*n\\*m = 72"):
        CurveEquation(sg, full.truncated(36))
    with pytest.raises(ValueError, match="must be 2\\*n\\*m = 72"):
        CurveEquation(sg, TruncatedPoly(sg.order, 71, {(0, 4): 1, (9, 0): 1}))
    # The horizon is checked before the shape: at 20 the truncation drops
    # x^9, which is not a missing term of the curve.
    with pytest.raises(ValueError, match="must be 2\\*n\\*m = 72, got 20") as info:
        CurveEquation(sg, full.truncated(20))
    assert not isinstance(info.value, NotAdapted)
    eq = CurveEquation.nice(sg, {1: Rat(1)})
    assert delorme(eq).values.basis == (4, 9, 14, 19)
    assert tjurina_number(jacobian_basis_direct(eq)) == 21


def test_tjurina_bounded_by_milnor():
    """mu - tau = #(Lambda \\ Gamma) with mu = c for a plane branch
    (Hefez-Hernandes), so tau <= mu, with equality exactly when the
    semimodule adds no value to the semigroup."""
    for pair in CORPUS:
        sg = Semigroup(*pair)
        milnor = (sg.n - 1) * (sg.m - 1)
        assert milnor == sg.conductor
        for eq in curve_draws(sg, 4, seed=3):
            basis = jacobian_basis_direct(eq)
            tau = tjurina_number(basis)
            assert milnor - tau == len(elements_outside(delorme(eq).values))
            assert tau == codimension(basis)


@pytest.mark.parametrize("pair", CORPUS)
def test_via_and_direct_agree(pair):
    sg = Semigroup(*pair)
    for eq in curve_draws(sg, 4, seed=17):
        diff = delorme(eq)
        via = jacobian_basis_via_differentials(eq, diff)
        direct = jacobian_basis_direct(eq)
        assert set(via.leading_powers) == set(direct.leading_powers)


@pytest.mark.parametrize("pair", CORPUS)
def test_leading_powers_recover_the_semimodule(pair):
    sg = Semigroup(*pair)
    for eq in curve_draws(sg, 4, seed=29):
        diff = delorme(eq)
        via = jacobian_basis_via_differentials(eq, diff)
        assert tuple(sorted(sg.n * (a + 1) + sg.m * (b + 1) - sg.n * sg.m
                            for a, b in via.leading_powers)) == diff.values.basis


def test_via_requires_matching_semigroup():
    eq45 = CurveEquation.nice(Semigroup(4, 5), {2: Rat(1)})
    diff49 = delorme(CurveEquation.nice(Semigroup(4, 9), {1: Rat(1)}))
    with pytest.raises(ValueError):
        jacobian_basis_via_differentials(eq45, diff49)


EQ45 = CurveEquation.nice(Semigroup(4, 5), {2: Rat(1)})  # values (4, 5, 11)


def _via(*lps):
    """The (4,5) basis with monomial reductions h_i at the given leading powers."""
    reductions = tuple(TruncatedPoly.monomial(EQ45.sg.order, Rat(1), e, horizon=200)
                       for e in lps)
    return jacobian_basis_via_differentials(
        EQ45, replace(delorme(EQ45), reductions=reductions))


def test_jacobian_basis_validates_shape():
    ok = _via((0, 3), (4, 0), (3, 2))
    assert ok.leading_powers == ((0, 3), (3, 2), (4, 0))
    with pytest.raises(ValueError):
        # (5, 1) is divisible by (4, 0) and encodes 14, not 11
        _via((0, 3), (4, 0), (5, 1))
    with pytest.raises(ValueError):
        _via((0, 3))


def test_jacobian_basis_requires_axis_leaders():
    with pytest.raises(ValueError):
        _via((1, 3), (4, 0))
    with pytest.raises(ValueError):
        _via((0, 3), (4, 1))


def _buchberger_4nm(eq):
    """The direct basis over (f, f_x, f_y), with f's terms and the whole
    arithmetic at 4nm, twice the horizon of the equation."""
    f = TruncatedPoly(eq.sg.order, 4 * eq.sg.n * eq.sg.m, eq.f.coeffs)
    return buchberger([f, *f.partials(f.horizon)])


def _adapted_draws(sg: Semigroup, count: int, seed: int):
    """Adapted curves mu*x^m + y^n + random terms between the weight line
    and 2nm, with mu != 1."""
    rng = random.Random(f"{seed}:{sg.n}:{sg.m}")
    n, m = sg.n, sg.m
    for _ in range(count):
        terms = {(m, 0): Rat(rng.choice([-1, 1]) * rng.randint(2, 5), rng.randint(1, 3)),
                 (0, n): 1}
        while len(terms) < 7:
            a, b = rng.randint(0, 2 * m), rng.randint(0, 2 * n)
            if n * m < n * a + m * b <= 2 * n * m:
                terms[(a, b)] = Rat(rng.randint(-5, 5) or 1, rng.randint(1, 3))
        yield CurveEquation(sg, TruncatedPoly(sg.order, sg.branch_horizon, terms))


@pytest.mark.parametrize("pair", CORPUS)
def test_direct_basis_at_the_jacobian_horizon_matches_4nm(pair):
    """Cutting at H_J = max(D, nm - n) keeps the leading powers and tau of 4nm."""
    sg = Semigroup(*pair)
    eqs = list(curve_draws(sg, 4, seed=41)) + list(_adapted_draws(sg, 2, seed=43))
    assert any(eq.mu != 1 for eq in eqs)
    for eq in eqs:
        direct = jacobian_basis_direct(eq)
        wide = _buchberger_4nm(eq)
        assert direct.leading_powers == wide.leading_powers
        assert {p.horizon for p in direct.polys} == {sg.jacobian_horizon}
        assert tjurina_number(direct) == codimension(wide)


def test_jacobian_horizon_is_tight():
    """On (2, 5) the corner x^4 has weighted degree exactly H_J = 8: one
    degree lower, the staircase is infinite and the leading powers change."""
    sg = Semigroup(2, 5)
    eq = CurveEquation.nice(sg)
    h = sg.jacobian_horizon
    assert (sg.hessian_degree, h) == (6, 8)
    assert jacobian_basis_direct(eq).leading_powers == ((0, 1), (4, 0))
    low = buchberger([p.truncated(h - 1) for p in (eq.f, *eq.partials)])
    assert low.leading_powers == ((0, 1),)
    with pytest.raises(HorizonExhausted, match="infinite"):
        check_jacobian_staircase(low, sg)


def test_jacobian_horizon_is_d_for_n_at_least_3():
    """x^5 + y^4 + x^3*y^2: H_J = D = 22, the degree of the corner x^3*y^2.
    One degree lower the corner is lost and the staircase reads tau = 12,
    not 11.  That staircase is still finite and tops out at degree D, so
    ``check_jacobian_staircase`` passes it: only the proof of H_J, and the
    sweep below, guard against a horizon one too low."""
    sg = Semigroup(4, 5)
    h = sg.jacobian_horizon
    assert h == sg.hessian_degree == 22 < sg.hessian_degree + sg.n
    direct = jacobian_basis_direct(EQ45)
    assert direct.leading_powers == ((0, 3), (3, 2), (4, 0))
    assert tjurina_number(direct) == 11
    low = buchberger(jacobian_generators(EQ45, h - 1))
    assert low.leading_powers == ((0, 3), (4, 0))
    check_jacobian_staircase(low, sg)
    assert codimension(low) == 12


def test_jacobian_horizon_sweep():
    """Every coprime pair with 3 <= n <= 8, m <= 16, eight curves each (nice
    at z-densities 0, 0.3 and 1, and adapted with mu != 1): at H_J the
    leading powers are those at 2nm and tau = c - #(Lambda \\ Gamma).  One
    degree lower, 13 of the 312 curves change their leading powers."""
    outcomes = [check_curve(eq) for eq in sweep_curves(8, 16)]
    assert len(outcomes) == 312
    assert [o.mismatch for o in outcomes if o.mismatch] == []
    assert sum(o.lower_differs for o in outcomes) == 13


def test_integer_generators_are_euler_and_the_truncated_derivatives():
    """``jacobian_generators`` is exactly g = nm*f - n*x*f_x - m*y*f_y, f_x
    and f_y cut at the horizon, on the bare curves, on nice curves and on
    adapted ones with mu != 1 and denominators up to 97, at H_J, one degree
    lower and at 2nm; the derivatives and g are formed here on f's
    ``coeffs``, and g is 0 exactly on the quasi-homogeneous curves."""
    bare = [CurveEquation.nice(Semigroup(n, m)) for n, m in ((2, 5), (3, 7), (4, 5), (5, 8))]
    curves = [*bare, *nice_curves(5, densities=(0.3, 1)), *adapted_curves()]
    assert max(c.denominator for eq in curves for c in eq.f.coeffs.values()) == 97
    for eq in curves:
        sg, f = eq.sg, eq.f.coeffs
        nm = sg.n * sg.m
        fx = {(a - 1, b): a * c for (a, b), c in f.items() if a}
        fy = {(a, b - 1): b * c for (a, b), c in f.items() if b}
        g = {e: nm * c for e, c in f.items()}
        for (a, b), c in fx.items():
            g[(a + 1, b)] -= sg.n * c
        for (a, b), c in fy.items():
            g[(a, b + 1)] -= sg.m * c
        g = {e: c for e, c in g.items() if c}
        assert (g == {}) == (len(f) == 2)
        for h in (sg.jacobian_horizon, sg.jacobian_horizon - 1, sg.branch_horizon):
            want = [{e: c for e, c in p.items() if sg.order.degree(e) <= h} for p in (g, fx, fy)]
            gens = jacobian_generators(eq, h)
            assert [p.horizon for p in gens] == [h] * 3
            assert {p.den for p in gens} == {eq.f.den}
            assert [p.coeffs for p in gens] == want
    with pytest.raises(ValueError, match="cannot raise"):
        jacobian_generators(EQ45, EQ45.sg.branch_horizon + 1)


@pytest.mark.parametrize("text", ["n = 4\nm = 9\nz 1 = 1\n",
                                  "n = 4\nm = 9\nmu = 2/3\nterm 5/7 7 1\n"])
def test_jacobian_stays_on_integers(monkeypatch, capsys, tmp_path, text):
    """A ``jacobian`` or ``bs-roots`` request reads f and every polynomial
    of its run as integer numerators: with ``coeffs``, ``__str__`` and
    ``__repr__``, the views that build ``Rat`` coefficients, made to
    raise, each prints what it prints without them (bs-roots refuses the
    adapted curve)."""
    spec = tmp_path / "curve.spec"
    spec.write_text(text)

    def refuse(*args, **kwargs):
        raise AssertionError("left the integer route")

    def run(command):
        code = main([command, "--spec", str(spec)])
        return code, capsys.readouterr()

    expected = {command: run(command) for command in ("jacobian", "bs-roots")}
    with monkeypatch.context() as patch:
        patch.setattr(TruncatedPoly, "coeffs", property(refuse))
        for name in ("__str__", "__repr__"):
            patch.setattr(TruncatedPoly, name, refuse)
        assert {command: run(command) for command in expected} == expected
    tau = codimension(jacobian_basis_direct(parse_spec(text)))
    assert expected["jacobian"][0] == 0
    assert "match = yes" in expected["jacobian"][1].out
    assert f"tjurina = {tau}\n" in expected["jacobian"][1].out


def _monomial_basis(sg: Semigroup, *lps) -> StandardBasis:
    return StandardBasis(tuple(TruncatedPoly.monomial(sg.order, 1, e, sg.branch_horizon)
                               for e in lps))


def test_staircase_check_accepts_at_most_d_and_rejects_past_it():
    """(4, 5): D = 22, the degree of the Hessian monomial x^3*y^2."""
    sg = Semigroup(4, 5)
    assert sg.hessian_degree == 22
    check_jacobian_staircase(_monomial_basis(sg, (0, 3), (4, 0)), sg)     # top x^3*y^2
    check_jacobian_staircase(_monomial_basis(sg, (0, 2), (2, 1), (3, 0)), sg)
    with pytest.raises(HorizonExhausted, match="degree 27, past D = 22"):
        check_jacobian_staircase(_monomial_basis(sg, (0, 4), (4, 0)), sg)  # top x^3*y^3
    with pytest.raises(HorizonExhausted, match="infinite"):
        check_jacobian_staircase(_monomial_basis(sg, (0, 3), (4, 1)), sg)
