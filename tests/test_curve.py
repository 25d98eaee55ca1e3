"""Semigroups, cuspidal exponent sets, curve equations, branch parametrization."""
from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cuspidal import CurveEquation, Semigroup, _series, curve
from cuspidal.curve import (CuspidalSets, NoSolution, NotAdapted, Parametrization, _leading_solution,
                            _scaled_equation, _solve_branch, cuspidal_sets, newton_puiseux)
from cuspidal.differentials import OneForm, delorme, oracle_differential_value
from cuspidal.poly import TruncatedPoly, WeightedOrder
from cuspidal.rationals import Rat
from cusp_testkit import (CORPUS, basic_form, coprime_pairs, count_calls, form_mul_monomial,
                          reference_scaled_equation, reference_solve_branch)


@pytest.mark.parametrize("n,m", [(4, 8), (6, 9), (1, 5), (5, 5), (7, 3)])
def test_semigroup_rejects_bad_pairs(n, m):
    with pytest.raises(ValueError):
        Semigroup(n, m)


def test_one_semigroup_per_pair():
    """Semigroup(n, m) is the one instance of its pair, so its tables are
    built once per process."""
    sg = Semigroup(4, 9)
    assert Semigroup(4, 9) is sg
    assert Semigroup(n=4, m=9) is sg
    assert sg.sets is Semigroup(4, 9).sets


def test_pair_objects_compare_by_identity():
    """With one instance per pair, identity is value equality, so Semigroup
    and CuspidalSets keep object's == and hash, which make no Python call.
    ``cuspidal_sets`` still builds a fresh, unequal CuspidalSets of the same
    values, with its own read-only j -> p mapping."""
    for cls in (Semigroup, CuspidalSets):
        assert cls.__eq__ is object.__eq__
        assert cls.__hash__ is object.__hash__
    sg = Semigroup(4, 9)
    fresh = cuspidal_sets(sg)
    assert fresh != sg.sets
    assert (fresh.J, fresh.M, dict(fresh.j_to_p)) == (sg.sets.J, sg.sets.M, dict(sg.sets.j_to_p))
    with pytest.raises(TypeError):
        fresh.j_to_p[3] = (0, 0)


@pytest.mark.parametrize("n,m", [(4, 6), (5, 3), (1, 4), (3, 3)])
def test_invalid_pair_raises_every_time_and_is_never_kept(n, m):
    for _ in range(3):
        with pytest.raises(ValueError):
            Semigroup(n, m)
    assert (n, m) not in curve._SEMIGROUPS


def test_shared_pair_tables_are_read_only():
    """Every curve of a pair reads the pair's j -> p mapping, so no one may
    write into it."""
    j_to_p = Semigroup(4, 9).sets.j_to_p
    with pytest.raises(TypeError):
        j_to_p[3] = (0, 0)
    assert 3 not in j_to_p


@pytest.mark.parametrize("n,m,gaps", [
    (2, 3, (1,)),
    (4, 5, (1, 2, 3, 6, 7, 11)),
    (4, 9, (1, 2, 3, 5, 6, 7, 10, 11, 14, 15, 19, 23)),
])
def test_gap_pins(n, m, gaps):
    assert Semigroup(n, m).gaps() == gaps


@pytest.mark.parametrize("n,m", CORPUS)
def test_conductor_counts_gaps(n, m):
    sg = Semigroup(n, m)
    assert sg.conductor == (n - 1) * (m - 1)
    # exactly half of [0, c) lies outside the semigroup
    assert len(sg.gaps()) == sg.conductor // 2
    assert all(g < sg.conductor for g in sg.gaps())
    assert sg.conductor - 1 not in sg


@pytest.mark.parametrize("n,m", coprime_pairs(range(2, 10), 20))
def test_membership_matches_brute_force(n, m):
    """k is in Gamma = <n, m> iff k - m*b is a non-negative multiple of n for
    some b < n; the membership test, the gaps, the bits of ``mask`` and
    decompose all give that answer."""
    sg = Semigroup(n, m)
    c, gaps = sg.conductor, set(sg.gaps())
    for k in range(n + c + m):
        want = any(k - m * b >= 0 and (k - m * b) % n == 0 for b in range(n))
        assert (k in sg) is want
        assert (k not in gaps) is want
        if k < n + c:
            assert (sg.mask >> k & 1 == 1) is want
        assert (sg.decompose(k) is not None) is want
    assert sg.mask >> (n + c) == 0


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from(CORPUS), st.integers(0, 400))
def test_membership_decompose_roundtrip(pair, k):
    sg = Semigroup(*pair)
    d = sg.decompose(k)
    if k in sg:
        a, b = d
        assert sg.n * a + sg.m * b == k
        assert 0 <= b < sg.n
    else:
        assert d is None


@pytest.mark.parametrize("n,m", coprime_pairs(range(2, 8), 15))
def test_j_set_identity(n, m):
    """J = {l : l + n and l + m are both gaps}."""
    sg = Semigroup(n, m)
    sets = cuspidal_sets(sg)
    expected = tuple(l for l in range(0, sg.conductor)
                     if (l + n) not in sg and (l + m) not in sg)
    assert sets.J == expected


@pytest.mark.parametrize("n,m", CORPUS)
def test_cuspidal_set_correspondences(n, m):
    sg = Semigroup(n, m)
    sets = cuspidal_sets(sg)
    assert len(set(sets.j_to_p.values())) == len(sets.J) == len(sets.M)
    for j in sets.J:
        p = sets.j_to_p[j]
        assert n * p[0] + m * p[1] - n * m == j
        assert 1 <= p[1] <= n - 1
    assert sets.M == tuple((m - 1 - sets.j_to_p[j][0], n - 1 - sets.j_to_p[j][1])
                           for j in sets.J)


def test_cuspidal_sets_49_pin():
    sets = cuspidal_sets(Semigroup(4, 9))
    assert sets.J == (1, 2, 6, 10)
    assert tuple(sets.j_to_p.values()) == ((7, 1), (5, 2), (6, 2), (7, 2))
    assert sets.M == ((1, 2), (3, 1), (2, 1), (1, 1))


def test_key_tables_match_the_exponents():
    """On every coprime pair with n <= 9, m <= 21, each j in J has the key
    of its monomial in P under the pair's order, which ``parse_spec``
    writes z_j at, and that key maps back to j and its exponent
    (``key_to_part``, which ``CurveEquation`` reads f through)."""
    for n, m in coprime_pairs(range(2, 10), 21):
        sg = Semigroup(n, m)
        sets = sg.sets
        assert len(sets.key_to_part) == len(sets.J)
        for j in sets.J:
            p = sets.j_to_p[j]
            assert sets.key_to_part[(sg.order.degree(p), p[0])] == (j, *p)


def test_nice_equation_terms():
    eq = CurveEquation.nice(Semigroup(4, 9), {1: Rat(1), 2: Rat(7, 18)})
    assert eq.f.coeffs == {(0, 4): 1, (9, 0): 1, (7, 1): Rat(1), (5, 2): Rat(7, 18)}
    assert eq.mu == 1
    assert eq.form == "nice"
    assert eq.nice_coeffs == {1: Rat(1), 2: Rat(7, 18)}
    # one read-only mapping, built on the first read
    assert eq.nice_coeffs is eq.nice_coeffs
    with pytest.raises(TypeError):
        eq.nice_coeffs[6] = Rat(1)


def test_nice_rejects_exponent_outside_j():
    with pytest.raises(ValueError):
        CurveEquation.nice(Semigroup(4, 5), {3: Rat(1)})


@pytest.mark.parametrize("index", [1.9, True, "1"], ids=["float", "bool", "str"])
def test_nice_refuses_an_index_that_is_not_an_int(index):
    """A z_j index is an ``int``: read through int(), 1.9, True and "1"
    would each build z_1 = 1, a curve the caller did not name."""
    with pytest.raises(ValueError, match="is not an int"):
        CurveEquation.nice(Semigroup(4, 9), {index: Rat(1)})


def test_adapted_requires_unit_times_corner():
    o = WeightedOrder(4, 5)
    # no x^m term at all: weighted initial part is not mu x^m + y^n
    f = TruncatedPoly(o, 40, {(0, 4): 1, (3, 2): 1})
    with pytest.raises(NotAdapted, match="missing x\\^5 term"):
        CurveEquation(Semigroup(4, 5), f)


@pytest.mark.parametrize("pair,horizon,terms,message", [
    ((4, 5), 40, {(0, 4): 2, (5, 0): 1}, "coefficient of y^4 must be 1"),
    ((4, 5), 40, {(0, 4): 1, (5, 0): 1, (2, 2): 1},
     "term x^2*y^2 has weighted degree 18 <= 20"),
    ((4, 5), 40, {(0, 4): 1, (5, 0): 1, (1, 3): 1},
     "term x^1*y^3 has weighted degree 19 <= 20"),
    # x^9 alone at 2nm: f is checked whatever it was meant to be, so no
    # label can pass it off as a nice curve
    ((4, 9), 72, {(9, 0): 1}, "coefficient of y^4 must be 1"),
], ids=["y^n-coeff", "below-nm", "below-nm-2", "x^9-alone"])
def test_constructor_refuses_a_non_adapted_shape(pair, horizon, terms, message):
    """CurveEquation(sg, f) is the one shape check, however f was built."""
    sg = Semigroup(*pair)
    with pytest.raises(NotAdapted, match=re.escape(message)):
        CurveEquation(sg, TruncatedPoly(sg.order, horizon, terms))


def test_constructor_refuses_the_wrong_order():
    f = TruncatedPoly(WeightedOrder(4, 7), 40, {(0, 4): 1, (5, 0): 1})
    with pytest.raises(NotAdapted, match="polynomial order does not match the semigroup"):
        CurveEquation(Semigroup(4, 5), f)


def test_adapted_reads_off_mu():
    o = WeightedOrder(4, 5)
    eq = CurveEquation(Semigroup(4, 5), TruncatedPoly(o, 40, {(0, 4): 1, (5, 0): 2, (3, 2): 1}))
    assert eq.mu == 2
    assert eq.form == "adapted"
    with pytest.raises(ValueError, match="only in nice form"):
        eq.nice_coeffs
    # mu = 1 and every other term on P (here (3, 2), the P monomial of j = 2)
    # is the nice curve with z_2 = 1, however f was built.
    eq = CurveEquation(Semigroup(4, 5), TruncatedPoly(o, 40, {(0, 4): 1, (5, 0): 1, (3, 2): 1}))
    assert eq.form == "nice"
    assert eq.nice_coeffs == {2: 1}
    assert eq.f == CurveEquation.nice(Semigroup(4, 5), {2: 1}).f
    # a term off P, even above the weight line, makes the curve adapted
    eq = CurveEquation(Semigroup(4, 5), TruncatedPoly(o, 40, {(0, 4): 1, (5, 0): 1, (6, 0): 1}))
    assert eq.form == "adapted"


def _adapted(n, m, terms: dict) -> CurveEquation:
    """y^n plus the given terms, x^m among them, at horizon 2nm."""
    f = TruncatedPoly(WeightedOrder(n, m), 2 * n * m, {(0, n): 1, **terms})
    return CurveEquation(Semigroup(n, m), f)


def _adapted_45_mu2() -> CurveEquation:
    return _adapted(4, 5, {(5, 0): 2, (3, 2): 1})


def _all_ones(n, m) -> CurveEquation:
    sg = Semigroup(n, m)
    return CurveEquation.nice(sg, {j: Rat(1) for j in sg.sets.J})


# The adapted curves carry a power y^b with b > n and a pure power x^a with
# a > m, so the branch's power table runs past v^n and H has terms free of v;
# the y^5 term (n = 4) and the y^4 term (n = 2, at 2nm = 12) reach the
# cut-offs of the recursion at s^work.  The mu = -2 case, y^2 - 2x^3, is
# adapted with no term above the weight line.
BRANCH_CASES = [_all_ones(n, m) for n, m in CORPUS] + [
    _adapted_45_mu2(),
    _adapted(3, 5, {(5, 0): Rat(3), (0, 4): Rat(-2, 3), (6, 0): Rat(5, 2), (2, 2): Rat(1)}),
    _adapted(4, 5, {(5, 0): Rat(-1, 2), (0, 5): Rat(4), (6, 0): Rat(-3), (3, 2): Rat(1, 3)}),
    _adapted(2, 3, {(3, 0): Rat(-2)}),
    _adapted(2, 3, {(3, 0): Rat(-2), (0, 4): Rat(3), (1, 3): Rat(1, 2)}),
]
BRANCH_IDS = [f"{n}-{m}" for n, m in CORPUS] + [
    "adapted-4-5-mu2", "adapted-3-5-y4-x6", "adapted-4-5-y5-x6", "adapted-2-3-mu-2",
    "adapted-2-3-y4"]


def _fraction(c) -> Fraction:
    return Fraction(int(c.numerator), int(c.denominator))


def _times(u, w, top: int) -> list:
    """The Fraction product of u and w through t^top."""
    out = [Fraction(0)] * (top + 1)
    for i, a in enumerate(u[:top + 1]):
        if a:
            for j in range(min(len(w), top + 1 - i)):
                out[i + j] += a * w[j]
    return out


def _fraction_residual(f: TruncatedPoly, param) -> list:
    """f(x_coeff * t^n, y(t)) through t^t_horizon, from ``param.y`` alone, by
    plain Fraction convolutions on f's ``coeffs``."""
    top = param.t_horizon
    y = [_fraction(c) for c in param.y]
    x_coeff = _fraction(param.x_coeff)
    powers = [[Fraction(1)] + [Fraction(0)] * top]
    residual = [Fraction(0)] * (top + 1)
    for (a, b), c in f.coeffs.items():
        while len(powers) <= b:
            powers.append(_times(powers[-1], y, top))
        scale = _fraction(c) * x_coeff ** a
        shift = f.order.n * a
        for k in range(top + 1 - shift):
            residual[k + shift] += scale * powers[b][k]
    return residual


@pytest.mark.parametrize("n,m", CORPUS)
def test_parametrization_solves_the_curve(n, m):
    """Substituting the branch into f gives 0 modulo t^t_horizon; the oracle
    gives dx and dy the values n and m, and df an infinite one."""
    eq = _all_ones(n, m)
    param = newton_puiseux(eq)
    assert all(c == 0 for c in _fraction_residual(eq.f, param))
    assert oracle_differential_value(basic_form(eq.f, "dx"), param) == n
    assert oracle_differential_value(basic_form(eq.f, "dy"), param) == m
    assert oracle_differential_value(OneForm(*eq.partials), param) is None


@pytest.mark.parametrize("eq", BRANCH_CASES, ids=BRANCH_IDS)
def test_branch_is_exact_and_integral(eq):
    """The residual, computed without the integer table, vanishes; and
    v_k = y_k * D^(k-m) / c0 is the table's integer v_k."""
    param = newton_puiseux(eq)
    assert all(c == 0 for c in _fraction_residual(eq.f, param))
    m, v = eq.sg.m, param._table(1, False)
    top = len(param.powers) - 1
    assert all(type(c) is int for b in range(top + 1) for c in param._table(b, False))
    assert all(c == 0 for c in param.y[:m])
    for k in range(m, param.t_horizon + 1):
        vk = param.y[k] * param.scale ** (k - m) / param.c0
        assert vk.denominator == 1
        assert vk == v[k]


_COEFF = st.builds(Rat, st.integers(-5, 5).filter(bool), st.integers(1, 3))


@st.composite
def _branch_curves(draw):
    """A nice curve with a random support, or an adapted one: mu in
    {2, -3, 2/3, -5/7}, up to five terms between nm and 2nm, and one of
    y-degree above n, as in adapted-4-5-y5-x6."""
    n, m = draw(st.sampled_from(coprime_pairs(range(2, 7), 11)))
    sg = Semigroup(n, m)
    if draw(st.booleans()):
        J = sg.sets.J
        return CurveEquation.nice(sg, draw(st.dictionaries(st.sampled_from(J), _COEFF))
                                  if J else {})
    window = [(a, b) for a in range(2 * m + 1) for b in range(2 * n + 1)
              if n * m < n * a + m * b <= 2 * n * m]
    terms = {(m, 0): draw(st.sampled_from([Rat(2), Rat(-3), Rat(2, 3), Rat(-5, 7)])),
             (0, n): Rat(1)}
    terms.update(draw(st.dictionaries(st.sampled_from(window), _COEFF, max_size=5)))
    terms[draw(st.sampled_from([(a, b) for a, b in window if b > n]))] = draw(_COEFF)
    return CurveEquation(sg, TruncatedPoly(sg.order, sg.branch_horizon, terms))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_branch_curves())
def test_branch_equals_the_reference_solve(eq):
    """At nm, H_Delta and 2nm, the scaled equation and the branch equal
    those of the references (``cusp_testkit``), which take every step
    k = m+1..window on a table through s^work and check the residual on
    powers rebuilt through s^work: the scale, H's terms, the power table
    and y, bit for bit.  (xi, c0) solves mu * xi^m + c0^n = 0."""
    sg = eq.sg
    n, m, nm = sg.n, sg.m, sg.n * sg.m
    xi, c0 = _leading_solution(n, m, eq.mu)
    assert eq.mu * xi ** m + c0 ** n == 0
    for h in sorted({nm, sg.delorme_horizon, sg.branch_horizon}):
        f = eq.f.truncated(h)
        scale, terms = reference_scaled_equation(f, xi, c0)
        assert _scaled_equation(f, xi, c0) == (scale, terms)
        powers = tuple(reference_solve_branch(n, m, terms, h - nm + n + m))
        param = newton_puiseux(eq, h)
        assert (param.x_coeff, param.c0, param.scale, param.powers) == (xi, c0, scale, powers)
        assert param.y == Parametrization(n, m, xi, c0, scale, powers).y


@pytest.mark.parametrize("case", ["4-9", "5-7", "6-7", "adapted-4-5-mu2"])
def test_branch_check_does_not_trust_the_recursion(monkeypatch, case):
    """The residual check rebuilds the powers from v alone.  The last
    product the recursion takes is one of the entry of v^n that its last
    step reads; off by n, it moves P_k by n, and v's last coefficient by
    one, and the solve raises NoSolution.  A check on the recursion's own
    table would pass, since each step zeroes a coefficient of H against
    that table."""
    eq = BRANCH_CASES[BRANCH_IDS.index(case)]
    products = []

    def product(a, b):
        products.append(None)
        return a * b

    monkeypatch.setattr(curve, "mul", product)
    newton_puiseux(eq)
    last, products[:] = len(products), []
    monkeypatch.setattr(curve, "mul", lambda a, b: product(a, b) + eq.sg.n * (len(products) == last))
    with pytest.raises(NoSolution, match="residual does not vanish"):
        newton_puiseux(eq)


@pytest.mark.parametrize("eq", BRANCH_CASES, ids=BRANCH_IDS)
def test_branch_builds_one_power_table(monkeypatch, eq):
    """The recursion fills its own table; the postcondition's table v^0..v^top
    (top the largest y-degree in f) is the only one built by series products."""
    calls = count_calls(monkeypatch, _series.mul)
    newton_puiseux(eq)
    top = max(b for _, b in eq.f.coeffs)
    assert len(calls) <= top - 1


@pytest.mark.parametrize("eq", BRANCH_CASES, ids=BRANCH_IDS)
def test_infinite_value_solves_the_whole_branch(monkeypatch, eq):
    """newton_puiseux solves the whole branch, through t_horizon = nm + n + m.
    The oracle's walk on df (infinite value) reads its tables to the end,
    and a power past those of f is built to the end too, without a solve."""
    n, m = eq.sg.n, eq.sg.m
    param = newton_puiseux(eq)
    assert param.t_horizon == n * m + n + m
    solves = count_calls(monkeypatch, _solve_branch)
    param._table(len(param.powers), True)
    assert oracle_differential_value(OneForm(*eq.partials), param) is None
    assert not solves
    assert all(len(t) == param.t_horizon + 1 for t in param._tables.values())


@pytest.mark.parametrize("read", ["y", "_table"])
def test_reading_the_table_solves_the_whole_branch(monkeypatch, read):
    """y and _table serve t^0..t^t_horizon from the one solve that
    newton_puiseux ran; a read solves nothing more."""
    eq = BRANCH_CASES[BRANCH_IDS.index("adapted-4-5-y5-x6")]
    solves = count_calls(monkeypatch, _solve_branch)
    param = newton_puiseux(eq)
    assert len(param.powers) == eq.sg.n + 2
    got = param._table(2, True) if read == "_table" else param.y
    assert len(got) == param.t_horizon + 1
    assert len(solves) == 1


@pytest.mark.parametrize("eq", BRANCH_CASES, ids=BRANCH_IDS)
def test_branch_at_a_lower_horizon_solves_f_cut_there(eq):
    """newton_puiseux(eq, H) for nm <= H <= 2nm solves the branch of f cut at
    H through t_horizon = H - nm + n + m: its residual against that cut
    vanishes, and its y is the 2nm branch's through t^(H - nm + m)
    (``Semigroup.branch_horizon``)."""
    sg = eq.sg
    n, m, nm = sg.n, sg.m, sg.n * sg.m
    full = newton_puiseux(eq)
    for h in sorted({nm, sg.delorme_horizon, sg.branch_horizon}):
        param = newton_puiseux(eq, h)
        assert param.t_horizon == h - nm + n + m
        assert all(c == 0 for c in _fraction_residual(eq.f.truncated(h), param))
        assert param.y[:h - nm + m + 1] == full.y[:h - nm + m + 1]


def test_branch_on_a_term_above_the_horizon():
    """On x^4 + y^3 + y^4, y^4 (weight 16) lies above H_Delta = 12, and its
    v^4 would start at s^16, past the table of the window at H_Delta
    (through s^(7 + 12 - 4) = s^15): newton_puiseux cuts f at the horizon
    with the window.  The y^4 term first moves y at t^(16 - 8) = t^8, one
    past the window: the two branches agree on all of it."""
    eq = _adapted(3, 4, {(4, 0): Rat(1), (0, 4): Rat(1)})
    low, full = newton_puiseux(eq, 12), newton_puiseux(eq)
    assert low.t_horizon == 7
    assert low.y == full.y[:8]
    assert full.y[8] != 0


def test_branch_horizon_above_2nm_is_refused():
    eq = BRANCH_CASES[BRANCH_IDS.index("4-9")]
    with pytest.raises(ValueError, match="cannot raise the horizon 72 to 73"):
        newton_puiseux(eq, 73)


@pytest.mark.parametrize("h", [35, 32, 31], ids=["below-nm", "window-at-s^m", "window-misses-s^m"])
def test_branch_horizon_below_nm_is_refused(h):
    """On (4, 9) a horizon below nm = 36 drops x^9 and y^4, and below
    nm - n = 32 its window t^(h - 36 + 13) misses s^9 too: each raises
    before any solve."""
    eq = BRANCH_CASES[BRANCH_IDS.index("4-9")]
    with pytest.raises(ValueError, match=f"branch horizon {h} is below nm = 36"):
        newton_puiseux(eq, h)


def test_exact_division_raises_on_a_remainder():
    assert _series.exact_div(-12, 4) == -3
    with pytest.raises(ArithmeticError, match="inexact"):
        _series.exact_div(7, 2)


def test_parametrization_pin_49():
    eq = CurveEquation.nice(Semigroup(4, 9), {1: Rat(1)})
    param = newton_puiseux(eq)
    assert param.x_coeff == -1
    assert param.y[9] == 1
    assert param.y[10] == Rat(1, 4)
    assert param.y[11] == Rat(-1, 32)
    assert all(param.y[i] == 0 for i in range(9))


def test_parametrization_of_adapted_equation():
    o = WeightedOrder(4, 5)
    f = TruncatedPoly(o, 40, {(0, 4): 1, (5, 0): 2, (3, 2): 1})
    eq = CurveEquation(Semigroup(4, 5), f)
    param = newton_puiseux(eq)
    assert all(c == 0 for c in _fraction_residual(eq.f, param))
    assert param.x_coeff == -8
    assert [(k, c) for k, c in enumerate(param.y) if c][:6] == [
        (5, 16), (7, 8), (9, 2), (11, -1), (13, Rat(-5, 8)), (15, Rat(7, 16))]


@pytest.mark.parametrize("eq", BRANCH_CASES, ids=BRANCH_IDS)
def test_y_power_dy_is_the_product_with_y_prime(eq):
    """y^b * y', read off the theta table that the oracle's dy parts use as
    t^-1 * t(y^(b+1))' / (b+1), equals the Fraction product y^b times y'."""
    param = newton_puiseux(eq)
    m, top, D = eq.sg.m, param.t_horizon - 1, Fraction(param.scale)
    c0 = _fraction(param.c0)
    y = [_fraction(c) for c in param.y]
    y_prime = [k * c for k, c in enumerate(y)][1:]
    y_power = [Fraction(1)] + [Fraction(0)] * top
    for b in range(eq.sg.n + 1):
        theta = param._table(b + 1, True)
        from_table = [c0 ** (b + 1) * theta[k + 1] / ((b + 1) * D ** (k + 1 - m * (b + 1)))
                      for k in range(top + 1)]
        assert from_table == _times(y_power, y_prime, top)
        y_power = _times(y_power, y, top)


HORIZON_PAIRS = coprime_pairs(range(2, 8), 14)


def _above_2nm(n, m) -> dict:
    """Every term x^a*y^b with 2nm < na + mb <= 3nm and b <= n, each with
    its own small coefficient."""
    return {(a, b): Rat((-1) ** a * (a + 1), b + 1)
            for b in range(n + 1) for a in range(3 * m + 1)
            if 2 * n * m < n * a + m * b <= 3 * n * m}


def _branch_at(g: TruncatedPoly) -> Parametrization:
    """The branch of g through t^(nm + n + m), solved by the steps of
    ``newton_puiseux`` on g as it is: no CurveEquation holds a term above
    2nm, so this is the only way to read one."""
    n, m = g.order.n, g.order.m
    xi, c0 = _leading_solution(n, m, g.coeffs[(m, 0)])
    scale, terms = _scaled_equation(g, xi, c0)
    return Parametrization(n, m, xi, c0, scale,
                           tuple(_solve_branch(n, m, terms, n * m + n + m)))


@pytest.mark.parametrize("eq,above",
                         [(_all_ones(n, m), _above_2nm(n, m)) for n, m in HORIZON_PAIRS]
                         + [(_adapted_45_mu2(), _above_2nm(4, 5)),
                            (_adapted(4, 5, {(5, 0): Rat(1)}), {(9, 1): Rat(1)})],
                         ids=[f"{n}-{m}" for n, m in HORIZON_PAIRS]
                         + ["adapted-4-5-mu2", "adapted-4-5-x9y"])
def test_newton_puiseux_horizons_agree_on_common_prefix(eq, above):
    """Terms of f above 2nm change no order the oracle reads, the reason f is
    held at 2nm (``Semigroup.branch_horizon``).  With such terms added, at
    4nm, the branch agrees with that of f through t^(nm + m) and parts from
    it later, inside the window; yet every form of Delorme's run, every
    monomial form of degree <= nm and df read the same oracle value on
    both branches."""
    sg = eq.sg
    n, m = sg.n, sg.m
    param = newton_puiseux(eq)
    wide = _branch_at(TruncatedPoly(sg.order, 4 * n * m, {**eq.f.coeffs, **above}))
    assert wide.t_horizon == param.t_horizon == n * m + n + m
    assert wide.y[:n * m + m + 1] == param.y[:n * m + m + 1]
    assert wide.y != param.y
    diff = delorme(eq)
    forms = [*diff.forms, *diff.trail, OneForm(*eq.partials)]
    for which in ("dx", "dy"):
        basic = basic_form(eq.f, which)
        forms += [form_mul_monomial(basic, 1, (a, b)) for a in range(m + 1) for b in range(n)
                  if n * a + m * b <= n * m]
    for form in forms:
        assert oracle_differential_value(form, wide) == oracle_differential_value(form, param)
