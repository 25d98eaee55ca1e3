"""Residues, their vanishing decisions and intervals, and root verdicts."""
from __future__ import annotations

import random
from math import factorial, gcd

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from cuspidal import CurveEquation, Semigroup, cuspidal_sets
from cuspidal.bernstein import (
    Certificate,
    GammaExpr,
    NegativeK,
    PreconditionViolation,
    ResidueDecision,
    RootCandidate,
    RootDecision,
    certified_roots_from_semimodule,
    decide_root,
    delta_sequences,
    four_condition_check,
    interval_certificate,
    residue,
    residue_is_zero,
    zariski_condition_check,
)
from cuspidal.differentials import delorme
from cuspidal.poly import TruncatedPoly, WeightedOrder
from cuspidal.rationals import Rat
from cuspidal.semimodules import AbstractSemimodule
from cusp_testkit import count_calls

EQ49 = CurveEquation.nice(Semigroup(4, 9), {1: Rat(1)})
EQ49_DEG = CurveEquation.nice(Semigroup(4, 9), {1: Rat(1), 2: Rat(7, 18)})
EQ45_QH = CurveEquation.nice(Semigroup(4, 5))


def test_root_candidate_for_gap():
    cand = RootCandidate.for_gap(Semigroup(4, 9), 1)
    assert cand.beta == Rat(7, 18)
    assert cand.alpha_val == Rat(25, 18)


def test_root_candidate_validates_range():
    with pytest.raises(ValueError):
        RootCandidate(j=1, beta=Rat(3, 2))


def test_delta_sequences_small():
    assert {d.entries for d in delta_sequences((1, 2, 6, 10), 2)} == {
        ((1, 2),), ((2, 1),)}
    assert {d.entries for d in delta_sequences((1, 2, 6, 10), 0)} == {()}
    assert {d.entries for d in delta_sequences((1, 2, 6, 10), 5)} == {
        ((1, 5),), ((1, 3), (2, 1)), ((1, 1), (2, 2))}
    with pytest.raises(ValueError):
        delta_sequences((1, 2), -1)


def test_delta_sequence_statistics():
    (d,) = [d for d in delta_sequences((1, 2, 6, 10), 5)
            if d.entries == ((1, 1), (2, 2))]
    assert d.total == 3          # number of gamma factors drawn


def test_gamma_expr_canonical_form():
    e = GammaExpr.from_terms([(Rat(1, 2), (Rat(16, 9), Rat(3, 4)))])
    assert e.groups == (((Rat(3, 4), Rat(7, 9)), Rat(7, 18)),)
    assert str(e) == "(7/18)*Gamma(3/4)*Gamma(7/9)"


def test_gamma_expr_cancellation():
    e = GammaExpr.from_terms([(Rat(3), (Rat(1, 2),)), (Rat(-3), (Rat(1, 2),))])
    assert e.is_zero
    assert e.groups == ()


def test_gamma_expr_refuses_two_argument_pairs():
    """A residue is one Gamma group, so two distinct argument pairs are a
    bug upstream, refused whether built from terms or given directly."""
    pairs = [(Rat(1), (Rat(1, 2), Rat(2, 3))), (Rat(-1), (Rat(1, 3), Rat(3, 4)))]
    with pytest.raises(ValueError, match="two argument tuples"):
        GammaExpr.from_terms(pairs)
    # lowered arguments are compared: 3/2 lowers to 1/2, 5/3 to 2/3
    with pytest.raises(ValueError, match="two argument tuples"):
        GammaExpr.from_terms([(Rat(1), (Rat(3, 2), Rat(2, 3))),
                              (Rat(1), (Rat(1, 2), Rat(1, 3)))])
    with pytest.raises(ValueError, match="at most one Gamma group"):
        GammaExpr((((Rat(1, 2), Rat(2, 3)), Rat(1)), ((Rat(1, 3), Rat(3, 4)), Rat(-1))))


def test_gamma_expr_rejects_nonpositive_argument():
    with pytest.raises(ValueError):
        GammaExpr.from_terms([(Rat(1), (Rat(0),))])


@pytest.mark.parametrize("groups", [
    (((Rat(1, 2),), Rat(0)),),               # a zero coefficient
    (((Rat(3, 2),), Rat(1)),),               # an argument above 1
    (((Rat(-1, 2), Rat(1, 3)), Rat(1)),),    # a negative argument flips Gamma's sign
])
def test_gamma_expr_refuses_non_canonical_groups(groups):
    """The exact sign of a single group rests on this form, so a hand-built
    expression outside it is refused rather than certified."""
    with pytest.raises(ValueError, match="not a canonical group"):
        GammaExpr(groups)


def _lower(r):
    """Gamma(r) = mult * Gamma(low) with low in (0, 1], one step at a time in
    rational arithmetic: Gamma(r) = (r-1) Gamma(r-1) while r > 1."""
    mult = Rat(1)
    while r > 1:
        r -= 1
        mult *= r
    return r, mult


def _reference_from_terms(terms) -> GammaExpr:
    """``GammaExpr.from_terms`` with rational step-by-step lowering; each
    distinct argument is lowered once per call."""
    key, total = None, Rat(0)
    seen = {}
    for c, args in terms:
        lowered = []
        for r in args:
            if r not in seen:
                seen[r] = _lower(r)
            low, mult = seen[r]
            c *= mult
            lowered.append(low)
        lowered = tuple(sorted(lowered))
        assert key in (None, lowered)
        key, total = lowered, total + c
    return GammaExpr(((key, total),) if total else ())


def _reference_residue(eq, ab, beta) -> GammaExpr:
    """``residue`` without the curve's table: every call enumerates the
    delta sequences of its k and lowers them step by step."""
    n, m = eq.sg.n, eq.sg.m
    a, b = ab
    k = beta * (n * m) - n * a - m * b
    assert k.denominator == 1 and k >= 0
    z = eq.nice_coeffs
    terms = []
    for seq in delta_sequences(tuple(z), int(k)):
        s1, s2, coeff = a, b, Rat(-1) ** seq.total
        for part, d in seq.entries:
            p1, p2 = eq.sets.p_of(part)
            s1 += d * p1
            s2 += d * p2
            coeff = coeff * z[part] ** d / factorial(d)
        terms.append((coeff, (Rat(s1, m), Rat(s2, n))))
    return _reference_from_terms(terms)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 38), st.integers(1, 20), st.integers(1, 20),
       st.integers(-9, 9), st.integers(1, 7), st.integers(1, 40))
def test_gamma_functional_equation(whole, frac, den, cnum, cden, other):
    """Gamma(r+1) = r Gamma(r) survives the integer lowering for every r in
    (0, 39], so for arguments up to 40, and the lowering agrees with the
    step-by-step one, beside a second argument."""
    r = Rat(whole * den + min(frac, den), den)
    s = Rat(other, den)
    c = Rat(cnum if cnum else 1, cden)
    lhs = GammaExpr.from_terms([(c, (r + 1,))])
    rhs = GammaExpr.from_terms([(c * r, (r,))])
    assert lhs == rhs == _reference_from_terms([(c * r, (r,))])
    pair = [(c, (r + 1, s))]
    assert GammaExpr.from_terms(pair) == _reference_from_terms(pair)


def test_residue_pin_45():
    eq = CurveEquation.nice(Semigroup(4, 5), {2: Rat(1)})
    expr = residue(eq, (1, 1), Rat(11, 20))
    assert expr.groups == (((Rat(3, 4), Rat(4, 5)), Rat(-1)),)


def test_residue_support_pruning_pin():
    # only z_1 is nonzero, so k = 1 admits a single delta-sequence
    expr = residue(EQ49, (1, 1), Rat(7, 18))
    assert expr.groups == (((Rat(1, 2), Rat(8, 9)), Rat(-1)),)


def test_residue_quadratic_cancellation():
    """The two k = 2 sequences at (2, 1) merge into one group whose
    coefficient vanishes exactly on the constructed degenerate curve."""
    expr = residue(EQ49_DEG, (2, 1), Rat(19, 36))
    assert expr.is_zero
    # with z_2 = 0 only the z_1^2 sequence survives: (7/18) z_1^2
    assert residue(EQ49, (2, 1), Rat(19, 36)).groups == (
        ((Rat(3, 4), Rat(7, 9)), Rat(7, 18)),)
    both = CurveEquation.nice(Semigroup(4, 9), {1: Rat(1), 2: Rat(1)})
    assert residue(both, (2, 1), Rat(19, 36)).groups == (
        ((Rat(3, 4), Rat(7, 9)), Rat(-11, 18)),)


def _nice_curves(seed: int, densities=(0.25, 0.5, 0.75)):
    """One seeded nice curve per coprime pair n <= 7, m <= 13 and per
    support density: each z_j is drawn nonzero with that probability."""
    for n in range(2, 8):
        for m in range(n + 1, 14):
            if gcd(n, m) != 1:
                continue
            sg = Semigroup(n, m)
            rng = random.Random(f"{seed}:{n}:{m}")
            for density in densities:
                yield CurveEquation.nice(sg, {
                    j: Rat(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 3))
                    for j in cuspidal_sets(sg).J if rng.random() < density})


def test_every_residue_is_one_group_at_the_predicted_arguments():
    """The theorem in `residue`'s docstring, checked on random curves: at
    every test exponent in M and every beta_j, the residue is zero or one
    group, at the arguments B/n mod m and B/m mod n lowered into (0, 1],
    where B = beta*nm."""
    nonzero = 0
    for eq in _nice_curves(seed=10):
        n, m = eq.sg.n, eq.sg.m
        sets = eq.sets
        for j in sets.J:
            big_b = j + n + m
            s1 = big_b * pow(n, -1, m) % m or m
            s2 = big_b * pow(m, -1, n) % n or n
            predicted = tuple(sorted((Rat(s1, m), Rat(s2, n))))
            for a, b in sets.M:
                if big_b < n * a + m * b:
                    continue
                expr = residue(eq, (a, b), Rat(big_b, n * m))
                assert len(expr.groups) <= 1
                if expr.groups:
                    nonzero += 1
                    assert expr.groups[0][0] == predicted
    assert nonzero > 1000


def _queries(eq):
    """Every (j, (a, b)) with j in J, (a, b) in M and k >= 0, with beta_j."""
    n, m = eq.sg.n, eq.sg.m
    return [((a, b), Rat(j + n + m, n * m)) for j in eq.sets.J for a, b in eq.sets.M
            if j + n + m >= n * a + m * b]


def test_residue_table_equals_the_direct_sum():
    """The per-curve table gives the residue of a fresh enumeration at every
    j in J and (a, b) in M with k >= 0, on every pair n <= 7, m <= 13, at
    supports of density 0.3 and 1."""
    checked = nonzero = 0
    for eq in _nice_curves(seed=13, densities=(0.3, 1)):
        n, m = eq.sg.n, eq.sg.m
        targets = set()
        for (a, b), beta in _queries(eq):
            expr = residue(eq, (a, b), beta)
            assert expr == _reference_residue(eq, (a, b), beta)
            targets.add(int(beta * n * m) - n * a - m * b)
            checked += 1
            nonzero += not expr.is_zero
        assert set(eq.delta_table) == targets  # one entry per k, none other
    assert checked > 1500 and nonzero > 1000


def test_residue_table_is_order_free_and_per_curve():
    """Queries in shuffled order on one curve, and interleaved on two curves
    of one pair, each give the residue of a fresh enumeration: the table of
    one k does not depend on the first (a, b) that filled it, and nothing
    passes from one curve to the other."""
    sg = Semigroup(6, 11)
    rng = random.Random("table")
    eqs = [CurveEquation.nice(sg, {j: Rat(rng.choice([-1, 1]) * rng.randint(1, 5),
                                          rng.randint(1, 3))
                                   for j in cuspidal_sets(sg).J if rng.random() < 0.6})
           for _ in range(2)]
    assert eqs[0].nice_coeffs != eqs[1].nice_coeffs
    queries = [(eq, q) for eq in eqs for q in _queries(eq)]
    rng.shuffle(queries)
    for eq, (ab, beta) in queries:
        assert residue(eq, ab, beta) == _reference_residue(eq, ab, beta)
    assert eqs[0].delta_table is not eqs[1].delta_table
    assert eqs[0].delta_table.keys() == eqs[1].delta_table.keys()
    assert eqs[0].delta_table != eqs[1].delta_table


def test_residue_error_taxonomy():
    with pytest.raises(NegativeK):
        residue(EQ49, (3, 1), Rat(7, 18))
    with pytest.raises(ValueError):
        residue(EQ49, (1, 1), Rat(1, 7))  # k not an integer
    f = TruncatedPoly(WeightedOrder(4, 5), 80, {(0, 4): 1, (5, 0): 2})
    adapted = CurveEquation.adapted(Semigroup(4, 5), f)
    with pytest.raises(ValueError):
        residue(adapted, (1, 1), Rat(11, 20))


def test_residue_is_zero_two_values():
    assert residue_is_zero(GammaExpr(())) is ResidueDecision.ZERO
    single = GammaExpr.from_terms([(Rat(-1), (Rat(3, 4), Rat(8, 9)))])
    assert residue_is_zero(single) is ResidueDecision.NONZERO


def test_interval_certificate_pin():
    expr = GammaExpr.from_terms([(Rat(-1), (Rat(3, 4), Rat(8, 9)))])
    cert = interval_certificate(expr)
    assert (cert.sign, cert.precision_bits) == (-1, 256)
    assert mpmath.mpf(cert.upper) < 0
    assert mpmath.mpf(cert.relative_width) < mpmath.mpf("1e-30")
    assert interval_certificate(GammaExpr(())) == Certificate(0, 256, "0", "0", "0")


@pytest.mark.parametrize("j,kind,root,witness", [
    (1, "beta_root", Rat(-7, 18), (1, 1)),
    (2, "beta_root", Rat(-5, 12), None),
    (10, "beta_root", Rat(-23, 36), (1, 2)),
])
def test_decide_root_49(j, kind, root, witness):
    dec = decide_root(EQ49, j)
    assert dec.kind == kind
    assert dec.root == root
    if witness is not None:
        assert dec.witness == witness
    assert residue_is_zero(residue(EQ49, dec.witness, -root)) is ResidueDecision.NONZERO


def test_root_decision_is_kind_root_and_witness():
    """A verdict holds what its readers print; the witness residue is
    recomputed from it."""
    dec = decide_root(EQ49, 10)
    assert dec == RootDecision("beta_root", Rat(-23, 36), (1, 2))
    expr = residue(EQ49, dec.witness, -dec.root)
    assert str(expr) == "(-1)*Gamma(3/4)*Gamma(8/9)"
    assert residue_is_zero(expr) is ResidueDecision.NONZERO


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(-9, 9).filter(bool), st.integers(1, 7),
       st.lists(st.tuples(st.integers(1, 40), st.integers(1, 12)), min_size=1, max_size=2))
def test_exact_sign_agrees_with_interval(cnum, cden, args):
    """A single group is nonzero with its coefficient's sign, also after
    from_terms lowers arguments above 1 into (0, 1]."""
    expr = GammaExpr.from_terms([(Rat(cnum, cden), tuple(Rat(p, q) for p, q in args))])
    assert residue_is_zero(expr) is ResidueDecision.NONZERO
    ((_, coeff),) = expr.groups
    assert (1 if coeff > 0 else -1) == interval_certificate(expr).sign


def test_checks_reject_semimodule_of_other_pair():
    other = delorme(EQ45_QH).values
    with pytest.raises(ValueError, match="different semigroup"):
        zariski_condition_check(EQ49, other)
    with pytest.raises(ValueError, match="different semigroup"):
        four_condition_check(EQ49, other)


def test_decide_root_certifies_once(monkeypatch):
    """The witness residue is one group, nonzero exactly: the verdict
    computes no interval."""
    intervals = count_calls(monkeypatch, interval_certificate)
    dec = decide_root(EQ49, 10)
    assert (dec.kind, dec.witness) == ("beta_root", (1, 2))
    assert intervals == []


def test_decide_root_alpha_case():
    dec = decide_root(EQ45_QH, 2)
    assert dec.kind == "alpha_root"
    assert dec.root == Rat(-31, 20)
    assert dec.witness is None


def test_decide_root_validates_j():
    with pytest.raises(ValueError):
        decide_root(EQ49, 3)


def test_certified_roots_small_multiplicity():
    diff = delorme(CurveEquation.nice(Semigroup(4, 5), {2: Rat(1)}))
    assert certified_roots_from_semimodule(diff.values) == {Rat(-11, 20)}
    sm = AbstractSemimodule(Semigroup(4, 9), (4, 9, 14, 19))
    assert certified_roots_from_semimodule(sm) == {
        Rat(-7, 18), Rat(-19, 36), Rat(-23, 36)}
    assert certified_roots_from_semimodule(
        AbstractSemimodule(Semigroup(4, 9), (4, 9))) == frozenset()


@pytest.mark.parametrize("pair,coeffs", [
    ((4, 9), {1: Rat(1)}),
    ((4, 5), {2: Rat(1)}),
    ((5, 7), {1: Rat(1), 4: Rat(-2)}),
    ((5, 7), {}),
])
def test_certified_roots_take_delorme_values(pair, coeffs):
    sg = Semigroup(*pair)
    values = delorme(CurveEquation.nice(sg, coeffs)).values
    assert isinstance(values, AbstractSemimodule)
    assert (certified_roots_from_semimodule(values)
            == certified_roots_from_semimodule(AbstractSemimodule(sg, values.basis)))


def test_certified_roots_large_multiplicity_uses_lambda1_cone():
    sm = AbstractSemimodule(Semigroup(5, 7), (5, 7, 13))
    # (13 + Gamma) \ Gamma = {13, 18, 20, 23, 25}∩gaps = {13, 18, 23}
    assert certified_roots_from_semimodule(sm) == {
        Rat(-13, 35), Rat(-18, 35), Rat(-23, 35)}


def test_zariski_report_pin():
    rep = zariski_condition_check(EQ49, delorme(EQ49).values)
    assert rep.j1 == 1
    assert rep.lambda1 == 14
    assert rep.residue_j1 == 1
    assert rep.chain == ((1, "nonzero"),)
    assert rep.dagger == ((14, (1, 1), "nonzero"), (23, (1, 2), "nonzero"))
    assert rep.consistent


def test_zariski_quasihomogeneous():
    rep = zariski_condition_check(EQ45_QH, delorme(EQ45_QH).values)
    assert rep.j1 is None and rep.lambda1 is None and rep.residue_j1 is None
    assert rep.chain == ((2, "zero"),)
    assert rep.dagger == ()
    assert rep.consistent


def test_four_report_pin():
    rep = four_condition_check(EQ49, delorme(EQ49).values)
    assert (rep.alpha, rep.epsilon, rep.q) == (2, 1, 0)
    assert rep.q_prime_coeffs == 0 == rep.q_prime_delorme
    assert rep.chain == ((0, "nonzero"),)
    assert rep.dagger == ((19, (2, 1), "nonzero"),)
    assert rep.consistent


def test_four_report_degenerate():
    """Coefficients sitting exactly on the quadratic locus drop lambda_2: the
    residue chain vanishes identically and both q' predictions agree on None."""
    rep = four_condition_check(EQ49_DEG, delorme(EQ49_DEG).values)
    assert rep.q_prime_coeffs is None and rep.q_prime_delorme is None
    assert rep.chain == ((0, "zero"),)
    assert rep.consistent


def test_four_requires_multiplicity_four():
    eq = CurveEquation.nice(Semigroup(5, 7))
    with pytest.raises(PreconditionViolation):
        four_condition_check(eq, delorme(eq).values)
