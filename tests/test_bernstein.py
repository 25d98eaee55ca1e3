"""Residues, gamma-product certificates, and certified root decisions."""
from __future__ import annotations

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from cuspidal import CurveEquation, Semigroup
from cuspidal.bernstein import (
    Certificate,
    CertificateError,
    GammaExpr,
    NegativeK,
    PreconditionViolation,
    ResidueDecision,
    RootCandidate,
    certified_roots_from_semimodule,
    certify_residue,
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
from conftest import count_calls

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
    assert d.weight == 5         # weighted sum, the k it decomposes
    assert d.multiplicity(2) == 2
    assert d.multiplicity(6) == 0


def test_gamma_expr_canonical_form():
    e = GammaExpr.from_terms([(Rat(1, 2), (Rat(16, 9), Rat(3, 4)))])
    assert e.groups == (((Rat(3, 4), Rat(7, 9)), Rat(7, 18)),)
    assert str(e) == "(7/18)*Gamma(3/4)*Gamma(7/9)"


def test_gamma_expr_cancellation():
    e = GammaExpr.from_terms([(Rat(3), (Rat(1, 2),)), (Rat(-3), (Rat(1, 2),))])
    assert e.is_zero
    assert e.groups == ()


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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 60), st.integers(1, 20), st.integers(-9, 9), st.integers(1, 7))
def test_gamma_functional_equation(num, den, cnum, cden):
    """Gamma(r+1) = r Gamma(r) survives canonicalization for any r > 0."""
    r = Rat(num, den)
    c = Rat(cnum if cnum else 1, cden)
    lhs = GammaExpr.from_terms([(c, (r + 1,))])
    rhs = GammaExpr.from_terms([(c * r, (r,))])
    assert lhs == rhs


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


def test_residue_error_taxonomy():
    with pytest.raises(NegativeK):
        residue(EQ49, (3, 1), Rat(7, 18))
    with pytest.raises(ValueError):
        residue(EQ49, (1, 1), Rat(1, 7))  # k not an integer
    f = TruncatedPoly(WeightedOrder(4, 5), 80, {(0, 4): 1, (5, 0): 2})
    adapted = CurveEquation.adapted(Semigroup(4, 5), f)
    with pytest.raises(ValueError):
        residue(adapted, (1, 1), Rat(11, 20))


def test_residue_is_zero_three_values():
    assert residue_is_zero(GammaExpr(())) is ResidueDecision.ZERO
    single = GammaExpr.from_terms([(Rat(-1), (Rat(3, 4), Rat(8, 9)))])
    assert residue_is_zero(single) is ResidueDecision.NONZERO
    two = GammaExpr.from_terms([(Rat(1), (Rat(1, 2),)), (Rat(-1), (Rat(1, 3),))])
    assert residue_is_zero(two) is ResidueDecision.NONZERO_ASSUMING_INDEPENDENCE


def test_interval_certificate_pin():
    expr = GammaExpr.from_terms([(Rat(-1), (Rat(3, 4), Rat(8, 9)))])
    cert = interval_certificate(expr)
    assert (cert.kind, cert.sign, cert.excludes_zero) == ("interval", -1, True)
    assert cert.precision_bits == 256
    assert mpmath.mpf(cert.upper) < 0
    assert mpmath.mpf(cert.relative_width) < mpmath.mpf("1e-30")


def test_certificate_fails_loudly_on_tight_cancellation():
    """A two-group sum tuned to vanish to 500 digits cannot be certified at
    1024 bits; the library must raise instead of answering."""
    saved = mpmath.mp.prec
    try:
        mpmath.mp.prec = 2100
        ratio = mpmath.gamma(mpmath.mpf(1) / 3) / mpmath.gamma(mpmath.mpf(1) / 2)
        c = Rat(int(mpmath.floor(ratio * mpmath.mpf(10) ** 500)), 10 ** 500)
    finally:
        mpmath.mp.prec = saved
    close = GammaExpr.from_terms([(Rat(1), (Rat(1, 3),)), (-c, (Rat(1, 2),))])
    with pytest.raises(CertificateError):
        residue_is_zero(close)


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
        assert dec.decision in (ResidueDecision.NONZERO,
                                ResidueDecision.NONZERO_ASSUMING_INDEPENDENCE)
        assert dec.certificate.excludes_zero


def test_certify_residue_pairs_decision_with_certificate():
    assert certify_residue(GammaExpr(())) == (ResidueDecision.ZERO, None)
    expr = residue(EQ49, (1, 2), Rat(23, 36))
    decision, cert = certify_residue(expr, 512)
    assert decision is residue_is_zero(expr, 512) is ResidueDecision.NONZERO
    assert cert == Certificate("exact", -1, 0)
    assert cert.lower is cert.upper is None
    two = GammaExpr.from_terms([(Rat(1), (Rat(1, 2),)), (Rat(-1), (Rat(1, 3),))])
    decision, cert = certify_residue(two, 512)
    assert (decision is residue_is_zero(two, 512)
            is ResidueDecision.NONZERO_ASSUMING_INDEPENDENCE)
    assert cert == interval_certificate(two, 512)
    assert (cert.kind, cert.sign, cert.precision_bits) == ("interval", -1, 512)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(-9, 9).filter(bool), st.integers(1, 7),
       st.lists(st.tuples(st.integers(1, 40), st.integers(1, 12)), min_size=1, max_size=2))
def test_exact_sign_agrees_with_interval(cnum, cden, args):
    """A single group's sign is its coefficient's, also after from_terms
    lowers arguments above 1 into (0, 1]."""
    expr = GammaExpr.from_terms([(Rat(cnum, cden), tuple(Rat(p, q) for p, q in args))])
    decision, cert = certify_residue(expr)
    assert decision is ResidueDecision.NONZERO
    assert (cert.kind, cert.excludes_zero, cert.precision_bits) == ("exact", True, 0)
    assert cert.sign == interval_certificate(expr).sign != 0


def test_checks_reject_semimodule_of_other_pair():
    other = delorme(EQ45_QH).values
    with pytest.raises(ValueError, match="different semigroup"):
        zariski_condition_check(EQ49, other)
    with pytest.raises(ValueError, match="different semigroup"):
        four_condition_check(EQ49, other)


def test_decide_root_certifies_once(monkeypatch):
    """The witness residue is one group, so its sign is exact: one
    certificate and no interval."""
    certified = count_calls(monkeypatch, certify_residue)
    intervals = count_calls(monkeypatch, interval_certificate)
    dec = decide_root(EQ49, 10)
    assert dec.kind == "beta_root"
    assert dec.certificate == Certificate("exact", -1, 0)
    assert len(certified) == 1
    assert len(intervals) == 0


def test_decide_root_alpha_case():
    dec = decide_root(EQ45_QH, 2)
    assert dec.kind == "alpha_root"
    assert dec.root == Rat(-31, 20)
    assert dec.witness is None
    assert dec.certificate is None


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
