"""Gamma-semimodules: bases, axes, critical values, and the n = 4 taxonomy."""
from __future__ import annotations

import pytest

from cuspidal import Semigroup
from cuspidal.differentials import _last_uncovered
from cuspidal.semimodules import (
    AbstractSemimodule,
    Unclassifiable,
    _axis,
    classify_four,
    covered,
    elements_outside,
    enumerate_increasing,
    validate_basis,
)
from cusp_testkit import coprime_pairs

SG49 = Semigroup(4, 9)


def test_validate_basis_accepts_minimal_increasing():
    assert validate_basis(SG49, (4, 9, 14, 19)) == (4, 9, 14, 19)


@pytest.mark.parametrize("basis", [
    (4,),                # missing lambda_0
    (9, 4),              # wrong order
    (4, 9, 13),          # 13 = 4 + 9 lies in the semigroup
    (4, 9, 14, 18),      # 18 = 14 + 4 is already covered by level 1
])
def test_validate_basis_rejects(basis):
    with pytest.raises(ValueError):
        validate_basis(SG49, basis)


def test_membership_levels():
    sm = AbstractSemimodule(SG49, (4, 9, 14, 19))
    assert sm.s == 2
    # 23 = 14 + 9 enters at level 1, 19 only at level 2
    first = AbstractSemimodule(SG49, sm.basis[:3])
    assert 23 in first
    assert 19 not in first
    assert 19 in sm
    assert 10 not in sm
    assert 3 not in sm


@pytest.mark.parametrize("basis,axes,crit", [
    ((4, 9), (13,), (4, 9, 13)),
    ((4, 9, 14), (13, 18), (4, 9, 13, 17)),
    ((4, 9, 15), (13, 24), (4, 9, 13, 22)),
    ((4, 9, 14, 19), (13, 18, 23), (4, 9, 13, 17, 21)),
])
def test_axes_and_criticals_pins(basis, axes, crit):
    sm = AbstractSemimodule(SG49, basis)
    assert (sm.axes, sm.critical) == (axes, crit)


def test_first_axis_is_n_plus_m():
    for pair in [(4, 5), (5, 7), (6, 7)]:
        sg = Semigroup(*pair)
        sm = AbstractSemimodule(sg, (sg.n, sg.m))
        axes, crit = sm.axes, sm.critical
        assert axes[0] == sg.n + sg.m
        assert crit[:2] == (sg.n, sg.m)


def test_elements_outside():
    sm = AbstractSemimodule(SG49, (4, 9, 14, 19))
    assert elements_outside(sm) == (14, 19, 23)
    assert elements_outside(AbstractSemimodule(SG49, (4, 9, 14))) == (14, 23)
    assert elements_outside(AbstractSemimodule(SG49, (4, 9))) == ()


def test_equal_semimodules_share_one_outside_tuple():
    """Lambda \\ Gamma is computed once per semimodule: two equal
    semimodules built apart, as verify builds Lambda and its first three
    basis elements, read the same tuple."""
    basis = (4, 9, 14, 19)
    first = elements_outside(AbstractSemimodule(SG49, basis))
    assert elements_outside(AbstractSemimodule(SG49, list(basis))) is first
    assert elements_outside(AbstractSemimodule(SG49, basis[:3])) is not first


def _outside_by_membership(sm) -> tuple:
    """Lambda \\ Gamma by its definition: every k below n + c that lies in
    Lambda and not in Gamma."""
    bound = sm.sg.n + sm.sg.conductor
    return tuple(k for k in range(bound) if k in sm and k not in sm.sg)


def test_elements_outside_is_the_membership_definition():
    """The bitset route equals the definition on all 543 increasing
    semimodules of the 31 pairs with 3 <= n <= 8, m <= 13."""
    sms = [sm for n, m in coprime_pairs(range(3, 9), 13)
           for sm in enumerate_increasing(Semigroup(n, m))]
    assert len(sms) == 543
    for sm in sms:
        assert elements_outside(sm) == _outside_by_membership(sm)


def _gamma_by_definition(sg) -> frozenset:
    """The elements n*a + m*b (a, b >= 0) of Gamma below 3(n + c), from the
    generators alone."""
    top = 3 * (sg.n + sg.conductor)
    return frozenset(sg.n * a + sg.m * b for a in range(top // sg.n + 1)
                     for b in range(top // sg.m + 1) if sg.n * a + sg.m * b < top)


def test_bitsets_are_their_set_definitions():
    """On the 543 increasing semimodules of
    ``test_elements_outside_is_the_membership_definition``, with Gamma built
    from its generators: ``covered`` of every basis prefix is the set of
    values below its bound in some lambda + Gamma, ``_last_uncovered`` is
    the largest value below c outside it, and each axis u_i is the least
    value in both lambda_{i-1} + Gamma and Lambda_{i-2}."""
    sms = [sm for n, m in coprime_pairs(range(3, 9), 13)
           for sm in enumerate_increasing(Semigroup(n, m))]
    assert len(sms) == 543
    for sm in sms:
        sg, basis, c = sm.sg, sm.basis, sm.sg.conductor
        gamma = _gamma_by_definition(sg)

        def spanned(k, lambdas):
            return any(k - lam in gamma for lam in lambdas)

        for k in range(2, len(basis) + 1):
            prefix = basis[:k]
            for bound in (c, sg.n + c):
                assert covered(sg, prefix, bound) == sum(
                    1 << v for v in range(bound) if spanned(v, prefix))
            assert _last_uncovered(sg, covered(sg, prefix, c)) == max(
                v for v in range(c) if not spanned(v, prefix))
        for i in range(1, len(basis)):
            assert _axis(sg, basis, i) == min(
                k for k in range(basis[i], basis[i] + 2 * c)
                if k - basis[i] in gamma and spanned(k, basis[:i]))


def test_covered_refuses_a_bound_past_n_plus_c():
    sg = SG49
    assert covered(sg, (4, 9), sg.n + sg.conductor) == sum(
        1 << k for k in range(sg.n + sg.conductor) if (k - 4) in sg or (k - 9) in sg)
    with pytest.raises(ValueError, match="exceeds n \\+ c"):
        covered(sg, (4,), sg.n + sg.conductor + 1)


def test_enumerate_increasing_49():
    bases = {sm.basis for sm in enumerate_increasing(SG49)}
    assert bases == {
        (4, 9), (4, 9, 14), (4, 9, 15), (4, 9, 19), (4, 9, 23), (4, 9, 14, 19),
    }


def test_enumerate_increasing_respects_axes():
    """Every enumerated semimodule with s >= 1 satisfies lambda_i > u_i."""
    for sm in enumerate_increasing(Semigroup(5, 6)):
        axes = sm.axes
        for i in range(1, len(sm.basis) - 1):
            assert sm.basis[i + 1] > axes[i - 1]


@pytest.mark.parametrize("basis,case,q,q_prime", [
    ((4, 9), 1, None, None),
    ((4, 9, 14), 2, None, None),
    ((4, 9, 15), 2, None, None),
    ((4, 9, 14, 19), 3, 0, 0),
])
def test_classify_four_pins(basis, case, q, q_prime):
    got = classify_four(AbstractSemimodule(SG49, basis))
    assert (got.case, got.alpha, got.epsilon) == (case, 2, 1)
    assert (got.q, got.q_prime) == (q, q_prime)


def test_classify_four_larger_alpha():
    # m = 13 = 4*3 + 1: lambda_1 = 4*4 + 2 + 4 = 22, lambda_2 = 24 + 3 + 4 = 31
    sg = Semigroup(4, 13)
    got = classify_four(AbstractSemimodule(sg, (4, 13, 22, 31)))
    assert (got.case, got.alpha, got.epsilon, got.q, got.q_prime) == (3, 3, 1, 1, 1)


def test_classify_four_rejects_other_multiplicities():
    with pytest.raises(Unclassifiable):
        classify_four(AbstractSemimodule(Semigroup(5, 7), (5, 7)))
