"""Residues, their vanishing decisions and intervals, and root verdicts."""
from __future__ import annotations

import random
from types import MappingProxyType

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from cuspidal import CurveEquation, Semigroup, bernstein, curve, cuspidal_sets
from cuspidal.bernstein import (
    Certificate,
    GammaExpr,
    NegativeK,
    PreconditionViolation,
    ResidueDecision,
    RootDecision,
    _delta_entries,
    _gamma_pair,
    _lower,
    _residue_sum,
    _root_plans,
    _verdict,
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
from cusp_testkit import (coprime_pairs, count_calls, nice_curves, reference_from_terms,
                          reference_residue, reference_table, scan_order, table_values)
from delta_table_sweep import brute_force_sums, cancelling_curves, check_curve, sweep_curves

EQ49 = CurveEquation.nice(Semigroup(4, 9), {1: Rat(1)})
EQ49_DEG = CurveEquation.nice(Semigroup(4, 9), {1: Rat(1), 2: Rat(7, 18)})
EQ45_QH = CurveEquation.nice(Semigroup(4, 5))


def test_delta_sequences_small():
    assert delta_sequences((1, 2, 6, 10), 2) == {((1, 2),), ((2, 1),)}
    assert delta_sequences((1, 2, 6, 10), 0) == {()}
    assert delta_sequences((1, 2, 6, 10), 5) == {
        ((1, 5),), ((1, 3), (2, 1)), ((1, 1), (2, 2))}
    with pytest.raises(ValueError):
        delta_sequences((1, 2), -1)


def test_delta_sequence_statistics():
    (d,) = [d for d in delta_sequences((1, 2, 6, 10), 5) if d == ((1, 1), (2, 2))]
    assert sum(mult for _, mult in d) == 3    # number of gamma factors drawn


def test_gamma_expr_canonical_form():
    """The (2, 1) residue on EQ49 is (1/2) z_1^2 Gamma(16/9) Gamma(3/4):
    lowered to 7/9, sorted, and printed."""
    e = residue(EQ49, (2, 1), 6)
    assert e.groups == (((Rat(3, 4), Rat(7, 9)), Rat(7, 18)),)
    assert str(e) == "(7/18)*Gamma(3/4)*Gamma(7/9)"
    assert _lowered(Rat(1, 2), [(16, 9), (3, 4)]) == e


def test_gamma_expr_cancellation():
    """A coefficient that sums to 0 leaves no group: zero is the empty
    expression, whether given directly or summed by residue."""
    e = GammaExpr(())
    assert e.is_zero
    assert e.groups == () == residue(EQ49_DEG, (2, 1), 6).groups
    assert str(e) == "0"


def test_gamma_expr_refuses_two_argument_pairs():
    """A residue is one Gamma group, so two distinct argument pairs are a
    bug upstream, refused when given directly."""
    with pytest.raises(ValueError, match="at most one Gamma group"):
        GammaExpr((((Rat(1, 2), Rat(2, 3)), Rat(1)), ((Rat(1, 3), Rat(3, 4)), Rat(-1))))


def test_residue_refuses_a_term_off_the_proven_pair():
    """Every term of a residue must lower to the pair that B = j + n + m
    fixes, and sit off the poles; a table entry moved off the congruence,
    or onto a pole, is refused, not summed, by ``residue`` and by
    ``decide_root``, whose scan for j = 6 first reaches k = 2 at (2, 1)."""
    eq = CurveEquation.nice(Semigroup(4, 9), {1: Rat(1), 2: Rat(1)})
    good = residue(eq, (2, 1), 6)
    verdict = decide_root(eq, 6)
    assert verdict == RootDecision("beta_root", Rat(-19, 36), (2, 1))
    table = eq.delta_table[2]
    den, entries = table
    assert den > 0 and len(entries) == 2
    (c, o1, o2), rest = entries[0], entries[1:]
    for moved, error in [((c, o1 + 1, o2), "not one Gamma group"),
                         ((c, o1, o2 + 2), "not one Gamma group"),
                         # the same class mod 9, at s1 = 2 + o1 % 9 - 9 <= 0
                         ((c, o1 % 9 - 9, o2), "must be positive")]:
        eq.delta_table[2] = (den, (moved,) + rest)
        with pytest.raises(ValueError, match=error):
            residue(eq, (2, 1), 6)
        with pytest.raises(ValueError, match=error):
            decide_root(eq, 6)
    eq.delta_table[2] = table
    assert residue(eq, (2, 1), 6) == good
    assert decide_root(eq, 6) == verdict


def test_gamma_expr_rejects_nonpositive_argument():
    """A Gamma argument at or below 0 is refused by the constructor.  No
    residue of a gap value reaches a pole
    (``test_no_residue_of_a_gap_value_reaches_a_pole``); a table entry
    moved onto one is refused (``test_residue_refuses_a_term_off_the_proven_pair``)."""
    with pytest.raises(ValueError, match="not a canonical group"):
        GammaExpr((((Rat(0), Rat(1, 2)), Rat(1)),))


def test_no_residue_of_a_gap_value_reaches_a_pole():
    """The pole-freedom proved in ``residue``'s docstring: on every coprime
    pair 2 <= n <= 8, m <= 15, on the bare curve and on a nice curve with
    every z_j nonzero, every j in J and every (a, b) >= 0 with
    n*a + m*b <= B = j + n + m give a GammaExpr, and B < 2nm."""
    checked = 0
    for n, m in coprime_pairs(range(2, 9), 15):
        sg = Semigroup(n, m)
        J = sg.sets.J
        for eq in (CurveEquation.nice(sg), CurveEquation.nice(sg, {j: Rat(1) for j in J})):
            for j in J:
                big_b = j + n + m
                assert big_b < 2 * n * m
                for a in range(big_b // n + 1):
                    for b in range((big_b - n * a) // m + 1):
                        assert isinstance(residue(eq, (a, b), j), GammaExpr)
                        checked += 1
    assert checked == 8942


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


def _lowered(coeff, args) -> GammaExpr:
    """coeff * prod Gamma(s/q) over args (s, q) as one group, each argument
    lowered into (0, 1] by ``_lower``, the integer lowering of ``residue``."""
    lowered = []
    for s, q in args:
        r = (s - 1) % q + 1
        num, den = _lower(s, q, r)
        coeff *= Rat(num, den)
        lowered.append(Rat(r, q))
    return GammaExpr(((tuple(sorted(lowered)), coeff),) if coeff else ())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 38), st.integers(1, 20), st.integers(1, 20),
       st.integers(-9, 9), st.integers(1, 7), st.integers(1, 40))
def test_gamma_functional_equation(whole, frac, den, cnum, cden, other):
    """Gamma(r+1) = r Gamma(r) survives the integer lowering of ``residue``
    for every r = s/den in (0, 39], so for arguments up to 40, and the
    lowering agrees with the step-by-step one, beside a second argument."""
    s = whole * den + min(frac, den)
    r = Rat(s, den)
    c = Rat(cnum if cnum else 1, cden)
    lhs = _lowered(c, [(s + den, den)])
    rhs = _lowered(c * r, [(s, den)])
    assert lhs == rhs == reference_from_terms([(c * r, (r,))])
    assert _lowered(c, [(s + den, den), (other, den)]) == reference_from_terms(
        [(c, (r + 1, Rat(other, den)))])


def test_residue_pin_45():
    eq = CurveEquation.nice(Semigroup(4, 5), {2: Rat(1)})
    expr = residue(eq, (1, 1), 2)
    assert expr.groups == (((Rat(3, 4), Rat(4, 5)), Rat(-1)),)


def test_residue_support_pruning_pin():
    # only z_1 is nonzero, so k = 1 admits a single delta-sequence
    expr = residue(EQ49, (1, 1), 1)
    assert expr.groups == (((Rat(1, 2), Rat(8, 9)), Rat(-1)),)


def test_residue_quadratic_cancellation():
    """The two k = 2 sequences at (2, 1) merge into one group whose
    coefficient vanishes exactly on the constructed degenerate curve."""
    expr = residue(EQ49_DEG, (2, 1), 6)
    assert expr.is_zero
    # with z_2 = 0 only the z_1^2 sequence survives: (7/18) z_1^2
    assert residue(EQ49, (2, 1), 6).groups == (
        ((Rat(3, 4), Rat(7, 9)), Rat(7, 18)),)
    both = CurveEquation.nice(Semigroup(4, 9), {1: Rat(1), 2: Rat(1)})
    assert residue(both, (2, 1), 6).groups == (
        ((Rat(3, 4), Rat(7, 9)), Rat(-11, 18)),)


def test_every_residue_is_one_group_at_the_predicted_arguments():
    """The theorem in `residue`'s docstring, checked on random curves: at
    every test exponent in M and every beta_j, the residue is zero or one
    group, at the arguments B/n mod m and B/m mod n lowered into (0, 1],
    where B = beta*nm."""
    nonzero = 0
    for eq in nice_curves(seed=10):
        n, m = eq.sg.n, eq.sg.m
        sets = eq.sg.sets
        for j in sets.J:
            big_b = j + n + m
            s1 = big_b * pow(n, -1, m) % m or m
            s2 = big_b * pow(m, -1, n) % n or n
            predicted = tuple(sorted((Rat(s1, m), Rat(s2, n))))
            for a, b in sets.M:
                if big_b < n * a + m * b:
                    continue
                expr = residue(eq, (a, b), j)
                assert len(expr.groups) <= 1
                if expr.groups:
                    nonzero += 1
                    assert expr.groups[0][0] == predicted
    assert nonzero > 1000


def _queries(eq):
    """Every ((a, b), j, beta_j) with j in J, (a, b) in M and k >= 0."""
    n, m = eq.sg.n, eq.sg.m
    return [((a, b), j, Rat(j + n + m, n * m)) for j in eq.sg.sets.J for a, b in eq.sg.sets.M
            if j + n + m >= n * a + m * b]


def test_residue_table_equals_the_direct_sum():
    """The per-curve table gives the residue of a fresh enumeration at every
    j in J and (a, b) in M with k >= 0, on every pair n <= 7, m <= 13, at
    supports of density 0.3 and 1."""
    checked = nonzero = 0
    for eq in nice_curves(seed=13, densities=(0.3, 1)):
        n, m = eq.sg.n, eq.sg.m
        targets = set()
        for (a, b), j, beta in _queries(eq):
            expr = residue(eq, (a, b), j)
            assert expr == reference_residue(eq, (a, b), beta)
            targets.add(j + n + m - n * a - m * b)
            checked += 1
            nonzero += not expr.is_zero
        # every queried k has its table, and the recurrence kept only the
        # support sums below a queried k that it read on the way
        assert targets <= eq.delta_table.keys()
        assert all(eq.support_sums >> k & 1 and k < max(targets)
                   for k in eq.delta_table.keys() - targets)
    assert checked > 1500 and nonzero > 1000


def test_decide_root_matches_the_reference_residue():
    """The integer verdict of ``decide_root`` equals a scan of M by
    increasing target with the table-free ``reference_residue``: the same
    kind, root and witness for every j in J, on every pair n <= 7, m <= 13,
    at supports of density 0.3 and 1, and on curves where a residue with
    terms cancels, so that the scan must pass it by.  The verdicts hold
    again on the filled tables with every entry list reversed: the integer
    sum does not depend on the order of the entries."""
    kinds = {"beta_root": 0, "alpha_root": 0}
    cancelled = 0
    curves = [*nice_curves(seed=13, densities=(0.3, 1)), *cancelling_curves(7, 13)]
    for eq in curves:
        n, m = eq.sg.n, eq.sg.m
        support = tuple(l for l, c in eq.nice_coeffs.items() if c)
        expected = {}
        for j in eq.sg.sets.J:
            big_b = j + n + m
            beta = Rat(big_b, n * m)
            expected[j] = RootDecision("alpha_root", -(beta + 1))
            for a, b in scan_order(eq.sg):
                k = big_b - n * a - m * b
                if k < 0:
                    continue
                if not reference_residue(eq, (a, b), beta).is_zero:
                    expected[j] = RootDecision("beta_root", -beta, (a, b))
                    break
                cancelled += bool(delta_sequences(support, k))
            kinds[expected[j].kind] += 1
        assert {j: decide_root(eq, j) for j in expected} == expected
        for k, (den, entries) in eq.delta_table.items():
            eq.delta_table[k] = (den, entries[::-1])
        assert {j: decide_root(eq, j) for j in expected} == expected
    assert kinds["beta_root"] > 300 and kinds["alpha_root"] > 50 and cancelled >= 5


def _summed_verdict(eq, j) -> RootDecision:
    """``decide_root``'s verdict from a scan of j's root plan that sums
    every residue with ``_residue_sum``, one-term tables included."""
    _, pair, tests, _, beta_root, alpha_root, _ = _root_plans(eq.sg)[j]
    for k, ab in tests.items():
        if _residue_sum(eq, *ab, k, pair)[0]:
            return RootDecision("beta_root", beta_root, ab)
    return RootDecision("alpha_root", alpha_root)


def test_one_term_residues_are_decided_by_their_sign():
    """A residue whose table has one entry (c, o1, o2) is nonzero with the
    sign of c, so ``_first_nonzero`` decides it without the lowering
    products: on every coprime pair n <= 9, m <= 15 at z-densities 0.3 and
    1, ``_residue_sum``'s numerator at every test of every j whose table
    has one entry is nonzero with the entry's sign, and every verdict is
    that of a scan that sums every residue."""
    one_term = verdicts = 0
    for eq in nice_curves(seed=37, densities=(0.3, 1), n_values=range(2, 10), m_bound=15):
        decided = {j: decide_root(eq, j) for j in eq.sg.sets.J}
        for j, verdict in decided.items():
            assert verdict == _summed_verdict(eq, j)
            verdicts += 1
            _, pair, tests, *_ = _root_plans(eq.sg)[j]
            for k, ab in tests.items():
                entries = _delta_entries(eq, k)[1]
                if len(entries) == 1:
                    num, den = _residue_sum(eq, *ab, k, pair)
                    assert den > 0 and num and (num > 0) == (entries[0][0] > 0)
                    one_term += 1
    assert verdicts > 800 and one_term > 800


@pytest.mark.parametrize("move", ["pole", "off the pair in x", "off the pair in y", "both"])
def test_one_term_rule_keeps_the_lowering_checks(move):
    """A one-entry table whose offset lands on a pole or off the Gamma pair
    is refused by ``decide_root`` and ``_verdict`` with the ValueError text
    of ``_lower``, which ``residue`` raises; the first argument is checked
    first, as ``_residue_sum`` checks it.  On a fresh copy of EQ49 (its
    table is edited here) the scan for j = 10 first reads the one-entry
    table of k = 1, at (1, 2)."""
    eq = CurveEquation.nice(Semigroup(4, 9), {1: Rat(1)})
    n, m = 4, 9
    big_b, (r1, r2), tests = _root_plans(eq.sg)[10][:3]
    ab, k = next((ab, k) for k, ab in tests.items() if eq.support_sums >> k & 1)
    assert (ab, k) == ((1, 2), 1)
    den, ((c, o1, o2),) = _delta_entries(eq, k)
    a, b = ab
    if move == "pole":        # s1 = (a + o1) mod m - m <= 0, in the same class mod m
        o1 = (a + o1) % m - m - a
    if move in ("off the pair in x", "both"):
        o1 += 1
    if move in ("off the pair in y", "both"):
        o2 += 1
    eq.delta_table[k] = (den, ((c, o1, o2),))
    with pytest.raises(ValueError) as lowered:
        _lower(a + o1, m, r1)
        _lower(b + o2, n, r2)
    for decide in (lambda: decide_root(eq, 10), lambda: _verdict(eq, 10, *ab),
                   lambda: residue(eq, ab, big_b - n - m)):
        with pytest.raises(ValueError) as refused:
            decide()
        assert str(refused.value) == str(lowered.value)


def test_delta_tables_equal_the_enumeration(monkeypatch):
    """The exponential recurrence builds the table of every k that the
    enumeration of delta sequences does, as rationals: for every k up to
    nm - n - m, the largest target ``residue`` can be asked, on every pair
    n <= 6, m <= 11 at z-densities 0.3 and 1, and on the curves where a
    residue cancels.  The support sums are the brute-force subset sums up
    to 2nm, and ``decide_root`` on a fresh curve asks for no table and
    keeps none outside them."""
    curves = [*nice_curves(seed=17, densities=(0.3, 1), n_values=range(2, 7), m_bound=11),
              *cancelling_curves(7, 13)]
    asked = count_calls(monkeypatch, _delta_entries)
    tables = skipped = 0
    for eq in curves:
        sg = eq.sg
        n, m = sg.n, sg.m
        sums = brute_force_sums(eq.nice_coeffs, sg.branch_horizon)
        assert eq.support_sums == sum(1 << k for k in sums)
        del asked[:]
        for j in sg.sets.J:
            decide_root(eq, j)
        skipped += sum(k not in sums for j in sg.sets.J for k in _root_plans(sg)[j][2])
        assert {k for _, k in asked} <= sums and eq.delta_table.keys() <= sums
        for k in range(n * m - n - m + 1):
            assert table_values(_delta_entries(eq, k)) == reference_table(eq, k)
            tables += 1
    assert tables > 2000 and skipped > 1000


def test_delta_table_sweep():
    """Every coprime pair with 3 <= n <= 5, m <= 9, five curves each (bare,
    nice at z-densities 0.3 and 1), and the curves of those pairs where a
    residue cancels: the support sums, the tables of every k up to
    nm - n - m and the verdict of every j agree with the enumeration, and
    every one-term residue that a verdict reads has its entry's sign."""
    outcomes = [check_curve(eq) for eq in sweep_curves(5, 9)]
    assert len(outcomes) == 56
    assert [o.mismatch for o in outcomes if o.mismatch] == []
    assert sum(o.tables for o in outcomes) == 1014
    assert [sum(o.kinds[i] for o in outcomes) for i in (0, 1)] == [84, 55]
    assert [sum(o.one_term[i] for o in outcomes) for i in (0, 1)] == [90, 75]


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
    for eq, (ab, j, beta) in queries:
        assert residue(eq, ab, j) == reference_residue(eq, ab, beta)
    assert eqs[0].delta_table is not eqs[1].delta_table
    # both curves were asked the same targets; the other keys of each are
    # the support sums that its own recurrence read
    targets = {j + 17 - 6 * a - 11 * b for (a, b), j, _ in _queries(eqs[0])}
    for eq in eqs:
        assert targets <= eq.delta_table.keys()
        assert all(eq.support_sums >> k & 1 for k in eq.delta_table.keys() - targets)
    assert eqs[0].delta_table != eqs[1].delta_table


def test_residue_error_taxonomy():
    with pytest.raises(NegativeK):
        residue(EQ49, (3, 1), 1)
    with pytest.raises(ValueError, match="is not a cuspidal gap value"):
        residue(EQ49, (1, 1), 5)  # J = (1, 2, 6, 10)
    f = TruncatedPoly(WeightedOrder(4, 5), 40, {(0, 4): 1, (5, 0): 2})
    adapted = CurveEquation(Semigroup(4, 5), f)
    with pytest.raises(ValueError):
        residue(adapted, (1, 1), 2)


def test_residue_is_zero_two_values():
    assert residue_is_zero(GammaExpr(())) is ResidueDecision.ZERO
    single = GammaExpr((((Rat(3, 4), Rat(8, 9)), Rat(-1)),))
    assert residue_is_zero(single) is ResidueDecision.NONZERO


def test_interval_certificate_pin():
    expr = GammaExpr((((Rat(3, 4), Rat(8, 9)), Rat(-1)),))
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
    assert residue_is_zero(residue(EQ49, dec.witness, j)) is ResidueDecision.NONZERO


def test_root_decision_is_kind_root_and_witness():
    """A verdict holds what its readers print; the witness residue is
    recomputed from it."""
    dec = decide_root(EQ49, 10)
    assert dec == RootDecision("beta_root", Rat(-23, 36), (1, 2))
    expr = residue(EQ49, dec.witness, 10)
    assert str(expr) == "(-1)*Gamma(3/4)*Gamma(8/9)"
    assert residue_is_zero(expr) is ResidueDecision.NONZERO


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(-9, 9).filter(bool), st.integers(1, 7),
       st.lists(st.tuples(st.integers(1, 40), st.integers(1, 12)), min_size=1, max_size=2))
def test_exact_sign_agrees_with_interval(cnum, cden, args):
    """A single group is nonzero with its coefficient's sign, also after
    the integer lowering of ``residue`` takes arguments above 1 into
    (0, 1]."""
    expr = _lowered(Rat(cnum, cden), args)
    assert residue_is_zero(expr) is ResidueDecision.NONZERO
    ((_, coeff),) = expr.groups
    assert (1 if coeff > 0 else -1) == interval_certificate(expr).sign


def test_checks_reject_semimodule_of_other_pair():
    other = delorme(EQ45_QH).values
    with pytest.raises(ValueError, match="different semigroup"):
        zariski_condition_check(EQ49, other)
    with pytest.raises(ValueError, match="different semigroup"):
        four_condition_check(EQ49, other)


def test_checks_reject_a_curve_that_is_not_nice():
    """The batteries read the z_j, which only a nice curve has."""
    sg = Semigroup(4, 9)
    eq = CurveEquation(sg, TruncatedPoly(sg.order, 72, {(9, 0): 2, (0, 4): 1, (7, 1): 1}))
    values = delorme(eq).values
    for check in (zariski_condition_check, four_condition_check):
        with pytest.raises(ValueError, match="only in nice form"):
            check(eq, values)


def test_decide_root_certifies_once(monkeypatch):
    """The witness residue is one group, nonzero exactly: the verdict
    computes no interval."""
    intervals = count_calls(monkeypatch, interval_certificate)
    dec = decide_root(EQ49, 10)
    assert (dec.kind, dec.witness) == ("beta_root", (1, 2))
    assert intervals == []


QH_PAIRS = coprime_pairs(range(2, 8), 15)


def test_decide_root_alpha_case():
    """x^m + y^n is quasi-homogeneous, so every root is -alpha_j (Kashiwara;
    Yano, "On the theory of b-functions", 1978): on each pair with n <= 7,
    m <= 15 the semimodule is the semigroup and every j in J decides
    alpha_root at -(beta_j + 1)."""
    assert len(QH_PAIRS) == 39
    dec = decide_root(EQ45_QH, 2)
    assert (dec.kind, dec.root, dec.witness) == ("alpha_root", Rat(-31, 20), None)
    for n, m in QH_PAIRS:
        sg = Semigroup(n, m)
        eq = CurveEquation.nice(sg)
        assert delorme(eq).values.basis == (n, m)
        for j in sg.sets.J:
            dec = decide_root(eq, j)
            beta = Rat(j + n + m, n * m)
            assert (dec.kind, dec.root, dec.witness) == ("alpha_root", -(beta + 1), None)


def test_a_rebuilt_pair_gets_a_plan_of_its_own(monkeypatch):
    """The root plans are keyed by the Semigroup's identity: a pair rebuilt
    after the registry is cleared is a new object, unequal to the old one,
    and ``_root_plans`` builds it a plan of its own with the same values."""
    old = Semigroup(4, 9)
    plans = _root_plans(old)
    monkeypatch.setattr(curve, "_SEMIGROUPS", {})
    new = Semigroup(4, 9)
    assert new is not old and new != old
    assert _root_plans(new) is not plans
    assert ({j: plan[:6] for j, plan in _root_plans(new).items()}
            == {j: plan[:6] for j, plan in plans.items()})


def test_verdict_renders_its_report_line():
    """A verdict carries the line that bs-roots prints for it; neither ==,
    hash nor repr reads the line."""
    beta = RootDecision("beta_root", Rat(-23, 36), (1, 2))
    assert beta.line == "beta_root root=-23/36 witness=1,2 decision=nonzero"
    assert RootDecision("alpha_root", Rat(-25, 18)).line == "alpha_root root=-25/18"
    twin = RootDecision("beta_root", Rat(-23, 36), (1, 2))
    object.__setattr__(twin, "line", "another line")
    assert twin == beta and hash(twin) == hash(beta)
    assert repr(twin) == repr(beta) == ("RootDecision(kind='beta_root', "
                                        "root=Fraction(-23, 36), witness=(1, 2))")


def test_root_plans_belong_to_the_pair():
    """The plan of each j is built once per pair, from the pair alone: B,
    the Gamma pair, the read-only map from the target k of each test
    exponent of M with k >= 0 to that exponent, in scan order
    (``scan_order``), so its keys ascend, those keys as a bitset, both
    candidate roots, and the pair's verdicts for j, each keyed by its
    witness.  The verdict memo is the one part that can be written."""
    for n, m in coprime_pairs(range(2, 10), 20):
        sg = Semigroup(n, m)
        plans = _root_plans(sg)
        assert plans is _root_plans(Semigroup(n, m))
        assert tuple(plans) == sg.sets.J
        for j, plan in plans.items():
            big_b = j + n + m
            scan = [ab for ab in scan_order(sg) if n * ab[0] + m * ab[1] <= big_b]
            tests = plan[2]
            assert plan[:2] == (big_b, _gamma_pair(n, m, big_b))
            assert list(tests.items()) == [(big_b - n * a - m * b, (a, b)) for a, b in scan]
            assert list(tests) == sorted(tests)
            assert plan[3] == sum(1 << k for k in tests)
            assert plan[4:6] == (Rat(-big_b, n * m), Rat(-big_b - n * m, n * m))
            assert type(plan) is tuple and type(plan[1]) is tuple and len(plan) == 7
            assert type(tests) is MappingProxyType and type(plan[6]) is dict
            with pytest.raises(TypeError):
                tests[-1] = (0, 0)
            assert all(verdict.witness == witness and verdict.root == plan[4 + (witness is None)]
                       for witness, verdict in plan[6].items())
    plans = _root_plans(Semigroup(4, 9))
    with pytest.raises(TypeError):
        plans[1] = plans[2]


def test_decide_root_validates_j():
    with pytest.raises(ValueError, match=r"^3 is not a cuspidal gap value of \(4, 9\)$"):
        decide_root(EQ49, 3)


def test_verdicts_are_one_instance_per_pair_j_and_witness():
    """Curves of one pair with the same verdict for j get the pair's one
    RootDecision, kept in j's plan under its witness (None for the alpha
    root) from its first hit on."""
    sg = Semigroup(4, 9)
    curves = [CurveEquation.nice(sg, {1: Rat(1)}), CurveEquation.nice(sg, {1: Rat(-3, 2)}),
              CurveEquation.nice(sg, {2: Rat(5)}), EQ49_DEG, CurveEquation.nice(sg)]
    for j in sg.sets.J:
        made = [decide_root(eq, j) for eq in curves]
        assert made[0] is made[1]  # z_1 = 1 and z_1 = -3/2 decide alike
        assert all((a is b) == (a == b) for a in made for b in made)
        assert all(_root_plans(sg)[j][6][verdict.witness] is verdict for verdict in made)


def test_certified_roots_small_multiplicity():
    diff = delorme(CurveEquation.nice(Semigroup(4, 5), {2: Rat(1)}))
    assert certified_roots_from_semimodule(diff.values) == (Rat(-11, 20),)
    sm = AbstractSemimodule(Semigroup(4, 9), (4, 9, 14, 19))
    # Sorted ascending, so callers print them without sorting.
    assert certified_roots_from_semimodule(sm) == (
        Rat(-23, 36), Rat(-19, 36), Rat(-7, 18))
    assert certified_roots_from_semimodule(
        AbstractSemimodule(Semigroup(4, 9), (4, 9))) == ()


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
    assert certified_roots_from_semimodule(sm) == (
        Rat(-23, 35), Rat(-18, 35), Rat(-13, 35))


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


FOUR_Q_PINS = [
    (13, {5: Rat(1), 6: Rat(1)}, (1, 0, 0)),
    (13, {5: Rat(1), 10: Rat(1)}, (1, 1, 1)),
    (13, {5: Rat(1), 10: Rat(11, 26)}, (1, None, None)),
    (17, {9: Rat(1), 10: Rat(1)}, (2, 0, 0)),
    (17, {9: Rat(1), 14: Rat(1)}, (2, 1, 1)),
    (17, {9: Rat(1), 18: Rat(1)}, (2, 2, 2)),
]


@pytest.mark.parametrize("m,coeffs,q_triple", FOUR_Q_PINS)
def test_four_report_with_positive_q(m, coeffs, q_triple):
    """With q >= 1 the coefficient prediction of q' runs its vanishing tests
    below q before the quadratic at q; both predictions agree."""
    eq = CurveEquation.nice(Semigroup(4, m), coeffs)
    rep = four_condition_check(eq, delorme(eq).values)
    assert (rep.q, rep.q_prime_coeffs, rep.q_prime_delorme) == q_triple
    assert rep.consistent


def test_four_report_degenerate():
    """Coefficients sitting exactly on the quadratic locus drop lambda_2: the
    residue chain vanishes identically and both q' predictions agree on None."""
    rep = four_condition_check(EQ49_DEG, delorme(EQ49_DEG).values)
    assert rep.q_prime_coeffs is None and rep.q_prime_delorme is None
    assert rep.chain == ((0, "zero"),)
    assert rep.consistent


@pytest.mark.parametrize("m,coeffs,shifted", [
    (9, {1: Rat(1)}, (4, 9, 15)),                         # lambda_1 = 14 moved to 15
    (17, {9: Rat(1), 18: Rat(1)}, (4, 17, 26)),           # lambda_1 = 30 moved to 26
])
def test_zariski_check_fails_on_a_shifted_lambda_1(m, coeffs, shifted):
    """Fed a semimodule whose lambda_1 is not the curve's, the Zariski
    battery reads inconsistent; fed the curve's own, consistent."""
    eq = CurveEquation.nice(Semigroup(4, m), coeffs)
    assert zariski_condition_check(eq, delorme(eq).values).consistent
    assert not zariski_condition_check(eq, AbstractSemimodule(eq.sg, shifted)).consistent


@pytest.mark.parametrize("m,coeffs,shifted", [
    (13, {5: Rat(1), 10: Rat(1)}, (4, 13, 22, 27)),       # q' = 1 moved to 0
    (17, {9: Rat(1), 18: Rat(1)}, (4, 17, 30, 39)),       # q' = 2 moved to 1
    (17, {9: Rat(1), 18: Rat(1)}, (4, 17, 30, 35)),       # q' = 2 moved to 0
])
def test_four_check_fails_on_a_shifted_q_prime(m, coeffs, shifted):
    """Fed a semimodule whose lambda_2, so q', is not the curve's, the
    n = 4 battery reads inconsistent; fed the curve's own, consistent."""
    eq = CurveEquation.nice(Semigroup(4, m), coeffs)
    assert four_condition_check(eq, delorme(eq).values).consistent
    assert not four_condition_check(eq, AbstractSemimodule(eq.sg, shifted)).consistent


@pytest.mark.parametrize("check", [zariski_condition_check, four_condition_check])
@pytest.mark.parametrize("m,coeffs", [(9, {1: Rat(1)}), (13, {5: Rat(1), 10: Rat(1)}),
                                      (17, {9: Rat(1), 18: Rat(1)})])
def test_one_wrong_verdict_makes_a_battery_inconsistent(monkeypatch, check, m, coeffs):
    """Each verdict that a battery reads decides it: with ``_verdict``
    turned to the wrong decision at any one of its calls, the battery
    reads inconsistent."""
    eq = CurveEquation.nice(Semigroup(4, m), coeffs)
    values = delorme(eq).values
    verdict = bernstein._verdict
    calls = count_calls(monkeypatch, verdict)
    assert check(eq, values).consistent
    reads = len(calls)
    assert reads >= 2
    for wrong in range(reads):
        seen = []

        def flipped(*args):
            seen.append(args)
            got = verdict(*args)
            return ("zero" if got == "nonzero" else "nonzero") if len(seen) == wrong + 1 else got

        monkeypatch.setattr(bernstein, "_verdict", flipped)
        assert not check(eq, values).consistent


def _battery_entries(eq) -> list:
    """(battery, B, (a, b), verdict) for every chain and dagger entry of both
    batteries on one nice curve."""
    n, m = eq.sg.n, eq.sg.m
    values = delorme(eq).values
    zar = zariski_condition_check(eq, values)
    entries = [("zariski", ell + n + m, (1, 1), v) for ell, v in zar.chain]
    entries += [("zariski", lam, ab, v) for lam, ab, v in zar.dagger]
    try:
        four = four_condition_check(eq, values)
    except PreconditionViolation:
        return entries
    ab = (four.alpha - four.q, 1)
    entries += [("four", 8 * four.alpha + 3 * four.epsilon + 4 * gamma, ab, v)
                for gamma, v in four.chain]
    entries += [("four", lam, ab, v) for lam, ab, v in four.dagger]
    return entries


def test_battery_verdicts_match_the_reference_residue():
    """Every chain and dagger entry of both batteries, read on the root
    plans, is the verdict of the table-free ``reference_residue`` at the
    same (a, b) and beta = B/nm: on nice curves of every pair
    4 <= n <= 9, m <= 17 at z-densities 0.3 and 1, and on the q >= 1 pins
    of the n = 4 battery."""
    counts = {(battery, v): 0 for battery in ("zariski", "four") for v in ("zero", "nonzero")}
    curves = [*nice_curves(seed=31, densities=(0.3, 1), n_values=range(4, 10), m_bound=17),
              *(CurveEquation.nice(Semigroup(4, m), coeffs) for m, coeffs, _ in FOUR_Q_PINS)]
    for eq in curves:
        nm = eq.sg.n * eq.sg.m
        for battery, big_b, ab, verdict in _battery_entries(eq):
            reference = reference_residue(eq, ab, Rat(big_b, nm))
            assert verdict == ("zero" if reference.is_zero else "nonzero")
            counts[battery, verdict] += 1
    assert counts["zariski", "zero"] >= 80 and counts["zariski", "nonzero"] >= 600
    assert counts["four", "zero"] >= 5 and counts["four", "nonzero"] >= 20


def test_battery_verdict_needs_an_index_in_j():
    with pytest.raises(ValueError, match="is not a cuspidal gap value"):
        _verdict(EQ49, 3, 1, 1)


def test_four_requires_multiplicity_four():
    eq = CurveEquation.nice(Semigroup(5, 7))
    with pytest.raises(PreconditionViolation):
        four_condition_check(eq, delorme(eq).values)
