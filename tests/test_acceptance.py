"""Acceptance gate: ten properties the library must satisfy end to end.

Each test prints a single ``criterion NN <name>: PASS/FAIL`` line (visible
under ``pytest -s`` and in captured output) and then asserts, so a red test
always names its criterion.  All checks are exact: no criterion evaluates a
residue numerically.
"""
from __future__ import annotations

import random
import time
from math import gcd

from cuspidal import CurveEquation, Semigroup
from cuspidal.bernstein import certified_roots_from_semimodule, decide_root, residue
from cuspidal.curve import newton_puiseux
from cuspidal.differentials import (
    delorme,
    differential_value,
    monomial_value,
    oracle_differential_value,
)
from cuspidal.jacobian import (
    jacobian_basis_direct,
    jacobian_basis_via_differentials,
    tjurina_number,
)
from cuspidal.poly import TruncatedPoly, WeightedOrder
from cuspidal.rationals import Rat
from cuspidal.semimodules import AbstractSemimodule, elements_outside, enumerate_increasing
from cuspidal.standard_basis import StandardBasis, codimension
from cuspidal.bernstein import four_condition_check, zariski_condition_check, PreconditionViolation
from cusp_testkit import CORPUS, coprime_pairs, curve_draws, lattice_count, random_form


def _verdict(num: int, name: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num:02d} {name}: {status}")
    assert not failures, f"criterion {num:02d} {name}: {failures[:5]}"


def test_criterion_01_oracle_equivalence():
    """Implicit differential values equal the series oracle on random forms."""
    failures = []
    started = time.perf_counter()
    for pair in CORPUS:
        sg = Semigroup(*pair)
        rng = random.Random(f"forms:{pair}")
        for eq in curve_draws(sg, 20, seed=101):
            param = newton_puiseux(eq)
            for _ in range(200):
                w = random_form(rng, eq)
                implicit = differential_value(w, eq)
                oracle = oracle_differential_value(w, param)
                if implicit != oracle:
                    failures.append((pair, eq.nice_coeffs, implicit, oracle))
    elapsed = time.perf_counter() - started
    if elapsed >= 300:
        failures.append(("runtime", elapsed))
    _verdict(1, "oracle equivalence", failures)


def test_criterion_02_j_set_identity():
    failures = []
    for n in range(2, 30):
        for m in range(n + 1, 31):
            if gcd(n, m) != 1:
                continue
            sg = Semigroup(n, m)
            expected = tuple(l for l in range(sg.conductor)
                             if (l + n) not in sg and (l + m) not in sg)
            got = sg.sets.J
            if got != expected:
                failures.append((n, m, got, expected))
    _verdict(2, "J-set identity", failures)


def _random_staircase(rng: random.Random):
    k = rng.randint(1, 6)
    a_vals = sorted(rng.sample(range(0, 14), k))
    a_vals[0] = 0
    b_vals = sorted(rng.sample(range(0, 14), k), reverse=True)
    b_vals[-1] = 0
    return list(zip(a_vals, b_vals))


def test_criterion_03_codimension_oracle():
    failures = []
    order = WeightedOrder(4, 5)
    rng = random.Random("staircases")
    for trial in range(100):
        lps = _random_staircase(rng)
        polys = tuple(TruncatedPoly.monomial(order, Rat(1), e, horizon=400)
                      for e in lps)
        got = codimension(StandardBasis(polys))
        want = lattice_count(lps)
        if got != want:
            failures.append((trial, lps, got, want))
    _verdict(3, "codimension oracle", failures)


def _four_closed_form(m: int) -> set:
    """The complete list of increasing semimodules over <4, m>."""
    sg = Semigroup(4, m)
    alpha, eps = divmod(m, 4)
    family = {(4, m)}
    for lam1 in sg.gaps():
        if lam1 > 4 + m:
            family.add((4, m, lam1))
    if alpha >= 2:  # a two-generator tail cannot exist when alpha = 1
        for q in range(0, alpha - 1):
            lam1 = 4 * (alpha + 1) + 2 * eps + 4 * q
            for q_prime in range(0, q + 1):
                family.add((4, m, lam1, 8 * alpha + 3 * eps + 4 * q_prime))
    return family


def test_criterion_04_four_classification():
    failures = []
    for m in range(5, 41):
        if m % 2 == 0:
            continue
        got = {sm.basis for sm in enumerate_increasing(Semigroup(4, m))}
        want = _four_closed_form(m)
        if got != want:
            failures.append((m, got ^ want))
    _verdict(4, "multiplicity-four classification", failures)


def test_criterion_05_delorme_consistency():
    """Monomial values realize the critical sequence; the basis clears the
    axes; the first axis and critical value coincide at n + m."""
    failures = []
    for pair in CORPUS:
        sg = Semigroup(*pair)
        for eq in curve_draws(sg, 10, seed=55):
            diff = delorme(eq)
            basis = diff.values
            for form, t in zip(diff.forms, basis.critical):
                if monomial_value(form) != t:
                    failures.append((pair, "monomial", basis.basis))
            for i in range(1, basis.s + 1):
                if not basis.basis[i + 1] > basis.axes[i - 1]:
                    failures.append((pair, "axis", basis.basis))
            if basis.axes[0] != sg.n + sg.m:
                failures.append((pair, "u1", basis.axes))
            if basis.s >= 1 and basis.critical[2] != sg.n + sg.m:
                failures.append((pair, "t1", basis.critical))
    _verdict(5, "basis-algorithm consistency", failures)


def test_criterion_06_small_multiplicity_roots():
    """For n <= 4, every value outside the semigroup certifies a root."""
    failures = []
    pairs = coprime_pairs((2, 3, 4), 13)
    count = 0
    per_pair = -(-200 // len(pairs))  # ceil
    for pair in pairs:
        sg = Semigroup(*pair)
        nm = sg.n * sg.m
        for eq in curve_draws(sg, per_pair, seed=66):
            if count >= 200:
                break
            count += 1
            diff = delorme(eq)
            for lam in elements_outside(diff.values):
                dec = decide_root(eq, lam - sg.n - sg.m)
                ok = (dec.kind == "beta_root"
                      and dec.root == Rat(-lam, nm)
                      and not residue(eq, dec.witness, lam - sg.n - sg.m).is_zero)
                if not ok:
                    failures.append((pair, eq.nice_coeffs, lam, dec.kind))
    if count < 200:
        failures.append(("undersampled", count))
    _verdict(6, "small-multiplicity root battery", failures)


def test_criterion_07_lambda1_cone_roots():
    """For n in {5, 6, 7} with nonzero Zariski invariant, every element of
    (lambda_1 + Gamma) \\ Gamma certifies a root."""
    failures = []
    pairs = coprime_pairs((5, 6, 7), 16)
    accepted = 0
    for pair in pairs:
        sg = Semigroup(*pair)
        nm = sg.n * sg.m
        for index, eq in enumerate(curve_draws(sg, 12, seed=77)):
            if accepted >= 100:
                break
            if index == 0:
                continue  # draw 0 is quasihomogeneous: no invariant to test
            diff = delorme(eq)
            if diff.values.s < 1:
                continue
            accepted += 1
            lam1 = diff.values.basis[2]
            cone = [k for k in range(lam1, sg.conductor)
                    if (k - lam1) in sg and k not in sg]
            for lam in cone:
                dec = decide_root(eq, lam - sg.n - sg.m)
                if dec.kind != "beta_root" or dec.root != Rat(-lam, nm):
                    failures.append((pair, eq.nice_coeffs, lam, dec.kind))
    if accepted < 100:
        failures.append(("undersampled", accepted))
    _verdict(7, "lambda1-cone root battery", failures)


def test_criterion_08_equivalence_batteries():
    """Coefficient conditions, basis outputs, and residue vanishing agree."""
    failures = []
    for pair in CORPUS:
        sg = Semigroup(*pair)
        for eq in curve_draws(sg, 8, seed=88):
            values = delorme(eq).values
            rep = zariski_condition_check(eq, values)
            if not rep.consistent:
                failures.append((pair, eq.nice_coeffs, "zariski"))
            if sg.n == 4:
                try:
                    four = four_condition_check(eq, values)
                except PreconditionViolation:
                    continue
                if not four.consistent:
                    failures.append((pair, eq.nice_coeffs, "four"))
    degenerate = CurveEquation.nice(Semigroup(4, 9), {1: Rat(1), 2: Rat(7, 18)})
    rep = four_condition_check(degenerate, delorme(degenerate).values)
    if not (rep.consistent and rep.q_prime_coeffs is None
            and rep.q_prime_delorme is None and rep.chain == ((0, "zero"),)):
        failures.append(("degenerate", rep))
    if delorme(degenerate).values.basis != (4, 9, 14):
        failures.append(("degenerate basis",))
    _verdict(8, "equivalence batteries", failures)


def test_criterion_09_jacobian_routes_agree():
    failures = []
    for pair in CORPUS:
        sg = Semigroup(*pair)
        for eq in curve_draws(sg, 6, seed=99):
            diff = delorme(eq)
            via = jacobian_basis_via_differentials(eq, diff)
            direct = jacobian_basis_direct(eq)
            if set(via.leading_powers) != set(direct.leading_powers):
                failures.append((pair, eq.nice_coeffs, "leading powers"))
            inverted = tuple(sorted(sg.n * (a + 1) + sg.m * (b + 1) - sg.n * sg.m
                                    for a, b in via.leading_powers))
            if inverted != diff.values.basis:
                failures.append((pair, eq.nice_coeffs, "inversion"))
    _verdict(9, "jacobian two-route agreement", failures)


def test_criterion_10_worked_pins():
    failures = []
    roots_45 = certified_roots_from_semimodule(
        AbstractSemimodule(Semigroup(4, 5), (4, 5, 11)))
    if roots_45 != (Rat(-11, 20),):
        failures.append(("(4,5,11)", roots_45))
    roots_49 = certified_roots_from_semimodule(
        AbstractSemimodule(Semigroup(4, 9), (4, 9, 14, 19)))
    if roots_49 != (Rat(-23, 36), Rat(-19, 36), Rat(-7, 18)):
        failures.append(("(4,9,14,19)", roots_49))
    # realize both semimodules by explicit curves and re-certify per value
    eq45 = CurveEquation.nice(Semigroup(4, 5), {2: Rat(1)})
    if {decide_root(eq45, 2).root} != set(roots_45):
        failures.append(("(4,5) decide", ))
    eq49 = CurveEquation.nice(Semigroup(4, 9), {1: Rat(1)})
    recert = {decide_root(eq49, lam - 13).root for lam in (14, 19, 23)}
    if recert != set(roots_49):
        failures.append(("(4,9) decide", recert))
    # x^5 + y^4 + x^3 y^2: Tjurina number 11, cross-checked against the
    # brute-force lattice count of its jacobian staircase
    tau = tjurina_number(jacobian_basis_direct(eq45))
    staircase = jacobian_basis_direct(eq45).leading_powers
    if tau != 11 or lattice_count(staircase) != 11:
        failures.append(("tjurina", tau, staircase))
    _verdict(10, "worked pins", failures)
