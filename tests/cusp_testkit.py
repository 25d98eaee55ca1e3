"""Shared corpus, random generators, the table-free residue references and a
call counter for the test suite and its sweeps.

A plain module rather than ``conftest.py``, so that ``from cusp_testkit
import ...`` names this file even when pytest also collects another suite
with a conftest of its own (``pytest tests bench/tests``).

The corpus covers every multiplicity the library special-cases (n = 2 through
7) together with both small and spread-out second exponents.  Random curves
and 1-forms are drawn through seeded `random.Random` instances so that every
test run sees the same data.
"""
from __future__ import annotations

import random
import sys
from math import factorial

from cuspidal import CurveEquation, OneForm, Semigroup, TruncatedPoly, cuspidal_sets
from cuspidal.bernstein import GammaExpr, RootDecision, delta_sequences
from cuspidal.rationals import Rat

CORPUS = [
    (2, 3), (2, 5), (3, 4), (3, 5), (3, 7), (4, 5),
    (4, 7), (4, 9), (4, 11), (5, 6), (5, 7), (6, 7),
]


def random_nice_coeffs(rng: random.Random, sg: Semigroup) -> dict:
    """Coefficient draw for a nice equation: each z_j vanishes with
    probability one half, otherwise it is +/- (1..5)/(1..3)."""
    coeffs = {}
    for j in cuspidal_sets(sg).J:
        if rng.random() < 0.5:
            continue
        num = rng.choice([-1, 1]) * rng.randint(1, 5)
        coeffs[j] = Rat(num, rng.randint(1, 3))
    return coeffs


def curve_draws(sg: Semigroup, count: int, seed: int = 0):
    """Yield `count` seeded nice equations over `sg`.

    Draw 0 is always the bare quasihomogeneous curve x^m + y^n, so every
    battery exercises the degenerate all-zero coefficient case.
    """
    rng = random.Random(f"{seed}:{sg.n}:{sg.m}")
    for index in range(count):
        if index == 0:
            yield CurveEquation.nice(sg)
        else:
            yield CurveEquation.nice(sg, random_nice_coeffs(rng, sg))


def nice_curves(seed: int, densities=(0.25, 0.5, 0.75), n_values=range(2, 8), m_bound=13):
    """One seeded nice curve per coprime pair n in n_values, m <= m_bound
    (by default n <= 7, m <= 13) and per support density: each z_j is
    drawn nonzero with that probability."""
    for n, m in coprime_pairs(n_values, m_bound):
        sg = Semigroup(n, m)
        rng = random.Random(f"{seed}:{n}:{m}")
        for density in densities:
            yield CurveEquation.nice(sg, {
                j: Rat(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 3))
                for j in cuspidal_sets(sg).J if rng.random() < density})


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


def adapted_curve(sg: Semigroup, rng: random.Random) -> CurveEquation:
    """An adapted curve mu*x^m + y^n plus one to six terms between nm and
    2nm: mu != 1, and denominators up to 97."""
    n, m = sg.n, sg.m
    terms = {(m, 0): Rat(rng.choice([-7, -2, 3, 5]), rng.choice([1, 9, 97])),
             (0, n): Rat(1)}
    for _ in range(rng.randint(1, 6)):
        a, b = rng.randint(0, 2 * m), rng.randint(0, 2 * n)
        if n * m < n * a + m * b <= 2 * n * m:
            terms[(a, b)] = Rat(rng.choice([-1, 1]) * rng.randint(1, 50),
                                rng.randint(1, 97))
    return CurveEquation(sg, TruncatedPoly(sg.order, sg.branch_horizon, terms))


def adapted_curves():
    """One adapted curve (``adapted_curve``) on every coprime pair with
    n <= 7, m <= 13."""
    rng = random.Random(97)
    for n, m in coprime_pairs(range(2, 8), 13):
        yield adapted_curve(Semigroup(n, m), rng)


def coprime_pairs(n_values, m_bound: int):
    """All (n, m) with n in n_values, n < m <= m_bound, gcd(n, m) = 1."""
    from math import gcd

    return [(n, m) for n in n_values for m in range(n + 1, m_bound + 1)
            if gcd(n, m) == 1]


def lower_by_steps(r):
    """Gamma(r) = mult * Gamma(low) with low in (0, 1], one step at a time in
    rational arithmetic: Gamma(r) = (r-1) Gamma(r-1) while r > 1."""
    mult = Rat(1)
    while r > 1:
        r -= 1
        mult *= r
    return r, mult


def reference_from_terms(terms) -> GammaExpr:
    """The sum of terms (coeff, (r1, r2, ...)) as one group, lowered with
    rational step-by-step arithmetic; each distinct argument is lowered once
    per call."""
    key, total = None, Rat(0)
    seen = {}
    for c, args in terms:
        lowered = []
        for r in args:
            if r not in seen:
                seen[r] = lower_by_steps(r)
            low, mult = seen[r]
            c *= mult
            lowered.append(low)
        lowered = tuple(sorted(lowered))
        assert key in (None, lowered)
        key, total = lowered, total + c
    return GammaExpr(((key, total),) if total else ())


def _sequence_terms(eq, k: int):
    """(coefficient, (sum d*p1, sum d*p2)) of every delta sequence of k over
    the nonzero z_j: (-1)^{sum d} prod z^d / d!, in rationals."""
    z = eq.nice_coeffs
    for seq in delta_sequences(tuple(z), k):
        o1 = o2 = 0
        coeff = Rat(-1) ** sum(d for _, d in seq)
        for part, d in seq:
            p1, p2 = eq.sg.sets.j_to_p[part]
            o1 += d * p1
            o2 += d * p2
            coeff = coeff * z[part] ** d / factorial(d)
        yield coeff, (o1, o2)


def reference_residue(eq, ab, beta) -> GammaExpr:
    """``bernstein.residue`` without the curve's table: every call
    enumerates the delta sequences of its k and lowers them step by step,
    each sequence a term of its own."""
    n, m = eq.sg.n, eq.sg.m
    a, b = ab
    k = beta * (n * m) - n * a - m * b
    assert k.denominator == 1 and k >= 0
    return reference_from_terms([(coeff, (Rat(a + o1, m), Rat(b + o2, n)))
                                 for coeff, (o1, o2) in _sequence_terms(eq, int(k))])


def reference_table(eq, k: int) -> dict:
    """The delta table of k by enumeration: offsets (o1, o2) -> the sum of
    the coefficients of the delta sequences with those offsets, the sums
    that cancel dropped."""
    table: dict = {}
    for coeff, offsets in _sequence_terms(eq, k):
        table[offsets] = table.get(offsets, 0) + coeff
    return {offsets: c for offsets, c in table.items() if c}


def table_values(table) -> dict:
    """A ``CurveEquation.delta_table`` value (den, entries) as offsets ->
    Rat, the form of ``reference_table``."""
    den, entries = table
    return {(o1, o2): Rat(num, den) for num, o1, o2 in entries}


def reference_verdict(eq, j: int) -> RootDecision:
    """``decide_root`` by ``reference_residue``: the first test exponent of
    M by increasing target k >= 0 with a nonzero residue, else the alpha
    root."""
    n, m = eq.sg.n, eq.sg.m
    beta = Rat(j + n + m, n * m)
    for a, b in eq.sg.sets.M_by_target:
        if j + n + m >= n * a + m * b and not reference_residue(eq, (a, b), beta).is_zero:
            return RootDecision("beta_root", -beta, (a, b))
    return RootDecision("alpha_root", -(beta + 1))


def count_calls(monkeypatch, fn) -> list:
    """Replace `fn` in every cuspidal module that holds it by a wrapper that
    records each call; return the (growing) list of recorded calls."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name != "cuspidal" and not name.startswith("cuspidal."):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                monkeypatch.setattr(module, attr, counted)
    return calls
