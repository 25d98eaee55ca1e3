"""Shared corpus, random generators, the operators' route to the 1-forms,
the ``Fraction`` reduction reference, the brute-force staircase count, the
table-free residue references, the Newton-Puiseux references and a call
counter for the test suite and its sweeps.

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
from fractions import Fraction
from math import factorial, lcm
from typing import NamedTuple

from cuspidal import _series
from cuspidal.bernstein import GammaExpr, RootDecision, delta_sequences
from cuspidal.curve import CurveEquation, NoSolution, Semigroup
from cuspidal.differentials import OneForm
from cuspidal.poly import TruncatedPoly, WeightedOrder, divides
from cuspidal.rationals import Rat

CORPUS = [
    (2, 3), (2, 5), (3, 4), (3, 5), (3, 7), (4, 5),
    (4, 7), (4, 9), (4, 11), (5, 6), (5, 7), (6, 7),
]


def random_nice_coeffs(rng: random.Random, sg: Semigroup) -> dict:
    """Coefficient draw for a nice equation: each z_j vanishes with
    probability one half, otherwise it is +/- (1..5)/(1..3)."""
    coeffs = {}
    for j in sg.sets.J:
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
            yield nice_curve(sg, rng, density)


def nice_curve(sg: Semigroup, rng: random.Random, density) -> CurveEquation:
    """A nice curve whose z_j are each drawn nonzero with probability
    ``density``, as +/- (1..5)/(1..3)."""
    return CurveEquation.nice(sg, {
        j: Rat(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 3))
        for j in sg.sets.J if rng.random() < density})


def random_form(rng: random.Random, eq: CurveEquation) -> OneForm:
    """A nonzero 1-form A dx + B dy with 0-2 monomials on each side,
    coefficients +-(1..3)/q with q drawn from 1, 1, 2, 3, and weighted
    degrees at most nm: about half the forms have a side whose denominator
    is not 1, and the two sides' denominators often differ."""
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
                coeff = Rat(rng.choice([-1, 1]) * rng.randint(1, 3), rng.choice([1, 1, 2, 3]))
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


# The ``TruncatedPoly`` operators' route to the 1-forms of a Delorme run,
# against which the tests compare the one-pass forms of ``DifferentialBasis``
# (``DifferentialBasis._replay``).  ``form_add`` runs the replay's kernel
# (``poly._add_shifted``) through ``TruncatedPoly``'s sum, so that comparison
# checks the replay's wiring; ``form_mul_monomial`` keeps a loop of its own.


def basic_form(f: TruncatedPoly, which: str) -> OneForm:
    """dx or dy over the ground ring of f, at its truncation horizon, so
    products against f are not clamped."""
    order, horizon = f.order, f.horizon
    one = TruncatedPoly.monomial(order, 1, (0, 0), horizon)
    zero = TruncatedPoly(order, horizon)
    if which == "dx":
        return OneForm(one, zero)
    if which == "dy":
        return OneForm(zero, one)
    raise ValueError("which must be 'dx' or 'dy'")


def form_add(omega: OneForm, other: OneForm) -> OneForm:
    return OneForm(omega.dx + other.dx, omega.dy + other.dy)


def form_mul_monomial(omega: OneForm, coeff, shift) -> OneForm:
    return OneForm(omega.dx.mul_monomial(coeff, shift),
                   omega.dy.mul_monomial(coeff, shift))


def coprime_pairs(n_values, m_bound: int):
    """All (n, m) with n in n_values, n < m <= m_bound, gcd(n, m) = 1."""
    from math import gcd

    return [(n, m) for n in n_values for m in range(n + 1, m_bound + 1)
            if gcd(n, m) == 1]


class FractionPoly(NamedTuple):
    """A polynomial as the reduction references hold it: ``coeffs`` maps each
    exponent to a nonzero ``Fraction``, cut at ``horizon`` in ``order``.
    Its arithmetic is plain dict arithmetic over ``Fraction``, and shares
    no code with ``TruncatedPoly`` or the reduction kernels."""

    order: WeightedOrder
    horizon: int
    coeffs: dict

    @classmethod
    def of(cls, p: TruncatedPoly) -> "FractionPoly":
        return cls(p.order, p.horizon, {e: Fraction(c) for e, c in p.coeffs.items()})

    @property
    def leading(self):
        """(exponent, coefficient) of the least term in the order; None for 0."""
        if not self.coeffs:
            return None
        e = min(self.coeffs, key=lambda e: (self.order.degree(e), e[0]))
        return e, self.coeffs[e]

    def minus_shifted(self, q, shift, other: "FractionPoly") -> "FractionPoly":
        """self - q * x^shift * other, cut at the smaller horizon."""
        h = min(self.horizon, other.horizon)
        out = {e: c for e, c in self.coeffs.items() if self.order.degree(e) <= h}
        for (a, b), c in other.coeffs.items():
            e = (a + shift[0], b + shift[1])
            if self.order.degree(e) <= h:
                out[e] = out.get(e, 0) - q * c
        return FractionPoly(self.order, h, {e: c for e, c in out.items() if c})

    def shifted(self, q, shift) -> "FractionPoly":
        """q * x^shift * self, cut at this horizon."""
        return FractionPoly(self.order, self.horizon, {}).minus_shifted(-q, shift, self)


def fraction_step(g: FractionPoly, basis) -> FractionPoly | None:
    """The reduction step over ``Fraction`` coefficients:
    g - (lc(g)/lc(b)) * x^(lp(g)-lp(b)) * b for the largest dividing leading
    power b, ties to the earliest; None when g is zero or irreducible."""
    if g.leading is None:
        return None
    lp, lc = g.leading
    eligible = [b for b in basis if b.coeffs and divides(b.leading[0], lp)]
    if not eligible:
        return None
    b = max(eligible, key=lambda p: (g.order.degree(p.leading[0]), p.leading[0][0]))
    bp, bc = b.leading
    return g.minus_shifted(lc / bc, (lp[0] - bp[0], lp[1] - bp[1]), b)


def fraction_reduction(g: FractionPoly, basis) -> tuple:
    """Iterate ``fraction_step``: the remainder and the number of steps."""
    steps = 0
    while (nxt := fraction_step(g, basis)) is not None:
        g, steps = nxt, steps + 1
    return g, steps


def lattice_count(lps) -> int:
    """The lattice points (a, b) below the corners of the staircase ``lps``
    that no leading power divides, counted one by one: the codimension's
    brute-force reference."""
    a_max = max(a for a, _ in lps)
    b_max = max(b for _, b in lps)
    return sum(1 for a in range(a_max + 1) for b in range(b_max + 1)
               if not any(c <= a and d <= b for c, d in lps))


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


def scan_order(sg: Semigroup) -> tuple:
    """M by decreasing weight n*a + m*b, then by (a, b): the documented
    order in which ``decide_root`` tries the test exponents, stated here so
    that the references do not read it off the code they check."""
    n, m = sg.n, sg.m
    return tuple(sorted(sg.sets.M, key=lambda ab: (-(n * ab[0] + m * ab[1]), ab)))


def reference_verdict(eq, j: int) -> RootDecision:
    """``decide_root`` by ``reference_residue``: the first test exponent of
    M by increasing target k >= 0 with a nonzero residue, else the alpha
    root."""
    n, m = eq.sg.n, eq.sg.m
    beta = Rat(j + n + m, n * m)
    for a, b in scan_order(eq.sg):
        if j + n + m >= n * a + m * b and not reference_residue(eq, (a, b), beta).is_zero:
            return RootDecision("beta_root", -beta, (a, b))
    return RootDecision("alpha_root", -(beta + 1))


# The Newton-Puiseux references: the scaled equation by ``Fraction`` on
# f's coefficients, and the solve on a table of v^0..v^top through s^work at
# every step k = m+1..window, checked on powers rebuilt through s^work.  The
# library's ``_scaled_equation`` and ``_solve_branch`` must give the same
# scale, terms and table.


def reference_scaled_equation(f: TruncatedPoly, xi: Rat, c0: Rat) -> tuple:
    """(D, H): the scale D = n^2 * L and the integer terms (n*a, b, h) of
    H(s, v) = f(xi * (D*s)^n, c0 * D^m * v) / (c0^n * D^(nm)), whose term
    h * s^(n*a) * v^b comes from the term c * x^a * y^b of f."""
    n, m = f.order.n, f.order.m
    units = {(a, b): c * xi ** a * c0 ** (b - n) for (a, b), c in f.coeffs.items()}
    # x^m and y^n give -1 and 1, so taking them into L changes nothing.
    scale = n * n * lcm(*(u.denominator for u in units.values()))
    terms = [(n * a, b, _series.exact_div(u.numerator * scale ** (n * a + m * b - n * m),
                                          u.denominator))
             for (a, b), u in units.items()]
    return scale, terms


def _reference_powers(v: list, top: int, upto: int) -> list:
    """The table v^0..v^top through s^upto."""
    pows = [_series.trimmed([1], upto), v]
    while len(pows) <= top:
        pows.append(_series.mul(pows[-1], v, upto))
    return pows


def _reference_evaluate(terms, pows: list, upto: int) -> list:
    """sum of h * s^shift * v^b over the terms (shift, b, h), through s^upto."""
    out = _series.zeros(upto)
    for shift, b, h in terms:
        _series.add_shifted(out, pows[b], shift, h)
    return out


def reference_solve_branch(n: int, m: int, terms, window: int) -> list:
    """The table v^0..v^top of the branch through s^window, top the largest
    b among the terms (shift, b, h) of H: the recursion n * v_k = -P_k for
    k = m+1..window, then the residual check (see ``newton_puiseux``)."""
    nm = n * m
    top = max(b for _, b, _ in terms)
    work = window + nm - m

    # Each v^b starts in the table with its leading 1 at s^(mb).
    table = [_series.zeros(work) for _ in range(top + 1)]
    for b, power in enumerate(table):
        power[m * b] = 1
    v = table[1]
    support = [m]  # the j < k with v_j != 0, ascending
    for k in range(m + 1, window + 1):
        for b in range(2, top + 1):
            e = k + m * (b - 1)
            if e > work:
                break
            lower = table[b - 1]
            table[b][e] = sum(v[j] * lower[e - j] for j in support)
        p_k = sum(h * table[b][k + nm - m - shift] for shift, b, h in terms
                  if shift <= k + nm - m)
        v_k = _series.exact_div(-p_k, n)
        if v_k:
            support.append(k)
        for b in range(1, top + 1):
            e = k + m * (b - 1)
            if e > work:
                break
            table[b][e] += b * v_k

    pows = _reference_powers(_series.trimmed(v, work), top, work)
    if _series.ord_of(_reference_evaluate(terms, pows, work)) is not None:
        raise NoSolution("residual does not vanish to the horizon")
    return [tuple(p[:window + 1]) for p in pows]


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
