"""The wide sweeps that CI runs, each by its name:

    PYTHONPATH=src python tests/sweeps.py jacobian-horizon --max-n 11 --max-m 24
    PYTHONPATH=src python tests/sweeps.py branch-window --max-n 8 --max-m 20
    PYTHONPATH=src python tests/sweeps.py delta-table --max-n 7 --max-m 10

A sweep draws its curves on every coprime pair with n <= max_n, n < m <=
max_m, checks each, and prints the number of curves, its counters summed
over them, the number of mismatches and one line for each.  It exits 1 on
any mismatch.  Tier-1 runs each sweep at a smaller size (tests/test_jacobian.py,
tests/test_differentials.py and tests/test_bernstein.py).

``jacobian-horizon`` sweeps the direct Jacobian basis' horizon
H_J = max(D, nm - n), which is D = 2nm - 2n - 2m for n >= 3.  On the bare
curve x^m + y^n, two nice curves at z-density 0.3, two at density 1 and
three adapted curves with mu != 1 of each pair with n >= 3 it checks:

- ``jacobian_basis_direct`` (Buchberger on the Euler generators
  (g, f_x, f_y) at H_J) has the leading powers of Buchberger on the plain
  (f, f_x, f_y) at f's own horizon 2nm, so the sweep checks the generator
  g as well as H_J;
- its Tjurina number is c - #(Lambda \\ Gamma), with Lambda from ``delorme``
  (Hefez-Hernandes).

It counts the curves whose leading powers change one degree below H_J, to
show how close the horizon is to the data.

``branch-window`` sweeps the Newton-Puiseux branch that ``verify`` solves
at H_Delta, the horizon of the forms it checks, against the branch at f's
own 2nm.  On the bare curve, two nice curves at z-density 0.3, two at
density 1 (none for n = 2, where J is empty) and two adapted curves with
mu != 1 and a term of y-degree > n of each pair with n >= 2 it checks:

- the branch on f cut at H_Delta (``newton_puiseux(eq, H_Delta)``) has the
  y of the 2nm branch through t^(H_Delta - nm + m);
- on every basis form and every trail form of ``delorme``, the oracle on
  that branch, the oracle on the 2nm branch and ``differential_value``
  read one value.

It counts the curves whose y on the H_Delta branch parts from the 2nm
branch's later, inside its window, to show that the guarantee stops where
``Semigroup.branch_horizon`` says.

``delta-table`` sweeps the residue tables that the exponential recurrence
builds, and the root verdicts read off them, against the enumeration of
delta sequences.  On the bare curve, two nice curves at z-density 0.3 and
two at density 1 of each pair with n >= 3, then, for every l in J with 2l
in J, the curve z_l = 1, z_2l = t on which a residue of target 2l cancels
(``cancelling_curves``), it checks:

- ``CurveEquation.support_sums`` is the set of sums of the support, as a
  brute-force subset-sum count finds it;
- ``decide_root``, run first on the fresh curve, builds no table for a
  target outside that set;
- for every target k <= nm - n - m (the largest that ``residue`` can be
  asked), the table (``_delta_entries``) is the enumeration of the delta
  sequences of k (``cusp_testkit.reference_table``), as rationals;
- the (kind, root, witness) of every j in J is that of the scan of M by
  increasing target with the table-free ``reference_residue``, and the
  verdict's report line (``RootDecision.line``) is the line rendered here
  from the reference's fields (``reference_line``);
- at every test of every j whose target's table has one entry, where
  ``decide_root`` reads the residue's sign off the entry without summing
  it, ``_residue_sum``'s numerator is nonzero with the entry's sign.
"""
from __future__ import annotations

import argparse
import random
import sys
from typing import NamedTuple

from cuspidal.bernstein import _delta_entries, _residue_sum, _root_plans, decide_root
from cuspidal.curve import CurveEquation, Semigroup, newton_puiseux
from cuspidal.differentials import delorme, differential_value, oracle_differential_value
from cuspidal.jacobian import jacobian_basis_direct, jacobian_generators, tjurina_number
from cuspidal.poly import TruncatedPoly
from cuspidal.rationals import Rat
from cuspidal.semimodules import elements_outside
from cuspidal.standard_basis import buchberger

from cusp_testkit import (adapted_curve, coprime_pairs, nice_curve, reference_residue,
                          reference_table, reference_verdict, scan_order, table_values)


# jacobian-horizon

def horizon_curves(max_n: int, max_m: int):
    """Eight curves per coprime pair 3 <= n <= max_n, n < m <= max_m."""
    for n, m in coprime_pairs(range(3, max_n + 1), max_m):
        sg = Semigroup(n, m)
        rng = random.Random(f"0:{n}:{m}")
        yield CurveEquation.nice(sg)
        for density in (0.3, 0.3, 1, 1):
            yield nice_curve(sg, rng, density)
        for _ in range(3):
            yield adapted_curve(sg, rng)


class HorizonOutcome(NamedTuple):
    mismatch: str | None   # what disagreed, None when both checks hold
    lower_differs: bool    # the leading powers at H_J - 1 differ from H_J's


def check_horizon(eq: CurveEquation) -> HorizonOutcome:
    sg = eq.sg
    direct = jacobian_basis_direct(eq)
    wide = buchberger([eq.f, *eq.f.partials(sg.branch_horizon)])
    mismatch = None
    if direct.leading_powers != wide.leading_powers:
        mismatch = f"leading powers {direct.leading_powers} at H_J, {wide.leading_powers} at 2nm"
    elif (tau := tjurina_number(direct)) != sg.conductor - len(
            elements_outside(delorme(eq).values)):
        mismatch = f"tau = {tau} against c - #(Lambda \\ Gamma)"
    low = buchberger(jacobian_generators(eq, sg.jacobian_horizon - 1))
    return HorizonOutcome(mismatch, low.leading_powers != direct.leading_powers)


# branch-window

def high_y_curve(sg: Semigroup, rng: random.Random) -> CurveEquation:
    """An adapted curve (``adapted_curve``, mu != 1) with one more term
    x^a*y^b, n < b <= 2n, of weighted degree at most 2nm."""
    n, m = sg.n, sg.m
    b = rng.randint(n + 1, 2 * n)
    a = rng.randint(0, (2 * n * m - m * b) // n)
    terms = {**adapted_curve(sg, rng).f.coeffs,
             (a, b): Rat(rng.choice([-1, 1]) * rng.randint(1, 50), rng.randint(1, 97))}
    return CurveEquation(sg, TruncatedPoly(sg.order, sg.branch_horizon, terms))


def window_curves(max_n: int, max_m: int):
    """Seven curves per coprime pair 2 <= n <= max_n, n < m <= max_m (three
    for n = 2, where J is empty)."""
    for n, m in coprime_pairs(range(2, max_n + 1), max_m):
        sg = Semigroup(n, m)
        rng = random.Random(f"0:{n}:{m}")
        yield CurveEquation.nice(sg)
        for density in (0.3, 0.3, 1, 1) if sg.sets.J else ():
            yield nice_curve(sg, rng, density)
        for _ in range(2):
            yield high_y_curve(sg, rng)


class WindowOutcome(NamedTuple):
    mismatch: str | None  # what disagreed, None when every check holds
    forms: int            # basis and trail forms read on the three routes
    y_parts: bool         # y on the H_Delta branch parts from 2nm's in its window


def check_window(eq: CurveEquation) -> WindowOutcome:
    sg = eq.sg
    h = sg.delorme_horizon
    low = newton_puiseux(eq, h)
    full = newton_puiseux(eq)
    diff = delorme(eq)
    forms = (*diff.forms, *diff.trail)
    agree = h - sg.n * sg.m + sg.m + 1
    mismatch = None
    if low.y[:agree] != full.y[:agree]:
        mismatch = f"y differs from the 2nm branch's below t^{agree}"
    for i, form in enumerate(forms):
        values = (oracle_differential_value(form, low), oracle_differential_value(form, full),
                  differential_value(form, eq))
        if mismatch is None and len(set(values)) != 1:
            mismatch = (f"form {i}: oracle at H_Delta {values[0]}, at 2nm {values[1]}, "
                        f"implicit {values[2]}")
    return WindowOutcome(mismatch, len(forms), low.y != full.y[:len(low.y)])


# delta-table

def cancelling_curves(max_n: int, max_m: int):
    """For every pair n <= max_n, m <= max_m and every l in J with 2l in J,
    the curve z_l = 1, z_2l = t whose residue at the first test exponent
    (a, b) of target k = 2l (for the smallest j in J that has one) is 0:
    its two delta sequences (l, 2) and (2l, 1) cancel.  t comes from the
    two reference residues, each with one of the coefficients alone."""
    for n, m in coprime_pairs(range(2, max_n + 1), max_m):
        sg = Semigroup(n, m)
        sets = sg.sets
        for l in sets.J:
            if 2 * l not in sets.J:
                continue
            query = next((((a, b), Rat(j + n + m, n * m)) for j in sets.J
                          for a, b in scan_order(sg)
                          if j + n + m - n * a - m * b == 2 * l), None)
            if query is None:
                continue
            (c0,), (c1,) = ([coeff for _, coeff in reference_residue(
                CurveEquation.nice(sg, {part: Rat(1)}), *query).groups]
                for part in (l, 2 * l))
            yield CurveEquation.nice(sg, {l: Rat(1), 2 * l: -c0 / c1})


def table_curves(max_n: int, max_m: int):
    """Five curves per coprime pair 3 <= n <= max_n, n < m <= max_m, then
    the cancelling curves of those pairs."""
    for n, m in coprime_pairs(range(3, max_n + 1), max_m):
        sg = Semigroup(n, m)
        rng = random.Random(f"0:{n}:{m}")
        yield CurveEquation.nice(sg)
        for density in (0.3, 0.3, 1, 1):
            yield nice_curve(sg, rng, density)
    yield from cancelling_curves(max_n, max_m)


def brute_force_sums(parts, limit: int) -> set:
    """Every sum of ``parts``, repeats allowed, up to ``limit``: k is one
    when k - l is one for some part l."""
    sums = {0}
    for k in range(1, limit + 1):
        if any(k - l in sums for l in parts):
            sums.add(k)
    return sums


def reference_line(verdict) -> str:
    """The ``bs-roots`` report line of a verdict, from its fields: the kind
    and the root, and for a beta root the witness and its decision."""
    parts = [verdict.kind, f"root={verdict.root}"]
    if verdict.witness is not None:
        parts.append(f"witness={verdict.witness[0]},{verdict.witness[1]}")
        parts.append("decision=nonzero")
    return " ".join(parts)


class TableOutcome(NamedTuple):
    mismatch: str | None  # what disagreed, None when every check holds
    tables: int           # (k, table) pairs compared with the enumeration
    kinds: tuple          # (beta roots, alpha roots) among the verdicts
    one_term: tuple       # (one-entry residues signed, verdicts they witness)


def check_table(eq: CurveEquation) -> TableOutcome:
    sg = eq.sg
    verdicts = {j: decide_root(eq, j) for j in sg.sets.J}
    sums = brute_force_sums(eq.nice_coeffs, sg.branch_horizon)
    mismatch = None
    if {k for k in range(sg.branch_horizon + 1) if eq.support_sums >> k & 1} != sums \
            or eq.support_sums >> (sg.branch_horizon + 1):
        mismatch = "support_sums differs from the brute-force sums"
    elif not eq.delta_table.keys() <= sums:
        mismatch = f"decide_root built tables off the sums: {sorted(eq.delta_table.keys() - sums)}"
    top = sg.n * sg.m - sg.n - sg.m
    for k in range(top + 1):
        if mismatch is None and table_values(_delta_entries(eq, k)) != reference_table(eq, k):
            mismatch = f"table of k = {k} differs from the enumeration"
    for j, verdict in verdicts.items():
        expected = reference_verdict(eq, j)
        if mismatch is None and verdict != expected:
            mismatch = f"j = {j}: {verdict} but the reference scan reads {expected}"
        elif mismatch is None and verdict.line != reference_line(expected):
            mismatch = f"j = {j}: line {verdict.line!r}, expected {reference_line(expected)!r}"
    signed = witnessed = 0
    for j, verdict in verdicts.items():
        _, pair, tests, *_ = _root_plans(sg)[j]
        for k, ab in tests.items():
            entries = _delta_entries(eq, k)[1]
            if len(entries) != 1:
                continue
            signed += 1
            witnessed += ab == verdict.witness
            num = _residue_sum(eq, *ab, k, pair)[0]
            if mismatch is None and (not num or (num > 0) != (entries[0][0] > 0)):
                mismatch = f"j = {j}: the one-term residue at {ab} sums to {num}"
    beta = sum(v.kind == "beta_root" for v in verdicts.values())
    return TableOutcome(mismatch, top + 1, (beta, len(verdicts) - beta), (signed, witnessed))


# Each sweep's curves, its check, and its counter lines: the summed counters
# of its outcomes, in field order after the mismatch, fill the lines.
SWEEPS = {
    "jacobian-horizon": (horizon_curves, check_horizon, "changed at H_J - 1 = {0}"),
    "branch-window": (window_curves, check_window,
                      "forms checked = {0}\ny parts from 2nm inside the window = {1}"),
    "delta-table": (table_curves, check_table,
                    "tables checked = {0}\nverdicts = {1[0]} beta roots, {1[1]} alpha roots\n"
                    "one-term residues signed = {2[0]}, the witness of {2[1]} verdicts"),
}


def _total(column):
    """The sum of one counter over the outcomes; a pair sums by place."""
    return tuple(map(sum, zip(*column))) if isinstance(column[0], tuple) else sum(column)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sweep", choices=SWEEPS)
    parser.add_argument("--max-n", type=int, required=True)
    parser.add_argument("--max-m", type=int, required=True)
    args = parser.parse_args(argv)
    curves, check, lines = SWEEPS[args.sweep]
    outcomes, failures = [], []
    for eq in curves(args.max_n, args.max_m):
        outcomes.append(out := check(eq))
        if out.mismatch:
            failures.append(f"({eq.sg.n}, {eq.sg.m}) f = {eq.f.coeffs}: {out.mismatch}")
    if not outcomes:
        parser.error(f"{args.sweep} has no curves up to n = {args.max_n}, m = {args.max_m}")
    print(f"curves = {len(outcomes)}")
    print(lines.format(*(_total(column) for column in list(zip(*outcomes))[1:])))
    print(f"mismatches = {len(failures)}")
    for line in failures:
        print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
