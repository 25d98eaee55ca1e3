"""Sweep of the residue tables that the exponential recurrence builds, and of
the root verdicts read off them, against the enumeration of delta sequences.

For every coprime pair with 3 <= n <= max_n and m <= max_m it draws the
bare curve x^m + y^n, two nice curves at z-density 0.3 and two at density
1, and, for every l in J with 2l in J, the curve z_l = 1, z_2l = t on which
a residue of target 2l cancels (``cancelling_curves``).  On each curve it
checks:

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

Tier-1 runs the sweep at a small size (tests/test_bernstein.py); CI runs it
wider:

    PYTHONPATH=src python tests/delta_table_sweep.py --max-n 7 --max-m 10

It exits 1 on any mismatch.
"""
from __future__ import annotations

import argparse
import random
import sys
from typing import NamedTuple

from cuspidal import CurveEquation, Semigroup
from cuspidal.bernstein import _delta_entries, _residue_sum, _root_plans, decide_root
from cuspidal.rationals import Rat

from cusp_testkit import (coprime_pairs, reference_residue, reference_table,
                          reference_verdict, scan_order, table_values)


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


def sweep_curves(max_n: int, max_m: int, seed: int = 0):
    """The curves of the sweep: five per coprime pair 3 <= n <= max_n,
    n < m <= max_m, then the cancelling curves of those pairs."""
    for n, m in coprime_pairs(range(3, max_n + 1), max_m):
        sg = Semigroup(n, m)
        rng = random.Random(f"{seed}:{n}:{m}")
        yield CurveEquation.nice(sg)
        for density in (0.3, 0.3, 1, 1):
            yield CurveEquation.nice(sg, {
                j: Rat(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 3))
                for j in sg.sets.J if rng.random() < density})
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


class Outcome(NamedTuple):
    mismatch: str | None  # what disagreed, None when every check holds
    tables: int           # (k, table) pairs compared with the enumeration
    kinds: tuple          # (beta roots, alpha roots) among the verdicts
    one_term: tuple       # (one-entry residues signed, verdicts they witness)


def check_curve(eq: CurveEquation) -> Outcome:
    sg = eq.sg
    n, m = sg.n, sg.m
    verdicts = {j: decide_root(eq, j) for j in sg.sets.J}
    sums = brute_force_sums(eq.nice_coeffs, sg.branch_horizon)
    mismatch = None
    if {k for k in range(sg.branch_horizon + 1) if eq.support_sums >> k & 1} != sums \
            or eq.support_sums >> (sg.branch_horizon + 1):
        mismatch = "support_sums differs from the brute-force sums"
    elif not eq.delta_table.keys() <= sums:
        mismatch = f"decide_root built tables off the sums: {sorted(eq.delta_table.keys() - sums)}"
    top = n * m - n - m
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
    return Outcome(mismatch, top + 1, (beta, len(verdicts) - beta), (signed, witnessed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-n", type=int, default=5)
    parser.add_argument("--max-m", type=int, default=9)
    args = parser.parse_args(argv)
    curves = tables = beta = alpha = signed = witnessed = 0
    failures = []
    for eq in sweep_curves(args.max_n, args.max_m):
        curves += 1
        out = check_curve(eq)
        tables += out.tables
        beta += out.kinds[0]
        alpha += out.kinds[1]
        signed += out.one_term[0]
        witnessed += out.one_term[1]
        if out.mismatch:
            failures.append(f"({eq.sg.n}, {eq.sg.m}) z = {dict(eq.nice_coeffs)}: {out.mismatch}")
    print(f"curves = {curves}")
    print(f"tables checked = {tables}")
    print(f"verdicts = {beta} beta roots, {alpha} alpha roots")
    print(f"one-term residues signed = {signed}, the witness of {witnessed} verdicts")
    print(f"mismatches = {len(failures)}")
    for line in failures:
        print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
