"""Sweep of the Newton-Puiseux branch that ``verify`` solves at H_Delta, the
horizon of the forms it checks, against the branch at f's own 2nm.

For every coprime pair with 2 <= n <= max_n and m <= max_m it draws the
bare curve x^m + y^n, two nice curves at z-density 0.3, two at density 1
and two adapted curves with mu != 1 and a term of y-degree > n, and checks
on each:

- the branch on f cut at H_Delta (``newton_puiseux(eq, H_Delta)``) has the
  y of the 2nm branch through t^(H_Delta - nm + m);
- on every basis form and every trail form of ``delorme``, the oracle on
  that branch, the oracle on the 2nm branch and ``differential_value``
  read one value.

It also counts the curves whose y on the H_Delta branch parts from the 2nm
branch's later, inside its window, to show that the guarantee stops where
``Semigroup.branch_horizon`` says.  Tier-1 runs the sweep at a small size
(tests/test_differentials.py); CI runs it wider:

    PYTHONPATH=src python tests/branch_window_sweep.py --max-n 8 --max-m 20

It exits 1 on any mismatch.
"""
from __future__ import annotations

import argparse
import random
import sys
from typing import NamedTuple

from cuspidal import CurveEquation, Semigroup, TruncatedPoly, cuspidal_sets
from cuspidal.curve import newton_puiseux
from cuspidal.differentials import delorme, differential_value, oracle_differential_value
from cuspidal.rationals import Rat

from cusp_testkit import adapted_curve, coprime_pairs


def high_y_curve(sg: Semigroup, rng: random.Random) -> CurveEquation:
    """An adapted curve (``adapted_curve``, mu != 1) with one more term
    x^a*y^b, n < b <= 2n, of weighted degree at most 2nm."""
    n, m = sg.n, sg.m
    b = rng.randint(n + 1, 2 * n)
    a = rng.randint(0, (2 * n * m - m * b) // n)
    terms = {**adapted_curve(sg, rng).f.coeffs,
             (a, b): Rat(rng.choice([-1, 1]) * rng.randint(1, 50), rng.randint(1, 97))}
    return CurveEquation(sg, TruncatedPoly(sg.order, sg.branch_horizon, terms))


def sweep_curves(max_n: int, max_m: int, seed: int = 0):
    """The curves of the sweep, seven per coprime pair 2 <= n <= max_n,
    n < m <= max_m (three for n = 2, where J is empty)."""
    for n, m in coprime_pairs(range(2, max_n + 1), max_m):
        sg = Semigroup(n, m)
        rng = random.Random(f"{seed}:{n}:{m}")
        yield CurveEquation.nice(sg)
        J = cuspidal_sets(sg).J
        for density in (0.3, 0.3, 1, 1) if J else ():
            yield CurveEquation.nice(sg, {
                j: Rat(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 3))
                for j in J if rng.random() < density})
        for _ in range(2):
            yield high_y_curve(sg, rng)


class Outcome(NamedTuple):
    mismatch: str | None  # what disagreed, None when every check holds
    forms: int            # basis and trail forms read on the three routes
    y_parts: bool         # y on the H_Delta branch parts from 2nm's in its window


def check_curve(eq: CurveEquation) -> Outcome:
    sg = eq.sg
    n, m, h = sg.n, sg.m, sg.delorme_horizon
    low = newton_puiseux(eq, h)
    full = newton_puiseux(eq)
    diff = delorme(eq)
    forms = (*diff.forms, *diff.trail)
    agree = h - n * m + m + 1
    mismatch = None
    if low.y[:agree] != full.y[:agree]:
        mismatch = f"y differs from the 2nm branch's below t^{agree}"
    for i, form in enumerate(forms):
        values = (oracle_differential_value(form, low), oracle_differential_value(form, full),
                  differential_value(form, eq))
        if mismatch is None and len(set(values)) != 1:
            mismatch = (f"form {i}: oracle at H_Delta {values[0]}, at 2nm {values[1]}, "
                        f"implicit {values[2]}")
    return Outcome(mismatch, len(forms), low.y != full.y[:len(low.y)])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-n", type=int, default=6)
    parser.add_argument("--max-m", type=int, default=13)
    args = parser.parse_args(argv)
    curves = forms = parted = 0
    failures = []
    for eq in sweep_curves(args.max_n, args.max_m):
        curves += 1
        out = check_curve(eq)
        forms += out.forms
        parted += out.y_parts
        if out.mismatch:
            failures.append(f"({eq.sg.n}, {eq.sg.m}) f = {eq.f.coeffs}: {out.mismatch}")
    print(f"curves = {curves}")
    print(f"forms checked = {forms}")
    print(f"y parts from 2nm inside the window = {parted}")
    print(f"mismatches = {len(failures)}")
    for line in failures:
        print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
