"""Sweep of the direct Jacobian basis' horizon H_J = max(D, nm - n) over
curves with n >= 3, where H_J = D = 2nm - 2n - 2m.

For every coprime pair with 3 <= n <= max_n and m <= max_m it draws the
bare curve x^m + y^n, two nice curves at z-density 0.3, two at density 1
and three adapted curves with mu != 1, and checks on each:

- ``jacobian_basis_direct`` (Buchberger on the Euler generators
  (g, f_x, f_y) at H_J) has the leading powers of Buchberger on the plain
  (f, f_x, f_y) at f's own horizon 2nm, so the sweep checks the generator
  g as well as H_J;
- its Tjurina number is c - #(Lambda \\ Gamma), with Lambda from ``delorme``
  (Hefez-Hernandes).

It also counts the curves whose leading powers change one degree below
H_J, to show how close the horizon is to the data.  Tier-1 runs the sweep
at a small size (tests/test_jacobian.py); CI runs it wider:

    PYTHONPATH=src python tests/jacobian_horizon_sweep.py --max-n 11 --max-m 24

It exits 1 on any mismatch.
"""
from __future__ import annotations

import argparse
import random
import sys
from typing import NamedTuple

from cuspidal import CurveEquation, Semigroup, cuspidal_sets
from cuspidal.differentials import delorme
from cuspidal.jacobian import jacobian_basis_direct, jacobian_generators, tjurina_number
from cuspidal.rationals import Rat
from cuspidal.semimodules import elements_outside
from cuspidal.standard_basis import buchberger

from cusp_testkit import adapted_curve, coprime_pairs


def sweep_curves(max_n: int, max_m: int, seed: int = 0):
    """The curves of the sweep, eight per coprime pair 3 <= n <= max_n,
    n < m <= max_m."""
    for n, m in coprime_pairs(range(3, max_n + 1), max_m):
        sg = Semigroup(n, m)
        rng = random.Random(f"{seed}:{n}:{m}")
        yield CurveEquation.nice(sg)
        for density in (0.3, 0.3, 1, 1):
            yield CurveEquation.nice(sg, {
                j: Rat(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 3))
                for j in cuspidal_sets(sg).J if rng.random() < density})
        for _ in range(3):
            yield adapted_curve(sg, rng)


class Outcome(NamedTuple):
    mismatch: str | None   # what disagreed, None when both checks hold
    lower_differs: bool    # the leading powers at H_J - 1 differ from H_J's


def check_curve(eq: CurveEquation) -> Outcome:
    sg = eq.sg
    h = sg.jacobian_horizon
    direct = jacobian_basis_direct(eq)
    wide = buchberger([eq.f, *eq.f.partials(sg.branch_horizon)])
    mismatch = None
    if direct.leading_powers != wide.leading_powers:
        mismatch = f"leading powers {direct.leading_powers} at H_J, {wide.leading_powers} at 2nm"
    elif (tau := tjurina_number(direct)) != sg.conductor - len(
            elements_outside(delorme(eq).values)):
        mismatch = f"tau = {tau} against c - #(Lambda \\ Gamma)"
    low = buchberger(jacobian_generators(eq, h - 1))
    return Outcome(mismatch, low.leading_powers != direct.leading_powers)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-n", type=int, default=8)
    parser.add_argument("--max-m", type=int, default=16)
    args = parser.parse_args(argv)
    curves = lower = 0
    failures = []
    for eq in sweep_curves(args.max_n, args.max_m):
        curves += 1
        out = check_curve(eq)
        lower += out.lower_differs
        if out.mismatch:
            failures.append(f"({eq.sg.n}, {eq.sg.m}) f = {eq.f.coeffs}: {out.mismatch}")
    print(f"curves = {curves}")
    print(f"changed at H_J - 1 = {lower}")
    print(f"mismatches = {len(failures)}")
    for line in failures:
        print(line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
