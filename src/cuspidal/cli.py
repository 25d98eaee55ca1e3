"""Command-line frontend.

Every subcommand reads a curve spec (except conjecture-scan, which builds its
own random curves), runs one pipeline, and prints a line-oriented ``key =
value`` report -- or the same data as JSON with ``--json``.  The spec
describes the curve alone, and a subcommand takes only its own inputs:
the one run setting is ``--seed`` of conjecture-scan.  f is held at 2nm;
``delorme`` cuts it at H_Delta = max(D, nm) and the direct Jacobian basis
at H_J = max(D, nm - n), both below 2nm, with D = 2nm - 2n - 2m; H_J is D
for every n >= 3.  ``verify`` solves the Newton-Puiseux branch once, on f
cut at H_Delta (``Semigroup.delorme_horizon``), the horizon at which
``DifferentialBasis`` replays the forms it checks, so through
t = H_Delta - nm + n + m: the oracle reads exactly the window of those
forms, and would refuse one above H_Delta.  Exit
codes: 0 success, 1 a verification found a mismatch or a computation failed
its own check, 2 bad input.
"""
from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from math import gcd

from .bernstein import (NegativeK, PreconditionViolation,
                        certified_roots_from_semimodule, decide_root,
                        four_condition_check, interval_certificate, residue,
                        residue_is_zero, zariski_condition_check)
from .curve import CurveEquation, NoSolution, Semigroup, newton_puiseux
from .differentials import (delorme, differential_value, monomial_value,
                            oracle_differential_value)
from .jacobian import jacobian_basis_direct, jacobian_basis_via_differentials, tjurina_number
from .rationals import Rat
from .semimodules import elements_outside, enumerate_increasing
from .specfile import ParseError, SpecError, parse_spec
from .standard_basis import HorizonExhausted


def _render_item(x) -> str:
    if isinstance(x, (list, tuple)):
        return ",".join(str(i) for i in x)
    return str(x)


def _render_value(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, (list, tuple)):
        return " ".join(_render_item(x) for x in v)
    return str(v)


def _print_report(data: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(data, indent=2))
        return
    sys.stdout.write("".join(f"{key} = {_render_value(value)}\n" for key, value in data.items()))


def _load_curve(args) -> CurveEquation:
    """The curve of ``--spec``."""
    if not args.spec:
        raise SpecError("--spec <path> is required for this subcommand")
    try:
        with open(args.spec, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecError(f"cannot read {args.spec}: {exc}") from None
    return parse_spec(text)


# -- subcommands ---------------------------------------------------------


def cmd_semigroup(eq: CurveEquation) -> dict:
    sg = eq.sg
    return {"n": sg.n, "m": sg.m, "conductor": sg.conductor,
            "gaps": list(sg.gaps())}


def cmd_cuspidal_sets(eq: CurveEquation) -> dict:
    sets = eq.sg.sets
    return {"J": list(sets.J),
            "P": [list(sets.j_to_p[j]) for j in sets.J],
            "M": [list(ab) for ab in sets.M]}


def cmd_delorme(eq: CurveEquation) -> dict:
    diff = delorme(eq)
    vals = diff.values
    outside = elements_outside(vals, 0)
    return {"basis": list(vals.basis),
            "s": vals.s,
            "axes": list(vals.axes),
            "criticals": list(vals.critical),
            "outside_semigroup": list(outside),
            "form_monomial_values": [monomial_value(w) for w in diff.forms],
            "h_leading": [list(e) for e in diff.leading_powers]}


def cmd_bs_roots(eq: CurveEquation) -> dict:
    if eq.form != "nice":
        raise SpecError("bs-roots needs a nice curve: mu = 1 and every other term on P")
    diff = delorme(eq)
    data: dict = {"basis": list(diff.values.basis),
                  "roots": [str(r) for r in certified_roots_from_semimodule(diff.values)]}
    for j in eq.sg.sets.J:
        data[f"verdict j={j}"] = decide_root(eq, j).line
    # Every residue is one Gamma group decided by its exact sign, so no
    # verdict rests on an assumption.  The line stays for the readers of
    # the report: the seed-0 digests in bench/reference pin every line.
    data["independence_assumed"] = False
    return data


def cmd_residue(eq: CurveEquation, j: int, ab) -> dict:
    if eq.form != "nice":
        raise SpecError("residue needs a nice curve: mu = 1 and every other term on P")
    sg = eq.sg
    n, m = sg.n, sg.m
    if j not in sg.sets.j_to_p:
        raise SpecError(f"--j {j} is not a cuspidal gap value of ({n}, {m})")
    beta = Rat(j + n + m, n * m)
    a, b = ab
    k = j + n + m - n * a - m * b
    expr = residue(eq, ab, beta)
    data = {"j": j, "beta": str(beta), "ab": list(ab), "k": k,
            "expr": str(expr), "decision": residue_is_zero(expr).value}
    if not expr.is_zero:
        # The decision is exact (one group left); this report also shows
        # the value, as an enclosure.
        cert = interval_certificate(expr)
        data["interval"] = f"[{cert.lower}, {cert.upper}]"
        data["precision_bits"] = cert.precision_bits
    return data


def cmd_jacobian(eq: CurveEquation) -> dict:
    diff = delorme(eq)
    via = jacobian_basis_via_differentials(eq, diff)
    direct = jacobian_basis_direct(eq)
    return {"leading": [list(e) for e in diff.leading_powers],
            "direct_leading": [list(e) for e in direct.leading_powers],
            "match": via.leading_powers == direct.leading_powers,
            "values": list(diff.values.basis),
            "tjurina": tjurina_number(direct)}


def cmd_enumerate(eq: CurveEquation, max_m: int | None) -> dict:
    sg = eq.sg
    n = sg.n
    if max_m is None:
        sms = enumerate_increasing(sg)
        return {"n": n, "m": sg.m, "count": len(sms),
                "basis": [list(sm.basis) for sm in sms]}
    if max_m <= n:
        raise ParseError(f"--max-m {max_m} selects no pair: it must exceed n = {n}")
    data: dict = {"n": n, "max_m": max_m}
    total = 0
    for m in range(n + 1, max_m + 1):
        if gcd(n, m) != 1:
            continue
        count = len(enumerate_increasing(Semigroup(n, m)))
        data[f"pair {n},{m}"] = count
        total += count
    data["total"] = total
    return data


def cmd_verify(eq: CurveEquation) -> tuple[dict, bool]:
    sg = eq.sg
    n, m = sg.n, sg.m
    data: dict = {"n": n, "m": m, "form": eq.form}
    ok = True

    diff = delorme(eq)
    vals = diff.values
    data["basis"] = list(vals.basis)

    # The oracle reads the forms of the run, replayed at H_Delta, and so
    # the branch is solved at that horizon and no higher.
    param = newton_puiseux(eq, sg.delorme_horizon)

    agree = all(oracle_differential_value(w, param) == lam
                for w, lam in zip(diff.forms, vals.basis))
    data["oracle_basis_forms"] = "ok" if agree else "FAIL"
    ok &= agree

    # The forms of Delorme's run: the tuning moves their values.
    if n == 2:
        data["oracle_delorme_forms"] = "skipped (n = 2: Delorme runs no round)"
    else:
        trail = diff.trail
        mismatches = sum(differential_value(w, eq) != oracle_differential_value(w, param)
                         for w in trail)
        data["oracle_delorme_forms"] = (f"ok {len(trail)}/{len(trail)}" if not mismatches
                                        else f"FAIL {mismatches}/{len(trail)}")
        ok &= not mismatches

    via = jacobian_basis_via_differentials(eq, diff)
    direct_basis = jacobian_basis_direct(eq)
    jac_ok = via.leading_powers == direct_basis.leading_powers
    data["jacobian_cross_check"] = "ok" if jac_ok else "FAIL"
    tau = tjurina_number(direct_basis)
    data["tjurina"] = tau
    ok &= jac_ok

    # A plane branch has mu = c and mu - tau = #(Lambda \ Gamma)
    # (Hefez-Hernandes): Buchberger's staircase at H_J against Delorme's
    # values at H_Delta.
    tau_ok = sg.conductor - tau == len(elements_outside(vals, 0))
    data["tjurina_semimodule"] = "ok" if tau_ok else "FAIL"
    ok &= tau_ok

    if eq.form == "nice":
        zar = zariski_condition_check(eq, vals)
        data["zariski_consistency"] = "ok" if zar.consistent else "FAIL"
        ok &= zar.consistent
        try:
            four = four_condition_check(eq, vals)
            data["four_consistency"] = "ok" if four.consistent else "FAIL"
            ok &= four.consistent
        except PreconditionViolation as exc:  # n != 4 among the reasons
            data["four_consistency"] = f"skipped ({exc})"
        # Descending roots, so that their lambda = -root * nm ascend.
        roots = certified_roots_from_semimodule(vals)[::-1]
        bad = [lam for lam in (int(-r * (n * m)) for r in roots)
               if decide_root(eq, lam - n - m).kind != "beta_root"]
        data["certified_roots"] = ("ok " + " ".join(str(r) for r in roots)
                                   if not bad else
                                   "FAIL at " + " ".join(str(x) for x in bad))
        ok &= not bad
    else:
        for key in ("zariski_consistency", "four_consistency", "certified_roots"):
            data[key] = "skipped (adapted form)"

    data["verify"] = "ok" if ok else "FAIL"
    return data, ok


def cmd_conjecture_scan(seed: int, max_m: int) -> tuple[dict, bool]:
    """Scan all of Lambda \\ Gamma, not only the lambda_1 cone that
    certified_roots_from_semimodule certifies for n >= 5: that is the conjecture."""
    if max_m < 6:
        raise ParseError(f"--max-m {max_m} selects no pair: the scan starts at (5, 6)")
    rng = random.Random(seed)
    data: dict = {"seed": seed, "max_m": max_m}
    curves = checked = 0
    failures: list[str] = []
    for n in range(5, max_m):
        for m in range(n + 1, max_m + 1):
            if gcd(n, m) != 1:
                continue
            sg = Semigroup(n, m)
            J = sg.sets.J
            for _ in range(5):
                coeffs = {j: Rat(rng.choice([1, -1]) * rng.randint(1, 5),
                                 rng.randint(1, 3)) for j in J}
                eq = CurveEquation.nice(sg, coeffs)
                curves += 1
                vals = delorme(eq).values
                for lam in elements_outside(vals, 0):
                    checked += 1
                    dec = decide_root(eq, lam - n - m)
                    if dec.kind != "beta_root":
                        failures.append(f"{n},{m} lambda={lam} "
                                        f"coeffs={_coeff_str(coeffs)}")
    data["curves"] = curves
    data["values_checked"] = checked
    data["failures"] = len(failures)
    for i, text in enumerate(failures, start=1):
        data[f"failure {i}"] = text
    return data, not failures


def _coeff_str(coeffs: dict) -> str:
    return ";".join(f"z{j}={c}" for j, c in sorted(coeffs.items()))


# -- entry point ---------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a ParseError, so that ``main`` reports it on
    one line like any other bad input; the subparsers inherit the class."""

    def error(self, message: str):
        raise ParseError(message)


def _seed(text: str) -> int:
    """The type of --seed: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # No prefix matching: an abbreviation such as --j for --json would read
    # a flag the subcommand does not declare as one it does.
    parser = _Parser(
        prog="cuspidal", allow_abbrev=False,
        description="Exact invariants of plane cusp singularities: semigroup "
                    "data, differential values, and certified Bernstein-Sato roots.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, spec: bool = True) -> argparse.ArgumentParser:
        """A subcommand with --json and only the options its pipeline reads."""
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        if spec:
            p.add_argument("--spec", help="path to a curve spec file")
        p.add_argument("--json", action="store_true", help="emit JSON instead of key=value lines")
        return p

    add("semigroup", "semigroup facts: conductor and gaps")
    add("cuspidal-sets", "the exponent sets P, J, M")
    add("delorme", "minimal standard basis of differential values")
    add("bs-roots", "certified Bernstein-Sato roots and per-gap verdicts")
    p = add("residue", "one residue as an exact Gamma expression")
    p.add_argument("--j", type=int, required=True, help="gap value in J")
    p.add_argument("--ab", required=True, help="test exponent a,b (non-negative)")
    add("jacobian", "Jacobian ideal standard basis and Tjurina number")
    p = add("enumerate", "all increasing semimodules of the pair")
    p.add_argument("--max-m", type=int, dest="max_m",
                   help="summarize counts for every coprime m up to this bound")
    add("verify", "full consistency battery for one curve")
    p = add("conjecture-scan", "random curves with n >= 5: check every semimodule value "
            "certifies a root", spec=False)
    p.add_argument("--seed", type=_seed, default=0, help="random seed for the curves")
    p.add_argument("--max-m", type=int, dest="max_m", default=9,
                   help="largest m (and bound for n) in the scan")
    return parser


def _parse_ab(text: str) -> tuple[int, int]:
    try:
        a, b = (int(x) for x in text.split(","))
    except ValueError:
        raise SpecError(f"--ab expects 'a,b', got {text!r}") from None
    if a < 0 or b < 0:
        raise SpecError(f"--ab entries must be non-negative, got {text!r}")
    return a, b


def _report(cmd):
    """Handler for a spec subcommand whose report is never a failure."""
    return lambda args: (cmd(_load_curve(args)), True)


# Each handler maps the parsed arguments to (report, ok).
_HANDLERS = {
    "semigroup": _report(cmd_semigroup),
    "cuspidal-sets": _report(cmd_cuspidal_sets),
    "delorme": _report(cmd_delorme),
    "bs-roots": _report(cmd_bs_roots),
    "residue": lambda args: (cmd_residue(_load_curve(args), args.j, _parse_ab(args.ab)), True),
    "jacobian": _report(cmd_jacobian),
    "enumerate": lambda args: (cmd_enumerate(_load_curve(args), args.max_m), True),
    "verify": lambda args: cmd_verify(_load_curve(args)),
    "conjecture-scan": lambda args: cmd_conjecture_scan(args.seed, args.max_m),
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        data, ok = _HANDLERS[args.command](args)
    except SpecError as exc:
        print(f"error: {exc.kind}: {exc}", file=sys.stderr)
        return 2
    except NegativeK as exc:
        print(f"error: negative_k: {exc}", file=sys.stderr)
        return 2
    except (NoSolution, HorizonExhausted) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    _print_report(data, args.json)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
