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

A request of a curve pays only for that curve's arithmetic; what depends on
the pair (n, m) or on Lambda alone is built once per process.  The argv
[command, "--spec", PATH] of a command that reads nothing but --spec gets
its namespace without argparse (``_parse_args``), and every other argv is
argparse's, so usage errors, help and exit codes are argparse's.  The spec
is read unbuffered and parsed to f's numerators with no ``Fraction`` for
decimal values (``parse_spec``); form, z_j and the residue parts are read
off f's few terms through the pair's key table (``CuspidalSets``); and
``bs-roots`` takes its report keys per pair (``_verdict_keys``), its root
strings per Lambda (``certified_root_strings``) and each verdict's line
from the pair's one verdict (``decide_root``).
"""
from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from math import gcd

from .bernstein import (NegativeK, PreconditionViolation, certified_root_strings,
                        certified_roots_from_semimodule, decide_root,
                        four_condition_check, interval_certificate, residue,
                        residue_is_zero, zariski_condition_check)
from .curve import CurveEquation, NoSolution, Semigroup, newton_puiseux
from .differentials import (delorme, differential_value, monomial_value,
                            oracle_differential_value)
from .jacobian import jacobian_basis_direct, jacobian_basis_via_differentials, tjurina_number
from .rationals import Rat
from .semimodules import elements_outside, enumerate_increasing
from .specfile import SpecError, parse_spec
from .standard_basis import HorizonExhausted


def _render_value(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, (list, tuple)):
        return " ".join([",".join(map(str, x)) if isinstance(x, (list, tuple)) else str(x)
                         for x in v])
    return str(v)


def _print_report(data: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(data, indent=2))
        return
    sys.stdout.write("".join([
        f"{key} = {value if type(value) is str else _render_value(value)}\n"
        for key, value in data.items()]))


def _load_curve(args) -> CurveEquation:
    """The curve of ``--spec``.  The file is read unbuffered, in one read
    sized by its length, and decoded as UTF-8 at once; ``parse_spec``'s
    ``splitlines`` ends a line at ``\r\n`` and ``\r`` where universal
    newlines would."""
    if not args.spec:
        raise SpecError("--spec <path> is required for this subcommand")
    try:
        with open(args.spec, "rb", buffering=0) as fh:
            text = fh.read().decode("utf-8")
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
    outside = elements_outside(vals)
    return {"basis": list(vals.basis),
            "s": vals.s,
            "axes": list(vals.axes),
            "criticals": list(vals.critical),
            "outside_semigroup": list(outside),
            "form_monomial_values": [monomial_value(w) for w in diff.forms],
            "h_leading": [list(e) for e in diff.leading_powers]}


@functools.cache
def _verdict_keys(sg: Semigroup) -> tuple:
    """(j, "verdict j=<j>") for every j in J of the pair, ascending: the
    report keys of ``bs-roots``, built on the pair's first request."""
    return tuple((j, f"verdict j={j}") for j in sg.sets.J)


def cmd_bs_roots(eq: CurveEquation) -> dict:
    if eq.form != "nice":
        raise SpecError("bs-roots needs a nice curve: mu = 1 and every other term on P")
    diff = delorme(eq)
    data: dict = {"basis": list(diff.values.basis),
                  "roots": list(certified_root_strings(diff.values))}
    for j, key in _verdict_keys(eq.sg):
        data[key] = decide_root(eq, j).line
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
    expr = residue(eq, ab, j)
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
        raise SpecError(f"--max-m {max_m} selects no pair: it must exceed n = {n}")
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


def _check(passed: bool, detail: str | None = None) -> str:
    """The line of one ``verify`` check: ok or FAIL, then its detail."""
    word = "ok" if passed else "FAIL"
    return word if detail is None else f"{word} {detail}"


def cmd_verify(eq: CurveEquation) -> tuple[dict, bool]:
    """The report of every check, each on its one line; ``verify`` is ok,
    and so is the exit, exactly when no line reads FAIL."""
    sg = eq.sg
    n, m = sg.n, sg.m
    data: dict = {"n": n, "m": m, "form": eq.form}

    diff = delorme(eq)
    vals = diff.values
    data["basis"] = list(vals.basis)

    # The oracle reads the forms of the run, replayed at H_Delta, and so
    # the branch is solved at that horizon and no higher.
    param = newton_puiseux(eq, sg.delorme_horizon)

    # One oracle read per form object: dx, dy and the trail.  A round's
    # basis form is its last trail form, the same object, so every form in
    # ``diff.forms`` is read, and read once.
    trail = diff.trail
    read = {id(w): oracle_differential_value(w, param) for w in (*diff.forms[:2], *trail)}
    data["oracle_basis_forms"] = _check([read[id(w)] for w in diff.forms] == list(vals.basis))

    # The forms of Delorme's run: the tuning moves their values.
    if n == 2:
        data["oracle_delorme_forms"] = "skipped (n = 2: Delorme runs no round)"
    else:
        mismatches = sum(differential_value(w, eq) != read[id(w)] for w in trail)
        # ok K/K, or FAIL with the number of forms whose values differ
        data["oracle_delorme_forms"] = _check(not mismatches,
                                              f"{mismatches or len(trail)}/{len(trail)}")

    via = jacobian_basis_via_differentials(eq, diff)
    direct_basis = jacobian_basis_direct(eq)
    data["jacobian_cross_check"] = _check(via.leading_powers == direct_basis.leading_powers)
    tau = data["tjurina"] = tjurina_number(direct_basis)

    # A plane branch has mu = c and mu - tau = #(Lambda \ Gamma)
    # (Hefez-Hernandes): Buchberger's staircase at H_J against Delorme's
    # values at H_Delta.
    data["tjurina_semimodule"] = _check(sg.conductor - tau == len(elements_outside(vals)))

    if eq.form == "nice":
        data["zariski_consistency"] = _check(zariski_condition_check(eq, vals).consistent)
        try:
            data["four_consistency"] = _check(four_condition_check(eq, vals).consistent)
        except PreconditionViolation as exc:  # n != 4 among the reasons
            data["four_consistency"] = f"skipped ({exc})"
        # Descending roots, so that their lambda = -root * nm ascend.
        roots = certified_roots_from_semimodule(vals)[::-1]
        bad = [lam for lam in (int(-r * (n * m)) for r in roots)
               if decide_root(eq, lam - n - m).kind != "beta_root"]
        data["certified_roots"] = _check(not bad, "at " + " ".join(map(str, bad)) if bad
                                         else " ".join(map(str, roots)))
    else:
        for key in ("zariski_consistency", "four_consistency", "certified_roots"):
            data[key] = "skipped (adapted form)"

    ok = not any(type(line) is str and line.startswith("FAIL") for line in data.values())
    data["verify"] = _check(ok)
    return data, ok


def cmd_conjecture_scan(seed: int, max_m: int) -> tuple[dict, bool]:
    """Scan all of Lambda \\ Gamma, not only the lambda_1 cone that
    certified_roots_from_semimodule certifies for n >= 5: that is the conjecture."""
    if max_m < 6:
        raise SpecError(f"--max-m {max_m} selects no pair: the scan starts at (5, 6)")
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
                for lam in elements_outside(vals):
                    checked += 1
                    dec = decide_root(eq, lam - n - m)
                    if dec.kind != "beta_root":
                        zs = ";".join(f"z{j}={c}" for j, c in sorted(coeffs.items()))
                        failures.append(f"{n},{m} lambda={lam} coeffs={zs}")
    data["curves"] = curves
    data["values_checked"] = checked
    data["failures"] = len(failures)
    for i, text in enumerate(failures, start=1):
        data[f"failure {i}"] = text
    return data, not failures


# -- entry point ---------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a SpecError, so that ``main`` reports it on
    one line like any other bad input; the subparsers inherit the class."""

    def error(self, message: str):
        raise SpecError(message)


def _seed(text: str) -> int:
    """The type of --seed: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


# What [name, "--spec", PATH] parses to, but for handler and spec, for a
# subcommand whose every option other than --spec has a default.
_SPEC_DEFAULTS = {"json": False}

# name -> (help line, handler, defaults), in the order of the top-level help; a
# handler maps the parsed arguments to (report, ok).  ``defaults`` are set on the
# subcommand's parser (``_declare``) and make up the namespace that
# ``_parse_args`` builds for [name, "--spec", PATH] without one; None for
# residue, which requires --j and --ab, and conjecture-scan, which reads no spec.
_SUBCOMMANDS = {
    "semigroup": ("semigroup facts: conductor and gaps",
                  lambda args: (cmd_semigroup(_load_curve(args)), True), _SPEC_DEFAULTS),
    "cuspidal-sets": ("the exponent sets P, J, M",
                      lambda args: (cmd_cuspidal_sets(_load_curve(args)), True), _SPEC_DEFAULTS),
    "delorme": ("minimal standard basis of differential values",
                lambda args: (cmd_delorme(_load_curve(args)), True), _SPEC_DEFAULTS),
    "bs-roots": ("certified Bernstein-Sato roots and per-gap verdicts",
                 lambda args: (cmd_bs_roots(_load_curve(args)), True), _SPEC_DEFAULTS),
    "residue": ("one residue as an exact Gamma expression",
                lambda args: (cmd_residue(_load_curve(args), args.j, _parse_ab(args.ab)), True),
                None),
    "jacobian": ("Jacobian ideal standard basis and Tjurina number",
                 lambda args: (cmd_jacobian(_load_curve(args)), True), _SPEC_DEFAULTS),
    "enumerate": ("all increasing semimodules of the pair",
                  lambda args: (cmd_enumerate(_load_curve(args), args.max_m), True),
                  {**_SPEC_DEFAULTS, "max_m": None}),
    "verify": ("full consistency battery for one curve",
               lambda args: cmd_verify(_load_curve(args)), _SPEC_DEFAULTS),
    "conjecture-scan": ("random curves with n >= 5: check every semimodule value "
                        "certifies a root",
                        lambda args: cmd_conjecture_scan(args.seed, args.max_m), None),
}


def _declare(p: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Give p, the parser of subcommand ``name``, its handler, --json and
    only the options its pipeline reads."""
    _, handler, defaults = _SUBCOMMANDS[name]
    p.set_defaults(handler=handler, **(defaults or {}))
    if name != "conjecture-scan":
        p.add_argument("--spec", help="path to a curve spec file")
    p.add_argument("--json", action="store_true", help="emit JSON instead of key=value lines")
    if name == "residue":
        p.add_argument("--j", type=int, required=True, help="gap value in J")
        p.add_argument("--ab", required=True, help="test exponent a,b (non-negative)")
    elif name == "enumerate":
        p.add_argument("--max-m", type=int, dest="max_m",
                       help="summarize counts for every coprime m up to this bound")
    elif name == "conjecture-scan":
        p.add_argument("--seed", type=_seed, default=0, help="random seed for the curves")
        p.add_argument("--max-m", type=int, dest="max_m", default=9,
                       help="largest m (and bound for n) in the scan")
    return p


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # No prefix matching: an abbreviation such as --j for --json would read
    # a flag the subcommand does not declare as one it does.
    parser = _Parser(
        prog="cuspidal", allow_abbrev=False,
        description="Exact invariants of plane cusp singularities: semigroup "
                    "data, differential values, and certified Bernstein-Sato roots.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _SUBCOMMANDS.items():
        _declare(sub.add_parser(name, help=help_text, allow_abbrev=False), name)
    return parser


def _parse_ab(text: str) -> tuple[int, int]:
    try:
        a, b = (int(x) for x in text.split(","))
    except ValueError:
        raise SpecError(f"--ab expects 'a,b', got {text!r}") from None
    if a < 0 or b < 0:
        raise SpecError(f"--ab entries must be non-negative, got {text!r}")
    return a, b


def _parse_args(argv) -> argparse.Namespace:
    """The arguments of ``argv``, by one of two routes.  The one shape
    that every request of a curve takes, [command, "--spec", PATH] with a
    command that needs only --spec and a PATH that is no flag, gets its
    namespace directly, and no parser is built or run for it: the handler,
    spec = PATH and the command's defaults in ``_SUBCOMMANDS``, which its
    parser sets too.  Every other argv goes to the top-level parser
    (``_build_parser``), so usage errors, help and exit codes are
    argparse's."""
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 3 and argv[1] == "--spec" and argv[2][:1] != "-":
        _, handler, defaults = _SUBCOMMANDS.get(argv[0], (None, None, None))
        if defaults is not None:
            return argparse.Namespace(handler=handler, spec=argv[2], **defaults)
    return _build_parser().parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        data, ok = args.handler(args)
    except (SpecError, NegativeK) as exc:
        print(f"error: {exc.kind}: {exc}", file=sys.stderr)
        return 2
    except (NoSolution, HorizonExhausted) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    _print_report(data, args.json)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
