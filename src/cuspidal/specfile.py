"""Plain-text curve specifications for the command line.

A spec names the semigroup pair and either nice-form coefficients (``z j =
value`` with j in the cuspidal value set J) or mu*x^m + y^n plus raw terms
(``term coeff a b`` above the weight line and at most 2nm), never both.
Either way the lines give f's integer numerators straight away, keyed by
(weighted degree, x-exponent) over the lcm of the denominators, as
``TruncatedPoly`` holds them.  Each value is a reduced pair of integers
(p, q): decimal digits are read as (int, 1) and p/q of decimal digits as
two ints over their gcd, so the z lines of a spec build no ``Fraction``;
any other shape is read by ``Rat``.  A z line's key (j + nm, p1) is formed
from its exponent in the pair's table ``CuspidalSets.j_to_p``.
``CurveEquation`` checks the result, and whether the curve is nice is read
off its terms, whichever lines gave them.
It describes the curve and nothing else: f is held at 2nm, where no layer
reads a term above it, and the seed is an option of the subcommand that
reads it.  Lines are independent, ``#`` starts a comment, and ``=`` may be
written with or without spaces; a line of any other key or shape is refused
as unrecognized.
"""
from __future__ import annotations

from math import gcd, lcm

from .curve import CurveEquation, Semigroup
from .poly import TruncatedPoly
from .rationals import Rat


class SpecError(ValueError):
    """Bad input: a spec the parser refuses, or a usage error of the command
    line.  ``kind`` is machine-readable: ``parse_error`` here, and each
    subclass names its own."""

    kind = "parse_error"

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


class InvalidPair(SpecError):
    kind = "invalid_pair"


class CoefficientOutsideJ(SpecError):
    kind = "coefficient_outside_J"


def _rational(text: str, line: int) -> tuple[int, int]:
    """The exact value of a token as a reduced pair (p, q) of integers,
    q > 0, with no ``Rat`` built for the shapes a spec mostly holds:
    decimal digits with an optional leading ``-`` are read by ``int``, as
    (p, 1), and p/q of such a p and ASCII decimal digits q != 0 by ``int``
    on each side, divided by their gcd.  ``Rat`` reads such tokens as those
    same integers, so the route changes no value.  Every other token is
    ``Rat(text)``, so that ``2.5``, ``1e3`` and ``+3`` are read as exact
    rationals too, and a token with other digits keeps ``Rat``'s reading.
    A token with ``_`` is refused: ``Fraction`` reads ``1_0`` as 10 from
    Python 3.11 on and refuses it on 3.10, so a spec would read differently
    on the two."""
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if digits.isdecimal() and text.isascii():
        if not slash:
            return int(num), 1
        if den.isdecimal() and (q := int(den)):
            p = int(num)
            g = gcd(p, q)
            return p // g, q // g
    try:
        if "_" in text:
            raise ValueError(text)
        value = Rat(text)
    except (ValueError, ZeroDivisionError):
        raise SpecError(f"expected a rational, got {text!r}", line) from None
    return value.numerator, value.denominator


def _natural(text: str, line: int, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise SpecError(f"expected an integer {what}, got {text!r}", line) from None
    if value < 0:
        raise SpecError(f"{what} must be non-negative, got {value}", line)
    return value


def parse_spec(text: str) -> CurveEquation:
    """Parse and validate a spec and return the curve it describes, with f
    at 2nm.  Diagnostics name the first offending line; a term above 2nm,
    which no layer reads, is refused there, and an equation the text
    cannot build is a SpecError.  f's integer numerators, keyed by
    (weighted degree, x-exponent) over the lcm of the denominators, are
    built here in one pass over the values, each a reduced (p, q) pair
    (``_rational``); a z line's key is formed from its exponent in the
    pair's table ``CuspidalSets.j_to_p``."""
    fields: dict = {}
    coeffs: list = []
    terms: list = []
    seen: set = set()   # the j of every z line and the (a, b) of every term line
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.partition("#")[0].replace("=", " = ").split()
        if not tokens:
            continue
        key = tokens[0]
        if key == "z" and len(tokens) == 4 and tokens[2] == "=":
            j = _natural(tokens[1], line_no, "gap value")
            if j in seen:
                raise SpecError(f"duplicate coefficient z {j}", line_no)
            seen.add(j)
            coeffs.append((j, *_rational(tokens[3], line_no), line_no))
        elif len(tokens) == 3 and tokens[1] == "=" and key in ("n", "m"):
            if key in fields:
                raise SpecError(f"duplicate {key}", line_no)
            fields[key] = _natural(tokens[2], line_no, key)
        elif len(tokens) == 3 and tokens[1] == "=" and key == "mu":
            if "mu" in fields:
                raise SpecError("duplicate mu", line_no)
            mu = _rational(tokens[2], line_no)
            if not mu[0]:
                raise SpecError("mu must be nonzero", line_no)
            fields["mu"] = mu
        elif len(tokens) == 4 and key == "term":
            c = _rational(tokens[1], line_no)
            a = _natural(tokens[2], line_no, "x exponent")
            b = _natural(tokens[3], line_no, "y exponent")
            if (a, b) in seen:
                raise SpecError(f"duplicate term x^{a} y^{b}", line_no)
            seen.add((a, b))
            terms.append((c, a, b, line_no))
        else:
            raise SpecError(f"unrecognized line {raw.strip()!r}", line_no)

    if "n" not in fields:
        raise SpecError("missing n")
    if "m" not in fields:
        raise SpecError("missing m")
    n, m = fields["n"], fields["m"]
    try:
        # One semigroup per pair in the process: the spec check, the
        # equation and the residues of every request of the pair read its
        # cached sets, built on the pair's first request.
        sg = Semigroup(n, m)
    except ValueError as exc:
        raise InvalidPair(str(exc)) from None
    mu = fields.get("mu", (1, 1))

    if coeffs and terms:
        raise SpecError("cannot mix z coefficients (nice form) with raw terms")
    if coeffs and mu != (1, 1):
        raise SpecError("nice form fixes the x^m coefficient to 1; drop mu")

    nm = n * m
    # (key, p, q) of every term p/q of f, keyed by (weighted degree, x-exponent)
    values = [((nm, m), *mu), ((nm, 0), 1, 1)]
    j_to_p = sg.sets.j_to_p
    for j, p, q, line_no in coeffs:
        if j not in j_to_p:
            raise CoefficientOutsideJ(
                f"z {j} is not a cuspidal gap value of ({n}, {m})", line_no)
        values.append(((j + nm, j_to_p[j][0]), p, q))
    for (p, q), a, b, line_no in terms:
        w = n * a + m * b
        if w <= nm:
            raise SpecError(f"term x^{a} y^{b} has weighted degree {w} <= {nm}", line_no)
        if w > sg.branch_horizon:
            raise SpecError(f"term x^{a} y^{b} has weighted degree {w} > 2*n*m = "
                             f"{sg.branch_horizon}, where f is held", line_no)
        values.append(((w, a), p, q))

    den = lcm(*(q for _, _, q in values))
    f = TruncatedPoly._raw(sg.order, sg.branch_horizon,
                           {key: p * (den // q) for key, p, q in values if p}, den)
    try:
        return CurveEquation(sg, f)
    except ValueError as exc:    # CurveEquation's checks
        raise SpecError(str(exc)) from None
