"""Plain-text curve specifications for the command line.

A spec names the semigroup pair and either nice-form coefficients (``z j =
value`` with j in the cuspidal value set J) or mu*x^m + y^n plus raw terms
(``term coeff a b`` above the weight line and at most 2nm), never both.
Either way the lines give f's integer numerators straight away, keyed by
(weighted degree, x-exponent) over the lcm of the denominators, as
``TruncatedPoly`` holds them; a value of decimal digits is read as an
``int``, p/q of decimal digits as two, any other by ``Rat``.
``CurveEquation`` checks the result, and whether the curve is nice is read
off its terms, whichever lines gave them.
It describes the curve and nothing else: f is held at 2nm, where no layer
reads a term above it, and the seed is an option of the subcommand that
reads it.  Lines are independent, ``#`` starts a comment, and ``=`` may be
written with or without spaces.
"""
from __future__ import annotations

from math import lcm

from .curve import CurveEquation, Semigroup
from .poly import TruncatedPoly
from .rationals import Rat


class SpecError(ValueError):
    """A curve specification problem; ``kind`` is machine-readable."""

    kind = "parse_error"

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


class ParseError(SpecError):
    kind = "parse_error"


class InvalidPair(SpecError):
    kind = "invalid_pair"


class CoefficientOutsideJ(SpecError):
    kind = "coefficient_outside_J"


def _rational(text: str, line: int) -> int | Rat:
    """The exact value of a token: an ``int`` for decimal digits with an
    optional leading ``-``, which ``int`` reads as ``Rat`` would; for
    p/q with such a p and ASCII decimal digits q != 0, ``Rat(p, q)``;
    else ``Rat(text)``, so that ``2.5``, ``1e3`` and ``+3`` are read as
    exact rationals too.  ``Rat`` reads p/q as those two integers, so the
    route changes no value; a token with ``_`` or other digits keeps
    ``Rat``'s own reading, which differs between Python versions."""
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if digits.isdecimal() and text.isascii():
        if not slash:
            return int(num)
        if den.isdecimal() and (q := int(den)):
            return Rat(int(num), q)
    try:
        return Rat(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"expected a rational, got {text!r}", line) from None


def _natural(text: str, line: int, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ParseError(f"expected an integer {what}, got {text!r}", line) from None
    if value < 0:
        raise ParseError(f"{what} must be non-negative, got {value}", line)
    return value


# Keys the format no longer has, each with why; a spec that sets one is
# refused rather than read or ignored.
_REMOVED_KEYS = {
    "precision": "every residue decision is exact, and residue's interval "
                 "always starts at 256 bits",
    "seed": "the seed is a run setting; pass --seed to conjecture-scan",
    "horizon_mult": "f is held at 2nm, and every layer cuts f at its own "
                    "proven horizon, at most 2nm",
}


def parse_spec(text: str) -> CurveEquation:
    """Parse and validate a spec and return the curve it describes, with f
    at 2nm.  Diagnostics name the first offending line; a term above 2nm,
    which no layer reads, is refused there, and an equation the text
    cannot build is a ParseError.  f's integer numerators, keyed by
    (weighted degree, x-exponent) over the lcm of the denominators, are
    built here in one pass over the values, with no exponent table."""
    fields: dict = {}
    coeffs: list = []
    terms: list = []
    seen: set = set()   # the j of every z line and the (a, b) of every term line
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        tokens = line.replace("=", " = ").split()
        if len(tokens) == 3 and tokens[1] == "=" and tokens[0] in ("n", "m"):
            key = tokens[0]
            if key in fields:
                raise ParseError(f"duplicate {key}", line_no)
            fields[key] = _natural(tokens[2], line_no, key)
        elif len(tokens) == 3 and tokens[1] == "=" and tokens[0] == "mu":
            if "mu" in fields:
                raise ParseError("duplicate mu", line_no)
            mu = _rational(tokens[2], line_no)
            if not mu:
                raise ParseError("mu must be nonzero", line_no)
            fields["mu"] = mu
        elif len(tokens) == 4 and tokens[0] == "z" and tokens[2] == "=":
            j = _natural(tokens[1], line_no, "gap value")
            if j in seen:
                raise ParseError(f"duplicate coefficient z {j}", line_no)
            seen.add(j)
            coeffs.append((j, _rational(tokens[3], line_no), line_no))
        elif len(tokens) == 4 and tokens[0] == "term":
            c = _rational(tokens[1], line_no)
            a = _natural(tokens[2], line_no, "x exponent")
            b = _natural(tokens[3], line_no, "y exponent")
            if (a, b) in seen:
                raise ParseError(f"duplicate term x^{a} y^{b}", line_no)
            seen.add((a, b))
            terms.append((c, a, b, line_no))
        elif tokens[0] in _REMOVED_KEYS:
            raise ParseError(f"the {tokens[0]} key was removed: {_REMOVED_KEYS[tokens[0]]}",
                             line_no)
        else:
            raise ParseError(f"unrecognized line {raw.strip()!r}", line_no)

    if "n" not in fields:
        raise ParseError("missing n")
    if "m" not in fields:
        raise ParseError("missing m")
    n, m = fields["n"], fields["m"]
    try:
        # One semigroup per pair in the process: the spec check, the
        # equation and the residues of every request of the pair read its
        # cached sets, built on the pair's first request.
        sg = Semigroup(n, m)
    except ValueError as exc:
        raise InvalidPair(str(exc)) from None
    mu = fields.get("mu", 1)

    if coeffs and terms:
        raise ParseError("cannot mix z coefficients (nice form) with raw terms")
    if coeffs and mu != 1:
        raise ParseError("nice form fixes the x^m coefficient to 1; drop mu")

    nm = n * m
    # (key, value) of every term of f, keyed by (weighted degree, x-exponent)
    values = [((nm, m), mu), ((nm, 0), 1)]
    j_to_p = sg.sets.j_to_p
    for j, c, line_no in coeffs:
        p = j_to_p.get(j)
        if p is None:
            raise CoefficientOutsideJ(
                f"z {j} is not a cuspidal gap value of ({n}, {m})", line_no)
        values.append(((n * p[0] + m * p[1], p[0]), c))
    for c, a, b, line_no in terms:
        w = n * a + m * b
        if w <= nm:
            raise ParseError(f"term x^{a} y^{b} has weighted degree {w} <= {nm}", line_no)
        if w > sg.branch_horizon:
            raise ParseError(f"term x^{a} y^{b} has weighted degree {w} > 2*n*m = "
                             f"{sg.branch_horizon}, where f is held", line_no)
        values.append(((w, a), c))

    den = lcm(*(c.denominator for _, c in values))
    f = TruncatedPoly._raw(sg.order, sg.branch_horizon,
                           {key: c.numerator * (den // c.denominator) for key, c in values if c},
                           den)
    try:
        return CurveEquation(sg, f)
    except ValueError as exc:    # CurveEquation's checks
        raise ParseError(str(exc)) from None
