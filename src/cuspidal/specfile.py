"""Plain-text curve specifications for the command line.

A spec names the semigroup pair and either nice-form coefficients (``z j =
value`` with j in the cuspidal value set J) or an adapted form mu*x^m + y^n
plus raw terms (``term coeff a b`` above the weight line; ``mu`` alone,
with no terms, is adapted too), plus optional tool settings.
Lines are independent, ``#`` starts a comment, and ``=`` may be written with
or without spaces.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction

from .curve import CurveEquation, CuspidalSets, Semigroup
from .poly import TruncatedPoly
from .rationals import ONE, Rat, rat


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


@dataclass(frozen=True)
class CurveSpec:
    """Validated contents of a spec file."""

    n: int
    m: int
    coeffs: tuple = ()       # ((j, z_j), ...) nice form
    terms: tuple = ()        # ((coeff, a, b), ...) adapted form
    mu: Rat = ONE
    horizon_mult: int | None = None
    seed: int | None = None
    # <n, m> itself, carried through with_overrides so that the spec check,
    # the equation and the residues of one request share its cached sets.
    semigroup: Semigroup | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        # The one place the truncation horizon and the tool settings are
        # checked: parse_spec and with_overrides both construct through here.
        if self.seed is not None and self.seed < 0:
            raise ParseError(f"seed must be non-negative, got {self.seed}")
        if self.horizon_mult is not None and self.horizon_mult < 2:
            raise ParseError("horizon_mult must be at least 2")
        if self.semigroup is None:
            object.__setattr__(self, "semigroup", Semigroup(self.n, self.m))

    @property
    def sets(self) -> CuspidalSets:
        return self.semigroup.sets

    def with_overrides(self, **kw) -> "CurveSpec":
        """A copy with the given non-None options replacing stored ones."""
        return replace(self, **{k: v for k, v in kw.items() if v is not None})

    def horizon(self) -> int | None:
        if self.horizon_mult is None:
            return None
        return self.horizon_mult * self.n * self.m

    def build_equation(self) -> CurveEquation:
        sg = self.semigroup
        if self.terms or self.mu != 1:
            order = sg.order
            h = order.default_horizon if self.horizon_mult is None else self.horizon()
            table = {(self.m, 0): self.mu, (0, self.n): ONE}
            for c, a, b in self.terms:
                table[(a, b)] = c
            return CurveEquation.adapted(sg, TruncatedPoly(order, h, table))
        return CurveEquation.nice(sg, dict(self.coeffs), self.horizon())


def _rational(text: str, line: int) -> Rat:
    try:
        return rat(Fraction(text))
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


_INT_KEYS = ("n", "m", "horizon_mult", "seed")


def parse_spec(text: str) -> CurveSpec:
    """Parse and validate a spec; diagnostics name the first offending line."""
    fields: dict = {}
    coeffs: list = []
    terms: list = []
    coeff_line: dict[int, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        tokens = line.replace("=", " = ").split()
        if len(tokens) == 3 and tokens[1] == "=" and tokens[0] in _INT_KEYS:
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
            if j in {k for k, _ in coeffs}:
                raise ParseError(f"duplicate coefficient z {j}", line_no)
            coeffs.append((j, _rational(tokens[3], line_no)))
            coeff_line[j] = line_no
        elif len(tokens) == 4 and tokens[0] == "term":
            c = _rational(tokens[1], line_no)
            a = _natural(tokens[2], line_no, "x exponent")
            b = _natural(tokens[3], line_no, "y exponent")
            if any(t[1] == a and t[2] == b for t in terms):
                raise ParseError(f"duplicate term x^{a} y^{b}", line_no)
            terms.append((c, a, b, line_no))
        elif tokens[0] == "precision":
            raise ParseError("the precision key was removed: every residue decision is "
                             "exact, and residue's interval always starts at 256 bits",
                             line_no)
        else:
            raise ParseError(f"unrecognized line {raw.strip()!r}", line_no)

    if "n" not in fields:
        raise ParseError("missing n")
    if "m" not in fields:
        raise ParseError("missing m")
    n, m = fields["n"], fields["m"]
    sg_error = None
    try:
        sg = Semigroup(n, m)
    except ValueError as exc:
        sg_error = str(exc)
    if sg_error is not None:
        raise InvalidPair(sg_error)

    if coeffs and terms:
        raise ParseError("cannot mix z coefficients (nice form) with raw terms")
    if coeffs and fields.get("mu", ONE) != 1:
        raise ParseError("nice form fixes the x^m coefficient to 1; drop mu")

    if coeffs:
        valid = sg.sets.j_to_p
        for j, _ in coeffs:
            if j not in valid:
                raise CoefficientOutsideJ(
                    f"z {j} is not a cuspidal gap value of ({n}, {m})",
                    coeff_line[j])
    clean_terms = []
    for c, a, b, line_no in terms:
        if n * a + m * b <= n * m:
            raise ParseError(
                f"term x^{a} y^{b} has weighted degree {n * a + m * b} <= {n * m}",
                line_no)
        clean_terms.append((c, a, b))

    return CurveSpec(n=n, m=m, coeffs=tuple(coeffs), terms=tuple(clean_terms),
                     mu=fields.get("mu", ONE),
                     horizon_mult=fields.get("horizon_mult"),
                     seed=fields.get("seed"), semigroup=sg)
