"""The text format for describing a cusp to the command-line tool."""
from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cuspidal.curve import CurveEquation, Semigroup
from cuspidal.poly import TruncatedPoly
from cuspidal import specfile
from cuspidal.rationals import Rat
from cuspidal.specfile import (
    CoefficientOutsideJ,
    InvalidPair,
    SpecError,
    _rational,
    parse_spec,
)


def test_minimal_spec():
    eq = parse_spec("n=4\nm=5\nz 2 = 1")
    assert (eq.sg.n, eq.sg.m) == (4, 5)
    assert eq.form == "nice"
    assert eq.nice_coeffs == {2: Rat(1)}
    assert eq.mu == 1
    assert eq.f.horizon == eq.sg.branch_horizon == 40


def test_spacing_and_comments_are_free():
    eq = parse_spec("""
# full curve description
n = 4
m=9      # trailing comment
z 1 = 1
z 2 = 7/18
""")
    assert eq.nice_coeffs == {1: Rat(1), 2: Rat(7, 18)}


def test_build_nice_equation():
    """The spec holds f at 2nm, as every equation does."""
    eq = parse_spec("n=4\nm=9\nz 1 = 1")
    assert eq.form == "nice"
    assert eq.f.horizon == 72
    assert eq.nice_coeffs == {1: Rat(1)}
    assert eq == CurveEquation.nice(eq.sg, {1: Rat(1)})


def test_build_adapted_equation_from_terms():
    eq = parse_spec("n=4\nm=5\nterm 1/2 4 1\nterm 3 6 0\nmu = 2")
    assert eq.form == "adapted"
    assert eq.mu == 2
    assert eq.f.coeffs == {(0, 4): 1, (5, 0): 2, (4, 1): Rat(1, 2), (6, 0): 3}


def test_lone_mu_builds_the_adapted_form():
    """mu != 1 without terms is the adapted curve mu*x^m + y^n, not the
    nice curve x^m + y^n."""
    eq = parse_spec("n=4\nm=9\nmu = 2")
    assert eq.form == "adapted"
    assert eq.f.coeffs == {(0, 4): 1, (9, 0): 2}
    assert parse_spec("n=4\nm=9\nmu = 1").form == "nice"


@pytest.mark.parametrize("text", ["n=4\nm=9\nz 1 = 1", "n=4\nm=9\nmu = 2",
                                  "n=4\nm=9\nterm 1 9 1"])
def test_horizon_argument_passes_the_equation_check(text):
    """A spec's curve rebuilt at any horizon but 2nm, below (cut by
    ``truncated``) or above, is refused by CurveEquation, the one horizon
    check, on either form."""
    eq = parse_spec(text)
    for horizon in (-36, 0, 36, 71, 73, 108, 144):
        f = (eq.f.truncated(horizon) if horizon < 72
             else TruncatedPoly(eq.sg.order, horizon, eq.f.coeffs))
        with pytest.raises(ValueError) as info:
            CurveEquation(eq.sg, f)
        assert str(info.value) == f"truncation horizon must be 2*n*m = 72, got {horizon}"
    assert CurveEquation(eq.sg, TruncatedPoly(eq.sg.order, 72, eq.f.coeffs)) == eq


@pytest.mark.parametrize("text,exc,kind,line", [
    ("n=4\nm=8", InvalidPair, "invalid_pair", None),
    ("n=6\nm=3", InvalidPair, "invalid_pair", None),
    ("n=4\nm=5\nz 3 = 1", CoefficientOutsideJ, "coefficient_outside_J", 3),
    ("n=4\nm=5\nz 3 = 1\nhorizon_mult = 1", SpecError, "parse_error", 4),   # removed key
    ("m=5", SpecError, "parse_error", None),
    ("n=4", SpecError, "parse_error", None),
    ("n=4\nm=5\nz 2 = 1\nterm 1 6 1", SpecError, "parse_error", None),
    ("n=4\nm=5\nz 2 = 1\nmu = 2", SpecError, "parse_error", None),
    ("n=4\nm=5\nhorizon_mult = 1", SpecError, "parse_error", 3),   # removed key
    ("n=4\nm=5\nseed = 7", SpecError, "parse_error", 3),           # removed key
    ("n=4\nm=5\nt_horizon = 32", SpecError, "parse_error", 3),
    ("n=4\nm=5\nprecision = 512", SpecError, "parse_error", 3),   # removed key
    ("n=4\nn=5\nm=7", SpecError, "parse_error", 2),
    ("n=4\nm=5\nwhat is this", SpecError, "parse_error", 3),
    ("n=4\nm=5\nterm 1 1 1", SpecError, "parse_error", 3),
    ("n=4\nm=5\nz 2 = x", SpecError, "parse_error", 3),
])
def test_error_taxonomy(text, exc, kind, line):
    with pytest.raises(exc) as info:
        parse_spec(text)
    assert info.value.kind == kind
    assert info.value.line == line
    assert isinstance(info.value, SpecError)


def test_term_weighted_degree_must_exceed_nm():
    # degree exactly nm collides with the corner monomials
    with pytest.raises(SpecError):
        parse_spec("n=4\nm=5\nterm 2 5 0")
    parse_spec("n=4\nm=5\nterm 2 4 1")  # degree 21: fine


def test_term_above_2nm_is_refused():
    """f is held at 2nm, and no layer reads a term above it, so such a term
    is refused on its line rather than dropped in silence.  Held at 4nm,
    y^9 here changed no value of the nice curve z_1 = 1, yet labelled it
    adapted."""
    with pytest.raises(SpecError) as info:
        parse_spec("n = 4\nm = 9\nterm 1 7 1\nterm 1 0 9")
    assert (info.value.kind, info.value.line) == ("parse_error", 4)
    assert str(info.value) == ("line 4: term x^0 y^9 has weighted degree 81 > "
                               "2*n*m = 72, where f is held")
    with pytest.raises(SpecError, match=r"line 3: term x\^19 y\^0 has weighted degree 76 >"):
        parse_spec("n = 4\nm = 9\nterm 1 19 0\nmu = 2")
    # A term at exactly 2nm is kept.
    eq = parse_spec("n = 4\nm = 9\nterm 1 7 1\nterm 1 18 0")
    assert eq.f.coeffs[(18, 0)] == 1
    assert eq.form == "adapted"


def test_semigroup_and_sets_properties():
    eq = parse_spec("n=4\nm=9\nz 1 = 1")
    assert eq.sg.conductor == 24
    assert eq.sg.sets.J == (1, 2, 6, 10)


def _reference_parse(text: str):
    """The spec as the text-to-table route reads it: every value through
    ``Rat``, but a value with ``_`` refused, f's terms in an exponent table, each refusal in the order of
    ``parse_spec``.  Returns (sg, table), or raises the refusal that
    ``parse_spec`` must raise.  Reads only n, m, mu, z and term lines,
    blank lines and ``#`` comments."""
    def natural(token, line, what):
        try:
            value = int(token)
        except ValueError:
            raise SpecError(f"expected an integer {what}, got {token!r}", line) from None
        if value < 0:
            raise SpecError(f"{what} must be non-negative, got {value}", line)
        return value

    def rational(token, line):
        try:
            if "_" in token:  # refused on every Python version
                raise ValueError(token)
            return Rat(token)
        except (ValueError, ZeroDivisionError):
            raise SpecError(f"expected a rational, got {token!r}", line) from None

    fields, coeffs, terms = {}, [], []
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = line.partition("#")[0].replace("=", " = ").split()
        if not tokens:
            continue
        if tokens[0] in ("n", "m"):
            if tokens[0] in fields:
                raise SpecError(f"duplicate {tokens[0]}", line_no)
            fields[tokens[0]] = natural(tokens[2], line_no, tokens[0])
        elif tokens[0] == "mu":
            if "mu" in fields:
                raise SpecError("duplicate mu", line_no)
            fields["mu"] = rational(tokens[2], line_no)
            if not fields["mu"]:
                raise SpecError("mu must be nonzero", line_no)
        elif tokens[0] == "z":
            j = natural(tokens[1], line_no, "gap value")
            if any(k == j for k, _, _ in coeffs):
                raise SpecError(f"duplicate coefficient z {j}", line_no)
            coeffs.append((j, rational(tokens[3], line_no), line_no))
        else:
            c = rational(tokens[1], line_no)
            a = natural(tokens[2], line_no, "x exponent")
            b = natural(tokens[3], line_no, "y exponent")
            if any((t[1], t[2]) == (a, b) for t in terms):
                raise SpecError(f"duplicate term x^{a} y^{b}", line_no)
            terms.append((c, a, b, line_no))
    if "n" not in fields:
        raise SpecError("missing n")
    if "m" not in fields:
        raise SpecError("missing m")
    n, m = fields["n"], fields["m"]
    try:
        sg = Semigroup(n, m)
    except ValueError as exc:
        raise InvalidPair(str(exc)) from None
    mu = fields.get("mu", Rat(1))
    if coeffs and terms:
        raise SpecError("cannot mix z coefficients (nice form) with raw terms")
    if coeffs and mu != 1:
        raise SpecError("nice form fixes the x^m coefficient to 1; drop mu")
    table = {(m, 0): mu, (0, n): Rat(1)}
    for j, c, line_no in coeffs:
        if j not in sg.sets.j_to_p:
            raise CoefficientOutsideJ(f"z {j} is not a cuspidal gap value of ({n}, {m})",
                                      line_no)
        table[sg.sets.j_to_p[j]] = c
    for c, a, b, line_no in terms:
        w = n * a + m * b
        if w <= n * m:
            raise SpecError(f"term x^{a} y^{b} has weighted degree {w} <= {n * m}", line_no)
        if w > 2 * n * m:
            raise SpecError(f"term x^{a} y^{b} has weighted degree {w} > 2*n*m = "
                             f"{2 * n * m}, where f is held", line_no)
        table[(a, b)] = c
    return sg, table


# The values of the command-line fuzz guard (tests/test_cli.py), plus the
# tokens that only Rat reads (a decimal, an exponent form, a plus sign) and
# -0.  The guard's good values are listed three times: ``sampled_from``
# draws list entries evenly, while ``one_of`` draws its distinct branches
# evenly, whatever their repeats.
_GOOD = ["1", "2", "3", "4", "5", "6", "-1", "1/2", "-2/3"]
_VALUES = _GOOD * 3 + ["0", "1/0", "x", "2.5", "1e3", "-7", "+3", "-0"]
_value = st.sampled_from(_VALUES)


@st.composite
def _spec_texts(draw):
    """A spec text with z, term and mu lines.  The head names a pair, or
    leaves n or m out; an index or a pair of exponents is mostly one that
    the pair takes (a j in J, a monomial above the weight line and at most
    2nm), else any value, so that about half the texts are accepted."""
    n, m = draw(st.sampled_from([(4, 9), (3, 5), (5, 7), (2, 7), (4, 8)]))
    head = draw(st.sampled_from([("n", "m")] * 4 + [("m", "n"), ("n",), ()]))
    lines = [f"{key} = {n if key == 'n' else m}" for key in head]
    taken = [str(j) for j in Semigroup(n, m).sets.J] if gcd(n, m) == 1 else ["1"]
    window = [f"{a} {b}" for a in range(2 * m + 1) for b in range(2 * n + 1)
              if n * m < n * a + m * b <= 2 * n * m]
    z = st.builds("z {} = {}".format, st.sampled_from(taken * 12 + _VALUES), _value)
    term = st.builds("term {} {}".format, _value, st.sampled_from(
        window * 6 + [f"{a} {b}" for a in _VALUES[-8:] + ["0", "1"] for b in ("0", "1")]))
    mu = st.builds("mu = {}".format, _value)
    body = draw(st.sampled_from([z, z, term, term, st.one_of(z, term, mu)]))
    lines += draw(st.lists(body, max_size=5))
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(mu))
    return "\n".join(lines)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_spec_texts())
def test_spec_goes_straight_to_numerators(text):
    """``parse_spec`` builds f's integer numerators from the text in one
    pass.  On an accepted text they are those of the validating
    constructor on the exponent table that ``Rat`` reads, with the same
    denominator and in the same order; a refused text raises the same
    class with the same message and line."""
    _assert_reads_as_the_reference(text)


def _assert_reads_as_the_reference(text: str) -> None:
    """``parse_spec`` gives the f of ``_reference_parse``, terms in order
    and denominator, or raises its refusal: class, message and line."""
    try:
        sg, table = _reference_parse(text)
    except SpecError as expected:
        with pytest.raises(SpecError) as info:
            parse_spec(text)
        assert type(info.value) is type(expected)
        assert (str(info.value), info.value.line) == (str(expected), expected.line)
        return
    f = parse_spec(text).f
    want = TruncatedPoly(sg.order, sg.branch_horizon, table)
    assert list(f.terms.items()) == list(want.terms.items())
    assert f.den == want.den


# Decimal digits and p/q of them are split into integers with no Rat built;
# a token with _ is refused on every Python version; every other shape, and
# every other refusal, is Rat's.
_TOKENS = ["3", "-3", "6/4", "-0", "0/5", "-6/4", "+3", "2.5", "1e3", "1_0",
           "\uff13", "\u0663/4", "3/0", "3/-4", "3/", "/4", "--3"]


@pytest.mark.parametrize("line", ["z 1 = {}", "z 1 = 1\nz 2 = {}", "mu = {}",
                                  "term {} 7 1", "mu = 2\nterm {} 7 1"])
@pytest.mark.parametrize("token", _TOKENS)
def test_every_token_shape_reads_as_fraction_does(line, token):
    """A value of each shape, on a z, mu or term line, gives the f of the
    ``Fraction`` reference, terms and denominator, or its refusal."""
    _assert_reads_as_the_reference(f"n = 4\nm = 9\n{line.format(token)}\n")


@pytest.mark.parametrize("text", [
    "n = 4\nm = 9\nz 1 = 6/4   # a trailing comment\nz 2 = -1/3#another\n",
    "n\t=\t4\nm = 9\nz\t1\t=\t-6/4\n\tz 2 = 5\t\n",
    "n = 4\r\nm = 9\r\nz 1 = 2/3\r\n\r\nz 2 = 5\r\n",
    "n = 4\nm = 9\nz 1 = 1\nz 2 = 1/2\nz 1 = 2\n",     # a duplicate z, line 5
    "# head\n\nn = 4\nm = 9\nz 10 = 4/6\nz 6 = 3\n",
])
def test_comments_tabs_and_line_ends_read_as_fraction_does(text):
    """Trailing comments, tabs, blank lines, ``\\r\\n`` line ends and a
    duplicate z: the f or the refusal, with its line, of the reference."""
    _assert_reads_as_the_reference(text)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(
    st.builds("{}/{}".format, st.integers(-10 ** 6, 10 ** 6), st.integers(0, 10 ** 6)),
    st.text(alphabet="0123456789-+/_.e\uff11", max_size=7)))
def test_rational_reads_a_token_as_fraction_does(text):
    """``_rational`` reads a token of ASCII decimal digits (with an
    optional ``-``) by ``int``, and p/q of such digits by ``int`` on each
    side, building no ``Rat``; every token gives the numerator and
    denominator of ``Fraction(text)``, and one that ``Fraction`` refuses,
    ``1/0`` among them, raises ``SpecError`` naming it.  A token with
    non-ASCII digits goes to ``Fraction``; one with ``_`` is refused the
    same way on every Python version, though ``Fraction`` reads it from
    3.11 on."""
    try:
        if "_" in text:
            raise ValueError(text)
        want = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(SpecError) as info:
            _rational(text, 7)
        assert str(info.value) == f"line 7: expected a rational, got {text!r}"
        return
    with mock.patch.object(specfile, "Rat", wraps=Fraction) as built:
        got = _rational(text, 7)
    assert got == (want.numerator, want.denominator)
    assert type(got[0]) is type(got[1]) is int
    assert built.called != bool(re.fullmatch("-?[0-9]+(/[0-9]+)?", text))
