"""The text format for describing a cusp to the command-line tool."""
from __future__ import annotations

import pytest

from cuspidal.curve import CurveEquation
from cuspidal.poly import TruncatedPoly
from cuspidal.rationals import Rat
from cuspidal.specfile import (
    CoefficientOutsideJ,
    InvalidPair,
    ParseError,
    SpecError,
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
    got = {t.exponent: t.coeff for t in eq.f.sorted_terms()}
    assert got == {(0, 4): 1, (5, 0): 2, (4, 1): Rat(1, 2), (6, 0): 3}


def test_lone_mu_builds_the_adapted_form():
    """mu != 1 without terms is the adapted curve mu*x^m + y^n, not the
    nice curve x^m + y^n."""
    eq = parse_spec("n=4\nm=9\nmu = 2")
    assert eq.form == "adapted"
    got = {t.exponent: t.coeff for t in eq.f.sorted_terms()}
    assert got == {(0, 4): 1, (9, 0): 2}
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
    ("n=4\nm=5\nz 3 = 1\nhorizon_mult = 1", ParseError, "parse_error", 4),   # removed key
    ("m=5", ParseError, "parse_error", None),
    ("n=4", ParseError, "parse_error", None),
    ("n=4\nm=5\nz 2 = 1\nterm 1 6 1", ParseError, "parse_error", None),
    ("n=4\nm=5\nz 2 = 1\nmu = 2", ParseError, "parse_error", None),
    ("n=4\nm=5\nhorizon_mult = 1", ParseError, "parse_error", 3),   # removed key
    ("n=4\nm=5\nseed = 7", ParseError, "parse_error", 3),           # removed key
    ("n=4\nm=5\nt_horizon = 32", ParseError, "parse_error", 3),
    ("n=4\nm=5\nprecision = 512", ParseError, "parse_error", 3),   # removed key
    ("n=4\nn=5\nm=7", ParseError, "parse_error", 2),
    ("n=4\nm=5\nwhat is this", ParseError, "parse_error", 3),
    ("n=4\nm=5\nterm 1 1 1", ParseError, "parse_error", 3),
    ("n=4\nm=5\nz 2 = x", ParseError, "parse_error", 3),
])
def test_error_taxonomy(text, exc, kind, line):
    with pytest.raises(exc) as info:
        parse_spec(text)
    assert info.value.kind == kind
    assert info.value.line == line
    assert isinstance(info.value, SpecError)
    if "horizon_mult" in text:
        assert str(info.value) == (f"line {line}: the horizon_mult key was removed: f is "
                                   "held at 2nm, and every layer cuts f at its own "
                                   "proven horizon, at most 2nm")


def test_term_weighted_degree_must_exceed_nm():
    # degree exactly nm collides with the corner monomials
    with pytest.raises(ParseError):
        parse_spec("n=4\nm=5\nterm 2 5 0")
    parse_spec("n=4\nm=5\nterm 2 4 1")  # degree 21: fine


def test_term_above_2nm_is_refused():
    """f is held at 2nm, and no layer reads a term above it, so such a term
    is refused on its line rather than dropped in silence.  Held at 4nm,
    y^9 here changed no value of the nice curve z_1 = 1, yet labelled it
    adapted."""
    with pytest.raises(ParseError) as info:
        parse_spec("n = 4\nm = 9\nterm 1 7 1\nterm 1 0 9")
    assert (info.value.kind, info.value.line) == ("parse_error", 4)
    assert str(info.value) == ("line 4: term x^0 y^9 has weighted degree 81 > "
                               "2*n*m = 72, where f is held")
    with pytest.raises(ParseError, match=r"line 3: term x\^19 y\^0 has weighted degree 76 >"):
        parse_spec("n = 4\nm = 9\nterm 1 19 0\nmu = 2")
    # A term at exactly 2nm is kept.
    eq = parse_spec("n = 4\nm = 9\nterm 1 7 1\nterm 1 18 0")
    assert eq.f.coeffs[(18, 0)] == 1
    assert eq.form == "adapted"


def test_semigroup_and_sets_properties():
    eq = parse_spec("n=4\nm=9\nz 1 = 1")
    assert eq.sg.conductor == 24
    assert eq.sg.sets.J == (1, 2, 6, 10)
