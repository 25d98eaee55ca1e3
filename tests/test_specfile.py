"""The text format for describing a cusp to the command-line tool."""
from __future__ import annotations

import pytest

from cuspidal.rationals import Rat
from cuspidal.specfile import (
    CoefficientOutsideJ,
    InvalidPair,
    ParseError,
    SpecError,
    parse_spec,
)


def test_minimal_spec():
    spec = parse_spec("n=4\nm=5\nz 2 = 1")
    assert (spec.n, spec.m) == (4, 5)
    assert spec.coeffs == ((2, Rat(1)),)
    assert spec.mu == 1
    assert spec.terms == ()
    assert spec.horizon() is None


def test_spacing_and_comments_are_free():
    spec = parse_spec("""
# full curve description
n = 4
m=9      # trailing comment
z 1 = 1
z 2 = 7/18
horizon_mult = 6
seed=11
""")
    assert spec.coeffs == ((1, Rat(1)), (2, Rat(7, 18)))
    assert (spec.horizon_mult, spec.seed) == (6, 11)
    assert spec.horizon() == 6 * 36


def test_build_nice_equation():
    spec = parse_spec("n=4\nm=9\nz 1 = 1\nhorizon_mult = 6")
    eq = spec.build_equation()
    assert eq.form == "nice"
    assert eq.f.horizon == 216
    assert eq.nice_coeffs == {1: Rat(1)}


def test_build_adapted_equation_from_terms():
    spec = parse_spec("n=4\nm=5\nterm 1/2 4 1\nterm 3 6 0\nmu = 2")
    assert spec.mu == 2
    eq = spec.build_equation()
    assert eq.form == "adapted"
    got = {t.exponent: t.coeff for t in eq.f.sorted_terms()}
    assert got == {(0, 4): 1, (5, 0): 2, (4, 1): Rat(1, 2), (6, 0): 3}


def test_with_overrides_keeps_unset_fields():
    spec = parse_spec("n=4\nm=5\nz 2 = 1\nseed = 7")
    out = spec.with_overrides(horizon_mult=5, seed=None)
    assert out.horizon_mult == 5
    assert out.seed == 7
    assert out.coeffs == spec.coeffs


def test_overrides_pass_the_horizon_checks():
    spec = parse_spec("n=4\nm=9\nz 1 = 1")
    with pytest.raises(ParseError, match="horizon_mult must be at least 2"):
        spec.with_overrides(horizon_mult=1)
    assert spec.with_overrides(horizon_mult=2).build_equation().f.horizon == 72


@pytest.mark.parametrize("text,exc,kind,line", [
    ("n=4\nm=8", InvalidPair, "invalid_pair", None),
    ("n=6\nm=3", InvalidPair, "invalid_pair", None),
    ("n=4\nm=5\nz 3 = 1", CoefficientOutsideJ, "coefficient_outside_J", 3),
    ("n=4\nm=5\nz 3 = 1\nhorizon_mult = 1", CoefficientOutsideJ, "coefficient_outside_J", 3),
    ("m=5", ParseError, "parse_error", None),
    ("n=4", ParseError, "parse_error", None),
    ("n=4\nm=5\nz 2 = 1\nterm 1 6 1", ParseError, "parse_error", None),
    ("n=4\nm=5\nz 2 = 1\nmu = 2", ParseError, "parse_error", None),
    ("n=4\nm=5\nhorizon_mult = 1", ParseError, "parse_error", None),
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


def test_term_weighted_degree_must_exceed_nm():
    # degree exactly nm collides with the corner monomials
    with pytest.raises(ParseError):
        parse_spec("n=4\nm=5\nterm 2 5 0")
    parse_spec("n=4\nm=5\nterm 2 4 1")  # degree 21: fine


def test_semigroup_and_sets_properties():
    spec = parse_spec("n=4\nm=9\nz 1 = 1")
    assert spec.semigroup.conductor == 24
    assert spec.sets.J == (1, 2, 6, 10)
