"""Exact rational arithmetic used throughout the package.

``Rat`` is ``fractions.Fraction``, the one rational type: the coefficients
a polynomial is built from and read back as (``TruncatedPoly.coeffs``), the
scalars of the 1-forms, the series y(t) and every root.  A polynomial holds
them as integer numerators over one denominator, and the series and residue
kernels work on integers too.  ``rat`` coerces exact input to ``Rat`` and
refuses floats, so no rounded value enters a computation.
"""
from __future__ import annotations

from fractions import Fraction as Rat

ZERO = Rat(0)
ONE = Rat(1)


def rat(value) -> Rat:
    """Coerce ints, strings like ``"-7/2"`` or Rats to ``Rat``."""
    if isinstance(value, Rat):
        return value
    if isinstance(value, (int, str)):
        return Rat(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")
