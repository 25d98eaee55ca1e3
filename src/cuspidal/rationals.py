"""Exact rational arithmetic used throughout the package.

``Rat`` is ``fractions.Fraction``, the coefficient type for every
polynomial, series and residue computation.  ``rat`` coerces exact input to
it and refuses floats, so no rounded value enters a computation.
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
