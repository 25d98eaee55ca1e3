"""Exact rational arithmetic used throughout the package.

``Rat`` is the coefficient type for every polynomial, series and residue
computation.  It is ``gmpy2.mpq`` when gmpy2 is available (markedly faster)
and ``fractions.Fraction`` otherwise; the two are interchangeable for
everything this package does (hashing, ordering, mixed arithmetic).
"""
from __future__ import annotations

from fractions import Fraction

try:
    from gmpy2 import mpq as Rat
except ImportError:  # pragma: no cover - exercised only without gmpy2
    Rat = Fraction

ZERO = Rat(0)
ONE = Rat(1)


def rat(value) -> Rat:
    """Coerce ints, strings like ``"-7/2"``, Fractions or Rats to ``Rat``."""
    if isinstance(value, Rat):
        return value
    if isinstance(value, str):
        return Rat(value.strip())
    if isinstance(value, Fraction):
        return Rat(value.numerator, value.denominator)
    if isinstance(value, int):
        return Rat(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")
