"""Exact invariants of plane cusp singularities.

The package computes, over exact rationals: truncated standard bases for the
local weighted order, the semimodule of differential values of a cusp via
Delorme's algorithm, Newton-Puiseux parametrizations used as independent
value oracles (checked on every form Delorme's run passes through, not on
random ones), Jacobian-ideal standard bases with the Tjurina number, and
certified subsets of Bernstein-Sato roots through an exact residue
criterion.  Every residue is zero or a single Gamma group, so each decision
is exact, and a root verdict is its kind, its root and the test exponent
whose residue is nonzero; mpmath is loaded only to display a residue's
value as an interval.  A ``CurveEquation`` holds f at 2nm, the largest
horizon any layer reads.

The top level exports the names that the README's library quick start and
the benchmark read: the curve and its semigroup, ``Rat``, ``delorme``, the
Jacobian basis with its Tjurina number, ``decide_root``, and the standard
basis layer.  Every other name is read from its module, for example
``cuspidal.specfile.parse_spec``, which turns the command line's plain-text
curve spec into a ``CurveEquation``, or ``cuspidal.bernstein.residue``.
"""
from __future__ import annotations

from .bernstein import decide_root
from .curve import CurveEquation, Semigroup
from .differentials import delorme
from .jacobian import jacobian_basis_direct, tjurina_number
from .poly import TruncatedPoly, WeightedOrder
from .rationals import Rat
from .standard_basis import StandardBasis, codimension

__all__ = [
    "CurveEquation", "Rat", "Semigroup", "StandardBasis", "TruncatedPoly",
    "WeightedOrder", "codimension", "decide_root", "delorme",
    "jacobian_basis_direct", "tjurina_number",
]
