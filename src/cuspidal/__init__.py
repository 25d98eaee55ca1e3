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

``import cuspidal`` loads no layer.  Each export is read from its module on
first use (PEP 562), on every read and with nothing cached here, so the top
level always reads what its module holds, a patched function included.
"""
from __future__ import annotations

import importlib

# export -> the module of the package that holds it
_HOMES = {
    "decide_root": "bernstein",
    "CurveEquation": "curve", "Semigroup": "curve",
    "delorme": "differentials",
    "jacobian_basis_direct": "jacobian", "tjurina_number": "jacobian",
    "TruncatedPoly": "poly", "WeightedOrder": "poly",
    "Rat": "rationals",
    "StandardBasis": "standard_basis", "codimension": "standard_basis",
}
__all__ = sorted(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{home}", __name__), name)
