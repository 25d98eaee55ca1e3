"""Standard bases of the extended Jacobian ideal (f, f_x, f_y) of a cusp.

The minimal standard basis comes for free from the differential machinery:
the final reductions h_i attached to the minimal basis 1-forms are exactly a
minimal standard basis of the ideal, and ``DifferentialBasis`` checks that
their leading powers encode the semimodule of differential values.  A direct
Buchberger run over {f, f_x, f_y} provides the independent cross-check, and
the codimension formula turns the leading powers into the Tjurina number.
"""
from __future__ import annotations

from .curve import CurveEquation
from .differentials import DifferentialBasis
from .standard_basis import (StandardBasis, _as_standard_basis, buchberger,
                             codimension)


def jacobian_basis_via_differentials(eq: CurveEquation,
                                     diff: DifferentialBasis) -> StandardBasis:
    """Package the final reductions carried by a differential basis.

    Reduction modulo the single element {f} is unique, so the h_i stored by
    the basis construction are the final reductions of X_{omega_i}(f)
    themselves; ``StandardBasis`` re-checks that they are nonzero and that
    their leading powers form an antichain.
    """
    if diff.values.sg != eq.sg:
        raise ValueError("differential basis belongs to a different semigroup")
    return _as_standard_basis(diff.reductions)


def jacobian_basis_direct(eq: CurveEquation) -> StandardBasis:
    """Buchberger over the generators {f, f_x, f_y}."""
    return buchberger([eq.f, eq.fx, eq.fy])


def tjurina_number(basis: StandardBasis) -> int:
    """Codimension of (f, f_x, f_y), read off its direct standard basis
    (``jacobian_basis_direct``); finite for every cusp equation."""
    tau = codimension(basis)
    if tau is None:
        raise AssertionError("Jacobian codimension came out infinite")
    return tau
