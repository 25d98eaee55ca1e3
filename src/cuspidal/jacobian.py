"""Standard bases of the extended Jacobian ideal (f, f_x, f_y) of a cusp.

The minimal standard basis comes for free from the differential machinery:
the final reductions h_i attached to the minimal basis 1-forms are exactly a
minimal standard basis of the ideal, so their leading powers encode the
semimodule of differential values.  A direct Buchberger run over
{f, f_x, f_y} provides the independent cross-check, and the codimension
formula turns the leading powers into the Tjurina number.
"""
from __future__ import annotations

from dataclasses import dataclass

from .curve import CurveEquation, Semigroup
from .differentials import DifferentialBasis
from .poly import divides
from .standard_basis import StandardBasis, buchberger, codimension


class ReductionVanished(ValueError):
    """A basis 1-form reduced to zero, contradicting its finite value."""


@dataclass(frozen=True)
class JacobianBasis:
    """Minimal standard basis h_{-1}, h_0, ..., h_s of (f, f_x, f_y)."""

    sg: Semigroup
    h_list: tuple

    def __post_init__(self) -> None:
        n, m = self.sg.n, self.sg.m
        if len(self.h_list) < 2:
            raise ValueError("need at least the two seed reductions")
        for h in self.h_list:
            if h.is_zero:
                raise ReductionVanished("zero polynomial in a Jacobian basis")
        lps = self.leading_powers
        if lps[0] != (0, n - 1):
            raise ValueError(f"first leading power must be (0, {n - 1})")
        if lps[1] != (m - 1, 0):
            raise ValueError(f"second leading power must be ({m - 1}, 0)")
        for i, e in enumerate(lps):
            for j, e2 in enumerate(lps):
                if i != j and divides(e, e2):
                    raise ValueError(f"leading power {e} divides {e2}")

    @property
    def leading_powers(self) -> tuple:
        return tuple(h.leading_power for h in self.h_list)

    def semimodule_values(self) -> tuple:
        """Differential values read back off the leading powers (the
        inversion nu = n(a+1) + m(b+1) - n*m)."""
        n, m = self.sg.n, self.sg.m
        return tuple(n * (a + 1) + m * (b + 1) - n * m
                     for a, b in self.leading_powers)


def jacobian_basis_via_differentials(eq: CurveEquation,
                                     diff: DifferentialBasis) -> JacobianBasis:
    """Package the final reductions carried by a differential basis.

    Reduction modulo the single element {f} is unique, so the h_i stored by
    the basis construction are the final reductions of X_{omega_i}(f)
    themselves; the constructor re-checks the leading-power invariants.
    """
    if diff.values.sg != eq.sg:
        raise ValueError("differential basis belongs to a different semigroup")
    return JacobianBasis(eq.sg, tuple(diff.reductions))


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
