"""Standard bases of the extended Jacobian ideal (f, f_x, f_y) of a cusp.

The minimal standard basis comes for free from the differential machinery:
the final reductions h_i attached to the minimal basis 1-forms are exactly a
minimal standard basis of the ideal, and ``DifferentialBasis`` checks that
their leading powers encode the semimodule of differential values.  A direct
Buchberger run over {g, f_x, f_y}, where g = nm*f - n*x*f_x - m*y*f_y is
Euler's combination (the same ideal, see ``jacobian_generators``), at its
own proven horizon (see ``jacobian_basis_direct``), provides the
independent cross-check, and the codimension formula turns the leading
powers into the Tjurina number.  Both routes stay on integers from f to
the leading powers: the generators are read exactly off f's integer
numerators, and Buchberger's run is fraction-free, so its polynomials are
positive integer multiples of those of the same run with rational steps,
with the same leading powers.
"""
from __future__ import annotations

from .curve import CurveEquation, Semigroup
from .differentials import DifferentialBasis
from .poly import TruncatedPoly
from .standard_basis import HorizonExhausted, StandardBasis, buchberger, codimension


def jacobian_basis_via_differentials(eq: CurveEquation,
                                     diff: DifferentialBasis) -> StandardBasis:
    """Package the final reductions carried by a differential basis.

    Reduction modulo the single element {f} is unique, so the h_i stored by
    the basis construction are the final reductions of X_{omega_i}(f)
    themselves.  They stay as ``delorme`` made them, and
    ``StandardBasis`` re-checks that they are nonzero and that their
    leading powers form an antichain.
    """
    if diff.values.sg != eq.sg:
        raise ValueError("differential basis belongs to a different semigroup")
    return StandardBasis(tuple(sorted(diff.reductions, key=lambda h: h.lead[1])))


def jacobian_generators(eq: CurveEquation, horizon: int) -> list[TruncatedPoly]:
    """g, f_x and f_y cut at ``horizon``, integer numerators over ``f.den``,
    with f_x and f_y differentiated exactly (``TruncatedPoly.partials``,
    which refuses a horizon above f's).

    g = nm*f - n*x*f_x - m*y*f_y is Euler's relation for the
    quasi-homogeneous part mu*x^m + y^n: a term c*x^a*y^b of weighted
    degree d = na + mb becomes (nm - d)*c*x^a*y^b, so the terms of degree
    nm cancel, and g = 0 on the bare curve.  g measures how far f is from
    quasi-homogeneous (Saito, "Quasihomogene isolierte Singularitaeten von
    Hyperflaechen", Invent. Math. 14, 1971).  Since nm != 0, f = (g + n*x*f_x
    + m*y*f_y)/nm, so (g, f_x, f_y) = (f, f_x, f_y).
    """
    f = eq.f
    fx, fy = f.partials(horizon)
    nm = eq.sg.n * eq.sg.m
    g = TruncatedPoly._raw(f.order, horizon, {
        (d, a): (nm - d) * c for (d, a), c in f.terms.items() if d != nm and d <= horizon}, f.den)
    return [g, fx, fy]


def jacobian_basis_direct(eq: CurveEquation) -> StandardBasis:
    """Buchberger over the generators {g, f_x, f_y} of ``jacobian_generators``,
    which span I = (f, f_x, f_y), cut at the proven
    horizon H_J = max(D, nm - n) (``Semigroup.jacobian_horizon``), which
    is D = 2nm - 2n - 2m for n >= 3 and 2m - 2 for n = 2.

    The leading powers, and so tau, are those of every horizon >= H_J, f's
    own 2nm included:

    - ``TruncatedPoly`` arithmetic at horizon H is exact in R/m_{>H}, where
      m_{>H} is the ideal spanned by the monomials of weighted degree > H.
      So ``buchberger`` returns a standard basis of I + m_{>H}, with
      I = (f, f_x, f_y).  f is the stored polynomial and f_x, f_y are its
      exact derivatives, so cutting them at H <= 2nm changes only terms
      that m_{>H} absorbs.
    - g = nm*f - n*x*f_x - m*y*f_y spans I with f_x and f_y, since nm != 0.
      Each term of g keeps the weighted degree of the term of f it comes
      from, so cutting at H commutes with forming g: g cut at H is g
      modulo m_{>H}, and the run returns a standard basis of the same
      I + m_{>H}.  Everything below holds as for (f, f_x, f_y).
    - Every ``CurveEquation`` is mu*x^m + y^n plus terms of weight > nm, so
      the lowest weighted parts of f_x and f_y are m*mu*x^(m-1) and
      n*y^(n-1), a regular sequence.  By Arnold's theorem on
      semi-quasi-homogeneous functions (Arnold, Gusein-Zade & Varchenko,
      *Singularities of Differentiable Maps I*, par. 12), the Milnor
      algebra R/(f_x, f_y) then has the monomial basis of that of its
      principal part, x^i*y^j with i <= m - 2 and j <= n - 2, and every
      monomial of weighted degree > D = 2nm - 2n - 2m, the degree of the
      Hessian monomial x^(m-2)*y^(n-2) (``Semigroup.hessian_degree``),
      lies in (f_x, f_y), hence in I.
    - So I + m_{>H} = I for every H >= D, and the basis at H has the
      corners of the leading ideal L(I) as leading powers once every corner
      has degree <= H (the highest-corner argument: Greuel & Pfister,
      *A Singular Introduction to Commutative Algebra*, par. 1.7).  L(I)
      holds x^(m-1) and y^(n-1), the leading powers of f_x and f_y.  So a
      corner x^a*y^b with a >= m - 1 is x^(m-1), one with b >= n - 1 is
      y^(n-1), and every other corner lies in the box a <= m - 2,
      b <= n - 2, of degree <= D.  x^(m-1) has degree nm - n and y^(n-1)
      degree nm - m < nm - n, so H_J = max(D, nm - n) is enough.  For
      n >= 3, D >= nm - n, so H_J = D.  For n = 2, H_J = 2m - 2 = D + n,
      and it is tight: the corner x^(m-1) has degree exactly H_J.

    The premise is checked on every call: the staircase must be finite and
    its highest monomial of degree <= D, else ``HorizonExhausted``.

    The generators come from ``jacobian_generators``, so the whole run is
    on integers; on the bare curve g = 0, and ``buchberger`` drops it.  The
    returned polynomials have integer coefficients of content 1 over the
    denominator 1: each is a positive multiple of the basis element that
    the same run with rational steps returns (see ``buchberger``).
    """
    h = eq.sg.jacobian_horizon
    basis = buchberger(jacobian_generators(eq, h))
    check_jacobian_staircase(basis, eq.sg)
    return basis


def check_jacobian_staircase(basis: StandardBasis, sg: Semigroup) -> None:
    """Raise ``HorizonExhausted`` unless the staircase of ``basis`` is finite
    and its highest monomial has weighted degree <= D = ``sg.hessian_degree``.

    With leading powers (a_i, b_i) sorted by increasing a, the outer
    corners of the staircase are (a_i - 1, b_{i-1} - 1).  It is finite iff
    a_1 = 0 and b_j = 0 (``codimension``), which ``tjurina_number`` then
    counts.
    """
    lps = basis.leading_powers
    if lps[0][0] or lps[-1][1]:
        raise HorizonExhausted("the Jacobian staircase is infinite")
    top = max((sg.order.degree((a - 1, b - 1)) for (_, b), (a, _) in zip(lps, lps[1:])),
              default=-1)
    if top > sg.hessian_degree:
        raise HorizonExhausted(f"the Jacobian staircase reaches weighted degree {top}, "
                               f"past D = {sg.hessian_degree}")


def tjurina_number(basis: StandardBasis) -> int:
    """Codimension of (f, f_x, f_y), read off its direct standard basis
    (``jacobian_basis_direct``); finite for every cusp equation."""
    tau = codimension(basis)
    if tau is None:
        raise AssertionError("Jacobian codimension came out infinite")
    return tau
