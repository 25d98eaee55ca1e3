"""Combinatorics of Gamma-semimodules over a cusp semigroup <n, m>.

A semimodule is described by its basis (lambda_{-1}, lambda_0, ..., lambda_s):
the unique minimal increasing sequence whose shifted copies of the semigroup
cover the whole value set.  This module knows nothing about curves; it
normalizes bases, computes axes and critical values, enumerates every
increasing semimodule of a given semigroup, and classifies the n = 4 family.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

from .curve import Semigroup


class Unclassifiable(ValueError):
    """A basis that fits none of the n = 4 shapes; upstream enumeration bug."""


def validate_basis(sg: Semigroup, basis) -> tuple:
    """Check the cuspidal-basis invariants and return the basis as a tuple.

    Required: every element is an ``int``, the sequence starts (n, m), is
    strictly increasing, has at most n elements (s <= n - 2), every later
    element is a gap of the semigroup, and no element lies in the semimodule
    spanned by its predecessors.  Validity depends on (sg, basis) alone, so
    a basis that passes is checked once per process (``_checked_basis``);
    one that fails raises on every call.  The type is checked here, before
    the cache: 14.0 == 14 hash alike, so (4, 9, 14.0) would find
    (4, 9, 14)'s entry.
    """
    basis = tuple(basis)
    if any(type(lam) is not int for lam in basis):
        raise ValueError(f"basis elements must be int, got {basis}")
    return _checked_basis(sg, basis)


@cache
def _checked_basis(sg: Semigroup, basis: tuple) -> tuple:
    if len(basis) < 2 or basis[0] != sg.n or basis[1] != sg.m:
        raise ValueError(f"basis must start with ({sg.n}, {sg.m}), got {basis}")
    if len(basis) > sg.n:
        raise ValueError(f"basis length {len(basis)} exceeds n = {sg.n} (s <= n-2)")
    for i in range(1, len(basis)):
        if basis[i] <= basis[i - 1]:
            raise ValueError(f"basis not strictly increasing: {basis}")
    for i in range(2, len(basis)):
        lam = basis[i]
        if lam in sg:
            raise ValueError(f"basis element {lam} lies in the semigroup")
        if _shifts(sg.mask, basis[:i]) >> lam & 1:  # lam < c: a gap
            raise ValueError(f"basis element {lam} is spanned by earlier elements")
    return basis


@dataclass(frozen=True)
class AbstractSemimodule:
    """A cuspidal Gamma-semimodule given by its basis alone."""

    sg: Semigroup
    basis: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "basis", validate_basis(self.sg, self.basis))

    @property
    def s(self) -> int:
        return len(self.basis) - 2

    def __contains__(self, k: int) -> bool:
        return any((k - lam) in self.sg for lam in self.basis)

    @cached_property
    def axes(self) -> tuple:
        """The axes (u_1, ..., u_{s+1}), by direct search."""
        return tuple(_axis(self.sg, self.basis, i) for i in range(1, len(self.basis)))

    @cached_property
    def critical(self) -> tuple:
        """The critical values (t_{-1}, ..., t_{s+1}): t_{-1} = n, t_0 = m and
        t_i = t_{i-1} + u_i - lambda_{i-1}.  (The recursion is calibrated so
        that t_i equals the monomial value of the i-th basis 1-form; in
        particular u_1 = t_1 = n + m always.)"""
        crit = [self.sg.n, self.sg.m]
        for i, u in enumerate(self.axes, start=1):
            crit.append(crit[-1] + u - self.basis[i])
        return tuple(crit)


def _shifts(bits: int, lambdas) -> int:
    """The union of the shifts bits << lambda over ``lambdas``."""
    out = 0
    for lam in lambdas:
        out |= bits << lam
    return out


def _axis(sg: Semigroup, basis, i: int) -> int:
    """u_i = min((lambda_{i-1} + Gamma) intersect Lambda_{i-2}) for i >= 1:
    the lowest common bit of ``mask`` << lambda_{i-1} and the cover of
    basis[:i], the basis of Lambda_{i-2}.  Both sets hold every value
    >= lambda_{i-1} + c (Lambda_{i-2} holds n + Gamma, and n <= lambda_{i-1}),
    so Gamma's ones are extended through lambda_{i-1} + c, where the lowest
    common bit lies at the latest."""
    lam_prev, c = basis[i], sg.conductor   # lambda_{i-1} sits at list index i
    gamma = sg.mask | (1 << (lam_prev + c + 1)) - (1 << c)
    common = gamma << lam_prev & _shifts(gamma, basis[:i])
    return (common & -common).bit_length() - 1


def enumerate_increasing(sg: Semigroup):
    """All increasing cuspidal semimodules of <n, m>, i.e. every basis with
    lambda_i > u_i at each extension step.  Depth-first: at each node the next
    element ranges over the semigroup gaps above the fresh axis that are not
    already covered; stopping is always allowed."""
    gaps = sg.gaps()
    found: list[AbstractSemimodule] = []

    def extend(basis: tuple) -> None:
        found.append(AbstractSemimodule(sg, basis))
        if len(basis) >= sg.n:  # s = n - 2 reached
            return
        u_next = _axis(sg, basis, len(basis) - 1)
        spanned = _shifts(sg.mask, basis)
        for lam in gaps:
            if lam > u_next and not spanned >> lam & 1:
                extend(basis + (lam,))

    extend((sg.n, sg.m))
    return found


@dataclass(frozen=True)
class FourClassification:
    """Shape of an n = 4 semimodule basis: m = 4*alpha + epsilon with epsilon
    in {1, 3}; case 1 is (4, m); case 2 is (4, m, lambda_1) with a free gap
    lambda_1; case 3 is (4, m, 4(alpha+1) + 2*epsilon + 4q, 8*alpha +
    3*epsilon + 4q') with 0 <= q' <= q <= alpha - 2."""

    case: int
    alpha: int
    epsilon: int
    q: int | None = None
    q_prime: int | None = None


def classify_four(sm: AbstractSemimodule) -> FourClassification:
    """The n = 4 shape of ``sm``'s basis.  ``validate_basis`` caps a basis
    at n elements, so s <= 2 here, and a basis with s = 2 is case 3 or fits
    no shape."""
    sg = sm.sg
    if sg.n != 4:
        raise Unclassifiable(f"classification requires n = 4, got n = {sg.n}")
    alpha, epsilon = divmod(sg.m, 4)
    if sm.s == 0:
        return FourClassification(1, alpha, epsilon)
    if sm.s == 1:
        return FourClassification(2, alpha, epsilon)
    lam1, lam2 = sm.basis[2], sm.basis[3]  # s = 2
    q4 = lam1 - 4 * (alpha + 1) - 2 * epsilon
    qp4 = lam2 - 8 * alpha - 3 * epsilon
    if q4 >= 0 and q4 % 4 == 0 and qp4 >= 0 and qp4 % 4 == 0:
        q, q_prime = q4 // 4, qp4 // 4
        if alpha >= 2 and q <= alpha - 2 and q_prime <= q:
            return FourClassification(3, alpha, epsilon, q, q_prime)
    raise Unclassifiable(f"basis {sm.basis} fits no n = 4 shape")


def covered(sg: Semigroup, lambdas, bound: int) -> int:
    """The values below ``bound`` in the union of the lambda + Gamma over
    ``lambdas`` (each lambda >= 0), as a bitset: the OR of the shifts
    ``sg.mask`` << lambda, cut at the bound.  ``mask`` holds Gamma below
    n + c, so the bound is at most n + c."""
    if bound > sg.n + sg.conductor:
        raise ValueError(f"bound {bound} exceeds n + c = {sg.n + sg.conductor}")
    return _shifts(sg.mask, lambdas) & (1 << bound) - 1


@cache
def elements_outside(sm: AbstractSemimodule) -> tuple:
    """The sorted finite set Lambda \\ Gamma.  Every element of Lambda is
    positive, and the positive part of Gamma is Lambda_0 = (n + Gamma) u
    (m + Gamma), so the set is the bits of the cover of the basis elements
    past (n, m) that the cover of (n, m) lacks (``covered``).  Every
    element is below n + conductor, since n + Gamma holds every k >= n + c.
    The set depends on the semimodule alone, (n, m) and its basis, so the
    tuple is cached per semimodule, as
    ``bernstein.certified_roots_from_semimodule`` is."""
    sg = sm.sg
    bound = sg.n + sg.conductor
    bits = covered(sg, sm.basis[2:], bound) & ~covered(sg, sm.basis[:2], bound)
    return tuple(k for k in range(bound) if bits >> k & 1)
