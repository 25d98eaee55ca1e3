"""Certified Bernstein-Sato roots of a cusp via the residue criterion.

Every gap value j in the cuspidal set J yields two candidate roots -beta_j
and -alpha_j = -(beta_j + 1).  Which one is realized is decided by an exact
residue: a Gamma-weighted polynomial in the nice-form coefficients z_j whose
non-vanishing at some test exponent in M certifies -beta_j.  Every residue
is a single Gamma group c*Gamma(r1)*Gamma(r2) or zero (proved in
``residue``), so the vanishing decision is exact: no group left means zero,
and one group is nonzero (``residue_is_zero``).  A root verdict is its kind,
its root and the test exponent whose residue is nonzero (``decide_root``).
Interval arithmetic only displays a value (``interval_certificate``, which
alone imports mpmath); no decision reads it.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from math import factorial

from .curve import CurveEquation, Semigroup
from .rationals import ONE, Rat, rat
from .semimodules import AbstractSemimodule, classify_four, elements_outside


class NegativeK(ValueError):
    """The residue target k = beta*nm - n*a - m*b came out negative."""


class PreconditionViolation(ValueError):
    """The curve is outside the scope of the requested battery."""


MAX_PRECISION_BITS = 1024


@dataclass(frozen=True)
class RootCandidate:
    """The two rationals attached to j in J: beta = (j+n+m)/nm and alpha = beta+1."""

    j: int
    beta: Rat

    def __post_init__(self) -> None:
        if not 0 < self.beta < 1:
            raise ValueError(f"beta must lie in (0,1), got {self.beta}")

    @property
    def alpha_val(self) -> Rat:
        return self.beta + 1

    @classmethod
    def for_gap(cls, sg: Semigroup, j: int) -> "RootCandidate":
        return cls(j, Rat(j + sg.n + sg.m, sg.n * sg.m))


@dataclass(frozen=True)
class DeltaSequence:
    """A multiset of parts from J: entries ((part, multiplicity), ...) with
    every multiplicity positive, parts strictly increasing."""

    entries: tuple

    @property
    def total(self) -> int:
        return sum(d for _, d in self.entries)


def delta_sequences(parts, k: int) -> frozenset:
    """All ways of writing k as a non-negative combination of the given parts.

    DFS over the parts in decreasing order; k = 0 yields the empty (all-zero)
    sequence.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    uniq = sorted(set(parts), reverse=True)
    out: list[DeltaSequence] = []
    chosen: list[tuple] = []

    def rec(i: int, rem: int) -> None:
        if rem == 0:
            out.append(DeltaSequence(tuple(sorted(chosen))))
            return
        if i == len(uniq):
            return
        part = uniq[i]
        for d in range(rem // part, 0, -1):
            chosen.append((part, d))
            rec(i + 1, rem - d * part)
            chosen.pop()
        rec(i + 1, rem)

    rec(0, k)
    return frozenset(out)


@dataclass(frozen=True)
class GammaExpr:
    """Zero, or one group coeff * Gamma(r1) * Gamma(r2) in canonical form.

    Arguments are recursively lowered into (0, 1] through
    Gamma(r) = (r-1) Gamma(r-1), the multipliers folding into the rational
    coefficient; the arguments are stored sorted (the product is symmetric)
    and a group whose coefficient sums to 0 is dropped.  A residue is never
    more than one group (see ``residue``): ``from_terms`` raises ValueError
    on terms that lower to two different argument tuples, and the
    constructor on a second group or a group not in canonical form.
    """

    groups: tuple  # () or (((r1, r2, ...), coeff),), arguments sorted

    def __post_init__(self) -> None:
        # residue_is_zero reads "nonzero" off a group being left, which is
        # sound only for one group with a nonzero coefficient and arguments
        # in (0, 1], where Gamma is positive.
        if len(self.groups) > 1:
            raise ValueError(f"a residue is at most one Gamma group, got {len(self.groups)}")
        for args, coeff in self.groups:
            if not coeff or not all(0 < r <= 1 for r in args):
                raise ValueError(f"not a canonical group: {_group_str(args, coeff)}")

    @classmethod
    def from_terms(cls, terms) -> "GammaExpr":
        """Sum terms (coeff, (r1, r2, ...)), each lowered on integers: an
        argument p/q in lowest terms takes t = (p-1)//q steps of
        Gamma(r) = (r-1) Gamma(r-1) to (p - t*q)/q, which multiply the
        coefficient by prod_{i=1..t} (p - i*q) / q^t."""
        key, total = None, None
        for coeff, args in terms:
            c = rat(coeff)
            if not c:
                continue
            num = den = 1
            lowered = []
            for r in args:
                r = rat(r)
                p, q = r.numerator, r.denominator
                if p <= 0:
                    raise ValueError(f"gamma argument must be positive, got {r}")
                t = (p - 1) // q
                for i in range(1, t + 1):
                    num *= p - i * q
                den *= q ** t
                # gcd(p - t*q, q) = gcd(p, q) = 1: the pair is the value's
                # lowest terms, so equal pairs are equal arguments.
                lowered.append((p - t * q, q))
            if num != den:
                c = Rat(c.numerator * num, c.denominator * den)
            lowered = tuple(sorted(lowered))
            if key is None:
                key, total = lowered, c
            elif lowered == key:
                total += c
            else:
                raise ValueError(f"terms lower to two argument tuples, {_args(key)} and "
                                 f"{_args(lowered)}: not one Gamma group")
        return cls(((_args(key), total),) if total else ())

    @property
    def is_zero(self) -> bool:
        return not self.groups

    def __str__(self) -> str:
        if not self.groups:
            return "0"
        ((args, coeff),) = self.groups
        return _group_str(args, coeff)


def _args(pairs) -> tuple:
    """Lowered arguments (p, q) as rationals p/q, sorted by value."""
    return tuple(sorted(Rat(p, q) for p, q in pairs))


def _group_str(args, coeff) -> str:
    gammas = "*".join(f"Gamma({r})" for r in args)
    return f"({coeff})*{gammas}" if gammas else f"({coeff})"


def residue(eq: CurveEquation, ab, beta) -> GammaExpr:
    """The residue at test exponent (a, b) for the candidate beta, as a
    canonical GammaExpr; the positive scalar prefactor is dropped since only
    vanishing matters.

    Sums over all part-decompositions of k = beta*nm - n*a - m*b drawn from
    the gap values with nonzero coefficient (others cannot contribute):
    (-1)^{sum delta} Gamma((sum delta*p1 + a)/m) Gamma((sum delta*p2 + b)/n)
    prod z^delta / delta!.

    The sum is c*Gamma(r1)*Gamma(r2) or 0, because every term lowers to the
    same arguments (r1, r2):

    - A term has arguments s1/m and s2/n, with s1 = a + sum d*p1 and
      s2 = b + sum d*p2.
    - Each part is l = n*p1 + m*p2 - nm, and the parts' weights sum to
      k = B - n*a - m*b, where B = beta*nm is an integer (checked below).
    - So n*s1 + m*s2 = B + nm*sum d, which gives s1 = B*n^-1 (mod m) and
      s2 = B*m^-1 (mod n); the inverses exist since gcd(n, m) = 1.
    - Lowering s1/m into (0, 1] depends only on s1 mod m, and s2/n only on
      s2 mod n, so every term lands on the same pair.

    GammaExpr refuses a second group, so a slip here cannot go unnoticed.

    The sequences of k depend on the curve and k alone, not on (a, b) or
    beta.  So the first call with a given k stores them in
    ``eq.delta_table`` as coefficients with their offsets (sum d*p1,
    sum d*p2), and every call adds its own (a, b) to the offsets.  Sequences
    with the same offsets have the same arguments, so they are stored as
    one entry, the sum of their coefficients; a sum that cancels is
    dropped.
    """
    if eq.form != "nice":
        raise ValueError("residues are defined against the nice form")
    sg = eq.sg
    n, m = sg.n, sg.m
    a, b = ab
    beta = rat(beta)
    if beta.numerator * n * m % beta.denominator:
        raise ValueError("beta*nm - n*a - m*b must be an integer, got "
                         f"{beta * (n * m) - n * a - m * b}")
    k = beta.numerator * n * m // beta.denominator - n * a - m * b
    if k < 0:
        raise NegativeK(f"residue target k = {k} is negative")
    seqs = eq.delta_table.get(k)
    if seqs is None:
        z = {j: c for j, c in eq.nice_coeffs.items() if c}
        p_of = eq.sets.p_of
        merged: dict = {}
        for seq in delta_sequences(tuple(z), k):
            o1 = o2 = 0
            coeff = ONE if seq.total % 2 == 0 else -ONE
            for l, d in seq.entries:
                p1, p2 = p_of(l)
                o1 += d * p1
                o2 += d * p2
                coeff = coeff * z[l] ** d / factorial(d)
            merged[o1, o2] = merged.get((o1, o2), 0) + coeff
        eq.delta_table[k] = seqs = tuple((c, o1, o2) for (o1, o2), c in merged.items() if c)
    return GammaExpr.from_terms((coeff, (Rat(a + o1, m), Rat(b + o2, n)))
                                for coeff, o1, o2 in seqs)


class ResidueDecision(enum.Enum):
    ZERO = "zero"
    NONZERO = "nonzero"


@dataclass(frozen=True)
class Certificate:
    """An outward-rounded enclosure [lower, upper] of a GammaExpr's value,
    computed at ``precision_bits``, for display; ``sign`` is 0 unless the
    enclosure excludes zero."""

    sign: int
    precision_bits: int
    lower: str
    upper: str
    relative_width: str


def interval_certificate(expr: GammaExpr) -> Certificate:
    """Enclose the value of an expression by interval evaluation, doubling
    the working precision from 256 bits until zero is excluded and the
    enclosure is tight (relative width under 1e-30), up to
    ``MAX_PRECISION_BITS``.  Decisions never need it (see
    ``residue_is_zero``); the ``residue`` subcommand prints it to show the
    value."""
    bits = 256
    if expr.is_zero:
        return Certificate(0, bits, "0", "0", "0")
    import mpmath  # only the displayed enclosure needs it; it is slow to load

    iv = mpmath.iv
    goal = mpmath.mpf("1e-30")
    ((args, coeff),) = expr.groups
    while True:
        saved = iv.prec
        iv.prec = bits
        try:
            val = iv.mpf(int(coeff.numerator)) / iv.mpf(int(coeff.denominator))
            for r in args:
                val = val * iv.gamma(iv.mpf(int(r.numerator)) / iv.mpf(int(r.denominator)))
        finally:
            iv.prec = saved
        # .a/.b are width-zero intervals; unwrap to plain floats so that
        # comparisons and rendering below use the ordinary real context.
        lo = mpmath.mp.make_mpf(val.a._mpi_[0])
        hi = mpmath.mp.make_mpf(val.b._mpi_[1])
        sign = 1 if lo > 0 else -1 if hi < 0 else 0
        width = hi - lo
        mid = abs(hi + lo) / 2
        rel = width / mid if mid > 0 else mpmath.inf
        if (sign and rel < goal) or bits >= MAX_PRECISION_BITS:
            return Certificate(sign, bits, mpmath.nstr(lo, 40),
                               mpmath.nstr(hi, 40), mpmath.nstr(rel, 10))
        bits = min(2 * bits, MAX_PRECISION_BITS)


def residue_is_zero(expr: GammaExpr) -> ResidueDecision:
    """Zero exactly when no group is left.  Otherwise the expression is one
    group c*Gamma(r1)*Gamma(r2) with c nonzero and both arguments in
    (0, 1], where Gamma is positive, so it is nonzero with the sign of c.
    No interval is computed."""
    return ResidueDecision.ZERO if expr.is_zero else ResidueDecision.NONZERO


@dataclass(frozen=True)
class RootDecision:
    """Outcome of the residue criterion for one j in J: the kind, the root,
    and for a beta root the test exponent (a, b) whose residue is nonzero."""

    kind: str  # "beta_root" | "alpha_root"
    root: Rat
    witness: tuple | None = None


def decide_root(eq: CurveEquation, j: int) -> RootDecision:
    """-beta_j is a root iff some test exponent in M has nonzero residue;
    otherwise -alpha_j is.  Test exponents are scanned by increasing residue
    target k (then lexicographically), so the cheap decompositions -- and in
    the certified families the theory's own witness -- come first.  The
    first nonzero residue is the witness; ``residue(eq, witness, beta_j)``
    recomputes it."""
    sg = eq.sg
    n, m = sg.n, sg.m
    sets = eq.sets
    if j not in sets.j_to_p:
        raise ValueError(f"{j} is not a cuspidal gap value of {(n, m)}")
    cand = RootCandidate.for_gap(sg, j)
    big_b = j + n + m
    for a, b in sets.M_by_target:
        if n * a + m * b > big_b:  # k < 0
            continue
        if not residue(eq, (a, b), cand.beta).is_zero:
            return RootDecision("beta_root", -cand.beta, (a, b))
    return RootDecision("alpha_root", -cand.alpha_val)


def certified_roots_from_semimodule(sm: AbstractSemimodule) -> frozenset:
    """The root subset certified directly by the semimodule of differential
    values: all of -(Lambda \\ Gamma)/nm when n <= 4, and the -(lambda_1 +
    Gamma \\ Gamma)/nm tail for larger n (empty when the Zariski invariant
    vanishes)."""
    sg, basis = sm.sg, sm.basis
    nm = sg.n * sg.m
    if sg.n <= 4:
        lams = elements_outside(sm, 0)
    elif len(basis) < 3:
        return frozenset()
    else:
        lams = elements_outside(AbstractSemimodule(sg, basis[:3]), 0)
    return frozenset(-Rat(lam, nm) for lam in lams)


@dataclass(frozen=True)
class ZariskiReport:
    """Cross-check of the three equivalent detections of the first extra
    basis value lambda_1 = j_1 + n + m, plus the follow-up residues for the
    rest of (lambda_1 + Gamma) \\ Gamma."""

    j1: int | None
    lambda1: int | None
    residue_j1: int | None
    chain: tuple     # ((ell, decision value), ...) for ell in J up to the hit
    dagger: tuple    # ((lam, (a, b), decision value), ...)
    consistent: bool


def _check_semimodule(eq: CurveEquation, values: AbstractSemimodule) -> None:
    if eq.form != "nice":
        raise ValueError("the coefficient pattern is read off the nice form")
    if values.sg != eq.sg:
        raise ValueError("semimodule belongs to a different semigroup")


def zariski_condition_check(eq: CurveEquation, values: AbstractSemimodule) -> ZariskiReport:
    """Verify on one curve that the smallest gap value with nonzero
    coefficient, the lambda_1 of its Delorme basis ``values``, and the residue
    chain at test exponent (1,1) all tell the same story, then confirm the
    guaranteed nonzero residues across (lambda_1 + Gamma) \\ Gamma."""
    _check_semimodule(eq, values)
    sg = eq.sg
    n, m = sg.n, sg.m
    z = {j: c for j, c in eq.nice_coeffs.items() if c}
    j1 = min(z) if z else None

    basis = values.basis
    lambda1 = basis[2] if len(basis) > 2 else None

    chain = []
    residue_j1 = None
    for ell in sorted(eq.sets.J):
        decision = residue_is_zero(
            residue(eq, (1, 1), RootCandidate.for_gap(sg, ell).beta))
        chain.append((ell, decision.value))
        if decision is not ResidueDecision.ZERO:
            residue_j1 = ell
            break

    consistent = (j1 == residue_j1
                  and (lambda1 is None) == (j1 is None)
                  and (j1 is None or lambda1 == j1 + n + m))

    dagger = []
    if lambda1 is not None:
        for lam in elements_outside(AbstractSemimodule(sg, basis[:3]), 0):
            a, b = sg.decompose(lam - lambda1)
            decision = residue_is_zero(
                residue(eq, (a + 1, b + 1), Rat(lam, n * m)))
            dagger.append((lam, (a + 1, b + 1), decision.value))
            if decision is ResidueDecision.ZERO:
                consistent = False
    return ZariskiReport(j1, lambda1, residue_j1, tuple(chain), tuple(dagger),
                         consistent)


@dataclass(frozen=True)
class FourReport:
    """Cross-check of the second extension step for n = 4 curves whose
    lambda_1 has the two-step shape 4(alpha+1) + 2 epsilon + 4 q."""

    alpha: int
    epsilon: int
    q: int
    q_prime_coeffs: int | None
    q_prime_delorme: int | None
    chain: tuple    # ((gamma, decision value), ...)
    dagger: tuple   # ((lam, (a, b), decision value), ...)
    consistent: bool


def four_condition_check(eq: CurveEquation, values: AbstractSemimodule) -> FourReport:
    """For n = 4: predict the second extension value lambda_2 = 8 alpha +
    3 epsilon + 4 q' from the coefficient pattern (simple vanishing tests
    below q, a quadratic combination at q), compare against the Delorme
    basis ``values``, and verify the residue chain plus the guaranteed
    nonzero residues above lambda_2."""
    _check_semimodule(eq, values)
    sg = eq.sg
    n, m = sg.n, sg.m
    if n != 4:
        raise PreconditionViolation("this battery is specific to n = 4")
    alpha, epsilon = m // 4, m % 4

    basis = values.basis
    if len(basis) < 3:
        raise PreconditionViolation("the Zariski invariant vanishes (s = 0)")
    lambda1 = basis[2]
    q4 = lambda1 - 4 * (alpha + 1) - 2 * epsilon
    if q4 < 0 or q4 % 4:
        raise PreconditionViolation(
            f"lambda_1 = {lambda1} is not of the form 4(alpha+1)+2 epsilon+4q")
    q = q4 // 4
    if alpha < 2 or q > alpha - 2:
        raise PreconditionViolation(f"q = {q} outside [0, alpha-2]")

    z = eq.nice_coeffs
    q_prime_coeffs = None
    for gamma in range(q + 1):
        if gamma < q:
            if rat(z.get(2 * epsilon + 4 * (q + gamma), 0)):
                q_prime_coeffs = gamma
                break
        else:
            quad = (2 * (4 * alpha + epsilon) * rat(z.get(2 * epsilon + 8 * q, 0))
                    - (3 * alpha + epsilon + q) * rat(z.get(epsilon + 4 * q, 0)) ** 2)
            if quad:
                q_prime_coeffs = gamma

    cls = classify_four(values)
    if cls.case == 3:
        if cls.q != q:
            raise AssertionError("classification and lambda_1 disagree on q")
        q_prime_delorme = cls.q_prime
    else:
        q_prime_delorme = None

    top = q_prime_delorme if q_prime_delorme is not None else q
    chain = []
    chain_ok = True
    for gamma in range(top + 1):
        decision = residue_is_zero(
            residue(eq, (alpha - q, 1), Rat(8 * alpha + 3 * epsilon + 4 * gamma, n * m)))
        chain.append((gamma, decision.value))
        expected_zero = q_prime_delorme is None or gamma < q_prime_delorme
        if (decision is ResidueDecision.ZERO) != expected_zero:
            chain_ok = False

    dagger = []
    dagger_ok = True
    if q_prime_delorme is not None:
        lambda2 = basis[3]
        for a in range(q - q_prime_delorme + 1):
            lam = lambda2 + 4 * a
            if values.contains(lam, 1):
                raise AssertionError(f"{lam} unexpectedly lies in the sub-semimodule")
            decision = residue_is_zero(
                residue(eq, (alpha - q + a, 1), Rat(lam, n * m)))
            dagger.append((lam, (alpha - q + a, 1), decision.value))
            if decision is ResidueDecision.ZERO:
                dagger_ok = False

    consistent = q_prime_coeffs == q_prime_delorme and chain_ok and dagger_ok
    return FourReport(alpha, epsilon, q, q_prime_coeffs, q_prime_delorme,
                      tuple(chain), tuple(dagger), consistent)
