"""Certified Bernstein-Sato roots of a cusp via the residue criterion.

Every gap value j in the cuspidal set J yields two candidate roots -beta_j
and -alpha_j = -(beta_j + 1).  Which one is realized is decided by an exact
residue: a Gamma-weighted polynomial in the nice-form coefficients z_j whose
non-vanishing at some test exponent in M certifies -beta_j.  Every residue
is a single Gamma group c*Gamma(r1)*Gamma(r2) or zero, with the pair
(r1, r2) fixed by B = beta_j*nm = j + n + m alone (proved in ``residue``);
j's root plan holds B and the pair, and every term is checked against it,
and it maps each target k >= 0 to its one test exponent.
So the vanishing decision is exact: c = 0 means zero, and otherwise the
group is nonzero with the sign of c (``residue_is_zero``).  One integer
core, ``_residue_sum``, computes c as (num, den) from the curve's table of
the target k, the t^k coefficient of an exponential that the recurrence of
``_delta_entries``, the table's one reader, builds from the tables of
smaller targets, without listing delta sequences.  Every verdict reads
only whether num is 0, on the B and Gamma pair of j's root plan, through
one core, ``_first_nonzero``: ``decide_root``, and both batteries through
``_verdict``.  It passes by
every test whose k no sum of the curve's support reaches
(``CurveEquation.support_sums``): that residue is the empty sum, exactly 0.
A one-term residue is decided by its sign: when the table of k has one
entry (c, o1, o2), num is c * P1 * P2, where P1 and P2 are ``_lower``'s
products of integers >= 1, and the table holds no zero numerator, so
num != 0 with the sign of c.  Such a test is decided
after the pole and Gamma-pair checks of its two arguments (``_steps``),
with no product; every other residue is summed.  Only ``residue`` wraps c
as a GammaExpr.  A root verdict is its kind, its root and the test
exponent whose residue is nonzero, one shared instance per pair, j and
witness, which renders its own report line.
Interval arithmetic only displays a value (``interval_certificate``, which
alone imports mpmath); no decision reads it.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cache
from math import gcd, lcm, prod
from types import MappingProxyType

from .curve import CurveEquation, Semigroup
from .rationals import Rat
from .semimodules import AbstractSemimodule, classify_four, elements_outside


class NegativeK(ValueError):
    """The residue target k = B - n*a - m*b, B = j + n + m, came out
    negative."""


class PreconditionViolation(ValueError):
    """The curve is outside the scope of the requested battery."""


MAX_PRECISION_BITS = 1024


def delta_sequences(parts, k: int) -> frozenset:
    """All ways of writing k as a non-negative combination of the given parts,
    each a tuple ((part, multiplicity), ...) with every multiplicity positive
    and the parts increasing.

    DFS over the parts in decreasing order; k = 0 yields the empty (all-zero)
    sequence.  No residue lists them (``_delta_entries`` builds the tables
    by a recurrence); the enumeration is the tests' reference for those
    tables.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    uniq = sorted(set(parts), reverse=True)
    out: list[tuple] = []
    chosen: list[tuple] = []

    def rec(i: int, rem: int) -> None:
        if rem == 0:
            out.append(tuple(sorted(chosen)))
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
    """Zero, or one group coeff * Gamma(r1) * Gamma(r2) in canonical form:
    a nonzero coefficient and arguments in (0, 1], stored sorted (the
    product is symmetric).  ``residue`` builds it with the arguments already
    lowered and the multipliers folded into the coefficient; a coefficient
    that sums to 0 is no group at all.  A residue is never more than one
    group (see ``residue``), so the constructor raises ValueError on a
    second group or on a group not in canonical form.
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

    @property
    def is_zero(self) -> bool:
        return not self.groups

    def __str__(self) -> str:
        if not self.groups:
            return "0"
        ((args, coeff),) = self.groups
        return _group_str(args, coeff)


def _group_str(args, coeff) -> str:
    gammas = "*".join(f"Gamma({r})" for r in args)
    return f"({coeff})*{gammas}" if gammas else f"({coeff})"


def _steps(s: int, q: int, r: int) -> int:
    """The number t = (s - r)/q of steps that lower Gamma(s/q) to
    Gamma(r/q), 0 < r <= q.  Refuses a pole (s <= 0) and an s that does
    not lower to r: the checks of every residue term, summed or not."""
    if s <= 0:
        raise ValueError(f"gamma argument must be positive, got {Rat(s, q)}")
    t, off = divmod(s - r, q)
    if off:
        raise ValueError(f"Gamma({Rat(s, q)}) does not lower to Gamma({Rat(r, q)}): "
                         "not one Gamma group")
    return t


def _lower(s: int, q: int, r: int) -> tuple:
    """Gamma(s/q) = (num/den) * Gamma(r/q) for s = r (mod q) and
    0 < r <= q: the (s - r)/q steps of Gamma(x) = (x-1) Gamma(x-1) give
    num = (s - q)(s - 2q)...r and den = q^((s - r)/q), after ``_steps``'
    checks, which every call runs."""
    t = _steps(s, q, r)
    return prod(range(s - q, r - 1, -q)), q ** t


def _gamma_pair(n: int, m: int, big_b: int) -> tuple:
    """The numerators (r1, r2) of the Gamma arguments r1/m and r2/n that
    every term of a residue with B = j + n + m lowers to (see ``residue``)."""
    return (big_b * pow(n, -1, m) - 1) % m + 1, (big_b * pow(m, -1, n) - 1) % n + 1


def _delta_entries(eq: CurveEquation, k: int) -> tuple:
    """``eq.delta_table[k]``, built on the first use of k, and the one
    read of the table: (den, entries) with entries ((num, o1, o2), ...),
    one per offset pair (o1, o2) = (sum d*p1, sum d*p2) of the delta
    sequences of k, whose coefficients (-1)^{sum d} prod z^d / d! sum to
    num/den != 0.

    The table of k is E_k, the t^k coefficient of
    E = exp(-sum_l z_l u_l t^l) over the parts l with nonzero z_l, where
    u_l = x^p1 y^p2 is the monomial of l, x and y kept as offsets:

    - exp of a sum is the product of the exps, so
      E = prod_l sum_d (-z_l u_l t^l)^d / d!, and its t^k coefficient sums
      (-1)^{sum d} prod z_l^d u_l^d / d! over the multiplicities d_l >= 0
      with sum d_l * l = k: the delta sequences of k, one term each.
    - With A = -sum_l z_l u_l t^l, E' = A' E, so t E' = (t A') E, and
      comparing t^k coefficients gives k E_k = -sum_{l <= k} l z_l u_l
      E_{k-l} (Miller's power-series recurrence; Knuth, TAOCP vol. 2,
      section 4.7), with E_0 = 1.

    So the table of k is built from the tables of k - l, not by listing
    sequences.  A target outside the support sums (``eq.support_sums``)
    has no sequence: its table is empty and the recurrence skips it.  The
    bitset reaches 2nm, and every target asked for is at most
    B <= nm - n - m (see ``residue``).  The tables that E_k reads are those
    of the support sums k' <= k with k - k' a support sum too, a set closed
    under the recurrence's own reads; they are filled in increasing k' and
    kept.  Each table is put over den = k * lcm(zd_l * den_{k-l}), the
    coefficients of equal offsets merged, those that cancel dropped, and
    num and den divided by their gcd."""
    tables = eq.delta_table
    table = tables.get(k)
    if table is not None:
        return table
    sums = eq.support_sums
    if not sums >> k & 1:
        tables[k] = table = (1, ())
        return table
    parts = eq.delta_parts
    tables.setdefault(0, (1, ((1, 0, 0),)))
    below = sums & ((2 << k) - 1)
    while below:
        low = below & -below
        below ^= low
        t = low.bit_length() - 1
        if t in tables or not sums >> (k - t) & 1:
            continue
        reads = []
        common = 1
        for l, lz, zd, p1, p2 in parts:
            if l > t:
                break
            if sums >> (t - l) & 1:
                den, entries = tables[t - l]
                den *= zd
                common = lcm(common, den)
                reads.append((lz, den, p1, p2, entries))
        merged: dict = {}
        for lz, d, p1, p2, entries in reads:
            c = lz * (common // d)
            for num, o1, o2 in entries:
                key = (o1 + p1, o2 + p2)
                merged[key] = merged.get(key, 0) - c * num
        den = t * common
        g = gcd(den, *merged.values())
        tables[t] = (den // g, tuple([(c // g, o1, o2) for (o1, o2), c in merged.items() if c]))
    return tables[k]


def _residue_sum(eq: CurveEquation, a: int, b: int, k: int, pair) -> tuple:
    """The coefficient c of the residue at test exponent (a, b) with target
    k = B - n*a - m*b, B = j + n + m, as integers (num, den) with den > 0;
    only the sign of num decides.  Sums num_i * P1 * P2 * m^(T1-t1) *
    n^(T2-t2) over the entries of k, where P1/m^t1 and P2/n^t2 lower the
    entry's arguments (``_lower``) and T1, T2 are the largest t1, t2 so
    far; every term is checked for a pole and against ``pair``."""
    n, m = eq.sg.n, eq.sg.m
    den, entries = _delta_entries(eq, k)
    r1, r2 = pair
    total = 0
    top1 = top2 = 1  # m^T1, n^T2
    for c, o1, o2 in entries:
        num1, den1 = _lower(a + o1, m, r1)
        num2, den2 = _lower(b + o2, n, r2)
        if den1 > top1:
            total *= den1 // top1
            top1 = den1
        if den2 > top2:
            total *= den2 // top2
            top2 = den2
        total += c * num1 * num2 * (top1 // den1) * (top2 // den2)
    return total, den * top1 * top2


def residue(eq: CurveEquation, ab, j: int) -> GammaExpr:
    """The residue at test exponent (a, b) for the gap value j in J, whose
    candidate is beta_j = B/nm with B = j + n + m, as a canonical
    GammaExpr; the positive scalar prefactor is dropped since only
    vanishing matters.  A j outside J raises ``decide_root``'s ValueError,
    and a negative target k NegativeK.

    Sums over all part-decompositions of k = B - n*a - m*b drawn from the
    gap values with nonzero coefficient (others cannot contribute):
    (-1)^{sum delta} Gamma((sum delta*p1 + a)/m) Gamma((sum delta*p2 + b)/n)
    prod z^delta / delta!.

    The sum is c*Gamma(r1)*Gamma(r2) or 0, because every term lowers to the
    same arguments (r1, r2):

    - A term has arguments s1/m and s2/n, with s1 = a + sum d*p1 and
      s2 = b + sum d*p2.
    - Each part is l = n*p1 + m*p2 - nm, and the parts' weights sum to
      k = B - n*a - m*b.
    - So n*s1 + m*s2 = B + nm*sum d, which gives s1 = B*n^-1 (mod m) and
      s2 = B*m^-1 (mod n); the inverses exist since gcd(n, m) = 1.
    - Lowering s1/m into (0, 1] depends only on s1 mod m, and s2/n only on
      s2 mod n, so every term lands on the same pair.

    So the pair depends on B alone: r1 = ((B*n^-1 - 1) mod m) + 1 and
    r2 = ((B*m^-1 - 1) mod n) + 1, the arguments r1/m and r2/n.  Both B and
    the pair are read from j's root plan (``_root_plans``), as ``_verdict``
    reads them.  Each term then costs only its integer multiplier
    (``_lower``), and is checked against the pair: a term off it raises
    ValueError, so a slip in the proof or the table cannot go unnoticed.

    No term is at a pole (s1 <= 0 or s2 <= 0):

    - Every part has p1, p2 >= 1, since P lies in the box p1 <= m - 2,
      p2 <= n - 2 strictly above the weight line n*p1 + m*p2 = nm.
    - So, with a, b >= 0, s1 <= 0 needs a = 0 and no part, k = 0.  Then
      B = m*b, so m divides B = j + n + m, that is n*(p1 + 1) for j's own
      monomial (p1, p2), and so p1 + 1, which lies in [2, m - 1]:
      impossible.
    - The y side is the same, with p2 + 1 in [2, n - 1].

    ``_steps`` still refuses a pole, so a table entry moved onto one is
    caught.  Every target is below 2nm: k <= B = j + n + m <= nm - n - m.

    The sequences of k depend on the curve and k alone, not on (a, b) or
    j.  So the first call with a given k stores them in
    ``eq.delta_table`` as (den, entries): integer numerators, each with its
    offsets (sum d*p1, sum d*p2), over one positive denominator.  Every call
    adds its own (a, b) to the offsets.  Sequences with the same offsets
    have the same arguments, so they are stored as one entry, the sum of
    their numerators; a sum that cancels is dropped.  No sequence is
    listed: the table of k is the t^k coefficient of
    exp(-sum z_l x^p1 y^p2 t^l), built from the tables of smaller targets
    by Miller's recurrence (proved in ``_delta_entries``), and a k that no
    sum of the support reaches has the empty table.  ``_residue_sum`` adds
    the lowered entries up on integers, and this function only turns its
    (num, den) into the GammaExpr; ``decide_root`` and ``_verdict`` read
    the same sum's sign and build no GammaExpr.
    """
    sg = eq.sg
    n, m = sg.n, sg.m
    a, b = ab
    big_b, (r1, r2) = _plan(sg, j)[:2]
    k = big_b - n * a - m * b
    if k < 0:
        raise NegativeK(f"residue target k = {k} is negative")
    num, den = _residue_sum(eq, a, b, k, (r1, r2))
    if not num:
        return GammaExpr(())
    return GammaExpr(((tuple(sorted((Rat(r1, m), Rat(r2, n)))), Rat(num, den)),))


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


@dataclass(frozen=True, slots=True)
class RootDecision:
    """Outcome of the residue criterion for one j in J: the kind, the root,
    and for a beta root the test exponent (a, b) whose residue is nonzero.
    ``line`` is its report line, rendered once when it is made; neither
    ``==`` nor ``repr`` reads it."""

    kind: str  # "beta_root" | "alpha_root"
    root: Rat
    witness: tuple | None = None
    line: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        line = f"{self.kind} root={self.root}"
        if self.witness is not None:
            # A witness's residue is nonzero by definition; the seed-0
            # digests in bench/reference pin this field of the line.
            line += f" witness={self.witness[0]},{self.witness[1]} decision=nonzero"
        object.__setattr__(self, "line", line)


@cache
def _root_plans(sg: Semigroup) -> MappingProxyType:
    """j -> (B, pair, tests, reach, beta root, alpha root, verdicts) for
    every j in J of the pair, built on the pair's first verdict:
    B = j + n + m = beta_j*nm, the Gamma pair of beta_j (``_gamma_pair``),
    the read-only map from the target k = B - n*a - m*b of each test
    exponent (a, b) of M with k >= 0 to that exponent, in scan order, so
    its keys ascend, those keys as a bitset, the candidate roots -B/nm and
    -(B + nm)/nm, and the pair's verdicts for j: witness -> RootDecision,
    None for the alpha root, each made on its first hit.  That verdict
    memo is the one part written after a plan is built; the rest, and the
    mapping of plans, are read-only.  Nothing in it depends on a curve."""
    n, m = sg.n, sg.m
    # The scan order: decreasing weight n*a + m*b, then (a, b), which is
    # increasing k for every j; the weights below nm are distinct, so each
    # k has one test.  scan holds (-weight, (a, b)).
    scan = sorted((-n * a - m * b, (a, b)) for a, b in sg.sets.M)
    plans = {}
    for j in sg.sets.J:
        big_b = j + n + m
        tests = {big_b + w: ab for w, ab in scan if w >= -big_b}
        plans[j] = (big_b, _gamma_pair(n, m, big_b), MappingProxyType(tests),
                    sum(1 << k for k in tests), Rat(-big_b, n * m),
                    Rat(-big_b - n * m, n * m), {})
    return MappingProxyType(plans)


def _plan(sg: Semigroup, j: int) -> tuple:
    """j's root plan (``_root_plans``); a j outside J raises ValueError."""
    plan = _root_plans(sg).get(j)
    if plan is None:
        raise ValueError(f"{j} is not a cuspidal gap value of {(sg.n, sg.m)}")
    return plan


def _first_nonzero(eq: CurveEquation, pair, tests, reach: int):
    """The first test exponent (a, b) of ``tests`` whose residue is
    nonzero, else None: the one core of every verdict.  ``tests`` maps the
    target k of each test to its exponent, k ascending, ``reach`` holds
    the same targets as a bitset, and ``pair`` is the Gamma pair of the
    tests' B.

    - A test whose k is not a support sum (``eq.support_sums``) is passed
      by unread: its residue is the empty sum, exactly 0.  So only the bits
      of ``reach`` that the support sums share are read, lowest first, each
      k's test read off the map.
    - A one-term residue is decided by its sign.  When the table of k has
      one entry (c, o1, o2), ``_residue_sum`` returns c * P1 * P2 over a
      positive denominator, where P1 and P2 are ``_lower``'s products of
      integers >= r >= 1 (or 1), and the table drops zero numerators, so
      c != 0: the residue is nonzero with the sign of c.  The test is
      decided without the products, after ``_steps``' pole and Gamma-pair
      checks on both arguments, in ``_lower``'s order.
    - Every other residue is ``_residue_sum``, each term checked the same
      way."""
    n, m = eq.sg.n, eq.sg.m
    r1, r2 = pair
    hits = reach & eq.support_sums
    while hits:
        k = (hits & -hits).bit_length() - 1
        hits &= hits - 1
        ab = tests[k]
        entries = _delta_entries(eq, k)[1]
        if len(entries) == 1:
            _, o1, o2 = entries[0]
            _steps(ab[0] + o1, m, r1)
            _steps(ab[1] + o2, n, r2)
            return ab
        if _residue_sum(eq, *ab, k, pair)[0]:
            return ab
    return None


def decide_root(eq: CurveEquation, j: int) -> RootDecision:
    """-beta_j is a root iff some test exponent in M has nonzero residue;
    otherwise -alpha_j is.  Test exponents are scanned by increasing residue
    target k, one test per k, so the cheap decompositions -- and in the
    certified families the theory's own witness -- come first.  The pair's
    plan for j (``_root_plans``) holds B, the Gamma pair of beta_j, the map
    from each target k >= 0 to its test exponent, in that order, and both
    candidate roots, so each call only reads the sign of each residue's
    integer sum (``_first_nonzero``); no GammaExpr is built.  A j outside
    J raises ValueError.  A residue whose table has one entry (c, o1, o2)
    is not summed: it is c times positive lowering products over a
    positive denominator, and c != 0, so it is nonzero with the sign of c.
    The first nonzero residue is the witness; ``residue(eq, witness, j)``
    recomputes it.  The verdict returned is the pair's one instance for
    (j, witness), so its report line is rendered once per process."""
    _, pair, tests, reach, beta_root, alpha_root, verdicts = _plan(eq.sg, j)
    witness = _first_nonzero(eq, pair, tests, reach)
    verdict = verdicts.get(witness)
    if verdict is None:
        verdict = verdicts[witness] = (RootDecision("alpha_root", alpha_root) if witness is None
                                       else RootDecision("beta_root", beta_root, witness))
    return verdict


def _verdict(eq: CurveEquation, j: int, a: int, b: int) -> str:
    """"zero" or "nonzero": the residue at test exponent (a, b), on the
    B = j + n + m and Gamma pair of j's root plan, read by
    ``_first_nonzero`` as ``decide_root`` reads it.  The batteries ask only
    for j in J: every lambda in Lambda \\ Gamma is a gap
    nm - n*a' - m*b' > n + m with a', b' >= 1, so
    lambda - n - m = n*p1 + m*p2 - nm with p1 = m - 1 - a' and
    p2 = n - 1 - b'.  The n = 4 chain's B = 8 alpha + 3 epsilon +
    4 gamma gives p1 = 3 alpha + epsilon + gamma - 1 <= m - 2 and p2 = 2,
    since gamma <= q <= alpha - 2.  An index outside J raises ValueError
    (``_plan``)."""
    big_b, pair = _plan(eq.sg, j)[:2]
    k = big_b - eq.sg.n * a - eq.sg.m * b
    return "zero" if _first_nonzero(eq, pair, {k: (a, b)}, 1 << k) is None else "nonzero"


@cache
def certified_roots_from_semimodule(sm: AbstractSemimodule) -> tuple:
    """The root subset certified directly by the semimodule of differential
    values: all of -(Lambda \\ Gamma)/nm when n <= 4, and the -(lambda_1 +
    Gamma \\ Gamma)/nm tail for larger n (empty when the Zariski invariant
    vanishes), as a tuple sorted ascending.  The roots depend on the
    semimodule alone, (n, m) and its basis, so the tuple is cached per
    semimodule: every curve with the same values reads the one tuple, and
    no caller sorts it again."""
    sg, basis = sm.sg, sm.basis
    nm = sg.n * sg.m
    if sg.n <= 4:
        lams = elements_outside(sm)
    elif len(basis) < 3:
        return ()
    else:
        lams = elements_outside(AbstractSemimodule(sg, basis[:3]))
    # lams ascends, so the roots -lam/nm ascend in reverse.
    return tuple(Rat(-lam, nm) for lam in reversed(lams))


@cache
def certified_root_strings(sm: AbstractSemimodule) -> tuple:
    """``str`` of each root of ``certified_roots_from_semimodule(sm)``, in
    its order: the report's roots, rendered once per semimodule."""
    return tuple(map(str, certified_roots_from_semimodule(sm)))


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
    if values.sg != eq.sg:
        raise ValueError("semimodule belongs to a different semigroup")


def zariski_condition_check(eq: CurveEquation, values: AbstractSemimodule) -> ZariskiReport:
    """Verify on one curve that the smallest gap value with nonzero
    coefficient, the lambda_1 of its Delorme basis ``values``, and the residue
    chain at test exponent (1,1) all tell the same story, then confirm the
    guaranteed nonzero residues across (lambda_1 + Gamma) \\ Gamma, each
    read by ``_verdict`` as ``decide_root`` reads it."""
    _check_semimodule(eq, values)
    sg = eq.sg
    n, m = sg.n, sg.m
    parts = eq.delta_parts  # the nonzero z_l, l ascending
    j1 = parts[0][0] if parts else None

    basis = values.basis
    lambda1 = basis[2] if len(basis) > 2 else None

    chain = []
    residue_j1 = None
    for ell in sg.sets.J:
        decision = _verdict(eq, ell, 1, 1)
        chain.append((ell, decision))
        if decision != "zero":
            residue_j1 = ell
            break

    consistent = (j1 == residue_j1
                  and (lambda1 is None) == (j1 is None)
                  and (j1 is None or lambda1 == j1 + n + m))

    dagger = []
    if lambda1 is not None:
        for lam in elements_outside(AbstractSemimodule(sg, basis[:3])):
            a, b = sg.decompose(lam - lambda1)
            decision = _verdict(eq, lam - n - m, a + 1, b + 1)
            dagger.append((lam, (a + 1, b + 1), decision))
            if decision == "zero":
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
    below q, a quadratic combination at q), compare against the q' that
    ``classify_four`` reads off the Delorme basis ``values``, and verify the
    residue chain plus the guaranteed nonzero residues above lambda_2, each
    read by ``_verdict`` as ``decide_root`` reads it."""
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
    quad = (2 * (4 * alpha + epsilon) * z.get(2 * epsilon + 8 * q, 0)
            - (3 * alpha + epsilon + q) * z.get(epsilon + 4 * q, 0) ** 2)
    q_prime_coeffs = next((gamma for gamma in range(q) if z.get(2 * epsilon + 4 * (q + gamma))),
                          q if quad else None)
    q_prime_delorme = classify_four(values).q_prime

    top = q_prime_delorme if q_prime_delorme is not None else q
    chain = []
    chain_ok = True
    for gamma in range(top + 1):
        decision = _verdict(eq, 8 * alpha + 3 * epsilon + 4 * gamma - n - m, alpha - q, 1)
        chain.append((gamma, decision))
        expected_zero = q_prime_delorme is None or gamma < q_prime_delorme
        if (decision == "zero") != expected_zero:
            chain_ok = False

    dagger = []
    dagger_ok = True
    if q_prime_delorme is not None:
        lambda2, sub = basis[3], AbstractSemimodule(sg, basis[:3])
        for a in range(q - q_prime_delorme + 1):
            lam = lambda2 + 4 * a
            if lam in sub:
                raise AssertionError(f"{lam} unexpectedly lies in the sub-semimodule")
            decision = _verdict(eq, lam - n - m, alpha - q + a, 1)
            dagger.append((lam, (alpha - q + a, 1), decision))
            if decision == "zero":
                dagger_ok = False

    consistent = q_prime_coeffs == q_prime_delorme and chain_ok and dagger_ok
    return FourReport(alpha, epsilon, q, q_prime_coeffs, q_prime_delorme,
                      tuple(chain), tuple(dagger), consistent)
