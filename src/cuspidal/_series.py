"""Dense univariate power-series helpers over exact rationals.

A series is represented by a list (or tuple) ``c`` of coefficients where
``c[k]`` is the coefficient of ``t**k``; index ``len(c) - 1`` is the last
power the series knows about.  All helpers are truncation-aware: they never
invent coefficients past the shorter operand.
"""
from __future__ import annotations

from .rationals import ZERO, rat


def zeros(upto: int) -> list:
    """Mutable all-zero series holding powers 0..upto."""
    return [ZERO] * (upto + 1)


def trimmed(c, upto: int) -> list:
    """Copy of c cut (or zero-padded) to hold powers 0..upto."""
    out = list(c[: upto + 1])
    if len(out) < upto + 1:
        out.extend([ZERO] * (upto + 1 - len(out)))
    return out


def ord_of(c) -> int | None:
    """Smallest power with a nonzero coefficient, or None if all stored ones vanish."""
    for k, v in enumerate(c):
        if v:
            return k
    return None


def add_shifted(acc: list, c, shift: int = 0, scale=None) -> None:
    """In-place: acc += scale * t**shift * c, ignoring powers past len(acc)-1."""
    upto = len(acc) - 1
    if scale is None:
        for k, v in enumerate(c):
            p = k + shift
            if p > upto:
                break
            if v:
                acc[p] += v
    else:
        s = rat(scale)
        if not s:
            return
        for k, v in enumerate(c):
            p = k + shift
            if p > upto:
                break
            if v:
                acc[p] += s * v


def mul(u, v, upto: int) -> list:
    """Product truncated to powers 0..upto."""
    out = zeros(upto)
    for i, a in enumerate(u):
        if i > upto:
            break
        if not a:
            continue
        top = upto - i
        for j, b in enumerate(v):
            if j > top:
                break
            if b:
                out[i + j] += a * b
    return out


def deriv(u) -> list:
    """d/dt; the result knows one power fewer than the input."""
    return [u[k] * k for k in range(1, len(u))]


def div(u, v, upto: int) -> list:
    """u / v truncated to powers 0..upto; v must have a nonzero low coefficient
    at or below ord(u)."""
    dv = ord_of(v)
    if dv is None:
        raise ZeroDivisionError("series division by zero")
    du = ord_of(u)
    if du is None:
        return zeros(upto)
    if du < dv:
        raise ValueError("quotient would have a pole")
    lead = v[dv]
    out = zeros(upto)
    # Long division on the shifted series u / (v / t^dv) then shift back.
    rem = list(u)
    for k in range(du - dv, upto + 1):
        idx = k + dv
        cur = rem[idx] if idx < len(rem) else ZERO
        if not cur:
            continue
        q = cur / lead
        out[k] = q
        top = len(rem) - 1
        for j in range(dv, len(v)):
            p = k + j
            if p > top:
                break
            if v[j]:
                rem[p] -= q * v[j]
    return out
