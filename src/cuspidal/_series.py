"""Dense univariate power-series helpers over the integers.

A series is represented by a list (or tuple) ``c`` of coefficients where
``c[k]`` is the coefficient of ``t**k``; index ``len(c) - 1`` is the last
power the series knows about.  All helpers are truncation-aware: they never
invent coefficients past the shorter operand.  The one division,
``exact_div``, is on coefficients: it raises on a nonzero remainder instead
of leaving the integers.
"""
from __future__ import annotations


def exact_div(a: int, b: int) -> int:
    """a / b for integers with b dividing a; a nonzero remainder raises."""
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError(f"inexact division: remainder {r} modulo {b}")
    return q


def zeros(upto: int) -> list:
    """Mutable all-zero series holding powers 0..upto."""
    return [0] * (upto + 1)


def trimmed(c, upto: int) -> list:
    """Copy of c cut (or zero-padded) to hold powers 0..upto."""
    out = list(c[: upto + 1])
    if len(out) < upto + 1:
        out.extend([0] * (upto + 1 - len(out)))
    return out


def ord_of(c) -> int | None:
    """Smallest power with a nonzero coefficient, or None if all stored ones vanish."""
    for k, v in enumerate(c):
        if v:
            return k
    return None


def add_shifted(acc: list, c, shift: int, scale: int) -> None:
    """In-place: acc += scale * t**shift * c for shift >= 0, ignoring powers
    past acc."""
    upto = len(acc) - 1
    for k in range(min(len(c), upto - shift + 1)):
        v = c[k]
        if v:
            acc[k + shift] += scale * v


def mul(u, v, upto: int) -> list:
    """Product truncated to powers 0..upto; only the nonzero coefficients of
    v are walked."""
    out = zeros(upto)
    nonzero = [(j, b) for j, b in enumerate(v[: upto + 1]) if b]
    for i, a in enumerate(u):
        if i > upto:
            break
        if not a:
            continue
        top = upto - i
        for j, b in nonzero:
            if j > top:
                break
            out[i + j] += a * b
    return out
