"""The reference kernel that defines one ``ref``, the benchmark's time unit.

One ``ref`` is the time of one call of :func:`ref_kernel`: exact
``fractions.Fraction`` products of 256-bit numerators and denominators,
accumulated in a dict keyed by exponent pairs -- the instruction mix of
``TruncatedPoly`` multiplication on the large coefficients the program
builds.  The host this benchmark was written on drifts by up to 2x within a
minute, and the program slows down with it, so every timing is divided by a
kernel measurement taken next to it.  Over 255 alternating samples on that
host, log(request time) against log(kernel time) had slope 1.0 to 1.1 for
all three workloads; kernels on small or 64-bit integers had slope 0.55 to
0.75, so they only corrected part of the drift.

The kernel imports nothing from ``cuspidal``: a change to the program must
never change the unit it is measured in.
"""
from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

_rng = random.Random(256)
_LEFT = tuple(((a, b), Fraction(_rng.getrandbits(256) | 1, _rng.getrandbits(256) | 1))
              for a in range(6) for b in range(2))
_RIGHT = tuple(((a, b), Fraction(-(_rng.getrandbits(256) | 1), _rng.getrandbits(256) | 1))
               for a in range(6) for b in range(2))
del _rng


def ref_kernel() -> int:
    """One unit of work; returns a checksum so the work cannot be skipped."""
    out: dict = {}
    for (a1, b1), c1 in _LEFT:
        for (a2, b2), c2 in _RIGHT:
            e = (a1 + a2, b1 + b2)
            s = out.get(e)
            if s is None:
                out[e] = c1 * c2
            else:
                s = s + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
    return sum(c.denominator.bit_length() for c in out.values())


EXPECTED = ref_kernel()

# Median seconds of one ref on the host the benchmark was written on (an
# x86-64 VM with 2 cores, Python 3.11.7); it turns a ref back into seconds.
NOMINAL_S = 0.0031


def measure(repeats: int = 3) -> float:
    """Median seconds of one kernel call over ``repeats`` calls."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        check = ref_kernel()
        times.append(time.perf_counter() - t0)
        if check != EXPECTED:
            raise RuntimeError(f"reference kernel checksum {check} != {EXPECTED}")
    return statistics.median(times)
