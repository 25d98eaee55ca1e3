"""The benchmark's workloads and the spec files they feed the CLI.

Each workload is one CLI subcommand on curves of a fixed set of semigroup
pairs.  Requests are issued in *rounds*: one round holds each pair as many
times as its weight, interleaved by smooth weighted round-robin so that any
stretch of requests has close to the round's mix.  Every request of a run
gets a curve of its own, drawn from the seed.

A run does a fixed number of rounds for its ``--seconds``, so that every
run of a workload measures the same work and its percentiles are ranks in
the same set of requests.  At ``--seconds 12`` on the host the benchmark was
written on, jacobian and bs-roots take about 15 s; verify needs about 30 s
for its 120 requests, since p90 needs 100 and its requests are the longest.
The weights are chosen so that the p50 and p90 requests fall where the
sorted request times climb slowly, inside one pair's block of requests,
rather than on the jump between two blocks (see README.md).
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from cuspidal.curve import Semigroup, cuspidal_sets

MIN_REQUESTS = 100   # so that ten samples lie beyond p90


@dataclass(frozen=True)
class Workload:
    name: str                # also the CLI subcommand
    pairs: tuple             # ((n, m, weight), ...)
    z_prob: float            # probability that a coefficient z_j is nonzero
    rounds_per_10s: float    # rounds a run does per 10 s of --seconds

    @property
    def round_size(self) -> int:
        return sum(w for _, _, w in self.pairs)

    def rounds(self, seconds: float) -> int:
        """Rounds of a run of ``seconds``: at least MIN_REQUESTS requests."""
        least = -(-MIN_REQUESTS // self.round_size)
        return max(least, round(seconds * self.rounds_per_10s / 10))


WORKLOADS = {w.name: w for w in (
    # The series workload: newton_puiseux and the oracle pullback dominate,
    # Buchberger is about a tenth.
    Workload("verify",
             pairs=((4, 5, 2), (5, 6, 1), (3, 7, 2), (4, 7, 6),
                    (4, 9, 2), (5, 7, 6), (5, 8, 1)),
             z_prob=0.5, rounds_per_10s=5.0),
    # The Buchberger workload: reduce_step is nearly all of the time, with no
    # series and no Bernstein work.
    Workload("jacobian",
             pairs=((5, 6, 3), (5, 7, 2), (5, 9, 3), (5, 8, 8),
                    (4, 9, 2), (6, 7, 6), (7, 8, 1)),
             z_prob=1.0, rounds_per_10s=4.2),
    # The Bernstein workload: residues and interval certificates, plus many
    # short reductions against the single divisor f.
    Workload("bs-roots",
             pairs=((4, 9, 2), (4, 11, 2), (5, 7, 2), (6, 7, 2),
                    (7, 10, 6), (9, 13, 5), (11, 13, 1)),
             z_prob=0.3, rounds_per_10s=30.0),
)}


def round_order(workload: Workload) -> list:
    """Pair indices of one round, interleaved by smooth weighted round-robin."""
    weights = [w for _, _, w in workload.pairs]
    total = sum(weights)
    current = [0] * len(weights)
    order = []
    for _ in range(total):
        for i, w in enumerate(weights):
            current[i] += w
        best = max(range(len(weights)), key=lambda i: current[i])
        current[best] -= total
        order.append(best)
    return order


def curve_specs(workload: Workload, seed: int, n: int, m: int):
    """Spec texts of the curves 0, 1, 2, ... of one pair.

    Each z_j is nonzero with probability z_prob, and a nonzero z_j is
    +/-(1..5)/(1..3).  Which z_j vanish depends on the curve's index but not
    on the seed: the cost of a request depends mostly on that support, so
    every seed gets the same mix of cheap and dear curves and runs with
    different seeds measure the same work.  The seed draws the values.
    """
    support = random.Random(f"support:{workload.name}:{n}:{m}")
    values = random.Random(f"{seed}:{workload.name}:{n}:{m}")
    gap_values = cuspidal_sets(Semigroup(n, m)).J
    while True:
        lines = [f"n = {n}", f"m = {m}"]
        for j in gap_values:
            if support.random() < workload.z_prob:
                z = Fraction(values.choice((-1, 1)) * values.randint(1, 5),
                             values.randint(1, 3))
                lines.append(f"z {j} = {z}")
        yield "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Request:
    pair: tuple
    spec_name: str
    text: str

    def write(self, directory: Path) -> str:
        """Write the spec file; return its path."""
        path = directory / self.spec_name
        path.write_text(self.text, encoding="utf-8")
        return str(path)


def make_requests(workload: Workload, seed: int, rounds: int) -> list:
    """The requests of ``rounds`` rounds, in issue order."""
    curves = [curve_specs(workload, seed, n, m) for n, m, _ in workload.pairs]
    seen = [0] * len(workload.pairs)
    requests = []
    for _ in range(rounds):
        for i in round_order(workload):
            n, m, _ = workload.pairs[i]
            requests.append(Request((n, m), f"{n}-{m}-{seen[i]:04d}.spec", next(curves[i])))
            seen[i] += 1
    return requests
