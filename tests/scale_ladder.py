"""A size ladder: each layer and each command timed on fixed curves of
growing pairs, past the benchmark's nm <= 143.

The curves are one dense nice curve (every z_j nonzero) and one at
z-density 0.3 for each of the pairs (5, 8), (7, 10), (7, 16), (9, 13),
(9, 20), (11, 16), (11, 24) and (13, 20); each z_j is +-(1..5)/(1..3),
drawn from a seed fixed by the pair and the density.  On each curve it
times, in one process:

- the ``verify``, ``bs-roots`` and ``jacobian`` commands (``cli.main`` on
  the curve's spec, output discarded);
- the layers that ``verify`` runs, each on a fresh ``parse_spec`` of the
  spec so that nothing of the curve is cached: ``delorme``, the branch at
  H_Delta (``newton_puiseux``), the replay of the forms, the oracle reads
  of dx, dy and the trail, the trail's ``differential_value``,
  ``jacobian_basis_direct``, and every verdict (``decide_root`` for each
  j in J).

It then times ``conjecture-scan --max-m 30``.  A time is the least of
three passes, in ms.  Caches kept per pair, such as Delorme's round plans
and the root plans, are filled by the commands before the layers run, as
in a benchmark run.  It prints the run as one JSON record:

    PYTHONPATH=src python tests/scale_ladder.py > BENCH_scale_ladder.json

With ``--check`` it only runs the commands, once each, times nothing and
prints one status line per curve.  Either way it exits 1 unless every
``verify`` prints ``verify = ok`` and every command exits 0.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import sys
import tempfile
import time
from pathlib import Path

from cuspidal import Semigroup
from cuspidal.bernstein import decide_root
from cuspidal.cli import main as cli_main
from cuspidal.curve import newton_puiseux
from cuspidal.differentials import delorme, differential_value, oracle_differential_value
from cuspidal.jacobian import jacobian_basis_direct
from cuspidal.rationals import Rat
from cuspidal.specfile import parse_spec

PAIRS = ((5, 8), (7, 10), (7, 16), (9, 13), (9, 20), (11, 16), (11, 24), (13, 20))
DENSITIES = (1, 0.3)
COMMANDS = ("verify", "bs-roots", "jacobian")
SCAN = ("conjecture-scan", "--max-m", "30")
REPEATS = 3


def spec_text(n: int, m: int, density: float) -> str:
    """The spec of the ladder's curve of (n, m) at z-density ``density``."""
    rng = random.Random(f"ladder:{n}:{m}:{density}")
    lines = [f"n = {n}", f"m = {m}"]
    for j in Semigroup(n, m).sets.J:
        if rng.random() < density:
            lines.append(f"z {j} = {Rat(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 3))}")
    return "\n".join(lines) + "\n"


def run_command(argv: list, failures: list) -> float:
    """Seconds of ``cuspidal`` on argv, in process; a nonzero exit, or a
    ``verify`` whose last line is not ``verify = ok``, is appended to
    ``failures``."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    seconds = time.perf_counter() - start
    if code != 0:
        failures.append(f"{' '.join(argv)}: exit {code}")
    elif argv[0] == "verify" and not out.getvalue().endswith("verify = ok\n"):
        failures.append(f"{' '.join(argv)}: verify is not ok")
    return seconds


def layer_times(text: str) -> dict:
    """Seconds of each layer of ``verify`` on a fresh curve of the spec."""
    times = {}
    clock = time.perf_counter
    eq = parse_spec(text)
    sg = eq.sg

    start = clock()
    diff = delorme(eq)
    times["delorme"] = clock() - start

    start = clock()
    param = newton_puiseux(eq, sg.delorme_horizon)
    times["branch"] = clock() - start

    start = clock()
    forms, trail = diff.forms, diff.trail
    times["forms_replay"] = clock() - start

    start = clock()
    for w in (*forms[:2], *trail):
        oracle_differential_value(w, param)
    times["oracle_reads"] = clock() - start

    start = clock()
    for w in trail:
        differential_value(w, eq)
    times["trail_differential_value"] = clock() - start

    start = clock()
    jacobian_basis_direct(eq)
    times["jacobian_basis_direct"] = clock() - start

    start = clock()
    for j in sg.sets.J:
        decide_root(eq, j)
    times["verdicts"] = clock() - start
    return times


def least_ms(runs: list) -> dict:
    """Per key, the least of the runs' seconds, in ms."""
    return {key: round(min(run[key] for run in runs) * 1e3, 2) for key in runs[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="run the commands once each and time nothing")
    args = parser.parse_args(argv)
    repeats = 1 if args.check else REPEATS

    failures: list = []
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for n, m in PAIRS:
            for density in DENSITIES:
                text = spec_text(n, m, density)
                path = Path(tmp) / f"ladder-{n}-{m}-{density}.spec"
                path.write_text(text)
                before = len(failures)
                commands = [{command: run_command([command, "--spec", str(path)], failures)
                             for command in COMMANDS} for _ in range(repeats)]
                row = {"n": n, "m": m, "nm": n * m, "density": density,
                       "nonzero_z": text.count("\nz ")}
                if not args.check:
                    row["commands_ms"] = least_ms(commands)
                    row["layers_ms"] = least_ms([layer_times(text) for _ in range(repeats)])
                if args.check:
                    print(f"({n}, {m}) density {density}: "
                          f"{'ok' if len(failures) == before else 'FAIL'}", flush=True)
                rows.append(row)

    scan_ms = least_ms([{"scan": run_command(list(SCAN), failures)} for _ in range(repeats)])["scan"]
    if args.check:
        for line in failures:
            print(f"FAIL {line}")
        print(f"curves = {len(rows)} and {' '.join(SCAN)}, failures = {len(failures)}")
    else:
        print(json.dumps({
            "what": "tests/scale_ladder.py: least of three passes, in ms, of each command "
                    "and each layer of verify on the ladder's curves, and of "
                    "conjecture-scan --max-m 30",
            "command": "PYTHONPATH=src python tests/scale_ladder.py > BENCH_scale_ladder.json",
            "rat_backend": f"{Rat.__module__}.{Rat.__qualname__}",
            "python": platform.python_version(),
            "cores": os.cpu_count(),
            "curves": rows,
            "conjecture_scan_max_m_30_ms": scan_ms,
            "failures": failures,
        }, indent=2))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
