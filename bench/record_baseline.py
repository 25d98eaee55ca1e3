#!/usr/bin/env python3
"""Write a results file of exact work counts from traced runs.

Counts repeat exactly from run to run (times do not), so they pin what a
commit computes: a later change that removes a duplicated route shows up as
a smaller count.  Each workload's traced run is made twice and the counts
must agree.

    python3 bench/record_baseline.py <label> [--seed 0] [--seconds 25]

writes ``bench/results/<label>.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

import run

# Units of metrics that are times, or depend on them; the rest are counts.
TIMED_UNITS = {"ref", "s"}
TIMED = {"trace_overhead_frac"}


def traced_counts(name: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{name}: {result['failed']} wrong answers")
    return {"requests": result["attempted"] // 2,
            "counts": {k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] not in TIMED_UNITS and k not in TIMED}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args(argv)
    run.load_program()
    import workloads
    from cuspidal.rationals import Rat

    out = {
        "label": args.label,
        "environment": {
            "rat_backend": f"{Rat.__module__}.{Rat.__qualname__}",
            "python": platform.python_version(),
            "cores": os.cpu_count(),
        },
        "command": f"python3 bench/run.py --workload <name> --seed {args.seed} "
                   f"--seconds {args.seconds:g} --trace 1",
        "workloads": {},
    }
    for name in workloads.WORKLOADS:
        first = traced_counts(name, args.seed, args.seconds)
        if first != traced_counts(name, args.seed, args.seconds):
            raise SystemExit(f"{name}: counts differ between two traced runs")
        out["workloads"][name] = first
    path = run.BENCH_DIR / "results" / f"{args.label}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
