"""Paired fresh-process comparison of two trees on one benchmark workload.

Runs each tree's own ``bench/run.py`` once per seed, every run in a fresh
process, and alternates which tree runs first from one seed to the next, so
that drift on the host falls on both sides alike:

    PYTHONPATH=src python tests/paired_bench.py --base ../parent --change . \\
        --workload bs-roots --seeds 80-89 --seconds 12 --out BENCH_x.json

For each end-to-end metric of the change tree's ``BENCHMARK.json`` it
prints both medians, the base's interquartile range, whether the change's
median is better than the base's by more than that range, and how many
pairs the change wins (strictly better in the metric's direction).  With
``--out`` it writes the skeleton of a ``BENCH_*.json``: the host (``Rat``
backend, Python version, core count), how the runs were taken, every run's
numbers on both sides and the summary.  It changes nothing in either tree
but what ``bench/run.py`` itself writes there.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from cuspidal.rationals import Rat


def parse_seeds(text: str) -> list:
    """"80-89" or "80,81,85" as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, dash, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi) + 1) if dash else [int(lo)])
    return seeds


def read_run(stdout: str) -> dict:
    """metric -> value of one ``bench/run.py --trace 0`` run, from the JSON
    object on its last line; a run that answered wrongly raises."""
    result = json.loads(stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{result['failed']} of {result['attempted']} requests failed")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(directions: dict, base: list, change: list) -> dict:
    """metric -> summary over the pairs (base[i], change[i]), each a run's
    metric -> value: both medians, the base's quartiles and interquartile
    range, whether the change's median beats the base's by more than that
    range, and the pairs the change wins.  ``directions`` maps each metric
    to "higher" or "lower", the better side."""
    out = {}
    for name, better in directions.items():
        b = [run[name] for run in base]
        c = [run[name] for run in change]
        sign = 1 if better == "higher" else -1
        q1, q3 = _quartiles(b)
        gain = sign * (statistics.median(c) - statistics.median(b))
        out[name] = {
            "better": better,
            "base": {"median": statistics.median(b), "q1": q1, "q3": q3},
            "change": {"median": statistics.median(c)},
            "base_iqr": q3 - q1,
            "beyond_iqr": gain > q3 - q1,
            "change_wins": sum(sign * (y - x) > 0 for x, y in zip(b, c)),
            "pairs": len(b),
        }
    return out


def render(summary: dict) -> list:
    """One line per metric of ``summarize``'s output."""
    lines = []
    for name, s in summary.items():
        base, change = s["base"]["median"], s["change"]["median"]
        ratio = f"{change / base:.3f}" if base else "n/a"
        lines.append(
            f"{name} ({s['better']} is better): base {base:.6g} "
            f"(IQR {s['base']['q1']:.6g}..{s['base']['q3']:.6g}), change {change:.6g}, "
            f"change/base {ratio}, beyond the base IQR: {'yes' if s['beyond_iqr'] else 'no'}, "
            f"change wins {s['change_wins']}/{s['pairs']}")
    return lines


def skeleton(workload: str, seeds: list, seconds: float, base: list, change: list,
             summary: dict) -> dict:
    """The skeleton of a ``BENCH_*.json`` for one workload."""
    return {
        "what": "",
        "host": {"rat_backend": f"{Rat.__module__}.{Rat.__qualname__}", "python": platform.python_version(),
                 "cores": os.cpu_count()},
        "end_to_end": {
            "how": f"python3 bench/run.py --workload {workload} --seed S --seconds {seconds:g} "
                   "--trace 0, one fresh process per run, base and change alternating "
                   "which runs first (tests/paired_bench.py)",
            "workload": workload,
            "seeds": seeds,
            "base": base,
            "change": change,
            "summary": summary,
        },
    }


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: bench/run.py exited {proc.returncode}: {proc.stderr}")
    return read_run(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="the tree compared against")
    parser.add_argument("--change", type=Path, required=True, help="the tree with the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("80-89"))
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--out", type=Path, help="write a BENCH_*.json skeleton here")
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}
    base, change = [], []
    for i, seed in enumerate(args.seeds):
        sides = [("base", args.base, base), ("change", args.change, change)]
        for side, tree, runs in sides if i % 2 == 0 else sides[::-1]:
            runs.append(_run(tree, args.workload, seed, args.seconds))
            print(f"seed {seed} {side}: requests_per_kref = "
                  f"{runs[-1]['requests_per_kref']:.6g}", flush=True)
    summary = summarize(directions, base, change)
    print("\n".join(render(summary)))
    if args.out:
        data = skeleton(args.workload, args.seeds, args.seconds, base, change, summary)
        args.out.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
