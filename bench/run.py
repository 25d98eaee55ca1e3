#!/usr/bin/env python3
"""Benchmark of the ``cuspidal`` command line, in drift-corrected units.

Each workload is a closed loop with one client: in-process requests
``cuspidal.cli.main([<command>, "--spec", <path>])`` with stdout captured,
issued one after another on spec files generated from ``--seed``.  Every
answer is checked.  Times are in ``ref``, the time of one call of the
reference kernel (see refkernel.py), measured between requests at least
every half second; each request's time is divided by the kernel time at the
request (the median of the measurements within 1.5 s of it), and kernel time
is not request time.

Run from the root of a checkout:

    python3 bench/run.py --workload jacobian --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload jacobian --seed 0 --seconds 25 --trace 1
    python3 bench/run.py --seconds 25          # every workload, one process each

``--seconds`` sets the work of a run: a fixed number of rounds of requests
per 10 s, never fewer than 100 requests.  Every run of a workload with the
same ``--seconds`` measures the same requests, whatever the host's speed.  The last
line of output is one JSON object: end-to-end metrics with ``--trace 0``,
per-layer metrics from a traced run with ``--trace 1``.
"""
from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import layers
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"

KERNEL_EVERY_S = 0.5
KERNEL_WINDOW_S = 1.5
HARD_LIMIT_S = 140.0   # requests stop this long after set-up, to end within 180 s
SETUP_PROBES = 5
TRACE_SHARE = 0.4      # traced run: this share of the rounds, twice over

END_TO_END_UNITS = {
    "requests_per_kref": "req/kref", "latency_ref.p50": "ref",
    "latency_ref.p90": "ref", "setup_s": "s", "correct_frac": "fraction",
    "peak_rss_mb": "MB",
}


def load_program():
    """Import the program from this checkout's ``src``, or exit with 2."""
    package = SRC / "cuspidal"
    if not (package / "__init__.py").is_file():
        print(f"error: no program at {package}; run from the root of a checkout",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import cuspidal
    if Path(cuspidal.__file__).resolve().parent != package.resolve():
        print(f"error: imported cuspidal from {cuspidal.__file__}, not {package}",
              file=sys.stderr)
        raise SystemExit(2)


# -- set-up ---------------------------------------------------------------


def setup_probe(workload_name: str, seed: int, seconds: float) -> None:
    """The set-up a run does, in a fresh process: import, make the specs."""
    load_program()
    import workloads

    wl = workloads.WORKLOADS[workload_name]
    workloads.make_requests(wl, seed, wl.rounds(seconds))
    print("ready", flush=True)


def measure_setup(workload_name: str, seed: int, seconds: float, kernel) -> tuple:
    """Seconds and ref from process start to ready, one of each per probe."""
    raw, refs = [], []
    for _ in range(SETUP_PROBES):
        before = kernel()
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
                 "--workload", workload_name, "--seed", str(seed),
                 "--seconds", str(seconds)],
                stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with status {proc.returncode}")
        raw.append(elapsed)
        refs.append(elapsed / ((before + kernel()) / 2))
    return raw, refs


# -- the request loop -----------------------------------------------------


class Client:
    """Issues requests, checks each answer and records its time."""

    def __init__(self, workload, reference, kernel, spec_dir: Path):
        import checks
        from cuspidal.cli import main

        self.workload = workload
        self.spec_dir = spec_dir
        self.reference = reference
        self.kernel = kernel
        self.cli_main = main
        self.check = checks.check
        self.kernel_times: list[float] = []
        self.kernel_values: list[float] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.deadline = time.perf_counter() + HARD_LIMIT_S

    def measure_kernel(self) -> None:
        t0 = time.perf_counter()
        k = self.kernel()
        self.kernel_times.append((t0 + time.perf_counter()) / 2)
        self.kernel_values.append(k)

    def kernel_near(self, t: float) -> float:
        """The kernel time at ``t``: the median of the measurements taken
        within KERNEL_WINDOW_S of it, or the nearest one if there is none.
        A single measurement is itself noisy, and the median of a few
        follows the drift with less of that noise."""
        times = self.kernel_times
        lo = bisect.bisect_left(times, t - KERNEL_WINDOW_S)
        hi = bisect.bisect_right(times, t + KERNEL_WINDOW_S)
        if lo < hi:
            return statistics.median(self.kernel_values[lo:hi])
        i = min(bisect.bisect_left(times, t), len(times) - 1)
        j = i if i == 0 or times[i] - t < t - times[i - 1] else i - 1
        return self.kernel_values[j]

    def issue(self, request, tracer=None, request_id: int = -1) -> tuple[float, float]:
        """One request; returns (midpoint, seconds) and records a wrong answer."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        argv = [self.workload.name, "--spec", request.write(self.spec_dir)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    code = self.cli_main(argv)
                else:
                    tracer.current_request = request_id
                    span = tracer.open(tracer.name_id(layers.REQUEST_SPAN))
                    try:
                        code = self.cli_main(argv)
                    finally:
                        tracer.close(span)
                problem = None
            except Exception as exc:  # a crash is a failed request, not a stop
                problem = f"raised {exc!r}"
            t1 = time.perf_counter()
        if problem is None:
            problem = self.check(self.workload.name, code, out.getvalue(),
                                 self.reference, request.spec_name)
        if problem is not None:
            self.problems.append(f"{request.spec_name}: {problem}")
        return (t0 + t1) / 2, t1 - t0

    def run(self, requests, tracer=None) -> list:
        """Issue the requests in order; return (midpoint, seconds) of each."""
        done = []
        self.measure_kernel()
        for i, request in enumerate(requests):
            if time.perf_counter() - self.kernel_times[-1] >= KERNEL_EVERY_S:
                self.measure_kernel()
            done.append(self.issue(request, tracer, i))
            if time.perf_counter() >= self.deadline:
                print(f"# stopped after {len(done)} of {len(requests)} requests "
                      f"at the {HARD_LIMIT_S:.0f} s limit")
                break
        self.measure_kernel()
        return done

    def in_ref(self, done) -> list:
        return [dt / self.kernel_near(t) for t, dt in done]


def _p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _per_kref(lat) -> float:
    return 1000 * len(lat) / sum(lat)


def untraced_run(client, requests) -> tuple[dict, list]:
    done = client.run(requests)
    lat = client.in_ref(done)
    raw = [dt for _, dt in done]
    metrics = {
        "requests_per_kref": _per_kref(lat),
        "latency_ref.p50": statistics.median(lat),
        "latency_ref.p90": _p90(lat),
    }
    ranked = sorted(range(len(lat)), key=lat.__getitem__)
    notes = [f"{len(lat)} requests, {sum(x > metrics['latency_ref.p90'] for x in lat)} "
             f"beyond p90"]
    for q in (50, 90):
        r = round(q / 100 * (len(lat) - 1))
        around = " ".join("{},{}".format(*requests[i].pair) for i in ranked[r - 2:r + 3])
        notes.append(f"pairs of the requests ranked around p{q}: {around}")
    notes.append(f"raw seconds (not metrics): p50 = {statistics.median(raw):.4f}, "
                 f"p90 = {_p90(raw):.4f}, requests/s = {len(raw) / sum(raw):.3f}")
    return metrics, notes


def traced_run(client, requests, out_path: Path) -> tuple[dict, list]:
    """The same requests untraced, then traced; per-layer metrics of the
    traced pass."""
    wl = client.workload
    rounds = max(1, round(len(requests) // wl.round_size * TRACE_SHARE))
    prefix = requests[:rounds * wl.round_size]
    base = client.in_ref(client.run(prefix))
    tracer = Tracer()
    tracer.install(layers.TARGETS)
    try:
        done = client.run(prefix, tracer)
    finally:
        tracer.remove()
    traced = client.in_ref(done)
    request_kernel = [client.kernel_near(t) for t, _ in done]

    self_ref: dict[str, float] = {}
    for i, own in enumerate(tracer.self_times()):
        name = tracer.names[tracer.name_of[i]]
        self_ref[name] = self_ref.get(name, 0.0) + own / request_kernel[tracer.request[i]]
    ctx = SimpleNamespace(counts=tracer.counts, maxima=tracer.maxima,
                          self_ref=self_ref, requests=len(done))
    metrics, notes = {}, []
    for name, (unit, needs, value) in layers.PER_LAYER.items():
        missing = [n for n in needs if n in tracer.absent]
        if missing:
            notes.append(f"{name} omitted: {', '.join(missing)} absent from the program")
            continue
        metrics[name] = (value(ctx), unit)
    metrics["ref_kernel_s"] = (statistics.median(client.kernel_values), "s")
    metrics["trace_overhead_frac"] = (1 - _per_kref(traced) / _per_kref(base), "fraction")

    out_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(out_path)
    notes.append(f"{len(tracer.start)} spans of {len(done)} requests written to "
                 f"{out_path.relative_to(ROOT)}")
    return metrics, notes


# -- entry points ---------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import checks
    import refkernel
    import workloads

    wl = workloads.WORKLOADS[name]
    WORK_DIR.mkdir(exist_ok=True)
    if not trace:
        setup_raw, setup_refs = measure_setup(name, seed, seconds, refkernel.measure)
    requests = workloads.make_requests(wl, seed, wl.rounds(seconds))
    spec_dir = Path(tempfile.mkdtemp(prefix=f"{name}-seed{seed}-", dir=WORK_DIR))
    try:
        client = Client(wl, checks.load_reference(name, seed), refkernel.measure, spec_dir)
        if trace:
            tagged, notes = traced_run(
                client, requests, WORK_DIR / "traces" / f"{name}-seed{seed}.tsv.gz")
        else:
            values, notes = untraced_run(client, requests)
            notes.append("set-up raw seconds (not a metric): "
                         + " ".join(f"{s:.4f}" for s in sorted(setup_raw)))
            values["setup_s"] = statistics.median(setup_refs) * refkernel.NOMINAL_S
            values["correct_frac"] = 1 - len(client.problems) / client.attempted
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            tagged = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    finally:
        shutil.rmtree(spec_dir)
    for line in notes + client.problems[:20]:
        print(f"# {name}: {line}")
    return {"correct": not client.problems, "attempted": client.attempted,
            "failed": len(client.problems),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in tagged.items()}}


def run_all(args) -> int:
    """Every workload in a fresh process of its own, one after another."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for metric, entry in result["metrics"].items():
            print(f"{name}  {metric} = {entry['value']:.6g} {entry['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    load_program()
    import workloads

    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from all, {', '.join(workloads.WORKLOADS)}")
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.seconds)
        return 0
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
