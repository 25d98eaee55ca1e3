"""One digest over what the command line prints, to compare two trees.

Runs ``cuspidal.cli.main`` in process on a fixed set of argv lists and
prints the number of invocations, the number of them that raised an
exception out of ``main`` (a traceback, which bad input must never give),
and one sha256 over (argv, exit code, stdout, stderr) of each, in order.
Spec paths in the argv, and the temporary directory wherever the output
names it, are written relative to that directory, so the digest depends
on the program alone.  Two trees
print the same digest when their command lines behave byte for byte the
same on these runs:

    PYTHONPATH=<tree>/src python tests/cli_identity.py --seeds 0 3

The runs are:

- every request of the benchmark's workloads (``bench/workloads.py``,
  loaded from its file and only read) for each seed at the benchmark's
  12 seconds, as its own subcommand, plain and with ``--json``;
- on 40 of those specs, drawn in turn from the three workloads:
  ``residue`` for every j in [-1, 39] at seven test exponents,
  and ``semigroup``, ``cuspidal-sets``, ``delorme`` and ``enumerate``,
  plain and with ``--json``;
- every ``cuspidal ...`` command of the README on its demo.spec, plain and
  with ``--json``, both read through ``tests/readme.py``;
- ``conjecture-scan --max-m 14``;
- fixed argv and spec errors.

All runs share one process, so a cache that the program keeps carries
over from one invocation to the next, as in a benchmark run.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

import readme
from cuspidal.cli import main as cli_main

ROOT = Path(__file__).resolve().parents[1]
SPEC_COMMANDS = ("semigroup", "cuspidal-sets", "delorme", "enumerate")
TEST_EXPONENTS = ((0, 0), (1, 1), (2, 1), (1, 2), (0, 3), (3, 0), (4, 2))
# name -> text of the specs that the error runs read
ODD_SPECS = {
    "adapted.spec": "n = 4\nm = 9\nmu = 2\nterm 1 7 1\n",
    "coprime.spec": "n = 4\nm = 6\n",
    "garbage.spec": "n = 4\nm = 9\nz 3 = 1\n",
    "empty.spec": "",
}


def _workloads():
    """The benchmark's ``workloads`` module, loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "_bench_workloads", ROOT / "bench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _argv_lists(directory: Path, seeds, seconds: float, grid_specs: int, max_m: int):
    """Every argv of the run, in order; spec files are written on the way."""
    workloads = _workloads()
    per_workload = []
    for name, wl in workloads.WORKLOADS.items():
        for seed in seeds:
            sub = directory / f"{name}-{seed}"
            sub.mkdir()
            requests = workloads.make_requests(wl, seed, wl.rounds(seconds))
            paths = [request.write(sub) for request in requests]
            per_workload.append(paths)
            for path in paths:
                yield [name, "--spec", path]
                yield [name, "--spec", path, "--json"]
    turns = [path for batch in zip(*per_workload) for path in batch]
    for path in turns[:grid_specs]:
        for j in range(-1, 40):
            for a, b in TEST_EXPONENTS:
                yield ["residue", "--spec", path, "--j", str(j), "--ab", f"{a},{b}"]
        for command in SPEC_COMMANDS:
            yield [command, "--spec", path]
            yield [command, "--spec", path, "--json"]
    demo = directory / "demo.spec"
    demo.write_text(readme.demo_spec(), encoding="utf-8")
    for args in readme.commands():
        args = [str(demo) if arg == "demo.spec" else arg for arg in args]
        yield args
        yield [*args, "--json"]
    yield ["conjecture-scan", "--max-m", str(max_m)]
    for name, text in ODD_SPECS.items():
        (directory / name).write_text(text, encoding="utf-8")
    odd = [str(directory / name) for name in ODD_SPECS]
    for path in [*odd, str(directory / "missing.spec")]:
        for command in ("verify", "bs-roots", "jacobian", "delorme"):
            yield [command, "--spec", path]
        yield ["residue", "--spec", path, "--j", "1", "--ab", "1,1"]
    yield from ([], ["nope"], ["--json"], ["bs-roots"], ["verify", "stray"],
                ["residue", "--spec", str(demo), "--j", "1", "--ab", "1"],
                ["residue", "--spec", str(demo), "--j", "1", "--ab", "-1,1"],
                ["residue", "--spec", str(demo), "--j", "x", "--ab", "1,1"],
                ["enumerate", "--spec", str(demo), "--max-m", "4"],
                ["conjecture-scan", "--max-m", "5"],
                ["conjecture-scan", "--seed", "-1"],
                ["delorme", "--spec", str(demo), "--seed", "1"])


def _invoke(argv) -> tuple:
    """(exit code, stdout, stderr) of ``main(argv)``; an exception that
    escapes ``main`` stands in for the exit code as its type and text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is output too
            code = f"raised {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def run(seeds=(0, 3), seconds: float = 12, grid_specs: int = 40,
        max_m: int = 14) -> tuple[int, int, str]:
    """(invocations, those that raised, sha256 hex digest) of one run."""
    digest = hashlib.sha256()
    count = raised = 0
    with tempfile.TemporaryDirectory(prefix="cli-identity-") as tmp:
        directory = Path(tmp)
        prefix = str(directory) + "/"
        for argv in _argv_lists(directory, seeds, seconds, grid_specs, max_m):
            code, out, err = _invoke(argv)
            record = [[arg.replace(prefix, "") for arg in argv], code,
                      out.replace(prefix, ""), err.replace(prefix, "")]
            digest.update(json.dumps(record).encode() + b"\n")
            count += 1
            raised += type(code) is str and code.startswith("raised ")
    return count, raised, digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 3])
    args = parser.parse_args(argv)
    count, raised, digest = run(args.seeds)
    print(f"invocations {count}")
    print(f"raised {raised}")
    print(f"sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
