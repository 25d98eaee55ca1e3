#!/usr/bin/env python3
"""Record the reference result digests of the default seed.

Runs every spec of a workload's longest run once, checks each answer with the
benchmark's own checks, and writes ``bench/reference/<workload>.json``.
Record only from a commit whose answers are trusted; the digests then pin
those answers for every later run at the default seed.

    python3 bench/record_reference.py [workload ...]
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run

# The references cover the requests of runs up to this --seconds; later
# requests are checked without them.
RECORD_SECONDS = 30


def record(name: str) -> None:
    import checks
    import workloads
    from cuspidal.cli import main

    wl = workloads.WORKLOADS[name]
    run.WORK_DIR.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix=f"reference-{name}-", dir=run.WORK_DIR))
    digests = {}
    try:
        rounds = wl.rounds(RECORD_SECONDS)
        for request in workloads.make_requests(wl, checks.DEFAULT_SEED, rounds):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main([wl.name, "--spec", request.write(directory)])
            problem = checks.check(name, code, out.getvalue(), None, request.spec_name)
            if problem is not None:
                raise SystemExit(f"{name} {request.spec_name}: {problem}")
            digests[request.spec_name] = checks.result_digest(name, out.getvalue())
    finally:
        shutil.rmtree(directory)
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    path = checks.REFERENCE_DIR / f"{name}.json"
    path.write_text(json.dumps({
        "workload": name, "seed": checks.DEFAULT_SEED,
        "result_keys": checks.RESULT_KEYS[name], "digests": digests,
    }, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{name}: {len(digests)} digests written to {path}")


def main(argv) -> int:
    run.load_program()
    import workloads

    for name in argv or list(workloads.WORKLOADS):
        record(name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
