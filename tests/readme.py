"""The README's runnable parts, read in one place, and the check that they run.

The README shows the program at work in four parts, and this module is the
only code that reads their format.  The identity harness
(``tests/cli_identity.py``), the reach check (``tests/program_reach.py``)
and the test suite import its readers:

- ``demo_spec()``: the text of the demo.spec block, from its
  ``# demo.spec`` line;
- ``commands()``: the argv of each line that starts with ``cuspidal ``,
  up to its ``#`` comment;
- ``samples()``: each ``$ cuspidal ...`` line of the "Sample output" block
  with the lines below it; a ``...`` line ends a prefix, and only the
  lines above it are compared;
- ``library()``: the fenced python block, the library quick start.

Run as a script, it writes demo.spec to a temporary directory and runs
there, each in a process of its own with ``src`` on the path:

- every command as written, which must exit 0, and again with ``--json``,
  whose stdout must parse as JSON.  A removed spec key or option left in
  the README fails here.  Every decision is an exact sign, so only
  ``residue``, which prints its value as an interval, may import mpmath:
  the plain run of every other command has the import blocked;
- every sample, which must print the lines below it;
- the library quick start, each line of whose output must be the text
  after the last ``#`` of its print call.

It prints one line per command, per sample and for the library quick
start, and exits 1 on any failure.  Run it from anywhere:

    python tests/readme.py
"""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_CLI = "import sys; {}from cuspidal.cli import main; sys.exit(main(sys.argv[1:]))"
_NO_MPMATH = "sys.modules['mpmath'] = None; "


class Failed(Exception):
    """A README part that does not run as the README says."""


def _text() -> str:
    return (ROOT / "README.md").read_text(encoding="utf-8")


def _block(first: str) -> list:
    """The README's lines from the first that starts with ``first`` up to
    the next fence."""
    lines = _text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(first))
    end = next(i for i in range(start + 1, len(lines)) if lines[i].startswith("```"))
    return lines[start:end]


def demo_spec() -> str:
    return "\n".join(_block("# demo.spec")) + "\n"


def commands() -> list:
    return [m.group(1).split() for line in _text().splitlines()
            if (m := re.match(r"cuspidal ([^#]*)", line))]


def samples() -> list:
    """(argv, expected lines, cut) of each sample; a cut sample's lines are
    those above its ``...`` line, a prefix of the output."""
    block = _text().split("Sample output:", 1)[1].split("```")[1]
    runs = []
    for line in block.splitlines():
        if line.startswith("$ cuspidal "):
            runs.append((line[len("$ cuspidal "):].split(), []))
        elif runs and line:
            runs[-1][1].append(line)
    return [(args, lines[:lines.index("...")], True) if "..." in lines else (args, lines, False)
            for args, lines in runs]


def library() -> str:
    return "\n".join(_block("```python")[1:]) + "\n"


def _python(args: list, cwd) -> str:
    """The stdout of ``python *args`` in ``cwd`` with ``src`` on the path;
    raises ``Failed`` on a nonzero exit."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env={**os.environ, "PYTHONPATH": path},
                          stdin=subprocess.DEVNULL, capture_output=True, text=True)
    if proc.returncode != 0:
        raise Failed(f"exit {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


def _cuspidal(args: list, cwd, block_mpmath: bool = False) -> str:
    return _python(["-c", _CLI.format(_NO_MPMATH if block_mpmath else ""), *args], cwd)


def _differs(expected: list, out: list) -> str:
    return "\n".join(["expected:", *expected, "got:", *out])


def _outcome(label: str, check, *args) -> tuple:
    """(label, None) when ``check(*args)`` passes, else (label, why)."""
    try:
        check(*args)
    except Failed as exc:
        return label, str(exc)
    return label, None


def _command(args: list, cwd) -> None:
    _cuspidal(args, cwd, block_mpmath=args[0] != "residue")
    out = _cuspidal([*args, "--json"], cwd)
    try:
        json.loads(out)
    except json.JSONDecodeError as exc:
        raise Failed(f"--json printed no JSON ({exc}):\n{out}") from None


def _sample(args: list, expected: list, cut: bool, cwd) -> None:
    out = _cuspidal(args, cwd).splitlines()
    if cut:
        out = out[:len(expected)]
    if out != expected:
        raise Failed(_differs(expected, out))


def _library(cwd) -> None:
    code = library()
    expected = [m.group(1) for line in code.splitlines()
                if (m := re.match(r"print\(.*# +(.*)", line))]
    if not expected:
        raise Failed("no print call with a # comment")
    out = _python(["-c", code], cwd).splitlines()
    if out != expected:
        raise Failed(_differs(expected, out))


def check_commands(cwd) -> list:
    """(label, None or why it failed) of each README command."""
    return [_outcome(" ".join(["cuspidal", *args]) + ("" if args[0] == "residue" else " (no mpmath)"),
                     _command, args, cwd) for args in commands()]


def check_samples(cwd) -> list:
    """(label, None or why it failed) of each sample."""
    return [_outcome(" ".join(["sample: cuspidal", *args]), _sample, args, expected, cut, cwd)
            for args, expected, cut in samples()]


def check_library(cwd) -> list:
    """[(label, None or why it failed)] of the library quick start."""
    return [_outcome("library quick start", _library, cwd)]


def main() -> int:
    failed = False
    with tempfile.TemporaryDirectory(prefix="readme-") as tmp:
        (Path(tmp) / "demo.spec").write_text(demo_spec(), encoding="utf-8")
        for check in (check_commands, check_samples, check_library):
            for label, why in check(tmp):
                failed |= why is not None
                print(f"{'ok' if why is None else 'FAIL':4}  {label}", flush=True)
                if why is not None:
                    print(textwrap.indent(why, " " * 6), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
