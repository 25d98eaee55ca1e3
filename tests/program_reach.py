"""Functions of ``src/cuspidal`` that no command reaches.

Runs every invocation of the command-line identity harness at seed 0
(``tests/cli_identity.py``) and the README's library quick start (its
fenced python block, read through ``tests/readme.py``) under
``sys.setprofile``, and prints each function and method of
``src/cuspidal`` that none of them called, with its lines and its code
lines (``tests/code_lines.py``).  A function that only the
tests call is a hook or an alias that the program keeps for nothing: it
leaves the package, or ``ALLOWED`` names it with the reason it stays.
The script exits 1 on an unreached function that ``ALLOWED`` does not
name, and on an ``ALLOWED`` entry that was reached or no longer exists,
so the list cannot go stale.  It first prints the ``invocations``,
``raised`` and ``sha256`` lines of that identity run, as
``tests/cli_identity.py --seeds 0`` prints them, so that one run serves
both checks.  Run it from anywhere:

    python tests/program_reach.py
"""
from __future__ import annotations

import ast
import contextlib
import io
import sys
from pathlib import Path

import readme
from code_lines import code_line_numbers

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cuspidal"
sys.path.insert(0, str(ROOT / "src"))

_OPERATOR = ("bench/layers.py traces it as a poly.* layer; it leaves with "
             "ROADMAP item 1")
_OPERATOR_HELPER = ("runs only under the poly.* operators that bench/layers.py "
                    "traces; it leaves with them (ROADMAP item 1)")
# module.qualname -> why it stays although no command calls it
ALLOWED = {
    "bernstein.delta_sequences": ("bench/layers.py traces it (bernstein.delta_sequences."
                                  "total); it leaves with ROADMAP item 1"),
    "bernstein.delta_sequences.<locals>.rec": "the recursion of delta_sequences",
    "curve.Parametrization.y": ("bench/layers.py's newton_puiseux observer reads it; "
                                "it leaves with ROADMAP item 1"),
    "poly.TruncatedPoly.monomial": ("bench/tests builds a basis with it; it leaves with "
                                    "ROADMAP item 1"),
    "poly.TruncatedPoly._join": _OPERATOR_HELPER,
    "poly.TruncatedPoly._merge": _OPERATOR_HELPER,
    "poly.TruncatedPoly.__add__": _OPERATOR,
    "poly.TruncatedPoly.__sub__": _OPERATOR,
    "poly.TruncatedPoly.__neg__": _OPERATOR,
    "poly.TruncatedPoly.__mul__": _OPERATOR,
    "poly.TruncatedPoly.__rmul__": _OPERATOR,
    "poly.TruncatedPoly.scale": _OPERATOR,
    "poly.TruncatedPoly.mul_monomial": _OPERATOR,
    "poly.TruncatedPoly.coeffs": ("the polynomial as exponent -> Rat, the one view of it "
                                  "that the README gives library users"),
    "poly.TruncatedPoly.__eq__": "CurveEquation's == compares f by it",
    "poly.TruncatedPoly.__repr__": "renders a polynomial, and so a CurveEquation",
    "poly.TruncatedPoly.__str__": "renders a polynomial, and so a CurveEquation",
}


def functions() -> dict:
    """(file, first line, name) -> (module.qualname, last line, code lines)
    of every function and method of the package.  The first line is where
    the code object starts: a decorated function's first decorator line."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        code = code_line_numbers(text)

        def visit(node, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = prefix + child.name
                    first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                    last = child.end_lineno
                    out[(str(path), first, child.name)] = (
                        name, last, len(code & set(range(first, last + 1))))
                    visit(child, name + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(ast.parse(text), path.stem + ".")
    return out


def called_code() -> tuple[set, tuple]:
    """The code objects that the identity runs at seed 0 and the README's
    library quick start call, and the identity run's (invocations, those
    that raised, sha256 hex digest)."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    quick_start = compile(readme.library(), "README.md", "exec")
    sys.setprofile(profile)
    try:
        import cli_identity
        identity = cli_identity.run((0,))
        with contextlib.redirect_stdout(io.StringIO()):
            exec(quick_start, {"__name__": "readme_quick_start"})
    finally:
        sys.setprofile(None)
    return {(str(Path(c.co_filename).resolve()), c.co_firstlineno, c.co_name)
            for c in called}, identity


def main() -> int:
    every = functions()
    called, (count, raised, digest) = called_code()
    print(f"invocations {count}\nraised {raised}\nsha256 {digest}")
    unreached = {key: every[key] for key in sorted(every) if key not in called}
    print(f"{len(every) - len(unreached)} of {len(every)} functions reached, "
          f"{len(unreached)} not:")
    failed = False
    for (path, first, _), (name, last, count) in unreached.items():
        reason = ALLOWED.get(name)
        failed |= reason is None
        print(f"  {Path(path).name}:{first}-{last}  {name}  {count} code lines  "
              f"{'NOT ALLOWED' if reason is None else 'allowed: ' + reason}")
    names = {name for name, *_ in unreached.values()}
    known = {name for name, *_ in every.values()}
    for name in ALLOWED:
        if name not in names:
            failed = True
            print(f"  ALLOWED names {name}, which {'was reached' if name in known else 'no longer exists'}")
    print("FAIL" if failed else "ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
