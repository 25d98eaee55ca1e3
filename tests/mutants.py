"""Mutant table: every check must have a test that fails when it is broken.

Each row is (name, file, old text, new text, tests). For each row the
script copies the working tree to a temporary directory, replaces the old
text, which must occur exactly once in the file, by the new, and runs the
named tests there with ``-x``. A mutant is killed when a test fails and
survives when all pass; the script prints one line per mutant with the
time it took, and exits 1 on any survivor. The named tests must pass on the
unmutated copy first, so a kill is the mutant's doing. Run it from
anywhere:

    python tests/mutants.py

The table holds ``verify``'s report: one mutant per check line that makes
the check always pass, and one that reads ``verify = ok`` off any lines.
Then the kernels on numerator maps and their callers: each kernel broken
at its cut, its rescaling or its stop, and the form replay with the shift
arguments swapped.  Then the residue verdicts: the wrong test read for a
target, and a lowering product one factor short.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CLI = "src/cuspidal/cli.py"
POLY = "src/cuspidal/poly.py"
DIFFERENTIALS = "src/cuspidal/differentials.py"
BERNSTEIN = "src/cuspidal/bernstein.py"
TEST_CLI = "tests/test_cli.py::"
TEST_POLY = "tests/test_poly.py::"
TEST_DIFFERENTIALS = "tests/test_differentials.py::"
TEST_BERNSTEIN = "tests/test_bernstein.py::"
FRACTION_ARITHMETIC = [TEST_POLY + "test_integer_arithmetic_is_the_fraction_arithmetic"]
VECTOR_FIELDS = [TEST_DIFFERENTIALS + "test_vector_fields_and_values_are_the_fraction_arithmetic"]
REPLAY = [TEST_DIFFERENTIALS + "test_replay_and_vector_fields_equal_the_reference_route"]

MUTANTS = [
    ("oracle_basis_forms always ok", CLI,
     "_check(basis_read == list(vals.basis))", "_check(True)",
     [TEST_CLI + "test_verify_checks_basis_forms_against_their_values"]),
    ("oracle_delorme_forms always ok", CLI,
     "_check(not mismatches,", "_check(True,",
     [TEST_CLI + "test_monomial_value_oracle_fails_verify"]),
    ("jacobian_cross_check always ok", CLI,
     "_check(via.leading_powers == direct_basis.leading_powers)", "_check(True)",
     [TEST_CLI + "test_a_moved_leading_power_fails_the_jacobian_cross_check"]),
    ("tjurina_semimodule always ok", CLI,
     "_check(sg.conductor - tau == len(elements_outside(vals)))", "_check(True)",
     [TEST_CLI + "test_tjurina_off_the_semimodule_fails_verify"]),
    ("zariski_consistency always ok", CLI,
     "_check(zariski_condition_check(eq, vals).consistent)", "_check(True)",
     [TEST_CLI + "test_wrong_verdicts_in_one_battery_fail_verify[zariski-four]"]),
    ("four_consistency always ok", CLI,
     "_check(four_condition_check(eq, vals).consistent)", "_check(True)",
     [TEST_CLI + "test_wrong_verdicts_in_one_battery_fail_verify[four-zariski]"]),
    ("certified_roots always ok", CLI,
     "_check(not bad,", "_check(True,",
     [TEST_CLI + "test_an_alpha_verdict_at_a_certified_value_fails_verify"]),
    ("verify ok whatever the lines", CLI,
     'line.startswith("FAIL")', "False",
     [TEST_CLI + "test_verify_checks_basis_forms_against_their_values"]),
    ("_add_products without its early break", POLY,
     "            if d2 > room:\n                break\n", "",
     [*VECTOR_FIELDS, TEST_POLY + "test_ring_laws", *FRACTION_ARITHMETIC, *REPLAY]),
    ("_reduce_by_f one step early", DIFFERENTIALS,
     "if d - n * a < nm:", "if d - n * a <= nm:",
     [*VECTOR_FIELDS, *REPLAY]),
    ("_subtract_shifted drops the horizon's terms", POLY,
     "d += degree\n        if d > horizon:", "d += degree\n        if d >= horizon:",
     [*VECTOR_FIELDS, TEST_POLY + "test_ring_laws", *FRACTION_ARITHMETIC, *REPLAY]),
    ("_add_shifted does not rescale p", POLY,
     "out = {k: c * sp for k, c in p.terms.items()} if sp != 1 else dict(p.terms)",
     "out = dict(p.terms)",
     FRACTION_ARITHMETIC),
    ("_replay swaps the shift arguments", DIFFERENTIALS,
     "_add_shifted(eta.dx, mu, w.dx, degree, shift[0], h)",
     "_add_shifted(eta.dx, mu, w.dx, shift[0], degree, h)",
     REPLAY),
    ("_first_nonzero reads the first test for every target", BERNSTEIN,
     "ab = tests[k]", "ab = tests[min(tests)]",
     [TEST_BERNSTEIN + "test_decide_root_matches_the_reference_residue"]),
    ("_lower's product one factor short", BERNSTEIN,
     "prod(range(s - q, r - 1, -q))", "prod(range(s - q, r, -q))",
     [TEST_BERNSTEIN + "test_residue_quadratic_cancellation",
      TEST_BERNSTEIN + "test_decide_root_matches_the_reference_residue"]),
]

_IGNORE = shutil.ignore_patterns(".git", ".hypothesis", ".pytest_cache", ".benchmarks",
                                 "__pycache__", "*.egg-info")


def _run_tests(tree: Path, tests: list) -> int:
    """pytest's exit code for ``tests`` run with -x in ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                           *tests], cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def _copy(tmp: str) -> Path:
    tree = Path(tmp) / "tree"
    shutil.copytree(ROOT, tree, ignore=_IGNORE)
    return tree


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tests = sorted({test for *_, named in MUTANTS for test in named})
        code = _run_tests(_copy(tmp), tests)
        if code != 0:
            raise SystemExit(f"the named tests do not pass on the unmutated tree (pytest exit {code})")
    survivors = 0
    for name, file, old, new, named in MUTANTS:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
            tree = _copy(tmp)
            text = (tree / file).read_text(encoding="utf-8")
            if text.count(old) != 1:
                raise SystemExit(f"{name}: {old!r} occurs {text.count(old)} times in {file}, not once")
            (tree / file).write_text(text.replace(old, new), encoding="utf-8")
            code = _run_tests(tree, named)
        if code not in (0, 1):
            raise SystemExit(f"{name}: pytest exited {code}, so the tests did not run")
        survivors += code == 0
        print(f"{'survived' if code == 0 else 'killed':8} {time.perf_counter() - start:5.1f} s  {name}",
              flush=True)
    print(f"{len(MUTANTS)} mutants, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
