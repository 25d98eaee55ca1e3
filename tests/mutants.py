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
the check always pass, one that reads ``verify = ok`` off any lines, and
two oracle reads that check the wrong forms (only dx and dy of the basis,
or every trail form against one form's value); and ``conjecture-scan``
exiting 0 on a failure.  Then the run-time checks that guard a result
inside the library, each turned off: ``DifferentialBasis``'s encoding of
the values, the branch's residual (and, apart, its rule that a term
shifted past the end reads nothing), the spec parser's refusal of an
unrecognized line and the Jacobian staircase's degree test.  Then the
kernels on numerator maps and their callers: each kernel broken at its
cut, its rescaling or its stop, and the form replay with the shift
arguments swapped.  Then the residue verdicts: the wrong test read
for a target, a lowering product one factor short, residues read as 0
always, never, unless k = 0 or unless (a, b) = (1, 1), and the certified
roots without their largest.  Then the numbers that every verdict rests
on: tau one short, each of the horizons H_Delta, H_J and D one degree low,
the covered values without their cut at the bound, and Delorme's last
uncovered value one too high.  Last, the README check
(``tests/readme.py``): a sample that reads equal whatever it prints, and a
nonzero exit status read as success.
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
JACOBIAN = "src/cuspidal/jacobian.py"
CURVE = "src/cuspidal/curve.py"
SEMIMODULES = "src/cuspidal/semimodules.py"
SPECFILE = "src/cuspidal/specfile.py"
README_CHECK = "tests/readme.py"
TEST_CLI = "tests/test_cli.py::"
TEST_POLY = "tests/test_poly.py::"
TEST_CURVE = "tests/test_curve.py::"
TEST_JACOBIAN = "tests/test_jacobian.py::"
TEST_SEMIMODULES = "tests/test_semimodules.py::"
TEST_DIFFERENTIALS = "tests/test_differentials.py::"
TEST_BERNSTEIN = "tests/test_bernstein.py::"
TEST_ACCEPTANCE = "tests/test_acceptance.py::"
TEST_README = "tests/test_readme.py::"
TEST_SPECFILE = "tests/test_specfile.py::"
CRITERION_06 = TEST_ACCEPTANCE + "test_criterion_06_small_multiplicity_roots"
CRITERION_08 = TEST_ACCEPTANCE + "test_criterion_08_equivalence_batteries"
FRACTION_ARITHMETIC = [TEST_POLY + "test_integer_arithmetic_is_the_fraction_arithmetic"]
VECTOR_FIELDS = [TEST_DIFFERENTIALS + "test_vector_fields_and_values_are_the_fraction_arithmetic"]
REPLAY = [TEST_DIFFERENTIALS + "test_replay_and_vector_fields_equal_the_reference_route"]

MUTANTS = [
    ("oracle_basis_forms always ok", CLI,
     "_check([read[id(w)] for w in diff.forms] == list(vals.basis))", "_check(True)",
     [TEST_CLI + "test_verify_checks_basis_forms_against_their_values"]),
    ("oracle_basis_forms reads only dx and dy", CLI,
     "[read[id(w)] for w in diff.forms]",
     "[read[id(w)] for w in diff.forms[:2]] + list(vals.basis[2:])",
     [TEST_CLI + "test_verify_reads_the_basis_forms_not_the_trail_layout"]),
    ("oracle_delorme_forms always ok", CLI,
     "_check(not mismatches,", "_check(True,",
     [TEST_CLI + "test_monomial_value_oracle_fails_verify"]),
    ("oracle_delorme_forms compares every trail form with one form's read", CLI,
     "!= read[id(w)] for w in trail", "!= read[id(trail[0])] for w in trail",
     [TEST_CLI + "test_verify_passes"]),
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
    ("conjecture-scan exits 0 on a failure", CLI,
     "return data, not failures", "return data, True",
     [TEST_CLI + "test_conjecture_scan_fails_on_an_alpha_verdict"]),
    ("DifferentialBasis without its encoding check", DIFFERENTIALS,
     "if None in leads or tuple(d + shift for d, _ in leads) != self.values.basis:",
     "if False:",
     [TEST_DIFFERENTIALS + "test_differential_basis_rejects_reductions_that_miss_the_values"]),
    ("the branch without its residual check", CURVE,
     "if any(residual):", "if False:",
     [TEST_CURVE + "test_branch_check_does_not_trust_the_recursion"]),
    ("the branch's residual reads a term past its end", CURVE,
     "pows[b][:max(0, span + 1 - eps)]", "pows[b][:span + 1 - eps]",
     [TEST_CURVE + "test_newton_puiseux_horizons_agree_on_common_prefix"]),
    ("the spec parser skips an unrecognized line", SPECFILE,
     'raise SpecError(f"unrecognized line {raw.strip()!r}", line_no)', "continue",
     [TEST_SPECFILE + "test_error_taxonomy"]),
    ("check_jacobian_staircase without its degree test", JACOBIAN,
     "if top > sg.hessian_degree:", "if False:",
     [TEST_JACOBIAN + "test_staircase_check_accepts_at_most_d_and_rejects_past_it"]),
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
    ("residue always 0: _first_nonzero reads no test", BERNSTEIN,
     "hits = reach & eq.support_sums", "hits = 0",
     [CRITERION_06]),
    ("residue never 0: _first_nonzero returns the lowest target's test", BERNSTEIN,
     "hits = reach & eq.support_sums", "return tests[min(tests)] if tests else None",
     [CRITERION_06]),
    ("residue 0 unless k = 0", BERNSTEIN,
     "hits = reach & eq.support_sums", "hits = reach & eq.support_sums & 1",
     [CRITERION_06]),
    ("residue 0 unless (a, b) = (1, 1)", BERNSTEIN,
     "ab = tests[k]\n", "ab = tests[k]\n        if ab != (1, 1):\n            continue\n",
     [CRITERION_06]),
    ("certified_roots_from_semimodule drops its largest root", BERNSTEIN,
     "reversed(lams)", "reversed(lams[1:])",
     [TEST_ACCEPTANCE + "test_criterion_10_worked_pins"]),
    ("tau - 1", JACOBIAN,
     "    return tau\n", "    return tau - 1\n",
     [TEST_ACCEPTANCE + "test_criterion_10_worked_pins"]),
    ("delorme_horizon - 1", CURVE,
     "return max(self.hessian_degree, self.n * self.m)\n",
     "return max(self.hessian_degree, self.n * self.m) - 1\n",
     [CRITERION_08]),
    ("jacobian_horizon - 1", CURVE,
     "return max(self.hessian_degree, self.n * self.m - self.n)\n",
     "return max(self.hessian_degree, self.n * self.m - self.n) - 1\n",
     [TEST_ACCEPTANCE + "test_criterion_09_jacobian_routes_agree"]),
    ("hessian_degree - 1", CURVE,
     "return 2 * self.n * self.m - 2 * self.n - 2 * self.m\n",
     "return 2 * self.n * self.m - 2 * self.n - 2 * self.m - 1\n",
     [CRITERION_08]),
    ("covered without its cut at the bound", SEMIMODULES,
     "return _shifts(sg.mask, lambdas) & (1 << bound) - 1",
     "return _shifts(sg.mask, lambdas)",
     [TEST_SEMIMODULES + "test_bitsets_are_their_set_definitions"]),
    ("_last_uncovered one too high", DIFFERENTIALS,
     "(~taken & (1 << sg.conductor) - 1).bit_length() - 1",
     "(~taken & (1 << sg.conductor) - 1).bit_length()",
     [TEST_DIFFERENTIALS + "test_branch_window_sweep"]),
    ("README samples read equal whatever they print", README_CHECK,
     "out = out[:len(expected)]\n    if out != expected:",
     "out = out[:len(expected)]\n    if False:",
     [TEST_README + "test_sample_check_fails_on_an_edited_sample_line"]),
    ("README check reads a nonzero exit status as success", README_CHECK,
     "if proc.returncode != 0:", "if False:",
     [TEST_README + "test_command_check_fails_on_a_nonzero_exit"]),
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
