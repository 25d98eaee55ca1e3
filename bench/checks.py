"""Answer checks: every request's report is checked before it counts.

A request fails on a nonzero exit status, on any ``FAIL`` in its report, or
on a check the benchmark computes itself from the report.  For the default
seed the *result lines* are also compared with reference outputs recorded
from the seed code.  Diagnostic lines (``oracle_random_forms = ok 50/50`` and
the like) are not compared, so that a sound change of horizon does not count
as a wrong answer.
"""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
DEFAULT_SEED = 0

# Result lines compared with the reference; None compares every line.
RESULT_KEYS = {
    "verify": ("basis", "tjurina", "certified_roots"),
    "jacobian": ("leading", "direct_leading", "values", "tjurina"),
    "bs-roots": None,
}


def parse_report(text: str) -> dict:
    """``key = value`` lines of a CLI report as a dict of strings."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def _exponents(value: str) -> list:
    return [tuple(int(x) for x in item.split(",")) for item in value.split()]


def lattice_count(leading_powers) -> int:
    """Monomials x^a y^b divisible by no leading power, counted one by one.

    The staircase must reach both axes (a power (0, b) and a power (a, 0));
    otherwise the count is infinite and ValueError is raised.
    """
    on_y = [b for a, b in leading_powers if a == 0]
    on_x = [a for a, b in leading_powers if b == 0]
    if not on_y or not on_x:
        raise ValueError("staircase does not reach both axes")
    return sum(1 for a in range(min(on_x)) for b in range(min(on_y))
               if not any(p <= a and q <= b for p, q in leading_powers))


def _check_verify(report: dict) -> str | None:
    if report.get("verify") != "ok":
        return f"verify = {report.get('verify')}"
    return None


def _check_jacobian(report: dict) -> str | None:
    if report.get("match") != "yes":
        return f"match = {report.get('match')}"
    count = lattice_count(_exponents(report["direct_leading"]))
    if int(report["tjurina"]) != count:
        return f"tjurina = {report['tjurina']} but the staircase has {count} monomials"
    return None


def _check_bs_roots(report: dict) -> str | None:
    beta_roots = set()
    for key, value in report.items():
        if key.startswith("verdict j="):
            kind, root = value.split()[:2]
            if kind == "beta_root":
                beta_roots.add(Fraction(root.removeprefix("root=")))
    missing = [r for r in report["roots"].split() if Fraction(r) not in beta_roots]
    if missing:
        return "roots without a beta_root verdict: " + " ".join(missing)
    return None


_CHECKS = {"verify": _check_verify, "jacobian": _check_jacobian,
           "bs-roots": _check_bs_roots}


def result_digest(workload: str, text: str) -> str:
    """Digest of the result lines that the reference pins."""
    keys = RESULT_KEYS[workload]
    lines = [line for line in text.splitlines()
             if keys is None or line.partition(" = ")[0] in keys]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def load_reference(workload: str, seed: int) -> dict | None:
    """Spec name -> result digest, for the default seed only."""
    if seed != DEFAULT_SEED:
        return None
    path = REFERENCE_DIR / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8"))["digests"]


def check(workload: str, code: int, text: str, reference: dict | None,
          spec_name: str) -> str | None:
    """None when the answer is right, else the reason it is wrong."""
    if code != 0:
        return f"exit status {code}"
    if "FAIL" in text:
        return "FAIL in report"
    try:
        problem = _CHECKS[workload](parse_report(text))
    except (KeyError, ValueError) as exc:
        return f"malformed report: {exc!r}"
    expected = None if reference is None else reference.get(spec_name)
    if problem is None and expected is not None:
        if result_digest(workload, text) != expected:
            problem = "result lines differ from the reference"
    return problem
