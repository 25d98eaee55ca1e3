"""Tests of the benchmark's own machinery: inputs, tracing, checks, kernel.

Run from the root of a checkout with ``python -m pytest -q bench/tests``.
"""
from __future__ import annotations

import ast
import random
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import layers
import refkernel
import workloads
from tracer import Target, Tracer

BENCH_DIR = Path(__file__).resolve().parent.parent


# -- inputs ------------------------------------------------------------------


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_spec_files(name, tmp_path):
    wl = workloads.WORKLOADS[name]

    def files(seed, sub):
        directory = tmp_path / sub
        directory.mkdir()
        return [Path(r.write(directory)).read_bytes()
                for r in workloads.make_requests(wl, seed, 2)]

    first, again, other = files(7, "a"), files(7, "b"), files(8, "c")
    assert first == again
    assert first != other
    assert len(first) == 2 * wl.round_size


def test_support_is_shared_by_seeds_and_values_are_not():
    wl = workloads.WORKLOADS["verify"]

    def draws(seed):
        return [checks.parse_report(r.text) for r in workloads.make_requests(wl, seed, 3)]

    a, b = draws(1), draws(2)
    assert [sorted(x) for x in a] == [sorted(x) for x in b]
    assert a != b


def test_round_order_interleaves_by_weight():
    wl = workloads.WORKLOADS["jacobian"]
    order = workloads.round_order(wl)
    assert len(order) == wl.round_size
    for i, (_, _, weight) in enumerate(wl.pairs):
        assert order.count(i) == weight


def test_every_run_has_enough_requests_for_p90():
    for wl in workloads.WORKLOADS.values():
        assert wl.rounds(1) * wl.round_size >= workloads.MIN_REQUESTS


# -- tracing -----------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_nested_synthetic_spans():
    clock = FakeClock()
    tr = Tracer(clock)
    outer, inner = tr.name_id("outer"), tr.name_id("inner")
    a = tr.open(outer)          # 0 .. 10
    clock.now = 1.0
    b = tr.open(inner)          # 1 .. 4
    clock.now = 2.0
    c = tr.open(inner)          # 2 .. 3, nested in b
    clock.now = 3.0
    tr.close(c)
    clock.now = 4.0
    tr.close(b)
    clock.now = 6.0
    d = tr.open(inner)          # 6 .. 9
    clock.now = 9.0
    tr.close(d)
    clock.now = 10.0
    tr.close(a)
    assert tr.self_times() == [10.0 - 3.0 - 3.0, 3.0 - 1.0, 1.0, 3.0]
    assert list(tr.parent) == [-1, 0, 1, 0]


def test_wrapped_calls_record_spans_counts_and_self_time():
    clock = FakeClock()
    tr = Tracer(clock)

    wrapped = {}

    def leaf(x):
        clock.now += 2.0
        return x

    def root(x):
        clock.now += 1.0
        return wrapped["leaf"](x) + wrapped["leaf"](x)

    wrapped["leaf"] = tr.wrap("leaf", leaf)
    root_w = tr.wrap("root", root)
    assert root_w(3) == 6
    assert tr.counts["root.calls"] == 1 and tr.counts["leaf.calls"] == 2
    assert tr.self_times() == [1.0, 2.0, 2.0]


def test_install_patches_every_alias_and_remove_restores():
    import cuspidal.bernstein
    import cuspidal.cli
    import cuspidal.poly

    original = cuspidal.bernstein.decide_root
    original_add = cuspidal.poly.TruncatedPoly.__add__
    tr = Tracer()
    tr.install(layers.TARGETS)
    try:
        assert not tr.absent
        assert cuspidal.cli.decide_root is cuspidal.bernstein.decide_root
        assert cuspidal.bernstein.decide_root.__wrapped__ is original
        assert cuspidal.decide_root is cuspidal.bernstein.decide_root
        assert cuspidal.poly.TruncatedPoly.__add__ is not original_add
    finally:
        tr.remove()
    assert cuspidal.bernstein.decide_root is original
    assert cuspidal.cli.decide_root is original
    assert cuspidal.decide_root is original
    assert cuspidal.poly.TruncatedPoly.__add__ is original_add


def test_absent_target_is_reported_not_fatal():
    tr = Tracer()
    tr.install([Target("gone.fn", "cuspidal.standard_basis", "no_such_function"),
                Target("gone.method", "cuspidal.poly", "TruncatedPoly.no_such"),
                Target("gone.module", "cuspidal.no_such_module", "f")])
    tr.remove()
    assert tr.absent == ["gone.fn", "gone.method", "gone.module"]


def test_traced_counts_repeat_exactly():
    from cuspidal import CurveEquation, Semigroup, jacobian_basis_direct

    eq = CurveEquation.nice(Semigroup(5, 7), {1: 1, 4: -2, 6: 3})

    def counts():
        tr = Tracer()
        tr.install(layers.TARGETS)
        try:
            jacobian_basis_direct(eq)
        finally:
            tr.remove()
        return dict(tr.counts)

    first = counts()
    assert first == counts()
    assert first["standard_basis.buchberger.calls"] == 1
    assert first["standard_basis.reduce_step.calls"] > 0


# -- answer checks -----------------------------------------------------------


def _random_staircase(rng):
    """Leading powers (a_0, b_0), ..., (a_k, 0) with a_0 = 0, a increasing
    and b decreasing: a staircase that reaches both axes."""
    k = rng.randint(1, 5)
    a_values = [0] + sorted(rng.sample(range(1, 15), k))
    b_values = sorted(rng.sample(range(1, 15), k), reverse=True) + [0]
    return list(zip(a_values, b_values))


def test_lattice_count_agrees_with_codimension():
    from cuspidal import StandardBasis, TruncatedPoly, WeightedOrder, codimension

    order = WeightedOrder(2, 3)
    rng = random.Random(5)
    for _ in range(200):
        powers = _random_staircase(rng)
        basis = StandardBasis(tuple(TruncatedPoly.monomial(order, 1, e, horizon=200)
                                    for e in powers))
        assert checks.lattice_count(powers) == codimension(basis)


def test_lattice_count_rejects_an_open_staircase():
    with pytest.raises(ValueError):
        checks.lattice_count([(0, 3), (2, 1)])


def test_checks_catch_wrong_answers():
    jac = "leading = 0,3 8,0\ndirect_leading = 0,3 8,0\nmatch = yes\ntjurina = 24\n"
    assert checks.check("jacobian", 0, jac, None, "x") is None
    assert "staircase" in checks.check("jacobian", 0, jac.replace("24", "23"), None, "x")
    assert checks.check("jacobian", 1, jac, None, "x") == "exit status 1"
    roots = ("roots = -7/18\nverdict j=1 = beta_root root=-7/18 witness=1,1 "
             "decision=nonzero\nverdict j=2 = alpha_root root=-25/18\n")
    assert checks.check("bs-roots", 0, roots, None, "x") is None
    bad = roots.replace("roots = -7/18", "roots = -7/18 -25/18")
    assert "without a beta_root" in checks.check("bs-roots", 0, bad, None, "x")
    assert checks.check("verify", 0, "verify = FAIL\n", None, "x") == "FAIL in report"


def test_reference_ignores_diagnostic_lines():
    text = "basis = 4 9\noracle_random_forms = ok 50/50\ntjurina = 21\nverify = ok\n"
    other = text.replace("50/50", "48/48")
    assert checks.result_digest("verify", text) == checks.result_digest("verify", other)
    ref = {"s": checks.result_digest("verify", text)}
    assert checks.check("verify", 0, other, ref, "s") is None
    wrong = text.replace("tjurina = 21", "tjurina = 24")
    assert checks.check("verify", 0, wrong, ref, "s") == "result lines differ from the reference"


# -- reference kernel --------------------------------------------------------


def test_reference_kernel_imports_nothing_from_cuspidal():
    tree = ast.parse((BENCH_DIR / "refkernel.py").read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert not [m for m in imported if m and m.split(".")[0] == "cuspidal"]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import refkernel; "
            "refkernel.measure(); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'cuspidal'))")
    out = subprocess.run([sys.executable, "-c", code, str(BENCH_DIR)],
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_reference_kernel_is_deterministic():
    assert refkernel.ref_kernel() == refkernel.EXPECTED
    assert refkernel.measure(1) > 0
