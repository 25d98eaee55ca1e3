"""End-to-end command-line behavior: reports, determinism, exit codes."""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cuspidal import bernstein, cli, curve, differentials
from cuspidal.bernstein import RootDecision, decide_root, interval_certificate
from cuspidal.cli import main
from cuspidal.curve import _solve_branch, cuspidal_sets, newton_puiseux
from cuspidal.differentials import delorme, monomial_value, oracle_differential_value
from cuspidal.jacobian import jacobian_basis_direct
from cuspidal.specfile import parse_spec
from cuspidal.standard_basis import HorizonExhausted, StandardBasis, codimension
import cli_identity
from cusp_testkit import count_calls, nice_curves, scan_order

SPEC49 = "n = 4\nm = 9\nz 1 = 1\n"
SPEC45 = "n = 4\nm = 5\nz 2 = 1\n"
SPEC49_ADAPTED = "n = 4\nm = 9\nmu = 2\nterm 1 7 1\n"


@pytest.fixture
def spec49(tmp_path):
    p = tmp_path / "c49.spec"
    p.write_text(SPEC49)
    return str(p)


@pytest.fixture
def spec45(tmp_path):
    p = tmp_path / "c45.spec"
    p.write_text(SPEC45)
    return str(p)


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse exits after printing --help
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_semigroup_report(capsys, spec49):
    code, out, _ = run(capsys, "semigroup", "--spec", spec49)
    assert code == 0
    assert "conductor = 24" in out
    assert "gaps = 1 2 3 5 6 7 10 11 14 15 19 23" in out


def test_cuspidal_sets_report(capsys, spec49):
    code, out, _ = run(capsys, "cuspidal-sets", "--spec", spec49)
    assert code == 0
    assert "J = 1 2 6 10" in out
    assert "M = 1,2 3,1 2,1 1,1" in out


def test_delorme_report(capsys, spec49):
    code, out, _ = run(capsys, "delorme", "--spec", spec49)
    assert code == 0
    assert "basis = 4 9 14 19" in out
    assert "h_leading = 0,3 8,0 7,1 6,2" in out


def test_bs_roots_report(capsys, spec49):
    code, out, _ = run(capsys, "bs-roots", "--spec", spec49)
    assert code == 0
    assert "roots = -23/36 -19/36 -7/18" in out
    assert "independence_assumed = no" in out
    assert "verdict j=10 = beta_root root=-23/36 witness=1,2 decision=nonzero" in out


def test_bs_roots_renders_each_verdict_line_once(capsys, monkeypatch, tmp_path, spec49):
    """Two curves of a pair with the same verdicts get the pair's one
    RootDecision for each j, whose line is rendered when it is made: the
    second report makes no verdict and prints the same lines, each the
    line of ``decide_root``'s verdict."""
    other = tmp_path / "c49b.spec"
    other.write_text("n = 4\nm = 9\nz 1 = -3/2\n")
    _, first, _ = run(capsys, "bs-roots", "--spec", spec49)
    made = []
    post_init = RootDecision.__post_init__

    def counted(dec):
        made.append(dec)
        post_init(dec)

    monkeypatch.setattr(RootDecision, "__post_init__", counted)
    _, second, _ = run(capsys, "bs-roots", "--spec", str(other))
    assert made == []
    verdicts = [line for line in first.splitlines() if line.startswith("verdict j=")]
    assert len(verdicts) == 4
    assert verdicts == [line for line in second.splitlines() if line.startswith("verdict j=")]
    for text in (SPEC49, other.read_text()):
        eq = parse_spec(text)
        assert verdicts == [f"verdict j={j} = {decide_root(eq, j).line}" for j in eq.sg.sets.J]


def test_bs_roots_makes_no_interval_certificate(capsys, monkeypatch, spec49):
    """Every witness residue of demo.spec is one group, decided by its sign."""
    calls = count_calls(monkeypatch, interval_certificate)
    code, out, _ = run(capsys, "bs-roots", "--spec", spec49)
    assert code == 0
    assert out.count("decision=nonzero") == 4
    assert calls == []


def test_bs_roots_does_not_load_mpmath(spec49):
    script = ("import sys\n"
              "import cuspidal.cli\n"
              f"code = cuspidal.cli.main(['bs-roots', '--spec', {spec49!r}])\n"
              "print('mpmath loaded' if 'mpmath' in sys.modules else 'mpmath not loaded')\n"
              "sys.exit(code)\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "independence_assumed = no" in proc.stdout
    assert proc.stdout.endswith("mpmath not loaded\n")


def test_residue_report(capsys, spec49):
    code, out, _ = run(capsys, "residue", "--spec", spec49, "--j", "10",
                       "--ab", "1,2")
    assert code == 0
    assert "expr = (-1)*Gamma(3/4)*Gamma(8/9)" in out
    assert "decision = nonzero" in out
    assert "k = 1" in out


def test_jacobian_report(capsys, spec49):
    code, out, _ = run(capsys, "jacobian", "--spec", spec49)
    assert code == 0
    assert "tjurina = 21" in out
    assert "match = yes" in out


def test_enumerate_report(capsys, spec49):
    code, out, _ = run(capsys, "enumerate", "--spec", spec49)
    assert code == 0
    assert "count = 6" in out


def test_verify_passes(capsys, spec45):
    code, out, _ = run(capsys, "verify", "--spec", spec45)
    assert code == 0
    assert "verify = ok" in out
    assert "oracle_basis_forms = ok" in out
    assert "oracle_delorme_forms = ok 3/3" in out
    assert "tjurina_semimodule = ok" in out
    assert "certified_roots = ok -11/20" in out


def test_monomial_value_oracle_fails_verify(capsys, monkeypatch, tmp_path):
    """On x^7 + y^4 (s = 0) the basis forms dx and dy have their monomial
    values, but the run tunes 4x dy - 7y dx, whose value is infinite: an
    oracle that returns the monomial value fails on that form."""
    p = tmp_path / "c47.spec"
    p.write_text("n = 4\nm = 7\n")
    code, out, _ = run(capsys, "verify", "--spec", str(p))
    assert code == 0
    assert "oracle_delorme_forms = ok 2/2" in out
    monkeypatch.setattr(cli, "oracle_differential_value",
                        lambda w, param: monomial_value(w))
    code, out, _ = run(capsys, "verify", "--spec", str(p))
    assert code == 1
    assert "oracle_basis_forms = ok" in out
    assert "oracle_delorme_forms = FAIL 1/2" in out
    assert out.endswith("verify = FAIL\n")


NOT_FOUR = "four_consistency = skipped (this battery is specific to n = 4)"


@pytest.mark.parametrize("text,lines", [
    ("n = 2\nm = 5\n", ["oracle_delorme_forms = skipped (n = 2: Delorme runs no round)",
                        NOT_FOUR]),
    ("n = 5\nm = 7\nz 4 = 1\n", ["oracle_delorme_forms = ok 3/3", NOT_FOUR]),
    ("n = 4\nm = 9\nmu = -1\n", ["oracle_delorme_forms = ok 2/2",
                                  "zariski_consistency = skipped (adapted form)",
                                  "four_consistency = skipped (adapted form)",
                                  "certified_roots = skipped (adapted form)"]),
], ids=["2-5", "5-7", "4-9-adapted"])
def test_verify_reports_every_check(capsys, tmp_path, text, lines):
    """Each check is on the report as ran or skipped, with the reason, and
    in the same place whatever the curve."""
    p = tmp_path / "c.spec"
    p.write_text(text)
    code, out, _ = run(capsys, "verify", "--spec", str(p))
    assert code == 0
    for line in lines:
        assert f"\n{line}\n" in out
    keys = [line.partition(" = ")[0] for line in out.splitlines()]
    assert keys == ["n", "m", "form", "basis", "oracle_basis_forms", "oracle_delorme_forms",
                    "jacobian_cross_check", "tjurina", "tjurina_semimodule",
                    "zariski_consistency", "four_consistency", "certified_roots", "verify"]


def test_tjurina_off_the_semimodule_fails_verify(capsys, monkeypatch, spec49):
    """mu - tau = #(Lambda \\ Gamma) ties the Buchberger staircase to
    Delorme's values; a tau that breaks it fails verify."""
    monkeypatch.setattr(cli, "tjurina_number", lambda basis: 20)
    code, out, _ = run(capsys, "verify", "--spec", spec49)
    assert code == 1
    assert "jacobian_cross_check = ok" in out
    assert "tjurina_semimodule = FAIL" in out
    assert out.endswith("verify = FAIL\n")


def test_a_moved_leading_power_fails_the_jacobian_cross_check(capsys, monkeypatch, spec49):
    """The direct Jacobian basis with one leading power moved, its last
    generator times x, no longer matches Delorme's route: verify reads
    FAIL on the cross-check and exits 1."""
    code, out, _ = run(capsys, "verify", "--spec", spec49)
    assert (code, "jacobian_cross_check = ok" in out) == (0, True)
    direct = cli.jacobian_basis_direct

    def moved(eq):
        *rest, last = direct(eq).polys
        return StandardBasis((*rest, last.mul_monomial(1, (1, 0))))

    monkeypatch.setattr(cli, "jacobian_basis_direct", moved)
    code, out, _ = run(capsys, "verify", "--spec", spec49)
    assert code == 1
    assert "\njacobian_cross_check = FAIL\n" in out
    assert out.endswith("verify = FAIL\n")


def test_an_alpha_verdict_at_a_certified_value_fails_verify(capsys, monkeypatch, spec49):
    """For each lambda of the certified roots, a ``decide_root`` that reads
    an alpha root there, and only there, makes verify read FAIL at that
    lambda and exit 1."""
    code, out, _ = run(capsys, "verify", "--spec", spec49)
    assert code == 0
    roots = next(line for line in out.splitlines() if line.startswith("certified_roots = ok "))
    lams = [int(-Fraction(r) * 36) for r in roots.split()[3:]]
    assert lams == [14, 19, 23]
    for lam in lams:
        def alpha_at(eq, j, lam=lam):
            verdict = decide_root(eq, j)
            return RootDecision("alpha_root", verdict.root - 1) if j == lam - 13 else verdict

        monkeypatch.setattr(cli, "decide_root", alpha_at)
        code, out, _ = run(capsys, "verify", "--spec", spec49)
        assert code == 1
        assert f"\ncertified_roots = FAIL at {lam}\n" in out
        assert out.endswith("verify = FAIL\n")


@pytest.mark.parametrize("battery,other", [("zariski", "four"), ("four", "zariski")])
def test_wrong_verdicts_in_one_battery_fail_verify(capsys, monkeypatch, spec49, battery, other):
    """With ``_verdict`` turned to the wrong decision while one battery
    runs, and only then, that battery's line reads FAIL, the other's ok,
    and verify reads FAIL and exits 1."""
    verdict = bernstein._verdict
    check = getattr(cli, f"{battery}_condition_check")

    def wrong(eq, values):
        with monkeypatch.context() as patch:
            patch.setattr(bernstein, "_verdict", lambda *args: (
                "zero" if verdict(*args) == "nonzero" else "nonzero"))
            return check(eq, values)

    monkeypatch.setattr(cli, f"{battery}_condition_check", wrong)
    code, out, _ = run(capsys, "verify", "--spec", spec49)
    assert code == 1
    assert f"\n{battery}_consistency = FAIL\n" in out
    assert f"\n{other}_consistency = ok\n" in out
    assert out.endswith("verify = FAIL\n")


def test_conjecture_scan_small(capsys):
    code, out, _ = run(capsys, "conjecture-scan", "--max-m", "7", "--seed", "3")
    assert code == 0
    assert "failures = 0" in out
    assert "curves = 15" in out


def test_conjecture_scan_fails_on_an_alpha_verdict(capsys, monkeypatch):
    """A ``decide_root`` that reads an alpha root at the first value the scan
    decides, and only there, makes conjecture-scan count one failure, name
    its pair, lambda and coefficients, and exit 1."""
    decided = []

    def alpha_first(eq, j):
        verdict = decide_root(eq, j)
        decided.append((eq, j))
        return RootDecision("alpha_root", verdict.root - 1) if len(decided) == 1 else verdict

    monkeypatch.setattr(cli, "decide_root", alpha_first)
    code, out, _ = run(capsys, "conjecture-scan", "--max-m", "7", "--seed", "3")
    eq, j = decided[0]
    zs = ";".join(f"z{l}={z}" for l, z in eq.nice_coeffs.items())
    assert code == 1
    assert "\nfailures = 1\n" in out
    assert out.endswith(f"\nfailure 1 = 5,6 lambda={j + 11} coeffs={zs}\n")
    assert zs.startswith("z")


def test_output_is_deterministic(capsys, spec49):
    _, first, _ = run(capsys, "bs-roots", "--spec", spec49)
    _, second, _ = run(capsys, "bs-roots", "--spec", spec49)
    assert first == second


def test_json_mode_round_trips(capsys, spec49):
    code, out, _ = run(capsys, "delorme", "--spec", spec49, "--json")
    assert code == 0
    data = json.loads(out)
    assert data["basis"] == [4, 9, 14, 19]
    assert data["s"] == 2
    _, again, _ = run(capsys, "delorme", "--spec", spec49, "--json")
    assert out == again


@pytest.mark.parametrize("content,fragment", [
    ("n = 4\nm = 8\nz 1 = 1\n", "invalid_pair"),
    ("n = 4\nm = 5\nz 3 = 1\n", "coefficient_outside_J"),
    ("nonsense\n", "parse_error"),
])
def test_spec_errors_exit_two(capsys, tmp_path, content, fragment):
    p = tmp_path / "bad.spec"
    p.write_text(content)
    code, _, err = run(capsys, "semigroup", "--spec", str(p))
    assert code == 2
    assert fragment in err


def test_missing_file_exits_two(capsys, tmp_path):
    code, _, err = run(capsys, "semigroup", "--spec", str(tmp_path / "nope"))
    assert code == 2
    assert "cannot read" in err


def test_undecodable_file_exits_two(capsys, tmp_path):
    p = tmp_path / "latin1.spec"
    p.write_bytes(b"n = 4\nm = 9\n# caf\xe9 \xff\n")
    code, out, err = run(capsys, "delorme", "--spec", str(p))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: parse_error: cannot read {p}: ")
    assert err.count("\n") == 1


def test_lone_mu_verifies_the_adapted_form(capsys, tmp_path):
    p = tmp_path / "mu.spec"
    p.write_text("n = 4\nm = 9\nmu = 2\n")
    code, out, _ = run(capsys, "verify", "--spec", str(p))
    assert code == 0
    assert "form = adapted" in out
    assert "zariski_consistency = skipped (adapted form)" in out


def _twin_specs(eq):
    """The spec of a nice curve twice: as z lines, and as term lines on P."""
    sg = eq.sg
    head = f"n = {sg.n}\nm = {sg.m}\n"
    z = eq.nice_coeffs
    return (head + "".join(f"z {j} = {c}\n" for j, c in z.items()),
            head + "".join("term {} {} {}\n".format(c, *sg.sets.j_to_p[j])
                           for j, c in z.items()))


def test_term_lines_on_p_give_the_nice_curve(capsys, tmp_path):
    """Nice is a property of the curve, not of the lines that give it: the
    seed-13 nice curves written as term lines on P report byte for byte as
    their z lines do, in bs-roots, verify and a sample of residues."""
    checked = 0
    for i, eq in enumerate(nice_curves(seed=13, densities=(0.3, 1))):
        paths = []
        for kind, text in zip(("z", "term"), _twin_specs(eq)):
            paths.append(tmp_path / f"{i}-{kind}.spec")
            paths[-1].write_text(text)
        sg = eq.sg
        n, m = sg.n, sg.m
        commands = [["bs-roots"], ["verify"]]
        commands += [["residue", "--j", str(j), "--ab", f"{a},{b}"]
                     for j in sg.sets.J[:2] for a, b in scan_order(sg)[:2]
                     if n * a + m * b <= j + n + m]
        for command in commands:
            nice, twin = (run(capsys, command[0], "--spec", str(p), *command[1:])
                          for p in paths)
            assert twin == nice
            assert nice[0] == 0
            checked += 1
    assert checked > 150


@pytest.mark.parametrize("command", ["bs-roots", "verify"])
def test_term_above_2nm_exits_two(capsys, tmp_path, command):
    """y^9, of weight 81 > 2nm = 72, is a term no layer reads: the spec is
    refused on its line, rather than run as the curve without it."""
    p = tmp_path / "y9.spec"
    p.write_text("n = 4\nm = 9\nterm 1 7 1\nterm 1 0 9\n")
    code, out, err = run(capsys, command, "--spec", str(p))
    assert (code, out) == (2, "")
    assert err == ("error: parse_error: line 4: term x^0 y^9 has weighted degree 81 > "
                   "2*n*m = 72, where f is held\n")


def test_negative_k_exits_two(capsys, spec49):
    code, _, err = run(capsys, "residue", "--spec", spec49, "--j", "1",
                       "--ab", "3,1")
    assert code == 2
    assert "negative_k" in err


def test_bad_j_exits_two(capsys, spec49):
    code, _, err = run(capsys, "residue", "--spec", spec49, "--j", "3",
                       "--ab", "1,1")
    assert code == 2
    assert "not a cuspidal gap value" in err


@pytest.mark.parametrize("j,ab", [("1", "-1,2"), ("10", "-2,1")])
def test_negative_ab_exits_two(capsys, spec49, j, ab):
    code, out, err = run(capsys, "residue", "--spec", spec49, "--j", j, f"--ab={ab}")
    assert code == 2
    assert out == ""
    assert err.startswith("error: parse_error: --ab entries must be non-negative")


@pytest.mark.parametrize("base", [SPEC49, SPEC49_ADAPTED], ids=["nice", "adapted"])
def test_unsound_horizon_exits_two(capsys, tmp_path, base):
    """t_horizon is no spec key: the branch window comes from f's horizon.
    The nice and the adapted form alike refuse it on its line."""
    p = tmp_path / "h.spec"
    p.write_text(base + "t_horizon = 40\n")
    code, out, err = run(capsys, "verify", "--spec", str(p))
    assert code == 2
    assert out == ""
    assert err.startswith("error: parse_error: line ")
    assert err.endswith(": unrecognized line 't_horizon = 40'\n")


@pytest.mark.parametrize("command", ["jacobian", "verify"])
def test_direct_jacobian_basis_built_once(capsys, monkeypatch, spec49, command):
    calls = count_calls(monkeypatch, jacobian_basis_direct)
    code, out, _ = run(capsys, command, "--spec", spec49)
    assert code == 0
    assert "tjurina = 21" in out
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["jacobian", "verify"])
def test_tjurina_and_leading_powers_once_per_basis(capsys, monkeypatch, spec49, command):
    """tau is counted once per request (``codimension``), and each
    ``StandardBasis`` builds its leading powers once, on construction; the
    tuple read is that of a fresh build, and the report, tau = 21 included,
    is unchanged."""
    expected = run(capsys, command, "--spec", spec49)
    codims = count_calls(monkeypatch, codimension)
    built = []
    real = StandardBasis.leading_powers.func
    monkeypatch.setattr(StandardBasis.leading_powers, "func",
                        lambda basis: built.append(basis) or real(basis))
    assert run(capsys, command, "--spec", spec49) == expected
    assert len(codims) == 1
    assert len(built) == len({id(basis) for basis in built}) >= 2
    for basis in built:
        assert basis.leading_powers == tuple(p.leading_power for p in basis.polys)
        assert basis.leading_powers is basis.leading_powers
    assert "tjurina = 21\n" in expected[1]


@pytest.mark.parametrize("text", [SPEC49, SPEC45, SPEC49_ADAPTED, "n = 2\nm = 7\n",
                                  "n = 3\nm = 5\n", "n = 4\nm = 7\n",
                                  "n = 5\nm = 7\nz 4 = 1\nz 11 = -2/3\n"],
                         ids=["4-9", "4-5", "4-9-adapted", "2-7", "3-5", "4-7", "5-7"])
def test_verify_reads_the_oracle_once_per_form(monkeypatch, tmp_path, text):
    """verify reads the oracle 2 + len(trail) times, on dx, dy and each form
    of the trail in order: a basis form past dx and dy is the last trail
    form of its round, and its value is read there."""
    made = []
    real = cli.delorme
    monkeypatch.setattr(cli, "delorme", lambda eq: made.append(real(eq)) or made[-1])
    reads = count_calls(monkeypatch, oracle_differential_value)
    spec = tmp_path / "curve.spec"
    spec.write_text(text)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["verify", "--spec", str(spec)]) == 0
    assert "oracle_basis_forms = ok" in out.getvalue()
    (diff,) = made
    forms = (*diff.forms[:2], *diff.trail)
    assert len(reads) == len(forms) == 2 + len(diff.trail)
    assert all(args[0] is w for args, w in zip(reads, forms))
    assert all(any(w is t for t in diff.trail) for w in diff.forms[2:])


@pytest.mark.parametrize("text", [SPEC49, "n = 5\nm = 7\nz 4 = 1\nz 11 = -2/3\n"],
                         ids=["4-9", "5-7"])
def test_verify_solves_one_branch(monkeypatch, text):
    """verify compares every form of Delorme's run against one branch, solved
    once, at the forms' horizon H_Delta, so through
    t_horizon = H_Delta - nm + n + m; a read of its y afterwards, the one
    the traced benchmark makes, solves nothing more."""
    eq = parse_spec(text)
    branches = count_calls(monkeypatch, newton_puiseux)
    solves = count_calls(monkeypatch, _solve_branch)
    oracle = count_calls(monkeypatch, oracle_differential_value)
    data, ok = cli.cmd_verify(eq)
    assert ok
    assert data["oracle_delorme_forms"].startswith("ok ")
    assert data["verify"] == "ok"
    assert len(branches) == len(solves) == 1
    (param,) = {id(param): param for _, param in oracle}.values()
    n, m = eq.sg.n, eq.sg.m
    t_horizon = eq.sg.delorme_horizon - n * m + n + m
    assert param.t_horizon == t_horizon
    assert len(param.y) == t_horizon + 1
    assert len(solves) == 1


def test_verify_on_a_y_power_above_the_branch_horizon(monkeypatch):
    """On n = 3 / m = 4 / term 1 0 4, y^4 (weight 16) lies above
    H_Delta = 12, where verify solves the branch: f is cut there with the
    window, so verify passes, and its report is the one it gives on the
    2nm branch."""
    eq = parse_spec("n = 3\nm = 4\nterm 1 0 4\n")
    data, ok = cli.cmd_verify(eq)
    assert ok
    assert data["oracle_delorme_forms"] == "ok 1/1"
    monkeypatch.setattr(cli, "newton_puiseux", lambda eq, horizon: newton_puiseux(eq))
    assert cli.cmd_verify(eq) == (data, True)


@pytest.mark.parametrize("text", [SPEC49, "n = 5\nm = 7\nz 4 = 1\nz 11 = -2/3\n"],
                         ids=["4-9", "5-7"])
def test_verify_batteries_read_the_root_plans(monkeypatch, text):
    """verify's Zariski and n = 4 batteries read every residue as
    ``decide_root`` does, on the root plans: with ``residue``,
    ``residue_is_zero`` and ``GammaExpr`` made to raise, verify passes, and
    the batteries run their daggers, the n = 4 one on (4, 9) and the
    lambda_1 one on both curves."""
    def refuse(*args, **kwargs):
        raise AssertionError("a battery went around the root plans")

    for name in ("residue", "residue_is_zero", "GammaExpr"):
        monkeypatch.setattr(bernstein, name, refuse)
    for name in ("residue", "residue_is_zero"):
        monkeypatch.setattr(cli, name, refuse)
    eq = parse_spec(text)
    data, ok = cli.cmd_verify(eq)
    assert ok
    assert data["zariski_consistency"] == "ok"
    values = delorme(eq).values
    assert bernstein.zariski_condition_check(eq, values).dagger
    if eq.sg.n == 4:
        assert data["four_consistency"] == "ok"
        assert bernstein.four_condition_check(eq, values).dagger


@pytest.mark.parametrize("command", ["bs-roots", "delorme", "jacobian", "verify"])
@pytest.mark.parametrize("text", [SPEC49, "n = 7\nm = 10\nz 1 = 1\nz 5 = 2/3\nz 8 = -1\n"],
                         ids=["4-9", "7-10"])
def test_cuspidal_sets_built_once_per_request(capsys, monkeypatch, tmp_path, command, text):
    """The spec check, the equation and the residues read one CuspidalSets,
    cached on the one Semigroup of the pair: two requests of a pair new to
    the process build it once between them, and the second builds none."""
    monkeypatch.setattr(curve, "_SEMIGROUPS", {})
    p = tmp_path / "c.spec"
    p.write_text(text)
    calls = count_calls(monkeypatch, cuspidal_sets)
    code, _, _ = run(capsys, command, "--spec", str(p))
    assert code == 0
    assert len(calls) == 1
    code, _, _ = run(capsys, command, "--spec", str(p))
    assert code == 0
    assert len(calls) == 1


# (command, spec) over three pairs: a z-line nice spec, a term-line nice
# spec, an adapted spec, a second curve of a pair already seen, and a spec
# that exits 2.
WARM_COLD_REQUESTS = [
    ("bs-roots", "n = 5\nm = 7\nz 4 = 1\nz 11 = -2/3\n"),
    ("bs-roots", "n = 4\nm = 9\nterm 1 7 1\nterm -1/2 7 2\n"),
    ("jacobian", SPEC49_ADAPTED),
    ("bs-roots", "n = 7\nm = 10\nz 1 = 1\nz 5 = 2/3\nz 8 = -1\n"),
    ("bs-roots", "n = 5\nm = 7\nz 1 = 3\nz 6 = 1\n"),
    ("delorme", "n = 7\nm = 10\nz 3 = 1\n"),
]


def test_warm_tables_give_cold_answers(capsys, tmp_path):
    """Requests that find their pair's tables built by earlier requests, in
    either order, answer as a fresh process does: no state of one curve is
    kept with its pair."""
    paths = []
    for i, (_, text) in enumerate(WARM_COLD_REQUESTS):
        paths.append(tmp_path / f"c{i}.spec")
        paths[-1].write_text(text)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    cold = []
    for (command, _), path in zip(WARM_COLD_REQUESTS, paths):
        proc = subprocess.run([sys.executable, "-m", "cuspidal.cli", command,
                               "--spec", str(path)],
                              env=env, capture_output=True, text=True, timeout=120)
        cold.append((proc.returncode, proc.stdout, proc.stderr))
    assert [code for code, _, _ in cold] == [0, 0, 0, 0, 0, 2]
    order = list(range(len(paths)))
    for i in order + order[::-1]:
        assert run(capsys, WARM_COLD_REQUESTS[i][0], "--spec", str(paths[i])) == cold[i], i


def test_verify_runs_delorme_once(capsys, monkeypatch, spec49):
    calls = count_calls(monkeypatch, delorme)
    code, out, _ = run(capsys, "verify", "--spec", spec49)
    assert code == 0
    assert "zariski_consistency = ok" in out
    assert "four_consistency = ok" in out
    assert len(calls) == 1


def test_verify_checks_basis_forms_against_their_values(capsys, monkeypatch, spec49):
    """Swapped seed forms keep reductions that encode the values, so
    DifferentialBasis accepts them, but they no longer realize those values."""
    real = cli.delorme

    def swapped(eq):
        diff = real(eq)
        f = diff.forms
        # forms is cached on its first read: overwrite the cached tuple
        vars(diff)["forms"] = (f[1], f[0]) + f[2:]
        return diff

    monkeypatch.setattr(cli, "delorme", swapped)
    code, out, _ = run(capsys, "verify", "--spec", spec49)
    assert code == 1
    assert "oracle_basis_forms = FAIL" in out
    assert "verify = FAIL" in out


def test_verify_reads_the_basis_forms_not_the_trail_layout(capsys, monkeypatch, spec49):
    """Round 1's basis form replaced by that round's lift, which is also
    read, as a trail form: ``oracle_basis_forms`` checks the forms that
    ``DifferentialBasis.forms`` hands out, so it fails, while the trail,
    and so ``oracle_delorme_forms``, is unchanged."""
    real = cli.delorme

    def lifted(eq):
        diff = real(eq)
        f = diff.forms
        vars(diff)["forms"] = f[:2] + (diff.trail[0],) + f[3:]
        return diff

    monkeypatch.setattr(cli, "delorme", lifted)
    code, out, _ = run(capsys, "verify", "--spec", spec49)
    assert code == 1
    assert "oracle_basis_forms = FAIL" in out
    assert "oracle_delorme_forms = ok 4/4" in out
    assert "verify = FAIL" in out


@pytest.mark.parametrize("command", ["bs-roots", "jacobian"])
def test_forms_are_built_only_when_read(capsys, monkeypatch, spec49, command):
    """bs-roots and jacobian read Delorme's values and h_i but no 1-form, so
    they never replay the run; delorme prints the forms and does, with one
    ``_add_shifted`` per component of each tuning step."""
    made, steps = [], []
    real = cli.delorme
    monkeypatch.setattr(cli, "delorme", lambda eq: made.append(real(eq)) or made[-1])
    real_step = differentials._add_shifted
    monkeypatch.setattr(differentials, "_add_shifted",
                        lambda *args: steps.append(args) or real_step(*args))
    code, _, _ = run(capsys, command, "--spec", spec49)
    assert code == 0
    assert len(made) == 1 and "_replay" not in vars(made[0])
    assert steps == []
    code, out, _ = run(capsys, "delorme", "--spec", spec49)
    assert code == 0
    assert "form_monomial_values = 4 9 13 17" in out
    diff = made[-1]
    assert "_replay" in vars(diff)
    tuned = sum(len(record[1]) for record in diff.rounds + ((diff.ended,) if diff.ended else ()))
    assert tuned > 0 and len(steps) == 2 * tuned


# The options each subcommand declares besides --json, and a value for each
# option; --precision and --horizon-mult are declared by none, so every
# subcommand refuses them.
DECLARED = {
    "semigroup": {"--spec"},
    "cuspidal-sets": {"--spec"},
    "delorme": {"--spec"},
    "bs-roots": {"--spec"},
    "residue": {"--spec", "--j", "--ab"},
    "jacobian": {"--spec"},
    "enumerate": {"--spec", "--max-m"},
    "verify": {"--spec"},
    "conjecture-scan": {"--seed", "--max-m"},
}
SETTINGS = {"--spec": "c.spec", "--horizon-mult": "3", "--seed": "5", "--precision": "64",
            "--max-m": "9", "--j": "1", "--ab": "1,1"}


@pytest.mark.parametrize("command", [["bs-roots"], ["verify"],
                                     ["residue", "--j", "10", "--ab", "1,2"],
                                     ["conjecture-scan", "--max-m", "6"]])
@pytest.mark.parametrize("flag", ["--precision=-5", "--seed=-3"])
def test_negative_setting_flags_exit_two(capsys, spec49, command, flag):
    """A negative seed is a parse_error; --seed is an option of
    `conjecture-scan` alone and --precision of no subcommand, so elsewhere
    they are not recognised at all."""
    spec = [] if command[0] == "conjecture-scan" else ["--spec", spec49]
    code, out, err = run(capsys, command[0], *spec, *command[1:], flag)
    assert code == 2
    assert out == ""
    if flag.split("=")[0] not in DECLARED[command[0]]:
        assert err == f"error: parse_error: unrecognized arguments: {flag}\n"
    else:
        assert err == "error: parse_error: argument --seed: must be non-negative, got -3\n"


@pytest.mark.parametrize("command", [c for c in DECLARED if "--spec" in DECLARED[c]])
@pytest.mark.parametrize("key", ["seed", "horizon_mult", "precision"])
def test_removed_spec_keys_are_unrecognized_lines(capsys, tmp_path, command, key):
    """A spec describes the curve alone: a key the format no longer has,
    a run setting or a residue precision, is an unrecognized line on every
    subcommand, refused on one line and not ignored."""
    path = tmp_path / "k.spec"
    path.write_text(f"{SPEC49}{key} = 3\n")
    argv = ["--j", "1", "--ab", "1,1"] if command == "residue" else []
    code, out, err = run(capsys, command, "--spec", str(path), *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: parse_error: line 4: unrecognized line '{key} = 3'\n"


@pytest.mark.parametrize("command,max_m", [
    ("conjecture-scan", "5"), ("conjecture-scan", "-1"),   # the scan starts at (5, 6)
    ("enumerate", "4"), ("enumerate", "-3"),               # spec49 has n = 4
])
def test_max_m_that_selects_no_pair_exits_two(capsys, spec49, command, max_m):
    """A bound below the first pair would report a vacuous scan or a zero
    total; it is refused instead."""
    spec = ["--spec", spec49] if command == "enumerate" else []
    code, out, err = run(capsys, command, *spec, f"--max-m={max_m}")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: parse_error: --max-m {max_m} selects no pair")


@pytest.mark.parametrize("command", DECLARED)
def test_declared_flags_are_parsed(command):
    argv = [command, "--json"]
    for flag in sorted(DECLARED[command]):
        argv += [flag, SETTINGS[flag]]
    args = cli._build_parser().parse_args(argv)
    assert args.json
    for flag in DECLARED[command]:
        assert str(getattr(args, flag[2:].replace("-", "_"))) == SETTINGS[flag]


@pytest.mark.parametrize("argv", [[], ["nope"], ["--json"], ["-h"], ["verify", "stray"],
                                  ["bs-roots", "--spec", "c.spec", "stray"]])
def test_argv_outside_a_subcommand_reads_as_the_top_level_parser(capsys, monkeypatch, argv):
    """No argv, an unknown word, a top-level flag or a stray word after a
    subcommand: stdout, stderr and the exit code are those of ``main``
    parsing with the top-level parser alone."""
    routed = run(capsys, *argv)
    monkeypatch.setattr(cli, "_parse_args", lambda argv: cli._build_parser().parse_args(argv))
    assert routed == run(capsys, *argv)
    assert routed[0] in (0, 2)


def _spy_parsers(monkeypatch) -> list:
    """The prog of every parser that parses from now on, in order."""
    parsed = []
    parse_known_args = cli._Parser.parse_known_args

    def spy(self, *args, **kwargs):
        parsed.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "parse_known_args", spy)
    return parsed


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from([name for name, (_, _, options) in cli._SUBCOMMANDS.items()
                         if options == (cli._SPEC,)]),
       st.text(max_size=12).filter(lambda path: not path.startswith("-")))
def test_a_spec_argv_gets_argparses_namespace_without_argparse(command, path):
    """[command, "--spec", PATH], for a command whose options are
    (``cli._SPEC``,) and a PATH that is no flag, gets the namespace that
    the top-level parser gives, but for the ``command`` name that only the
    parser records, and no parser is built or run for it."""
    argv = [command, "--spec", path]
    want = vars(cli._build_parser().parse_args(argv))
    assert want.pop("command") == command
    with mock.patch.object(cli._Parser, "parse_known_args", side_effect=AssertionError), \
            mock.patch.object(cli, "_Parser", side_effect=AssertionError):
        got = cli._parse_args(argv)
    assert type(got) is argparse.Namespace and vars(got) == want


@pytest.mark.parametrize("argv", [
    ["bs-roots", "--spec=c.spec"],                          # one word
    ["bs-roots", "--spec", "-x"],                           # a flag for a path
    ["verify", "--spec", "a.spec", "--spec", "b.spec"],     # --spec twice
    ["jacobian", "--spec", "c.spec", "stray"],              # an extra word
    ["delorme", "--json", "--spec", "c.spec"],              # --json first
    ["residue", "--spec", "c.spec"],                        # needs --j and --ab
    ["conjecture-scan", "--spec", "c.spec"],                # reads no spec
    ["enumerate", "--spec", "c.spec", "--max-m", "9"],      # a second option
    ["enumerate", "--spec", "c.spec"],                      # --max-m is an option
])
def test_every_other_argv_reaches_argparse(capsys, monkeypatch, argv):
    """An argv off the one shape that ``_parse_args`` builds directly is
    parsed by the top-level parser first, and stdout, stderr and the exit
    code are those of the top-level parser byte for byte."""
    parsed = _spy_parsers(monkeypatch)
    routed = run(capsys, *argv)
    assert parsed[:1] == ["cuspidal"]
    monkeypatch.setattr(cli, "_parse_args", lambda argv: cli._build_parser().parse_args(argv))
    assert routed == run(capsys, *argv)
    assert routed[0] == 2


@pytest.mark.parametrize("command,flag", [(command, flag) for command in DECLARED
                                          for flag in SETTINGS
                                          if flag not in DECLARED[command]])
def test_undeclared_flag_is_refused(capsys, spec49, command, flag):
    """A flag the subcommand would ignore is refused on one line."""
    argv = {"conjecture-scan": ["--max-m", "6"],
            "residue": ["--spec", spec49, "--j", "1", "--ab", "1,1"]}.get(
                command, ["--spec", spec49])
    code, out, err = run(capsys, command, *argv, flag, SETTINGS[flag])
    assert code == 2
    assert out == ""
    assert err == f"error: parse_error: unrecognized arguments: {flag} {SETTINGS[flag]}\n"


@pytest.mark.parametrize("command,bad", [
    ("delorme", ["--j"]),                    # not --json
    ("bs-roots", ["--hor", "2"]),            # a prefix of no option
    ("verify", ["--hor", "2"]),              # a prefix of no option
    ("verify", ["--se", "3"]),               # not --spec
    ("residue", ["--js"]),                   # not --json
    ("conjecture-scan", ["--max", "6"]),     # not --max-m
])
def test_abbreviated_flag_is_refused(capsys, spec49, command, bad):
    """No prefix of a flag stands for the flag: each is refused by name."""
    argv = {"conjecture-scan": [],
            "residue": ["--spec", spec49, "--j", "10", "--ab", "1,2"]}.get(
                command, ["--spec", spec49])
    code, out, err = run(capsys, command, *argv, *bad)
    assert code == 2
    assert out == ""
    assert err == f"error: parse_error: unrecognized arguments: {' '.join(bad)}\n"


@pytest.mark.parametrize("argv,message", [
    (["residue", "--spec", "c.spec", "--ab", "1,1"], "the following arguments are required: --j"),
    (["enumerate", "--spec", "c.spec", "--max-m", "x"], "argument --max-m: invalid int value: 'x'"),
    (["conjecture-scan", "--max-m", "x"], "argument --max-m: invalid int value: 'x'"),
    # argparse reads -1,1 as a flag, so a negative entry needs --ab=-1,1
    (["residue", "--spec", "c.spec", "--j", "1", "--ab", "-1,1"], "argument --ab: expected one argument"),
    # the parser refuses --bogus before the scan checks the seed's range
    (["conjecture-scan", "--seed", "-1", "--bogus"], "unrecognized arguments: --bogus"),
])
def test_argparse_errors_are_one_line(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: parse_error: {message}\n"


def test_help_exits_zero(capsys):
    code, out, err = run(capsys, "verify", "--help")
    assert code == 0
    assert out.startswith("usage: cuspidal verify")
    assert err == ""


@pytest.mark.parametrize("argv,listed", [
    ([], "semigroup cuspidal-sets delorme bs-roots residue jacobian enumerate verify "
         "conjecture-scan"),
    (["semigroup"], "--spec --json"),
    (["cuspidal-sets"], "--spec --json"),
    (["delorme"], "--spec --json"),
    (["bs-roots"], "--spec --json"),
    (["residue"], "--spec --json --j --ab"),
    (["jacobian"], "--spec --json"),
    (["enumerate"], "--spec --json --max-m"),
    (["verify"], "--spec --json"),
    (["conjecture-scan"], "--json --seed --max-m"),
])
def test_help_lists_each_flag_in_order(capsys, monkeypatch, argv, listed):
    """``cuspidal -h`` lists the subcommands, and ``cuspidal <name> -h``
    the subcommand's flags after -h, --help, in the order of its usage
    line: --spec first, then --json, then the rest."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal
    code, out, err = run(capsys, *argv, "-h")
    assert code == 0 and err == ""
    assert out.startswith(" ".join(["usage: cuspidal", *argv]))
    pattern = r"^  (--[\w-]+)" if argv else r"^    ([\w-]+)  "
    assert " ".join(re.findall(pattern, out, re.M)) == listed


@pytest.mark.parametrize("command", ["jacobian", "verify"])
def test_horizon_exhausted_exits_one(capsys, monkeypatch, spec49, command):
    def exhausted(eq):
        raise HorizonExhausted("the Jacobian staircase is infinite")

    monkeypatch.setattr(cli, "jacobian_basis_direct", exhausted)
    code, out, err = run(capsys, command, "--spec", spec49)
    assert code == 1
    assert out == ""
    assert err == "error: HorizonExhausted: the Jacobian staircase is infinite\n"


# Values a fuzzed spec line may carry: small integers (so that every pair is
# cheap) and rationals, and, one time in three, zero, a zero denominator, a
# non-number, a decimal, an exponent form or a negative integer.
_fuzz_good = st.sampled_from(["1", "2", "3", "4", "5", "6", "-1", "1/2", "-2/3"])
_fuzz_bad = st.sampled_from(["0", "1/0", "x", "2.5", "1e3", "-7"])
_fuzz_value = st.one_of(_fuzz_good, _fuzz_good, _fuzz_bad)
_fuzz_z = st.builds("z {} = {}".format, _fuzz_value, _fuzz_value)
_fuzz_term = st.builds("term {} {} {}".format, _fuzz_value, _fuzz_value, _fuzz_value)
_fuzz_line = st.one_of(
    _fuzz_z, _fuzz_z, _fuzz_term, _fuzz_term,
    st.builds("{} = {}".format, st.sampled_from(["n", "m", "mu"]), _fuzz_value),
    st.sampled_from(["precision = 64", "seed = 3", "horizon_mult = 2", "# note", "",
                     "z 1", "term 1 2", "n 4", "= 3", "n=4=5", "mu = 2 # two"]),
)
_fuzz_text = st.builds(
    lambda head, lines: head + "".join(line + "\n" for line in lines),
    st.sampled_from(["n = 4\nm = 9\n", "n = 3\nm = 5\n", "n = 5\nm = 7\n",
                     "n = 2\nm = 7\n", "n = 4\n", ""]),
    st.lists(_fuzz_line, max_size=4))


def test_random_specs_exit_zero_or_two(tmp_path):
    """Whatever a spec file holds, a spec subcommand exits 0 with a report,
    or exits 2 with one ``error: <kind>: ...`` line on stderr; it never
    raises.  The texts mix keys, z and term lines, removed keys and values
    such as 1/0, x and 1e3."""
    path = tmp_path / "fuzz.spec"

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.sampled_from([c for c in DECLARED if "--spec" in DECLARED[c]]), _fuzz_text)
    def check(command, text):
        path.write_text(text, encoding="utf-8")
        argv = ["--j", "1", "--ab", "1,1"] if command == "residue" else []
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, "--spec", str(path), *argv])
        if code == 0:
            assert out.getvalue() and not err.getvalue()
        else:
            assert code == 2, (command, text, err.getvalue())
            assert out.getvalue() == ""
            assert re.fullmatch(r"error: [A-Za-z_]+: [^\n]+\n", err.getvalue()), err.getvalue()

    check()


def test_output_identity_harness_is_reproducible(monkeypatch):
    """``tests/cli_identity.py`` at a tiny size: two runs in one process
    give one digest, so caches the program keeps do not move its output,
    no invocation raises out of ``main``, and a changed report moves the
    digest."""
    tiny = dict(seeds=(0,), seconds=0, grid_specs=2, max_m=6)
    first = cli_identity.run(**tiny)
    assert first == cli_identity.run(**tiny)
    assert first[0] > 1000 and first[1] == 0
    monkeypatch.setattr(cli, "cmd_semigroup", lambda eq: {"n": eq.sg.n})
    assert cli_identity.run(**tiny) != first
