"""End-to-end command-line behavior: reports, determinism, exit codes."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cuspidal import cli
from cuspidal.bernstein import interval_certificate
from cuspidal.cli import main
from cuspidal.curve import cuspidal_sets, newton_puiseux
from cuspidal.differentials import OneForm, delorme, oracle_differential_value
from cuspidal.jacobian import jacobian_basis_direct
from cuspidal.standard_basis import HorizonExhausted
from cusp_testkit import count_calls

SPEC49 = "n = 4\nm = 9\nz 1 = 1\n"
SPEC45 = "n = 4\nm = 5\nz 2 = 1\n"


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
    assert "oracle_random_forms = ok 50/50" in out
    assert "certified_roots = ok -11/20" in out


def test_conjecture_scan_small(capsys):
    code, out, _ = run(capsys, "conjecture-scan", "--max-m", "7", "--seed", "3")
    assert code == 0
    assert "failures = 0" in out
    assert "curves = 15" in out


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


@pytest.mark.parametrize("extra,argv", [
    ("", ["--horizon-mult", "1"]),
    ("", ["--horizon-mult", "0"]),
    ("t_horizon = 40\n", []),   # not a spec key: the window comes from f's horizon
])
def test_unsound_horizon_exits_two(capsys, tmp_path, extra, argv):
    p = tmp_path / "h.spec"
    p.write_text(SPEC49 + extra)
    code, out, err = run(capsys, "verify", "--spec", str(p), *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: parse_error:")


@pytest.mark.parametrize("command", ["jacobian", "verify"])
def test_direct_jacobian_basis_built_once(capsys, monkeypatch, spec49, command):
    calls = count_calls(monkeypatch, jacobian_basis_direct)
    code, out, _ = run(capsys, command, "--spec", spec49)
    assert code == 0
    assert "tjurina = 21" in out
    assert len(calls) == 1


@pytest.mark.parametrize("text", [SPEC49, "n = 5\nm = 7\nz 4 = 1\nz 11 = -2/3\n"],
                         ids=["4-9", "5-7"])
def test_verify_at_the_smallest_horizon(capsys, monkeypatch, tmp_path, text):
    """At horizon 2nm the branch is built once, at t = nm + n + m, and all 50
    random forms are compared."""
    p = tmp_path / "c.spec"
    p.write_text(text)
    branches = count_calls(monkeypatch, newton_puiseux)
    oracle = count_calls(monkeypatch, oracle_differential_value)
    code, out, _ = run(capsys, "verify", "--spec", str(p), "--horizon-mult", "2")
    assert code == 0
    assert "oracle_random_forms = ok 50/50" in out
    assert out.endswith("verify = ok\n")
    assert len(branches) == 1
    n, m = branches[0][0].sg.n, branches[0][0].sg.m
    assert {param.t_horizon for _, param in oracle} == {n * m + n + m}


def test_default_verify_solves_the_branch_only_to_the_first_window(capsys, monkeypatch,
                                                                    spec49):
    """At the default horizon 4nm no oracle read on the (4,9) spec passes
    nm + n + m, so the branch is never solved through t_horizon = 3nm + n + m."""
    oracle = count_calls(monkeypatch, oracle_differential_value)
    code, out, _ = run(capsys, "verify", "--spec", spec49)
    assert code == 0
    assert out.endswith("verify = ok\n")
    params = {id(param): param for _, param in oracle}.values()
    assert len(params) == 1
    assert {(param.window, param.t_horizon) for param in params} == {(49, 121)}


@pytest.mark.parametrize("command", ["bs-roots", "delorme", "jacobian", "verify"])
@pytest.mark.parametrize("text", [SPEC49, "n = 7\nm = 10\nz 1 = 1\nz 5 = 2/3\nz 8 = -1\n"],
                         ids=["4-9", "7-10"])
def test_cuspidal_sets_built_once_per_request(capsys, monkeypatch, tmp_path, command, text):
    """The spec check, the equation and the residues share one CuspidalSets,
    cached on the semigroup that the spec hands to the equation."""
    p = tmp_path / "c.spec"
    p.write_text(text)
    calls = count_calls(monkeypatch, cuspidal_sets)
    seed = ["--seed", "1"] if command == "verify" else []
    code, _, _ = run(capsys, command, "--spec", str(p), *seed)
    assert code == 0
    assert len(calls) == 1


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


@pytest.mark.parametrize("command", ["bs-roots", "jacobian"])
def test_forms_are_built_only_when_read(capsys, monkeypatch, spec49, command):
    """bs-roots and jacobian read Delorme's values and h_i but no 1-form, so
    they do no form arithmetic; delorme prints the forms and does."""
    calls = []
    for name in ("mul_monomial", "__add__"):
        def counted(self, *args, _real=getattr(OneForm, name), _name=name):
            calls.append(_name)
            return _real(self, *args)
        monkeypatch.setattr(OneForm, name, counted)
    code, _, _ = run(capsys, command, "--spec", spec49)
    assert code == 0
    assert calls == []
    code, out, _ = run(capsys, "delorme", "--spec", spec49)
    assert code == 0
    assert "form_monomial_values = 4 9 13 17" in out
    assert {"mul_monomial", "__add__"} <= set(calls)


# The options each subcommand declares besides --json, and a value for each
# option; --precision is declared by none, so every subcommand refuses it.
DECLARED = {
    "semigroup": {"--spec"},
    "cuspidal-sets": {"--spec"},
    "delorme": {"--spec"},
    "bs-roots": {"--spec"},
    "residue": {"--spec", "--j", "--ab"},
    "jacobian": {"--spec"},
    "enumerate": {"--spec", "--max-m"},
    "verify": {"--spec", "--horizon-mult", "--seed"},
    "conjecture-scan": {"--seed", "--max-m"},
}
SETTINGS = {"--spec": "c.spec", "--horizon-mult": "3", "--seed": "5", "--precision": "64",
            "--max-m": "9", "--j": "1", "--ab": "1,1"}


@pytest.mark.parametrize("command", [["bs-roots"], ["verify"],
                                     ["residue", "--j", "10", "--ab", "1,2"]])
@pytest.mark.parametrize("flag", ["--precision=-5", "--seed=-3"])
def test_negative_setting_flags_exit_two(capsys, spec49, command, flag):
    """A negative seed is a parse_error; --seed is an option of `verify`
    alone and --precision of no subcommand, so elsewhere they are not
    recognised at all."""
    code, out, err = run(capsys, command[0], "--spec", spec49, *command[1:], flag)
    assert code == 2
    assert out == ""
    if flag.split("=")[0] not in DECLARED[command[0]]:
        assert err == f"error: parse_error: unrecognized arguments: {flag}\n"
    else:
        assert err.startswith("error: parse_error: ")
        assert "must be non-negative" in err


def test_conjecture_scan_negative_precision_exits_two(capsys):
    """The scan decides every residue by its exact sign: no precision to set."""
    code, out, err = run(capsys, "conjecture-scan", "--max-m", "7", "--precision=-5")
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --precision=-5" in err


@pytest.mark.parametrize("command", [c for c in DECLARED if "--spec" in DECLARED[c]])
def test_precision_spec_key_is_refused(capsys, tmp_path, command):
    """The removed key is named on one line, not ignored."""
    path = tmp_path / "p.spec"
    path.write_text(SPEC49 + "precision = 512\n")
    argv = ["--j", "1", "--ab", "1,1"] if command == "residue" else []
    code, out, err = run(capsys, command, "--spec", str(path), *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: parse_error: line 4: the precision key was removed")
    assert err.count("\n") == 1


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


@pytest.mark.parametrize("argv", [["--spec", "/nonexistent"], ["--horizon-mult", "1"],
                                  ["--horizon-mult", "4"]])
def test_conjecture_scan_rejects_spec_flags(capsys, argv):
    """The scan draws its own curves, so a spec or a horizon would be ignored."""
    code, out, err = run(capsys, "conjecture-scan", "--max-m", "6", *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: parse_error: unrecognized arguments: {' '.join(argv)}\n"


@pytest.mark.parametrize("command", DECLARED)
def test_declared_flags_are_parsed(command):
    argv = [command, "--json"]
    for flag in sorted(DECLARED[command]):
        argv += [flag, SETTINGS[flag]]
    args = cli._build_parser().parse_args(argv)
    assert args.json
    for flag in DECLARED[command]:
        assert str(getattr(args, flag[2:].replace("-", "_"))) == SETTINGS[flag]


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
    ("bs-roots", ["--hor", "2"]),            # declared nowhere but verify
    ("verify", ["--hor", "2"]),              # not --horizon-mult
    ("verify", ["--se", "3"]),               # not --seed
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


@pytest.mark.parametrize("command", ["delorme", "bs-roots", "jacobian"])
def test_output_does_not_depend_on_the_horizon_key(capsys, tmp_path, command):
    """delorme and the Jacobian basis run at horizons of their own, so a
    spec's horizon_mult changes nothing but verify; it is still checked."""
    outs = set()
    for mult in (2, 3, 4, 6):
        p = tmp_path / f"h{mult}.spec"
        p.write_text(f"{SPEC49}horizon_mult = {mult}\n")
        code, out, _ = run(capsys, command, "--spec", str(p))
        assert code == 0
        outs.add(out)
    assert len(outs) == 1
    p = tmp_path / "h1.spec"
    p.write_text(f"{SPEC49}horizon_mult = 1\n")
    code, out, err = run(capsys, command, "--spec", str(p))
    assert (code, out) == (2, "")
    assert err.startswith("error: parse_error:")
    assert "horizon_mult must be at least 2" in err


@pytest.mark.parametrize("argv,message", [
    (["residue", "--spec", "c.spec", "--ab", "1,1"], "the following arguments are required: --j"),
    (["enumerate", "--spec", "c.spec", "--max-m", "x"], "argument --max-m: invalid int value: 'x'"),
    (["conjecture-scan", "--max-m", "x"], "argument --max-m: invalid int value: 'x'"),
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


@pytest.mark.parametrize("command", ["jacobian", "verify"])
def test_horizon_exhausted_exits_one(capsys, monkeypatch, spec49, command):
    def exhausted(eq):
        raise HorizonExhausted("the Jacobian staircase is infinite")

    monkeypatch.setattr(cli, "jacobian_basis_direct", exhausted)
    code, out, err = run(capsys, command, "--spec", spec49)
    assert code == 1
    assert out == ""
    assert err == "error: HorizonExhausted: the Jacobian staircase is infinite\n"
