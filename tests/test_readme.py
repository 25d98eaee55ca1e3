"""The README's readers (``tests/readme.py``) and its checks on an edited
README text."""
from __future__ import annotations

import pytest

import readme
from cuspidal.cli import _SUBCOMMANDS
from cuspidal.curve import CurveEquation, Semigroup
from cuspidal.rationals import Rat
from cuspidal.specfile import parse_spec


def test_every_subcommand_has_a_readme_command():
    assert set(_SUBCOMMANDS) <= {args[0] for args in readme.commands()}


def test_demo_spec_is_the_four_nine_cusp():
    assert parse_spec(readme.demo_spec()) == CurveEquation.nice(Semigroup(4, 9), {1: Rat(1)})


def test_every_sample_is_a_readme_subcommand():
    samples = readme.samples()
    assert samples
    assert {args[0] for args, *_ in samples} <= {args[0] for args in readme.commands()}


@pytest.fixture
def demo_dir(tmp_path):
    (tmp_path / "demo.spec").write_text(readme.demo_spec(), encoding="utf-8")
    return tmp_path


def _edit(monkeypatch, old: str, new: str) -> None:
    """Make the readers see the README with the one line ``old`` replaced by ``new``."""
    text = readme._text()
    assert text.count(old + "\n") == 1
    monkeypatch.setattr(readme, "_text", lambda: text.replace(old + "\n", new + "\n"))


def test_sample_check_fails_on_an_edited_sample_line(monkeypatch, demo_dir):
    _edit(monkeypatch, "tjurina = 21", "tjurina = 22")
    failed = [(label, why) for label, why in readme.check_samples(demo_dir) if why is not None]
    assert [label for label, _ in failed] == ["sample: cuspidal verify --spec demo.spec"]
    assert "tjurina = 22" in failed[0][1] and "tjurina = 21" in failed[0][1]


def test_library_check_fails_on_an_edited_print_comment(monkeypatch, demo_dir):
    _edit(monkeypatch, "print(basis.values.axes)         # (13, 18, 23)",
          "print(basis.values.axes)         # (13, 18, 24)")
    [(_, why)] = readme.check_library(demo_dir)
    assert why is not None and "(13, 18, 24)" in why and "(13, 18, 23)" in why


def test_command_check_fails_on_a_nonzero_exit(monkeypatch, demo_dir):
    monkeypatch.setattr(readme, "_text",
                        lambda: "cuspidal residue --spec demo.spec --j 1 --ab -1,1\n")
    [(_, why)] = readme.check_commands(demo_dir)
    assert why is not None and why.startswith("exit 2: error: parse_error")
