"""The package's public surface."""
from __future__ import annotations

import ast
import fractions
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import cuspidal
import readme


def test_public_names_resolve_once(monkeypatch):
    """Each export is its home module's very object, read anew on every
    access; any other name is no attribute, so a submodule's name still
    imports the submodule."""
    names = cuspidal.__all__
    assert len(names) == len(set(names))
    for name in names:
        home = importlib.import_module(f"cuspidal.{cuspidal._HOMES[name]}")
        assert getattr(cuspidal, name) is getattr(home, name)
    with pytest.raises(AttributeError):
        cuspidal.residue
    from cuspidal import bernstein, curve
    assert isinstance(bernstein, types.ModuleType) and bernstein is sys.modules["cuspidal.bernstein"]
    assert isinstance(curve, types.ModuleType) and curve is sys.modules["cuspidal.curve"]
    original, replacement = bernstein.decide_root, object()
    monkeypatch.setattr(bernstein, "decide_root", replacement)
    assert cuspidal.decide_root is replacement
    monkeypatch.undo()
    assert cuspidal.decide_root is original


_LOADED = """\
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "cuspidal")
steps = []
import cuspidal
steps.append(loaded())
from cuspidal.curve import Semigroup, cuspidal_sets
steps.append(loaded())
from cuspidal import delorme
steps.append(loaded())
print(json.dumps(steps))
"""


def test_importing_the_package_loads_no_layer():
    """In a fresh interpreter: ``import cuspidal`` loads only the package,
    the benchmark's set-up imports (``Semigroup`` and ``cuspidal_sets``)
    load ``curve`` and what it imports, and an export's first read loads
    its module."""
    src = str(Path(cuspidal.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _LOADED], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    package, setup, first_read = json.loads(proc.stdout)
    assert package == ["cuspidal"]
    assert setup == ["cuspidal", "cuspidal.curve", "cuspidal.poly", "cuspidal.rationals"]
    assert "cuspidal.differentials" in first_read


def test_rationals_are_fractions():
    assert cuspidal.Rat is fractions.Fraction


def _top_level_reads(tree: ast.AST) -> set:
    """The names that ``tree`` imports from ``cuspidal`` or reads as
    ``cuspidal.<name>``, without the package's modules and dunders."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "cuspidal" and not node.level:
            names.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "cuspidal"):
            names.add(node.attr)
    modules = {p.stem for p in Path(cuspidal.__file__).parent.glob("*.py")}
    return {n for n in names if n not in modules and not n.startswith("__")}


def test_exports_are_the_names_the_readers_import():
    """The top level exports exactly what the README's library quick start
    and the benchmark read from it; every other name is read from its
    module, so no second route to a name is kept that nothing uses."""
    root = Path(__file__).resolve().parents[1]
    trees = [ast.parse(readme.library())]
    trees += [ast.parse(p.read_text(encoding="utf-8")) for p in sorted((root / "bench").rglob("*.py"))]
    assert sorted(cuspidal.__all__) == sorted(set().union(*map(_top_level_reads, trees)))


def _unused_imports(path: Path) -> list:
    """Names a module imports but never reads (``from __future__`` aside)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{path.name}:{line}: {name}"
                  for name, line in imported.items() if name not in read)


def test_modules_read_every_name_they_import():
    """Package modules, the package's __init__.py included, and test
    modules alike."""
    src = Path(cuspidal.__file__).parent
    paths = sorted(src.glob("*.py"))
    paths += sorted(Path(__file__).parent.glob("*.py"))
    unused = [u for path in paths for u in _unused_imports(path)]
    assert unused == []
