"""The package's public surface."""
from __future__ import annotations

import ast
import fractions
from pathlib import Path

import cuspidal
import readme


def test_public_names_resolve_once():
    names = cuspidal.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(cuspidal, n)] == []


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
    """Package modules and test modules alike; the package's __init__.py is
    skipped, since its imports are the package's re-exports."""
    src = Path(cuspidal.__file__).parent
    paths = [p for p in sorted(src.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted(Path(__file__).parent.glob("*.py"))
    unused = [u for path in paths for u in _unused_imports(path)]
    assert unused == []
