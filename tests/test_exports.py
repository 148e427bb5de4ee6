"""Every name the package exports is used by the library or by a demo."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hessianlab"
# perfbench's tracer wraps these by name; ROADMAP item 10 moves them into
# tests/conftest.py as oracles once the tracer no longer needs them
PERFBENCH_PINNED = {"eigen_field", "cone_margins"}


def _exports() -> set:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _used_names(paths) -> set:
    """Names read, or attributes taken, in the code of ``paths``; definitions do not count."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_is_used():
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    used = _used_names(sources + sorted((ROOT / "demos").glob("*.py")))
    assert sorted(_exports() - used) == sorted(PERFBENCH_PINNED)
