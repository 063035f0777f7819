"""Every name a module of the package imports is used there (a stdlib
stand-in for a linter's unused-import check)."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gaugekit"


def unused_imports(source: str) -> list[str]:
    """Imported names that the module neither reads nor lists in
    `__all__`; `from __future__` imports are exempt."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_check_sees_one():
    source = "from __future__ import annotations\nimport os\nfrom math import gcd, lcm\n"
    assert unused_imports(source + "print(gcd)\n") == ["os (line 2)", "lcm (line 3)"]
    assert unused_imports(source + "__all__ = ['lcm']\nos.sep, gcd\n") == []


def test_package_modules_import_nothing_unused():
    # __init__.py imports to re-export
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    found = {p.name: unused_imports(p.read_text(encoding="utf-8")) for p in modules}
    assert {k: v for k, v in found.items() if v} == {}
