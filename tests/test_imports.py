"""Every name a module of the package imports is used there (a stdlib
stand-in for a linter's unused-import check), no module imports
`dataclasses`, importing the CLI loads neither `dataclasses`, `inspect`
nor the expression parser, and every module parses as Python 3.10, the
oldest version pyproject.toml allows."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gaugekit"


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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level `_name` functions, classes and assignments that no
    module reads, by name, as an attribute or through an import."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            defined += [
                (module, name, node.lineno)
                for name in names
                if name.startswith("_") and not name.startswith("__")
            ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return [f"{m}: {name} (line {line})" for m, name, line in defined if name not in read]


def test_unread_private_name_check_sees_each_kind():
    a = "def _f(): pass\ndef _g(): pass\nclass _C: pass\n_X = 1\n_Y: int = 2\n_g()\n"
    assert unread_private_names({"a": a}) == [
        "a: _f (line 1)", "a: _C (line 3)", "a: _X (line 4)", "a: _Y (line 5)"
    ]
    b = "from a import _f\nimport a\nprint(a._C, _X)\n"
    assert unread_private_names({"a": a, "b": b}) == ["a: _Y (line 5)"]


def test_package_defines_no_unread_private_name():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert unread_private_names(sources) == []


def imports_of(source: str, module: str) -> list[str]:
    """The import statements, by line, that load `module` or a submodule."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        if any(name == module or name.startswith(module + ".") for name in names):
            found.append(f"line {node.lineno}: {ast.unparse(node)}")
    return found


def test_import_check_sees_each_form():
    source = "import os\nimport dataclasses as dc\nfrom dataclasses import field\nfrom . import dataclasses\n"
    assert imports_of(source, "dataclasses") == [
        "line 2: import dataclasses as dc", "line 3: from dataclasses import field"
    ]


def test_package_does_not_import_dataclasses():
    # the value classes are written out by hand (see value.py): generating
    # their methods at import time costs every CLI call
    found = {
        p.name: imports_of(p.read_text(encoding="utf-8"), "dataclasses")
        for p in sorted(PACKAGE.glob("*.py"))
    }
    assert {k: v for k, v in found.items() if v} == {}


def test_cli_import_loads_no_dataclasses_inspect_or_parser():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import gaugekit.cli\n"
        "heavy = ('dataclasses', 'inspect', 'gaugekit.parser')\n"
        "print(' '.join(m for m in heavy if m in set(sys.modules) - before))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=30, env=env
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [], f"import gaugekit.cli loads {done.stdout.strip()}"


def test_parse_resolves_on_first_use():
    import gaugekit
    import gaugekit.parser
    from gaugekit import ParseError, parse

    assert parse is gaugekit.parser.parse and ParseError is gaugekit.parser.ParseError
    assert {"parse", "ParseError", "decompose"} <= set(dir(gaugekit))
    assert callable(gaugekit.decompose)  # the function, not the submodule
    with pytest.raises(AttributeError, match="not_a_name"):
        gaugekit.not_a_name


def syntax_newer_than(source: str, version: tuple[int, int]) -> str | None:
    """The SyntaxError text if `source` does not parse with the grammar of
    `version`, else None."""
    try:
        ast.parse(source, feature_version=version)
    except SyntaxError as exc:
        return f"line {exc.lineno}: {exc.msg}"
    return None


def test_syntax_check_sees_3_11_syntax():
    assert syntax_newer_than("try:\n    pass\nexcept* ValueError:\n    pass\n", (3, 10))
    assert syntax_newer_than("match x:\n    case 1:\n        pass\n", (3, 10)) is None


def test_every_module_parses_as_python_3_10():
    modules = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])
    assert len(modules) > 20
    found = {
        str(p.relative_to(ROOT)): syntax_newer_than(p.read_text(encoding="utf-8"), (3, 10))
        for p in modules
    }
    assert {k: v for k, v in found.items() if v} == {}
