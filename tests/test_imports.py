"""No module imports a name it never uses.

The repository has no lint step; this scans every Python file under src/,
tests/ and scripts/ with the standard library's ast and fails on an imported
name that the module never reads.  Package __init__ files are skipped (their
imports are the package's re-exports), and so are `from __future__` imports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "scripts")


def _python_files():
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name != "__init__.py":
                yield path


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements in source that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds a
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in read]


def test_the_scanner_flags_an_unused_name():
    source = ("from __future__ import annotations\n"
              "import os, sys\nimport a.b as ab\nimport c.d\n"
              "from e import f, g as h\n"
              "print(sys.argv, h, c.d)\n")
    assert unused_imports(source) == ["line 2: os", "line 3: ab", "line 5: f"]


@pytest.mark.parametrize("path", list(_python_files()),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []
