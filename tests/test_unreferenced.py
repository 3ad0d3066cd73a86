"""Every carfield function and class is named somewhere in src/ or scripts/.

The scan parses every Python file under src/ and scripts/ with the standard
library's ast, as tests/test_imports.py does, and lists the module-level
functions and classes of src/carfield that no file reads: no name, no
attribute and no import refers to them, apart from the definition's own
body.  Tests do not count, so code that only tests call is listed.

The scan sees direct references only.  Code that only dead code calls is
referenced, so it passes: `sparse.tensor_many` is called only by
`noscillator.extend_unitary`, and `sparse.tensor_product` only by
`tensor_many`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "scripts")
PACKAGE = "src/carfield/"

# Unreferenced today; this set may only shrink.  ROADMAP item 2 deletes
# `extend_unitary` (and the tensor products that only it uses).
UNREFERENCED = {"extend_unitary"}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unreferenced(sources: dict[str, str], package: str) -> set[str]:
    """Module-level functions and classes of the files under package that no file reads.

    sources maps a relative path to its text.
    """
    defined, read = set(), set()
    for path, source in sources.items():
        for statement in ast.parse(source).body:
            names = set()
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name)
            if isinstance(statement, _DEFINITIONS):
                names.discard(statement.name)  # a recursive call is no caller
                if path.startswith(package):
                    defined.add(statement.name)
            read |= names
    return defined - read


def test_the_scanner_flags_an_unreferenced_definition():
    sources = {
        "pkg/a.py": ("def used(): pass\n"
                     "def recursive(n): return recursive(n - 1)\n"
                     "class Dead: pass\n"
                     "def by_attribute(): pass\n"
                     "def imported(): pass\n"),
        "pkg/b.py": "from .a import imported\nfrom . import a\nprint(used, a.by_attribute)\n",
        "other/c.py": "def elsewhere(): pass\n",
    }
    assert unreferenced(sources, "pkg/") == {"recursive", "Dead"}


def test_every_definition_is_referenced():
    sources = {path.relative_to(ROOT).as_posix(): path.read_text()
               for top in SCANNED for path in sorted((ROOT / top).rglob("*.py"))}
    assert unreferenced(sources, PACKAGE) == UNREFERENCED
