"""Every carfield function and class is reached from live code in src/ or scripts/.

The scan parses every Python file under src/ and scripts/ with the standard
library's ast, as tests/test_imports.py does, and lists the module-level
functions and classes of src/carfield that no live code reads.  Live code
is every module-level statement but those definitions (imports,
assignments, the functions of scripts/), and, in turn, the body of every
definition that live code reads: by name, by attribute or by import.  So
code that only dead code reads is dead too.  Names are matched without
their module, and tests do not count, so code that only tests call is
listed.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "scripts")
PACKAGE = "src/carfield/"

# Unreferenced today; this set may only shrink.  ROADMAP item 2 deletes
# `extend_unitary` and the tensor products that only it uses: `tensor_many`
# is read only by `extend_unitary`, and `tensor_product` only by `tensor_many`.
UNREFERENCED = {"extend_unitary", "tensor_many", "tensor_product"}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names_read(node: ast.AST) -> set[str]:
    names = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif isinstance(child, ast.alias):
            names.add(child.name)
    return names


def unreferenced(sources: dict[str, str], package: str) -> set[str]:
    """Module-level functions and classes of the files under package that no live code reads.

    sources maps a relative path to its text.
    """
    live = set()      # names read by live code
    reads = {}        # package definition -> the names its body reads
    for path, source in sources.items():
        for statement in ast.parse(source).body:
            names = _names_read(statement)
            if isinstance(statement, _DEFINITIONS) and path.startswith(package):
                names.discard(statement.name)  # a recursive call is no caller
                reads.setdefault(statement.name, set()).update(names)
            else:
                live |= names
    pending = live & reads.keys()
    reached = set()
    while pending:
        name = pending.pop()
        reached.add(name)
        pending |= (reads[name] & reads.keys()) - reached
    return reads.keys() - reached


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


def test_the_scanner_flags_code_that_only_dead_code_reads():
    sources = {
        "pkg/a.py": ("def root(): return helper()\n"
                     "def helper(): return leaf()\n"
                     "def leaf(): pass\n"
                     "def dead(): return only_dead() + helper()\n"
                     "def only_dead(): return deeper()\n"
                     "def deeper(): pass\n"
                     "class Cycle:\n"
                     "    def f(self): return other_cycle()\n"
                     "def other_cycle(): return Cycle\n"),
        "pkg/b.py": "from .a import root\nVALUE = root()\n",
    }
    assert unreferenced(sources, "pkg/") == {"dead", "only_dead", "deeper", "Cycle",
                                             "other_cycle"}


def test_every_definition_is_referenced():
    sources = {path.relative_to(ROOT).as_posix(): path.read_text()
               for top in SCANNED for path in sorted((ROOT / top).rglob("*.py"))}
    assert unreferenced(sources, PACKAGE) == UNREFERENCED
