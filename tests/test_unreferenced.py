"""Every carfield function, class and constant is reached from live code in src/ or scripts/.

The scan parses every Python file under src/ and scripts/ with the standard
library's ast, as tests/test_imports.py does, and lists the module-level
functions, classes and plain assignments of src/carfield that no live code
reads.  Live code is every module-level statement but those definitions
(imports, `__all__`, the code of scripts/), and, in turn, the body or
assigned value of every definition that live code reads: by name, by
attribute or by import.  So code that only dead code reads is dead too.
Names are matched without their module, and tests do not count, so code
that only tests read is listed.
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


def _defined(statement: ast.stmt) -> list[str]:
    """The names a module-level definition or plain assignment binds; [] for other statements."""
    if isinstance(statement, _DEFINITIONS):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    else:
        return []
    names = [target.id for target in targets if isinstance(target, ast.Name)]
    # `__all__` is read by star imports, which the scan does not follow
    return names if len(names) == len(targets) and "__all__" not in names else []


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
    """Module-level definitions and assignments of the files under package that no live code reads.

    sources maps a relative path to its text.
    """
    live = set()      # names read by live code
    reads = {}        # package definition -> the names its body reads
    for path, source in sources.items():
        for statement in ast.parse(source).body:
            names = _names_read(statement)
            defined = _defined(statement) if path.startswith(package) else []
            names.difference_update(defined)  # a recursive call is no caller
            for name in defined:
                reads.setdefault(name, set()).update(names)
            if not defined:
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
        "pkg/b.py": "from .a import root\nprint(root())\n",
    }
    assert unreferenced(sources, "pkg/") == {"dead", "only_dead", "deeper", "Cycle",
                                             "other_cycle"}


def test_the_scanner_flags_an_unread_constant():
    sources = {
        "pkg/a.py": ("SCALE = 2\n"
                     "OFFSET: int = SCALE + 1\n"
                     "UNREAD = 0\n"
                     "ONLY_DEAD = 1\n"
                     "FIRST = SECOND = 3\n"
                     "def dead(): return ONLY_DEAD\n"
                     "__all__ = ['UNREAD']\n"),
        "pkg/b.py": "from .a import OFFSET, FIRST\n",
        "other/c.py": "ELSEWHERE = 4\n",
    }
    assert unreferenced(sources, "pkg/") == {"UNREAD", "ONLY_DEAD", "SECOND", "dead"}


def test_every_definition_is_referenced():
    sources = {path.relative_to(ROOT).as_posix(): path.read_text()
               for top in SCANNED for path in sorted((ROOT / top).rglob("*.py"))}
    assert unreferenced(sources, PACKAGE) == UNREFERENCED
