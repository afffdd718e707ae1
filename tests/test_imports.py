"""Every name a library module imports is used in that module, and no
function of a library module or a test file imports from a module the
file already imports at top level.

There is no linter in the toolchain, so this stdlib-only scan is the
check.  The package's __init__ only re-exports, so it is skipped.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gmsfem"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def _sources(node) -> list:
    """The modules an import statement reads from, as written."""
    if isinstance(node, ast.ImportFrom):
        return ["." * node.level + (node.module or "")]
    return [a.name for a in node.names]


def _covered(node) -> list:
    """The modules a top-level import makes available: its sources, and
    for `from pkg import mod` also `pkg.mod`."""
    if isinstance(node, ast.Import):
        return _sources(node)
    base = _sources(node)[0]
    sep = "" if base.endswith(".") else "."
    return [base] + [base + sep + a.name for a in node.names]


def late_imports(source: str) -> list:
    """Modules imported inside a function and also at top level."""
    tree = ast.parse(source)
    imports = (ast.Import, ast.ImportFrom)
    top = {m for node in tree.body if isinstance(node, imports)
           for m in _covered(node)}
    late = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            late += [m for node in ast.walk(fn) if isinstance(node, imports)
                     for m in _sources(node) if m in top]
    return sorted(late)


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == ["os"]
    assert unused_imports("from a import b as c\nc()\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scan_finds_a_late_import():
    src = ("import os\nfrom .a import b\n"
           "def f():\n    import os\n    from .a import c\n    from .d import e\n")
    assert late_imports(src) == [".a", "os"]
    # a top-level `from pkg import mod` covers pkg.mod
    src = ("from pkg import mod\nfrom . import b\n"
           "def f():\n    import pkg.mod\n    from pkg.mod import x\n"
           "    from .b import c\n")
    assert late_imports(src) == [".b", "pkg.mod", "pkg.mod"]


@pytest.mark.parametrize("path", MODULES + TESTS, ids=lambda p: p.name)
def test_no_late_imports(path):
    assert late_imports(path.read_text()) == []
