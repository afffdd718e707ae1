"""Every top-level name of the library has a caller outside the tests.

A name counts as referenced when src/gmsfem (its own definition aside),
demos/, perfbench/*.py or README.md uses it.  The package's __init__ only
re-exports, so it is no reference.  perfbench looks functions up by
name, so its string constants count as references too.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gmsfem"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# the slow reference path that tests compare reduce_dirichlet against
ALLOWED = {("fem.py", "apply_dirichlet")}
WORD = re.compile(r"[A-Za-z_]\w*")


def defined(tree) -> list:
    """Functions, classes and assigned names at a module's top level."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return names


def used(tree, strings: bool) -> set:
    """Names read, attributes and imported names; words of string
    constants too when strings is set."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            out.update(WORD.findall(node.value))
    return out


def unreferenced(modules: dict, scripts: dict, text: str) -> list:
    """(module, name) pairs that nothing references.

    modules and scripts map a file name to its source; scripts' string
    constants count as references, and so does any word of text.
    """
    refs = set(WORD.findall(text))
    for src in modules.values():
        refs |= used(ast.parse(src), strings=False)
    for src in scripts.values():
        refs |= used(ast.parse(src), strings=True)
    return sorted((name, d) for name, src in modules.items()
                  for d in defined(ast.parse(src)) if d not in refs)


def test_scan_finds_an_unreferenced_name():
    modules = {"m.py": "X = 1\ndef f():\n    return X, 'g'\ndef g():\n    pass\n",
               "n.py": "from m import f\n"}
    assert unreferenced(modules, {}, "") == [("m.py", "g")]
    assert unreferenced(modules, {"run.py": "T = ('m', 'g')\n"}, "") == []
    assert unreferenced(modules, {}, "call `g()`") == []


def test_every_library_name_has_a_caller():
    modules = {p.name: p.read_text() for p in MODULES}
    scripts = {str(p): p.read_text()
               for p in [*ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py")]}
    readme = (ROOT / "README.md").read_text()
    assert set(unreferenced(modules, scripts, readme)) == ALLOWED
