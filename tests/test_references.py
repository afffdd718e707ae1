"""Every top-level name and class member of the library has a caller
outside the tests.

A name counts as referenced when src/gmsfem (its own definition aside),
demos/, perfbench/*.py or README.md uses it.  A member (an annotated
class field or a non-dunder method) counts as referenced when one of
those files, or the README's Python code, reads it as an attribute
(x.name); a keyword argument that sets a field is no read.  The
package's __init__ only re-exports, so it is no reference.  perfbench
looks functions up by name, so a string constant of demos/ or perfbench/
that is a whole name or dotted name ("cli.main") counts as a reference
to, and a read of, each of its parts; a word of prose does not.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gmsfem"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
WORD = re.compile(r"[A-Za-z_]\w*")
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")
README_CODE = re.compile(r"```python\n(.*?)```", re.S)


def defined(tree) -> list:
    """Functions, classes and assigned names at a module's top level."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return names


def names_in_string(node) -> list:
    """The parts of a string constant that is a name or a dotted name."""
    if (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and DOTTED.fullmatch(node.value)):
        return node.value.split(".")
    return []


def used(tree, strings: bool) -> set:
    """Names read, attributes and imported names; the names of string
    constants too when strings is set."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif strings:
            out.update(names_in_string(node))
    return out


def unreferenced(modules: dict, scripts: dict, text: str) -> list:
    """(module, name) pairs that nothing references.

    modules and scripts map a file name to its source; scripts' string
    constants that are names count as references, and so does any word
    of text.
    """
    refs = set(WORD.findall(text))
    for src in modules.values():
        refs |= used(ast.parse(src), strings=False)
    for src in scripts.values():
        refs |= used(ast.parse(src), strings=True)
    return sorted((name, d) for name, src in modules.items()
                  for d in defined(ast.parse(src)) if d not in refs)


def members(tree) -> list:
    """(class, name) of the annotated fields and non-dunder methods of a
    module's top-level classes."""
    out = []
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if (isinstance(node, ast.AnnAssign)
                    and isinstance(node.target, ast.Name)):
                out.append((cls.name, node.target.id))
            elif (isinstance(node, ast.FunctionDef)
                  and not (node.name.startswith("__")
                           and node.name.endswith("__"))):
                out.append((cls.name, node.name))
    return out


def attributes_read(tree, strings: bool) -> set:
    """Attributes loaded (x.name); the names of string constants too when
    strings is set."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif strings:
            out.update(names_in_string(node))
    return out


def unread_members(modules: dict, scripts: dict, text: str) -> list:
    """(module, "Class.member") pairs that nothing reads as an attribute.

    modules and scripts are as for unreferenced; text's Python code
    blocks count as modules.
    """
    reads = set()
    for src in [*modules.values(), *README_CODE.findall(text)]:
        reads |= attributes_read(ast.parse(src), strings=False)
    for src in scripts.values():
        reads |= attributes_read(ast.parse(src), strings=True)
    return sorted((name, f"{cls}.{m}") for name, src in modules.items()
                  for cls, m in members(ast.parse(src)) if m not in reads)


def test_scan_finds_an_unreferenced_name():
    modules = {"m.py": "X = 1\ndef f():\n    return X, 'g'\ndef g():\n    pass\n",
               "n.py": "from m import f\n"}
    assert unreferenced(modules, {}, "") == [("m.py", "g")]
    assert unreferenced(modules, {"run.py": "T = ('m', 'g')\n"}, "") == []
    assert unreferenced(modules, {}, "call `g()`") == []


def _repo_sources() -> tuple:
    """(library modules, demo and perfbench scripts, README text)."""
    modules = {p.name: p.read_text() for p in MODULES}
    scripts = {str(p): p.read_text()
               for p in [*ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py")]}
    return modules, scripts, (ROOT / "README.md").read_text()


def test_every_library_name_has_a_caller():
    assert unreferenced(*_repo_sources()) == []


def test_scan_finds_an_unread_member():
    modules = {"m.py": ("from dataclasses import dataclass\n"
                        "@dataclass\nclass C:\n    a: int\n    b: int\n"
                        "    def __post_init__(self):\n        pass\n"
                        "    def f(self):\n        return self.a\n"
                        "    def g(self):\n        pass\n"),
               "n.py": "from m import C\nC(a=1, b=2).f()\n"}
    # b is only set by keyword, g never called, the dunder is exempt
    assert unread_members(modules, {}, "") == [("m.py", "C.b"), ("m.py", "C.g")]
    assert unread_members(modules, {"run.py": "T = ('C', 'g')\n"}, "") == [
        ("m.py", "C.b")]
    assert unread_members(modules, {"run.py": "T = ('m.C.g',)\n"}, "") == [
        ("m.py", "C.b")]
    # a docstring's words are prose, not names
    docstring = '"""Call g on a C, then read b."""\n'
    assert unread_members(modules, {"run.py": docstring}, "") == [
        ("m.py", "C.b"), ("m.py", "C.g")]
    prose = "call `c.b` and `c.g()`\n"
    assert unread_members(modules, {}, prose) == [("m.py", "C.b"),
                                                  ("m.py", "C.g")]
    code = "```python\nprint(c.b, c.g())\n```\n"
    assert unread_members(modules, {}, code) == []


def test_every_library_member_is_read():
    assert unread_members(*_repo_sources()) == []
