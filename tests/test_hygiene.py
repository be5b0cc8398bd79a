"""Source hygiene: no module of the package, its tests or its scripts
imports a name it never uses, and every public name and public method has a
use outside the tests."""

import ast
import re
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_INIT = _ROOT / "src" / "thomcalc" / "__init__.py"
# the package's __init__.py imports names only to re-export them
MODULES = sorted(p for p in _INIT.parent.glob("*.py") if p != _INIT)
SCRIPTS = sorted((_ROOT / "scripts").glob("*.py"))
SOURCES = MODULES + sorted((_ROOT / "tests").glob("*.py")) + SCRIPTS


def _annotation_names(node):
    # names inside quoted annotations such as -> "Polynomial"
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            tree = ast.parse(node.value, mode="eval")
            return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        except SyntaxError:
            return set()
    return set()


def _names_read(tree):
    # names in load position and inside quoted annotations; the names that
    # def, class and import lines bind are not Name nodes
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return used


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    used = _names_read(tree)
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_scan_sees_an_unused_import():
    assert unused_imports("import os\nfrom typing import List, Dict\nx: Dict = {}\n") == [
        (1, "os"),
        (2, "List"),
    ]
    assert unused_imports("from typing import List\ndef f() -> 'List[int]': pass\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def referenced_names(source):
    """Every name the code reads, as a name, an attribute or inside a
    quoted annotation; the names bound by def, class and import lines do
    not count."""
    tree = ast.parse(source)
    return _names_read(tree) | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


def test_the_scan_sees_a_name_nothing_reads():
    source = (
        "from m import imported\n"
        "class Kept: pass\n"
        "def helper(): pass\n"
        "def unread(x: 'Kept'): return helper() + m.attr\n"
    )
    assert referenced_names(source) == {"Kept", "helper", "m", "attr"}


def test_every_export_has_a_use_outside_the_tests():
    exported = [
        alias.asname or alias.name
        for node in ast.parse(_INIT.read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    used = set()
    for path in MODULES + SCRIPTS:
        used |= referenced_names(path.read_text())
    readme = (_ROOT / "README.md").read_text()
    unused = [
        name
        for name in exported
        if name not in used and not re.search(rf"\b{re.escape(name)}\b", readme)
    ]
    assert unused == []


def public_methods(source):
    """(class, method, first line, last line) for every public method of a
    public top-level class; a decorator line belongs to its def."""
    out = []
    for cls in ast.parse(source).body:
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                    out.append((cls.name, node.name, first, node.end_lineno))
    return out


def test_the_scan_sees_public_methods():
    source = (
        "class Kept:\n"
        "    def __init__(self): pass\n"
        "    @staticmethod\n"
        "    def built():\n"
        "        return Kept()\n"
        "    def _private(self): pass\n"
        "class _Hidden:\n"
        "    def method(self): pass\n"
    )
    assert public_methods(source) == [("Kept", "built", 3, 5)]


def test_every_public_method_has_a_use_outside_the_tests():
    """A tripwire, not a call graph: a method passes when its name occurs as
    a word anywhere in the package, the scripts, perfbench (which names the
    methods it traces in strings) or README, outside its own def.  So a
    method whose name also names something else, such as count, of or
    coefficient, passes unread; those have to be caught by hand."""
    texts = {path: path.read_text() for path in MODULES + SCRIPTS}
    texts.update({path: path.read_text() for path in sorted((_ROOT / "perfbench").rglob("*.py"))})
    texts[_ROOT / "README.md"] = (_ROOT / "README.md").read_text()
    unused = []
    for path in MODULES:
        lines = texts[path].splitlines()
        elsewhere = [text for other, text in texts.items() if other != path]
        for cls, name, first, last in public_methods(texts[path]):
            outside = elsewhere + ["\n".join(lines[: first - 1] + lines[last:])]
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(text) for text in outside):
                unused.append(f"{cls}.{name}")
    assert unused == []
