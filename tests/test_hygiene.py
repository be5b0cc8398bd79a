"""Source hygiene: no module of the package, its tests or its scripts
imports a name it never uses."""

import ast
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
# the package's __init__.py imports names only to re-export them
SOURCES = sorted(p for p in (_ROOT / "src" / "thomcalc").glob("*.py") if p.name != "__init__.py")
SOURCES += sorted((_ROOT / "tests").glob("*.py")) + sorted((_ROOT / "scripts").glob("*.py"))


def _annotation_names(node):
    # names inside quoted annotations such as -> "Polynomial"
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            tree = ast.parse(node.value, mode="eval")
            return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        except SyntaxError:
            return set()
    return set()


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
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
