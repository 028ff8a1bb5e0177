"""Every name a module imports is used in it, and every name it exports
is bound in it.

An AST scan of the package and the tests, standing in for a linter's
unused-import rule: a name bound by an import must be read somewhere in
the module, or listed in its __all__, or carry the linters' `# noqa`
marker on its line.  The package's __init__ only re-exports and is left
out.  A second scan, of the package's modules, checks that each name in
__all__ is bound at module level (by def, class, assignment or import),
so that `from module import *` cannot raise on a stale entry.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")
                 if p.name != "__init__.py")
SRC_MODULES = sorted((ROOT / "src").rglob("*.py"))


def _exports(tree) -> list[str]:
    return [e.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)
            for e in node.value.elts if isinstance(e, ast.Constant)]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                           and node.module != "__future__"):
            for a in node.names:
                if "# noqa" not in lines[a.lineno - 1]:
                    imported[a.asname or a.name.split(".")[0]] = a.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= set(_exports(tree))
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def test_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom math import pi, tau\n"
                          "from math import e  # noqa\nprint(pi)\n") \
        == ["line 1: os", "line 2: tau"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unbound_exports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            bound |= {n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)}
    return [name for name in _exports(tree) if name not in bound]


def test_scan_finds_an_unbound_export():
    assert unbound_exports('__all__ = ["f", "C", "K", "pi", "x", "gone"]\n'
                           "from math import pi\nK = 1\nx: int = 2\n"
                           "def f():\n    gone = 3\nclass C:\n    pass\n") \
        == ["gone"]


@pytest.mark.parametrize("path", SRC_MODULES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_exports_are_bound(path):
    assert unbound_exports(path.read_text(encoding="utf-8")) == []
