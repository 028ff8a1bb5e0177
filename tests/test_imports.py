"""Every name a module imports is used in it, and every name it exports
is bound in it.

An AST scan of the package and the tests, standing in for a linter's
unused-import rule: a name bound by an import must be read somewhere in
the module, or listed in its __all__, or carry the linters' `# noqa`
marker on its line.  The package's __init__ only re-exports and is left
out.  A second scan, of the package's modules, checks that each name in
__all__ is bound at module level (by def, class, assignment or import),
so that `from module import *` cannot raise on a stale entry.

A third scan pins the package's layering: each module imports only from
the package modules it is allowed (LAYERS), so a name lives in the layer
that owns it, and no module but __init__ re-exports an imported name in
its __all__.
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


# The package modules each module may import from.  The separatrix closed
# forms and the model (core) import none; the Melnikov theory reads them;
# the flow (integrate) runs the model; W^u(infinity) (manifolds) and the
# oscillation demo (orbits) run the flow; the splitting report reads all of
# them.  The front ends, the CLI and the package's __init__, may import any.
FRONT_ENDS = {"__init__", "cli"}
LAYERS = {
    "_dop853": set(),
    "core": set(),
    "integrate": {"core", "_dop853"},
    "manifolds": {"core", "integrate", "separatrix"},
    "melnikov": {"core", "separatrix"},
    "orbits": {"core", "integrate"},
    "separatrix": set(),
    "splitting": {"core", "integrate", "manifolds", "melnikov", "separatrix"},
}
PACKAGE = ROOT / "src" / "rpc3bp"


def package_imports(source: str, package: str = "rpc3bp") -> set[str]:
    """The package modules that source imports from, at any depth of the
    module (inside functions too), as relative or absolute imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                parts = (node.module or "").split(".")
            elif (node.module or "").split(".")[0] == package:
                parts = node.module.split(".")[1:]
            else:
                continue
            # `from . import x` and `from rpc3bp import x` import module x
            found |= ({a.name for a in node.names} if parts in ([""], [])
                      else {parts[0]})
        elif isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names
                      if a.name.startswith(package + ".")}
    return found


def test_scan_finds_package_imports():
    assert package_imports(
        "from .core import Params\nfrom . import _dop853 as _dop\n"
        "import numpy\nfrom numpy import pi\n"
        "def f():\n    from .manifolds import lift\n"
        "    import rpc3bp.orbits\n    from rpc3bp.melnikov import L\n") \
        == {"core", "_dop853", "manifolds", "orbits", "melnikov"}


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in PACKAGE.glob("*.py")) \
        == sorted(FRONT_ENDS | set(LAYERS))


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_module_imports_only_its_layers(name):
    found = package_imports((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    assert sorted(found - LAYERS[name]) == []


def reexports(source: str) -> list[str]:
    """The names in __all__ that a module-level import binds."""
    tree = ast.parse(source)
    imported = {a.asname or a.name.split(".")[0] for node in tree.body
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for a in node.names}
    return [name for name in _exports(tree) if name in imported]


def test_scan_finds_a_reexport():
    assert reexports('__all__ = ["f", "pi"]\nfrom math import pi\n'
                     "def f():\n    pass\n") == ["pi"]


@pytest.mark.parametrize("path", [p for p in SRC_MODULES
                                  if p.name != "__init__.py"],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_reexports(path):
    assert reexports(path.read_text(encoding="utf-8")) == []
