"""No library module imports a name it never uses, the package's re-exports exempt, and no
private module-level name is left unread."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sftlearn"
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """The names that ``source`` binds by an import and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def _unread_private_names(sources) -> list[str]:
    """The names with one leading underscore that a module of ``sources`` binds at its top
    level and that no module reads, as a name or as an attribute, sorted."""
    bound, read = set(), set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return sorted(name for name in bound - read if name[:1] == "_" and name[:2] != "__")


def test_the_check_sees_an_import_left_behind():
    source = "import os.path\nfrom .serialize import CSV_HEADER, dumps as d\nd({})\n"
    assert _unused_imports(source) == ["CSV_HEADER", "os"]


def test_the_check_sees_a_private_name_left_behind():
    sources = ["_LIST = (str, dict)\n_KEPT: int = 1\n__all__ = []\n"
               "def _helper():\n    return _KEPT\n",
               "from .a import _helper\n_helper()\n_LEFT = _ALSO = 2\nclass _Kind: pass\n"]
    assert _unread_private_names(sources) == ["_ALSO", "_Kind", "_LEFT", "_LIST"]


def test_the_modules_are_found():
    assert "experiments.py" in MODULES


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_a_name_it_never_uses(module):
    assert _unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_every_private_module_level_name_is_read():
    sources = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.glob("*.py"))]
    assert _unread_private_names(sources) == []
