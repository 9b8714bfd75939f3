"""The benchmark's tracer wraps library functions by name; each must exist."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _traced_names():
    """The keys of ``TRACED`` in ``bench/tracer.py``, read from its source."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    [table] = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["TRACED"]]
    return [ast.literal_eval(key) for key in table.keys]


def test_the_traced_table_is_found():
    assert "gibbs.pressure" in _traced_names()


@pytest.mark.parametrize("name", _traced_names())
def test_every_traced_name_resolves_in_its_module(name):
    home, attr = name.split(".")
    assert callable(getattr(importlib.import_module(f"sftlearn.{home}"), attr))
