"""The demos call only public names that exist.

The demos are not run by the test suite, so a rename or deletion in the
library would otherwise go unnoticed until someone runs them.  Each demo is
parsed, not run: every ``ao.<name>`` it reads and every name it imports from
an asyncopt module must exist.
"""

import ast
import importlib
from pathlib import Path

import pytest

import asyncopt

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _used_names(tree):
    """(module, name) for every asyncopt import and every attribute of an asyncopt alias."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {a.asname or a.name for a in node.names if a.name == "asyncopt"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("asyncopt"):
            yield from ((node.module, a.name) for a in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            yield "asyncopt", node.attr


def test_demos_exist():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_uses_existing_names(path):
    used = list(_used_names(ast.parse(path.read_text(), filename=str(path))))
    assert used
    missing = [f"{mod}.{name}" for mod, name in used
               if not hasattr(importlib.import_module(mod), name)]
    assert not missing, f"{path.name} uses missing names: {missing}"
