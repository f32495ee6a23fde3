"""Every name a package module imports is used in it.

The guard walks each module's syntax tree: a name bound by ``import`` or
``from ... import`` must be read somewhere in the module, as a name or the
base of an attribute.  ``from __future__`` imports, the package root's star
imports and a name the module lists in ``__all__`` (a re-export) are not
checked.
"""

import ast
from pathlib import Path

import pytest

import granupore

SOURCE = Path(granupore.__file__).parent
MODULES = sorted(path.name for path in SOURCE.glob("*.py"))


def _exported(tree: ast.Module) -> set[str]:
    """The names of the module's ``__all__``, where it assigns a literal list."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def _unused(tree: ast.Module) -> list[str]:
    """Each imported name ``tree`` never reads, as ``line: name``."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    name = alias.asname or alias.name.split(".")[0]
                    imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in read | _exported(tree)]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = ast.parse((SOURCE / module).read_text(), filename=module)
    assert _unused(tree) == []


def test_guard_finds_an_unused_import():
    tree = ast.parse("from __future__ import annotations\nimport functools\nimport math\n"
                     "from .x import *\nfrom .y import z\n__all__ = ['z']\nmath.pi\n")
    assert _unused(tree) == ["2: functools"]
