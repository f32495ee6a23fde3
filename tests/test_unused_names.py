"""Every module-level name a package module defines is used.

The guard walks the syntax tree of each ``src/granupore`` module.  A
function, class or constant bound at module level and not listed in the
module's ``__all__`` is private to the package, so something in the package
must read it: as a name, as an attribute (``simulate._check_records``) or
in a ``from ... import``.  Dunder names are not checked.
"""

import ast

import pytest

from test_unused_imports import MODULES, SOURCE, _exported

TREES = {module: ast.parse((SOURCE / module).read_text(), filename=module)
         for module in MODULES}


def _defined(tree: ast.Module) -> dict[str, int]:
    """The functions, classes and assigned names at the module's top level,
    each with its line, less dunders and the names of ``__all__``."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        names[name.id] = node.lineno
    return {name: line for name, line in names.items()
            if not name.startswith("__") and name not in _exported(tree)}


def _read(trees) -> set[str]:
    """Every name the trees read, take as an attribute or import by name."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


def _unused(tree: ast.Module, trees) -> list[str]:
    """Each private top-level name of ``tree`` that no tree reads, as
    ``line: name``."""
    read = _read(trees)
    return [f"{line}: {name}" for name, line in _defined(tree).items() if name not in read]


@pytest.mark.parametrize("module", MODULES)
def test_every_private_name_is_used(module):
    assert _unused(TREES[module], TREES.values()) == []


def test_guard_finds_an_unused_name():
    tree = ast.parse("__all__ = ['run']\n__version__ = '1'\nCEILING = 2\n_LIMIT = 3\n"
                     "def run(): return _helper() + _LIMIT\n"
                     "def _helper(): return 0\ndef _left(): return CEILING\n"
                     "class _Gone: pass\n_imported, _attribute = 4, 5\n")
    other = ast.parse("from .x import _imported\nx._attribute\n")
    assert _unused(tree, [tree, other]) == ["7: _left", "8: _Gone"]
    assert _unused(tree, [tree]) == ["7: _left", "8: _Gone", "9: _imported", "9: _attribute"]
