"""A model is asked what it has in one place only.

``rheology._admit`` turns any model into a ``rheology._ModelBase``, wrapping
a duck-typed pair once in the adapter ``rheology._Pair``.  Past that door
every caller calls methods, so the modules that take models hold no
``__getattr__``, no ``hasattr`` and no ``getattr`` with a default outside
those two.
"""

import ast
from pathlib import Path

import pytest

import granupore

SOURCE = Path(granupore.__file__).parent
MODULES = ("rheology.py", "conditions.py", "simulate.py", "stability.py")
#: The functions and classes allowed to ask a model what it has.
DOOR = {"_admit", "_Pair"}


def _questions(tree: ast.AST, inside: tuple[str, ...] = ()) -> list[str]:
    """Each ``__getattr__`` definition, ``hasattr`` call and three-argument
    ``getattr`` call in ``tree`` outside :data:`DOOR`, as ``line: what``."""
    found = []
    for node in ast.iter_child_nodes(tree):
        scope = inside
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name == "__getattr__":
                found.append(f"{node.lineno}: def __getattr__")
            scope = inside + (node.name,)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            name, n_args = node.func.id, len(node.args)
            if name == "hasattr" or (name == "getattr" and n_args == 3 and not DOOR & set(inside)):
                found.append(f"{node.lineno}: {name} with {n_args} arguments")
        found += _questions(node, scope)
    return found


@pytest.mark.parametrize("module", MODULES)
def test_models_are_asked_only_at_the_door(module):
    tree = ast.parse((SOURCE / module).read_text(), filename=module)
    assert _questions(tree) == []


def test_the_guard_sees_each_kind():
    tree = ast.parse(
        "class A:\n    def __getattr__(self, name): pass\n"
        "hasattr(m, 'x')\ngetattr(m, 'x', None)\ngetattr(m, 'x')\n"
        "def _admit(m):\n    return getattr(m, 'mat', None)\n"
    )
    assert _questions(tree) == [
        "2: def __getattr__", "3: hasattr with 2 arguments", "4: getattr with 3 arguments",
    ]
