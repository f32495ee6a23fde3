"""A model is asked what it has in one place only.

``rheology._admit`` turns any model into a ``rheology._ModelBase``, wrapping
a duck-typed pair once in the adapter ``rheology._Pair``.  Past that door
every caller calls methods, so the modules that take models hold no
``__getattr__``, no ``hasattr`` and no ``getattr`` with a default outside
those two.

A model's error has one door out of a sweep: ``conditions._attempt`` is
the only code in ``conditions`` that catches a ValueError or an
ArithmeticError and turns it into a skipped point.
"""

import ast
import builtins
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


#: The errors a sweep turns into skipped points, and the one function that
#: may catch them.
MODEL_ERRORS = (ValueError, ArithmeticError)
SKIP_DOOR = "_attempt"


def _catches_model_error(handler: ast.ExceptHandler) -> bool:
    """Whether ``handler`` can catch a :data:`MODEL_ERRORS` error: a bare
    ``except``, or a builtin exception class above or below one of them."""
    if handler.type is None:
        return True
    nodes = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    caught = [getattr(builtins, n.id, None) for n in nodes if isinstance(n, ast.Name)]
    return any(
        isinstance(c, type)
        and (issubclass(c, MODEL_ERRORS) or any(issubclass(e, c) for e in MODEL_ERRORS))
        for c in caught
    )


def _skip_handlers(tree: ast.AST, inside: tuple[str, ...] = ()) -> list[str]:
    """Each ``except`` clause in ``tree`` that catches a model error, as
    ``line: enclosing function``, or ``line: module`` at the top level."""
    found = []
    for node in ast.iter_child_nodes(tree):
        scope = inside
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = inside + (node.name,)
        elif isinstance(node, ast.ExceptHandler) and _catches_model_error(node):
            found.append(f"{node.lineno}: {'.'.join(inside) or 'module'}")
        found += _skip_handlers(node, scope)
    return found


def test_one_skip_door():
    tree = ast.parse((SOURCE / "conditions.py").read_text(), filename="conditions.py")
    handlers = _skip_handlers(tree)
    assert [h.split(": ", 1)[1] for h in handlers] == [SKIP_DOOR], handlers


def test_the_skip_guard_sees_each_kind():
    tree = ast.parse(
        "def _attempt(read):\n    try:\n        read()\n"
        "    except (ValueError, ArithmeticError):\n        pass\n"
        "def reads():\n    try:\n        pass\n    except KeyError:\n        pass\n"
        "    except ZeroDivisionError:\n        pass\n"
        "class C:\n    def m(self):\n        try:\n            pass\n"
        "        except Exception:\n            pass\n"
        "try:\n    pass\nexcept:\n    pass\n"
    )
    assert _skip_handlers(tree) == ["4: _attempt", "11: reads", "17: C.m", "21: module"]
