"""A model is asked what it has in one place only.

``rheology._admit`` turns any model into a ``rheology._ModelBase``, wrapping
a duck-typed pair once in the adapter ``rheology._Pair``.  Past that door
every caller calls methods, so the modules that take models hold no
``__getattr__``, no ``hasattr`` and no ``getattr`` with a default outside
those two.

A model's error has one door out of a sweep: ``conditions._attempt`` is
the only code in ``conditions`` that catches a ValueError or an
ArithmeticError and turns it into a skipped point.

A scalar is tested for infinity in one place: ``materials._check_finite``
is the only code in the package that calls ``math.isinf`` or compares a
value equal or unequal to ``math.inf``.

A forcing becomes a rate in one place: ``rheology._forced`` is the only
code in the modules that take models that calls ``inertial_number`` or
compares a ``shear`` with 0, so the box, ``div_u`` and
``dissipation_density`` share one unsheared rule.

A count and an array are checked in one place each: ``materials._check_count``
is the only code in the modules that check inputs that calls
``operator.index``, and ``materials._check_all`` the only code there that
calls ``np.isfinite``, ``np.isinf``, ``np.isnan`` or ``math.isfinite`` or
finds an array's first bad element, so every such message has one wording.
Three more finiteness tests are listed by name: two column checks that pass
their mask to ``materials._check_all``, and ``conditions._row_reads``, which
sends a point whose row values are not finite to the scalar reads.

The column has one path: ``simulate.run_column`` is the only code in the
package that calls ``simulate._column_stepper``, so ``step_column`` is a run
of one step, and ``simulate`` calls no ``log1p``: it takes the ideal-gas H
from ``gas``, where it is written once.
"""

import ast
import builtins
import re
from pathlib import Path

import pytest

import granupore

SOURCE = Path(granupore.__file__).parent
MODULES = ("rheology.py", "conditions.py", "simulate.py", "stability.py")
#: The functions and classes allowed to ask a model what it has.
DOOR = {"_admit", "_Pair"}


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _nodes(tree: ast.AST, inside: tuple[str, ...] = ()):
    """Each node below ``tree``, parents before children, with the names of
    the functions and classes that enclose it, outermost first."""
    for node in ast.iter_child_nodes(tree):
        yield node, inside
        yield from _nodes(node, inside + (node.name,) if isinstance(node, SCOPES) else inside)


def _where(node: ast.AST, inside: tuple[str, ...]) -> str:
    """``line: enclosing function``, or ``line: module`` at the top level."""
    return f"{getattr(node, 'lineno', 0)}: {'.'.join(inside) or 'module'}"


def _questions(tree: ast.AST) -> list[str]:
    """Each ``__getattr__`` definition, ``hasattr`` call and three-argument
    ``getattr`` call in ``tree`` outside :data:`DOOR`, as ``line: what``."""
    found = []
    for node, inside in _nodes(tree):
        if isinstance(node, SCOPES) and node.name == "__getattr__":
            found.append(f"{node.lineno}: def __getattr__")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            name, n_args = node.func.id, len(node.args)
            if name == "hasattr" or (name == "getattr" and n_args == 3 and not DOOR & set(inside)):
                found.append(f"{node.lineno}: {name} with {n_args} arguments")
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


def _skip_handlers(tree: ast.AST) -> list[str]:
    """Each ``except`` clause in ``tree`` that catches a model error, as
    ``line: enclosing function``, or ``line: module`` at the top level."""
    return [_where(node, inside) for node, inside in _nodes(tree)
            if isinstance(node, ast.ExceptHandler) and _catches_model_error(node)]


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


#: The one function that may test a scalar for infinity.
FINITE_DOOR = "materials.py: _check_finite"


def _is_infinity(node: ast.AST) -> bool:
    """Whether ``node`` is ``math.inf`` or ``-math.inf``."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return (isinstance(node, ast.Attribute) and node.attr == "inf"
            and isinstance(node.value, ast.Name) and node.value.id == "math")


def _infinity_tests(tree: ast.AST) -> list[str]:
    """Each ``math.isinf`` call and each ``==`` or ``!=`` against
    ``math.inf`` or ``-math.inf`` in ``tree``, as ``line: enclosing
    function: what``; order tests such as ``a < math.inf`` pass."""
    found = []
    for node, inside in _nodes(tree):
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "math.isinf":
            found.append(f"{_where(node, inside)}: math.isinf")
        elif isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, sides, sides[1:]):
                inf = next((x for x in (left, right) if _is_infinity(x)), None)
                if isinstance(op, (ast.Eq, ast.NotEq)) and inf is not None:
                    symbol = "==" if isinstance(op, ast.Eq) else "!="
                    found.append(f"{_where(node, inside)}: {symbol} {ast.unparse(inf)}")
    return found


def test_one_finiteness_door():
    hits = [
        f"{path.name}: {hit}"
        for path in sorted(SOURCE.rglob("*.py"))
        for hit in _infinity_tests(ast.parse(path.read_text(), filename=path.name))
    ]
    assert [re.sub(r": \d+:", ":", h) for h in hits] == [f"{FINITE_DOOR}: math.isinf"], hits


def test_the_finiteness_guard_sees_each_kind():
    tree = ast.parse(
        "import math\n"
        "def _check_finite(name, v):\n    if math.isinf(v):\n        pass\n"
        "def f(x):\n    return x == math.inf or math.inf != x or x == -math.inf\n"
        "class C:\n    def m(self, a):\n        return 0 <= a < math.inf and a > -math.inf\n"
        "math.isinf(1.0)\n"
        "x = y == math.nan or y is math.inf or y == math.pi\n"
    )
    assert _infinity_tests(tree) == [
        "3: _check_finite: math.isinf", "6: f: == math.inf", "6: f: != math.inf",
        "6: f: == -math.inf", "10: module: math.isinf",
    ]


#: The one function that turns a forcing (|S|, p) into a rate, and what it
#: alone does: compute I and test for an unsheared forcing.
FORCING_DOOR = ["rheology.py: _forced: shear == 0.0", "rheology.py: _forced: inertial_number"]


#: A call of ``inertial_number``, by its name or through its module.
INERTIAL = r"\binertial_number$"


def _is_shear(node: ast.AST) -> bool:
    """Whether ``node`` is a name or an attribute called ``shear``."""
    return (isinstance(node, ast.Name) and node.id == "shear") or (
        isinstance(node, ast.Attribute) and node.attr == "shear")


def _is_zero(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) in (int, float) and node.value == 0


def _forcing_reads(tree: ast.AST) -> list[str]:
    """Each ``inertial_number`` call and each comparison of a ``shear`` with
    0 in ``tree``, as ``line: enclosing function: what``."""
    found = []
    for node, inside in _nodes(tree):
        if isinstance(node, ast.Call) and re.search(INERTIAL, ast.unparse(node.func)):
            found.append(f"{_where(node, inside)}: inertial_number")
        elif isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            for left, right in zip(sides, sides[1:]):
                if (_is_shear(left) and _is_zero(right)) or (_is_zero(left) and _is_shear(right)):
                    found.append(f"{_where(node, inside)}: {ast.unparse(node)}")
    return found


def test_one_forcing_door():
    """Only ``rheology._forced`` computes I or decides that a forcing is
    unsheared, in the modules that take models."""
    hits = [
        f"{module}: {hit}"
        for module in MODULES
        for hit in _forcing_reads(ast.parse((SOURCE / module).read_text(), filename=module))
    ]
    assert [re.sub(r": \d+:", ":", h) for h in hits] == FORCING_DOOR, hits


def test_the_forcing_guard_sees_each_kind():
    tree = ast.parse(
        "def _forced(model, mat, shear, p):\n    if shear == 0.0:\n        return None\n"
        "    return inertial_number(mat, shear, p)\n"
        "def segment(shear, p):\n    I = 0.0 if shear == 0.0 else inertial_number(mat, shear, p)\n"
        "class C:\n    def m(self, state):\n        if state.shear > 0:\n"
        "            return materials.inertial_number(mat, state.shear, state.p)\n"
        "x = 0.0 < shear\n"
        "y = shear_arr >= 0 or shear == 1.0 or state.shear is None or shear == '0'\n"
    )
    assert _forcing_reads(tree) == [
        "2: _forced: shear == 0.0", "4: _forced: inertial_number",
        "6: segment: shear == 0.0", "6: segment: inertial_number",
        "9: C.m: state.shear > 0", "10: C.m: inertial_number", "11: module: 0.0 < shear",
    ]


#: The modules whose inputs pass the count and array doors.
INPUT_MODULES = ("materials.py", "gas.py", "simulate.py", "conditions.py", "rheology.py",
                 "stability.py")
#: The two doors and the listed finiteness tests, and what they alone call.
INPUT_DOORS = [
    "materials.py: _check_count: operator.index", "materials.py: _check_all: np.isfinite",
    "materials.py: _check_all: np.argmin", "materials.py: _check_all: np.unravel_index",
    "simulate.py: _face_kappa: np.isfinite", "simulate.py: column_cfl_dt: np.isfinite",
    "conditions.py: _row_reads: np.isfinite",
]
#: A count's integer test, a finiteness test that NaN fails or an array's,
#: and a call that finds the first bad element of an array (``np.argmin`` of a
#: mask and its index, or a helper named ``_first_bad``).
INPUT_CALL = re.compile(
    r"^((np|numpy)\.(isfinite|isinf|isnan|argmin|unravel_index)|operator\.index"
    r"|math\.isfinite|(\w+\.)*_first_bad)$"
)


def _input_checks(tree: ast.AST) -> list[str]:
    """Each call in ``tree`` that :data:`INPUT_CALL` matches, as ``line:
    enclosing function: what``."""
    return [f"{_where(node, inside)}: {ast.unparse(node.func)}" for node, inside in _nodes(tree)
            if isinstance(node, ast.Call) and INPUT_CALL.match(ast.unparse(node.func))]


def test_one_door_per_input_kind():
    """Counts pass ``materials._check_count``, arrays ``materials._check_all``."""
    hits = [
        f"{module}: {hit}"
        for module in INPUT_MODULES
        for hit in _input_checks(ast.parse((SOURCE / module).read_text(), filename=module))
    ]
    assert [re.sub(r": \d+:", ":", h) for h in hits] == INPUT_DOORS, hits


def test_the_input_guard_sees_each_kind():
    tree = ast.parse(
        "import numpy as np, operator\n"
        "def _check_count(name, value, least):\n    operator.index(value)\n"
        "def _check_all(rule, values, ok=None):\n    ok = np.isfinite(values)\n"
        "    np.unravel_index(np.argmin(ok), np.shape(values))\n"
        "def kappa(phi):\n    if not np.all(np.isfinite(phi)) or np.any(numpy.isnan(phi)):\n"
        "        raise ValueError(_first_bad(phi, ok))\n"
        "class C:\n    def m(self, n):\n"
        "        return operator.index(n), gas._first_bad(n, ok), np.isinf(n)\n"
        "x = math.isfinite(1.0) or np.isclose(1, 2) or np.all(ok) or np.argmax(ok) or isinf(x)\n"
    )
    assert _input_checks(tree) == [
        "3: _check_count: operator.index", "5: _check_all: np.isfinite",
        "6: _check_all: np.unravel_index", "6: _check_all: np.argmin",
        "8: kappa: np.isfinite", "8: kappa: numpy.isnan", "9: kappa: _first_bad",
        "12: C.m: operator.index", "12: C.m: gas._first_bad", "12: C.m: np.isinf",
        "13: module: math.isfinite",
    ]


#: The one caller of the column's stepper.
STEPPER_CALLERS = ["simulate.py: run_column: _column_stepper"]


def _calls(tree: ast.AST, pattern: str) -> list[str]:
    """Each call in ``tree`` whose callee, as written, ``pattern`` matches,
    as ``line: enclosing function: what``."""
    return [f"{_where(node, inside)}: {ast.unparse(node.func)}" for node, inside in _nodes(tree)
            if isinstance(node, ast.Call) and re.search(pattern, ast.unparse(node.func))]


#: A call of ``log1p`` or of ``_column_stepper``, by its name or through a module.
LOG1P, STEPPER = r"(^|\.)log1p$", r"(^|\.)_column_stepper$"


def test_simulate_calls_no_log1p():
    """``simulate`` takes the ideal-gas H from ``gas`` and computes none itself."""
    tree = ast.parse((SOURCE / "simulate.py").read_text(), filename="simulate.py")
    assert _calls(tree, LOG1P) == []


def test_one_caller_of_the_column_stepper():
    """Only ``run_column`` builds a column stepper: ``step_column`` runs one step."""
    hits = [
        f"{path.name}: {hit}"
        for path in sorted(SOURCE.rglob("*.py"))
        for hit in _calls(ast.parse(path.read_text(), filename=path.name), STEPPER)
    ]
    assert [re.sub(r": \d+:", ":", h) for h in hits] == STEPPER_CALLERS, hits


def test_the_column_guards_see_each_kind():
    tree = ast.parse(
        "import numpy as np, math\n"
        "def run_column(state):\n    one_m, kf, advance = _column_stepper(state)\n"
        "def step_column(state):\n    advance = simulate._column_stepper(state)[2]\n"
        "    return np.log1p(state) + math.log1p(1.0) + log1p(2.0)\n"
        "class C:\n    def m(self, p):\n        return np.log(p), np.log1pp(p), _column_stepper\n"
        "x = np.log1p(np.ones(3), out=y)\n"
    )
    assert _calls(tree, STEPPER) == [
        "3: run_column: _column_stepper", "5: step_column: simulate._column_stepper",
    ]
    assert _calls(tree, LOG1P) == [
        "6: step_column: np.log1p", "6: step_column: math.log1p", "6: step_column: log1p",
        "10: module: np.log1p",
    ]
