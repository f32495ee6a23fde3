"""The package root re-exports each public module's ``__all__`` and nothing else."""

import importlib
import types

import pytest

import granupore

#: The modules whose ``__all__`` the root re-exports, in import order.
REEXPORTED = ("materials", "gas", "rheology", "conditions", "stability", "simulate")

PUBLIC = [
    (module, name)
    for module in REEXPORTED
    for name in importlib.import_module(f"granupore.{module}").__all__
]


@pytest.mark.parametrize("module, name", PUBLIC, ids=[f"{m}.{n}" for m, n in PUBLIC])
def test_root_reexports_the_module_object(module, name):
    assert getattr(granupore, name) is getattr(importlib.import_module(f"granupore.{module}"), name)


def test_root_names_nothing_else():
    own = {
        name for name, value in vars(granupore).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert own == {name for _, name in PUBLIC}


def test_no_name_is_public_in_two_modules():
    names = [name for _, name in PUBLIC]
    assert len(names) == len(set(names))
