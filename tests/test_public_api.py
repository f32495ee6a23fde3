"""The package root re-exports each public module's ``__all__`` and nothing else,
and holds the one version string."""

import importlib
import types
from pathlib import Path

import pytest
from setuptools.config.pyprojecttoml import read_configuration

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


@pytest.mark.filterwarnings("ignore:Support for `\\[tool.setuptools\\]`:UserWarning")
def test_one_version():
    """The build reads the version from ``granupore.__version__``, its one source."""
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert read_configuration(pyproject, expand=True)["project"]["version"] == granupore.__version__
