"""Every name in a hitchinlab module's ``__all__`` resolves to an attribute of the module."""

import importlib
import pkgutil
import types

import pytest

import hitchinlab

MODULES = sorted(m.name for m in pkgutil.iter_modules(hitchinlab.__path__))


def _unresolved(module) -> list[str]:
    return [name for name in module.__all__ if not hasattr(module, name)]


def test_check_catches_a_stale_export():
    stale = types.ModuleType("stale")
    stale.__all__ = ["polar_grid", "PolarGrid"]
    stale.polar_grid = object()
    assert _unresolved(stale) == ["PolarGrid"]


def test_every_module_is_checked():
    assert len(MODULES) >= 10 and {"cli", "fiducial", "glue", "oracles"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"hitchinlab.{name}")
    assert hasattr(module, "__all__"), name
    assert len(set(module.__all__)) == len(module.__all__), name
    assert _unresolved(module) == []
