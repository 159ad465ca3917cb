"""The package's export lists name only objects that exist."""

import importlib
import pkgutil

import pytest

import padicfrac

MODULES = sorted(
    f"padicfrac.{info.name}" for info in pkgutil.iter_modules(padicfrac.__path__)
)


@pytest.mark.parametrize("modname", ["padicfrac", *MODULES])
def test_every_exported_name_resolves(modname):
    module = importlib.import_module(modname)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_every_module_declares_its_exports():
    assert len(MODULES) >= 8
    for modname in MODULES:
        if modname != "padicfrac.cli":
            assert hasattr(importlib.import_module(modname), "__all__"), modname
