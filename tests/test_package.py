"""The package's export lists name only objects that exist, and importing it
loads only what it needs."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_import_loads_no_scipy():
    # a fresh interpreter, since this one may have loaded scipy for an oracle
    code = (
        "import json, sys, padicfrac, padicfrac.cli; "
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m == 'scipy' or m.startswith('scipy.'))))"
    )
    src = Path(padicfrac.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60, env=env, check=True,
    )
    assert json.loads(out.stdout) == []
