"""The package's export lists name only objects that exist, each exported
function is read by something besides its tests, each module imports only
what it uses, and importing the package loads only what it needs."""

import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import padicfrac

MODULES = sorted(
    f"padicfrac.{info.name}" for info in pkgutil.iter_modules(padicfrac.__path__)
)

ROOT = Path(__file__).resolve().parent.parent
SOURCES = {
    path.stem: ast.parse(path.read_text(encoding="utf-8"))
    for path in sorted((ROOT / "src" / "padicfrac").glob("*.py"))
}

# public functions kept for a check that does not exist yet: refinement
# waits for the tower-consistency check
UNREACHED_EXEMPT = {"refine_function"}


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _identifiers(tree):
    """Every name read, every attribute taken and every name imported
    anywhere under the node."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


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


def _unread_exports(sources, outside):
    """module.function for each function in a module's __all__ that no
    top-level node other than its own definition names, nor ``outside``."""
    nodes = [(node, _identifiers(node)) for tree in sources.values() for node in tree.body]
    unread = []
    for name, tree in sources.items():
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name not in _exports(tree):
                continue
            readers = set().union(outside, *(ids for node, ids in nodes if node is not fn))
            if fn.name not in readers | UNREACHED_EXEMPT:
                unread.append(f"{name}.{fn.name}")
    return unread


def _unused_imports(sources):
    """module: name for each module-level import its module never reads."""
    unused = []
    for name, tree in sources.items():
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | _exports(tree)
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unused.append(f"{name}: {bound}")
    return unused


def test_every_exported_function_is_read_outside_its_body():
    # a public function reached only by its own tests restates other code:
    # some other function of the package, the benchmark's workloads or the
    # README must name it
    outside = _identifiers(ast.parse((ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8")))
    outside |= set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    assert _unread_exports(SOURCES, outside) == []


def test_readme_python_blocks_run_in_order():
    # the documented API, run as a reader pasting the blocks in order would,
    # one namespace for all of them
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert len(blocks) >= 3
    namespace = {}
    for block in blocks:
        exec(compile(block, "<README.md>", "exec"), namespace)


def test_the_export_guard_flags_a_function_only_its_body_reads():
    planted = {
        "a": ast.parse(
            '__all__ = ["used", "recursive", "lonely", "refine_function", "Kept"]\n'
            "def used(): return 1\n"
            "def recursive(n): return recursive(n - 1) if n else 0\n"
            "def lonely(): return used()\n"
            "def refine_function(): return 0\n"
            "class Kept: pass\n"
        ),
        "b": ast.parse("from a import used\nx = used()\n"),
    }
    # a call from inside its own body is no reader; classes are not swept
    assert _unread_exports(planted, set()) == ["a.recursive", "a.lonely"]
    assert _unread_exports(planted, {"lonely", "recursive"}) == []


def test_every_module_level_import_is_used():
    assert _unused_imports(SOURCES) == []


def test_the_import_guard_flags_an_unused_import():
    planted = {
        "a": ast.parse(
            "from __future__ import annotations\n"
            "import math\n"
            "import os.path\n"
            "import numpy as np\n"
            "from .b import Used, Exported, Dropped\n"
            '__all__ = ["Exported"]\n'
            "def f(): return math.pi, os.path.sep, Used\n"
        ),
    }
    assert _unused_imports(planted) == ["a: np", "a: Dropped"]
