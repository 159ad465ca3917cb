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


def _is_cache(node):
    return (isinstance(node, ast.Attribute) and node.attr == "_cache") or (
        isinstance(node, ast.Name) and node.id == "_cache"
    )


def _memo_nodes(tree):
    """The nodes of ``Level._memo``, the one writer of the store."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and cls.name == "Level":
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "_memo":
                    return {id(node) for node in ast.walk(fn)}
    return set()


def _is_dict(node):
    """Whether an annotation or a value is a dict: ``dict`` and its kin,
    subscripted or not, a dict display or comprehension, a call of one, or
    ``field(default_factory=dict)``."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id in {"dict", "Dict", "defaultdict", "OrderedDict"}
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return True
    if isinstance(node, ast.Call):
        return _is_dict(node.func) or any(
            kw.arg == "default_factory" and _is_dict(kw.value) for kw in node.keywords
        )
    return False


CACHE_MUTATORS = {"setdefault", "update", "pop", "popitem", "clear", "__setitem__", "__delitem__"}


def _cache_writes(sources):
    """module:line of each write into a ``_cache`` store outside
    ``Level._memo``: a subscript store or delete, a call of a mutating
    method, or a name bound to the store, through which it could be
    written unseen."""
    writes = []
    for name, tree in sources.items():
        inside = _memo_nodes(tree) if name == "padic" else set()
        lines = set()
        for node in ast.walk(tree):
            if id(node) in inside:
                continue
            if isinstance(node, ast.Subscript):
                flagged = isinstance(node.ctx, (ast.Store, ast.Del)) and _is_cache(node.value)
            elif isinstance(node, ast.Call):
                func = node.func
                flagged = (
                    isinstance(func, ast.Attribute)
                    and func.attr in CACHE_MUTATORS
                    and _is_cache(func.value)
                )
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr)):
                flagged = node.value is not None and _is_cache(node.value)
            else:
                flagged = False
            if flagged:
                lines.add(node.lineno)
        writes += [f"{name}:{line}" for line in sorted(lines)]
    return writes


def _dict_fields(sources):
    """module.Class.field for each dict-valued field a class declares, in
    its body or as ``self.field`` in a method; ``Level._cache`` is the one
    store of memoised state."""
    fields = []
    for name, tree in sources.items():
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    if _is_dict(node.annotation) or node.value is not None and _is_dict(node.value):
                        fields.append(f"{name}.{cls.name}.{node.target.id}")
                elif isinstance(node, ast.Assign) and _is_dict(node.value):
                    fields += [f"{name}.{cls.name}.{t.id}" for t in node.targets if isinstance(t, ast.Name)]
                elif isinstance(node, ast.FunctionDef):
                    for sub in ast.walk(node):
                        if not isinstance(sub, (ast.Assign, ast.AnnAssign)) or sub.value is None:
                            continue
                        if not _is_dict(sub.value):
                            continue
                        targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                        fields += [
                            f"{name}.{cls.name}.{t.attr}"
                            for t in targets
                            if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name) and t.value.id == "self"
                        ]
    return [f for f in fields if f != "padic.Level._cache"]


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


def test_memoised_state_has_one_store():
    # every table, coefficient list, jump law and sampler is kept in
    # Level._cache, and only Level._memo writes it
    assert _cache_writes(SOURCES) == []
    assert _dict_fields(SOURCES) == []


def test_the_store_guards_flag_a_second_store():
    planted = {
        "padic": ast.parse(
            "class Level:\n"
            "    def __init__(self):\n"
            "        self._cache = {}\n"
            "    def _memo(self, key, build):\n"
            "        self._cache[key] = build()\n"
            "        return self._cache[key]\n"
            "    def d(self):\n"
            "        if 'd' not in self._cache:\n"
            "            self._cache['d'] = 0\n"
            "        return self._memo('d', int)\n"
        ),
        "b": ast.parse(
            "from dataclasses import dataclass, field\n"
            "@dataclass(frozen=True)\n"
            "class Law:\n"
            "    rate: float\n"
            "    _samplers: dict = field(default_factory=dict, compare=False)\n"
            "    kept = {}\n"
            "class Table:\n"
            "    def __init__(self):\n"
            "        self.rows = dict()\n"
            "        self.size = 0\n"
            "def build(level, key):\n"
            "    level._cache.setdefault(key, 0)\n"
            "    cache = level._cache\n"
            "    del level._cache[key]\n"
            "    return key in level._cache, level._memo(key, int)\n"
        ),
    }
    # reads and _memo calls are fine; the store itself is exempt
    assert _cache_writes(planted) == ["padic:9", "b:12", "b:13", "b:14"]
    assert _dict_fields(planted) == ["b.Law._samplers", "b.Law.kept", "b.Table.rows"]
