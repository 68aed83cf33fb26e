"""Checks on the package's source as a whole."""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import amplify_dp

SRC = pathlib.Path(amplify_dp.__file__).parent

# The variables OpenBLAS reads for its thread count.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# Runs ``{imports}`` and prints whether they left os.environ as they found it,
# the process's OS threads (null without /proc/self/task) and whether an
# OpenBLAS library is mapped.
STARTUP_PROBE = """
import json, os
before = dict(os.environ)
{imports}
maps = open("/proc/self/maps").read() if os.path.exists("/proc/self/maps") else ""
print(json.dumps({{"environ_kept": dict(os.environ) == before,
                  "threads": len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None,
                  "openblas": "openblas" in maps.lower()}}))
"""


def _referenced_names(node: ast.AST) -> set[str]:
    """Every name that ``node`` reads, as a bare name, an attribute or an import
    (``from .m import f as g`` references ``f``)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.split(".")[-1])
    return names


def test_every_definition_is_exported_or_used():
    # A module-level function or class that is not in its module's __all__,
    # not re-exported by the package and not referenced by other source code
    # is reached by tests only: it belongs under tests/, or nowhere.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    exported = _referenced_names(trees["__init__"])
    # The names each top-level statement of a submodule references.
    uses = [(node, _referenced_names(node)) for name, tree in trees.items() if name != "__init__"
            for node in tree.body]
    unused = []
    for module, tree in trees.items():
        public = set()
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                public |= set(ast.literal_eval(node.value))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name in public or node.name in exported:
                continue
            if not any(node.name in names for other, names in uses if other is not node):
                unused.append(f"{module}.{node.name}")
    assert unused == []


def test_star_imported_modules_declare_their_public_names():
    # The package is the union of the __all__ of the modules it star-imports;
    # a module without one would leak its imports (np, math, dataclass).
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    starred = [node.module for node in init.body
               if isinstance(node, ast.ImportFrom) and [a.name for a in node.names] == ["*"]]
    assert starred
    for module in starred:
        public = getattr(importlib.import_module(f"amplify_dp.{module}"), "__all__", None)
        assert public is not None, module
        assert [name for name in public if name.startswith("_")] == [], module
        assert set(public) <= set(dir(amplify_dp)), module


def _fresh_startup(imports: str, **env: str) -> dict:
    """STARTUP_PROBE's report from a fresh interpreter whose environment has
    none of BLAS_THREAD_VARS but those in ``env``."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    proc = subprocess.run([sys.executable, "-c", STARTUP_PROBE.format(imports=imports)],
                          capture_output=True, text=True, check=True,
                          env={**base, **env, "PYTHONPATH": path})
    return json.loads(proc.stdout)


def test_import_leaves_environ_as_it_was():
    assert _fresh_startup("import amplify_dp")["environ_kept"]


def test_import_starts_openblas_on_one_thread():
    probe = _fresh_startup("import amplify_dp")
    if probe["threads"] is None or not probe["openblas"]:
        pytest.skip("needs /proc/self/task and a numpy built on OpenBLAS")
    assert probe["threads"] == 1


@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_a_thread_setting_is_honoured(var):
    # With a setting, the package starts numpy as numpy starts alone: the
    # same environment after import and the same threads.
    assert _fresh_startup("import amplify_dp", **{var: "2"}) == _fresh_startup("import numpy", **{var: "2"})


def test_numpy_imported_first_changes_nothing():
    assert _fresh_startup("import numpy, amplify_dp") == _fresh_startup("import numpy")
