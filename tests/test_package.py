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
from test_verify import load_bench_tracing

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


def _type_only_parts(node: ast.AST) -> tuple:
    """The children of ``node`` that name types without using them: its
    annotations, the class argument of ``isinstance`` and the members of
    ``Union[...]``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return (node.returns,)
    if isinstance(node, (ast.arg, ast.AnnAssign)):
        return (node.annotation,)
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance" and len(node.args) == 2:
        return (node.args[1],)
    if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "Union":
        return (node.slice,)
    return ()


def _referenced_names(node: ast.AST, uses_only: bool = False) -> set[str]:
    """Every name that ``node`` reads, as a bare name, an attribute or an import
    (``from .m import f as g`` references ``f``).  With ``uses_only``, a name
    read only where :func:`_type_only_parts` names a type is left out."""
    names, todo = set(), [node]
    while todo:
        sub = todo.pop()
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.split(".")[-1])
        skipped = _type_only_parts(sub) if uses_only else ()
        todo.extend(child for child in ast.iter_child_nodes(sub) if child not in skipped)
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


# Definitions that no command reaches but that stay, by name, with the reason.
# An entry leaves once a command reaches it; the dict only shrinks.
KEPT_UNREACHED = {
    "integrate": "the one-integral call of the quadrature sweep loop",
    "renyi_numeric_log": "the one-pair call of the diffusion suite's stacked Renyi integrals",
    "mse_numeric": "the one-law call of the diffusion suite's stacked MSE integrals",
    "pushforward": "the one-law call of the transport suite's stacked pushforwards",
    "transport_operator": "the one-coupling call of the transport suite's stacked operators",
    "mixture_decompose": "the one-pair call of the transport suite's stacked decompositions",
    "greedy_coupling": "the one-pair call of the transport suite's stacked line pass",
    "independent_coupling": "the one-pair call of the transport suite's stacked products",
    "random_joint_coupling": "the one-pair call of the transport suite's Sinkhorn stack",
    "amplify": "the one-guarantee call of theorem1's stacked amplification step",
    "random_instance": "the one-trial call of theorem1's stacked instance draw",
    "w_inf_optimal_coupling": "the witness of w_inf_discrete's search, which divergence runs",
    "renyi_numeric_1d": "the bench's scalar Renyi oracle (waits on ROADMAP item 1)",
    "density": "the bench's scalar densities for renyi_numeric_1d (waits on ROADMAP item 1)",
    "LaplaceDist": "the bench's Laplace laws for oracle-sweep's Renyi probes (waits on ROADMAP item 1)",
    "ou_sample": "the bench's traced OU sampler (waits on ROADMAP item 1)",
}


def _reached(graph: dict[str, set[str]], roots: set[str]) -> set[str]:
    """The names of ``graph`` that a path of references leads to from ``roots``."""
    seen, todo = set(), [name for name in roots if name in graph]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(graph[name] & graph.keys())
    return seen


def test_every_definition_is_reached_from_a_command():
    # A name-level call graph over the module-level functions and classes:
    # an edge from each to every name it uses, where naming a type in an
    # annotation, an isinstance check or a Union is no use (a class is reached
    # where reached code builds, raises, calls or passes it). Its roots are
    # cli.main and the names that module-level statements other than imports
    # use (cli.COMMANDS among them). A definition that no command reaches is
    # uncertified by any command or verify row: it goes, or KEPT_UNREACHED
    # says why it stays.
    graph, roots = {}, {"main"}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                graph.setdefault(node.name, set()).update(_referenced_names(node, uses_only=True))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _referenced_names(node, uses_only=True)
    kept = set(KEPT_UNREACHED)
    assert sorted(kept - graph.keys()) == []
    assert sorted(kept & _reached(graph, roots)) == []
    assert sorted(graph.keys() - _reached(graph, roots | kept)) == []


def test_no_module_imports_a_name_it_never_reads():
    # A name counts as read where the module loads it or lists it in __all__.
    # `from __future__`, the package's star imports and lines marked
    # `# noqa: F401` are exempt.
    unread = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines, tree = text.splitlines(), ast.parse(text)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                read |= set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__"
                    or "# noqa: F401" in lines[node.lineno - 1]):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if alias.name != "*" and bound not in read:
                    unread.append(f"{path.stem}:{node.lineno}: {bound}")
    assert unread == []


def test_unread_imports_are_the_benchmark_tracers():
    # A `# noqa: F401` import outside __init__ binds a name that its module
    # never reads; it stays only while bench/tracing.py wraps it there.
    wrapped = {(module, attr) for module, attr, _ in load_bench_tracing().WRAPPED}
    unwrapped, marked = [], 0
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and "# noqa: F401" in lines[node.lineno - 1]:
                for alias in node.names:
                    marked += 1
                    if (f"amplify_dp.{path.stem}", alias.asname or alias.name) not in wrapped:
                        unwrapped.append(f"{path.stem}:{node.lineno}: {alias.asname or alias.name}")
    assert marked > 0
    assert unwrapped == []


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


def test_mixing_on_a_large_kernel_keeps_one_thread(tmp_path):
    # Past one tile the eps-Dobrushin screen multiplies n x m matrices, the
    # library's one gemm; OpenBLAS must still run on the thread it started with.
    rows = [[(1.0 + (i * 7 + j * 13) % 17) for j in range(256)] for i in range(256)]
    kernel = tmp_path / "kernel.json"
    kernel.write_text(json.dumps([[v / sum(row) for v in row] for row in rows]))
    config = tmp_path / "mixing.json"
    config.write_text(json.dumps({"kernel_path": str(kernel), "eps": 1.0, "delta": 1e-4}))
    argv = ["mixing", "--config", str(config), "--out", str(tmp_path / "mixing.csv")]
    probe = _fresh_startup(f"from amplify_dp import cli\nassert cli.main({argv!r}) == 0")
    if probe["threads"] is None or not probe["openblas"]:
        pytest.skip("needs /proc/self/task and a numpy built on OpenBLAS")
    assert probe["threads"] == 1
