"""Checks on the package's source as a whole."""

import ast
import importlib
import pathlib

import amplify_dp

SRC = pathlib.Path(amplify_dp.__file__).parent


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
