"""The package's surface: every name a module lists in __all__ exists, and
every private module-level name is used by the package itself."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import paleokalman

_MODULES = ["paleokalman"] + [
    f"paleokalman.{m.name}" for m in pkgutil.iter_modules(paleokalman.__path__)
]


@pytest.mark.parametrize("name", _MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == []
    namespace = {}
    exec(f"from {name} import *", namespace)  # a stale name raises here
    assert set(exported) <= set(namespace)


def _private_definitions(tree: ast.Module) -> list:
    # (name, node) for each module-level private function, class or
    # constant: a name with one leading underscore, not a dunder
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Store):
                        found.append((name.id, node))
    return [(n, node) for n, node in found if n.startswith("_") and not n.startswith("__")]


def _loads(tree: ast.Module) -> list:
    # (name, node) for each name the module loads, by name or by attribute
    loads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loads.append((node.id, node))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            loads.append((node.attr, node))
    return loads


def test_every_private_name_in_src_is_used_there():
    # references and helpers that only the tests read belong in tests/ (as
    # tests/reference_ingest.py does): a private module-level name that no
    # code of the package loads outside its own definition fails here;
    # a docstring or comment that names it does not count as a use
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(paleokalman.__file__).parent.glob("*.py"))
    }
    loads = {module: _loads(tree) for module, tree in trees.items()}
    unused = []
    for module, tree in trees.items():
        for name, definition in _private_definitions(tree):
            own = {id(node) for node in ast.walk(definition)}
            used = any(
                n == name and not (other == module and id(node) in own)
                for other, other_loads in loads.items()
                for n, node in other_loads
            )
            if not used:
                unused.append(f"{module}: {name}")
    assert unused == []
