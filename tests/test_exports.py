import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import mfhjb

MODULES = ["mfhjb"] + [f"mfhjb.{info.name}" for info in pkgutil.iter_modules(mfhjb.__path__)]
ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale __all__ entry would make `from module import *` raise
    module = importlib.import_module(name)
    assert [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)] == []


def _definitions(tree: ast.Module):
    """(qualified name, node, is a method) of each module-level function or
    class not in __all__, and of each class's methods but dunders."""
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in exported:
            yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item, True


def _references(tree: ast.Module):
    """(name, line, as an attribute) of each use of a name: a bare name, an
    imported name, an attribute, or a string, which getattr-based tracing reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            yield node.value, node.lineno, False


def test_no_library_code_only_tests_reach():
    # every method, and every module-level function or class outside __all__,
    # is used by the package or the benchmark somewhere outside its own body
    files = sorted((ROOT / "src" / "mfhjb").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in files}
    uses = [(name, path, line, attr) for path, tree in trees.items() for name, line, attr in _references(tree)]
    unused = []
    for path, tree in trees.items():
        if path.parent.name != "mfhjb":
            continue
        for qualname, node, method in _definitions(tree):
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(name == node.name and (attr or not method) and not (where == path and line in inside)
                       for name, where, line, attr in uses):
                unused.append(f"{path.name}:{qualname}")
    assert unused == []
