import ast
import importlib
import importlib.util
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


def _defaulted_parameters(tree: ast.Module):
    """(qualified name, bare name, parameters, which have defaults) of each
    function in __all__ and each public method of a class in __all__; a
    method's parameters exclude the self or cls a call binds."""
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in exported:
            found.append((node.name, node, 0))
        elif isinstance(node, ast.ClassDef) and node.name in exported:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    static = any(getattr(dec, "id", None) == "staticmethod" for dec in item.decorator_list)
                    found.append((f"{node.name}.{item.name}", item, 0 if static else 1))
    for qualname, func, bound in found:
        args = func.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        defaulted = positional[len(positional) - len(args.defaults):]
        defaulted += [a.arg for a, default in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
        yield qualname, func.name, positional[bound:], defaulted


def _calls(tree: ast.Module):
    """(bare callee name, positional count, keyword names) of each call; a
    benchmark ``ops(f, *args)`` call is a call of f, and a call that unpacks
    * or ** passes every parameter (count None)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        if getattr(func, "id", None) == "ops" and args:
            func, args = args[0], args[1:]
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if any(isinstance(a, ast.Starred) for a in args) or any(k.arg is None for k in node.keywords):
            yield name, None, set()
        else:
            yield name, len(args), {k.arg for k in node.keywords}


def test_every_default_is_overridden_somewhere():
    # a defaulted parameter of the public surface that no call in the package,
    # the benchmark or the tests ever passes is a constant in disguise
    library = sorted((ROOT / "src" / "mfhjb").glob("*.py"))
    callers = library + sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    calls = [call for path in callers for call in _calls(ast.parse(path.read_text(), str(path)))]
    never = []
    for path in library:
        for qualname, name, params, defaulted in _defaulted_parameters(ast.parse(path.read_text(), str(path))):
            for param in defaulted:
                index = params.index(param)
                if not any(callee == name and (count is None or index < count or param in keywords)
                           for callee, count, keywords in calls):
                    never.append(f"{path.name}:{qualname}({param})")
    assert never == []


def test_every_tracer_probe_resolves():
    # the benchmark's traced run skips a probe whose target is gone and drops
    # its per-layer metrics, so a deleted or renamed target must fail here
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.absent == set()
    finally:
        tracer.uninstall()
