import ast
import os
import subprocess
import sys
from pathlib import Path

import clab

SRC = Path(clab.__file__).parent


def test_no_assert_in_package():
    # every check must stay in force under `python -O`, which strips asserts
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_public_names_resolve():
    missing = [name for name in clab.__all__ if not hasattr(clab, name)]
    assert missing == []
    assert len(set(clab.__all__)) == len(clab.__all__)


def _name(node):
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _unbounded_cache(node):
    """Whether a decorator is `cache` or `lru_cache(maxsize=None)`, by any
    import path."""
    if not isinstance(node, ast.Call):
        return _name(node) == "cache"
    if _name(node.func) != "lru_cache":
        return False
    sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
    return any(isinstance(v, ast.Constant) and v.value is None for v in sizes)


def test_no_unbounded_cache():
    # an unbounded cache grows for the life of a long-lived process
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_unbounded_cache(d) for d in node.decorator_list)
    ]
    assert found == []


def _reads(tree):
    """The names a module reads, apart from a top-level function's reads of
    its own name."""
    out = set()
    for top in tree.body:
        own = getattr(top, "name", None)
        out.update(n for n in map(_name, ast.walk(top)) if n and n != own)
    return out


def test_public_functions_are_called_or_exported():
    # a public function that nothing in the package calls and the package
    # does not export has no caller but the tests: it belongs in
    # tests/oracles.py, or nowhere
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    read = set().union(*map(_reads, trees.values()))
    found = [
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and node.name not in read and node.name not in clab.__all__
    ]
    assert found == []


def test_cli_import_loads_every_benchmark_layer():
    # perfbench/run.py imports clab.cli alone and then reads every layer the
    # tracer lists from sys.modules, so each must be loaded by that import
    tree = ast.parse((SRC.parents[1] / "perfbench" / "tracing.py").read_text(
        encoding="utf-8"))
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(_name(t) == "LAYERS" for t in node.targets))
    assert len(layers) == 8
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, clab.cli; print(*sorted("
         "m[5:] for m in sys.modules if m.startswith('clab.')))"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert set(layers) <= set(proc.stdout.split())
