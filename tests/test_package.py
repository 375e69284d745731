import ast
import contextlib
import importlib
import inspect
import io
import os
import subprocess
import sys
from pathlib import Path

import clab
from clab import cli, quiver

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


def _perfbench_trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((SRC.parents[1] / "perfbench").glob("*.py"))}


def test_benchmark_reads_only_names_that_resolve():
    # the benchmark reads `clab.<layer>.<name>` off the package it imports;
    # a stale name would show up only as a failed benchmark set-up
    read = {
        (f"{path}:{node.lineno}", node.value.attr, node.attr)
        for path, tree in _perfbench_trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Attribute)
        and _name(node.value.value) == "clab"
    }
    assert {"build_mckay_quiver", "fixed_candidates", "run"} <= {
        name for _, _, name in read}
    missing = [f"{where} clab.{layer}.{name}" for where, layer, name in read
               if not hasattr(importlib.import_module(f"clab.{layer}"), name)]
    assert missing == []


def test_tracer_names_are_traced_functions():
    # the tracer's tables and hooks name spans "<layer>.<function>"; each
    # must be a public function of that module, which the tracer wraps
    tree = _perfbench_trees()["tracing.py"]
    layers = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and any(_name(t) == "LAYERS" for t in node.targets))
    hooks = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(_name(t) == "_HOOKS" for t in node.targets))
    keys = [k.value for k in hooks.keys]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and _name(node.func) == "stat"
                and isinstance(node.args[0], ast.Constant)):
            keys.append(node.args[0].value)
        if (isinstance(node, ast.Subscript) and _name(node.value) == "originals"
                and isinstance(node.slice, ast.Constant)):
            keys.append(node.slice.value)
    assert "thetaspace.realize_resolution" in keys
    assert "quiver.moduli_fan_cones" in keys
    bad = set()
    for key in keys:
        layer, _, name = key.partition(".")
        fn = getattr(importlib.import_module(f"clab.{layer}"), name, None)
        if (layer not in layers or name.startswith("_")
                or not inspect.isfunction(inspect.unwrap(fn) if fn else None)
                or fn.__module__ != f"clab.{layer}"):
            bad.add(key)
    # functions that left the library while the tracer still reads them:
    # their metrics read 0 until the tracer is pointed at their successors
    assert bad == RETIRED_TRACER_NAMES


RETIRED_TRACER_NAMES = {"linprog.project", "lattice.lattice_points_in_triangle",
                        "lattice.primitive_in_lattice", "lattice.is_member",
                        "surface.make_resolution"}


# exported functions that no command calls, each kept for its reason
UNREACHED_EXPORTS = {
    # the library entry point of the audit that `verify` runs on the
    # resolutions its per-group context keeps (README)
    "verify_main_theorem",
    # the admissible resolutions as one tuple, the README's entry point; the
    # commands decode the context's sequences by index instead
    "enumerate_admissible_resolutions",
    # the benchmark tracer (perfbench/tracing.py) reads its cache_info();
    # it leaves with that reader
    "enumerate_fixed_stable",
}
# 1/8(1,3) and 1/4(1,1;2,0), both of order 8: a theta with a lone -7 is
# generic, and one with a zero entry is on a wall
REACH_GROUPS = (("--n", "8", "--gens", "1,3"), ("--n", "4", "--gens", "1,1;2,0"))
REACH_THETAS = ("-7,1,1,1,1,1,1,1", "-1,1,0,0,0,0,0,0")


def test_every_exported_function_is_reached_by_a_command():
    # every command in every format, and `moduli` at a generic theta and at
    # one on a wall, through `main`, on cold caches: an exported function
    # that none of them calls belongs in tests/oracles.py, or on the list
    argvs = [(*group, command, "--format", fmt, "--samples", "3")
             for group in REACH_GROUPS for command in cli.COMMANDS
             for fmt in cli.FORMATS]
    argvs += [(*group, "moduli", f"--theta={theta}")
              for group in REACH_GROUPS for theta in REACH_THETAS]
    cli._context.cache_clear()
    quiver.fixed_candidates.cache_clear()
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    codes = set()
    with (contextlib.redirect_stdout(io.StringIO()),
          contextlib.redirect_stderr(io.StringIO())):
        sys.setprofile(profile)
        try:
            for argv in argvs:
                codes.add(cli.main(list(argv)))
        finally:
            sys.setprofile(None)
    assert codes == {0, 2}  # 2: a format a command does not draw, the wall
    functions = {name: inspect.unwrap(getattr(clab, name))
                 for name in clab.__all__}
    unreached = {name for name, fn in functions.items()
                 if inspect.isfunction(fn) and fn.__code__ not in called}
    assert unreached == UNREACHED_EXPORTS
