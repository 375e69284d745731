import ast
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
