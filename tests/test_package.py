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
