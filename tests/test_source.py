"""Checks on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "falk3"


def test_no_assert_statements_in_the_package():
    # python -O strips assert, so no check in the package may rely on one;
    # this test fails by raise for the same reason
    sources = sorted(SRC.glob("*.py"))
    if not sources:
        raise FileNotFoundError(f"no package sources under {SRC}")
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    if found:
        raise AssertionError(f"assert statements in the package: {', '.join(found)}")
