"""Source hygiene checks on the package code."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pi1curves"


def test_no_assert_in_package_code():
    # invariants are require(..., "INTERNAL_INVARIANT", ...): an assert
    # disappears under python -O and ends in a traceback, not a DomainError
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 10
    found = [f"{path.name}:{node.lineno}" for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
