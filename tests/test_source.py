"""Checks on the package source itself."""

import ast
from pathlib import Path

import schubert_clans

PACKAGE_DIR = Path(schubert_clans.__file__).parent


def test_no_assert_statements():
    # `python -O` strips assert statements, so internal invariants must
    # raise explicitly instead
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []
