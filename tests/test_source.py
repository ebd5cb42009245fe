"""Checks on the package source itself."""

import ast
import importlib
from pathlib import Path

import schubert_clans

PACKAGE_DIR = Path(schubert_clans.__file__).parent
TRACER_LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def test_no_assert_statements():
    # `python -O` strips assert statements, so internal invariants must
    # raise explicitly instead
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_traced_names_exist():
    # the benchmark tracer wraps these by name; deleting one breaks the
    # traced run, so it must fail here first
    tree = ast.parse(TRACER_LAYERS.read_text(), filename=str(TRACER_LAYERS))
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("SPAN_FUNCTIONS", "COUNTED_FUNCTIONS")
    }
    assert set(tables) == {"SPAN_FUNCTIONS", "COUNTED_FUNCTIONS"}
    missing = [
        f"{module}.{name}"
        for table in tables.values()
        for module, names in table.items()
        for name in names
        if not hasattr(importlib.import_module(f"schubert_clans.{module}"), name)
    ]
    assert missing == []
    assert hasattr(schubert_clans.oracle, "_SCHUBERT_CACHE")
