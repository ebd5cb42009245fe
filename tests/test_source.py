"""Checks on the package source itself."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import schubert_clans
import schubert_clans.cli

PACKAGE_DIR = Path(schubert_clans.__file__).parent
REPO = Path(__file__).resolve().parent.parent
TRACER_LAYERS = REPO / "perfbench" / "layers.py"

# Public top-level names that no other code in the package refers to, each
# kept for the reason given.  Reference algorithms that only tests need
# belong in tests/conftest.py instead.
UNREFERENCED_PUBLIC = {
    "clans.gamma_plus": "paper invariant: pluses and completed pairs in a prefix",
    "clans.gamma_minus": "paper invariant: minuses and completed pairs in a prefix",
    "clans.gamma_cross": "paper invariant: pairs straddling a window",
    "clans.orbit_dimension": "paper invariant: dimension of the clan's orbit",
    "clans.is_sign_only": "paper object: the clans of the closed orbits",
    "permutations.code": "the Lehmer code that names the oracle's leading terms",
    # the MultiPoly wrappers over the kernels oracle_product runs on
    "oracle.schubert_poly": "kept only for perfbench, which reads its coeffs and traces it",
    "oracle.multiply": "kept only for perfbench, which traces it",
    "oracle.expand_schubert": "kept only for perfbench, which traces it",
    "richardson.shuffles_comparable": "the paper's comparability test for shuffle pairs",
    "richardson.structure_constant": "the paper's c_{u,v}^w for one w",
    "weak_order.classify_root": "the benchmark traces it by name",
    "permutations.enumerate_by_length": "the benchmark traces it by name",
    # the process caches' public handles; their BoundedStore trims itself
    "weak_order.clear_w_set_table": "public API: frees the shared w-set table",
    "weak_order.w_set_table_size": "public API: permutations the shared w-set table stores",
    "oracle.clear_schubert_cache": "public API: frees the shared Schubert polynomial cache",
    "oracle.schubert_cache_size": "public API: polynomials the shared Schubert cache stores",
}

# Functions that call themselves by name, each kept for the reason given.
# The Python stack bounds their depth, so a new one must say why its depth
# stays small.
RECURSIVE = {
    "cli._write": "its depth is the report's nesting",
}


def test_no_assert_statements():
    # `python -O` strips assert statements, so internal invariants must
    # raise explicitly instead
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_no_environment_reads():
    # every setting is an argument or a CLI option, so no result depends on
    # the shell the package runs in
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module or "").split(".")[0]] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names if name in ("os", "environ", "getenv")]
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


def test_recursion_is_listed():
    found = set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        stack = [(path.stem, ast.parse(path.read_text(), filename=str(path)))]
        while stack:
            prefix, node = stack.pop()
            for child in ast.iter_child_nodes(node):
                name = prefix
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    name = f"{prefix}.{child.name}"
                    calls = {getattr(c.func, "id", None) for c in ast.walk(child) if isinstance(c, ast.Call)}
                    if not isinstance(child, ast.ClassDef) and child.name in calls:
                        found.add(name)
                stack.append((name, child))
    assert sorted(found) == sorted(RECURSIVE)


def _references(module, tree, modules):
    """(module, name) pairs that the code of one module refers to, leaving
    out each top-level function's or class's references to itself."""
    imported = {
        alias.asname or alias.name: (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
    }
    refs = set()
    for stmt in tree.body:
        owner = (module, getattr(stmt, "name", None))
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                target = imported.get(node.id, (module, node.id))
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
                target = (node.value.id, node.attr)
            else:
                continue
            if target != owner:
                refs.add(target)
    return refs


def test_public_names_are_used_in_the_package():
    modules = {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.stem != "__init__"
    }
    refs = set().union(*(_references(m, tree, modules) for m, tree in modules.items()))
    unreferenced = {
        f"{module}.{node.name}"
        for module, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and (module, node.name) not in refs
    }
    assert sorted(unreferenced - set(UNREFERENCED_PUBLIC)) == []
    # an entry the package has started to use is stale
    assert sorted(set(UNREFERENCED_PUBLIC) - unreferenced) == []


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", (REPO / "README.md").read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def _pyproject():
    tomllib = pytest.importorskip("tomllib", reason="tomllib is new in Python 3.11")
    return tomllib.loads((REPO / "pyproject.toml").read_text())


def test_console_script_resolves_to_cli_main():
    # tier-1 runs the package from src/, so only this test reads the entry
    # point an installed package would get
    target = _pyproject()["project"]["scripts"]["schubert-clans"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is schubert_clans.cli.main


def test_package_data_globs_cover_the_data_files():
    globs = _pyproject()["tool"]["setuptools"]["package-data"]["schubert_clans"]
    files = [path.relative_to(PACKAGE_DIR) for path in (PACKAGE_DIR / "data").rglob("*")
             if path.is_file()]
    assert files
    # setuptools globs from the package directory: a glob's parts match a
    # path's parts one for one
    missed = [str(path) for path in files
              if not any(len(path.parts) == len(Path(glob).parts) and path.match(glob)
                         for glob in globs)]
    assert missed == []
