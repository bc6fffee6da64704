"""Source hygiene: no unused imports and no unreferenced definitions.

No linter ships with the package, so this parses each module under
src/graphcoh/ and each script under scripts/, and fails on imported names
that are never referenced (the package __init__, which re-exports, is
exempt).  It also fails on module-level functions, classes and constants
of src/graphcoh/ that nothing in src/, tests/ or scripts/ names outside
their own definition (dunder names are exempt), on package names the
benchmark's tracer wraps or reads that no longer exist, and on calls to
splitlines() outside errors.py, whose line reader every text format shares.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "graphcoh"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
SOURCES = sorted(
    p for d in ("src", "tests", "scripts") for p in (ROOT / d).rglob("*.py")
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_is_detected():
    source = "import os\nfrom typing import Mapping, Sequence\nx: Sequence = os.sep\n"
    assert unused_imports(source) == ["Mapping (line 2)"]


@pytest.mark.parametrize("path", MODULES + SCRIPTS, ids=lambda p: p.name)
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def splitlines_calls(source: str) -> list[int]:
    """Line numbers of the calls to a splitlines() method in source."""
    return [
        n.lineno
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and n.func.attr == "splitlines"
    ]


def test_splitlines_call_is_detected():
    source = "def lines(text):\n    return [s.strip() for s in text.splitlines()]\n"
    assert splitlines_calls(source) == [2]
    assert splitlines_calls("def lines(text):\n    return str.splitlines(text)\n") == [2]


def test_only_the_shared_line_reader_splits_lines():
    """Text formats read lines through errors._data_lines, one rule for all."""
    calls = {p.name: splitlines_calls(p.read_text()) for p in PACKAGE.glob("*.py")}
    assert {name: lines for name, lines in calls.items() if lines and name != "errors.py"} == {}
    assert calls["errors.py"]


def defined_names(statement: ast.stmt) -> list[str]:
    """Module-level names a top-level statement defines (dunders excluded)."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [statement.name]
    elif isinstance(statement, ast.Assign):
        names = [n.id for t in statement.targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    elif isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name):
        names = [statement.target.id]
    else:
        names = []
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def referenced_names(node: ast.AST) -> set[str]:
    """Names read, attributes accessed and names imported anywhere under node."""
    out: set[str] = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.split(".")[-1])
    return out


def unreferenced_definitions(module: Path, sources: list[Path]) -> list[str]:
    """Definitions in module that no statement but their own names."""
    defining = ast.parse(module.read_text()).body
    own = [referenced_names(statement) for statement in defining]
    elsewhere: set[str] = set()
    for path in sources:
        if path != module:
            elsewhere |= referenced_names(ast.parse(path.read_text()))
    return [
        f"{name} (line {statement.lineno})"
        for i, statement in enumerate(defining)
        for name in defined_names(statement)
        if name not in elsewhere and not any(name in refs for j, refs in enumerate(own) if j != i)
    ]


def test_unreferenced_definition_is_detected(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "LIMIT = 3\n__all__ = []\n\n\ndef used():\n    return LIMIT\n\n\n"
        "def unused():\n    return unused\n\n\nclass Ghost:\n    pass\n"
    )
    caller = tmp_path / "caller.py"
    caller.write_text("import mod\nmod.used()\n")
    assert unreferenced_definitions(module, [module, caller]) == [
        "unused (line 9)",
        "Ghost (line 13)",
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_unreferenced_definitions(path):
    assert unreferenced_definitions(path, SOURCES) == []


def test_benchmark_tracer_hooks_resolve():
    """Every function perfbench/tracer.py wraps or reads still exists.

    A renamed function would only show in the trace's `missing_wrappers`
    and leave its per-layer metrics at 0.
    """
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for home, names in tracer.LAYERS.values():
        module = importlib.import_module(home)
        for qual in names:
            owner = module
            for attr in qual.split("."):
                assert hasattr(owner, attr), f"{home}.{qual}"
                owner = getattr(owner, attr)
    canonical = importlib.import_module("graphcoh.canonical")
    assert callable(canonical._canonicalize_cached.cache_info)
