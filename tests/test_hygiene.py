"""Source hygiene: no unused imports and no unreferenced definitions.

No linter ships with the package, so this parses each module under
src/graphcoh/ and each script under scripts/, and fails on imported names
that are never referenced (the package __init__, which re-exports, is
exempt).  It also fails on module-level functions, classes and constants
of src/graphcoh/ that nothing in src/, tests/ or scripts/ names outside
their own definition (dunder names are exempt), on private (_-prefixed)
ones that only tests name, on package names the
benchmark's tracer wraps or reads that no longer exist, on calls to
splitlines() outside errors.py, whose line reader every text format shares,
on third-party modules a test importorskips that the dev extra of
pyproject.toml does not list, and on front-end code other than the shared
runner that decides how a run ends.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "graphcoh"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
SOURCES = sorted(
    p for d in ("src", "tests", "scripts") for p in (ROOT / d).rglob("*.py")
)
LIBRARY = [p for p in SOURCES if ROOT / "tests" not in p.parents]


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


def private_definitions_unused(module: Path, library: list[Path]) -> list[str]:
    """Private definitions in module that no statement of the library (src/
    and scripts/, not tests/) names but their own."""
    return [d for d in unreferenced_definitions(module, library) if d.startswith("_")]


def test_private_definition_named_only_by_a_test_is_detected(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("def _helper():\n    pass\n\n\ndef _used():\n    pass\n\n\nRESULT = _used()\n")
    test = tmp_path / "test_mod.py"
    test.write_text("from mod import RESULT, _helper\n_helper()\nRESULT\n")
    assert private_definitions_unused(module, [module]) == ["_helper (line 1)"]
    assert unreferenced_definitions(module, [module, test]) == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_private_definitions_are_named_outside_tests(path):
    """Tests alone keep no private helper alive: the library must name it."""
    assert private_definitions_unused(path, LIBRARY) == []


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


def importorskip_modules(source: str) -> set[str]:
    """Top-level modules that pytest.importorskip calls in source name."""
    return {
        n.args[0].value.split(".")[0]
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and n.func.attr == "importorskip"
        and n.args
        and isinstance(n.args[0], ast.Constant)
    }


def test_importorskip_module_is_detected():
    source = 'import pytest\nsympy = pytest.importorskip("sympy")\nnx = pytest.importorskip("networkx.algorithms")\n'
    assert importorskip_modules(source) == {"sympy", "networkx"}


def test_dev_extra_lists_every_module_a_test_skips_without():
    """An install with the dev extra runs every test that importorskips a
    third-party module; the standard library needs no listing."""
    tomllib = pytest.importorskip("tomllib")
    with (ROOT / "pyproject.toml").open("rb") as fh:
        dev = tomllib.load(fh)["project"]["optional-dependencies"]["dev"]
    listed = {re.match(r"[A-Za-z0-9_.-]+", req)[0].lower().replace("-", "_") for req in dev}
    skipped = set().union(*(importorskip_modules(p.read_text()) for p in (ROOT / "tests").glob("*.py")))
    assert "sympy" in skipped
    assert sorted(skipped - listed - set(sys.stdlib_module_names)) == []


EXIT_POLICY_ERRORS = {"GraphCohError", "OSError", "BrokenPipeError"}


def exit_policy_handlers(source: str) -> list[tuple[str, int]]:
    """(top-level definition, line) of each except clause in source that
    names an error of the exit policy, bare or as a module attribute."""
    out = []
    for statement in ast.parse(source).body:
        owner = getattr(statement, "name", "<module>")
        for n in ast.walk(statement):
            if isinstance(n, ast.ExceptHandler) and n.type is not None:
                named = {getattr(x, "id", None) or getattr(x, "attr", None) for x in ast.walk(n.type)}
                if named & EXIT_POLICY_ERRORS:
                    out.append((owner, n.lineno))
    return out


def test_exit_policy_handler_is_detected():
    source = (
        "def run():\n    try:\n        pass\n    except (ValueError, errors.GraphCohError):\n"
        "        pass\n\n\ndef ok():\n    try:\n        pass\n    except KeyError:\n        pass\n\n\n"
        "try:\n    import x\nexcept OSError:\n    pass\n"
    )
    assert exit_policy_handlers(source) == [("run", 4), ("<module>", 17)]


def test_only_the_shared_runner_decides_how_a_front_end_ends():
    """In cli.py and the scripts, only cli.run_front_end catches the errors
    that end a run, so every front end ends the same way."""
    found = {p.name: exit_policy_handlers(p.read_text()) for p in [PACKAGE / "cli.py", *SCRIPTS]}
    owners = {name: {owner for owner, _ in handlers} for name, handlers in found.items()}
    assert owners == {"cli.py": {"run_front_end"}, **{p.name: set() for p in SCRIPTS}}
