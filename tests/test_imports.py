"""Every name a source module imports is used in it, every private
module-level name is used somewhere in the package, and every name the
package exports and every public method of its public classes is used
by its pipeline.  An import kept on purpose carries `# noqa: F401` on
its line, as flake8 and ruff read it."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "vpshell").glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"]


def _unused_imports(path: Path) -> list:
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text, filename=str(path))
    imported = {}  # bound name -> line number
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, ast.ImportFrom) and node.module == "__future__"
        ):
            continue
        statement = lines[node.lineno - 1 : node.end_lineno]
        for alias in node.names:
            # the line naming alias, for a parenthesized import's noqa
            named = re.compile(rf"\b{re.escape(alias.name)}\b")
            if not any(named.search(line) and "noqa: F401" in line for line in statement):
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path) == []


def _private_definitions(tree) -> list:
    """Module-level `_name` defs, classes and assignment targets."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def test_every_private_helper_is_used():
    """A private name only its own definition mentions is dead code that a
    deletion left behind."""
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in PACKAGE}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    orphans = [
        f"{name}:{helper}"
        for name, tree in trees.items()
        for helper in _private_definitions(tree)
        if helper not in used
    ]
    assert orphans == []


def test_only_the_ini_writer_and_reader_make_a_parser():
    """Every INI file reporting.py writes goes through _write_ini, and every
    one it reads through _reading_ini, so no other function builds its own
    parser and formats its own values."""
    path = next(p for p in SOURCES if p.name == "reporting.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    users = {
        function.name
        for function in ast.walk(tree)
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(function)
        if isinstance(node, ast.Name) and node.id == "_new_parser"
    }
    assert users == {"_write_ini", "_reading_ini"}


# Kept for the tests alone: evaluate_reduced is f0 at a point, the
# sampler's bit-for-bit reference and the quadrature tests' integrand.
TEST_REFERENCES = {"evaluate_reduced"}


def _references(tree) -> set:
    """Names a module refers to: loaded names, attributes, imported names
    and string constants (bench/tracing.py names what it patches), leaving
    out each top-level definition's references to its own name."""
    used = set()
    for top in tree.body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                found = {node.id}
            elif isinstance(node, ast.Attribute):
                found = {node.attr}
            elif isinstance(node, ast.ImportFrom):
                found = {alias.name for alias in node.names}
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                found = {node.value}
            else:
                continue
            used |= found - {own}
    return used


def _pipeline_references() -> set:
    """Names that another part of src/, bench/ or tests/test_acceptance.py
    refers to."""
    users = [*SOURCES, *sorted((ROOT / "bench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]
    return set().union(*(_references(ast.parse(p.read_text(), filename=str(p))) for p in users))


def _public_methods() -> set:
    """Public methods and properties of the public classes in src/."""
    return {
        node.name
        for path in SOURCES
        for top in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(top, ast.ClassDef) and not top.name.startswith("_")
        for node in top.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }


def test_every_export_is_used_by_the_pipeline():
    """A name vpshell exports is used by another part of src/, by bench/ or
    by tests/test_acceptance.py; one that only its own tests call is dead
    code with a test around it."""
    init = next(p for p in PACKAGE if p.name == "__init__.py")
    exported = {
        alias.asname or alias.name
        for node in ast.parse(init.read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert sorted(exported - _pipeline_references()) == []


def test_every_public_method_is_used_by_the_pipeline():
    """The same rule for the public methods of public classes, which an
    export does not name."""
    unused = _public_methods() - _pipeline_references()
    assert sorted(unused - TEST_REFERENCES) == []
    assert TEST_REFERENCES <= unused  # the exception is still needed


# The package's layers, lowest first.  A module imports only modules
# before it, so the verdict types live in design with the checks that make
# them: initial_data, the data, never imports the module that checks it.
LAYERS = (
    "phase_space", "bounds", "field", "dynamics", "initial_data",
    "design", "oracle_suite", "reporting", "cli",
)


def _package_imports(tree) -> set:
    """The package modules a module imports with `from .x import` or
    `from . import x`, at any depth in it (cli imports oracle_suite lazily)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return found & set(LAYERS)


def test_every_module_imports_only_lower_layers():
    assert sorted(p.stem for p in SOURCES) == sorted(LAYERS)
    upward = [
        f"{path.stem} imports {imported}"
        for path in SOURCES
        for imported in sorted(_package_imports(ast.parse(path.read_text(), filename=str(path))))
        if LAYERS.index(imported) >= LAYERS.index(path.stem)
    ]
    assert upward == []
