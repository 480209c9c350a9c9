"""Every name a source module imports is used in it.  An import kept on
purpose carries `# noqa: F401` on its line, as flake8 and ruff read it."""

import ast
import re
from pathlib import Path

import pytest

SOURCES = sorted(
    p for p in (Path(__file__).resolve().parents[1] / "src" / "vpshell").glob("*.py")
    if p.name != "__init__.py"
)


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
