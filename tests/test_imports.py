"""Every name a library module imports is referenced in that module."""

import ast
from pathlib import Path

import pytest

MODULES = sorted(
    p for p in (Path(__file__).resolve().parent.parent / "src" / "hyperell").glob("*.py")
    if p.name != "__init__.py"  # the package namespace re-exports by design
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_scanner_flags_an_unused_import():
    source = "import math\nimport os\nfrom json import dumps, loads\nprint(os.sep, loads)\n"
    assert unused_imports(source) == ["math (line 1)", "dumps (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
