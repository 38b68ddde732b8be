"""Every module-level import in the package and the scripts is used (no
linter needed)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "monogamy_lab"
# __init__.py imports its names to re-export them
FILES = {p.name: p for p in SRC.glob("*.py") if p.name != "__init__.py"}
FILES.update({f"scripts/{p.name}": p for p in (ROOT / "scripts").glob("*.py")})


def imported_names(tree: ast.Module):
    """The names the module's top-level import statements bind."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("module", sorted(FILES))
def test_module_uses_every_import(module):
    tree = ast.parse(FILES[module].read_text(), module)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in imported_names(tree) if name not in used] == []
