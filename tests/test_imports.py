"""Every module of the package uses each name it imports."""

import ast
from pathlib import Path

import pytest

import flagsub

MODULES = sorted(
    p for p in Path(flagsub.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def _imported_names(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {a.asname or a.name for a in node.names}
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert _imported_names(tree) - used == set()
