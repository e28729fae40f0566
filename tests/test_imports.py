"""Every module of the package uses each name it imports, and every
module-private name the package defines is used somewhere in it."""

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


def _top_level_private(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """The module-private names a module defines at top level, each with
    the statement that defines it; dunder names are left out."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        out += [
            (name, node)
            for name in names
            if name.startswith("_") and not name.startswith("__")
        ]
    return out


def _references(tree: ast.AST) -> list[tuple[str, ast.AST]]:
    """Every name a tree reads, as a bare name or an attribute, with the
    node that reads it."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.append((node.id, node))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node))
    return out


def test_every_private_name_is_used():
    # A private helper read only inside its own definition (a leftover
    # of a refactor, or a recursion nothing else calls) is dead code.
    trees = {
        p.name: ast.parse(p.read_text())
        for p in Path(flagsub.__file__).parent.glob("*.py")
    }
    refs = [ref for tree in trees.values() for ref in _references(tree)]
    unused = []
    for module, tree in sorted(trees.items()):
        for name, defn in _top_level_private(tree):
            inside = {id(n) for n in ast.walk(defn)}
            if not any(r == name and id(n) not in inside for r, n in refs):
                unused.append(f"{module}:{name}")
    assert unused == []
