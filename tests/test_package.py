"""Checks over the package source as a whole."""

import ast
from pathlib import Path

import weldlab

PACKAGE = Path(weldlab.__file__).parent


def _references(tree: ast.AST) -> set[str]:
    """Every name that code in `tree` refers to, as a name or an attribute.
    An import is not a use: a helper that is still imported after its last
    caller went is dead too."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_private_helper_is_used():
    """A private module-level function or class that nothing in the package
    refers to (its own body aside) is dead code, such as a helper left
    behind when its last caller was refactored away."""
    private, used = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            names = _references(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names.discard(node.name)
                if node.name.startswith("_") and not node.name.startswith("__"):
                    private[node.name] = f"{path.name}:{node.lineno}"
            used |= names
    assert {name: at for name, at in private.items() if name not in used} == {}
