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


_BLAS_CALLS = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum"}


def _dotted(node: ast.AST) -> list[str]:
    """The parts of a called name: ``np.linalg.solve`` -> np, linalg, solve."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return parts[::-1]


def test_no_report_value_goes_through_blas():
    """A BLAS product picks its kernel, and so its rounding, from the CPU,
    so two machines could print different reports for the same input.  No
    module may use ``@`` or call a numpy product or anything in `linalg`;
    sums of products go through `np.add.reduce` in a fixed order."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)):
                bad = isinstance(node.op, ast.MatMult)
            elif isinstance(node, ast.Call):
                parts = _dotted(node.func)
                bad = bool(parts) and (parts[-1] in _BLAS_CALLS
                                       or "linalg" in parts)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [a.name for a in node.names]
                if isinstance(node, ast.ImportFrom):
                    modules.append(node.module or "")
                bad = any("linalg" in m.split(".") for m in modules)
            else:
                continue
            if bad:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _frozen_dataclass(decorator: ast.AST) -> bool:
    """Is `decorator` ``@dataclass(..., frozen=True, ...)``?"""
    return (isinstance(decorator, ast.Call)
            and _dotted(decorator.func)[-1:] == ["dataclass"]
            and any(k.arg == "frozen" and isinstance(k.value, ast.Constant)
                    and k.value.value is True for k in decorator.keywords))


def test_every_frozen_dataclass_checks_its_input():
    """A frozen dataclass is for a type whose constructor checks or
    normalizes its input, in `__post_init__`.  A plain immutable value is a
    `NamedTuple`, which costs less to define at import and to build."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ClassDef)
                    and any(map(_frozen_dataclass, node.decorator_list))
                    and "__post_init__" not in {
                        s.name for s in node.body
                        if isinstance(s, ast.FunctionDef)}):
                found.append(f"{path.name}:{node.lineno} {node.name}")
    assert found == []
