"""Checks over the package source as a whole."""

import ast
import importlib
import importlib.util
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest

import weldlab

PACKAGE = Path(weldlab.__file__).parent


@pytest.fixture(scope="module")
def layers():
    """bench/layers.py, the script that times two checkouts."""
    spec = importlib.util.spec_from_file_location(
        "layers", PACKAGE.parents[1] / "bench" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _references(tree: ast.AST) -> Counter:
    """How often code in `tree` refers to each name, as a name or an
    attribute.  An import is not a use: a helper that is still imported
    after its last caller went is dead too."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_every_private_helper_is_used():
    """A helper that nothing in the package refers to (its own body aside)
    is dead code, such as one left behind when its last caller was
    refactored away.  The helpers are the private module-level functions
    and classes, and the methods of the classes of a private module
    (`_rng`), which only the package calls."""
    helpers, used = {}, Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            used += _references(node)
            if not isinstance(node, _DEFINITIONS):
                continue
            defs = [node] if _private(node.name) else []
            if isinstance(node, ast.ClassDef) and _private(path.stem):
                defs += [d for d in node.body if isinstance(d, _DEFINITIONS)
                         and not d.name.startswith("__")]
            for d in defs:
                helpers[f"{path.name}:{d.lineno} {d.name}"] = d
    assert [at for at, d in helpers.items()
            if used[d.name] == _references(d)[d.name]] == []


_GENERATOR = {"GOLDEN_GAMMA", "MIX_MUL_1", "MIX_MUL_2", "MASK64", "mix64"}


def test_only_rng_names_the_generator():
    """`_rng` owns SplitMix64: every other module draws and derives seeds
    through it, and none names the generator's constants or its finalizer,
    so the arithmetic that fixes every random choice is written once."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "_rng.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name for a in node.names]
            elif isinstance(node, (ast.Name, ast.Attribute)):
                names = [node.id if isinstance(node, ast.Name) else node.attr]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}"
                      for name in names if name in _GENERATOR]
    assert found == []


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


def test_two_copies_of_the_package_print_the_same_report(layers):
    # bench/layers.py times two checkouts in one process, each imported under
    # its own package name, so each copy must import only itself: here an
    # import of `weldlab` itself fails.
    hidden = {m: None for m in sys.modules
              if m == "weldlab" or m.startswith("weldlab.")}
    reports = []
    with mock.patch.dict(sys.modules, hidden):
        for name in ("weldlab_copy_a", "weldlab_copy_b"):
            layers.load_copy(PACKAGE.parent, name)
            pipeline = importlib.import_module(f"{name}.pipeline")
            reports.append(layers.report_bytes(pipeline, {}))
    assert reports[0] == reports[1]


def test_timed_checkouts_are_named_by_their_sources(layers, tmp_path):
    """bench/layers.py names each side by a digest of its sources, which
    copies without git history have too."""
    sides = [tmp_path / "a", tmp_path / "b"]
    for side in sides:
        shutil.copytree(PACKAGE, side / "src" / "weldlab",
                        ignore=shutil.ignore_patterns("__pycache__"))
        assert layers.git_head(side) == ""
    digest = layers.source_digest(sides[0])
    assert len(digest) == 64
    assert layers.source_digest(sides[1]) == digest
    module = sides[1] / "src" / "weldlab" / "cli.py"
    data = bytearray(module.read_bytes())
    data[0] ^= 1
    module.write_bytes(bytes(data))
    assert layers.source_digest(sides[1]) != digest
    # A repository without a commit names none either.
    subprocess.run(["git", "init", "-q", str(sides[0])], check=True)
    assert layers.git_head(sides[0]) == ""
