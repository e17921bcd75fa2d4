"""Structure guard: no private imports across modules, no unbounded caches,
and no claim id outside the harness's catalog module.

Parses the package and test sources with `ast`, so the rules hold for
code that is never executed as well.
"""

import ast
from pathlib import Path

import pytest

from grogweb.claims import CLAIM_INFO

ROOT = Path(__file__).resolve().parent.parent
SRC_FILES = sorted((ROOT / "src" / "grogweb").glob("*.py"))
TEST_FILES = sorted((ROOT / "tests").glob("*.py"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_imports(tree: ast.AST) -> list[str]:
    """`from .x import _name` or `from grogweb.x import _name` statements."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "grogweb":
            continue
        for alias in node.names:
            if _is_private(alias.name):
                found.append(f"line {node.lineno}: {'.' * node.level}{module} import {alias.name}")
    return found


def _callee_name(node: ast.AST) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def unbounded_caches(tree: ast.AST) -> list[str]:
    """`@lru_cache(maxsize=None)`, `@lru_cache(None)` and `@cache` decorators."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for deco in node.decorator_list:
            if isinstance(deco, ast.Call) and _callee_name(deco.func) == "lru_cache":
                sizes = [kw.value for kw in deco.keywords if kw.arg == "maxsize"] + deco.args[:1]
                if any(isinstance(v, ast.Constant) and v.value is None for v in sizes):
                    found.append(f"line {deco.lineno}: lru_cache(maxsize=None) on {node.name}")
            elif _callee_name(deco) == "cache":
                found.append(f"line {deco.lineno}: cache on {node.name}")
    return found


def string_literals(tree: ast.AST, wanted) -> list[str]:
    """String constants in `tree` that are members of `wanted`."""
    return [
        f"line {node.lineno}: {node.value!r}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in wanted
    ]


def _parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("path", SRC_FILES + TEST_FILES, ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    assert private_imports(_parse(path)) == []


@pytest.mark.parametrize("path", SRC_FILES, ids=lambda p: p.name)
def test_no_unbounded_caches(path):
    assert unbounded_caches(_parse(path)) == []


def test_cli_holds_no_claim_id():
    cli = ROOT / "src" / "grogweb" / "cli.py"
    assert string_literals(_parse(cli), CLAIM_INFO) == []


def test_guard_catches_violations():
    tree = ast.parse(
        "from .webs import _helper\n"
        "from grogweb.engine import _arc_tables, Web\n"
        "from . import __version__\n"
        "from os import _exit\n"
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@lru_cache(maxsize=None)\n"
        "def a(): pass\n"
        "@functools.lru_cache(None)\n"
        "def b(): pass\n"
        "@functools.cache\n"
        "def c(): pass\n"
        "@cache\n"
        "def d(): pass\n"
        "@lru_cache(maxsize=64)\n"
        "def e(): pass\n"
    )
    assert len(private_imports(tree)) == 2
    assert [line.split(" on ")[-1] for line in unbounded_caches(tree)] == ["a", "b", "c", "d"]
    tree = ast.parse('FIELDS = {"cor-2.5": "n_max_path"}\nNOTE = "cor-2.5 runs"\n')
    assert string_literals(tree, CLAIM_INFO) == ["line 1: 'cor-2.5'"]
