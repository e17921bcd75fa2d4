"""Structure guard: no private imports across modules, no unbounded caches,
no claim id outside the harness's catalog module, no settable cap
outside the greedy counter, no n! indexing walk outside web
enumeration, no direction-mask loop outside `graphs.orientations`, no
use of the solver gadget outside `engine._BMatching`, no read of a cap
outside the definitions `CAP_READERS` lists for it, no import inside a
library function, no `dataclasses` import, and no graph-level value in
the harness but through its one memo of `grog_and_distribution`.

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


CAP_PARAMETERS = {"cap", "n_cap", "arc_cap"}
# the 2^arcs greedy walk is the one cost a caller may cap
CAP_OWNERS = {"enumerate_greedy", "check_greedy_equivalence"}


def cap_parameters(tree: ast.AST) -> list[str]:
    """Parameters named cap, n_cap or arc_cap outside CAP_OWNERS."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        name = getattr(node, "name", "<lambda>")
        params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        found += [
            f"line {node.lineno}: {name}({p.arg})"
            for p in params
            if p.arg in CAP_PARAMETERS and name not in CAP_OWNERS
        ]
    return found


def callers(tree: ast.Module, module: str, name: str = "indexings") -> list[str]:
    """`module.name` of each top-level definition that calls `name`."""
    return [
        f"{module}.{getattr(top, 'name', '<module>')}"
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and _callee_name(node.func) == name
    ]


def _is_mask_range(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and _callee_name(node.func) == "range"
        and any(
            isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.LShift)
            and isinstance(arg.left, ast.Constant) and arg.left.value == 1
            for arg in node.args
        )
    )


def mask_loops(tree: ast.Module, module: str) -> list[str]:
    """`module.name` of each top-level definition that loops over `range(1 << ...)`."""
    return [
        f"{module}.{getattr(top, 'name', '<module>')}"
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, (ast.For, ast.comprehension)) and _is_mask_range(node.iter)
    ]


# The b-matching core owns the solver gadget: its augmenting-path search
# and its choice of copies.
GADGET_NAMES = {"_augment", "_free_copy_first"}


def gadget_users(tree: ast.Module, module: str, names=GADGET_NAMES) -> list[str]:
    """`module.name` of each top-level definition that reads a name in
    `names`, which includes calling it, once each."""
    return list(dict.fromkeys(
        f"{module}.{getattr(top, 'name', '<module>')}"
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
        and _callee_name(node) in names
    ))


# Each cap and the only top-level definitions that may read it: the one
# function that checks it, plus `webs`' alias of the indexing cap and the
# harness field that holds the greedy cap's default.
CAP_READERS = {
    "INDEXING_CAP": ["graphs.indexings", "webs.<module>"],
    "WEB_N_CAP": ["webs.check_web_order"],
    "WEB_EDGE_CAP": ["webs._check_base"],
    "GREEDY_ARC_CAP": ["claims.HarnessConfig", "engine.enumerate_greedy"],
    "SOLVER_GADGET_CAP": ["engine._BMatching"],
    "JACO_ORDER_CAP": ["jaco.jaco_table"],
}


def cap_constants(tree: ast.Module) -> list[str]:
    """Names ending in `_CAP` that a top-level assignment binds."""
    return [
        target.id
        for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id.endswith("_CAP")
    ]


# A deferred import inside a library call would move start-up cost into
# timed work and hide it from the benchmark's `setup_s`.  Only the CLI's
# subcommands, which import what each one uses, and the lazy namespace's
# `__getattr__` may import inside a function.
def _may_import(module: str, function: str) -> bool:
    return (module == "cli" and function.startswith("cmd_")) or (
        module == "__init__" and function == "__getattr__"
    )


def function_imports(tree: ast.Module, module: str) -> list[str]:
    """`import` statements inside a function body, by outermost function."""
    found = []

    def visit(node: ast.AST, function: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, function or child.name)
            elif isinstance(child, (ast.Import, ast.ImportFrom)) and function:
                if not _may_import(module, function):
                    found.append(f"line {child.lineno}: {module}.{function}")
            else:
                visit(child, function)

    visit(tree, None)
    return found


# `dataclasses` imports `inspect`, and with it `ast`, `dis` and `tokenize`:
# about 10 ms of start-up in every process.  Records are named tuples.
BANNED_MODULES = {"dataclasses"}


def banned_imports(tree: ast.AST) -> list[str]:
    """`import` and `from ... import` statements of a module in BANNED_MODULES."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [
            f"line {node.lineno}: {name}" for name in names if name.split(".")[0] in BANNED_MODULES
        ]
    return found


def _parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


@pytest.mark.parametrize("path", SRC_FILES + TEST_FILES, ids=lambda p: p.name)
def test_no_private_imports_across_modules(path):
    assert private_imports(_parse(path)) == []


@pytest.mark.parametrize("path", SRC_FILES, ids=lambda p: p.name)
def test_no_unbounded_caches(path):
    assert unbounded_caches(_parse(path)) == []


@pytest.mark.parametrize("path", SRC_FILES, ids=lambda p: p.name)
def test_no_cap_parameters(path):
    assert cap_parameters(_parse(path)) == []


def test_only_web_enumeration_walks_indexings():
    # graph-level values walk label placements, not the n! indexings
    found = [c for path in SRC_FILES for c in callers(_parse(path), path.stem)]
    assert found == ["webs.enumerate_webs"]


def test_only_orientations_walks_direction_masks():
    # web enumeration relabels the base's orientations instead
    loops = [c for path in SRC_FILES for c in mask_loops(_parse(path), path.stem)]
    assert loops == ["graphs.orientations"]


def test_only_the_b_matching_core_touches_the_gadget():
    # solve_exact and any later caller go through engine._BMatching
    users = [u for path in SRC_FILES for u in gadget_users(_parse(path), path.stem)]
    assert users == ["engine._BMatching"]


def test_the_cap_table_names_every_cap():
    caps = [c for path in SRC_FILES for c in cap_constants(_parse(path))]
    assert sorted(caps) == sorted(CAP_READERS)


@pytest.mark.parametrize("cap", CAP_READERS)
def test_each_cap_has_only_its_listed_readers(cap):
    # a cap compared in a second place drifts from the first: its message,
    # its bound or the order in which it is checked
    readers = [u for path in SRC_FILES for u in gadget_users(_parse(path), path.stem, {cap})]
    assert readers == CAP_READERS[cap]


@pytest.mark.parametrize("path", SRC_FILES, ids=lambda p: p.name)
def test_no_imports_inside_library_functions(path):
    assert function_imports(_parse(path), path.stem) == []


@pytest.mark.parametrize("path", SRC_FILES, ids=lambda p: p.name)
def test_no_dataclasses_import(path):
    assert banned_imports(_parse(path)) == []


def imported_names(tree: ast.AST) -> set[str]:
    """The last dotted part of each name that an import statement imports,
    whatever name it binds."""
    return {
        alias.name.split(".")[-1]
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }


# The harness reads g(G), its histogram and |Aut| for six claims; one memo
# walks each base's label placements and searches its |Aut| once for all of them.
WALK_ONCE = {"grog_number", "residual_distribution", "automorphism_count"}


def test_harness_walks_each_base_once():
    tree = _parse(ROOT / "src" / "grogweb" / "claims.py")
    assert gadget_users(tree, "claims", WALK_ONCE) == []
    assert imported_names(tree).isdisjoint(WALK_ONCE)
    assert callers(tree, "claims", "grog_and_distribution") == ["claims.run_claims"]


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
    tree = ast.parse(
        "def solve(web, cap=24): pass\n"
        "def walk(g, *, n_cap): pass\n"
        "runner = lambda c, arc_cap: c\n"
        "def enumerate_greedy(web, cap=24): pass\n"
        "def check_greedy_equivalence(corpus, arc_cap=24): pass\n"
        "def fine(web, capacity, max_arcs): pass\n"
    )
    assert cap_parameters(tree) == [
        "line 1: solve(cap)", "line 2: walk(n_cap)", "line 3: <lambda>(arc_cap)",
    ]
    tree = ast.parse(
        "def enumerate_webs(g):\n"
        "    def gen():\n"
        "        yield from indexings(g.n)\n"
        "    return gen()\n"
        "def solve_all(g):\n"
        "    return [solve(x) for x in graphs.indexings(g.n)]\n"
        "FIRST = next(indexings(3))\n"
        "def fine(g):\n"
        "    return indexings\n"
    )
    assert callers(tree, "webs") == [
        "webs.enumerate_webs", "webs.solve_all", "webs.<module>",
    ]
    tree = ast.parse(
        "from .webs import grog_and_distribution, grog_number as gn\n"
        "import grogweb.webs\n"
        "def check(n, values=grog_and_distribution):\n"
        "    return values(n), webs.residual_distribution(n)\n"
        "def run_claims(ids):\n"
        "    def values(base):\n"
        "        return grog_and_distribution(base)\n"
        "def sneak(g):\n"
        "    return webs.grog_and_distribution(g)\n"
    )
    assert gadget_users(tree, "claims", WALK_ONCE) == ["claims.check"]
    assert imported_names(tree) == {"grog_and_distribution", "grog_number", "webs"}
    assert callers(tree, "claims", "grog_and_distribution") == [
        "claims.run_claims", "claims.sneak",
    ]
    tree = ast.parse(
        "def orientations(g):\n"
        "    def gen():\n"
        "        for mask in range(1 << len(g.edges)):\n"
        "            yield mask\n"
        "    return gen()\n"
        "def enumerate_webs(g):\n"
        "    return [m for labels in g for m in range(0, 1 << g.eps)]\n"
        "for mask in range(1 << 3): pass\n"
        "def fine(g):\n"
        "    full = (1 << g.eps) - 1\n"
        "    return [k for k in range(g.eps)] + [m for m in range(2 << g.eps)]\n"
    )
    assert mask_loops(tree, "graphs") == [
        "graphs.orientations", "graphs.enumerate_webs", "graphs.<module>",
    ]
    tree = ast.parse(
        "SOLVER_GADGET_CAP = 2**17\n"
        "class _BMatching:\n"
        "    def __init__(self, arcs):\n"
        "        if len(arcs) > SOLVER_GADGET_CAP:\n"
        "            _augment(self.adj, self.mate, self.dead, 0)\n"
        "    def take(self, k):\n"
        "        return _augment(self.adj, self.mate, self.dead, 2 * k)\n"
        "def solve_exact(web):\n"
        "    return _free_copy_first(range(3), [-1] * 3, bytearray(3))\n"
        "def check(arcs):\n"
        "    return len(arcs) <= engine.SOLVER_GADGET_CAP\n"
        "search = _augment\n"
        "def fine(web):\n"
        "    augment, note = 1, '_augment'\n"
        "    return augment(web)\n"
    )
    assert gadget_users(tree, "engine") == [
        "engine._BMatching", "engine.solve_exact", "engine.<module>",
    ]
    assert gadget_users(tree, "engine", {"SOLVER_GADGET_CAP"}) == [
        "engine._BMatching", "engine.check",
    ]
    tree = ast.parse(
        "from .graphs import INDEXING_CAP\n"
        "WEB_N_CAP = INDEXING_CAP\n"
        "def check_web_order(n):\n"
        "    if n > WEB_N_CAP:\n"
        "        raise CapExceeded(n)\n"
        "def automorphism_count(g):\n"
        "    return g.n <= webs.WEB_N_CAP\n"
        "def fine(g):\n"
        "    check_web_order(g.n)\n"
        "    return 'WEB_N_CAP'\n"
    )
    assert gadget_users(tree, "webs", {"WEB_N_CAP"}) == [
        "webs.check_web_order", "webs.automorphism_count",
    ]
    # the alias reads the indexing cap, not the cap it binds
    assert gadget_users(tree, "webs", {"INDEXING_CAP"}) == ["webs.<module>"]
    assert cap_constants(tree) == ["WEB_N_CAP"]
    tree = ast.parse(
        "import json\n"
        "def cmd_jaco(args):\n"
        "    from .jaco import build_jaco\n"
        "def solve(web):\n"
        "    import math\n"
        "    def inner():\n"
        "        from . import engine\n"
        "class Game:\n"
        "    def play(self):\n"
        "        if self:\n"
        "            import random\n"
        "def __getattr__(name):\n"
        "    from importlib import import_module\n"
    )
    assert function_imports(tree, "webs") == [
        "line 3: webs.cmd_jaco", "line 5: webs.solve", "line 7: webs.solve",
        "line 11: webs.play", "line 13: webs.__getattr__",
    ]
    assert function_imports(tree, "cli") == [
        "line 5: cli.solve", "line 7: cli.solve", "line 11: cli.play", "line 13: cli.__getattr__",
    ]
    assert function_imports(tree, "__init__") == [
        "line 3: __init__.cmd_jaco", "line 5: __init__.solve", "line 7: __init__.solve",
        "line 11: __init__.play",
    ]
    tree = ast.parse(
        "import dataclasses\n"
        "from dataclasses import dataclass, field\n"
        "import json, dataclasses as dc\n"
        "def f():\n"
        "    from dataclasses import replace\n"
        "from typing import NamedTuple\n"
        "from .dataclasses import x\n"
        "import dataclasses_json\n"
    )
    assert banned_imports(tree) == [
        "line 1: dataclasses", "line 2: dataclasses", "line 3: dataclasses",
        "line 5: dataclasses",
    ]
