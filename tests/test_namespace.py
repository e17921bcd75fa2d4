"""The lazy `grogweb` namespace and what each entry point loads.

`import grogweb` loads no submodule, an exported name loads only the
submodule that defines it, each CLI subcommand loads only the modules
it uses, and no call loads `dataclasses` or `inspect`.  Module sets are
read from `sys.modules` of a fresh interpreter, since this test process
has long since imported the whole package.
"""

import importlib
import os
import subprocess
import sys

import pytest
from conftest import SRC

import grogweb

# the public names as the eager `__init__` exported them, by defining submodule
EXPORTS = {
    "claims": ("CLAIM_ORDER", "ClaimReport", "HarnessConfig", "run_all", "run_claims"),
    "competition": (
        "CompetitionGraph", "check_theorem_1_1", "competition_graph",
        "jaco_competition_closed_form",
    ),
    "engine": (
        "GreedyResult", "GrogState", "IllegalBatchError", "NonTerminalError",
        "PredationBatch", "RunResult", "SolveResult", "Strategy", "StrategyError", "Web",
        "apply_batch", "enumerate_greedy", "legal_predations", "new_state", "run_strategy",
        "solve_exact",
    ),
    "graphs": (
        "CapExceeded", "Digraph", "GraphError", "UGraph", "indexings", "is_connected",
        "make_digraph", "make_ugraph", "orientations", "underlying",
    ),
    "jaco": ("JacoGraph", "build_jaco", "jaconian_vertex"),
    "webs": (
        "GraphGrogResult", "automorphism_count", "complete_graph", "cycle_graph",
        "enumerate_webs", "grog_number", "path_graph", "residual_distribution",
        "star_graph", "web_count_formula",
    ),
}
ALL = [
    "CLAIM_ORDER", "CapExceeded", "ClaimReport", "CompetitionGraph", "Digraph",
    "GraphError", "GraphGrogResult", "GreedyResult", "GrogState", "HarnessConfig",
    "IllegalBatchError", "JacoGraph", "NonTerminalError", "PredationBatch", "RunResult",
    "SolveResult", "Strategy", "StrategyError", "UGraph", "Web", "apply_batch",
    "automorphism_count", "build_jaco", "check_theorem_1_1", "competition_graph",
    "complete_graph", "cycle_graph", "enumerate_greedy", "enumerate_webs", "grog_number",
    "indexings", "is_connected", "jaco_competition_closed_form", "jaconian_vertex",
    "legal_predations", "make_digraph", "make_ugraph", "new_state", "orientations",
    "path_graph", "residual_distribution", "run_all", "run_claims", "run_strategy",
    "solve_exact", "star_graph", "underlying", "web_count_formula",
]

# prints the modules in sys.modules at exit, after the statement or CLI call
REPORT = (
    "import atexit, sys\n"
    "atexit.register(lambda: print(' '.join(sorted(sys.modules)), file=sys.stderr))\n"
)
CLI = REPORT + "import runpy\nrunpy.run_module('grogweb', run_name='__main__', alter_sys=True)\n"


def modules(code: str, *argv: str) -> set[str]:
    """Every module loaded by `code` (run with `argv`) in a fresh interpreter.

    `-S` skips `site`, whose `.pth` files may import stdlib modules (such
    as `random`, through `tempfile`) before any grogweb code runs.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.splitlines()[-1].split())


def loaded(code: str, *argv: str) -> set[str]:
    """grogweb modules loaded by `code` (run with `argv`) in a fresh interpreter."""
    return {m for m in modules(code, *argv) if m.split(".")[0] == "grogweb"}


BASE = {"grogweb"}
JACO = BASE | {"grogweb.graphs", "grogweb.jaco"}
CLI_JACO = JACO | {"grogweb.cli"}


@pytest.mark.parametrize("statement, modules", [
    ("import grogweb", BASE),
    ("import grogweb.jaco", JACO),
    ("from grogweb import build_jaco", JACO),
    ("import grogweb.competition", JACO | {"grogweb.competition"}),
    ("from grogweb import competition_graph", JACO | {"grogweb.competition"}),
    ("import grogweb.engine", BASE | {"grogweb.graphs", "grogweb.engine"}),
])
def test_import_loads_only_its_modules(statement, modules):
    assert loaded(REPORT + statement) == modules


@pytest.mark.parametrize("argv, modules", [
    (["jaco", "--n", "5"], CLI_JACO),
    (["competition", "--jaco", "7"], CLI_JACO | {"grogweb.competition"}),
    (["--help"], BASE | {"grogweb.cli", "grogweb.graphs"}),
], ids=["jaco", "competition", "help"])
def test_cli_loads_only_its_modules(argv, modules):
    assert loaded(CLI, *argv) == modules


# records are named tuples: `dataclasses` would bring `inspect`, and with it
# `ast`, `dis` and `tokenize`, into every call
@pytest.mark.parametrize("code, argv", [
    (REPORT + "import grogweb.claims", []),
    (CLI, ["jaco", "--n", "5"]),
    (CLI, ["--help"]),
], ids=["import-claims", "jaco", "help"])
def test_no_dataclasses_or_inspect(code, argv):
    assert not modules(code, *argv) & {"dataclasses", "inspect"}


def test_grog_solve_loads_no_enumeration_or_harness(tmp_path):
    web = tmp_path / "web.json"
    web.write_text('{"n": 3, "arcs": [[1, 2], [2, 3]]}')
    modules = loaded(CLI, "grog", "solve", str(web))
    assert "grogweb.engine" in modules
    assert not modules & {"grogweb.webs", "grogweb.claims"}


# `random` serves only the harness's draws; the engine names it in an
# annotation alone
@pytest.mark.parametrize("argv", [
    ["grog", "solve", "web.json"],
    ["grog", "run", "web.json", "--strategy", "strategy.json"],
    ["enumerate", "--graph", "path", "--n", "4", "--distribution"],
], ids=["grog-solve", "grog-run", "enumerate"])
def test_engine_calls_load_no_random(monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "web.json").write_text('{"n": 3, "arcs": [[1, 2], [2, 3]]}')
    (tmp_path / "strategy.json").write_text("[]")
    assert "random" not in modules(CLI, *argv)


class TestNamespace:
    def test_all_is_pinned(self):
        assert grogweb.__all__ == ALL
        assert sorted(n for names in EXPORTS.values() for n in names) == ALL

    @pytest.mark.parametrize("module", sorted(EXPORTS))
    def test_names_are_the_defining_objects(self, module):
        mod = importlib.import_module(f"grogweb.{module}")
        for name in EXPORTS[module]:
            assert getattr(grogweb, name) is getattr(mod, name)

    def test_star_import_binds_every_name(self):
        ns: dict = {}
        exec("from grogweb import *", ns)
        assert set(ns) - {"__builtins__"} == set(ALL)

    def test_dir_lists_every_name(self):
        assert set(ALL) <= set(dir(grogweb))
        assert "__version__" in dir(grogweb)

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="solve_labellings"):
            grogweb.solve_labellings
        with pytest.raises(ImportError, match="solve_labellings"):
            exec("from grogweb import solve_labellings", {})
