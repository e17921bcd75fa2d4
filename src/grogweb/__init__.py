"""Jaco graphs, competition graphs, and grog numbers of predation webs.

A library plus CLI that constructs Jaco graphs J_n(1), computes
competition graphs both directly and through the Jaco closed form, plays
the Grog predation game exactly, enumerates the webs of small base
graphs, and machine-checks a catalog of structural claims about all of
the above at desk scale.

The package namespace is lazy (PEP 562): `import grogweb` loads no
submodule, and the first access to an exported name imports only the
submodule that defines it, with the modules that submodule imports.
So `from grogweb import build_jaco` loads graphs and jaco, not the game
engine, web enumeration or the claim harness.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "claims": ("CLAIM_ORDER", "ClaimReport", "HarnessConfig", "run_all", "run_claims"),
        "competition": (
            "CompetitionGraph",
            "check_theorem_1_1",
            "competition_graph",
            "jaco_competition_closed_form",
        ),
        "engine": (
            "GreedyResult",
            "GrogState",
            "IllegalBatchError",
            "NonTerminalError",
            "PredationBatch",
            "RunResult",
            "SolveResult",
            "Strategy",
            "StrategyError",
            "Web",
            "apply_batch",
            "enumerate_greedy",
            "legal_predations",
            "new_state",
            "run_strategy",
            "solve_exact",
        ),
        "graphs": (
            "CapExceeded",
            "Digraph",
            "GraphError",
            "UGraph",
            "indexings",
            "is_connected",
            "make_digraph",
            "make_ugraph",
            "orientations",
            "underlying",
        ),
        "jaco": ("JacoGraph", "build_jaco", "jaconian_vertex"),
        "webs": (
            "GraphGrogResult",
            "automorphism_count",
            "complete_graph",
            "cycle_graph",
            "enumerate_webs",
            "grog_number",
            "path_graph",
            "residual_distribution",
            "star_graph",
            "web_count_formula",
        ),
    }.items()
    for name in names
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    """Import the submodule that defines `name` and bind the name here."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
