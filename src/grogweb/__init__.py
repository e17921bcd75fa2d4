"""Jaco graphs, competition graphs, and grog numbers of predation webs.

A library plus CLI that constructs Jaco graphs J_n(1), computes
competition graphs both directly and through the Jaco closed form, plays
the Grog predation game exactly, enumerates the webs of small base
graphs, and machine-checks a catalog of structural claims about all of
the above at desk scale.
"""

from .claims import CLAIM_ORDER, ClaimReport, HarnessConfig, run_all, run_claims
from .competition import (
    CompetitionGraph,
    check_theorem_1_1,
    competition_graph,
    jaco_competition_closed_form,
)
from .engine import (
    GreedyResult,
    GrogState,
    IllegalBatchError,
    NonTerminalError,
    PredationBatch,
    RunResult,
    SolveResult,
    Strategy,
    StrategyError,
    Web,
    apply_batch,
    enumerate_greedy,
    legal_predations,
    new_state,
    run_strategy,
    solve_exact,
)
from .graphs import (
    CapExceeded,
    Digraph,
    GraphError,
    UGraph,
    indexings,
    is_connected,
    make_digraph,
    make_ugraph,
    orientations,
    underlying,
)
from .jaco import JacoGraph, build_jaco, jaconian_vertex
from .webs import (
    GraphGrogResult,
    automorphism_count,
    complete_graph,
    cycle_graph,
    enumerate_webs,
    grog_number,
    path_graph,
    residual_distribution,
    solve_labellings,
    star_graph,
    web_count_formula,
)

__version__ = "0.1.0"

__all__ = [
    "CLAIM_ORDER",
    "CapExceeded",
    "ClaimReport",
    "CompetitionGraph",
    "Digraph",
    "GraphError",
    "GraphGrogResult",
    "GreedyResult",
    "GrogState",
    "HarnessConfig",
    "IllegalBatchError",
    "JacoGraph",
    "NonTerminalError",
    "PredationBatch",
    "RunResult",
    "SolveResult",
    "Strategy",
    "StrategyError",
    "UGraph",
    "Web",
    "apply_batch",
    "automorphism_count",
    "build_jaco",
    "check_theorem_1_1",
    "competition_graph",
    "complete_graph",
    "cycle_graph",
    "enumerate_greedy",
    "enumerate_webs",
    "grog_number",
    "indexings",
    "is_connected",
    "jaco_competition_closed_form",
    "jaconian_vertex",
    "legal_predations",
    "make_digraph",
    "make_ugraph",
    "new_state",
    "orientations",
    "path_graph",
    "residual_distribution",
    "run_all",
    "run_claims",
    "run_strategy",
    "solve_exact",
    "solve_labellings",
    "star_graph",
    "underlying",
    "web_count_formula",
]
