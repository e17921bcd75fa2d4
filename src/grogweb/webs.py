"""Web enumeration over indexings x orientations, and graph-level grog numbers.

A base graph on n vertices with eps edges yields n! * 2^eps labelled
webs.  Webs whose arc sets coincide are the same web; they arise from
base-graph automorphisms acting simultaneously on labels and directions,
and deduplication keeps the first occurrence in stream order, which is
the lexicographically least (label sequence, arc set) representative.
The n! indexings give n!/|Aut(G)| distinct labelled edge sets, each with
2^eps orientations that are all distinct webs, so the deduplicated count
is n! * 2^eps / |Aut(G)|.  For bases with exactly 2 automorphisms that
equals the half-formula n! * 2^eps / 2; for other automorphism group
sizes the two numbers differ and both are reported by the verification
harness rather than reconciled.

Graph-level values need no orientations.  A predation lowers both
endpoint populations by one, so a set of arcs can be consumed, in any
order, exactly when every vertex v meets at most v of them; arc
direction plays no part.  Every orientation of a labelled edge set
therefore has the same grog number, and graph-level values cost one
exact solve per labelled edge set (at most n!), not one per web
(n! * 2^eps).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator

from .engine import SOLVER_ARC_CAP, SolveResult, Strategy, Web, solve_exact
from .graphs import (
    INDEXING_CAP,
    CapExceeded,
    Digraph,
    GraphError,
    UGraph,
    indexings,
    is_connected,
    make_ugraph,
)

WEB_N_CAP = INDEXING_CAP
WEB_EDGE_CAP = 12
INT64_MAX = 2**63 - 1

# A labelled edge set: the sorted (u, v), u < v, edges of one indexing.
LabelledEdges = tuple[tuple[int, int], ...]


def path_graph(n: int) -> UGraph:
    """Path on vertices 1..n (n >= 2)."""
    if type(n) is not int or n < 2:
        raise GraphError(f"a path needs n >= 2, got {n!r}")
    return make_ugraph(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n: int) -> UGraph:
    """Cycle on vertices 1..n (n >= 3)."""
    if type(n) is not int or n < 3:
        raise GraphError(f"a cycle needs n >= 3, got {n!r}")
    return make_ugraph(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def star_graph(n: int) -> UGraph:
    """Star with center 1 and leaves 2..n (n >= 2)."""
    if type(n) is not int or n < 2:
        raise GraphError(f"a star needs n >= 2, got {n!r}")
    return make_ugraph(n, [(1, k) for k in range(2, n + 1)])


def complete_graph(n: int) -> UGraph:
    """Complete graph on 1..n (n >= 2)."""
    if type(n) is not int or n < 2:
        raise GraphError(f"a complete graph needs n >= 2, got {n!r}")
    return make_ugraph(n, list(itertools.combinations(range(1, n + 1), 2)))


def web_count_formula(n: int, eps: int) -> int:
    """The half-formula count n! * 2^eps / 2.

    Errors out past the signed 64-bit range so downstream consumers can
    rely on machine-width counts.
    """
    value = math.factorial(n) * 2**eps // 2
    if value > INT64_MAX:
        raise OverflowError(f"web count {value} exceeds the 64-bit range")
    return value


def _check_base(g: UGraph, n_cap: int) -> None:
    if not is_connected(g):
        raise GraphError("base graph must be connected")
    if g.n > n_cap:
        raise CapExceeded(f"n={g.n} exceeds the web enumeration cap {n_cap}")
    if len(g.edges) > WEB_EDGE_CAP:
        raise CapExceeded(f"{len(g.edges)} edges exceed the web enumeration cap {WEB_EDGE_CAP}")


def enumerate_webs(g: UGraph, dedup: bool = False, *, n_cap: int = WEB_N_CAP) -> Iterator[Web]:
    """Stream the webs of a connected base graph.

    Outer loop: indexings in lexicographic order.  Inner loop: direction
    bits in binary counting order applied to the sorted base edges.
    With dedup, each arc set is emitted once, at first occurrence.
    """
    _check_base(g, n_cap)
    eps = len(g.edges)

    def gen() -> Iterator[Web]:
        seen: set[tuple[tuple[int, int], ...]] = set()
        for labels in indexings(g.n, cap=n_cap):
            for mask in range(1 << eps):
                arcs = []
                for k, (p, q) in enumerate(g.edges):
                    a, b = labels[p - 1], labels[q - 1]
                    arcs.append((a, b) if not mask >> k & 1 else (b, a))
                key = tuple(sorted(arcs))
                if dedup:
                    if key in seen:
                        continue
                    seen.add(key)
                yield Web(Digraph(g.n, key))

    return gen()


def automorphism_count(g: UGraph, cap: int = WEB_N_CAP) -> int:
    """|Aut(g)| by brute-force permutation check."""
    if g.n > cap:
        raise CapExceeded(f"n={g.n} exceeds the automorphism cap {cap}")
    edges = set(g.edges)
    count = 0
    for perm in itertools.permutations(range(1, g.n + 1)):
        mapped = {
            (min(perm[u - 1], perm[v - 1]), max(perm[u - 1], perm[v - 1]))
            for u, v in edges
        }
        if mapped == edges:
            count += 1
    return count


def solve_labellings(
    g: UGraph,
    *,
    arc_cap: int = SOLVER_ARC_CAP,
    n_cap: int = WEB_N_CAP,
) -> dict[LabelledEdges, tuple[Web, SolveResult]]:
    """One exact solve per distinct labelled edge set of g.

    Indexings are walked in lexicographic order.  Each new labelled edge
    set maps to the web `enumerate_webs` emits for that indexing at
    direction mask 0, together with its `solve_exact` result; keys stay
    in order of first occurrence.  Every orientation of an edge set has
    the same grog number, and among the deduplicated webs each edge set
    accounts for exactly 2^eps of them.
    """
    _check_base(g, n_cap)
    solved: dict[LabelledEdges, tuple[Web, SolveResult]] = {}
    for labels in indexings(g.n, cap=n_cap):
        arcs = [(labels[p - 1], labels[q - 1]) for p, q in g.edges]
        key = tuple(sorted((min(a, b), max(a, b)) for a, b in arcs))
        if key not in solved:
            web = Web(Digraph(g.n, tuple(sorted(arcs))))
            solved[key] = (web, solve_exact(web, cap=arc_cap))
    return solved


@dataclass(frozen=True)
class GraphGrogResult:
    """Graph-level grog number with its witness web and strategy."""

    grog: int
    web: Web
    strategy: Strategy


def grog_number(g: UGraph, *, arc_cap: int = SOLVER_ARC_CAP) -> GraphGrogResult:
    """Minimum grog number over every indexing and orientation of g.

    The witness is the first optimal web in stream order, with or
    without deduplication: the mask-0 web of the first indexing whose
    edge set attains the minimum, since every earlier indexing has a
    larger value in all of its orientations.
    """
    solved = solve_labellings(g, arc_cap=arc_cap)
    web, best = min(solved.values(), key=lambda pair: pair[1].grog)
    return GraphGrogResult(best.grog, web, best.witness)


def residual_distribution(g: UGraph, *, arc_cap: int = SOLVER_ARC_CAP) -> dict[int, int]:
    """Histogram grog number -> web count over the deduplicated webs."""
    solved = solve_labellings(g, arc_cap=arc_cap)
    counts = Counter(result.grog for _, result in solved.values())
    orientations = 1 << len(g.edges)
    return {grog: count * orientations for grog, count in sorted(counts.items())}
