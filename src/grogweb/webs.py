"""Web enumeration over indexings x orientations, and graph-level grog numbers.

A base graph on n vertices with eps edges yields n! * 2^eps labelled
webs.  Webs whose arc sets coincide are the same web; they arise from
base-graph automorphisms acting simultaneously on labels and directions,
and deduplication keeps the first occurrence in stream order, which is
the lexicographically least (label sequence, arc set) representative.
It works by labelled edge set: an indexing whose edge set came earlier
is skipped whole, since an earlier indexing streamed all its webs.
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
therefore has the same grog number.  Nor do most labels matter: a vertex
meets at most its degree of arcs, so a label of at least the maximum
degree D never binds, and only where labels 1..D-1 sit changes the
value.  Graph-level values therefore cost one exact solve per distinct
web of the placements of those labels, at most n!/(n-D+1)! (star_8: 7),
not one per indexing (n!) or per web (n! * 2^eps).  The harness and the
`enumerate` command make just those solves, through `grog_and_distribution`
and its (g(G), witness web, histogram, |Aut|); `grog_number` makes one
more, of the witness web, for its witness strategy.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Iterator, NamedTuple

from .engine import Strategy, Web, solve_exact
from .graphs import (
    INDEXING_CAP,
    CapExceeded,
    Digraph,
    GraphError,
    UGraph,
    indexings,
    is_connected,
    make_ugraph,
    orientations,
)

WEB_N_CAP = INDEXING_CAP
WEB_EDGE_CAP = 12
INT64_MAX = 2**63 - 1


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
    rely on machine-width counts.  From n = 21 or eps = 64 on, either
    factor alone is at least 2^64, whose half is past that range, so
    neither is built any larger.
    """
    value = (math.factorial(min(n, 21)) << min(eps, 64)) // 2
    if value > INT64_MAX:
        raise OverflowError(f"web count {n}! * 2^{eps} / 2 exceeds the 64-bit range")
    return value


def check_web_order(n: int) -> None:
    """Refuse an order past WEB_N_CAP, before any base of that order is built."""
    if n > WEB_N_CAP:
        raise CapExceeded(f"n={n} exceeds the web enumeration cap {WEB_N_CAP}")


def _check_base(g: UGraph) -> None:
    if not is_connected(g):
        raise GraphError("base graph must be connected")
    check_web_order(g.n)
    if len(g.edges) > WEB_EDGE_CAP:
        raise CapExceeded(f"{len(g.edges)} edges exceed the web enumeration cap {WEB_EDGE_CAP}")


def enumerate_webs(g: UGraph, dedup: bool = False) -> Iterator[Web]:
    """Stream the webs of a connected base graph.

    Outer loop: indexings in lexicographic order.  Inner loop: the base's
    `orientations`, relabelled by the indexing.  With dedup, an indexing
    whose labelled edge set came earlier is skipped whole: its 2^eps webs
    are the orientations of that edge set, all streamed by the earlier
    indexing, so each arc set is still emitted once, at first occurrence.
    """
    _check_base(g)
    oriented = [d.arcs for d in orientations(g)]

    def gen() -> Iterator[Web]:
        seen: set[int] = set()
        for labels in indexings(g.n):
            if dedup:
                # the labelled edge set as one int: bits a*n + b and b*n + a per edge {a, b}
                edges = sum(1 << labels[p - 1] * g.n + labels[q - 1]
                            | 1 << labels[q - 1] * g.n + labels[p - 1] for p, q in g.edges)
                if edges in seen:
                    continue
                seen.add(edges)
            for arcs in oriented:
                yield Web(Digraph(g.n, tuple(sorted((labels[t - 1], labels[h - 1]) for t, h in arcs))))

    return gen()


def _images(adjacent: list[set[int]], image: list[int], v: int) -> list[int]:
    """The vertices v may map to: unused, of v's degree, and adjacent to the
    image of each u < v exactly when v is adjacent to u."""
    used = image[1:v]
    return [
        w for w in range(1, len(adjacent))
        if w not in used
        and len(adjacent[w]) == len(adjacent[v])
        and all((u in adjacent[v]) == (image[u] in adjacent[w]) for u in range(1, v))
    ]


def _extends(adjacent: list[set[int]], image: list[int], v: int, w: int) -> bool:
    """Whether the map of 1..v-1 in `image` with v -> w extends to an automorphism."""
    image[v] = w
    return v == len(adjacent) - 1 or any(
        _extends(adjacent, image, v + 1, x) for x in _images(adjacent, image, v + 1)
    )


def automorphism_count(g: UGraph) -> int:
    """|Aut(g)| by backtracking, for n <= WEB_N_CAP.

    Vertices 1..n are mapped in order.  A vertex may go only to an unused
    vertex of its own degree that is adjacent to the image of each earlier
    vertex exactly when the vertex is adjacent to that earlier vertex, so
    most maps that cannot become an automorphism die early.  |Aut(g)| is
    the product over v of the orbit of v under the automorphisms that fix
    1..v-1, and one found extension puts a vertex in that orbit, so no
    search lists every automorphism: K_8 and the edgeless graph on 8
    vertices need not walk their 40,320.
    """
    check_web_order(g.n)
    adjacent = g.adjacency()
    image = [0] * (g.n + 1)
    count = 1
    for v in range(1, g.n + 1):
        count *= sum(_extends(adjacent, image, v, w) for w in _images(adjacent, image, v))
        image[v] = v
    return count


class GraphGrogResult(NamedTuple):
    """Graph-level grog number with its witness web and strategy."""

    grog: int
    web: Web
    strategy: Strategy


def _walk(g: UGraph) -> tuple[int, Web, Counter[int]]:
    """One walk of the placements of labels 1..k, k = max(D - 1, 0) for max
    degree D: the graph-level grog number, its witness web, and the count of
    placements at each grog number.

    Each placement gives the other labels, in ascending order, to the free
    positions in position order: the lexicographically least indexing with
    that placement.  Its mask-0 web, as `enumerate_webs` emits it, is solved
    once per distinct web (a star's placements share one per center label),
    and only its grog number is kept.

    The witness is the first optimal web in stream order, with or
    without deduplication: the mask-0 web of the least indexing that
    attains the minimum, since every earlier indexing has a larger value
    in all of its orientations.  That indexing is the least of its
    placement, so it is the least optimal placement indexing.
    """
    _check_base(g)
    k = max(max(map(len, g.adjacency())) - 1, 0)
    grogs: dict[Web, int] = {}
    counts: Counter[int] = Counter()
    best = (math.inf,)  # (grog, labels, web) of the least placement so far
    for placed in itertools.permutations(range(1, g.n + 1), k):
        rest = iter(range(k + 1, g.n + 1))
        position = {p: label for label, p in enumerate(placed, 1)}
        labels = tuple(position.get(p) or next(rest) for p in range(1, g.n + 1))
        web = Web(Digraph(g.n, tuple(sorted((labels[p - 1], labels[q - 1]) for p, q in g.edges))))
        if web not in grogs:
            grogs[web] = solve_exact(web).grog
        counts[grogs[web]] += 1
        best = min(best, (grogs[web], labels, web))
    return best[0], best[2], counts


def grog_number(g: UGraph) -> GraphGrogResult:
    """Minimum grog number over every indexing and orientation of g, with
    the first optimal web in stream order and its witness strategy, from a
    solve of that web after the walk."""
    grog, web, _ = _walk(g)
    return GraphGrogResult(grog, web, solve_exact(web).witness)


def grog_and_distribution(g: UGraph) -> tuple[int, Web, dict[int, int], int]:
    """The grog number and witness web of grog_number(g), residual_distribution(g)
    and the automorphism_count(g) that scales it, from one walk: each distinct
    placement web is solved once, and no witness strategy is made."""
    grog, web, counts = _walk(g)
    # each placement stands for the same number of indexings, each labelled
    # edge set arises from |Aut(g)| indexings, and each has 2^eps orientations
    scale = (math.factorial(g.n) // counts.total()) << len(g.edges)
    aut = automorphism_count(g)
    return grog, web, {value: count * scale // aut for value, count in sorted(counts.items())}, aut


def residual_distribution(g: UGraph) -> dict[int, int]:
    """Histogram grog number -> web count over the deduplicated webs."""
    return grog_and_distribution(g)[2]
