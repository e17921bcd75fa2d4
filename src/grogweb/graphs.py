"""Labelled directed and undirected graphs with strict validation.

Vertices are the integers 1..n and double as labels: in a predation web
the vertex labelled i starts with population i.  Arcs are ordered pairs
and edges unordered pairs, both stored sorted so that every stream,
witness and tie-break in the package is reproducible run to run.

Anti-parallel arc pairs ((u, v) together with (v, u)) are rejected
globally: every digraph here is an orientation of a simple graph, so
2-cycles never arise and the game-state encoding can identify an arc
with the undirected edge it orients.

`UGraph.adjacency` is the one per-vertex neighbour table: neighbours,
degrees, connectivity and automorphisms all read it.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Iterable, Iterator, NamedTuple


class GraphError(ValueError):
    """Invalid graph data: bad index, self-loop, duplicate, parse error."""


class CapExceeded(GraphError):
    """A size cap was exceeded.

    Caps are hard errors rather than truncations, so no result is ever
    silently partial.
    """


INDEXING_CAP = 8


class Digraph(NamedTuple):
    """Simple directed graph on vertices 1..n, arcs sorted by (tail, head)."""

    n: int
    arcs: tuple[tuple[int, int], ...]


class UGraph(NamedTuple):
    """Simple undirected graph on vertices 1..n, edges sorted with u < v."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def adjacency(self) -> list[set[int]]:
        """The neighbours of each vertex v as a set at position v; position 0 is empty."""
        adjacent: list[set[int]] = [set() for _ in range(self.n + 1)]
        for u, v in self.edges:
            adjacent[u].add(v)
            adjacent[v].add(u)
        return adjacent

    def neighbors(self, v: int) -> list[int]:
        return sorted(self.adjacency()[_check_vertex(v, self.n)])

    def degree(self, v: int) -> int:
        return len(self.adjacency()[_check_vertex(v, self.n)])


# An indexing assigns labels 1..n to the n structural positions of a base
# graph; position p carries label indexing[p - 1].
Indexing = tuple[int, ...]


def _check_vertex(v, n: int) -> int:
    if type(v) is not int:
        raise GraphError(f"vertex index must be an integer, got {v!r}")
    if not 1 <= v <= n:
        raise GraphError(f"vertex index {v} out of range 1..{n}")
    return v


def make_digraph(n: int, arcs: Iterable[tuple[int, int]]) -> Digraph:
    """Build a validated digraph.

    Raises GraphError on a self-loop, a duplicate arc, an anti-parallel
    pair, or a vertex index outside 1..n.  Duplicates are an error, not
    silently merged.
    """
    if type(n) is not int or n < 0:
        raise GraphError(f"vertex count must be a non-negative integer, got {n!r}")
    seen: set[tuple[int, int]] = set()
    for arc in arcs:
        try:
            t, h = arc
        except (TypeError, ValueError):
            raise GraphError(f"arc must be a (tail, head) pair, got {arc!r}") from None
        _check_vertex(t, n)
        _check_vertex(h, n)
        if t == h:
            raise GraphError(f"self-loop ({t}, {h}) not allowed")
        if (t, h) in seen:
            raise GraphError(f"duplicate arc ({t}, {h})")
        if (h, t) in seen:
            raise GraphError(f"anti-parallel pair ({h}, {t}) and ({t}, {h})")
        seen.add((t, h))
    return Digraph(n, tuple(sorted(seen)))


def make_ugraph(n: int, edges: Iterable[tuple[int, int]]) -> UGraph:
    """Build a validated undirected graph (no self-loops or duplicates)."""
    if type(n) is not int or n < 0:
        raise GraphError(f"vertex count must be a non-negative integer, got {n!r}")
    seen: set[tuple[int, int]] = set()
    for edge in edges:
        try:
            u, v = edge
        except (TypeError, ValueError):
            raise GraphError(f"edge must be a (u, v) pair, got {edge!r}") from None
        _check_vertex(u, n)
        _check_vertex(v, n)
        if u == v:
            raise GraphError(f"self-loop {{{u}, {v}}} not allowed")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphError(f"duplicate edge {{{key[0]}, {key[1]}}}")
        seen.add(key)
    return UGraph(n, tuple(sorted(seen)))


def underlying(d: Digraph) -> UGraph:
    """Forget arc directions.  Edge count always equals arc count because
    anti-parallel pairs are rejected at construction."""
    return UGraph(d.n, tuple(sorted((min(t, h), max(t, h)) for t, h in d.arcs)))


def orientations(g: UGraph) -> Iterator[Digraph]:
    """Stream all 2^eps orientations of g.

    Deterministic order: edges sorted, direction bits in binary counting
    order (bit k of the counter flips edge k; bit 0 keeps the u < v
    direction).  The stream is lazy, so its callers bound eps.
    """
    for mask in range(1 << len(g.edges)):
        arcs = tuple(sorted(
            (u, v) if not mask >> k & 1 else (v, u)
            for k, (u, v) in enumerate(g.edges)
        ))
        yield Digraph(g.n, arcs)


def indexings(n: int) -> Iterator[Indexing]:
    """Stream all n! label assignments in lexicographic order (n <= INDEXING_CAP)."""
    if type(n) is not int or n < 1:
        raise GraphError(f"need n >= 1, got {n!r}")
    if n > INDEXING_CAP:
        raise CapExceeded(f"n={n} exceeds the indexing cap {INDEXING_CAP}")
    return iter(itertools.permutations(range(1, n + 1)))


def is_connected(g: UGraph) -> bool:
    """True iff g has a single connected component (n >= 1 required)."""
    if g.n < 1:
        raise GraphError("connectivity needs at least one vertex")
    adjacent = g.adjacency()
    seen = {1}
    queue = deque([1])
    while queue:
        for w in adjacent[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == g.n


# ---------------------------------------------------------------------------
# serialization: JSON dictionaries and DOT text
# ---------------------------------------------------------------------------

def _pairs_from_json(obj, build, kind: str, key: str, pair: str):
    """`build(n, pairs)` of {"n": n, key: [pair, ...]}; kind, key and pair word the errors."""
    if not isinstance(obj, dict) or "n" not in obj or key not in obj:
        raise GraphError(f'{kind} JSON must be {{"n": <int>, "{key}": [{pair}, ...]}}')
    pairs = obj[key]
    if not isinstance(pairs, list):
        raise GraphError(f'"{key}" must be a list of {pair} pairs')
    return build(obj["n"], [tuple(p) if isinstance(p, list) else p for p in pairs])


def _to_dot(kind: str, n: int, pairs, link: str) -> str:
    lines = [f"  {v};" for v in range(1, n + 1)] + [f"  {a} {link} {b};" for a, b in pairs]
    return "\n".join([f"{kind} {{", *lines, "}"]) + "\n"


def digraph_to_json(d: Digraph) -> dict:
    return {"n": d.n, "arcs": [list(a) for a in d.arcs]}


def digraph_from_json(obj) -> Digraph:
    return _pairs_from_json(obj, make_digraph, "digraph", "arcs", "[tail, head]")


def ugraph_to_json(g: UGraph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges]}


def ugraph_from_json(obj) -> UGraph:
    return _pairs_from_json(obj, make_ugraph, "graph", "edges", "[u, v]")


def digraph_to_dot(d: Digraph) -> str:
    return _to_dot("digraph", d.n, d.arcs, "->")


def ugraph_to_dot(g: UGraph) -> str:
    return _to_dot("graph", g.n, g.edges, "--")
