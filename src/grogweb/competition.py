"""Competition graphs and the Jaco-graph closed form.

Two vertices compete when they share at least one common out-neighbor
(common prey).  The direct route works for any digraph on big-int
bitsets: preds[z] has bit t set for every in-neighbor t of z, and one OR
per arc (t, h) adds preds[h] to rivals[t], the set of vertices sharing
some prey with t (t itself included when it has an out-arc).  Arcs come
sorted by tail, so each tail's bit 1 << t is made once for its whole
run, not once per arc.  Each u then reads its edges off the set bits of
rivals[u] above bit u: bin() spells them, one bytes.translate turns the
digits into 0/1 selectors, and compress picks the vertices in one C
loop.  They come out in ascending order, so the edge list is sorted as
built; the heads are taken from one list of vertex ints, so no int is
allocated per edge.

For Jaco graphs of order at least 5 the competition graph also has a
closed form: take the undirected subgraph induced by v_3 .. v_{n-1},
remove the edge from each v_i (3 <= i <= n-2) to its furthest
out-neighbor v_{i + d+(v_i)} whenever that endpoint still lies inside
the induced range, and re-attach v_1, v_2, v_n as isolated vertices.
It uses no bitsets and tests no arc: Jaco arcs point upward and arrive
sorted by (tail, head), each tail's out-arcs form one contiguous run,
and the edges of v_i, i >= 3, are its run minus the last arc.  Joining
those slices of the arc tuple yields the sorted edge tuple directly, so
the kept arc tuples serve as the edge tuples.
check_theorem_1_1 compares the two routes edge for edge at every order
5..n_max.  It builds J_{n_max} alone and takes each lower order as its
prefix (JacoGraph.prefix), whose arcs are slices of the one build.
"""

from __future__ import annotations

from itertools import chain, compress, repeat
from typing import NamedTuple

from .graphs import Digraph, GraphError, UGraph, ugraph_to_dot, ugraph_to_json
from .jaco import JacoGraph, build_jaco

# the bytes "0" and "1" of a bin() string to the selectors 0 and 1
_BITS = bytes.maketrans(b"01", b"\0\1")


class CompetitionGraph(NamedTuple):
    """Undirected competition graph plus its isolated vertices.

    The vertex set of the source digraph is kept in full; `isolated`
    lists the vertices with no incident competition edge.
    """

    ugraph: UGraph
    isolated: tuple[int, ...]


def competition_graph(d: Digraph) -> CompetitionGraph:
    """Competition graph by direct definition, on in-neighbor bitsets.

    Costs one big-int OR per arc, one shift per tail, plus one scan of
    each rivals bitset.
    """
    n = d.n
    preds = [0] * (n + 1)
    tail = bit = 0
    for t, h in d.arcs:  # sorted by tail, so each tail's run shares one shift
        if t != tail:
            tail, bit = t, 1 << t
        preds[h] |= bit
    rivals = [0] * (n + 1)
    for t, h in d.arcs:
        rivals[t] |= preds[h]
    vertices = list(range(n + 1))  # one int per vertex, shared by all its edges
    edges: list[tuple[int, int]] = []
    isolated = []
    for u in vertices[1:]:
        # rivals[u] is 0 or holds bit u, so one set bit means no rival
        if rivals[u].bit_count() <= 1:
            isolated.append(u)
            continue
        # bin() of the bits above u, reversed so byte k is bit u + 1 + k, as 0 or 1
        above = bin(rivals[u] >> (u + 1))[:1:-1].encode().translate(_BITS)
        edges.extend(zip(repeat(u), compress(vertices[u + 1:u + 1 + len(above)], above)))
    return CompetitionGraph(UGraph(n, tuple(edges)), tuple(isolated))


def jaco_competition_closed_form(n: int) -> CompetitionGraph:
    """Closed-form competition graph of J_n(1), valid for n >= 5.

    Deletions whose far endpoint v_{i + d+(v_i)} falls outside
    v_3 .. v_{n-1} are silent no-ops; smaller orders have competition
    graphs of isolated vertices only and are served by the direct route.
    """
    if type(n) is not int or n < 5:
        raise GraphError(f"closed form needs n >= 5, got {n!r}")
    return _closed_form(build_jaco(n))


def _closed_form(jg: JacoGraph) -> CompetitionGraph:
    """The closed form read off an already built J_n(1), n >= 5.

    The last arc of each tail's run is the deleted far edge or reaches
    v_n.  The edges of a tail t >= 3 with d+(v_t) >= 2 cover
    v_t .. v_{t + d+(v_t) - 1}; a vertex outside every such interval is
    isolated.
    """
    arcs = jg.digraph.arcs
    runs = []
    isolated = []
    start = 0
    reach = 0
    for t, d in enumerate(jg.out_deg, 1):
        if t >= 3 and d >= 2:
            runs.append(arcs[start:start + d - 1])
            reach = max(reach, t + d - 1)
        if t > reach:
            isolated.append(t)
        start += d
    return CompetitionGraph(UGraph(jg.n, tuple(chain.from_iterable(runs))), tuple(isolated))


class TheoremCheck(NamedTuple):
    """Per-order comparison of the closed form against the definition."""

    n_min: int
    n_max: int
    results: tuple[dict, ...]

    @property
    def all_equal(self) -> bool:
        return all(r["equal"] for r in self.results)


def check_theorem_1_1(n_max: int) -> TheoremCheck:
    """Compare closed form and direct computation for 5 <= n <= n_max.

    Disagreements are data, not errors: each failing order carries the
    missing and extra edge sets.  J_{n_max} is built first and alone, so
    an order past `JACO_ORDER_CAP` raises before any work; every lower
    order is its prefix.
    """
    if type(n_max) is not int or n_max < 5:
        raise GraphError(f"theorem domain starts at n = 5, got n_max {n_max!r}")
    top = build_jaco(n_max)
    results = []
    for n in range(n_max, 4, -1):
        jg = top.prefix(n)
        closed = _closed_form(jg)
        direct = competition_graph(jg.digraph)
        entry: dict = {"n": n, "equal": closed == direct}
        if not entry["equal"]:
            ce, de = set(closed.ugraph.edges), set(direct.ugraph.edges)
            entry["missing"] = sorted(de - ce)
            entry["extra"] = sorted(ce - de)
            entry["isolated_closed"] = list(closed.isolated)
            entry["isolated_direct"] = list(direct.isolated)
        results.append(entry)
    return TheoremCheck(5, n_max, tuple(reversed(results)))


def competition_to_json(c: CompetitionGraph) -> dict:
    obj = ugraph_to_json(c.ugraph)
    obj["isolated"] = list(c.isolated)
    return obj


def competition_to_dot(c: CompetitionGraph) -> str:
    return ugraph_to_dot(c.ugraph)
