import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grogweb.graphs import (
    CapExceeded,
    Digraph,
    GraphError,
    digraph_from_json,
    digraph_to_dot,
    digraph_to_json,
    indexings,
    is_connected,
    make_digraph,
    make_ugraph,
    orientations,
    ugraph_from_json,
    ugraph_to_dot,
    ugraph_to_json,
    underlying,
)
from grogweb.jaco import build_jaco
from grogweb.webs import complete_graph, star_graph


class TestMakeDigraph:
    def test_valid(self):
        d = make_digraph(3, [(2, 3), (1, 2)])
        assert d.n == 3
        assert d.arcs == ((1, 2), (2, 3))

    def test_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            make_digraph(3, [(1, 1)])

    def test_anti_parallel(self):
        with pytest.raises(GraphError, match="anti-parallel"):
            make_digraph(3, [(1, 2), (2, 1)])

    def test_duplicate(self):
        with pytest.raises(GraphError, match="duplicate"):
            make_digraph(3, [(1, 2), (1, 2)])

    def test_out_of_range(self):
        with pytest.raises(GraphError, match="out of range"):
            make_digraph(3, [(1, 4)])
        with pytest.raises(GraphError, match="out of range"):
            make_digraph(3, [(0, 2)])

    def test_bad_counts(self):
        with pytest.raises(GraphError):
            make_digraph(-1, [])
        with pytest.raises(GraphError):
            make_digraph("3", [])


@pytest.mark.parametrize("call, message", [
    (lambda: make_digraph(3, [(1, "2")]), "vertex index must be an integer, got '2'"),
    (lambda: make_digraph(3, [(1, 2, 3)]), "arc must be a (tail, head) pair, got (1, 2, 3)"),
    (lambda: make_ugraph(-1, []), "vertex count must be a non-negative integer, got -1"),
    (lambda: make_ugraph(3, [5]), "edge must be a (u, v) pair, got 5"),
    (lambda: is_connected(make_ugraph(0, [])), "connectivity needs at least one vertex"),
    (lambda: ugraph_from_json({"n": 2, "edges": "nope"}), '"edges" must be a list of [u, v] pairs'),
    (lambda: digraph_from_json({"arcs": []}), 'digraph JSON must be {"n": <int>, "arcs": [[tail, head], ...]}'),
    (lambda: digraph_from_json({"n": 2, "arcs": "nope"}), '"arcs" must be a list of [tail, head] pairs'),
    (lambda: ugraph_from_json([1, 2]), 'graph JSON must be {"n": <int>, "edges": [[u, v], ...]}'),
    (lambda: star_graph(1), "a star needs n >= 2, got 1"),
    (lambda: complete_graph(1), "a complete graph needs n >= 2, got 1"),
], ids=["vertex-type", "arc-shape", "ugraph-count", "edge-shape", "connected-empty",
        "edges-json", "digraph-json", "arcs-json", "graph-json", "star-order", "complete-order"])
def test_graph_error_messages(call, message):
    with pytest.raises(GraphError) as raised:
        call()
    assert str(raised.value) == message


class TestMakeUGraph:
    def test_valid(self):
        g = make_ugraph(3, [(3, 1), (1, 2)])
        assert g.edges == ((1, 2), (1, 3))
        assert g.neighbors(1) == [2, 3]
        assert g.degree(2) == 1

    def test_duplicate_reversed(self):
        with pytest.raises(GraphError, match="duplicate"):
            make_ugraph(3, [(1, 2), (2, 1)])

    def test_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            make_ugraph(3, [(2, 2)])


class TestUnderlying:
    def test_two_arcs(self):
        d = make_digraph(3, [(1, 2), (2, 3)])
        assert underlying(d).edges == ((1, 2), (2, 3))

    def test_empty(self):
        assert underlying(make_digraph(2, [])).edges == ()

    def test_jaco_5_has_5_edges(self):
        assert len(underlying(build_jaco(5).digraph).edges) == 5


class TestOrientations:
    def test_path3_counts(self):
        g = make_ugraph(3, [(1, 2), (2, 3)])
        out = list(orientations(g))
        assert len(out) == 4
        assert len(set(out)) == 4

    def test_no_edges(self):
        out = list(orientations(make_ugraph(1, [])))
        assert len(out) == 1
        assert out[0].arcs == ()

    def test_triangle(self):
        g = make_ugraph(3, [(1, 2), (1, 3), (2, 3)])
        assert sum(1 for _ in orientations(g)) == 8

    def test_deterministic(self):
        g = make_ugraph(3, [(1, 2), (2, 3)])
        assert list(orientations(g)) == list(orientations(g))

    def test_bit_order(self):
        g = make_ugraph(2, [(1, 2)])
        out = list(orientations(g))
        assert out[0].arcs == ((1, 2),)
        assert out[1].arcs == ((2, 1),)

    def test_long_stream_starts_at_once(self):
        # no edge cap: the stream is lazy, and its callers bound eps
        g = make_ugraph(8, [(u, v) for u in range(1, 8) for v in range(u + 1, 9)])
        assert len(g.edges) == 28
        assert next(orientations(g)) == Digraph(8, g.edges)


class TestIndexings:
    def test_counts(self):
        assert len(list(indexings(3))) == 6
        assert len(list(indexings(1))) == 1
        assert len(list(indexings(4))) == 24

    def test_lexicographic(self):
        out = list(indexings(3))
        assert out == sorted(out)
        assert out[0] == (1, 2, 3)

    def test_cap_and_domain(self):
        with pytest.raises(CapExceeded):
            indexings(9)
        with pytest.raises(GraphError):
            indexings(0)


class TestIsConnected:
    def test_cases(self):
        assert is_connected(make_ugraph(3, [(1, 2), (2, 3)]))
        assert not is_connected(make_ugraph(2, []))
        assert is_connected(make_ugraph(3, [(1, 2), (1, 3), (2, 3)]))
        assert is_connected(make_ugraph(1, []))


@st.composite
def small_ugraphs(draw):
    n = draw(st.integers(1, 5))
    pool = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=min(6, len(pool)))) if pool else []
    return make_ugraph(n, edges)


@st.composite
def ugraphs_up_to_8(draw):
    n = draw(st.integers(0, 8))
    pool = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(pool), unique=True)) if pool else []
    # either orientation of each pair, to exercise make_ugraph's sorting
    return make_ugraph(n, [(v, u) if draw(st.booleans()) else (u, v) for u, v in edges])


def union_find_components(g):
    parent = list(range(g.n + 1))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in g.edges:
        parent[root(u)] = root(v)
    return len({root(v) for v in range(1, g.n + 1)})


@given(ugraphs_up_to_8())
@settings(max_examples=150)
def test_one_adjacency_table_serves_every_reader(g):
    adjacent = g.adjacency()
    assert len(adjacent) == g.n + 1 and adjacent[0] == set()
    for v in range(1, g.n + 1):
        # the edge-scan definition of neighbors, as the oracle
        scan = [w if u == v else u for u, w in g.edges if v in (u, w)]
        assert adjacent[v] == set(scan)
        assert g.neighbors(v) == scan == sorted(scan)
        assert g.degree(v) == len(adjacent[v]) == len(scan)
    if g.n >= 1:
        assert is_connected(g) == (union_find_components(g) == 1)


def test_neighbors_outside_the_vertex_range():
    g = make_ugraph(3, [(1, 2)])
    for v in (0, 4, -1):
        with pytest.raises(GraphError, match="out of range 1..3"):
            g.neighbors(v)
        with pytest.raises(GraphError, match="out of range 1..3"):
            g.degree(v)


@given(small_ugraphs())
@settings(max_examples=60)
def test_orientations_cover_and_project(g):
    outs = list(orientations(g))
    assert len(outs) == 2 ** len(g.edges)
    assert len(set(outs)) == len(outs)
    for d in outs:
        assert underlying(d) == g


class TestSerialization:
    def test_digraph_json_shape(self):
        d = make_digraph(3, [(1, 2), (2, 3)])
        obj = digraph_to_json(d)
        assert obj == {"n": 3, "arcs": [[1, 2], [2, 3]]}
        assert json.dumps(obj) == '{"n": 3, "arcs": [[1, 2], [2, 3]]}'
        assert digraph_from_json(json.loads(json.dumps(obj))) == d

    def test_ugraph_json_roundtrip(self):
        g = make_ugraph(3, [(1, 2), (2, 3)])
        assert ugraph_from_json(ugraph_to_json(g)) == g
        assert ugraph_to_json(g) == {"n": 3, "edges": [[1, 2], [2, 3]]}

    def test_json_errors(self):
        with pytest.raises(GraphError):
            digraph_from_json({"arcs": []})
        with pytest.raises(GraphError):
            digraph_from_json({"n": 2, "arcs": "nope"})
        with pytest.raises(GraphError):
            ugraph_from_json([1, 2])

    def test_digraph_dot(self):
        d = make_digraph(2, [(1, 2)])
        assert digraph_to_dot(d) == "digraph {\n  1;\n  2;\n  1 -> 2;\n}\n"

    def test_ugraph_dot(self):
        g = make_ugraph(2, [(1, 2)])
        assert ugraph_to_dot(g) == "graph {\n  1;\n  2;\n  1 -- 2;\n}\n"

    def test_empty_dot(self):
        assert digraph_to_dot(make_digraph(0, [])) == "digraph {\n}\n"
        assert ugraph_to_dot(make_ugraph(0, [])) == "graph {\n}\n"
