import random
import time
import tracemalloc

import pytest
from conftest import (
    oracle_competition_edges,
    oracle_isolated,
    oracle_theorem_1_1,
    top_first_builder,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from grogweb import competition
from grogweb.competition import (
    check_theorem_1_1,
    competition_graph,
    competition_to_dot,
    competition_to_json,
    jaco_competition_closed_form,
)
from grogweb.graphs import CapExceeded, GraphError, make_digraph
from grogweb.jaco import JACO_ORDER_CAP, build_jaco


@st.composite
def antiparallel_free_digraphs(draw):
    """Each vertex pair gets no arc, the upward arc or the downward arc."""
    n = draw(st.integers(0, 10))
    pairs = [(u, w) for u in range(1, n + 1) for w in range(u + 1, n + 1)]
    choice = draw(st.lists(st.sampled_from((None, "up", "down")),
                           min_size=len(pairs), max_size=len(pairs)))
    arcs = [(u, w) if c == "up" else (w, u) for (u, w), c in zip(pairs, choice) if c]
    return make_digraph(n, arcs)


class TestCompetitionGraph:
    def test_shared_prey(self):
        c = competition_graph(make_digraph(3, [(1, 3), (2, 3)]))
        assert c.ugraph.edges == ((1, 2),)
        assert c.isolated == (3,)

    def test_no_shared_prey(self):
        c = competition_graph(make_digraph(2, [(1, 2)]))
        assert c.ugraph.edges == ()
        assert c.isolated == (1, 2)

    def test_jaco_5(self):
        c = competition_graph(build_jaco(5).digraph)
        assert c.ugraph.edges == ((3, 4),)
        assert c.isolated == (1, 2, 5)

    def test_matches_pair_scan_oracle_on_random_digraphs(self):
        rng = random.Random(2024)
        for _ in range(60):
            n = rng.randint(2, 8)
            pool = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
            rng.shuffle(pool)
            arcs = []
            taken = set()
            for t, h in pool[: rng.randint(0, len(pool))]:
                if (t, h) in taken or (h, t) in taken:
                    continue
                taken.add((t, h))
                arcs.append((t, h))
            d = make_digraph(n, arcs)
            assert set(competition_graph(d).ugraph.edges) == oracle_competition_edges(d)

    @settings(max_examples=300, deadline=None)
    @given(antiparallel_free_digraphs())
    def test_exact_output_matches_oracles(self, d):
        c = competition_graph(d)
        assert c.ugraph.n == d.n
        assert c.ugraph.edges == tuple(sorted(oracle_competition_edges(d)))
        assert c.isolated == oracle_isolated(d)

    @pytest.mark.parametrize("n", [200, 301])
    def test_large_jaco_direct_equals_closed_form_and_oracle(self, n):
        d = build_jaco(n).digraph
        direct = competition_graph(d)
        assert direct == jaco_competition_closed_form(n)
        assert direct.ugraph.edges == tuple(sorted(oracle_competition_edges(d)))
        assert direct.isolated == oracle_isolated(d)

    def test_sparse_digraph_is_linear_in_its_order(self):
        """Half a million vertices and seven arcs: no per-vertex shift or copy
        of the vertex list, so the scan takes well under a second (the
        pair-scan oracles are cubic, so the answer is written out)."""
        n = 500_000
        d = make_digraph(n, [(1, 400_000), (2, 400_000), (3, n - 1), (n - 2, n - 1),
                             (250_000, 7), (n - 10, 10), (n - 5, 10)])
        start = time.perf_counter()
        c = competition_graph(d)
        elapsed = time.perf_counter() - start
        assert c.ugraph.edges == ((1, 2), (3, n - 2), (n - 10, n - 5))
        rivals = {1, 2, 3, n - 2, n - 10, n - 5}
        assert c.isolated == tuple(v for v in range(1, n + 1) if v not in rivals)
        assert elapsed < 1.0

    def test_edges_share_one_int_per_vertex(self):
        edges = competition_graph(build_jaco(600).digraph).ugraph.edges
        assert len({id(v) for e in edges for v in e}) <= 600


class TestClosedForm:
    def test_n5(self):
        c = jaco_competition_closed_form(5)
        assert c.ugraph.edges == ((3, 4),)
        assert c.isolated == (1, 2, 5)

    def test_n6(self):
        c = jaco_competition_closed_form(6)
        assert c.ugraph.edges == ((3, 4), (4, 5))
        assert c.isolated == (1, 2, 6)

    def test_n7_equals_direct(self):
        assert jaco_competition_closed_form(7) == competition_graph(build_jaco(7).digraph)

    def test_edges_are_the_jaco_arc_tuples(self, monkeypatch):
        built = []

        def spy(n):
            built.append(build_jaco(n))
            return built[-1]

        monkeypatch.setattr(competition, "build_jaco", spy)
        edges = jaco_competition_closed_form(300).ugraph.edges
        arc_ids = {id(arc) for arc in built[0].digraph.arcs}
        assert edges and all(id(e) in arc_ids for e in edges)

    def test_domain(self):
        with pytest.raises(GraphError):
            jaco_competition_closed_form(4)

    def test_matches_the_theorem_statement(self):
        for n in range(5, 151):
            c = jaco_competition_closed_form(n)
            assert (c.ugraph.edges, c.isolated) == oracle_theorem_1_1(n), n


class TestTheoremCheck:
    def test_base_case(self):
        result = check_theorem_1_1(5)
        assert result.all_equal
        assert [r["n"] for r in result.results] == [5]

    def test_up_to_40(self):
        result = check_theorem_1_1(40)
        assert result.all_equal
        assert len(result.results) == 36

    def test_below_domain(self):
        with pytest.raises(GraphError):
            check_theorem_1_1(4)

    def test_builds_only_the_top_order(self, monkeypatch):
        built = []

        def spy(n):
            built.append(n)
            return build_jaco(n)

        monkeypatch.setattr(competition, "build_jaco", spy)
        assert check_theorem_1_1(30).all_equal
        assert built == [30]

    def test_sweep_memory_is_bounded(self):
        # the prefixes share J_300's arc tuples; the sweep peaked at 3.7 MB
        tracemalloc.start()
        try:
            assert check_theorem_1_1(300).all_equal
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5e6, peak

    def test_results_are_ascending(self):
        assert [r["n"] for r in check_theorem_1_1(12).results] == list(range(5, 13))

    def test_order_cap_raises_before_any_other_build(self, monkeypatch):
        top = JACO_ORDER_CAP + 1
        monkeypatch.setattr(competition, "build_jaco", top_first_builder(build_jaco, top))
        with pytest.raises(CapExceeded, match=f"Jaco order {top} exceeds the cap"):
            check_theorem_1_1(top)

    def test_extreme_vertices_isolated(self):
        for n in range(5, 41):
            c = competition_graph(build_jaco(n).digraph)
            assert {1, 2, n} <= set(c.isolated)


def test_serialization():
    c = competition_graph(build_jaco(5).digraph)
    assert competition_to_json(c) == {
        "n": 5,
        "edges": [[3, 4]],
        "isolated": [1, 2, 5],
    }
    dot = competition_to_dot(c)
    assert "graph {" in dot and "3 -- 4;" in dot
