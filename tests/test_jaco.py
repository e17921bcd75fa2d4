import pytest
from conftest import bent_jaconian_reader, jaco_fixed_point_holds, oracle_jaco

from grogweb.graphs import CapExceeded, GraphError
from grogweb.jaco import (
    build_jaco,
    check_jaconian,
    jaco_table,
    jaco_to_json,
    jaconian_vertex,
    max_degree_vertex,
)


class TestBuildJaco:
    def test_order_2(self):
        assert build_jaco(2).digraph.arcs == ((1, 2),)

    def test_order_5(self):
        assert set(build_jaco(5).digraph.arcs) == {(1, 2), (2, 3), (3, 4), (3, 5), (4, 5)}

    def test_order_6_extends_order_5(self):
        assert set(build_jaco(6).digraph.arcs) == set(build_jaco(5).digraph.arcs) | {(4, 6), (5, 6)}

    def test_degree_tables(self):
        jg = build_jaco(5)
        assert jg.in_deg == (0, 1, 1, 1, 2)
        assert jg.out_deg == (1, 1, 2, 1, 0)

    def test_defining_condition_is_a_fixed_point(self):
        # independent oracle: recompute in-degrees from the finished arc
        # set and re-check the arc condition for every pair
        for n in (1, 2, 3, 5, 8, 13, 21, 40, 60):
            assert jaco_fixed_point_holds(build_jaco(n).digraph), n

    def test_matches_head_by_head_oracle(self):
        for n in range(1, 401):
            jg = build_jaco(n)
            assert (jg.digraph.arcs, jg.in_deg, jg.out_deg, jg.jaconian) == oracle_jaco(n), n

    def test_every_order_reads_off_one_table(self):
        # J_m(1) is a prefix of J_300(1): its in-degrees are the table's
        # first m rows, its out-degrees min(m, B_i) - i
        table = in_deg, reach = jaco_table(300)
        for m in range(1, 301):
            _, oracle_in, oracle_out, oracle_jaconian = oracle_jaco(m)
            assert tuple(in_deg[:m]) == oracle_in, m
            assert tuple(min(m, b) - i for i, b in enumerate(reach[:m], 1)) == oracle_out, m
            assert (check_jaconian(table, m) if m >= 2 else None) == oracle_jaconian, m

    def test_every_prefix_equals_its_own_build(self):
        top = build_jaco(300)
        for m in range(1, 301):
            assert top.prefix(m) == build_jaco(m), m

    def test_prefix_arcs_are_the_top_build_tuples(self):
        top = build_jaco(300)
        arc_ids = {id(arc) for arc in top.digraph.arcs}
        for m in (1, 2, 5, 77, 150, 299, 300):
            assert all(id(arc) in arc_ids for arc in top.prefix(m).digraph.arcs), m

    def test_prefix_domain(self):
        top = build_jaco(12)
        for m in (0, 13, 5.0, True):
            with pytest.raises(GraphError, match="prefix order must be in 1..12"):
                top.prefix(m)

    def test_arcs_share_one_int_per_vertex(self):
        # ints above 256 are not cached; one object per vertex keeps the
        # arc tuples the only per-arc allocation
        arcs = build_jaco(600).digraph.arcs
        assert len({id(v) for arc in arcs for v in arc}) <= 600

    def test_degree_bound(self):
        for n in range(1, 61):
            jg = build_jaco(n)
            for i in range(1, n + 1):
                assert jg.in_deg[i - 1] + jg.out_deg[i - 1] <= i

    def test_monotone_nesting_and_extension_structure(self):
        prev = build_jaco(2)
        for n in range(2, 41):
            nxt = build_jaco(n + 1)
            old = set(prev.digraph.arcs)
            new = set(nxt.digraph.arcs)
            assert old <= new
            i = jaconian_vertex(n)
            assert new - old == {(k, n + 1) for k in range(i + 1, n + 1)}
            prev = nxt

    def test_domain_and_cap(self):
        with pytest.raises(GraphError):
            build_jaco(0)
        with pytest.raises(CapExceeded):
            build_jaco(10_001)
        with pytest.raises(GraphError, match="positive integer"):
            jaco_table(0)
        with pytest.raises(CapExceeded, match="Jaco order 10001 exceeds the cap 10000"):
            jaco_table(10_001)


class TestJaconian:
    def test_examples(self):
        assert jaconian_vertex(2) == 1
        assert jaconian_vertex(4) == 2
        assert jaconian_vertex(5) == 3

    def test_conditions_hold_up_to_40(self):
        for n in range(2, 41):
            i = jaconian_vertex(n)
            jg = build_jaco(n)
            assert i + jg.out_deg[i - 1] in (n - 1, n)
            assert 2 * i - n >= 0

    def test_matches_min_max_degree_vertex_up_to_40(self):
        # open cross-check against the max-degree notion; any divergence
        # would be reported by the harness, none is known below 40.  The
        # table reader agrees with the degrees of each built graph.
        table = jaco_table(40)
        for n in range(2, 41):
            jg = build_jaco(n)
            deg = [d_in + d_out for d_in, d_out in zip(jg.in_deg, jg.out_deg)]
            assert max_degree_vertex(table, n) == deg.index(max(deg)) + 1 == jaconian_vertex(n)

    def test_domain(self):
        with pytest.raises(GraphError):
            jaconian_vertex(1)
        with pytest.raises(GraphError):
            check_jaconian(jaco_table(1), 1)
        with pytest.raises(GraphError):
            check_jaconian(jaco_table(5), 6)

    @pytest.mark.parametrize("n", [0, 6, 40])
    def test_max_degree_vertex_domain(self, n):
        # orders past the table's 5 rows, or below 1, have no answer in it
        with pytest.raises(GraphError, match=f"needs 1 <= n <= 5, got {n}$"):
            max_degree_vertex(jaco_table(5), n)
        assert max_degree_vertex(jaco_table(5), 1) == 1

    def test_check_on_a_table(self):
        table = jaco_table(5)
        assert table == ([0, 1, 1, 1, 2], [2, 3, 5, 7, 8])
        assert check_jaconian(table, 5) == jaconian_vertex(5) == build_jaco(5).jaconian == 3
        # v_3 reaching only itself breaks i + d+(v_i) in {n - 1, n}
        with pytest.raises(RuntimeError, match="i \\+ d\\+"):
            check_jaconian((table[0], [2, 3, 3, 7, 8]), 5)

    def test_lemma_2_9_is_not_a_construction_check(self):
        # 2i - n < 0 is the lemma-2.9 claim's to report, not an invariant
        assert bent_jaconian_reader(check_jaconian)(jaco_table(10), 10) == 4

    def test_order_1_has_no_jaconian(self):
        assert build_jaco(1).jaconian is None


def test_jaco_json():
    obj = jaco_to_json(build_jaco(5))
    assert obj == {
        "n": 5,
        "arcs": [[1, 2], [2, 3], [3, 4], [3, 5], [4, 5]],
        "jaconian": 3,
    }
    assert jaco_to_json(build_jaco(1)) == {"n": 1, "arcs": [], "jaconian": None}
