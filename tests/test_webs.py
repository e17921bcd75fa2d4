import math
from collections import Counter

import pytest
from conftest import EXAMPLE1_WEBS
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import grogweb.webs as webs
from grogweb.engine import run_strategy, solve_exact
from grogweb.graphs import CapExceeded, GraphError, make_ugraph, underlying
from grogweb.webs import (
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


@st.composite
def connected_bases(draw, max_n=5, max_edges=6):
    """A connected base graph: a random spanning tree plus extra edges."""
    n = draw(st.integers(2, max_n))
    edges = {
        (draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)
    }
    pool = [
        (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if (u, v) not in edges
    ]
    room = min(max_edges - len(edges), len(pool))
    extra = draw(st.lists(st.sampled_from(pool), max_size=room, unique=True)) if room else []
    return make_ugraph(n, sorted(edges | set(extra)))


def per_web_reference(g):
    """The per-web path: solve_exact on every deduplicated web in stream order."""
    stream = list(enumerate_webs(g, dedup=True))
    solves = [solve_exact(w) for w in stream]
    grogs = [s.grog for s in solves]
    first = grogs.index(min(grogs))
    return grogs, stream[first], solves[first].witness


class TestConstructors:
    def test_path(self):
        assert path_graph(3).edges == ((1, 2), (2, 3))
        with pytest.raises(GraphError):
            path_graph(1)

    def test_cycle(self):
        assert cycle_graph(3).edges == ((1, 2), (1, 3), (2, 3))
        assert len(cycle_graph(4).edges) == 4
        with pytest.raises(GraphError):
            cycle_graph(2)

    def test_star_and_complete(self):
        assert star_graph(4).edges == ((1, 2), (1, 3), (1, 4))
        assert len(complete_graph(4).edges) == 6


class TestWebCountFormula:
    def test_values(self):
        assert web_count_formula(3, 2) == 12
        assert web_count_formula(2, 1) == 2
        assert web_count_formula(4, 3) == 96

    def test_overflow(self):
        with pytest.raises(OverflowError):
            web_count_formula(21, 4)


class TestEnumerateWebs:
    def test_path3_dedup_is_the_twelve_webs(self):
        got = {w.digraph.arcs for w in enumerate_webs(path_graph(3), dedup=True)}
        expected = {tuple(sorted(arcs)) for _, arcs, _ in EXAMPLE1_WEBS}
        assert got == expected
        assert sum(1 for _ in enumerate_webs(path_graph(3), dedup=True)) == 12

    def test_path3_raw_count(self):
        assert sum(1 for _ in enumerate_webs(path_graph(3))) == 24

    def test_k2_dedup_matches_canonical_oracle(self):
        raw = [w.digraph.arcs for w in enumerate_webs(path_graph(2))]
        assert len(raw) == 4
        dedup = [w.digraph.arcs for w in enumerate_webs(path_graph(2), dedup=True)]
        assert len(dedup) == 2
        assert set(dedup) == set(raw)

    def test_dedup_soundness(self):
        # dedup keeps first occurrences: no repeats, same support
        for base in (path_graph(3), cycle_graph(3), path_graph(2)):
            raw = [w.digraph.arcs for w in enumerate_webs(base)]
            dedup = [w.digraph.arcs for w in enumerate_webs(base, dedup=True)]
            assert len(set(dedup)) == len(dedup)
            assert set(dedup) == set(raw)
            seen = set()
            firsts = [a for a in raw if a not in seen and not seen.add(a)]
            assert dedup == firsts

    def test_caps_and_connectivity(self):
        with pytest.raises(CapExceeded):
            list(enumerate_webs(path_graph(3), n_cap=2))
        with pytest.raises(CapExceeded):
            list(enumerate_webs(complete_graph(6)))  # 15 edges > 12
        with pytest.raises(GraphError):
            list(enumerate_webs(make_ugraph(3, [(1, 2)])))


class TestAutomorphisms:
    def test_counts(self):
        assert automorphism_count(path_graph(3)) == 2
        assert automorphism_count(path_graph(4)) == 2
        assert automorphism_count(cycle_graph(3)) == 6
        assert automorphism_count(cycle_graph(4)) == 8
        assert automorphism_count(star_graph(4)) == 6
        assert automorphism_count(complete_graph(4)) == 24

    def test_dedup_count_is_orbit_quotient(self):
        for base in (path_graph(3), cycle_graph(3), cycle_graph(4), star_graph(4)):
            raw = len(list(enumerate_webs(base)))
            dedup = len(list(enumerate_webs(base, dedup=True)))
            assert dedup == raw // automorphism_count(base)


class TestGrogNumber:
    def test_p3(self):
        result = grog_number(path_graph(3))
        assert result.grog == 2
        replay = run_strategy(result.web, result.strategy, require_exit=True)
        assert replay.residual == 2

    def test_p4(self):
        assert grog_number(path_graph(4)).grog == 4

    def test_c3_with_capacity_bound(self):
        # independent lower bound: each vertex supports at most
        # min(label, degree) consumed incident arcs
        base = cycle_graph(3)
        capacity = sum(min(v, base.degree(v)) for v in range(1, 4)) // 2
        assert 6 - 2 * capacity == 2
        assert grog_number(base).grog == 2

    def test_min_invariant_under_dedup(self):
        raw_min = min(solve_exact(w).grog for w in enumerate_webs(path_graph(3)))
        assert raw_min == grog_number(path_graph(3)).grog

    def test_witness_is_first_optimal_in_stream(self):
        first = next(
            w
            for w in enumerate_webs(path_graph(3), dedup=True)
            if solve_exact(w).grog == 2
        )
        assert grog_number(path_graph(3)).web == first


class TestResidualDistribution:
    def test_p3(self):
        assert residual_distribution(path_graph(3)) == {2: 8, 4: 4}
        assert sum(residual_distribution(path_graph(3)).values()) == 12

    def test_single_edge(self):
        assert residual_distribution(path_graph(2)) == {1: 2}


class TestSolveLabellings:
    def test_one_solve_per_labelled_edge_set(self, monkeypatch):
        calls = []

        def counting(web, cap):
            calls.append(web)
            return solve_exact(web, cap=cap)

        monkeypatch.setattr(webs, "solve_exact", counting)
        for base in (path_graph(4), cycle_graph(4), star_graph(4), complete_graph(4)):
            calls.clear()
            solved = solve_labellings(base)
            expected = math.factorial(base.n) // automorphism_count(base)
            assert len(solved) == len(calls) == expected

    def test_values_are_first_mask_zero_webs(self):
        base = cycle_graph(4)
        expected = {}
        # the raw stream holds 2^eps webs per indexing, mask 0 first
        for web in list(enumerate_webs(base))[:: 1 << len(base.edges)]:
            expected.setdefault(underlying(web.digraph).edges, web)
        solved = solve_labellings(base)
        assert list(solved) == list(expected)
        for key, (web, result) in solved.items():
            assert web == expected[key]
            assert result == solve_exact(web)

    def test_raises_before_any_solve(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the cap check")

        monkeypatch.setattr(webs, "solve_exact", no_solve)
        with pytest.raises(CapExceeded):
            solve_labellings(path_graph(3), n_cap=2)
        with pytest.raises(CapExceeded):
            solve_labellings(complete_graph(6))  # 15 edges > 12
        with pytest.raises(GraphError):
            solve_labellings(make_ugraph(3, [(1, 2)]))

    def test_arc_cap_reaches_the_solver(self):
        with pytest.raises(CapExceeded):
            solve_labellings(path_graph(3), arc_cap=1)


class TestAgainstPerWebSolves:
    """Graph-level values from one solve per labelled edge set agree with
    solve_exact on every deduplicated web."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(connected_bases())
    @example(complete_graph(4))
    @example(cycle_graph(5))
    @example(make_ugraph(5, [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)]))
    def test_graph_level_values(self, g):
        grogs, web, strategy = per_web_reference(g)
        hist = residual_distribution(g)
        assert hist == dict(sorted(Counter(grogs).items()))
        assert min(hist) == min(grogs)
        assert set(hist) == set(grogs)
        result = grog_number(g)
        assert result.grog == min(grogs)
        assert result.web == web
        assert result.strategy == strategy
