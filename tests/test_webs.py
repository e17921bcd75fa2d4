import itertools
import math
import tracemalloc
from collections import Counter

import pytest
from conftest import (
    EXAMPLE1_WEBS,
    oracle_automorphism_count,
    oracle_graph_values,
    oracle_webs,
)
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import grogweb.webs as webs
from grogweb.engine import run_strategy, solve_exact
from grogweb.graphs import CapExceeded, GraphError, make_ugraph, orientations
from grogweb.webs import (
    automorphism_count,
    complete_graph,
    cycle_graph,
    enumerate_webs,
    grog_and_distribution,
    grog_number,
    path_graph,
    residual_distribution,
    star_graph,
    web_count_formula,
)

# the graph-level functions, each of which walks the label placements once
GRAPH_LEVEL = (grog_number, residual_distribution, grog_and_distribution)

# a star on 1 plus the path 2-5: 360 placements
FAN = make_ugraph(6, [(1, v) for v in range(2, 7)] + [(2, 3), (3, 4), (4, 5)])


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


@st.composite
def any_graphs(draw, max_n=7):
    """A graph on 1..max_n vertices with any edge set, connected or not."""
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return make_ugraph(n, [pair for k, pair in enumerate(pairs) if mask >> k & 1])


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

    def test_overflow_names_n_and_eps(self):
        # 21! / 2 alone is past 2^63; 10^6! has 5.5 M digits, too slow to
        # build and too long to print
        assert web_count_formula(20, 2) == math.factorial(20) * 2
        for n, eps in ((21, 0), (10**6, 3)):
            with pytest.raises(OverflowError, match=rf"web count {n}! \* 2\^{eps} / 2 exceeds"):
                web_count_formula(n, eps)


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

    def test_dedup_keys_stay_small(self):
        # the first 60,000 dedup webs of P_8 come from its first 469
        # indexings, each kept; one frozenset of frozensets per labelled edge
        # set peaked at 1.1 MB here (47.3 MB over all 40,320 indexings), one
        # int per set at 0.05 MB (3.5 MB over all of them)
        webs = enumerate_webs(path_graph(8), dedup=True)
        tracemalloc.start()
        try:
            assert sum(1 for _ in itertools.islice(webs, 60_000)) == 60_000
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024

    def test_caps_and_connectivity(self):
        with pytest.raises(CapExceeded):
            enumerate_webs(path_graph(9))  # 9 > WEB_N_CAP, raised at the call
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

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.one_of(any_graphs(), connected_bases(max_n=7, max_edges=12)))
    @example(complete_graph(8))
    @example(star_graph(8))
    @example(path_graph(8))
    @example(make_ugraph(8, []))
    def test_against_permutation_scan(self, g):
        assert automorphism_count(g) == oracle_automorphism_count(g)

    def test_cap(self):
        with pytest.raises(CapExceeded, match="^n=9 exceeds the web enumeration cap 8$"):
            automorphism_count(path_graph(9))

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


class TestPlacements:
    def test_one_solve_per_placement(self, monkeypatch):
        calls = []

        def counting(web):
            calls.append(web)
            return solve_exact(web)

        monkeypatch.setattr(webs, "solve_exact", counting)
        # labels 1..D-1 placed injectively give n!/(n-D+1)! placements for
        # max degree D; placements that share their web share its solve
        cases = [
            (path_graph(6), 6, 6),
            (cycle_graph(6), 6, 6),
            (star_graph(4), 12, 3),
            (star_graph(8), 20160, 7),
            (complete_graph(4), 12, 12),
            (path_graph(2), 1, 1),
            (make_ugraph(1, []), 1, 1),
        ]
        for base, placements, solves in cases:
            delta = max(base.degree(v) for v in range(1, base.n + 1))
            k = max(delta - 1, 0)
            assert placements == math.factorial(base.n) // math.factorial(base.n - k)
            for graph_level in GRAPH_LEVEL:
                calls.clear()
                graph_level(base)
                # grog_number solves its witness web once more, for the strategy
                extra = graph_level is grog_number
                assert len(calls) == solves + extra, (base, graph_level.__name__)
                assert len(set(calls)) == solves

    def test_each_solve_belongs_to_its_web(self, monkeypatch):
        # K4's placement webs are distinct tournaments on one edge set; the
        # walk solves each placement web once and counts its grog number
        # for every placement of that web
        calls = []

        def recording(web):
            calls.append((web, solve_exact(web)))
            return calls[-1][1]

        monkeypatch.setattr(webs, "solve_exact", recording)
        for base in (complete_graph(4), star_graph(5), cycle_graph(5), path_graph(5), FAN):
            calls.clear()
            grog, witness, counts = webs._walk(base)
            solved = dict(calls)
            assert len(solved) == len(calls), base
            for web, result in solved.items():
                # the solve keeps nothing on the web: every placement web
                # kept would otherwise carry a __dict__ of its own
                assert vars(web) == {}, (base, web)
                replay = run_strategy(web, result.witness, require_exit=True)
                assert replay.residual == result.grog, (base, web)
            delta = max(base.degree(v) for v in range(1, base.n + 1))
            assert counts.total() == math.perm(base.n, delta - 1), base
            assert set(counts) == {result.grog for result in solved.values()}, base
            assert grog == min(counts) == solved[witness].grog, base
            result = grog_number(base)
            assert (result.grog, result.web) == (grog, witness), base
            assert run_strategy(witness, result.strategy, require_exit=True).residual == grog

    def test_keeps_one_grog_number_per_web(self):
        # a star on 1 plus the path 2-5: holding every placement web's
        # SolveResult peaked at 0.85 MB (grog_number) and 0.72 MB
        # (residual_distribution), one grog int per web at 0.33 / 0.15 MB
        for graph_level in GRAPH_LEVEL:
            tracemalloc.start()
            try:
                graph_level(FAN)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 512 * 1024, (graph_level.__name__, peak)

    def test_raises_before_any_solve(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the cap check")

        monkeypatch.setattr(webs, "solve_exact", no_solve)
        for graph_level in GRAPH_LEVEL:
            with pytest.raises(CapExceeded):
                graph_level(path_graph(9))
            with pytest.raises(CapExceeded):
                graph_level(complete_graph(6))  # 15 edges > 12
            with pytest.raises(GraphError):
                graph_level(make_ugraph(3, [(1, 2)]))


class TestAgainstOracle:
    """The web stream agrees with the per-web direction-mask loop, and
    graph-level values from label placements agree with one solve per
    labelled edge set over all n! indexings."""

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(connected_bases(max_n=5, max_edges=7))
    @example(star_graph(5))
    @example(complete_graph(4))
    @example(cycle_graph(5))
    @example(path_graph(2))
    @example(make_ugraph(1, []))
    def test_web_stream(self, g):
        for dedup in (False, True):
            assert list(enumerate_webs(g, dedup)) == oracle_webs(g, dedup), dedup

    def test_one_orientations_call(self, monkeypatch):
        calls = []

        def counting(g):
            calls.append(g)
            return orientations(g)

        monkeypatch.setattr(webs, "orientations", counting)
        for dedup in (False, True):
            calls.clear()
            assert sum(1 for _ in enumerate_webs(cycle_graph(4), dedup)) == (384, 48)[dedup]
            assert calls == [cycle_graph(4)]

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(connected_bases(max_n=7, max_edges=9))
    @example(star_graph(5))
    @example(complete_graph(5))
    @example(make_ugraph(1, []))
    @example(path_graph(2))
    def test_graph_level_values(self, g):
        grog, web, strategy, hist = oracle_graph_values(g)
        result = grog_number(g)
        assert result.grog == grog
        assert result.web == web
        assert result.strategy == strategy
        assert residual_distribution(g) == hist
        aut = oracle_automorphism_count(g)
        assert grog_and_distribution(g) == (result.grog, result.web, hist, aut)


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
