import collections
import gc
import inspect
import itertools
import math
import random
import tracemalloc
import types

import pytest
from conftest import (
    EXAMPLE1_WEBS,
    oracle_b_matching,
    oracle_greedy,
    oracle_greedy_masks,
    oracle_grog,
    oracle_legal_predations,
    oracle_random_maximal_strategy,
    oracle_solve,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grogweb import engine
from grogweb.claims import random_connected_web
from grogweb.engine import (
    GrogState,
    IllegalBatchError,
    NonTerminalError,
    PredationBatch,
    RunResult,
    Web,
    apply_batch,
    enumerate_greedy,
    legal_predations,
    new_state,
    random_maximal_run,
    run_result_to_json,
    run_strategy,
    solve_exact,
    solve_result_to_json,
    strategy_from_json,
    strategy_to_json,
)
from grogweb.graphs import CapExceeded, Digraph, GraphError, make_digraph
from grogweb.jaco import build_jaco


def web(n, arcs):
    return Web(make_digraph(n, arcs))


def example1_web(item):
    arcs = next(a for i, a, _ in EXAMPLE1_WEBS if i == item)
    return web(3, sorted(arcs))


# webs whose greedy walk meets many masks with the same legal arcs and live
# tight populations: a transitive K_5 and stars centred on v_1 and v_2
K5_TRANSITIVE = web(5, list(itertools.combinations(range(1, 6), 2)))
STAR_V1 = web(7, sorted([(1, v) for v in range(2, 8)] + [(2, 3), (4, 5), (6, 7)]))
STAR_V2 = web(8, sorted([(2, v) for v in (1, 3, 4, 5, 6, 7, 8)] + [(3, 4), (5, 6), (7, 8)]))


class TestState:
    def test_new_state_path(self):
        s = new_state(web(3, [(1, 2), (2, 3)]))
        assert s.pop == (1, 2, 3)
        assert len(s.remaining) == 2

    def test_new_state_single_arc(self):
        s = new_state(web(2, [(1, 2)]))
        assert s.pop == (1, 2)
        assert s.remaining == {(1, 2)}

    def test_no_arcs_terminal(self):
        s = new_state(web(1, []))
        assert s.is_terminal()

    def test_legal_initial(self):
        s = new_state(web(3, [(1, 2), (2, 3)]))
        assert legal_predations(s) == ((1, 2), (2, 3))

    def test_legal_excludes_exhausted_predator(self):
        w = web(3, [(1, 2), (1, 3)])
        s = apply_batch(new_state(w), PredationBatch(1, (2,)))
        assert s.population(1) == 0
        assert legal_predations(s) == ()

    def test_legal_excludes_exhausted_prey(self):
        w = web(3, [(3, 1), (2, 1)])
        s = apply_batch(new_state(w), PredationBatch(3, (1,)))
        assert s.population(1) == 0
        assert legal_predations(s) == ()


class TestApplyBatch:
    def test_example1_item3_full_batch(self):
        s = apply_batch(new_state(example1_web(3)), PredationBatch(2, (1, 3)))
        assert s.pop == (0, 0, 2)
        assert sum(s.pop) == 2

    def test_path_single(self):
        s = apply_batch(new_state(web(3, [(1, 2), (2, 3)])), PredationBatch(1, (2,)))
        assert s.pop == (0, 1, 3)

    def test_prey_exhausted(self):
        w = web(3, [(2, 1), (3, 1)])
        s = apply_batch(new_state(w), PredationBatch(2, (1,)))
        with pytest.raises(IllegalBatchError, match="population 0"):
            apply_batch(s, PredationBatch(3, (1,)))

    def test_predator_short_of_population(self):
        w = web(3, [(1, 2), (1, 3)])
        with pytest.raises(IllegalBatchError, match="cannot predate along 2"):
            apply_batch(new_state(w), PredationBatch(1, (2, 3)))

    def test_arc_not_remaining(self):
        w = web(3, [(1, 2)])
        with pytest.raises(IllegalBatchError, match="not a remaining arc"):
            apply_batch(new_state(w), PredationBatch(1, (3,)))

    def test_first_failed_check_names_the_error(self):
        # after (1, 3) and (2, 3): v_1 is exhausted and v_2 is down to 1
        w = web(4, [(1, 3), (2, 1), (2, 3), (2, 4)])
        s = run_strategy(w, (PredationBatch(1, (3,)), PredationBatch(2, (3,)))).final_state
        with pytest.raises(IllegalBatchError, match=r"arc \(2, 3\) is not a remaining arc"):
            apply_batch(s, PredationBatch(2, (1, 3, 4)))
        with pytest.raises(IllegalBatchError, match="predator v_2 has population 1"):
            apply_batch(s, PredationBatch(2, (1, 4)))
        assert s.pop == (0, 1, 1, 4)

    def test_empty_prey_rejected(self):
        with pytest.raises(GraphError):
            PredationBatch(1, ())


class TestRunStrategy:
    def test_example1_item1(self):
        r = run_strategy(example1_web(1), (PredationBatch(2, (3,)), PredationBatch(1, (2,))))
        assert r.residual == 2
        assert r.predation_count == 2
        assert r.used_arcs == {(1, 2), (2, 3)}

    def test_empty_strategy(self):
        r = run_strategy(example1_web(5), ())
        assert r.residual == 6
        assert r.predation_count == 0

    def test_example1_item9_require_exit(self):
        r = run_strategy(example1_web(9), (PredationBatch(1, (2,)),), require_exit=True)
        assert r.residual == 4

    def test_require_exit_rejects_early_stop(self):
        with pytest.raises(NonTerminalError) as err:
            run_strategy(example1_web(1), (PredationBatch(1, (2,)),), require_exit=True)
        assert err.value.step == 1

    def test_illegal_step_reports_index(self):
        bad = (PredationBatch(2, (3,)), PredationBatch(2, (3,)))
        with pytest.raises(IllegalBatchError) as err:
            run_strategy(example1_web(1), bad)
        assert err.value.step == 1

    def test_deterministic(self):
        w = example1_web(1)
        s = (PredationBatch(2, (3,)), PredationBatch(1, (2,)))
        assert run_strategy(w, s) == run_strategy(w, s)


class TestSolveExact:
    def test_example1_item7(self):
        assert solve_exact(example1_web(7)).grog == 4

    def test_directed_path_4(self):
        w = Web(build_jaco(4).digraph)
        r = solve_exact(w)
        assert (r.grog, r.max_predations) == (4, 3)
        assert oracle_grog(w) == 4

    def test_single_arc(self):
        assert solve_exact(web(2, [(1, 2)])).grog == 1

    def test_all_example1_webs_match_oracle(self):
        for item, arcs, expected in EXAMPLE1_WEBS:
            w = web(3, sorted(arcs))
            assert oracle_grog(w) == expected, item
            assert solve_exact(w).grog == expected, item

    def test_matches_oracle_on_random_webs(self):
        rng = random.Random(5)
        for _ in range(40):
            w = random_connected_web(rng, max_n=5, max_arcs=6)
            assert solve_exact(w).grog == oracle_grog(w)

    def test_witness_replays_to_grog(self):
        rng = random.Random(6)
        webs = [web(3, sorted(a)) for _, a, _ in EXAMPLE1_WEBS]
        webs += [random_connected_web(rng, max_arcs=8) for _ in range(25)]
        webs.append(Web(build_jaco(7).digraph))
        for w in webs:
            result = solve_exact(w)
            replay = run_strategy(w, result.witness, require_exit=True)
            assert replay.residual == result.grog

    def test_witness_tie_break_is_lexicographic(self):
        # both arcs are usable in either order; the witness starts low
        r = solve_exact(web(3, [(1, 2), (2, 3)]))
        assert strategy_to_json(r.witness) == [
            {"predator": 1, "prey": [2]},
            {"predator": 2, "prey": [3]},
        ]

    def test_residual_identity(self):
        w = Web(build_jaco(6).digraph)
        r = solve_exact(w)
        assert r.grog == w.total_population - 2 * r.max_predations
        assert r.states_explored >= 1

    def test_cap(self):
        # the cap is on sum deg(v) * min(v, deg v): J_90 has 128,422 copy
        # edges and K_65 137,216, against 2^17 = 131,072; every arc of J_90
        # can be consumed, so g = 90 * 91 / 2 - 2 * 1553
        assert solve_exact(Web(build_jaco(90).digraph)).grog == 989
        with pytest.raises(CapExceeded, match="gadget"):
            solve_exact(Web(build_jaco(91).digraph))
        k65 = make_digraph(65, itertools.combinations(range(1, 66), 2))
        with pytest.raises(CapExceeded, match="137216 copy edges"):
            solve_exact(Web(k65))

    def test_cap_raises_before_the_gadget(self):
        # J_300's gadget would need about 4.75 M copy edges, some 240 MB
        web = Web(build_jaco(300).digraph)
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded):
                solve_exact(web)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    def test_cap_counts_the_vertex_tables(self):
        # one arc on 2^17 + 1 vertices has a single copy edge, but the
        # per-vertex tables would take about 150 bytes a vertex
        web = Web(make_digraph(engine.SOLVER_GADGET_CAP + 1, [(1, 2)]))
        tracemalloc.start()
        try:
            with pytest.raises(CapExceeded, match="gadget"):
                solve_exact(web)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        web = Web(make_digraph(engine.SOLVER_GADGET_CAP, [(1, 2)]))
        assert solve_exact(web).grog == web.total_population - 2

    def test_jaco_far_past_the_memo_oracle(self):
        # g(J_2) .. g(J_20); J_20 has 78 arcs, 2^78 remaining-arc states
        expected = [1, 2, 4, 5, 7, 8, 10, 13, 15, 18, 22, 25, 29, 32, 36, 41, 45, 50, 54]
        for n in range(2, 20):
            i = build_jaco(n).jaconian
            assert expected[n - 1] == expected[n - 2] + (2 * i - n) + 1, n  # prop-2.10
        for n, g in zip(range(2, 21), expected):
            w = Web(build_jaco(n).digraph)
            r = solve_exact(w)
            assert r.grog == g, n
            assert run_strategy(w, r.witness, require_exit=True).residual == g, n
            if len(w.digraph.arcs) <= 16:
                assert (r.max_predations, r.witness) == oracle_solve(w), n


class TestEnumerateGreedy:
    def test_example1_counts_and_minima(self):
        for item, arcs, expected in EXAMPLE1_WEBS:
            g = enumerate_greedy(web(3, sorted(arcs)))
            assert g.count == 2, item
            assert g.min_residual == expected, item

    def test_single_arc(self):
        g = enumerate_greedy(web(2, [(1, 2)]))
        assert (g.count, g.min_residual) == (1, 1)

    def test_matches_literal_oracle(self):
        rng = random.Random(7)
        webs = [web(3, sorted(a)) for _, a, _ in EXAMPLE1_WEBS]
        webs += [random_connected_web(rng, max_n=4, max_arcs=5) for _ in range(20)]
        for w in webs:
            got = enumerate_greedy(w)
            assert (got.count, got.min_residual) == oracle_greedy(w)

    def test_cap(self):
        with pytest.raises(CapExceeded):
            enumerate_greedy(Web(build_jaco(7).digraph), cap=5)

    def test_jaco_table_is_pinned(self):
        expected = [
            (1, 1), (2, 2), (6, 4), (48, 5), (480, 7), (17280, 8), (725760, 10),
            (34836480, 13), (7524679680, 15),
        ]
        got = [enumerate_greedy(Web(build_jaco(n).digraph)) for n in range(2, 11)]
        assert [(g.count, g.min_residual) for g in got] == expected

    @pytest.mark.parametrize("w, expanded", [
        (K5_TRANSITIVE, 16), (STAR_V1, 4), (STAR_V2, 4),
    ], ids=["transitive-K5", "star-v1", "star-v2"])
    def test_masks_of_one_subgame_merge(self, monkeypatch, w, expanded):
        """Masks with the same legal arcs and live tight populations are
        expanded once, and parts that share no tight vertex are walked
        apart, so the memos of all parts hold 16, 4 and 4 subgames where
        one remaining-arc memo over the whole web holds 70, 50 and 155."""
        walk = engine._greedy_walk
        memos = {}

        def spy(*args):
            memo = inspect.signature(walk).bind(*args).arguments["memo"]
            memos[id(memo)] = memo
            return walk(*args)

        monkeypatch.setattr(engine, "_greedy_walk", spy)
        enumerate_greedy(w)
        assert sum(map(len, memos.values())) == expanded

    def test_leaves_no_cyclic_garbage(self):
        # J_11 has no tight vertex, so each tail is a part of one block and
        # the walks memoise 10 subgames; none may wait for the cyclic collector
        w = Web(build_jaco(11).digraph)
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            assert enumerate_greedy(w).count > 0
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_web_with_no_tight_vertex_stays_small(self):
        # J_11 has no tight vertex, so each of its 10 tails is a part of one
        # block and no walk holds more than a few entries
        w = Web(build_jaco(11).digraph)
        tracemalloc.start()
        try:
            enumerate_greedy(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**10


@st.composite
def random_webs(draw, max_n=5, max_extra=3):
    n = draw(st.integers(2, max_n))
    perm = draw(st.permutations(list(range(1, n + 1))))
    edges = set()
    for idx in range(1, n):
        other = perm[draw(st.integers(0, idx - 1))]
        u, v = sorted((perm[idx], other))
        edges.add((u, v))
    pool = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if (u, v) not in edges
    ]
    if pool:
        extra = draw(st.integers(0, min(max_extra, len(pool))))
        edges.update(draw(st.lists(
            st.sampled_from(pool), unique=True, min_size=extra, max_size=extra
        )))
    bits = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    arcs = tuple(sorted(
        (u, v) if keep else (v, u) for (u, v), keep in zip(sorted(edges), bits)
    ))
    return Web(Digraph(n, arcs))


@given(random_webs(), st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_run_invariants(w, seed):
    """Population bookkeeping, parity, and the arc-count identity on
    random maximal runs, and on run_strategy over a proper prefix of one."""
    rng = random.Random(seed)
    strategy, r = random_maximal_run(w, rng)
    assert not legal_predations(r.final_state)
    # the first batch left out is still legal, so the prefix's play is not over
    prefix = run_strategy(w, strategy[: len(strategy) // 2])
    assert legal_predations(prefix.final_state)
    total = w.total_population
    for res in (r, prefix):
        # consumed and remaining arcs split the web's arcs, one predation each
        assert res.used_arcs.isdisjoint(res.final_state.remaining)
        assert res.used_arcs | res.final_state.remaining == set(w.digraph.arcs)
        assert res.predation_count == len(res.used_arcs)
        # final population is label minus consumed incident arcs: order never matters
        for v in range(1, w.n + 1):
            incident = sum(1 for t, h in res.used_arcs if v in (t, h))
            assert res.final_state.pop[v - 1] == v - incident
            assert res.final_state.pop[v - 1] >= 0
        assert res.residual % 2 == total % 2
        assert 2 * res.predation_count == total - res.residual
        assert res.predation_count <= len(w.digraph.arcs)


@given(random_webs(max_n=7, max_extra=8), st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_random_maximal_run_equals_the_oracle_draw(w, seed):
    """Same strategy, same rng state after the draw, and the result of
    its own play is the result of replaying it."""
    rng, ref = random.Random(seed), random.Random(seed)
    strategy, result = random_maximal_run(w, rng)
    assert strategy == oracle_random_maximal_strategy(w, ref)
    assert rng.getstate() == ref.getstate()
    assert result == run_strategy(w, strategy, require_exit=True)


@given(random_webs(max_n=7, max_extra=8), st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_random_maximal_run_draws_only_getrandbits(w, seed):
    """An rng that has nothing but getrandbits draws the same run."""
    bits_only = types.SimpleNamespace(getrandbits=random.Random(seed).getrandbits)
    assert random_maximal_run(w, bits_only) == random_maximal_run(w, random.Random(seed))


def test_random_maximal_run_on_a_large_pool():
    """v_30 preys on v_1..v_29: its 29 legal heads are more than
    random.sample shuffles as a list, and the prey are still the picks of
    a partial Fisher-Yates shuffle over the heads in arc order."""
    n = 30
    w = web(n, [(n, h) for h in range(1, n)])
    differs_from_sample = 0
    for seed in range(50):
        rng, ref = random.Random(seed), random.Random(seed)
        strategy, result = random_maximal_run(w, rng)
        # v_30 keeps population above the number of its legal heads, and a
        # head leaves the pool once it is preyed on
        heads, expected = list(range(1, n)), []
        while heads:
            assert ref.randrange(1) == 0  # the one tail
            m = len(heads)
            pool, prey = list(heads), []
            for i in range(1 + ref.randrange(m)):
                j = ref.randrange(m - i)
                prey.append(pool[j])
                pool[j] = pool[m - i - 1]
            expected.append(PredationBatch(n, prey))
            heads = [h for h in heads if h not in prey]
        assert strategy == tuple(expected)
        assert rng.getstate() == ref.getstate()
        assert result == run_strategy(w, strategy, require_exit=True)
        differs_from_sample += strategy != oracle_random_maximal_strategy(w, random.Random(seed))
    # random.sample rejects on a set when the pool is large and the batch small
    assert differs_from_sample


@given(random_webs(max_n=7, max_extra=8), st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_random_maximal_run_plays_legal_predations(w, seed):
    """Replayed with apply_batch, each drawn batch takes legal arcs of its
    predator, and the play ends where no arc is legal."""
    strategy = random_maximal_run(w, random.Random(seed))[0]
    state = new_state(w)
    for batch in strategy:
        legal = legal_predations(state)
        assert {(batch.predator, p) for p in batch.prey} <= set(legal)
        assert batch.predator in {t for t, _ in legal}
        state = apply_batch(state, batch)
    assert legal_predations(state) == ()


@given(random_webs(), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_batches_equal_their_serialization(w, seed):
    """A batch is interchangeable with its singles, in any within-batch order."""
    rng = random.Random(seed)
    strategy = random_maximal_run(w, rng)[0]
    singles = []
    for batch in strategy:
        order = sorted(batch.prey)
        rng.shuffle(order)
        singles.extend(PredationBatch(batch.predator, (p,)) for p in order)
    a = run_strategy(w, strategy)
    b = run_strategy(w, tuple(singles))
    assert a.final_state.pop == b.final_state.pop
    assert a.used_arcs == b.used_arcs
    assert a.residual == b.residual


@st.composite
def random_states(draw):
    """A web with any subset of its arcs remaining and any populations 0..label."""
    w = draw(random_webs(max_n=7, max_extra=8))
    keep = draw(st.lists(st.booleans(), min_size=len(w.digraph.arcs),
                         max_size=len(w.digraph.arcs)))
    remaining = frozenset(a for a, k in zip(w.digraph.arcs, keep) if k)
    pop = tuple(draw(st.integers(0, v)) for v in range(1, w.n + 1))
    return GrogState(w, remaining, pop)


@given(random_states())
@settings(max_examples=150, deadline=None)
def test_legal_predations_equals_literal_scan(state):
    legal = legal_predations(state)
    assert type(legal) is tuple
    assert legal == tuple(sorted(oracle_legal_predations(state)))


def fold_apply_batch(w, strategy):
    """run_strategy's result by folding apply_batch, or (step, message)
    of the first illegal batch."""
    state = new_state(w)
    for step, batch in enumerate(strategy):
        try:
            state = apply_batch(state, batch)
        except IllegalBatchError as exc:
            return step, str(exc)
    used = frozenset(w.digraph.arcs) - state.remaining
    return RunResult(state, sum(state.pop), len(used), used)


@st.composite
def corrupted_strategies(draw):
    """A random maximal strategy with one arbitrary batch inserted.

    The inserted batch may name a missing or consumed arc, or leave a
    later predator short of population or a later prey exhausted.
    """
    w = draw(random_webs())
    strategy = list(random_maximal_run(w, random.Random(draw(st.integers(0, 10_000))))[0])
    pred = draw(st.integers(1, w.n))
    others = [v for v in range(1, w.n + 1) if v != pred]
    prey = draw(st.sets(st.sampled_from(others), min_size=1))
    strategy.insert(draw(st.integers(0, len(strategy))), PredationBatch(pred, prey))
    return w, tuple(strategy)


def assert_run_equals_fold(w, strategy):
    expected = fold_apply_batch(w, strategy)
    if isinstance(expected, RunResult):
        assert run_strategy(w, strategy) == expected
        return None
    step, message = expected
    with pytest.raises(IllegalBatchError) as err:
        run_strategy(w, strategy)
    assert err.value.step == step
    assert str(err.value) == f"step {step}: {message}"
    return message


@given(random_webs(), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_run_strategy_equals_folded_apply_batch(w, seed):
    assert assert_run_equals_fold(w, random_maximal_run(w, random.Random(seed))[0]) is None


@given(corrupted_strategies())
@settings(max_examples=150, deadline=None)
def test_corrupted_run_equals_folded_apply_batch(case):
    assert_run_equals_fold(*case)


@pytest.mark.parametrize("item, strategy, step, kind", [
    (1, ((2, (3,)), (2, (3,))), 1, "arc (2, 3) is not a remaining arc"),
    (9, ((1, (2, 3)),), 0, "predator v_1 has population 1, cannot predate along 2 arcs"),
    (8, ((2, (1,)), (3, (1,))), 1, "prey v_1 has population 0"),
])
def test_each_corruption_kind_matches_the_fold(item, strategy, step, kind):
    batches = tuple(PredationBatch(t, prey) for t, prey in strategy)
    assert assert_run_equals_fold(example1_web(item), batches) == kind


@st.composite
def greedy_webs(draw):
    """Webs of n <= 6 and <= 7 arcs: random connected ones, stars centred on
    v_1 or v_2 with up to two extra leaf edges, and orientations of K_4.
    Stars and K_4 make a low-labelled predator face more legal prey than its
    population, so the walk has to choose which arcs it takes."""
    shape = draw(st.sampled_from(["random", "star", "k4"]))
    if shape == "random":
        return draw(random_webs(max_n=6, max_extra=2))
    if shape == "k4":
        edges = list(itertools.combinations(range(1, 5), 2))
        n = 4
    else:
        n = draw(st.integers(3, 6))
        centre = draw(st.sampled_from([1, 2]))
        edges = [tuple(sorted((centre, v))) for v in range(1, n + 1) if v != centre]
        pool = [e for e in itertools.combinations(range(1, n + 1), 2) if centre not in e]
        edges += draw(st.lists(st.sampled_from(pool), unique=True, max_size=2))
    bits = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return Web(Digraph(n, tuple(sorted(
        (u, v) if keep else (v, u) for (u, v), keep in zip(edges, bits)
    ))))


@given(greedy_webs())
@example(web(5, [(1, 2), (1, 3), (1, 4), (1, 5)]))
@example(web(6, [(2, 1), (2, 3), (2, 4), (2, 5), (2, 6), (3, 4), (5, 6)]))
@example(web(4, [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]))
@example(web(4, [(2, 1), (2, 3), (2, 4), (3, 1), (4, 1), (4, 3)]))
@settings(max_examples=150, deadline=None)
def test_greedy_counter_equals_literal_oracle(w):
    got = enumerate_greedy(w)
    assert (got.count, got.min_residual) == oracle_greedy(w)


@st.composite
def larger_greedy_webs(draw):
    """Connected webs of 8-16 arcs: random ones on 6-9 vertices, stars
    centred on v_1 or v_2 with extra leaf edges, and orientations of K_5.
    In the stars and K_5, many masks share their legal arcs and live
    populations, so the walk merges them."""
    shape = draw(st.sampled_from(["random", "star", "k5"]))
    if shape == "k5":
        n = 5
        edges = list(itertools.combinations(range(1, 6), 2))
    elif shape == "star":
        n = draw(st.integers(7, 9))
        centre = draw(st.sampled_from([1, 2]))
        edges = [tuple(sorted((centre, v))) for v in range(1, n + 1) if v != centre]
        pool = [e for e in itertools.combinations(range(1, n + 1), 2) if centre not in e]
        edges += draw(st.lists(st.sampled_from(pool), unique=True,
                               min_size=max(1, 8 - len(edges)), max_size=16 - len(edges)))
    else:
        n = draw(st.integers(6, 9))
        perm = draw(st.permutations(list(range(1, n + 1))))
        edges = [tuple(sorted((perm[i], perm[draw(st.integers(0, i - 1))])))
                 for i in range(1, n)]
        pool = [e for e in itertools.combinations(range(1, n + 1), 2) if e not in edges]
        edges += draw(st.lists(st.sampled_from(pool), unique=True, min_size=max(0, 8 - len(edges)),
                               max_size=min(len(pool), 16 - len(edges))))
    bits = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return Web(Digraph(n, tuple(sorted(
        (u, v) if keep else (v, u) for (u, v), keep in zip(edges, bits)
    ))))


@given(larger_greedy_webs())
@example(K5_TRANSITIVE)
@example(STAR_V1)
@example(STAR_V2)
@settings(max_examples=60, deadline=None)
def test_greedy_counter_equals_mask_oracle(w):
    assert 8 <= len(w.digraph.arcs) <= 16
    assert tuple(enumerate_greedy(w)) == oracle_greedy_masks(w)


def greedy_parts(w: Web) -> int:
    """The number of independent subgames of `w`: arcs grouped by tail,
    each tail joined to the tight heads (degree above label) of its
    out-arcs, counted by a search over tails."""
    arcs = w.digraph.arcs
    deg = {v: 0 for v in range(1, w.n + 1)}
    for arc in arcs:
        for v in arc:
            deg[v] += 1
    near = {t: set() for t, _ in arcs}
    for t, h in arcs:
        if deg[h] > h:
            near[t].add(h)
            near.setdefault(h, set()).add(t)
    tails, parts, seen = {t for t, _ in arcs}, 0, set()
    for t in tails:
        if t not in seen:
            parts += 1
            stack = [t]
            while stack:
                v = stack.pop()
                if v not in seen:
                    seen.add(v)
                    stack.extend(near.get(v, ()))
    return parts


@st.composite
def split_greedy_webs(draw):
    """Connected webs of 8-16 arcs on 8-10 vertices that split into at
    least two subgames.  One to three of v_1..v_3 are tight centres, each
    joined to more high vertices (v_4..v_n) than its label; the high
    vertices form a path, the other low vertices hang off v_n, and extra
    high edges are added while every high vertex stays within its label.
    A high vertex is the tail of arcs into at most one centre, so the
    centres stay apart, and v_n is a tail into high or leaf vertices only,
    so it stays apart from every centre."""
    n = draw(st.integers(8, 10))
    centres = draw(st.sampled_from([(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]))
    high = list(range(4, n + 1))
    edges = [(v, v + 1) for v in range(4, n)]
    edges += [(v, n) for v in range(1, 4) if v not in centres]
    for c in centres:
        size = c + 1 if len(centres) == 3 else draw(st.integers(c + 1, c + 2))
        edges += [(c, h) for h in draw(st.lists(st.sampled_from(high), unique=True,
                                                 min_size=size, max_size=size))]
    deg = {v: 0 for v in range(1, n + 1)}
    for e in edges:
        for v in e:
            deg[v] += 1
    pool = [e for e in itertools.combinations(high, 2) if e not in edges]
    for u, v in draw(st.lists(st.sampled_from(pool), unique=True, max_size=6)):
        if len(edges) < 16 and deg[u] < u and deg[v] < v:
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    bits = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    arcs, into_centre = [], set()
    for (u, v), keep in zip(edges, bits):
        if n in (u, v):
            keep = u != n if u in centres else v != n
        elif u in centres and not keep:
            keep = v in into_centre
            into_centre.add(v)
        arcs.append((u, v) if keep else (v, u))
    return Web(make_digraph(n, arcs))


@given(split_greedy_webs())
@settings(max_examples=40, deadline=None)
def test_split_webs_equal_mask_oracle(w):
    assert 8 <= len(w.digraph.arcs) <= 16
    assert greedy_parts(w) >= 2
    assert tuple(enumerate_greedy(w)) == oracle_greedy_masks(w)


@st.composite
def untight_webs(draw):
    """Connected webs of at most 24 arcs in which every vertex meets at
    most as many arcs as its label: a tree grown from v_n downwards, each
    vertex hung off a higher one with room, plus extra edges with room."""
    n = draw(st.integers(2, 12))
    deg = [0] * (n + 1)
    edges = []
    for v in range(n - 1, 0, -1):
        u = draw(st.sampled_from([u for u in range(v + 1, n + 1) if deg[u] < u]))
        edges.append((v, u))
        deg[u] += 1
        deg[v] += 1
    for u, v in draw(st.lists(st.sampled_from(list(itertools.combinations(range(1, n + 1), 2))),
                              unique=True, max_size=24)):
        if len(edges) < 24 and (u, v) not in edges and deg[u] < u and deg[v] < v:
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
    bits = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return Web(make_digraph(n, [(u, v) if keep else (v, u) for (u, v), keep in zip(edges, bits)]))


def assert_untight_closed_form(w):
    """With no tight vertex no arc dies: each tail plays one block of all
    its out-arcs, in any order of the tails, and every arc is consumed."""
    arcs = w.digraph.arcs
    for v in range(1, w.n + 1):
        assert sum(v in arc for arc in arcs) <= v
    outdeg = collections.Counter(t for t, _ in arcs)
    count = math.factorial(len(outdeg)) * math.prod(map(math.factorial, outdeg.values()))
    got = enumerate_greedy(w)
    assert (got.count, got.min_residual) == (count, w.n * (w.n + 1) // 2 - 2 * len(arcs))


@pytest.mark.parametrize("n", range(2, 12))
def test_jaco_greedy_closed_form(n):
    assert_untight_closed_form(Web(build_jaco(n).digraph))


@given(untight_webs())
@settings(max_examples=60, deadline=None)
def test_untight_greedy_closed_form(w):
    assert_untight_closed_form(w)


@given(random_webs())
@settings(max_examples=60, deadline=None)
def test_greedy_minimum_equals_exact(w):
    assert enumerate_greedy(w).min_residual == solve_exact(w).grog


@given(random_webs(max_n=7, max_extra=8))
@example(Web(Digraph(5, ((2, 1), (2, 3), (2, 4), (2, 5), (3, 1), (4, 1), (4, 3), (4, 5),
                         (5, 1), (5, 3)))))
@example(Web(Digraph(6, ((2, 1), (2, 3), (2, 4), (3, 1), (3, 4), (3, 6), (4, 1), (5, 2),
                         (6, 4)))))
@settings(max_examples=100, deadline=None)
def test_solve_exact_equals_memo_and_subset_oracles(w):
    """On connected webs of up to 14 arcs: value and exact witness against
    the bitmask memo search and, up to 12 arcs, the value against brute
    force over arc subsets."""
    r = solve_exact(w)
    max_pred, witness = oracle_solve(w)
    assert (r.grog, r.max_predations, r.witness) == (
        w.total_population - 2 * max_pred, max_pred, witness
    )
    if len(w.digraph.arcs) <= 12:
        assert r.max_predations == oracle_b_matching(w.n, w.digraph.arcs, range(w.n + 1))


@st.composite
def b_matching_cases(draw):
    """(n, arcs, b): a web of up to 14 arcs, with b[v] in 0..deg(v) + 1."""
    w = draw(random_webs(max_n=7, max_extra=8))
    deg = [sum(v in arc for arc in w.digraph.arcs) for v in range(w.n + 1)]
    return w.n, w.digraph.arcs, [draw(st.integers(0, d + 1)) for d in deg]


@given(b_matching_cases())
@settings(max_examples=100, deadline=None)
def test_b_matching_core_equals_subset_oracle(case):
    """The core's size against brute force over arc subsets, with
    capacities other than the labels."""
    assert engine._BMatching(*case).size == oracle_b_matching(*case)


@given(b_matching_cases(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_b_matching_take_re_augments(case, rng):
    """Offered the arcs in any order, the core takes an arc exactly when a
    fresh core on the arcs not yet taken, with b lowered by the taken
    arcs, is one smaller without it; a refused take changes nothing."""
    n, arcs, b = case
    core = engine._BMatching(n, arcs, b)
    size = core.size
    left, room = dict(enumerate(arcs)), list(b)
    for k in rng.sample(range(len(arcs)), len(arcs)):
        t, h = arcs[k]
        rest = [arc for j, arc in left.items() if j != k]
        lowered = list(room)
        lowered[t] -= 1
        lowered[h] -= 1
        fits = min(lowered[t], lowered[h]) >= 0
        fits = fits and engine._BMatching(n, rest, lowered).size == size - 1
        before = list(core.mate), bytes(core.dead)
        assert core.take(k, t, h) == fits
        if fits:
            del left[k]
            room, size = lowered, size - 1
        else:
            assert (core.mate, bytes(core.dead)) == before
    assert core.size == engine._BMatching(n, arcs, b).size


def test_strategy_json_roundtrip():
    s = (PredationBatch(2, (1, 3)), PredationBatch(3, (2,)))
    encoded = strategy_to_json(s)
    assert encoded == [
        {"predator": 2, "prey": [1, 3]},
        {"predator": 3, "prey": [2]},
    ]
    assert strategy_from_json(encoded) == s
    with pytest.raises(GraphError):
        strategy_from_json({"predator": 1})
    with pytest.raises(GraphError):
        strategy_from_json([{"prey": [1]}])


def test_result_json_fields():
    w = example1_web(1)
    r = run_strategy(w, (PredationBatch(2, (3,)), PredationBatch(1, (2,))))
    assert run_result_to_json(r) == {
        "residual": 2,
        "predation_count": 2,
        "used_arcs": [[1, 2], [2, 3]],
        "population": [0, 0, 2],
    }
    s = solve_exact(w)
    obj = solve_result_to_json(s)
    assert obj["grog"] == 2 and obj["max_predations"] == 2
    assert "witness" in obj
    assert "witness" not in solve_result_to_json(s, include_witness=False)
