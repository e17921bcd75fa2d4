import difflib
import hashlib
import json
import resource
import tracemalloc

import pytest
from conftest import bent_jaconian_reader, closed_form_without, top_first_builder
from golden.rewrite import SEEDS as GOLDEN_SEEDS, golden_path, report_text

import grogweb.claims as claims
import grogweb.competition as competition
import grogweb.engine as engine
import grogweb.jaco as jaco
import grogweb.webs as webs
from grogweb.claims import (
    CLAIM_INFO,
    CLAIM_ORDER,
    HarnessConfig,
    check_cycle_relations,
    check_greedy_equivalence,
    check_jaco_recursion,
    check_orientation_divergence,
    check_path_relations,
    check_terminal_state_laws,
    check_web_count,
    corpus_webs,
    run_all,
    run_claims,
)
from grogweb.engine import IllegalBatchError, Web, strategy_to_json
from grogweb.graphs import CapExceeded, GraphError, digraph_to_json, make_digraph
from grogweb.webs import WEB_EDGE_CAP, WEB_N_CAP, cycle_graph, enumerate_webs, path_graph

SMALL = HarnessConfig(runs_per_web=3, random_webs=5, random_greedy_webs=10)


def dedup_webs(base):
    return list(enumerate_webs(base, dedup=True))


def p3_webs():
    return dedup_webs(path_graph(3))


def failed_claims(claim_ids, config=SMALL):
    """The claims' reports by id, from a run asserted to fail overall and
    to serialise as JSON."""
    report = run_claims(claim_ids, config)
    assert report["status"] == "fail"
    json.dumps(report)
    return {c["id"]: c for c in report["claims"]}


class TestLemmaChecks:
    def test_exit_lemma_on_p3(self):
        report, _, _ = check_terminal_state_laws(p3_webs(), runs=50, seed=1)
        assert report.status == "pass"
        assert report.instances == 600

    def test_parity_and_arc_count(self):
        _, parity, count = check_terminal_state_laws(p3_webs(), runs=20, seed=2)
        assert parity.status == "pass" and count.status == "pass"
        assert parity.claim_id == "lemma-2.2" and count.claim_id == "lemma-2.3"

    def test_one_vertex_web_is_skipped(self):
        alone, _, _ = check_terminal_state_laws(p3_webs(), runs=5, seed=3)
        report, _, _ = check_terminal_state_laws(
            [Web(make_digraph(1, [])), *p3_webs()], runs=5, seed=3)
        assert report.values["skipped_webs"] == 1
        assert report.instances == alone.instances == 60
        assert report.failures == alone.failures
        assert report.status == "pass"

    def test_single_arc_web_passes_exit_lemma(self):
        report, _, _ = check_terminal_state_laws([Web(make_digraph(2, [(1, 2)]))], runs=5, seed=3)
        assert report.status == "pass"

    def test_the_three_laws_share_one_draw_per_run(self, monkeypatch):
        drawn = []

        def counting(web, rng):
            drawn.append(web)
            return engine.random_maximal_run(web, rng)

        monkeypatch.setattr(claims, "random_maximal_run", counting)
        report = run_claims(["lemma-2.1", "lemma-2.2", "lemma-2.3"], HarnessConfig())
        assert [c["status"] for c in report["claims"]] == ["pass"] * 3
        # 194 corpus webs x 10 runs, once for all three claims
        assert len(drawn) == 1940


class TestPathAndCycle:
    def test_path_recursion_values(self):
        _, report = check_path_relations(6)
        assert report.status == "pass"
        assert report.values["g"] == {"3": 2, "4": 4, "5": 7, "6": 11}

    def test_path_recursion_domain(self):
        with pytest.raises(ValueError):
            check_path_relations(2)
        with pytest.raises(CapExceeded):
            check_path_relations(9)

    def test_family_caps_raise_before_any_work(self, monkeypatch):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("enumerated before the cap check")

        # the checks' default `values` is bound when they are defined, so a
        # direct call is handed the failing walk; run_claims reads the patch
        monkeypatch.setattr(claims, "grog_and_distribution", no_enumeration)
        for check in (check_path_relations, check_cycle_relations):
            with pytest.raises(CapExceeded):
                check(WEB_N_CAP + 1, no_enumeration)
            with pytest.raises(GraphError):
                check(2, no_enumeration)
        report = run_claims(["cor-2.5", "prop-2.7"], HarnessConfig(n_max_path=2, n_max_cycle=9))
        assert [c["status"] for c in report["claims"]] == ["skipped", "skipped"]

    def test_path_recursion_past_six(self):
        _, report = check_path_relations(7)
        assert report.status == "pass"
        assert report.values["g"]["7"] == 16

    def test_cycle_relations_are_report_only(self):
        prop, cor = check_cycle_relations(6)
        assert prop.status == "reported" and cor.status == "reported"
        assert prop.values["g_cycle"] == {"3": 2, "4": 4, "5": 7, "6": 11}
        assert prop.values["cycle_deltas"] == {"4": 2, "5": 3, "6": 4}
        assert cor.values["cycle_minus_path"] == {"3": 0, "4": 0, "5": 0, "6": 0}
        assert cor.values["naive_minus_2_reading_holds"] is False

    def test_path_extension_report(self):
        report, _ = check_path_relations(6)
        assert report.status == "reported"
        assert report.values["per_web_grog"]["P3"] == {"2": 8, "4": 4}
        assert report.values["extension_deltas"] == {"4": 2, "5": 3, "6": 4}

    def test_path_claims_share_one_solve_per_order(self, monkeypatch):
        solved = []

        def counting(base):
            solved.append(base.n)
            return webs.grog_and_distribution(base)

        monkeypatch.setattr(claims, "grog_and_distribution", counting)
        report = run_claims(["prop-2.4", "cor-2.5"], HarnessConfig())
        assert [c["status"] for c in report["claims"]] == ["reported", "pass"]
        assert solved == [3, 4, 5, 6]

    def test_run_all_solves_each_family_order_once(self, monkeypatch):
        # the cycle, divergence and web-count groups read the path group's
        # memo: each of K_2, P_3..P_6, C_3..C_6, star_4 and K_4 is walked once
        solved = []

        def counting(base):
            solved.append(base)
            return webs.grog_and_distribution(base)

        monkeypatch.setattr(claims, "grog_and_distribution", counting)
        run_all()
        assert sorted(base.n for base in solved) == [2, 3, 3, 4, 4, 4, 4, 5, 5, 6, 6]
        assert len(set(solved)) == len(solved) == 11

    def test_run_all_solves_each_placement_web_once(self, monkeypatch):
        # one walk per base solves each of the 11 bases' 52 distinct
        # placement webs once
        solved = []

        def counting(web):
            solved.append(web)
            return engine.solve_exact(web)

        monkeypatch.setattr(webs, "solve_exact", counting)
        run_all()
        assert len(set(solved)) == len(solved) == 52

    def test_run_all_searches_each_base_once(self, monkeypatch):
        # web-count reads |Aut| off the memo that scaled each base's histogram
        searched, search = [], webs.automorphism_count

        def counting(g):
            searched.append(g)
            return search(g)

        monkeypatch.setattr(webs, "automorphism_count", counting)
        run_all()
        assert len(set(searched)) == len(searched) == 11

    def test_family_memo_is_keyed_per_order(self, monkeypatch):
        # a longer cycle range solves only the paths the path group left out
        solved = []

        def counting(base):
            solved.append((len(base.edges) == base.n, base.n))
            return webs.grog_and_distribution(base)

        monkeypatch.setattr(claims, "grog_and_distribution", counting)
        config = HarnessConfig(n_max_path=4, n_max_cycle=6)
        report = run_claims(["cor-2.5", "prop-2.7"], config)
        assert [c["status"] for c in report["claims"]] == ["pass", "reported"]
        assert solved == [(False, 3), (False, 4), (True, 3), (True, 4), (True, 5), (True, 6),
                          (False, 5), (False, 6)]


class TestJacoClaims:
    def test_recursion_holds(self):
        lemma, prop, cor = check_jaco_recursion(7, lemma29_n_max=40)
        assert lemma.status == "pass"
        assert lemma.values["max_degree_divergences"] == []
        assert prop.status == "pass"
        assert prop.values["g_jaco"] == {"2": 1, "3": 2, "4": 4, "5": 5, "6": 7, "7": 8}
        assert prop.values["jaconian"] == {"2": 1, "3": 2, "4": 2, "5": 3, "6": 3}
        assert cor.status == "pass"

    def test_lemma_2_9_counterexample_is_reported(self, monkeypatch):
        monkeypatch.setattr(claims, "check_jaconian", bent_jaconian_reader(jaco.check_jaconian))
        report = run_claims(["lemma-2.9"], HarnessConfig())
        lemma = report["claims"][0]
        assert (lemma["id"], lemma["status"]) == ("lemma-2.9", "fail")
        assert lemma["failures"] == [{"n": 10, "jaconian": 4, "two_i_minus_n": -2}]
        assert report["status"] == "fail"

    def test_cap(self):
        # J_91 is the first Jaco web past the solver's gadget cap
        with pytest.raises(CapExceeded, match="gadget"):
            check_jaco_recursion(91, 40)
        with pytest.raises(GraphError):
            check_jaco_recursion(1, 40)

    def test_solves_up_to_the_first_refused_order(self, monkeypatch):
        solved = []

        def recording(web):
            solved.append(web.n)
            return engine.solve_exact(web)

        monkeypatch.setattr(claims, "solve_exact", recording)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        with pytest.raises(CapExceeded, match="132814 copy edges"):
            check_jaco_recursion(jaco.JACO_ORDER_CAP, 40)
        grown_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
        # J_91 is the first order the solver refuses, so no larger order is
        # built: J_10000's 19,099,030 arcs would raise the peak RSS by about
        # 1.4 GB, while J_2..J_91 fit in a few MB (ru_maxrss is in KB on Linux)
        assert solved == list(range(2, 92))
        assert grown_kb < 64 * 1024, f"peak RSS grew by {grown_kb} KB"

    def test_empty_lemma_range_counts_no_instance(self):
        # an empty lemma range counts no order, never a negative number
        lemma, _, _ = check_jaco_recursion(3, 0)
        assert (lemma.status, lemma.instances, lemma.failures) == ("pass", 0, [])
        assert lemma.values == {"n_range": [2, 0], "max_degree_divergences": []}

    @pytest.mark.parametrize("n_max, lemma29_n_max, top", [(7, 40, 40), (7, 5, 7)])
    def test_one_table_of_the_top_order(self, monkeypatch, n_max, lemma29_n_max, top):
        tables, built = [], []
        monkeypatch.setattr(claims, "jaco_table", lambda n: tables.append(n) or jaco.jaco_table(n))
        monkeypatch.setattr(claims, "build_jaco", lambda n: built.append(n) or jaco.build_jaco(n))
        check_jaco_recursion(n_max, lemma29_n_max)
        # every order is read off one table; only the solved orders are built
        assert tables == [top]
        assert built == list(range(2, n_max + 1))

    def test_holds_no_arcs_of_the_lemma_orders(self):
        # holding J_500(1)'s 47,782 arc tuples peaks at 6.5 MB; its table is 1,000 ints
        tracemalloc.start()
        try:
            lemma, _, _ = check_jaco_recursion(7, 500)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (lemma.status, lemma.instances) == ("pass", 499)
        assert peak < 1 << 20, f"peak {peak} B"

    @pytest.mark.parametrize("n_max, lemma29_n_max", [
        (7, jaco.JACO_ORDER_CAP + 1), (jaco.JACO_ORDER_CAP + 1, 40),
    ])
    def test_order_cap_raises_before_any_other_build(self, monkeypatch, n_max, lemma29_n_max):
        top = max(n_max, lemma29_n_max)
        monkeypatch.setattr(claims, "jaco_table", top_first_builder(jaco.jaco_table, top))
        monkeypatch.setattr(claims, "build_jaco", top_first_builder(jaco.build_jaco, top))
        with pytest.raises(CapExceeded, match=f"Jaco order {top} exceeds the cap"):
            check_jaco_recursion(n_max, lemma29_n_max)

    def test_lemma_orders_above_the_solved_range_are_read_not_built(self, monkeypatch):
        built, solved = [], []

        def recording(web):
            solved.append(web.n)
            return engine.solve_exact(web)

        monkeypatch.setattr(claims, "build_jaco", lambda n: built.append(n) or jaco.build_jaco(n))
        monkeypatch.setattr(claims, "solve_exact", recording)
        lemma, prop, _ = check_jaco_recursion(4, lemma29_n_max=9)
        assert built == solved == [2, 3, 4]
        assert (lemma.instances, lemma.values["n_range"]) == (8, [2, 9])
        assert prop.values["jaconian"] == {"2": 1, "3": 2}


class TestEmptyRange:
    @pytest.mark.parametrize("cid, n_max, name", [
        ("cor-2.5", 3, "path_n_max"),
        ("prop-2.10", 2, "jaco_n_max"),
        ("cor-2.11", 2, "jaco_n_max"),
        ("lemma-2.9", -3, "lemma_2_9_n_max"),
        ("lemma-2.9", 1, "lemma_2_9_n_max"),
    ])
    def test_assert_claim_without_instance_is_skipped(self, cid, n_max, name):
        report = run_claims([cid], HarnessConfig()._replace(**{CLAIM_INFO[cid][2]: n_max}))
        (claim,) = report["claims"]
        assert (claim["status"], claim["instances"], claim["failures"]) == ("skipped", 0, [])
        assert claim["values"] == {
            "skip_reason": f"empty range: {name} = {n_max} leaves no instance"
        }
        assert report["status"] == "incomplete"

    def test_claim_without_range(self):
        report = run_claims(["lemma-2.1"], SMALL._replace(runs_per_web=0))
        assert report["claims"][0]["values"] == {"skip_reason": "no instance to check"}
        assert report["status"] == "incomplete"

    def test_report_only_claim_stays_reported(self):
        report = run_claims(["prop-2.7"], HarnessConfig(n_max_cycle=3))
        assert (report["claims"][0]["status"], report["claims"][0]["instances"]) == ("reported", 0)
        assert report["status"] == "pass"

    def test_one_instance_still_passes(self):
        report = run_claims(["lemma-2.9", "cor-2.5"], HarnessConfig(n_max_lemma29=2, n_max_path=4))
        assert [(c["status"], c["instances"]) for c in report["claims"]] == [
            ("pass", 1), ("pass", 1),
        ]


class TestDivergence:
    def test_honest_failure_on_symmetric_bases(self):
        # brute force refutes the universal divergence claim: every web
        # of C3, C4 and K4 has the same grog number
        report = check_orientation_divergence()
        assert report.status == "fail"
        assert sorted(f["base"] for f in report.failures) == ["C3", "C4", "K4"]
        assert report.values["bases"]["P3"]["distinct"] == [2, 4]
        assert report.values["bases"]["P4"]["distinct"] == [4, 6]
        assert report.values["bases"]["star4"]["min"] == 4
        assert report.values["bases"]["C3"] == {"min": 2, "max": 2, "distinct": [2]}


class TestGreedyEquivalence:
    def test_named_corpus(self):
        report = check_greedy_equivalence(corpus_webs(SMALL), SMALL.arc_cap)
        assert report.status == "pass"

    @pytest.mark.parametrize("seed", [42, 1, 20150206])
    def test_no_input_reaches_the_greedy_cap(self, seed):
        # why neither `enumerate` nor `verify` has a greedy-cap flag: enumerate's
        # webs stop at WEB_EDGE_CAP arcs and the harness corpora at 10, both
        # below GREEDY_ARC_CAP; a change that breaks this must decide the cap anew
        assert WEB_EDGE_CAP < engine.GREEDY_ARC_CAP
        # the def-2.2-equivalence corpus is drawn from seed + 4
        greedy = HarnessConfig(seed=seed + 4, random_webs=HarnessConfig().random_greedy_webs)
        corpora = [HarnessConfig(seed=seed), greedy]
        largest = max(len(w.digraph.arcs) for c in corpora for w in corpus_webs(c))
        assert largest <= 10


class TestWebCount:
    def test_counts_and_mismatch_flags(self):
        report = check_web_count(dedup_webs)
        assert report.status == "pass"
        bases = report.values["bases"]
        assert bases["P3"] == {"formula": 12, "dedup": 12, "aut": 2}
        assert bases["C3"]["formula_mismatch"] is True
        assert bases["C3"]["dedup"] == 8


class TestHarnessSanity:
    def test_fault_injection_is_caught(self, monkeypatch):
        """An engine corrupted by an off-by-one in the population update
        must trip the parity and arc-count claims with counterexamples."""
        real = engine._play

        def corrupted(pop, remaining, pred, prey):
            consumed = real(pop, remaining, pred, prey)
            pop[pred - 1] += 1
            return consumed

        # every move, in random_maximal_run, run_strategy and apply_batch, goes
        # through the one in-place step
        monkeypatch.setattr(engine, "_play", corrupted)
        _, parity, count = check_terminal_state_laws(p3_webs(), runs=3, seed=4)
        assert parity.status == "fail"
        assert count.status == "fail"
        assert parity.failures and "residual" in parity.failures[0]

    def test_exit_lemma_fault_is_caught(self, monkeypatch):
        """An engine whose population update never empties a vertex must
        trip lemma-2.1 through the runs it shares with lemma-2.2/2.3."""
        real = engine._play

        def never_empties(pop, remaining, pred, prey):
            consumed = real(pop, remaining, pred, prey)
            for v in (pred, *prey):
                pop[v - 1] = max(pop[v - 1], 1)
            return consumed

        monkeypatch.setattr(engine, "_play", never_empties)
        exit_report, _, _ = check_terminal_state_laws(p3_webs(), runs=3, seed=4)
        assert exit_report.status == "fail"
        assert exit_report.failures and 0 not in exit_report.failures[0]["final_population"]

    # Each test below bends one input of an assert claim and checks that the
    # claim fails with the exact counterexample, and the run with it.

    def test_closed_form_fault_is_caught(self, monkeypatch):
        bent = closed_form_without(competition._closed_form, 9, (3, 4))
        monkeypatch.setattr(competition, "_closed_form", bent)
        report = failed_claims(["thm-1.1"], SMALL._replace(n_max_thm11=12))["thm-1.1"]
        assert report["status"] == "fail"
        assert report["failures"] == [{
            "n": 9, "equal": False, "missing": [(3, 4)], "extra": [],
            "isolated_closed": [1, 2, 9], "isolated_direct": [1, 2, 9],
        }]

    def test_path_recursion_fault_is_caught(self, monkeypatch):
        def bent(g):
            grog, web, hist, aut = webs.grog_and_distribution(g)
            return (8 if g == path_graph(5) else grog), web, hist, aut

        monkeypatch.setattr(claims, "grog_and_distribution", bent)
        report = failed_claims(["cor-2.5"])["cor-2.5"]
        assert report["status"] == "fail"
        assert report["failures"] == [
            {"n": 4, "g_n": 4, "g_n_plus_1": 8, "expected": 7},
            {"n": 5, "g_n": 8, "g_n_plus_1": 11, "expected": 12},
        ]

    def test_collapsed_histogram_bends_both_readers(self, monkeypatch):
        # prop-2.4 and thm-2.6 read P_4's histogram off one walk
        walked = []

        def bent(g):
            walked.append(g)
            grog, web, hist, aut = webs.grog_and_distribution(g)
            return grog, web, ({4: sum(hist.values())} if g == path_graph(4) else hist), aut

        monkeypatch.setattr(claims, "grog_and_distribution", bent)
        by_id = failed_claims(["prop-2.4", "thm-2.6"])
        assert walked.count(path_graph(4)) == 1
        assert by_id["prop-2.4"]["values"]["per_web_grog"]["P4"] == {"4": 96}
        assert by_id["thm-2.6"]["failures"] == [
            {"base": "P4", "grog": 4}, {"base": "C3", "grog": 2},
            {"base": "C4", "grog": 4}, {"base": "K4", "grog": 2},
        ]

    def test_jaco_recursion_fault_is_caught(self, monkeypatch):
        def bent(web):
            result = engine.solve_exact(web)
            return result._replace(grog=4) if web == Web(jaco.build_jaco(5).digraph) else result

        monkeypatch.setattr(claims, "solve_exact", bent)
        by_id = failed_claims(["prop-2.10", "cor-2.11"])
        assert [by_id[c]["status"] for c in ("prop-2.10", "cor-2.11")] == ["fail", "fail"]
        # g(J_4) = 4 and g(J_6) = 7; J_4 and J_5 have Jaconian vertices v_2 and v_3
        assert by_id["prop-2.10"]["failures"] == [
            {"n": 4, "jaconian": 2, "g_n": 4, "g_n_plus_1": 4, "expected": 5},
            {"n": 5, "jaconian": 3, "g_n": 4, "g_n_plus_1": 7, "expected": 6},
        ]
        assert by_id["cor-2.11"]["failures"] == [{"n": 4, "g_n": 4, "g_n_plus_1": 4}]

    def test_termination_fault_is_caught(self, monkeypatch):
        bent = []

        def overcounting(web, rng):
            strategy, result = engine.random_maximal_run(web, rng)
            if not bent:
                bent.append((web, strategy))
                result = result._replace(predation_count=len(web.digraph.arcs) + 1)
            return strategy, result

        monkeypatch.setattr(claims, "random_maximal_run", overcounting)
        by_id = failed_claims(["obs-1", "obs-2"])
        assert [by_id[c]["status"] for c in ("obs-1", "obs-2")] == ["fail", "pass"]
        (web, strategy), = bent
        assert by_id["obs-1"]["failures"] == [{
            "web": digraph_to_json(web.digraph), "strategy": strategy_to_json(strategy),
            "predation_count": 3, "arcs": 2,
        }]

    def test_replay_fault_is_caught(self, monkeypatch):
        bent = []

        def drifting(web, strategy):
            result = engine.run_strategy(web, strategy)
            if not bent:
                bent.append((web, strategy, result.residual))
                result = result._replace(residual=result.residual + 2)
            return result

        monkeypatch.setattr(claims, "run_strategy", drifting)
        by_id = failed_claims(["obs-1", "obs-2"])
        assert [by_id[c]["status"] for c in ("obs-1", "obs-2")] == ["pass", "fail"]
        (web, strategy, residual), = bent
        assert by_id["obs-2"]["failures"] == [{
            "web": digraph_to_json(web.digraph), "strategy": strategy_to_json(strategy),
            "first_residual": residual, "second_residual": residual + 2,
        }]

    def test_greedy_fault_is_caught(self, monkeypatch):
        bent = []

        def undercounting(web, cap):
            result = engine.enumerate_greedy(web, cap)
            if not bent:
                bent.append((web, result.min_residual))
                result = result._replace(min_residual=result.min_residual + 2)
            return result

        monkeypatch.setattr(claims, "enumerate_greedy", undercounting)
        report = failed_claims(["def-2.2-equivalence"])["def-2.2-equivalence"]
        assert report["status"] == "fail"
        (web, grog), = bent
        assert report["failures"] == [
            {"web": digraph_to_json(web.digraph), "exact": grog, "greedy_min": grog + 2},
        ]

    def test_web_count_fault_is_caught(self, monkeypatch):
        # C3 has 6 automorphisms; read off the memo as 2, its 8 webs must
        # match the half-formula
        def bent(g):
            grog, web, hist, aut = webs.grog_and_distribution(g)
            return grog, web, hist, 2 if g == cycle_graph(3) else aut

        monkeypatch.setattr(claims, "grog_and_distribution", bent)
        report = failed_claims(["web-count"])["web-count"]
        assert report["status"] == "fail"
        assert report["failures"] == [{"base": "C3", "formula": 24, "dedup": 8, "aut": 2}]


class TestRegistry:
    def test_order_is_the_catalog(self):
        assert CLAIM_ORDER == list(CLAIM_INFO)
        grouped = [cid for ids, _ in claims._GROUPS for cid in ids]
        assert sorted(grouped) == sorted(CLAIM_INFO)
        assert len(grouped) == len(set(grouped))

    def test_status_follows_the_catalog_mode(self, monkeypatch):
        monkeypatch.setitem(CLAIM_INFO, "cor-2.5", (claims.REPORT_ONLY, *CLAIM_INFO["cor-2.5"][1:]))
        monkeypatch.setitem(CLAIM_INFO, "cor-2.8", (claims.ASSERT, *CLAIM_INFO["cor-2.8"][1:]))
        report = run_claims(["cor-2.5", "cor-2.8"], SMALL)
        assert [(c["id"], c["mode"], c["status"]) for c in report["claims"]] == [
            ("cor-2.5", "report-only", "reported"),
            ("cor-2.8", "assert", "pass"),
        ]

    def test_n_max_fields_are_config_fields(self):
        fields = set(HarnessConfig._fields)
        mapped = {info[2] for info in CLAIM_INFO.values()} - {None}
        assert mapped == {f for f in fields if f.startswith("n_max_")}


@pytest.mark.parametrize("seed", sorted(GOLDEN_SEEDS))
def test_report_bytes_are_pinned(seed):
    # tests/golden holds what `grogweb verify --all --seed S --out F` writes
    # to F; an announced report change rewrites it with tests/golden/rewrite.py
    golden = golden_path(seed).read_text(encoding="utf-8")
    text = report_text(seed)
    diff = "".join(difflib.unified_diff(
        golden.splitlines(keepends=True), text.splitlines(keepends=True),
        f"golden/{golden_path(seed).name}", "run_all",
    ))
    assert text == golden, f"report differs from the golden file:\n{diff}"


def test_random_runs_are_pinned(monkeypatch):
    # a passing report holds only counts, so pin the strategies it drew:
    # every (web arcs, strategy) drawn in the two random-run groups, then
    # the obs-2 replay of each obs-1 run
    runs = []

    def record(web, strategy):
        runs.append([[list(arc) for arc in web.digraph.arcs], strategy_to_json(strategy)])

    def drawing(web, rng):
        strategy, result = engine.random_maximal_run(web, rng)
        record(web, strategy)
        return strategy, result

    def replaying(web, strategy, *args, **kwargs):
        record(web, strategy)
        return engine.run_strategy(web, strategy, *args, **kwargs)

    monkeypatch.setattr(claims, "random_maximal_run", drawing)
    monkeypatch.setattr(claims, "run_strategy", replaying)
    run_claims(["lemma-2.1", "lemma-2.2", "obs-1"], HarnessConfig(seed=42))
    assert len(runs) == 5820
    digest = hashlib.sha256(json.dumps(runs).encode("utf-8")).hexdigest()
    assert digest == "8063bf3d36d4a34e30828d5109f598e1100dfc4db255db552249e8f43e4b2d10"


class TestRunAll:
    def test_named_webs_are_enumerated_once(self, monkeypatch):
        calls = []

        def counting(base, *args, **kwargs):
            calls.append(base)
            return enumerate_webs(base, *args, **kwargs)

        monkeypatch.setattr(claims, "enumerate_webs", counting)
        run_all(SMALL)
        # P3, P4, C3, C4 once, shared by the corpus and web-count, then K2 for web-count
        assert len(calls) == len(set(calls)) == 5

    def test_each_random_run_is_replayed_once(self, monkeypatch):
        calls = []

        def counting(web, strategy, *args, **kwargs):
            calls.append(strategy)
            return engine.run_strategy(web, strategy, *args, **kwargs)

        monkeypatch.setattr(claims, "run_strategy", counting)
        run_all(HarnessConfig())
        # only obs-2 replays: 194 corpus webs x 10 runs; the lemma-2.1/2.2/2.3
        # and obs-1 checks read the draw's own play
        assert len(calls) == 1940

    def test_full_report(self):
        report = run_all(SMALL)
        assert [c["id"] for c in report["claims"]] == CLAIM_ORDER
        by_id = {c["id"]: c for c in report["claims"]}
        assert by_id["thm-2.6"]["status"] == "fail"
        passing = [
            "thm-1.1", "lemma-2.1", "lemma-2.2", "lemma-2.3", "cor-2.5",
            "lemma-2.9", "prop-2.10", "cor-2.11", "obs-1", "obs-2",
            "def-2.2-equivalence", "web-count",
        ]
        for cid in passing:
            assert by_id[cid]["status"] == "pass", cid
        for cid in ("prop-2.4", "prop-2.7", "cor-2.8"):
            assert by_id[cid]["status"] == "reported"
        assert report["status"] == "fail"
        assert report["seed"] == SMALL.seed

    def test_deterministic_for_fixed_seed(self):
        a = json.dumps(run_all(SMALL))
        b = json.dumps(run_all(SMALL))
        assert a == b

    def test_other_seed_keeps_claim_set(self):
        other = SMALL._replace(seed=7)
        report = run_all(other)
        assert [c["id"] for c in report["claims"]] == CLAIM_ORDER

    def test_below_domain_becomes_skipped(self):
        config = SMALL._replace(n_max_path=2)
        report = run_all(config)
        by_id = {c["id"]: c for c in report["claims"]}
        assert by_id["cor-2.5"]["status"] == "skipped"
        assert "n_max" in by_id["cor-2.5"]["values"]["skip_reason"]
        # a failed assert (thm-2.6) outranks a skipped one
        assert report["status"] == "fail"

    def test_skipped_assert_claim_is_incomplete(self):
        config = SMALL._replace(n_max_path=WEB_N_CAP + 1)
        report = run_claims(["cor-2.5"], config)
        assert report["claims"][0]["status"] == "skipped"
        # the message of the one web order check, as `enumerate --n 9` prints it
        assert report["claims"][0]["values"]["skip_reason"] == (
            "n=9 exceeds the web enumeration cap 8"
        )
        assert report["status"] == "incomplete"

    def test_engine_error_is_not_skipped(self, monkeypatch):
        def broken(*args, **kwargs):
            raise IllegalBatchError("injected engine fault", step=0)

        monkeypatch.setattr(claims, "check_web_count", broken)
        with pytest.raises(IllegalBatchError):
            run_claims(["web-count"], SMALL)

    def test_single_claim_subset(self):
        report = run_claims(["cor-2.5"], SMALL)
        assert [c["id"] for c in report["claims"]] == ["cor-2.5"]
        assert report["status"] == "pass"

    def test_unknown_claim(self):
        with pytest.raises(KeyError):
            run_claims(["nosuch"], SMALL)
