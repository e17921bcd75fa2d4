import hashlib
import json

import pytest

import grogweb.claims as claims
import grogweb.engine as engine
import grogweb.jaco as jaco
from grogweb.claims import (
    CLAIM_INFO,
    CLAIM_ORDER,
    HarnessConfig,
    check_cycle_relations,
    check_exit_lemma,
    check_greedy_equivalence,
    check_jaco_recursion,
    check_orientation_divergence,
    check_parity_and_arc_count,
    check_path_extension_report,
    check_path_recursion,
    check_web_count,
    corpus_webs,
    run_all,
    run_claims,
)
from grogweb.engine import IllegalBatchError, Web, strategy_to_json
from grogweb.graphs import CapExceeded, GraphError, make_digraph
from grogweb.webs import WEB_EDGE_CAP, WEB_N_CAP, enumerate_webs, path_graph

SMALL = HarnessConfig(runs_per_web=3, random_webs=5, random_greedy_webs=10)


def p3_webs():
    return list(enumerate_webs(path_graph(3), dedup=True))


class TestLemmaChecks:
    def test_exit_lemma_on_p3(self):
        report = check_exit_lemma(p3_webs(), runs=50, seed=1)
        assert report.status == "pass"
        assert report.instances == 600

    def test_parity_and_arc_count(self):
        parity, count = check_parity_and_arc_count(p3_webs(), runs=20, seed=2)
        assert parity.status == "pass" and count.status == "pass"
        assert parity.claim_id == "lemma-2.2" and count.claim_id == "lemma-2.3"

    def test_one_vertex_web_is_skipped(self):
        alone = check_exit_lemma(p3_webs(), runs=5, seed=3)
        report = check_exit_lemma([Web(make_digraph(1, [])), *p3_webs()], runs=5, seed=3)
        assert report.values["skipped_webs"] == 1
        assert report.instances == alone.instances == 60
        assert report.failures == alone.failures
        assert report.status == "pass"

    def test_single_arc_web_passes_exit_lemma(self):
        report = check_exit_lemma([Web(make_digraph(2, [(1, 2)]))], runs=5, seed=3)
        assert report.status == "pass"


class TestPathAndCycle:
    def test_path_recursion_values(self):
        report = check_path_recursion(6)
        assert report.status == "pass"
        assert report.values["g"] == {"3": 2, "4": 4, "5": 7, "6": 11}

    def test_path_recursion_domain(self):
        with pytest.raises(ValueError):
            check_path_recursion(2)
        with pytest.raises(CapExceeded):
            check_path_recursion(9)

    def test_family_caps_raise_before_any_work(self, monkeypatch):
        def no_enumeration(*args, **kwargs):
            raise AssertionError("enumerated before the cap check")

        monkeypatch.setattr(claims, "residual_distribution", no_enumeration)
        monkeypatch.setattr(claims, "grog_number", no_enumeration)
        for check in (check_path_recursion, check_path_extension_report, check_cycle_relations):
            with pytest.raises(CapExceeded):
                check(WEB_N_CAP + 1)
            with pytest.raises(GraphError):
                check(2)

    def test_path_recursion_past_six(self):
        report = check_path_recursion(7)
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
        report = check_path_extension_report(6)
        assert report.status == "reported"
        assert report.values["per_web_grog"]["P3"] == {"2": 8, "4": 4}
        assert report.values["extension_deltas"] == {"4": 2, "5": 3, "6": 4}


class TestJacoClaims:
    def test_recursion_holds(self):
        lemma, prop, cor = check_jaco_recursion(7, lemma29_n_max=40)
        assert lemma.status == "pass"
        assert lemma.values["max_degree_divergences"] == []
        assert prop.status == "pass"
        assert prop.values["g_jaco"] == {"2": 1, "3": 2, "4": 4, "5": 5, "6": 7, "7": 8}
        assert prop.values["jaconian"] == {"2": 1, "3": 2, "4": 2, "5": 3, "6": 3}
        assert cor.status == "pass"

    def test_cap(self):
        # J_91 is the first Jaco web past the solver's gadget cap
        with pytest.raises(CapExceeded, match="gadget"):
            check_jaco_recursion(91)
        with pytest.raises(GraphError):
            check_jaco_recursion(1)

    def test_top_order_is_solved_first(self, monkeypatch):
        solved = []

        def recording(web):
            solved.append(web.n)
            return engine.solve_exact(web)

        monkeypatch.setattr(claims, "solve_exact", recording)
        with pytest.raises(CapExceeded):
            check_jaco_recursion(95)
        assert solved == [95]

    def test_each_order_is_built_once(self, monkeypatch):
        built = []
        real = jaco.build_jaco

        def counting(n):
            built.append(n)
            return real(n)

        monkeypatch.setattr(jaco, "build_jaco", counting)
        monkeypatch.setattr(claims, "build_jaco", counting)
        check_jaco_recursion(7, lemma29_n_max=40)
        assert sorted(built) == list(range(2, 41))


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
        report = check_greedy_equivalence(corpus_webs(SMALL))
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
        report = check_web_count()
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

        def corrupted(pop, remaining, batch):
            consumed = real(pop, remaining, batch)
            pop[batch.predator - 1] += 1
            return consumed

        # every move, in random_maximal_run, run_strategy and apply_batch, goes
        # through the one in-place step
        monkeypatch.setattr(engine, "_play", corrupted)
        parity, count = check_parity_and_arc_count(p3_webs(), runs=3, seed=4)
        assert parity.status == "fail"
        assert count.status == "fail"
        assert parity.failures and "residual" in parity.failures[0]


class TestRegistry:
    def test_order_is_the_catalog(self):
        assert CLAIM_ORDER == list(CLAIM_INFO)
        grouped = [cid for ids, _ in claims._GROUPS for cid in ids]
        assert sorted(grouped) == sorted(CLAIM_INFO)
        assert len(grouped) == len(set(grouped))

    def test_n_max_fields_are_config_fields(self):
        fields = set(HarnessConfig._fields)
        mapped = {info[2] for info in CLAIM_INFO.values()} - {None}
        assert mapped == {f for f in fields if f.startswith("n_max_")}


# sha256 of what `grogweb verify --all --seed S --out F` writes to F
REPORT_SHA256 = {
    42: "814c09264dc1fc0684e79169a1c82969871ea7bb991b49a143733d5441951744",
    1: "8787972712bb33e3044856329587d406ce6dae487fe1b2754314935798d92dc5",
    20150206: "d010d6dd9bd00680bbea04b9cd89089c96d5d570e738cc96b5aa387c05beccfa",
}


@pytest.mark.parametrize("seed", sorted(REPORT_SHA256))
def test_report_bytes_are_pinned(seed):
    text = json.dumps(run_all(HarnessConfig(seed=seed)), indent=2) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == REPORT_SHA256[seed]


def test_random_runs_are_pinned(monkeypatch):
    # a passing report holds only counts, so pin the strategies it drew:
    # every (web arcs, strategy) drawn in the three random-run groups, then
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
    assert len(runs) == 7760
    digest = hashlib.sha256(json.dumps(runs).encode("utf-8")).hexdigest()
    assert digest == "55ddec6878159fabf0dba4b187e015722d9906287ada46982cef2ae9f0923efb"


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
        # only obs-2 replays: 194 corpus webs x 10 runs; the lemma-2.1,
        # lemma-2.2/2.3 and obs-1 checks read the draw's own play
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
