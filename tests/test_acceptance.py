"""Acceptance suite: one test per criterion, each printing PASS or FAIL.

All tolerances are exact (integer equality); runtime budgets are wall
clock.  Criterion 7 is expected to fail honestly: brute force over every
web of C3, C4 and K4 (confirmed by a memo-free oracle) shows all their
webs share one grog number, so no divergent pair exists for those bases.
"""

import json
import time
from contextlib import contextmanager

from conftest import run_cli

from grogweb.claims import (
    HarnessConfig,
    check_terminal_state_laws,
    corpus_webs,
    run_claims,
)
from grogweb.competition import check_theorem_1_1, competition_graph
from grogweb.engine import Web, solve_exact
from grogweb.jaco import build_jaco, jaconian_vertex
from grogweb.webs import (
    complete_graph,
    cycle_graph,
    grog_number,
    path_graph,
    residual_distribution,
    star_graph,
)


@contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"criterion {num} ({label}): FAIL")
        raise
    print(f"criterion {num} ({label}): PASS")


def test_criterion_1_example_reproduction():
    with criterion(1, "P3 web list reproduction"):
        start = time.perf_counter()
        proc = run_cli("enumerate", "--graph", "path", "--n", "3",
                       "--dedup", "--distribution", "--format", "json", timeout=60)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        obj = json.loads(proc.stdout)
        assert obj["web_count"] == 12
        assert obj["distribution"] == [
            {"residual": 2, "count": 8},
            {"residual": 4, "count": 4},
        ]
        assert all(w["greedy_count"] == 2 for w in obj["webs"])
        assert obj["grog"] == 2
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_competition_closed_form():
    with criterion(2, "closed-form competition graphs to n=40"):
        start = time.perf_counter()
        result = check_theorem_1_1(40)
        assert result.all_equal, [r for r in result.results if not r["equal"]]
        c5 = competition_graph(build_jaco(5).digraph)
        assert c5.ugraph.edges == ((3, 4),)
        assert c5.isolated == (1, 2, 5)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_3_path_recursion():
    with criterion(3, "g(P_n) = [2, 4, 7, 11] with the +(n-1) recursion"):
        start = time.perf_counter()
        g = {n: grog_number(path_graph(n)).grog for n in range(3, 7)}
        assert [g[n] for n in range(3, 7)] == [2, 4, 7, 11]
        for n in range(3, 6):
            assert g[n + 1] == g[n] + (n - 1)
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"took {elapsed:.2f}s"


def test_criterion_4_jaco_recursion():
    with criterion(4, "g(J_n) = [1, 2, 4, 5, 7, 8] with the Jaconian recursion"):
        start = time.perf_counter()
        g = {n: solve_exact(Web(build_jaco(n).digraph)).grog for n in range(2, 8)}
        assert [g[n] for n in range(2, 8)] == [1, 2, 4, 5, 7, 8]
        for n in range(2, 7):
            i = jaconian_vertex(n)
            assert g[n + 1] == g[n] + (2 * i - n) + 1
            assert 2 * i - n >= 0
        assert 2 * jaconian_vertex(7) - 7 >= 0
        # the vertex through which each g(J_n) was reached; the base case
        # has no extension step and reuses the first defined vertex
        reached_through = [jaconian_vertex(max(2, n - 1)) for n in range(2, 8)]
        assert reached_through == [1, 1, 2, 2, 3, 3]
        values = [g[n] for n in range(2, 8)]
        assert all(a < b for a, b in zip(values, values[1:]))
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_5_run_properties():
    with criterion(5, "exit lemma, parity and arc-count over 1000+ seeded runs"):
        config = HarnessConfig()
        corpus = corpus_webs(config)
        assert all(w.n <= 7 for w in corpus)
        reports = check_terminal_state_laws(corpus, config.runs_per_web, config.seed + 2)
        for report in reports:
            assert report.instances >= 1000
            assert report.status == "pass", report.failures[:1]


def test_criterion_6_greedy_equivalence():
    with criterion(6, "greedy minimum equals exact grog on 364 webs"):
        config = HarnessConfig()
        report = run_claims(["def-2.2-equivalence"], config)["claims"][0]
        assert report["instances"] == 164 + config.random_greedy_webs
        assert report["status"] == "pass", json.dumps(report["failures"][:1])


def test_criterion_7_orientation_divergence():
    with criterion(7, "two distinct grog numbers per base"):
        bases = [
            ("P3", path_graph(3)),
            ("P4", path_graph(4)),
            ("P5", path_graph(5)),
            ("C3", cycle_graph(3)),
            ("C4", cycle_graph(4)),
            ("star4", star_graph(4)),
            ("K4", complete_graph(4)),
        ]
        p3_values = set(residual_distribution(path_graph(3)))
        assert p3_values == {2, 4}
        non_divergent = []
        for name, base in bases:
            values = list(residual_distribution(base))
            if min(values) == max(values):
                non_divergent.append((name, min(values)))
        assert not non_divergent, (
            "no divergent web pair exists for these bases; every one of "
            f"their webs shares a single grog number: {non_divergent}"
        )


def test_criterion_8_cycle_findings_recorded():
    with criterion(8, "cycle sequences and deltas recorded in the report"):
        report = run_claims(["prop-2.7", "cor-2.8"], HarnessConfig())
        by_id = {c["id"]: c for c in report["claims"]}
        prop = by_id["prop-2.7"]["values"]
        cor = by_id["cor-2.8"]["values"]
        assert prop["g_cycle"] == {"3": 2, "4": 4, "5": 7, "6": 11}
        assert prop["cycle_deltas"] == {"4": 2, "5": 3, "6": 4}
        assert cor["cycle_minus_path"] == {"3": 0, "4": 0, "5": 0, "6": 0}
        assert by_id["prop-2.7"]["status"] == "reported"
        assert by_id["cor-2.8"]["status"] == "reported"


def test_criterion_9_verify_determinism(tmp_path):
    with criterion(9, "byte-identical verify reports for a fixed seed"):
        outputs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            proc = run_cli("verify", "--all", "--seed", "42", "--out", str(out), timeout=600)
            # thm-2.6 fails honestly, so the run reports overall failure
            assert proc.returncode == 1, proc.stderr
            outputs.append((out.read_bytes(), proc.stdout))
        assert outputs[0][0] == outputs[1][0]
        assert outputs[0][1] == outputs[1][1]
        report = json.loads(outputs[0][0])
        assert [c["id"] for c in report["claims"]] == [
            "thm-1.1", "lemma-2.1", "lemma-2.2", "lemma-2.3", "prop-2.4",
            "cor-2.5", "thm-2.6", "prop-2.7", "cor-2.8", "lemma-2.9",
            "prop-2.10", "cor-2.11", "obs-1", "obs-2",
            "def-2.2-equivalence", "web-count",
        ]
