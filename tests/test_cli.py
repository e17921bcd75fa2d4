import functools
import hashlib
import itertools
import json
import random
import time
import tracemalloc
from collections import Counter

import pytest
from conftest import (
    EXAMPLE1_WEBS,
    bent_jaconian_reader,
    closed_form_without,
    oracle_solve,
    run_cli,
    top_first_builder,
)

from grogweb import claims, cli, competition
from grogweb.engine import GreedyResult, Web, enumerate_greedy, solve_exact, strategy_to_json
from grogweb.graphs import GraphError, digraph_to_json, make_digraph, make_ugraph, ugraph_to_json
from grogweb.jaco import JACO_ORDER_CAP, build_jaco, check_jaconian, jaco_table, jaco_to_json
from grogweb.webs import (
    automorphism_count,
    complete_graph,
    cycle_graph,
    enumerate_webs,
    path_graph,
    star_graph,
    web_count_formula,
)

@pytest.fixture
def web1_file(tmp_path):
    path = tmp_path / "web1.json"
    path.write_text(json.dumps({"n": 3, "arcs": [[1, 2], [2, 3]]}))
    return str(path)


def jaco_file(tmp_path, n):
    """J_n as `grogweb jaco --format json` writes it."""
    path = tmp_path / f"j{n}.json"
    path.write_text(json.dumps(jaco_to_json(build_jaco(n))))
    return str(path)


class TestJacoCommand:
    def test_json(self):
        proc = run_cli("jaco", "--n", "5", "--format", "json")
        assert proc.returncode == 0
        obj = json.loads(proc.stdout)
        assert obj == {
            "n": 5,
            "arcs": [[1, 2], [2, 3], [3, 4], [3, 5], [4, 5]],
            "jaconian": 3,
        }

    def test_minimal_order(self):
        proc = run_cli("jaco", "--n", "2", "--format", "json")
        assert json.loads(proc.stdout)["arcs"] == [[1, 2]]

    def test_zero_is_usage_error(self):
        proc = run_cli("jaco", "--n", "0")
        assert proc.returncode == 2
        assert "error" in proc.stderr

    def test_dot(self):
        proc = run_cli("jaco", "--n", "2", "--format", "dot")
        assert proc.stdout == "digraph {\n  1;\n  2;\n  1 -> 2;\n}\n"

    def test_out_file(self, tmp_path):
        out = tmp_path / "j.json"
        proc = run_cli("jaco", "--n", "5", "--format", "json", "--out", str(out))
        assert proc.returncode == 0
        assert proc.stdout == ""
        assert json.loads(out.read_text())["jaconian"] == 3


class TestCompetitionCommand:
    def test_jaco_5(self):
        proc = run_cli("competition", "--jaco", "5", "--format", "json")
        assert json.loads(proc.stdout) == {
            "n": 5,
            "edges": [[3, 4]],
            "isolated": [1, 2, 5],
        }

    def test_closed_form_6(self):
        proc = run_cli("competition", "--jaco", "6", "--closed-form", "--format", "json")
        assert json.loads(proc.stdout)["edges"] == [[3, 4], [4, 5]]

    def test_check_40(self):
        proc = run_cli("competition", "--jaco", "40", "--check")
        assert proc.returncode == 0
        assert proc.stdout == "equal\n"

    def test_direct_route_at_600_equals_closed_form(self):
        direct = run_cli("competition", "--jaco", "600", "--format", "json")
        closed = run_cli("competition", "--jaco", "600", "--closed-form", "--format", "json")
        assert direct.returncode == closed.returncode == 0
        d, c = json.loads(direct.stdout), json.loads(closed.stdout)
        assert d["edges"] == c["edges"]
        assert d["isolated"] == c["isolated"]

    def test_check_150(self):
        proc = run_cli("competition", "--jaco", "150", "--check")
        assert proc.returncode == 0
        assert proc.stdout == "equal\n"

    def test_closed_form_below_domain(self):
        proc = run_cli("competition", "--jaco", "4", "--closed-form")
        assert proc.returncode == 2

    def test_file_input(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text(json.dumps({"n": 3, "arcs": [[1, 3], [2, 3]]}))
        proc = run_cli("competition", str(path), "--format", "json")
        assert json.loads(proc.stdout)["edges"] == [[1, 2]]

    def test_missing_input(self):
        proc = run_cli("competition")
        assert proc.returncode == 2

    def test_check_past_the_order_cap_builds_nothing_else(self, monkeypatch, capsys):
        top = JACO_ORDER_CAP + 1
        monkeypatch.setattr(competition, "build_jaco", top_first_builder(build_jaco, top))
        assert cli.main(["competition", "--check", "--jaco", str(top)]) == 2
        assert capsys.readouterr().err == f"error: Jaco order {top} exceeds the cap 10000\n"

    def test_check_reports_the_first_mismatch(self, monkeypatch, capsys):
        bent = closed_form_without(competition._closed_form, 9, (3, 4))
        monkeypatch.setattr(competition, "_closed_form", bent)
        assert cli.main(["competition", "--check", "--jaco", "12"]) == 1
        assert capsys.readouterr().out == "MISMATCH at n=9: missing=[(3, 4)] extra=[]\n"


class TestGrogCommand:
    def test_solve(self, web1_file):
        proc = run_cli("grog", "solve", web1_file, "--format", "json")
        assert proc.returncode == 0
        obj = json.loads(proc.stdout)
        assert obj["grog"] == 2
        assert obj["max_predations"] == 2
        assert "witness" not in obj

    def test_solve_witness(self, web1_file):
        proc = run_cli("grog", "solve", web1_file, "--witness", "--format", "json")
        assert json.loads(proc.stdout)["witness"] == [
            {"predator": 1, "prey": [2]},
            {"predator": 2, "prey": [3]},
        ]

    def test_solve_jaco5(self, tmp_path):
        # jaco output carries an extra "jaconian" key the digraph reader ignores
        jaco = tmp_path / "j5.json"
        run_cli("jaco", "--n", "5", "--format", "json", "--out", str(jaco))
        proc = run_cli("grog", "solve", str(jaco), "--format", "json")
        assert json.loads(proc.stdout)["grog"] == 5

    def test_run_empty_strategy(self, web1_file, tmp_path):
        strategy = tmp_path / "empty.json"
        strategy.write_text("[]")
        proc = run_cli("grog", "run", web1_file, "--strategy", str(strategy), "--format", "json")
        assert json.loads(proc.stdout)["residual"] == 6

    def test_run_replay(self, web1_file, tmp_path):
        strategy = tmp_path / "s.json"
        strategy.write_text(json.dumps([
            {"predator": 2, "prey": [3]},
            {"predator": 1, "prey": [2]},
        ]))
        proc = run_cli("grog", "run", web1_file, "--strategy", str(strategy), "--format", "json")
        obj = json.loads(proc.stdout)
        assert obj["residual"] == 2 and obj["predation_count"] == 2

    def test_run_illegal_strategy(self, web1_file, tmp_path):
        strategy = tmp_path / "bad.json"
        strategy.write_text(json.dumps([
            {"predator": 2, "prey": [3]},
            {"predator": 2, "prey": [3]},
        ]))
        proc = run_cli("grog", "run", web1_file, "--strategy", str(strategy))
        assert proc.returncode == 1
        assert "step 1" in proc.stderr

    @pytest.mark.parametrize(
        "entry",
        [
            {"predator": 1, "prey": 5},
            {"predator": 1, "prey": [[2]]},
            {"predator": 1.0, "prey": [2]},
            {"predator": True, "prey": [2]},
            {"predator": "a", "prey": [2]},
        ],
        ids=["prey-int", "prey-nested", "predator-float", "predator-bool", "predator-str"],
    )
    def test_run_rejects_non_int_vertices(self, capsys, web1_file, tmp_path, entry):
        strategy = tmp_path / "s.json"
        strategy.write_text(json.dumps([entry]))
        assert cli.main(["grog", "run", web1_file, "--strategy", str(strategy)]) == 2
        assert capsys.readouterr().err == f"error: bad strategy entry: {entry!r}\n"

    def test_run_rejects_repeated_prey(self, web1_file, tmp_path):
        # a frozenset would merge the two into one predation
        strategy = tmp_path / "s.json"
        strategy.write_text(json.dumps([{"predator": 2, "prey": [3, 3]}]))
        proc = run_cli("grog", "run", web1_file, "--strategy", str(strategy))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: bad strategy entry: {'predator': 2, 'prey': [3, 3]}\n"

    def test_run_out_of_range_vertex_is_illegal(self, capsys, web1_file, tmp_path):
        strategy = tmp_path / "s.json"
        strategy.write_text(json.dumps([{"predator": 9, "prey": [2]}]))
        assert cli.main(["grog", "run", web1_file, "--strategy", str(strategy)]) == 1
        assert capsys.readouterr().err == "error: step 0: arc (9, 2) is not a remaining arc\n"

    def test_run_require_exit_rejects_early_stop(self, web1_file, tmp_path):
        strategy = tmp_path / "short.json"
        strategy.write_text(json.dumps([{"predator": 1, "prey": [2]}]))
        proc = run_cli("grog", "run", web1_file, "--strategy", str(strategy), "--require-exit")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "error: strategy stops early: 1 legal predation(s) remain\n"

    def test_run_rejects_max_arcs(self, web1_file, tmp_path):
        strategy = tmp_path / "empty.json"
        strategy.write_text("[]")
        proc = run_cli("grog", "run", web1_file, "--strategy", str(strategy), "--max-arcs", "5")
        assert proc.returncode == 2
        assert "--max-arcs" in proc.stderr

    def test_solve_cap(self, tmp_path):
        proc = run_cli("grog", "solve", jaco_file(tmp_path, 300))
        assert proc.returncode == 2
        assert "solver gadget would have 4753110 copy edges" in proc.stderr

    def test_solve_cap_counts_vertices(self, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"n": 1000000, "arcs": [[1, 2]]}))
        proc = run_cli("grog", "solve", str(path))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            "error: the solver gadget would have tables for 1000000 vertices, "
            "above the cap 131072\n"
        )

    def test_solve_past_24_arcs(self, tmp_path):
        # J_80 has 1228 arcs: g = 80 * 81 / 2 - 2 * 1228
        proc = run_cli("grog", "solve", jaco_file(tmp_path, 80))
        assert proc.returncode == 0
        assert proc.stdout.startswith("grog number: 784\n")

    def test_solve_rejects_max_arcs(self, web1_file):
        proc = run_cli("grog", "solve", web1_file, "--max-arcs", "5")
        assert proc.returncode == 2
        assert "--max-arcs" in proc.stderr

    def test_bad_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{nope")
        proc = run_cli("grog", "solve", str(path))
        assert proc.returncode == 2

    @pytest.mark.parametrize("text", [
        pytest.param('{"n": ' + "1" * 5000 + ', "arcs": []}', id="huge-int"),
        pytest.param("[" * 100_000, id="deep-nesting"),
    ])
    def test_unreadable_json_is_a_usage_error(self, capsys, tmp_path, text):
        # past 4,300 digits int() raises ValueError; deep nesting RecursionError
        path = tmp_path / "web.json"
        path.write_text(text)
        assert cli.main(["grog", "solve", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: invalid JSON in {path}: ")

    def test_non_utf8_file(self, capsys, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{}")
        assert cli.main(["grog", "solve", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: invalid JSON in {path}: ")


class TestEnumerateCommand:
    def test_example1_reproduction(self):
        proc = run_cli(
            "enumerate", "--graph", "path", "--n", "3",
            "--dedup", "--distribution", "--format", "json",
        )
        assert proc.returncode == 0
        obj = json.loads(proc.stdout)
        assert obj["web_count"] == 12
        assert obj["formula_count"] == 12
        assert obj["grog"] == 2
        assert obj["distribution"] == [
            {"residual": 2, "count": 8},
            {"residual": 4, "count": 4},
        ]
        assert all(w["greedy_count"] == 2 for w in obj["webs"])

    def test_csv(self):
        proc = run_cli(
            "enumerate", "--graph", "path", "--n", "3",
            "--dedup", "--distribution", "--format", "csv",
        )
        assert proc.stdout == "residual,count\n2,8\n4,4\n"

    def test_cycle(self):
        proc = run_cli("enumerate", "--graph", "cycle", "--n", "3", "--format", "json")
        assert json.loads(proc.stdout)["grog"] == 2

    def test_cap(self):
        proc = run_cli("enumerate", "--graph", "path", "--n", "9")
        assert proc.returncode == 2
        start = time.perf_counter()
        assert cli.main(["enumerate", "--graph", "path", "--n", "9"]) == 2
        assert time.perf_counter() - start < 1.0

    def test_order_cap_comes_before_the_base(self, monkeypatch, capsys):
        def build(n):
            raise AssertionError("complete_graph called past the order cap")

        monkeypatch.setattr("grogweb.webs.complete_graph", build)
        assert cli.main(["enumerate", "--graph", "complete", "--n", "100000"]) == 2
        assert capsys.readouterr().err == "error: n=100000 exceeds the web enumeration cap 8\n"

    def test_base_error_comes_before_the_count(self, tmp_path):
        # 2000! has 5,736 digits: the count's overflow used to come first
        path = tmp_path / "base.json"
        path.write_text(json.dumps({"n": 2000, "edges": []}))
        proc = run_cli("enumerate", "--graph", str(path))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: base graph must be connected\n"

    def test_rejects_max_n(self):
        proc = run_cli("enumerate", "--graph", "path", "--n", "3", "--max-n", "5")
        assert proc.returncode == 2
        assert "--max-n" in proc.stderr

    def test_rejects_max_arcs(self):
        proc = run_cli("enumerate", "--graph", "path", "--n", "3", "--distribution", "--max-arcs", "5")
        assert proc.returncode == 2
        assert "--max-arcs" in proc.stderr

    def test_csv_walks_no_web(self, monkeypatch, capsys):
        def walk(*args, **kwargs):
            raise AssertionError("enumerate_webs called for csv")

        monkeypatch.setattr("grogweb.webs.enumerate_webs", walk)
        argv = ["enumerate", "--graph", "path", "--n", "8", "--distribution", "--format", "csv"]
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == "residual,count\n22,1290240\n24,3870720\n"

    def test_csv_usage_error_comes_before_any_solve(self, monkeypatch, capsys):
        def solve(*args, **kwargs):
            raise AssertionError("solve_exact called for a csv usage error")

        monkeypatch.setattr("grogweb.webs.solve_exact", solve)
        assert cli.main(["enumerate", "--graph", "star", "--n", "8", "--format", "csv"]) == 2
        assert capsys.readouterr().err == "error: csv output needs --distribution\n"

    @pytest.mark.parametrize("argv, solves", [
        (["--graph", "path", "--n", "8"], 8),
        (["--graph", "path", "--n", "8", "--distribution", "--format", "csv"], 8),
        (["--graph", "star", "--n", "6", "--dedup", "--format", "json"], 5),
    ])
    def test_solves_each_placement_web_once(self, monkeypatch, capsys, argv, solves):
        # one walk gives g(G), its witness web and the distribution; no
        # witness strategy is solved for
        calls = []

        def counting(web):
            calls.append(web)
            return solve_exact(web)

        monkeypatch.setattr("grogweb.webs.solve_exact", counting)
        assert cli.main(["enumerate", *argv]) == 0
        assert len(calls) == len(set(calls)) == solves

    @pytest.mark.parametrize("dedup", [[], ["--dedup"]], ids=["raw", "dedup"])
    def test_one_automorphism_search(self, monkeypatch, capsys, dedup):
        # the raw stream's |Aut| is the one that scaled the dedup histogram
        calls = []

        def counting(g):
            calls.append(g)
            return automorphism_count(g)

        monkeypatch.setattr("grogweb.webs.automorphism_count", counting)
        assert cli.main(["enumerate", "--graph", "cycle", "--n", "5", *dedup]) == 0
        assert calls == [cycle_graph(5)]
        count = 384 if dedup else 3840
        assert f"webs enumerated: {count}{' (dedup)' * bool(dedup)}" in capsys.readouterr().out

    def test_file_base(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text(json.dumps({"n": 2, "edges": [[1, 2]]}))
        proc = run_cli("enumerate", "--graph", str(path), "--dedup", "--format", "json")
        obj = json.loads(proc.stdout)
        assert obj["web_count"] == 2 and obj["grog"] == 1

    def test_text_summary(self):
        proc = run_cli("enumerate", "--graph", "path", "--n", "3", "--dedup", "--distribution")
        assert "webs enumerated: 12" in proc.stdout
        assert "g(G) = 2" in proc.stdout
        assert "min 2, max 2" in proc.stdout

    def test_streams_the_webs(self, monkeypatch, capsys):
        # P_6 has 23,040 webs, about 11 MB if held as a list at once; the
        # greedy counter is stubbed, since test_engine bounds its own memory
        calls = []

        def greedy(web, *args, **kwargs):
            calls.append(None)
            return GreedyResult(1, 0)

        cli.main(["enumerate", "--graph", "path", "--n", "3", "--distribution"])
        capsys.readouterr()
        monkeypatch.setattr("grogweb.engine.enumerate_greedy", greedy)
        tracemalloc.start()
        try:
            assert cli.main(["enumerate", "--graph", "path", "--n", "6", "--distribution"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "webs enumerated: 23040" in capsys.readouterr().out
        assert len(calls) == 23040
        assert peak < 2 * 2**20

    def test_json_rows_stream_to_the_file(self, capsys, tmp_path):
        # P_5's 1,920 rows peaked near 4.9 MB when held as dicts and one text
        argv = ["enumerate", "--graph", "path", "--distribution", "--format", "json"]
        cli.main(argv + ["--n", "3"])
        capsys.readouterr()
        out = tmp_path / "p5.json"
        tracemalloc.start()
        try:
            assert cli.main(argv + ["--n", "5", "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(json.loads(out.read_text())["webs"]) == 1920
        assert peak < 2**20

    def test_summary_walks_no_web(self, monkeypatch, capsys):
        def walk(*args, **kwargs):
            raise AssertionError("enumerate_webs called without --distribution")

        monkeypatch.setattr("grogweb.webs.enumerate_webs", walk)
        assert cli.main(["enumerate", "--graph", "path", "--n", "8"]) == 0
        assert capsys.readouterr().out == (
            "base graph: n=8, 7 edges\n"
            "webs enumerated: 5160960    half-formula count: 2580480\n"
            "grog number g(G) = 22\n"
        )


SOLVE_WEBS = [(f"example1-{i}", make_digraph(3, sorted(arcs))) for i, arcs, _ in EXAMPLE1_WEBS]
SOLVE_WEBS.append(("J7", build_jaco(7).digraph))


@pytest.mark.parametrize("name, digraph", SOLVE_WEBS, ids=[name for name, _ in SOLVE_WEBS])
def test_solve_witness_matches_memo_oracle(capsys, tmp_path, name, digraph):
    """`grog solve --witness` prints the memo search's value and witness."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(digraph_to_json(digraph)))
    web = Web(digraph)
    max_pred, witness = oracle_solve(web)
    grog = web.total_population - 2 * max_pred
    steps = ", ".join(f"({b.predator} -> {' '.join(map(str, sorted(b.prey)))})" for b in witness)

    assert cli.main(["grog", "solve", str(path), "--witness"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if not line.startswith("states explored: ")] == [
        f"grog number: {grog}",
        f"max predations: {max_pred}",
        f"witness: {steps}",
    ]
    assert cli.main(["grog", "solve", str(path), "--witness", "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert list(obj) == ["grog", "max_predations", "states_explored", "witness"]
    assert (obj["grog"], obj["max_predations"], obj["witness"]) == (
        grog, max_pred, strategy_to_json(witness)
    )


@functools.cache
def per_web_values(base, dedup: bool):
    """Each web of the stream with its solve_exact grog and enumerate_greedy result."""
    webs = list(enumerate_webs(base, dedup=dedup))
    return webs, [solve_exact(w).grog for w in webs], [enumerate_greedy(w) for w in webs]


def per_web_enumerate_output(base, dedup: bool, distribution: bool, fmt: str):
    """`enumerate` exit code, stdout and stderr computed from every web of the stream."""
    if fmt == "csv" and not distribution:
        return 2, "", "error: csv output needs --distribution\n"
    webs, grogs, greedy = per_web_values(base, dedup)
    grog = min(grogs)
    histogram = dict(sorted(Counter(grogs).items()))
    formula = web_count_formula(base.n, len(base.edges))
    if fmt == "csv":
        return 0, "residual,count\n" + "".join(f"{r},{c}\n" for r, c in histogram.items()), ""
    if fmt == "json":
        obj = {
            "base": ugraph_to_json(base),
            "dedup": dedup,
            "web_count": len(webs),
            "formula_count": formula,
            "grog": grog,
            "witness": digraph_to_json(webs[grogs.index(grog)].digraph),
        }
        if distribution:
            obj["distribution"] = [{"residual": r, "count": c} for r, c in histogram.items()]
            obj["webs"] = [
                {
                    "arcs": [list(a) for a in w.digraph.arcs],
                    "grog": value,
                    "greedy_count": g.count,
                    "greedy_min": g.min_residual,
                }
                for w, value, g in zip(webs, grogs, greedy)
            ]
        return 0, json.dumps(obj, indent=2) + "\n", ""
    lines = [
        f"base graph: n={base.n}, {len(base.edges)} edges",
        f"webs enumerated: {len(webs)}{' (dedup)' if dedup else ''}"
        f"    half-formula count: {formula}",
        f"grog number g(G) = {grog}",
    ]
    if distribution:
        counts = [g.count for g in greedy]
        lines += [
            "residual distribution:",
            *(f"  {r}: {c}" for r, c in histogram.items()),
            f"greedy strategies per web: min {min(counts)}, max {max(counts)}",
        ]
    return 0, "\n".join(lines) + "\n", ""


def random_connected_base(seed: int):
    """A seeded randomly labelled connected base on 4 vertices with 3..5 edges."""
    rng = random.Random(seed)
    edges = {(rng.randint(1, v - 1), v) for v in range(2, 5)}
    edges.update(rng.sample(list(itertools.combinations(range(1, 5), 2)), rng.randint(0, 2)))
    label = rng.sample(range(1, 5), 4)
    return make_ugraph(4, [(label[u - 1], label[v - 1]) for u, v in edges])


# family bases run as `--graph FAMILY --n N`, the others from a graph file;
# the family bases keep pytest's own ids and the --distribution formats the
# bare format name, so their test ids stay stable
ENUMERATE_BASES = [
    ("path", 3, path_graph(3)),
    ("cycle", 4, cycle_graph(4)),
    ("star", 4, star_graph(4)),
    ("complete", 4, complete_graph(4)),
    # a connected asymmetric base on n >= 2 vertices needs 6 of them and has
    # 46,080 webs, too many to solve one by one here
    pytest.param(None, None, make_ugraph(1, []), id="file-aut1"),
    pytest.param(None, None, make_ugraph(4, [(1, 3), (2, 3), (3, 4)]), id="file-aut6"),
    *(pytest.param(None, None, random_connected_base(seed), id=f"random-{seed}") for seed in range(10)),
]


@pytest.mark.parametrize(
    "fmt, distribution",
    [
        pytest.param(fmt, distribution, id=fmt if distribution else f"{fmt}-summary")
        for distribution in (True, False)
        for fmt in ("text", "json", "csv")
    ],
)
@pytest.mark.parametrize("dedup", [False, True])
@pytest.mark.parametrize("family, n, base", ENUMERATE_BASES)
def test_enumerate_matches_per_web_solves(capsys, tmp_path, family, n, base, dedup, distribution, fmt):
    if family is None:
        path = tmp_path / "base.json"
        path.write_text(json.dumps(ugraph_to_json(base)))
        argv = ["enumerate", "--graph", str(path)]
    else:
        argv = ["enumerate", "--graph", family, "--n", str(n)]
    argv += ["--format", fmt] + ["--dedup"] * dedup + ["--distribution"] * distribution
    result = (cli.main(argv), *capsys.readouterr())
    assert result == per_web_enumerate_output(base, dedup, distribution, fmt)


# sha256 of the stdout of `grogweb enumerate --graph G --n N --dedup --distribution
# --format json`, whose per-web greedy counts the expected output above takes
# from enumerate_greedy itself
ENUMERATE_SHA256 = {
    ("complete", 4): "497dbb9cfaf7a569c7d0f78e2f50d89daaf64bfc464542807515218bfef85943",
    ("cycle", 5): "4766e03f7a75018e42d11f768aac118a724ae9cd6dc16dbc236959b63641f212",
    ("star", 5): "a0233bf34a813d16a91cc296a03a97e0674b28979deb879ccfd31a056a73481a",
}


@pytest.mark.parametrize("family, n", sorted(ENUMERATE_SHA256))
def test_enumerate_greedy_output_is_pinned(capsys, family, n):
    argv = ["enumerate", "--graph", family, "--n", str(n), "--dedup", "--distribution",
            "--format", "json"]
    assert cli.main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == ENUMERATE_SHA256[family, n]


# sha256 of the stdout of `grogweb enumerate --graph G --n N --distribution
# --format json` without --dedup: every web of the stream, in stream order
ENUMERATE_STREAM_SHA256 = {
    ("cycle", 4): "68ef413da4da1a0eb653596c999f2d877824f478ddac01719a22b46a9429b8cc",
    ("path", 4): "405d177fff88512cb4df0c5afcb0ac6e96f37db382f4a7c2a87b83857937fc0c",
    ("star", 4): "d9d280504b43f810c6119e85ab44ac44fbd8f64114b0ccd102eb5124f5affeb6",
}


@pytest.mark.parametrize("family, n", sorted(ENUMERATE_STREAM_SHA256))
def test_enumerate_stream_output_is_pinned(capsys, family, n):
    argv = ["enumerate", "--graph", family, "--n", str(n), "--distribution", "--format", "json"]
    assert cli.main(argv) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == ENUMERATE_STREAM_SHA256[family, n]


@pytest.mark.parametrize(
    "error", [GraphError("bad base"), OverflowError("count too large"), OSError("disk full")],
    ids=lambda e: type(e).__name__,
)
def test_library_errors_exit_with_usage(monkeypatch, capsys, error):
    def failing(args):
        raise error

    monkeypatch.setattr(cli, "cmd_jaco", failing)
    assert cli.main(["jaco", "--n", "3"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {error}\n")


@pytest.mark.parametrize("argv, message", [
    (["competition"], "competition needs an input graph file or --jaco N"),
    (["competition", "FILE", "--check"], "--check needs --jaco N"),
    (["competition", "FILE", "--closed-form"], "--closed-form needs --jaco N"),
    (["enumerate", "--graph", "star"], "--graph star needs --n"),
    (["competition", "FILE", "--jaco", "5"], "competition takes an input graph file or --jaco N, not both"),
], ids=["no-input", "check-without-jaco", "closed-form-without-jaco", "family-without-n",
        "file-and-jaco"])
def test_usage_errors(capsys, web1_file, argv, message):
    # FILE is a readable digraph, so only the missing flag is at fault
    assert cli.main([web1_file if a == "FILE" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


# the HarnessConfig field that --n-max sets for each range claim
N_MAX_ROUTES = {
    "thm-1.1": "n_max_thm11",
    "prop-2.4": "n_max_path",
    "cor-2.5": "n_max_path",
    "prop-2.7": "n_max_cycle",
    "cor-2.8": "n_max_cycle",
    "lemma-2.9": "n_max_lemma29",
    "prop-2.10": "n_max_jaco",
    "cor-2.11": "n_max_jaco",
}


class TestNMaxRouting:
    @pytest.fixture
    def captured(self, monkeypatch):
        """Run `cli.main` with run_claims replaced; return the changed config fields."""
        seen = []

        def fake_run_claims(ids, config):
            seen.append((list(ids), config))
            return {"claims": [], "status": "pass"}

        monkeypatch.setattr(claims, "run_claims", fake_run_claims)

        def run(*argv):
            assert cli.main(["verify", *argv]) == 0
            (ids, config), = seen
            seen.clear()
            default = claims.HarnessConfig()._asdict()
            changed = {k: v for k, v in config._asdict().items() if default[k] != v}
            return ids, changed

        return run

    @pytest.mark.parametrize("cid", sorted(N_MAX_ROUTES))
    def test_claim_sets_its_own_field(self, captured, cid):
        ids, changed = captured("--claim", cid, "--n-max", "5")
        assert ids == [cid]
        assert changed == {N_MAX_ROUTES[cid]: 5}

    def test_claim_without_range_changes_nothing(self, captured):
        assert captured("--claim", "web-count", "--n-max", "5") == (["web-count"], {})

    def test_all_claims_set_every_range_field(self, captured):
        ids, changed = captured("--n-max", "5")
        assert ids == claims.CLAIM_ORDER
        assert changed == {field: 5 for field in N_MAX_ROUTES.values()}


class TestVerifyCommand:
    def test_single_claim_cor25(self):
        proc = run_cli("verify", "--claim", "cor-2.5", "--n-max", "6", "--format", "json")
        assert proc.returncode == 0
        obj = json.loads(proc.stdout)
        claim = obj["claims"][0]
        assert claim["id"] == "cor-2.5"
        assert claim["status"] == "pass"
        assert claim["values"]["g"] == {"3": 2, "4": 4, "5": 7, "6": 11}

    def test_unknown_claim(self):
        proc = run_cli("verify", "--claim", "nosuch")
        assert proc.returncode == 2
        assert "unknown claim" in proc.stderr

    def test_jaco_claim_runs_past_24_arcs(self):
        proc = run_cli("verify", "--claim", "prop-2.10", "--n-max", "12", "--format", "json")
        assert proc.returncode == 0
        claim = json.loads(proc.stdout)["claims"][0]
        assert (claim["status"], claim["instances"]) == ("pass", 10)

    def test_lemma_2_9_counterexample_exits_one(self, monkeypatch, capsys):
        monkeypatch.setattr(claims, "check_jaconian", bent_jaconian_reader(check_jaconian))
        assert cli.main(["verify", "--claim", "lemma-2.9"]) == 1
        assert '"two_i_minus_n": -2' in capsys.readouterr().out

    def test_rejects_max_arcs(self):
        proc = run_cli("verify", "--max-arcs", "5")
        assert proc.returncode == 2
        assert "--max-arcs" in proc.stderr

    def test_default_arc_cap(self):
        proc = run_cli("verify", "--claim", "web-count", "--format", "json")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["caps"]["arc_cap"] == 24

    def test_path_claim_runs_past_six(self):
        proc = run_cli("verify", "--claim", "cor-2.5", "--n-max", "7", "--format", "json")
        assert proc.returncode == 0
        claim = json.loads(proc.stdout)["claims"][0]
        assert claim["status"] == "pass"
        assert claim["values"]["g"]["7"] == 16

    def test_below_domain_is_skipped(self):
        proc = run_cli("verify", "--claim", "cor-2.5", "--n-max", "2", "--format", "json")
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert report["claims"][0]["status"] == "skipped"
        assert report["status"] == "incomplete"

    def test_empty_range_is_not_a_pass(self, capsys):
        assert cli.main(["verify", "--claim", "lemma-2.9", "--n-max", "-3"]) == 1
        out = capsys.readouterr().out
        assert "    skipped: empty range: lemma_2_9_n_max = -3 leaves no instance\n" in out
        assert out.endswith("overall: incomplete\n")

    def test_lemma_2_9_past_the_order_cap_builds_nothing_else(self, monkeypatch, capsys):
        top = JACO_ORDER_CAP + 1
        monkeypatch.setattr(claims, "jaco_table", top_first_builder(jaco_table, top))
        monkeypatch.setattr(claims, "build_jaco", top_first_builder(build_jaco, top))
        assert cli.main(["verify", "--claim", "lemma-2.9", "--n-max", str(top)]) == 1
        assert f"skipped: Jaco order {top} exceeds the cap" in capsys.readouterr().out

    def test_skipped_claim_is_not_a_pass(self):
        proc = run_cli("verify", "--claim", "cor-2.5", "--n-max", "9")
        assert proc.returncode == 1
        assert "skipped" in proc.stdout
        assert proc.stdout.endswith("overall: incomplete\n")

    def test_divergence_claim_fails_honestly(self):
        proc = run_cli("verify", "--claim", "thm-2.6", "--format", "json")
        assert proc.returncode == 1
        claim = json.loads(proc.stdout)["claims"][0]
        assert claim["status"] == "fail"
        assert {f["base"] for f in claim["failures"]} == {"C3", "C4", "K4"}

    def test_report_only_claim_exits_zero(self):
        proc = run_cli("verify", "--claim", "cor-2.8", "--format", "json")
        assert proc.returncode == 0
        claim = json.loads(proc.stdout)["claims"][0]
        assert claim["values"]["cycle_minus_path"] == {"3": 0, "4": 0, "5": 0, "6": 0}

    def test_single_claim_determinism(self):
        a = run_cli("verify", "--claim", "lemma-2.2", "--seed", "7", "--format", "json")
        b = run_cli("verify", "--claim", "lemma-2.2", "--seed", "7", "--format", "json")
        assert a.stdout == b.stdout

    def test_out_file_with_summary(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("verify", "--claim", "web-count", "--out", str(out))
        assert proc.returncode == 0
        assert "web-count" in proc.stdout
        assert json.loads(out.read_text())["claims"][0]["id"] == "web-count"
