import dataclasses
import json
from collections import Counter

import pytest
from conftest import EXAMPLE1_WEBS, oracle_solve, run_cli

from grogweb import claims, cli
from grogweb.engine import Web, enumerate_greedy, solve_exact, strategy_to_json
from grogweb.graphs import digraph_to_json, make_digraph, ugraph_to_json
from grogweb.jaco import build_jaco
from grogweb.webs import (
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

    def test_run_rejects_max_arcs(self, web1_file, tmp_path):
        strategy = tmp_path / "empty.json"
        strategy.write_text("[]")
        proc = run_cli("grog", "run", web1_file, "--strategy", str(strategy), "--max-arcs", "5")
        assert proc.returncode == 2
        assert "--max-arcs" in proc.stderr

    def test_solve_cap(self, web1_file):
        proc = run_cli("grog", "solve", web1_file, "--max-arcs", "1")
        assert proc.returncode == 2

    def test_bad_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{nope")
        proc = run_cli("grog", "solve", str(path))
        assert proc.returncode == 2


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


def per_web_enumerate_output(base, dedup: bool, fmt: str) -> str:
    """`enumerate --distribution` output computed with solve_exact on every web."""
    webs = list(enumerate_webs(base, dedup=dedup))
    grogs = [solve_exact(w).grog for w in webs]
    grog = min(grogs)
    distribution = dict(sorted(Counter(grogs).items()))
    greedy = [enumerate_greedy(w) for w in webs]
    formula = web_count_formula(base.n, len(base.edges))
    if fmt == "csv":
        return "residual,count\n" + "".join(f"{r},{c}\n" for r, c in distribution.items())
    if fmt == "json":
        obj = {
            "base": ugraph_to_json(base),
            "dedup": dedup,
            "web_count": len(webs),
            "formula_count": formula,
            "grog": grog,
            "witness": digraph_to_json(webs[grogs.index(grog)].digraph),
            "distribution": [{"residual": r, "count": c} for r, c in distribution.items()],
            "webs": [
                {
                    "arcs": [list(a) for a in w.digraph.arcs],
                    "grog": value,
                    "greedy_count": g.count,
                    "greedy_min": g.min_residual,
                }
                for w, value, g in zip(webs, grogs, greedy)
            ],
        }
        return json.dumps(obj, indent=2) + "\n"
    counts = [g.count for g in greedy]
    lines = [
        f"base graph: n={base.n}, {len(base.edges)} edges",
        f"webs enumerated: {len(webs)}{' (dedup)' if dedup else ''}"
        f"    half-formula count: {formula}",
        f"grog number g(G) = {grog}",
        "residual distribution:",
        *(f"  {r}: {c}" for r, c in distribution.items()),
        f"greedy strategies per web: min {min(counts)}, max {max(counts)}",
    ]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("dedup", [False, True])
@pytest.mark.parametrize(
    "family, n, base",
    [
        ("path", 3, path_graph(3)),
        ("cycle", 4, cycle_graph(4)),
        ("star", 4, star_graph(4)),
        ("complete", 4, complete_graph(4)),
    ],
)
def test_enumerate_matches_per_web_solves(capsys, family, n, base, dedup, fmt):
    argv = ["enumerate", "--graph", family, "--n", str(n), "--distribution", "--format", fmt]
    assert cli.main(argv + (["--dedup"] if dedup else [])) == 0
    assert capsys.readouterr().out == per_web_enumerate_output(base, dedup, fmt)


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
            default = dataclasses.asdict(claims.HarnessConfig())
            changed = {k: v for k, v in dataclasses.asdict(config).items() if default[k] != v}
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
