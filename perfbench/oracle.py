"""Expected outputs and the checks that compare a pass against them.

Nothing here imports grogweb: the Jaco construction, the competition graph,
the grog number and the game rules are re-derived from their definitions
with code the package does not share, so a bug in the package cannot hide
itself by also being in the reference.

A grog number is computed as n(n+1)/2 - 2 * (maximum set of arcs in which
every vertex v meets at most v arcs): such a set can be consumed in any
order, and a play stops only when no further arc fits, so the largest
feasible set gives the smallest residual.
"""

from __future__ import annotations

from itertools import combinations

import spec

# g(J_n(1)) for n = 2..9, and the g sequences the harness records.
JACO_G = {2: 1, 3: 2, 4: 4, 5: 5, 6: 7, 7: 8, 8: 10, 9: 13}
PATH_G = {3: 2, 4: 4, 5: 7, 6: 11}
CYCLE_G = {3: 2, 4: 4, 5: 7, 6: 11}
# thm-2.6 is stated for every base graph but is false for the symmetric bases;
# the harness keeps it red with exactly these counterexamples.
THM_2_6_COUNTEREXAMPLES = {"C3", "C4", "K4"}
REPORT_ONLY = {"prop-2.4", "prop-2.7", "cor-2.8"}
JACO_5_TEXT = (
    "Jaco graph of order 5 (5 arcs)\n"
    "arcs: (1,2) (2,3) (3,4) (3,5) (4,5)\n"
    "jaconian vertex: 3\n"
)


def jaco_arcs(n: int) -> list[tuple[int, int]]:
    """Arcs of J_n(1), head by head: (i, j) exactly when 2i - d^-(v_i) >= j."""
    indeg = [0] * (n + 1)
    arcs = []
    for j in range(2, n + 1):
        for i in range(1, j):
            if 2 * i - indeg[i] >= j:
                arcs.append((i, j))
                indeg[j] += 1
    arcs.sort()
    return arcs


def competition_edges(n: int, arcs) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """Sorted competition edges and isolated vertices, from in-neighbour lists."""
    preds: dict[int, list[int]] = {}
    for t, h in arcs:
        preds.setdefault(h, []).append(t)
    edges = set()
    for tails in preds.values():
        edges.update(combinations(sorted(tails), 2))
    touched = {v for e in edges for v in e}
    return tuple(sorted(edges)), tuple(v for v in range(1, n + 1) if v not in touched)


def max_feasible_arcs(n: int, arcs) -> int:
    """Largest arc set meeting each vertex v at most v times (branch and bound)."""
    edges = sorted((min(a), max(a)) for a in arcs)
    cap = list(range(n + 1))
    m = len(edges)
    best = 0

    def dfs(k: int, size: int) -> None:
        nonlocal best
        if size + m - k <= best:
            return
        if k == m:
            best = size
            return
        u, v = edges[k]
        if cap[u] and cap[v]:
            cap[u] -= 1
            cap[v] -= 1
            dfs(k + 1, size + 1)
            cap[u] += 1
            cap[v] += 1
        dfs(k + 1, size)

    dfs(0, 0)
    return best


def grog(n: int, arcs) -> int:
    return n * (n + 1) // 2 - 2 * max_feasible_arcs(n, arcs)


def play(n: int, arcs, strategy) -> tuple[list[int] | None, str]:
    """Apply a strategy by the game rules; (final populations, error or '')."""
    pop = list(range(n + 1))
    remaining = set(arcs)
    for step, (pred, prey) in enumerate(strategy):
        if pop[pred] < len(prey):
            return None, f"step {step}: predator {pred} short of population"
        for p in prey:
            if (pred, p) not in remaining or pop[p] < 1:
                return None, f"step {step}: arc ({pred}, {p}) not playable"
            remaining.discard((pred, p))
            pop[p] -= 1
        pop[pred] -= len(prey)
    if any(pop[t] >= 1 and pop[h] >= 1 for t, h in remaining):
        return pop[1:], "final state is not terminal"
    return pop[1:], ""


# ---------------------------------------------------------------------------
# expected values, computed once per run
# ---------------------------------------------------------------------------

def expected(workload: str, seed: int, smoke: bool) -> dict:
    if workload == "solve-sweep":
        orders, webs = spec.solve_inputs(seed, smoke)
        grogs = {f"J{n}": JACO_G[n] for n in orders}
        for k, (label, n, arcs) in enumerate(webs):
            grogs[f"{label}#{k}"] = grog(n, arcs)
        return {"grog": grogs}
    if workload == "jaco-competition":
        inputs = spec.jaco_inputs(seed, smoke)
        orders = {}
        for n in inputs["orders"]:
            edges, isolated = competition_edges(n, jaco_arcs(n))
            orders[str(n)] = {"edges": len(edges), "edges_hash": hash(edges),
                              "isolated_hash": hash(isolated)}
        big = tuple(jaco_arcs(inputs["n_big"]))
        items = 2 * sum(len(jaco_arcs(n)) for n in inputs["orders"])
        items += 2 * sum(len(jaco_arcs(n)) for n in range(5, inputs["n_thm"] + 1))
        return {"orders": orders, "thm_orders": inputs["n_thm"] - 4,
                "big_arcs": len(big), "big_hash": hash(big), "items": items}
    if workload == "strategy-replay":
        return {"arcs": {n: jaco_arcs(n) for n in {n for n, _ in spec.replay_inputs(seed, smoke)}}}
    return {
        "path_g": {str(n): g for n, g in PATH_G.items()},
        "cycle_g": {str(n): g for n, g in CYCLE_G.items()},
        "jaco_g": {str(n): g for n, g in JACO_G.items()},
    }


# ---------------------------------------------------------------------------
# checks: each records one pass's checks in a Checker
# ---------------------------------------------------------------------------

class Checker:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _prefix_equal(recorded: dict, want: dict) -> bool:
    return bool(recorded) and all(want.get(k) == v for k, v in recorded.items())


def check_verify_all(out: dict, exp: dict, c: Checker) -> None:
    claims = {r["id"]: r for r in out["claims"]}
    for cid, r in claims.items():
        if r["status"] == "skipped":
            c.expect(False, f"{cid} skipped")
        elif cid == "thm-2.6":
            bases = {f["base"] for f in r["failures"]}
            c.expect(r["status"] == "fail" and bases == THM_2_6_COUNTEREXAMPLES,
                     f"thm-2.6 {r['status']} with counterexamples {sorted(bases)}")
        elif cid in REPORT_ONLY:
            c.expect(r["status"] == "reported", f"{cid} {r['status']}")
        else:
            c.expect(r["status"] == "pass", f"{cid} {r['status']}")
    c.expect(len(claims) == 16, f"{len(claims)} claims reported, expected 16")
    for cid, key, want in (("cor-2.5", "g", "path_g"), ("prop-2.7", "g_cycle", "cycle_g"),
                           ("prop-2.10", "g_jaco", "jaco_g")):
        recorded = claims.get(cid, {}).get("values", {}).get(key, {})
        c.expect(_prefix_equal(recorded, exp[want]), f"{cid} {key} changed: {recorded}")


def check_solve_sweep(out: dict, exp: dict, c: Checker) -> None:
    want = exp["grog"]
    c.expect(sorted(r["key"] for r in out["webs"]) == sorted(want), "web set differs")
    for r in out["webs"]:
        key = r["key"]
        c.expect(r["grog"] == want.get(key), f"{key}: grog {r['grog']} != {want.get(key)}")
        c.expect(r["greedy_min"] == r["grog"], f"{key}: greedy {r['greedy_min']} != exact")
        c.expect(r["replay_residual"] == r["grog"],
                 f"{key}: witness replays to {r['replay_residual']}")


def check_jaco_competition(out: dict, exp: dict, c: Checker) -> None:
    for n, want in exp["orders"].items():
        got = out["orders"].get(n)
        if got is None:
            c.expect(False, f"order {n} missing")
            continue
        for route in ("direct", "closed"):
            r = got[route]
            c.expect(r["edges"] == want["edges"] and r["edges_hash"] == want["edges_hash"]
                     and r["isolated_hash"] == want["isolated_hash"],
                     f"J_{n} {route} competition graph differs from the oracle")
    c.expect(out["thm_all_equal"] and out["thm_orders"] == exp["thm_orders"],
             "check_theorem_1_1 reported a difference")
    c.expect(out["big_arcs"] == exp["big_arcs"] and out["big_hash"] == exp["big_hash"],
             "large Jaco graph differs from the oracle")


def check_strategy_replay(out: dict, exp: dict, c: Checker) -> None:
    for k, g in enumerate(out["games"]):
        n = g["n"]
        total = n * (n + 1) // 2
        pop, err = play(n, exp["arcs"][n], g["strategy"])
        c.expect(not err, f"game {k}: {err}")
        c.expect(pop == g["played_pop"] == g["replay_pop"], f"game {k}: final populations differ")
        c.expect(g["residual"] == sum(g["replay_pop"]), f"game {k}: residual is not the sum")
        c.expect(g["residual"] % 2 == total % 2, f"game {k}: parity law broken")
        c.expect(2 * g["count"] == total - g["residual"], f"game {k}: predation-count law broken")


CHECKS = {
    "verify-all": check_verify_all,
    "solve-sweep": check_solve_sweep,
    "jaco-competition": check_jaco_competition,
    "strategy-replay": check_strategy_replay,
}
