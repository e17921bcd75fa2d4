"""Workload inputs and metric names of the grogweb benchmark.

Pure standard library and free of any grogweb import: the parent process
(run.py) uses it to compute expected outputs with the independent code in
oracle.py, and every child pass (child.py) uses it to build the same inputs.
Every generator takes the workload seed; the same seed gives the same inputs.
"""

from __future__ import annotations

import random

WORKLOADS = ("verify-all", "solve-sweep", "jaco-competition", "strategy-replay")

# HarnessConfig fields pinned to the values the harness shipped with, so that a
# later change to a default cannot silently change the size of verify-all.
HARNESS_FIELDS = {
    "n_max_thm11": 40,
    "n_max_path": 6,
    "n_max_cycle": 6,
    "n_max_jaco": 7,
    "n_max_lemma29": 40,
    "runs_per_web": 10,
    "random_webs": 30,
    "random_greedy_webs": 200,
    "arc_cap": 24,
}
HARNESS_SMOKE_FIELDS = {
    "n_max_thm11": 8,
    "n_max_path": 4,
    "n_max_cycle": 4,
    "n_max_jaco": 5,
    "n_max_lemma29": 10,
    "runs_per_web": 2,
    "random_webs": 3,
    "random_greedy_webs": 5,
    "arc_cap": 24,
}

# The harness groups claims that share one computation; each group is run
# alone in the traced pass.  Keyed by the group's first claim id.
CLAIM_GROUPS = (
    ("thm-1.1", ("thm-1.1",)),
    ("lemma-2.1", ("lemma-2.1",)),
    ("lemma-2.2", ("lemma-2.2", "lemma-2.3")),
    ("prop-2.4", ("prop-2.4",)),
    ("cor-2.5", ("cor-2.5",)),
    ("thm-2.6", ("thm-2.6",)),
    ("prop-2.7", ("prop-2.7", "cor-2.8")),
    ("lemma-2.9", ("lemma-2.9", "prop-2.10", "cor-2.11")),
    ("obs-1", ("obs-1", "obs-2")),
    ("def-2.2-equivalence", ("def-2.2-equivalence",)),
    ("web-count", ("web-count",)),
)

# solve-sweep: J_2..J_9 plus WEBS_PER_SIZE random connected webs per arc count.
# J_10 (20 arcs, about 1M states) is left out of the default passes.
SOLVE_JACO = tuple(range(2, 10))
SOLVE_ARCS = tuple(range(12, 18))
WEBS_PER_SIZE = 4
WEB_ORDERS = (7, 8, 9, 10)
# The labelled underlying graphs are drawn once from this fixed seed.  The
# solver's work depends on the labelled graph alone (feasibility is symmetric
# in tail and head), so drawing them from the workload seed would make the
# solver's cost, not just its input, change from seed to seed.  The workload
# seed orients every web and orders the sweep.
FAMILY_SEED = 1502

# jaco-competition: direct route against the closed form at these orders.
# Direct J_1000 (about 7 s) is left out of the default passes.
COMPETITION_ORDERS = (200, 400, 600)
# check_theorem_1_1 sweeps 5..THEOREM_ORDER; the seed picks the order of the
# large build_jaco within 20 of BIG_ORDER (about 220 MB of arc tuples).
THEOREM_ORDER = 120
BIG_ORDER = 3000

# strategy-replay: random maximal strategies on Jaco webs far past the solver cap.
REPLAY_ORDERS = (40, 50, 60, 70, 80)
GAMES_PER_ORDER = 8


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def harness_fields(seed: int, smoke: bool) -> dict:
    fields = dict(HARNESS_SMOKE_FIELDS if smoke else HARNESS_FIELDS)
    fields["seed"] = seed
    return fields


def _connected_edges(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """m distinct edges on 1..n: a random spanning tree plus random extras."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u, v = order[i], order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    pool = sorted(
        (u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if (u, v) not in edges
    )
    rng.shuffle(pool)
    edges.update(pool[: m - len(edges)])
    return sorted(edges)


def solve_family(smoke: bool) -> list[tuple[str, int, list[tuple[int, int]]]]:
    """Labelled connected base graphs of the random part: (label, n, edges)."""
    rng = random.Random(FAMILY_SEED)
    sizes = SOLVE_ARCS[:1] if smoke else SOLVE_ARCS
    per_size = 1 if smoke else WEBS_PER_SIZE
    return [
        (f"arcs{m}", n, _connected_edges(rng, n, m))
        for m in sizes
        for n in WEB_ORDERS[:per_size]
    ]


def solve_inputs(seed: int, smoke: bool) -> tuple[list[int], list[tuple[str, int, list]]]:
    """(Jaco orders, random webs as (label, n, arcs)) in seeded sweep order."""
    rng = _rng("solve-sweep", seed)
    webs = []
    for label, n, edges in solve_family(smoke):
        arcs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in edges]
        webs.append((label, n, arcs))
    rng.shuffle(webs)
    orders = list(SOLVE_JACO[:6] if smoke else SOLVE_JACO)
    return orders, webs


def jaco_inputs(seed: int, smoke: bool) -> dict:
    """Competition orders, the top order of the theorem sweep, the large build's order."""
    rng = _rng("jaco-competition", seed)
    if smoke:
        return {"orders": list(COMPETITION_ORDERS[:1]), "n_thm": 20,
                "n_big": 300 + rng.randrange(41)}
    return {"orders": list(COMPETITION_ORDERS), "n_thm": THEOREM_ORDER,
            "n_big": BIG_ORDER + rng.randrange(-20, 21)}


def replay_inputs(seed: int, smoke: bool) -> list[tuple[int, int]]:
    """Games as (Jaco order, strategy seed)."""
    rng = _rng("strategy-replay", seed)
    orders = REPLAY_ORDERS[:1] if smoke else REPLAY_ORDERS
    games = 1 if smoke else GAMES_PER_ORDER
    return [(n, rng.randrange(2**32)) for n in orders for _ in range(games)]


# ---------------------------------------------------------------------------
# metric names: (name, unit, better)
# ---------------------------------------------------------------------------

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)


def _per_layer():
    out = [
        ("cli.import_s", "s", "lower"),
        ("cli.startup_s", "s", "lower"),
        ("graphs.make_digraph.calls", "count", "lower"),
        ("graphs.make_digraph.busy_s", "s", "lower"),
        ("jaco.build_jaco.calls", "count", "lower"),
        ("jaco.build_jaco.busy_s", "s", "lower"),
        ("jaco.build_jaco.arcs", "count", "lower"),
        ("jaco.build_jaco.peak_mb", "MB", "lower"),
        ("competition.direct.busy_s", "s", "lower"),
        ("competition.direct.pairs", "count", "lower"),
        ("competition.closed_form.busy_s", "s", "lower"),
        ("competition.check_theorem_1_1.busy_s", "s", "lower"),
    ]
    out += [(f"competition.direct.s.n{n}", "s", "lower") for n in COMPETITION_ORDERS]
    out += [
        ("engine.solve_exact.calls", "count", "lower"),
        ("engine.solve_exact.busy_s", "s", "lower"),
        ("engine.solve_exact.states", "count", "lower"),
        ("engine.solve_exact.us_per_state", "us", "lower"),
    ]
    out += [(f"engine.solve_exact.s.arcs{m}", "s", "lower") for m in SOLVE_ARCS]
    out += [(f"engine.solve_exact.s.J{n}", "s", "lower") for n in SOLVE_JACO]
    out += [
        ("engine.enumerate_greedy.calls", "count", "lower"),
        ("engine.enumerate_greedy.busy_s", "s", "lower"),
        ("engine.legal_predations.calls", "count", "lower"),
        ("engine.legal_predations.p50_us", "us", "lower"),
        ("engine.legal_predations.p99_us", "us", "lower"),
        ("engine.apply_batch.calls", "count", "lower"),
        ("engine.apply_batch.p50_us", "us", "lower"),
        ("engine.apply_batch.p99_us", "us", "lower"),
        ("engine.run_strategy.calls", "count", "lower"),
        ("engine.run_strategy.busy_s", "s", "lower"),
        ("engine.legal_ratio", "ratio", "higher"),
        ("webs.enumerate_webs.calls", "count", "lower"),
        ("webs.enumerate_webs.busy_s", "s", "lower"),
        ("webs.enumerate_webs.generated", "count", "lower"),
        ("webs.dedup_keep_ratio", "ratio", "higher"),
    ]
    for group, _ in CLAIM_GROUPS:
        out += [
            (f"claims.{group}.busy_s", "s", "lower"),
            (f"claims.{group}.self_s", "s", "lower"),
            (f"claims.{group}.instances", "count", "higher"),
        ]
    out.append(("trace.overhead_s", "s", "lower"))
    return tuple(out)


PER_LAYER = _per_layer()
