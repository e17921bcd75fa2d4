"""Verification harness: machine-check the catalog of structural claims.

`CLAIM_INFO` is the catalog: it maps each claim id, in report order, to
its mode, its statement and the `HarnessConfig` field that `--n-max`
sets for it (None when the claim has no range).  Assert-mode claims can
fail the run; report-only claims record observed values and never fail,
which is how per-strategy statements with under-specified "minimal
deviation" adaptations are handled: the harness documents the measured
grog-level numbers instead of asserting an interpretation of them.

`_GROUPS` lists the claims that share one computation, in report order,
each with the runner that checks them all from a `HarnessConfig` and a
memo local to one `run_claims` call: the deduplicated webs of each base
graph, enumerated once and shared by the web corpus and the web-count
check.  The path, cycle and thm-2.6 checks need no memo, since their
graph-level values cost one exact solve per label placement (see
`webs`).  A group runs once when any of its claims is requested.

The lemma-2.1, lemma-2.2/2.3 and obs-1/obs-2 groups check seeded random
maximal strategies.  Each is drawn and played once, by
`random_maximal_run`, and that play is the result the checks read; obs-2
alone replays each run with `run_strategy` and compares the replay with
the drawn play, so two code paths must agree.  All sampling is driven
by a seed recorded in the report, and the report is byte-reproducible
for a fixed seed and caps.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from typing import NamedTuple

from .competition import check_theorem_1_1
from .engine import (
    GREEDY_ARC_CAP,
    Web,
    enumerate_greedy,
    legal_predations,
    random_maximal_run,
    run_strategy,
    solve_exact,
    strategy_to_json,
)
from .graphs import CapExceeded, Digraph, GraphError, UGraph, digraph_to_json
from .jaco import build_jaco, check_jaconian, max_degree_vertices
from .webs import (
    WEB_N_CAP,
    automorphism_count,
    complete_graph,
    cycle_graph,
    enumerate_webs,
    grog_number,
    path_graph,
    residual_distribution,
    star_graph,
    web_count_formula,
)

# base graph -> its webs, as enumerate_webs(base, dedup=True) yields them
Webs = Callable[[UGraph], list[Web]]

ASSERT = "assert"
REPORT_ONLY = "report-only"

# claim id -> (mode, statement, HarnessConfig field set by --n-max or None)
CLAIM_INFO = {
    "thm-1.1": (ASSERT, "closed-form competition graph of J_n(1) equals the direct computation",
                "n_max_thm11"),
    "lemma-2.1": (ASSERT, "every terminal state has a zero and a positive population", None),
    "lemma-2.2": (ASSERT, "residual parity equals the parity of the initial total population",
                  None),
    "lemma-2.3": (ASSERT, "predation count equals half of (initial total minus residual)", None),
    "prop-2.4": (REPORT_ONLY, "path extension deltas (per-strategy statement, recorded only)",
                 "n_max_path"),
    "cor-2.5": (ASSERT, "g(P_{n+1}) = g(P_n) + (n - 1) by brute force", "n_max_path"),
    "thm-2.6": (ASSERT, "every base graph admits two webs with distinct grog numbers", None),
    "prop-2.7": (REPORT_ONLY, "cycle extension deltas g(C_{n+1}) - g(C_n), recorded only",
                 "n_max_cycle"),
    "cor-2.8": (REPORT_ONLY, "g(C_n) - g(P_n), recorded only", "n_max_cycle"),
    "lemma-2.9": (ASSERT, "2i - n >= 0 for the Jaconian vertex v_i of J_n(1)", "n_max_lemma29"),
    "prop-2.10": (ASSERT, "g(J_{n+1}(1)) = g(J_n(1)) + (2i - n) + 1", "n_max_jaco"),
    "cor-2.11": (ASSERT, "g(J_n(1)) is strictly increasing in n", "n_max_jaco"),
    "obs-1": (ASSERT, "every run terminates within one predation event per arc", None),
    "obs-2": (ASSERT, "replaying a strategy reproduces the identical final state", None),
    "def-2.2-equivalence": (ASSERT, "greedy minimum equals the exact grog number", None),
    "web-count": (ASSERT, "deduplicated web count against the half-formula n!2^eps/2", None),
}

# (claim ids, runner(config, webs) -> their reports), in report order;
# webs(base) is the deduplicated webs of base, enumerated once per base, which
# _corpus extends with random webs.
_GROUPS = (
    (("thm-1.1",), lambda c, webs: [check_competition_closed_form(c.n_max_thm11)]),
    (("lemma-2.1",), lambda c, webs: [
        check_exit_lemma(_corpus(webs, c.seed, c.random_webs), c.runs_per_web, c.seed + 1)]),
    (("lemma-2.2", "lemma-2.3"), lambda c, webs: check_parity_and_arc_count(
        _corpus(webs, c.seed, c.random_webs), c.runs_per_web, c.seed + 2)),
    (("prop-2.4",), lambda c, webs: [check_path_extension_report(c.n_max_path)]),
    (("cor-2.5",), lambda c, webs: [check_path_recursion(c.n_max_path)]),
    (("thm-2.6",), lambda c, webs: [check_orientation_divergence()]),
    (("prop-2.7", "cor-2.8"), lambda c, webs: check_cycle_relations(c.n_max_cycle)),
    (("lemma-2.9", "prop-2.10", "cor-2.11"),
     lambda c, webs: check_jaco_recursion(c.n_max_jaco, c.n_max_lemma29)),
    (("obs-1", "obs-2"), lambda c, webs: check_termination_and_determinism(
        _corpus(webs, c.seed, c.random_webs), c.runs_per_web, c.seed + 3)),
    (("def-2.2-equivalence",), lambda c, webs: [check_greedy_equivalence(
        _corpus(webs, c.seed + 4, c.random_greedy_webs), c.arc_cap)]),
    (("web-count",), lambda c, webs: [check_web_count(webs=webs)]),
)

CLAIM_ORDER = [cid for ids, _ in _GROUPS for cid in ids]


class HarnessConfig(NamedTuple):
    seed: int = 42
    n_max_thm11: int = 40
    n_max_path: int = 6
    n_max_cycle: int = 6
    n_max_jaco: int = 7
    n_max_lemma29: int = 40
    runs_per_web: int = 10
    random_webs: int = 30
    random_greedy_webs: int = 200
    arc_cap: int = GREEDY_ARC_CAP


class ClaimReport(NamedTuple):
    claim_id: str
    mode: str
    status: str  # pass | fail | reported | skipped
    instances: int
    failures: list
    values: dict

    def to_json(self) -> dict:
        return {
            "id": self.claim_id,
            "mode": self.mode,
            "status": self.status,
            "instances": self.instances,
            "failures": self.failures,
            "values": self.values,
        }


def _report(claim_id: str, status: str, instances: int, failures: list, values: dict) -> ClaimReport:
    return ClaimReport(claim_id, CLAIM_INFO[claim_id][0], status, instances, failures, values)


def _assert_status(failures: list) -> str:
    return "fail" if failures else "pass"


def _web_json(web: Web) -> dict:
    return digraph_to_json(web.digraph)


# ---------------------------------------------------------------------------
# corpora
# ---------------------------------------------------------------------------

def _named_bases() -> list[tuple[str, UGraph]]:
    return [
        ("P3", path_graph(3)),
        ("P4", path_graph(4)),
        ("C3", cycle_graph(3)),
        ("C4", cycle_graph(4)),
    ]


def random_connected_web(rng: random.Random, max_n: int = 7, max_arcs: int = 10) -> Web:
    """A random connected web: spanning tree plus extra edges, random directions."""
    n = rng.randint(2, max_n)
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges: set[tuple[int, int]] = set()
    for idx in range(1, n):
        u, v = order[idx], order[rng.randrange(idx)]
        edges.add((min(u, v), max(u, v)))
    budget = max_arcs - len(edges)
    if budget > 0:
        pool = [
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if (u, v) not in edges
        ]
        rng.shuffle(pool)
        edges.update(pool[: rng.randint(0, min(budget, len(pool)))])
    arcs = tuple(sorted(
        (u, v) if rng.random() < 0.5 else (v, u) for u, v in sorted(edges)
    ))
    return Web(Digraph(n, arcs))


def _dedup_webs(base: UGraph) -> list[Web]:
    return list(enumerate_webs(base, dedup=True))


def _corpus(webs: Webs, seed: int, count: int) -> list[Web]:
    """The named-base webs plus `count` random connected webs drawn from `seed`."""
    rng = random.Random(seed)
    named = [web for _, base in _named_bases() for web in webs(base)]
    return named + [random_connected_web(rng) for _ in range(count)]


def corpus_webs(config: HarnessConfig) -> list[Web]:
    """Named small-base webs plus seeded random connected webs."""
    return _corpus(_dedup_webs, config.seed, config.random_webs)


def _random_runs(corpus: list[Web], runs: int, seed: int):
    """Yield (web, strategy, result) for `runs` random maximal strategies per web.

    One rng drawn from `seed` serves every run, web by web in corpus order.
    The result is the draw's own play, so no run is replayed here.
    """
    rng = random.Random(seed)
    for web in corpus:
        for _ in range(runs):
            yield web, *random_maximal_run(web, rng)


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def check_exit_lemma(corpus: list[Web], runs: int, seed: int) -> ClaimReport:
    """lemma-2.1: terminal states mix zero and positive populations (n >= 2)."""
    playable = [web for web in corpus if web.n >= 2]
    failures = []
    for web, strategy, result in _random_runs(playable, runs, seed):
        pops = result.final_state.pop
        if not (any(p == 0 for p in pops) and any(p > 0 for p in pops)):
            failures.append({
                "web": _web_json(web),
                "strategy": strategy_to_json(strategy),
                "final_population": list(pops),
            })
    values = {
        "webs": len(corpus),
        "runs_per_web": runs,
        "skipped_webs": len(corpus) - len(playable),
    }
    return _report("lemma-2.1", _assert_status(failures), len(playable) * runs, failures, values)


def check_parity_and_arc_count(
    corpus: list[Web], runs: int, seed: int
) -> tuple[ClaimReport, ClaimReport]:
    """lemma-2.2 and lemma-2.3 over shared random maximal runs."""
    parity_failures = []
    count_failures = []
    for web, strategy, result in _random_runs(corpus, runs, seed):
        total = web.total_population
        if result.residual % 2 != total % 2:
            parity_failures.append({
                "web": _web_json(web),
                "strategy": strategy_to_json(strategy),
                "residual": result.residual,
                "initial_total": total,
            })
        if 2 * result.predation_count != total - result.residual:
            count_failures.append({
                "web": _web_json(web),
                "strategy": strategy_to_json(strategy),
                "predation_count": result.predation_count,
                "residual": result.residual,
                "initial_total": total,
            })
    instances = len(corpus) * runs
    values = {"webs": len(corpus), "runs_per_web": runs}
    return (
        _report("lemma-2.2", _assert_status(parity_failures), instances, parity_failures, values),
        _report("lemma-2.3", _assert_status(count_failures), instances, count_failures, values),
    )


def check_greedy_equivalence(corpus: list[Web], arc_cap: int = GREEDY_ARC_CAP) -> ClaimReport:
    """def-2.2-equivalence: greedy minimum equals the exact grog number."""
    failures = []
    for web in corpus:
        exact = solve_exact(web)
        greedy = enumerate_greedy(web, cap=arc_cap)
        if exact.grog != greedy.min_residual:
            failures.append({
                "web": _web_json(web),
                "exact": exact.grog,
                "greedy_min": greedy.min_residual,
            })
    values = {"webs": len(corpus)}
    return _report("def-2.2-equivalence", _assert_status(failures), len(corpus), failures, values)


def _family_grogs(family, n_max: int) -> dict[int, int]:
    """g(family(n)) for n = 3..n_max: the least grog number of any web."""
    return {n: grog_number(family(n)).grog for n in range(3, n_max + 1)}


def _check_family_range(what: str, n_max: int) -> None:
    """Reject n_max outside 3..WEB_N_CAP before any base is solved.

    The cap bounds the label placements that `grog_number` walks; the
    message says "enumeration cost" because the report bytes are pinned.
    """
    if n_max < 3:
        raise GraphError(f"{what} needs n_max >= 3, got {n_max}")
    if n_max > WEB_N_CAP:
        raise CapExceeded(
            f"{what} capped at n_max = {WEB_N_CAP} for enumeration cost, got {n_max}"
        )


def check_path_recursion(n_max: int) -> ClaimReport:
    """cor-2.5: brute-forced g(P_n) satisfies g(P_{n+1}) = g(P_n) + (n - 1)."""
    _check_family_range("path recursion", n_max)
    g = _family_grogs(path_graph, n_max)
    failures = []
    for n in range(3, n_max):
        if g[n + 1] != g[n] + (n - 1):
            failures.append({
                "n": n,
                "g_n": g[n],
                "g_n_plus_1": g[n + 1],
                "expected": g[n] + (n - 1),
            })
    values = {"g": {str(n): g[n] for n in sorted(g)}}
    return _report("cor-2.5", _assert_status(failures), max(0, n_max - 3), failures, values)


def check_path_extension_report(n_max: int) -> ClaimReport:
    """prop-2.4 (report-only): per-web grog histograms and extension deltas."""
    _check_family_range("path extension report", n_max)
    g = _family_grogs(path_graph, n_max)
    per_web = {}
    for n in range(3, min(5, n_max) + 1):
        hist = residual_distribution(path_graph(n))
        per_web[f"P{n}"] = {str(v): count for v, count in hist.items()}
    deltas = {str(n + 1): g[n + 1] - g[n] for n in range(3, n_max)}
    values = {"per_web_grog": per_web, "extension_deltas": deltas}
    return _report("prop-2.4", "reported", len(per_web) + len(deltas), [], values)


def check_cycle_relations(n_max: int) -> tuple[ClaimReport, ClaimReport]:
    """prop-2.7 and cor-2.8 (report-only): observed cycle deltas.

    These are per-strategy statements about minimally-deviated strategy
    adaptations; at grog-number level the naive readings do not hold
    (already g(C_3) = 2 = g(P_3) rather than g(P_3) - 2), so the
    observed sequences are recorded without assertion.
    """
    _check_family_range("cycle relations", n_max)
    gc = _family_grogs(cycle_graph, n_max)
    gp = _family_grogs(path_graph, n_max)
    cycle_deltas = {str(n + 1): gc[n + 1] - gc[n] for n in range(3, n_max)}
    diff = {str(n): gc[n] - gp[n] for n in range(3, n_max + 1)}
    prop = _report(
        "prop-2.7",
        "reported",
        len(cycle_deltas),
        [],
        {
            "g_cycle": {str(n): gc[n] for n in sorted(gc)},
            "cycle_deltas": cycle_deltas,
            "plus_n_minus_1_pattern": {
                str(n + 1): gc[n + 1] - gc[n] == n - 1 for n in range(3, n_max)
            },
        },
    )
    cor = _report(
        "cor-2.8",
        "reported",
        len(diff),
        [],
        {
            "g_cycle": {str(n): gc[n] for n in sorted(gc)},
            "g_path": {str(n): gp[n] for n in sorted(gp)},
            "cycle_minus_path": diff,
            "naive_minus_2_reading_holds": all(v == -2 for v in diff.values()),
        },
    )
    return prop, cor


def divergence_bases() -> list[tuple[str, UGraph]]:
    return [
        ("P3", path_graph(3)),
        ("P4", path_graph(4)),
        ("P5", path_graph(5)),
        ("C3", cycle_graph(3)),
        ("C4", cycle_graph(4)),
        ("star4", star_graph(4)),
        ("K4", complete_graph(4)),
    ]


def check_orientation_divergence() -> ClaimReport:
    """thm-2.6: each base of `divergence_bases` (all n >= 3) has two webs
    with distinct grog numbers."""
    bases = divergence_bases()
    failures = []
    values: dict = {"bases": {}}
    for name, base in bases:
        distinct = list(residual_distribution(base))
        lo, hi = distinct[0], distinct[-1]
        values["bases"][name] = {"min": lo, "max": hi, "distinct": distinct}
        if lo == hi:
            failures.append({"base": name, "grog": lo})
    return _report("thm-2.6", _assert_status(failures), len(bases), failures, values)


def check_jaco_recursion(
    n_max: int, lemma29_n_max: int | None = None
) -> tuple[ClaimReport, ClaimReport, ClaimReport]:
    """lemma-2.9, prop-2.10 and cor-2.11 with exactly solved g(J_n(1))."""
    if n_max < 2:
        raise GraphError(f"Jaco recursion needs n_max >= 2, got {n_max}")
    # top order first: a J_n past the solver's cap raises before any other work;
    # the solved orders are kept so that each J_n is built once
    built = {}
    g = {}
    for n in range(n_max, 1, -1):
        built[n] = build_jaco(n)
        g[n] = solve_exact(Web(built[n].digraph)).grog
    if lemma29_n_max is None:
        lemma29_n_max = max(n_max, 40)

    # lemma-2.9 plus the max-degree cross-check (construction only, no solver)
    lemma_failures = []
    divergences = []
    for n in range(2, lemma29_n_max + 1):
        jg = built[n] if n in built else build_jaco(n)
        i = check_jaconian(jg)
        if 2 * i - n < 0:
            lemma_failures.append({"n": n, "jaconian": i, "two_i_minus_n": 2 * i - n})
        if min(max_degree_vertices(jg)) != i:
            divergences.append(n)
    lemma = _report(
        "lemma-2.9",
        _assert_status(lemma_failures),
        lemma29_n_max - 1,
        lemma_failures,
        {
            "n_range": [2, lemma29_n_max],
            "max_degree_divergences": divergences,
        },
    )

    jaconian = {n: check_jaconian(built[n]) for n in range(2, n_max)}
    rec_failures = []
    for n in range(2, n_max):
        i = jaconian[n]
        expected = g[n] + (2 * i - n) + 1
        if g[n + 1] != expected:
            rec_failures.append({
                "n": n,
                "jaconian": i,
                "g_n": g[n],
                "g_n_plus_1": g[n + 1],
                "expected": expected,
            })
    prop = _report(
        "prop-2.10",
        _assert_status(rec_failures),
        max(0, n_max - 2),
        rec_failures,
        {
            "g_jaco": {str(n): g[n] for n in sorted(g)},
            "jaconian": {str(n): jaconian[n] for n in sorted(jaconian)},
        },
    )

    mono_failures = [
        {"n": n, "g_n": g[n], "g_n_plus_1": g[n + 1]}
        for n in range(2, n_max)
        if g[n + 1] <= g[n]
    ]
    cor = _report(
        "cor-2.11",
        _assert_status(mono_failures),
        max(0, n_max - 2),
        mono_failures,
        {"g_jaco": {str(n): g[n] for n in sorted(g)}},
    )
    return lemma, prop, cor


def check_termination_and_determinism(
    corpus: list[Web], runs: int, seed: int
) -> tuple[ClaimReport, ClaimReport]:
    """obs-1 (termination within eps events) and obs-2 (replay determinism).

    obs-2 compares one `run_strategy` replay of each drawn strategy with
    the play `random_maximal_run` made while drawing it.
    """
    term_failures = []
    det_failures = []
    for web, strategy, first in _random_runs(corpus, runs, seed):
        eps = len(web.digraph.arcs)
        if first.predation_count > eps or legal_predations(first.final_state):
            term_failures.append({
                "web": _web_json(web),
                "strategy": strategy_to_json(strategy),
                "predation_count": first.predation_count,
                "arcs": eps,
            })
        second = run_strategy(web, strategy)
        if (
            second.residual != first.residual
            or second.used_arcs != first.used_arcs
            or second.final_state.pop != first.final_state.pop
        ):
            det_failures.append({
                "web": _web_json(web),
                "strategy": strategy_to_json(strategy),
                "first_residual": first.residual,
                "second_residual": second.residual,
            })
    instances = len(corpus) * runs
    values = {"webs": len(corpus), "runs_per_web": runs}
    return (
        _report("obs-1", _assert_status(term_failures), instances, term_failures, values),
        _report("obs-2", _assert_status(det_failures), instances, det_failures, values),
    )


def check_web_count(webs: Webs | None = None) -> ClaimReport:
    """web-count: dedup count vs the half-formula.

    Equality is asserted only for bases with exactly 2 automorphisms;
    other group sizes are recorded with a mismatch flag, since the
    half-formula over-counts the identification for them.
    """
    bases = _named_bases() + [("K2", path_graph(2))]
    webs = webs or _dedup_webs
    failures = []
    values: dict = {"bases": {}}
    for name, base in bases:
        formula = web_count_formula(base.n, len(base.edges))
        dedup = len(webs(base))
        aut = automorphism_count(base)
        entry = {"formula": formula, "dedup": dedup, "aut": aut}
        if aut == 2:
            if dedup != formula:
                failures.append({"base": name, **entry})
        else:
            entry["formula_mismatch"] = dedup != formula
        values["bases"][name] = entry
    return _report("web-count", _assert_status(failures), len(bases), failures, values)


def check_competition_closed_form(n_max: int) -> ClaimReport:
    """thm-1.1 wrapped as a claim."""
    result = check_theorem_1_1(n_max)
    failures = [r for r in result.results if not r["equal"]]
    values = {"n_range": [result.n_min, result.n_max]}
    return _report("thm-1.1", _assert_status(failures), len(result.results), failures, values)


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

def _config_json(config: HarnessConfig) -> dict:
    return {
        "thm_1_1_n_max": config.n_max_thm11,
        "path_n_max": config.n_max_path,
        "cycle_n_max": config.n_max_cycle,
        "jaco_n_max": config.n_max_jaco,
        "lemma_2_9_n_max": config.n_max_lemma29,
        "runs_per_web": config.runs_per_web,
        "random_webs": config.random_webs,
        "random_greedy_webs": config.random_greedy_webs,
        "arc_cap": config.arc_cap,
    }


def _assemble(reports: list[ClaimReport], config: HarnessConfig) -> dict:
    by_id = {r.claim_id: r for r in reports}
    ordered = [by_id[c] for c in CLAIM_ORDER if c in by_id]
    asserted = {r.status for r in ordered if r.mode == ASSERT}
    if "fail" in asserted:
        status = "fail"
    elif "skipped" in asserted:
        status = "incomplete"
    else:
        status = "pass"
    return {
        "seed": config.seed,
        "caps": _config_json(config),
        "claims": [r.to_json() for r in ordered],
        "status": status,
    }


def run_claims(claim_ids: list[str], config: HarnessConfig) -> dict:
    """Run the groups covering the requested claims; unknown ids raise KeyError.

    A group that raises GraphError (a cap or a precondition) becomes
    skipped entries with the reason; any other error propagates.
    """
    unknown = [c for c in claim_ids if c not in CLAIM_INFO]
    if unknown:
        raise KeyError(f"unknown claim id(s): {', '.join(unknown)}")
    wanted = set(claim_ids)
    deduped: dict[UGraph, list[Web]] = {}

    def webs(base: UGraph) -> list[Web]:
        if base not in deduped:
            deduped[base] = _dedup_webs(base)
        return deduped[base]

    reports: list[ClaimReport] = []
    for ids, runner in _GROUPS:
        if not wanted.intersection(ids):
            continue
        try:
            group_reports = runner(config, webs)
        except GraphError as exc:
            group_reports = [
                ClaimReport(cid, CLAIM_INFO[cid][0], "skipped", 0, [], {"skip_reason": str(exc)})
                for cid in ids
            ]
        reports.extend(r for r in group_reports if r.claim_id in wanted)
    return _assemble(reports, config)


def run_all(config: HarnessConfig | None = None) -> dict:
    """Run every registered claim and aggregate the full report.

    Per-claim precondition violations become skipped entries with a
    reason instead of aborting the run.  Overall status is "fail" when
    an assert-mode claim failed, otherwise "incomplete" when one was
    skipped, and "pass" only when every assert-mode claim ran and passed.
    """
    if config is None:
        config = HarnessConfig()
    return run_claims(list(CLAIM_ORDER), config)
