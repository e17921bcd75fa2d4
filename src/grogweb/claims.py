"""Verification harness: machine-check the catalog of structural claims.

`CLAIM_INFO` is the catalog: it maps each claim id, in report order, to
its mode, its statement and the `HarnessConfig` field that `--n-max`
sets for it (None when the claim has no range).  Assert-mode claims can
fail the run; report-only claims record observed values and never fail,
which is how per-strategy statements with under-specified "minimal
deviation" adaptations are handled: the harness documents the measured
grog-level numbers instead of asserting an interpretation of them.

`_GROUPS` lists the claims that share one computation, in report order,
each with the runner that checks them all from a `HarnessConfig` and two
memos local to one `run_claims` call, both keyed by base graph: the
deduplicated webs of each base, enumerated once and shared by the web
corpus and the web-count check, and the graph-level values of each base,
its grog number, residual histogram and |Aut| from one walk of its label
placements, shared by the path, cycle, divergence and web-count checks
(P_3 and P_4 serve all four).  A group runs once when any of its claims
is requested.

Two groups check seeded random maximal strategies: the terminal-state
laws (lemma-2.1, lemma-2.2 and lemma-2.3, one pass over shared runs) and
obs-1/obs-2.  Each strategy is drawn and played once, by
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
from .graphs import Digraph, GraphError, UGraph, digraph_to_json
from .jaco import build_jaco, check_jaconian, jaco_table, max_degree_vertex
from .webs import (
    check_web_order,
    complete_graph,
    cycle_graph,
    enumerate_webs,
    grog_and_distribution,
    path_graph,
    star_graph,
    web_count_formula,
)

# base graph -> its webs, as enumerate_webs(base, dedup=True) yields them
Webs = Callable[[UGraph], list[Web]]
# a base's grog number, witness web, residual histogram and |Aut|, as
# grog_and_distribution gives them
GraphValues = tuple[int, Web, dict[int, int], int]
Values = Callable[[UGraph], GraphValues]

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

# (claim ids, runner(config, webs, values) -> their reports), in report order;
# webs(base) is the deduplicated webs of base, enumerated once per base, which
# _corpus extends with random webs, and values(base) its grog number, residual
# histogram and |Aut|, from one placement walk per base.  The random runs of
# the terminal-state laws come from seed + 2 and those of obs-1/obs-2 from
# seed + 3; def-2.2's random webs come from seed + 4.  seed + 1 is left
# undrawn, so every other stream keeps the number its pinned runs and reports
# were drawn with.
_GROUPS = (
    (("thm-1.1",), lambda c, webs, values: [check_competition_closed_form(c.n_max_thm11)]),
    (("lemma-2.1", "lemma-2.2", "lemma-2.3"), lambda c, webs, values: check_terminal_state_laws(
        _corpus(webs, c.seed, c.random_webs), c.runs_per_web, c.seed + 2)),
    (("prop-2.4", "cor-2.5"), lambda c, webs, values: check_path_relations(c.n_max_path, values)),
    (("thm-2.6",), lambda c, webs, values: [check_orientation_divergence(values)]),
    (("prop-2.7", "cor-2.8"), lambda c, webs, values: check_cycle_relations(c.n_max_cycle, values)),
    (("lemma-2.9", "prop-2.10", "cor-2.11"),
     lambda c, webs, values: check_jaco_recursion(c.n_max_jaco, c.n_max_lemma29)),
    (("obs-1", "obs-2"), lambda c, webs, values: check_termination_and_determinism(
        _corpus(webs, c.seed, c.random_webs), c.runs_per_web, c.seed + 3)),
    (("def-2.2-equivalence",), lambda c, webs, values: [check_greedy_equivalence(
        _corpus(webs, c.seed + 4, c.random_greedy_webs), c.arc_cap)]),
    (("web-count",), lambda c, webs, values: [check_web_count(webs, values)]),
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
        """The fields in order, with claim_id named "id"."""
        return dict(zip(("id", *self._fields[1:]), self))


def _report(claim_id: str, instances: int, failures: list, values: dict) -> ClaimReport:
    """The claim's report, with the status its catalog mode gives `failures`."""
    mode = CLAIM_INFO[claim_id][0]
    status = "reported" if mode == REPORT_ONLY else "fail" if failures else "pass"
    return ClaimReport(claim_id, mode, status, instances, failures, values)


def _web_json(web: Web) -> dict:
    return digraph_to_json(web.digraph)


def _run_failure(web: Web, strategy, **fields) -> dict:
    """A random run's failure record: its web, its strategy, then `fields`."""
    return {"web": _web_json(web), "strategy": strategy_to_json(strategy), **fields}


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

    One rng drawn from `seed` serves every run, web by web in corpus order;
    a web without arcs draws nothing from it.  The result is the draw's own
    play, so no run is replayed here, and every claim of a group reads the
    same pass.
    """
    rng = random.Random(seed)
    for web in corpus:
        for _ in range(runs):
            yield web, *random_maximal_run(web, rng)


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def check_terminal_state_laws(
    corpus: list[Web], runs: int, seed: int
) -> tuple[ClaimReport, ClaimReport, ClaimReport]:
    """lemma-2.1, lemma-2.2 and lemma-2.3 over shared random maximal runs.

    lemma-2.1 (a zero and a positive population) is checked on the runs of
    webs with n >= 2 only; a 1-vertex web draws nothing from the rng.
    """
    exit_failures = []
    parity_failures = []
    count_failures = []
    for web, strategy, result in _random_runs(corpus, runs, seed):
        pops = result.final_state.pop
        # populations are never negative, so any() finds a positive one
        if web.n >= 2 and not (0 in pops and any(pops)):
            exit_failures.append(_run_failure(web, strategy, final_population=list(pops)))
        total = web.total_population
        if result.residual % 2 != total % 2:
            parity_failures.append(_run_failure(
                web, strategy, residual=result.residual, initial_total=total))
        if 2 * result.predation_count != total - result.residual:
            count_failures.append(_run_failure(
                web, strategy, predation_count=result.predation_count,
                residual=result.residual, initial_total=total))
    playable = sum(web.n >= 2 for web in corpus)
    values = {"webs": len(corpus), "runs_per_web": runs}
    return (
        _report("lemma-2.1", playable * runs, exit_failures,
                {**values, "skipped_webs": len(corpus) - playable}),
        _report("lemma-2.2", len(corpus) * runs, parity_failures, values),
        _report("lemma-2.3", len(corpus) * runs, count_failures, values),
    )


def check_greedy_equivalence(corpus: list[Web], arc_cap: int) -> ClaimReport:
    """def-2.2-equivalence: greedy minimum equals the exact grog number,
    each computed once per distinct web; a repeated web repeats its failure."""
    failures = []
    checked: dict[Web, tuple[int, int]] = {}
    for web in corpus:
        if web not in checked:
            checked[web] = solve_exact(web).grog, enumerate_greedy(web, cap=arc_cap).min_residual
        exact, greedy_min = checked[web]
        if exact != greedy_min:
            failures.append({"web": _web_json(web), "exact": exact, "greedy_min": greedy_min})
    values = {"webs": len(corpus)}
    return _report("def-2.2-equivalence", len(corpus), failures, values)


def _family_grogs(what: str, family, n_max: int, values: Values) -> dict[int, int]:
    """g(family(n)) for n = 3..n_max: the least grog number of any web.

    Refuses n_max below 3 or past the web order cap before any base is
    walked; the cap bounds the label placements that `values` walks.
    """
    if n_max < 3:
        raise GraphError(f"{what} needs n_max >= 3, got {n_max}")
    check_web_order(n_max)
    return {n: values(family(n))[0] for n in range(3, n_max + 1)}


def check_path_relations(
    n_max: int, values: Values = grog_and_distribution
) -> tuple[ClaimReport, ClaimReport]:
    """cor-2.5's g(P_{n+1}) = g(P_n) + (n - 1) and prop-2.4's (report-only)
    per-web grog histograms and extension deltas, from one walk of each P_n."""
    g = _family_grogs("path recursion", path_graph, n_max, values)
    failures = []
    for n in range(3, n_max):
        if g[n + 1] != g[n] + (n - 1):
            failures.append({
                "n": n,
                "g_n": g[n],
                "g_n_plus_1": g[n + 1],
                "expected": g[n] + (n - 1),
            })
    per_web = {}
    for n in range(3, min(5, n_max) + 1):
        hist = values(path_graph(n))[2]
        per_web[f"P{n}"] = {str(v): count for v, count in hist.items()}
    deltas = {str(n + 1): g[n + 1] - g[n] for n in range(3, n_max)}
    observed = {"per_web_grog": per_web, "extension_deltas": deltas}
    return (
        _report("prop-2.4", len(per_web) + len(deltas), [], observed),
        _report("cor-2.5", n_max - 3, failures, {"g": {str(n): g[n] for n in sorted(g)}}),
    )


def check_cycle_relations(
    n_max: int, values: Values = grog_and_distribution
) -> tuple[ClaimReport, ClaimReport]:
    """prop-2.7 and cor-2.8 (report-only): observed cycle deltas.

    These are per-strategy statements about minimally-deviated strategy
    adaptations; at grog-number level the naive readings do not hold
    (already g(C_3) = 2 = g(P_3) rather than g(P_3) - 2), so the
    observed sequences are recorded without assertion.
    """
    gc = _family_grogs("cycle relations", cycle_graph, n_max, values)
    gp = _family_grogs("cycle relations", path_graph, n_max, values)
    g_cycle = {str(n): gc[n] for n in sorted(gc)}
    cycle_deltas = {str(n + 1): gc[n + 1] - gc[n] for n in range(3, n_max)}
    diff = {str(n): gc[n] - gp[n] for n in range(3, n_max + 1)}
    prop = _report(
        "prop-2.7",
        len(cycle_deltas),
        [],
        {
            "g_cycle": g_cycle,
            "cycle_deltas": cycle_deltas,
            "plus_n_minus_1_pattern": {
                str(n + 1): gc[n + 1] - gc[n] == n - 1 for n in range(3, n_max)
            },
        },
    )
    cor = _report(
        "cor-2.8",
        len(diff),
        [],
        {
            "g_cycle": g_cycle,
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


def check_orientation_divergence(values: Values = grog_and_distribution) -> ClaimReport:
    """thm-2.6: each base of `divergence_bases` (all n >= 3) has two webs
    with distinct grog numbers, read off its residual histogram."""
    observed, failures = {}, []
    for name, base in divergence_bases():
        distinct = list(values(base)[2])
        observed[name] = {"min": distinct[0], "max": distinct[-1], "distinct": distinct}
        if len(distinct) == 1:
            failures.append({"base": name, "grog": distinct[0]})
    return _report("thm-2.6", len(observed), failures, {"bases": observed})


def check_jaco_recursion(
    n_max: int, lemma29_n_max: int
) -> tuple[ClaimReport, ClaimReport, ClaimReport]:
    """lemma-2.9, prop-2.10 and cor-2.11 with exactly solved g(J_n(1)).

    Every order is read off one table of the top order, max(n_max,
    lemma29_n_max), so an order past the cap raises before any other
    work.  J_n is built and solved only for n <= n_max, from 2 up before
    any order is read, so the solver's cap raises on the first order it
    refuses (J_91) and no larger order is built.
    """
    if n_max < 2:
        raise GraphError(f"Jaco recursion needs n_max >= 2, got {n_max}")
    top = max(n_max, lemma29_n_max)
    table = jaco_table(top)
    g = {n: solve_exact(Web(build_jaco(n).digraph)).grog for n in range(2, n_max + 1)}
    jaconian = {n: check_jaconian(table, n) for n in range(2, top + 1)}
    lemma_orders = range(2, lemma29_n_max + 1)
    lemma = _report("lemma-2.9", len(lemma_orders), [
        {"n": n, "jaconian": jaconian[n], "two_i_minus_n": 2 * jaconian[n] - n}
        for n in lemma_orders if 2 * jaconian[n] - n < 0
    ], {
        "n_range": [2, lemma29_n_max],
        "max_degree_divergences": [
            n for n in lemma_orders if max_degree_vertex(table, n) != jaconian[n]
        ],
    })

    expected = {n: g[n] + (2 * jaconian[n] - n) + 1 for n in range(2, n_max)}
    rec_failures = [
        {"n": n, "jaconian": jaconian[n], "g_n": g[n], "g_n_plus_1": g[n + 1], "expected": e}
        for n, e in expected.items() if g[n + 1] != e
    ]
    g_jaco = {str(n): g[n] for n in sorted(g)}
    prop = _report("prop-2.10", n_max - 2, rec_failures, {
        "g_jaco": g_jaco,
        "jaconian": {str(n): jaconian[n] for n in range(2, n_max)},
    })
    mono_failures = [
        {"n": n, "g_n": g[n], "g_n_plus_1": g[n + 1]}
        for n in range(2, n_max)
        if g[n + 1] <= g[n]
    ]
    cor = _report("cor-2.11", n_max - 2, mono_failures, {"g_jaco": g_jaco})
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
            term_failures.append(_run_failure(
                web, strategy, predation_count=first.predation_count, arcs=eps))
        second = run_strategy(web, strategy)
        if (
            second.residual != first.residual
            or second.used_arcs != first.used_arcs
            or second.final_state.pop != first.final_state.pop
        ):
            det_failures.append(_run_failure(
                web, strategy, first_residual=first.residual, second_residual=second.residual))
    instances = len(corpus) * runs
    values = {"webs": len(corpus), "runs_per_web": runs}
    return (
        _report("obs-1", instances, term_failures, values),
        _report("obs-2", instances, det_failures, values),
    )


def check_web_count(webs: Webs, values: Values = grog_and_distribution) -> ClaimReport:
    """web-count: dedup count vs the half-formula.

    Equality is asserted only for bases with exactly 2 automorphisms;
    other group sizes are recorded with a mismatch flag, since the
    half-formula over-counts the identification for them.  |Aut| is the
    backtracking search's, read off `values`, not the dedup count.
    """
    bases = _named_bases() + [("K2", path_graph(2))]
    failures, observed = [], {}
    for name, base in bases:
        formula = web_count_formula(base.n, len(base.edges))
        dedup = len(webs(base))
        aut = values(base)[3]
        entry = {"formula": formula, "dedup": dedup, "aut": aut}
        if aut == 2:
            if dedup != formula:
                failures.append({"base": name, **entry})
        else:
            entry["formula_mismatch"] = dedup != formula
        observed[name] = entry
    return _report("web-count", len(bases), failures, {"bases": observed})


def check_competition_closed_form(n_max: int) -> ClaimReport:
    """thm-1.1 wrapped as a claim."""
    result = check_theorem_1_1(n_max)
    failures = [r for r in result.results if not r["equal"]]
    values = {"n_range": [result.n_min, result.n_max]}
    return _report("thm-1.1", len(result.results), failures, values)


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

# the report's "caps" names of the range fields; each other field but the
# seed, which the report holds at its top level, keeps its own name
_CAPS_NAMES = {
    "n_max_thm11": "thm_1_1_n_max",
    "n_max_path": "path_n_max",
    "n_max_cycle": "cycle_n_max",
    "n_max_jaco": "jaco_n_max",
    "n_max_lemma29": "lemma_2_9_n_max",
}


def _config_json(config: HarnessConfig) -> dict:
    return {_CAPS_NAMES.get(k, k): v for k, v in config._asdict().items() if k != "seed"}


def _empty_range(claim_id: str, config: HarnessConfig) -> str:
    """The skip reason of a claim that checked no instance."""
    field = CLAIM_INFO[claim_id][2]
    if field is None:
        return "no instance to check"
    return f"empty range: {_CAPS_NAMES[field]} = {getattr(config, field)} leaves no instance"


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
    skipped entries with the reason; any other error propagates.  An
    assert-mode claim that checked no instance is skipped, not passed.
    """
    unknown = [c for c in claim_ids if c not in CLAIM_INFO]
    if unknown:
        raise KeyError(f"unknown claim id(s): {', '.join(unknown)}")
    wanted = set(claim_ids)
    deduped: dict[UGraph, list[Web]] = {}
    walked: dict[UGraph, GraphValues] = {}

    def webs(base: UGraph) -> list[Web]:
        if base not in deduped:
            deduped[base] = _dedup_webs(base)
        return deduped[base]

    def values(base: UGraph) -> GraphValues:
        if base not in walked:
            walked[base] = grog_and_distribution(base)
        return walked[base]

    def skipped(cid: str, reason: str) -> ClaimReport:
        return ClaimReport(cid, CLAIM_INFO[cid][0], "skipped", 0, [], {"skip_reason": reason})

    reports: list[ClaimReport] = []
    for ids, runner in _GROUPS:
        if not wanted.intersection(ids):
            continue
        try:
            group_reports = runner(config, webs, values)
        except GraphError as exc:
            group_reports = [skipped(cid, str(exc)) for cid in ids]
        reports.extend(
            skipped(r.claim_id, _empty_range(r.claim_id, config))
            if r.status == "pass" and r.instances < 1 else r
            for r in group_reports if r.claim_id in wanted
        )
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
