"""One benchmark pass, run in a fresh interpreter by run.py.

Usage: python perfbench/child.py WORKLOAD SEED TRACE SMOKE

Imports grogweb from the checkout's src/ (PYTHONPATH), builds the workload's
inputs, runs the timed body once and prints one JSON line holding the pass's
timings, the outputs run.py checks, and, with TRACE=1, the per-layer numbers.
Every pass pays `import grogweb` and a cold `_web_grog_values` cache, as a
command-line user does.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import signal
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from math import factorial

import spec

_DONE = object()


def monotonic() -> float:
    """System-wide clock, comparable with the parent's spawn time."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------------
# speed probe: the machine's speed drifts by up to half between phases that
# last seconds (other tenants share the physical cores), so every time a pass
# reports is scaled to one reference speed, sampled while the pass runs
# ---------------------------------------------------------------------------

PROBE_INTERVAL_S = 0.1
# the probe kernel's duration at the reference speed: about its median inside
# passes on the machine the benchmark was defined on (2-vCPU Xeon, Python 3.11.7)
PROBE_REF_S = 0.001
_PROBE_BUFFER = bytes(range(256)) * 4096
_PROBE_TABLE = dict.fromkeys(range(4096), 0)


def _probe_kernel() -> int:
    """Fixed dict, integer and buffer-read work, like the code measured.

    It updates a preallocated table with small (cached) ints, so it leaves no
    allocations behind that could fragment the heap and move peak RSS.
    """
    table = _PROBE_TABLE
    x = 12345
    total = 0
    for _ in range(1500):
        x = (x * 1103515245 + 12345) & 0xFFFFF
        k = x & 4095
        table[k] = (table[k] + _PROBE_BUFFER[x]) & 0xFF
        total += (x & -x).bit_length()
    return total


class SpeedProbe:
    """Times the probe kernel every PROBE_INTERVAL_S from a SIGALRM handler.

    The handler runs in the main thread between bytecodes; `spent` is the time
    it has taken so far, which callers subtract from the intervals they time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, *_) -> None:
        """Run the kernel twice and keep the second, warm-cache, duration."""
        start = time.perf_counter()
        _probe_kernel()
        mid = time.perf_counter()
        _probe_kernel()
        end = time.perf_counter()
        self.samples.append(end - mid)
        self.spent += end - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.sample()

    def factor(self) -> float:
        """Reference speed over the pass's mean speed; times are multiplied by it."""
        return statistics.fmean(PROBE_REF_S / d for d in self.samples)


PROBE = SpeedProbe()


def clock() -> float:
    """perf_counter without the time spent in the probe."""
    return time.perf_counter() - PROBE.spent


# ---------------------------------------------------------------------------
# tracing: wrap public functions wherever a grogweb module looks them up
# ---------------------------------------------------------------------------

class Tracer:
    """Spans and counters at layer boundaries, kept in memory for one pass.

    A span's busy time includes the spans it causes; its self time does not.
    Generators are timed while they are consumed, one span per item.
    """

    def __init__(self):
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.samples = defaultdict(list)
        self.stack: list[list[float]] = []
        self.max_jaco_order = 0
        self.direct_inputs: list = []
        self.build_jaco = None  # the untraced original, for the memory probe
        self.on = True

    def _enter(self) -> tuple[list[float], float]:
        frame = [0.0]
        self.stack.append(frame)
        return frame, clock()

    def _leave(self, name: str, frame: list[float], start: float) -> float:
        dt = clock() - start
        self.stack.pop()
        if self.stack:
            self.stack[-1][0] += dt
        self.busy[name] += dt
        self.self_time[name] += dt - frame[0]
        return dt

    def span(self, name: str, fn, *args):
        frame, start = self._enter()
        try:
            return fn(*args)
        finally:
            self._leave(name, frame, start)

    def wrap(self, name: str, fn, after=None, keep_samples=False):
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            frame, start = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = self._leave(name, frame, start)
            self.calls[name] += 1
            if keep_samples:
                self.samples[name].append(dt)
            if after is not None:
                after(args, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn, on_exhausted):
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            self.calls[name] += 1
            frame, start = self._enter()
            try:
                it = fn(*args, **kwargs)
            finally:
                self._leave(name, frame, start)
            return self._consume(name, it, args[0], on_exhausted)

        return traced

    def _consume(self, name, it, graph, on_exhausted):
        yielded = 0
        while True:
            frame, start = self._enter()
            try:
                item = next(it, _DONE)
            finally:
                self._leave(name, frame, start)
            if item is _DONE:
                on_exhausted(graph, yielded)
                return
            yielded += 1
            yield item


def install(tracer: Tracer) -> None:
    """Replace each traced function in every grogweb module that holds it."""
    from grogweb import competition, engine, graphs, jaco, webs

    tracer.build_jaco = jaco.build_jaco

    def jaco_after(args, result):
        tracer.max_jaco_order = max(tracer.max_jaco_order, result.n)
        tracer.counts["jaco.build_jaco.arcs"] += len(result.digraph.arcs)

    def solve_after(args, result):
        tracer.counts["engine.solve_exact.states"] += result.states_explored

    def legal_after(args, result):
        tracer.counts["legal"] += len(result)
        tracer.counts["remaining"] += len(args[0].remaining)

    def direct_after(args, result):
        tracer.direct_inputs.append(args[0])

    def webs_exhausted(g, yielded):
        tracer.counts["webs.enumerate_webs.generated"] += factorial(g.n) * 2 ** len(g.edges)
        tracer.counts["webs.unique"] += yielded

    wrappers = {
        graphs.make_digraph: tracer.wrap("graphs.make_digraph", graphs.make_digraph),
        jaco.build_jaco: tracer.wrap("jaco.build_jaco", jaco.build_jaco, jaco_after),
        competition.competition_graph: tracer.wrap(
            "competition.direct", competition.competition_graph, direct_after),
        competition.jaco_competition_closed_form: tracer.wrap(
            "competition.closed_form", competition.jaco_competition_closed_form),
        competition.check_theorem_1_1: tracer.wrap(
            "competition.check_theorem_1_1", competition.check_theorem_1_1),
        engine.solve_exact: tracer.wrap("engine.solve_exact", engine.solve_exact, solve_after),
        engine.enumerate_greedy: tracer.wrap("engine.enumerate_greedy", engine.enumerate_greedy),
        engine.legal_predations: tracer.wrap(
            "engine.legal_predations", engine.legal_predations, legal_after, keep_samples=True),
        engine.apply_batch: tracer.wrap(
            "engine.apply_batch", engine.apply_batch, keep_samples=True),
        engine.run_strategy: tracer.wrap("engine.run_strategy", engine.run_strategy),
        webs.enumerate_webs: tracer.wrap_generator(
            "webs.enumerate_webs", webs.enumerate_webs, webs_exhausted),
    }
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "grogweb" or mod_name.startswith("grogweb."):
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])


def _quantile_us(samples: list[float], q: int) -> float:
    if len(samples) < 2:
        return samples[0] * 1e6 if samples else 0.0
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1] * 1e6


def layer_metrics(tracer: Tracer, timings: dict) -> dict:
    """Per-layer numbers of one traced pass, by spec.PER_LAYER name."""
    t = tracer
    m = {name: 0.0 for name, _, _ in spec.PER_LAYER
         if name not in ("cli.import_s", "cli.startup_s", "trace.overhead_s")}
    for name in ("graphs.make_digraph", "jaco.build_jaco", "engine.solve_exact",
                 "engine.enumerate_greedy", "engine.legal_predations",
                 "engine.apply_batch", "engine.run_strategy", "webs.enumerate_webs"):
        m[f"{name}.calls"] = t.calls[name]
    for name in ("graphs.make_digraph", "jaco.build_jaco", "competition.direct",
                 "competition.closed_form", "competition.check_theorem_1_1",
                 "engine.solve_exact", "engine.enumerate_greedy", "engine.run_strategy",
                 "webs.enumerate_webs"):
        m[f"{name}.busy_s"] = t.busy[name]
    for name in ("jaco.build_jaco.arcs", "engine.solve_exact.states",
                 "webs.enumerate_webs.generated"):
        m[name] = t.counts[name]
    states = t.counts["engine.solve_exact.states"]
    m["engine.solve_exact.us_per_state"] = t.busy["engine.solve_exact"] / states * 1e6 if states else 0.0
    for name in ("engine.legal_predations", "engine.apply_batch"):
        m[f"{name}.p50_us"] = _quantile_us(t.samples[name], 50)
        m[f"{name}.p99_us"] = _quantile_us(t.samples[name], 99)
    remaining = t.counts["remaining"]
    m["engine.legal_ratio"] = t.counts["legal"] / remaining if remaining else 0.0
    generated = t.counts["webs.enumerate_webs.generated"]
    m["webs.dedup_keep_ratio"] = t.counts["webs.unique"] / generated if generated else 0.0
    # computed by the benchmark, not measured: sum over heads z of C(d^-(z), 2)
    pairs = 0
    for d in t.direct_inputs:
        indeg = defaultdict(int)
        for _, h in d.arcs:
            indeg[h] += 1
        pairs += sum(k * (k - 1) // 2 for k in indeg.values())
    m["competition.direct.pairs"] = pairs
    # tracemalloc slows allocation, so the peak is taken on a re-run of the
    # largest order after the timed body instead of inside the timed calls
    if t.max_jaco_order:
        tracemalloc.start()
        t.build_jaco(t.max_jaco_order)
        m["jaco.build_jaco.peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    for group, _ in spec.CLAIM_GROUPS:
        name = f"claims.{group}"
        m[f"{name}.busy_s"] = t.busy[name]
        m[f"{name}.self_s"] = t.self_time[name]
        m[f"{name}.instances"] = t.counts[f"{name}.instances"]
    m.update(timings)
    return m


# ---------------------------------------------------------------------------
# workloads: each builds its inputs, then times its body from the first call
# ---------------------------------------------------------------------------

class Pass:
    """Clock readings and outputs of one pass."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.t_first = 0.0
        self.probe_before_first = 0.0
        self.t0 = 0.0
        self.wall_s = 0.0
        self.items = 0
        self.out: dict = {}
        self.timings: dict = {}

    def start(self) -> None:
        self.t_first = monotonic()
        self.probe_before_first = PROBE.spent
        self.t0 = clock()

    def stop(self) -> None:
        """End the timed body; checks that follow are neither timed nor traced."""
        self.wall_s = clock() - self.t0
        if self.tracer is not None:
            self.tracer.on = False


def verify_all(p: Pass, seed: int, smoke: bool) -> None:
    from grogweb import claims

    config = claims.HarnessConfig(**spec.harness_fields(seed, smoke))
    grouped = [cid for _, ids in spec.CLAIM_GROUPS for cid in ids]
    if grouped != list(claims.CLAIM_ORDER):
        raise SystemExit(f"claim groups {grouped} do not cover CLAIM_ORDER")
    p.start()
    tracer = p.tracer
    if tracer is None:
        report = claims.run_all(config)
        p.stop()
        p.out["report_sha"] = hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest()
        reports = report["claims"]
    else:
        # one run_claims call per group, in CLAIM_ORDER, so the cache state
        # each group sees is the one it sees inside run_all
        reports = []
        for group, ids in spec.CLAIM_GROUPS:
            part = tracer.span(f"claims.{group}", claims.run_claims, list(ids), config)
            tracer.counts[f"claims.{group}.instances"] = sum(r["instances"] for r in part["claims"])
            reports += part["claims"]
        p.stop()
    p.items = sum(r["instances"] for r in reports)
    p.out["claims"] = reports
    p.out["digest"] = hashlib.sha256(json.dumps(reports, indent=2).encode()).hexdigest()


def solve_sweep(p: Pass, seed: int, smoke: bool) -> None:
    from grogweb import engine, graphs, jaco

    orders, random_webs = spec.solve_inputs(seed, smoke)
    webs = []
    for n in orders:
        d = jaco.build_jaco(n).digraph
        webs.append((f"J{n}", f"J{n}", engine.Web(graphs.make_digraph(n, d.arcs))))
    for k, (label, n, arcs) in enumerate(random_webs):
        webs.append((label, f"{label}#{k}", engine.Web(graphs.make_digraph(n, arcs))))
    solved = []
    curve: dict = defaultdict(float)
    p.start()
    for label, key, web in webs:
        ts = clock()
        exact = engine.solve_exact(web)
        curve[f"engine.solve_exact.s.{label}"] += clock() - ts
        greedy = engine.enumerate_greedy(web)
        solved.append((key, web, exact, greedy))
    p.stop()
    p.items = len(solved)
    results = []
    for key, web, exact, greedy in solved:
        try:
            replay = engine.run_strategy(web, exact.witness, require_exit=True).residual
        except engine.StrategyError as exc:
            replay = f"{type(exc).__name__}: {exc}"
        results.append({"key": key, "grog": exact.grog, "greedy_min": greedy.min_residual,
                        "replay_residual": replay})
    p.out["webs"] = results
    p.out["digest"] = hashlib.sha256(json.dumps(results).encode()).hexdigest()
    p.timings = dict(curve)


def jaco_competition(p: Pass, seed: int, smoke: bool) -> None:
    from grogweb import competition, jaco

    inputs = spec.jaco_inputs(seed, smoke)
    kept = []
    p.start()
    for n in inputs["orders"]:
        jg = jaco.build_jaco(n)
        ts = clock()
        direct = competition.competition_graph(jg.digraph)
        p.timings[f"competition.direct.s.n{n}"] = clock() - ts
        closed = competition.jaco_competition_closed_form(n)
        kept.append((n, direct, closed))
    thm = competition.check_theorem_1_1(inputs["n_thm"])
    big = jaco.build_jaco(inputs["n_big"])
    p.stop()

    def digest(c) -> dict:
        return {"edges": len(c.ugraph.edges), "edges_hash": hash(c.ugraph.edges),
                "isolated_hash": hash(c.isolated)}

    p.out["orders"] = {str(n): {"direct": digest(d), "closed": digest(c)} for n, d, c in kept}
    p.out["thm_all_equal"] = thm.all_equal
    p.out["thm_orders"] = len(thm.results)
    p.out["big_arcs"] = len(big.digraph.arcs)
    p.out["big_hash"] = hash(big.digraph.arcs)
    p.out["digest"] = hashlib.sha256(json.dumps(p.out, sort_keys=True).encode()).hexdigest()


def strategy_replay(p: Pass, seed: int, smoke: bool) -> None:
    from grogweb import engine, graphs, jaco

    games = spec.replay_inputs(seed, smoke)
    webs = {}
    for n in sorted({n for n, _ in games}):
        d = jaco.build_jaco(n).digraph
        webs[n] = engine.Web(graphs.make_digraph(n, d.arcs))
    played = []
    p.start()
    for n, game_seed in games:
        rng = random.Random(game_seed)
        state = engine.new_state(webs[n])
        batches = []
        while True:
            legal = sorted(engine.legal_predations(state))
            if not legal:
                break
            pred = rng.choice(sorted({t for t, _ in legal}))
            mine = [h for t, h in legal if t == pred]
            ell = rng.randint(1, min(state.population(pred), len(mine)))
            batch = engine.PredationBatch(pred, rng.sample(mine, ell))
            state = engine.apply_batch(state, batch)
            batches.append(batch)
        replay = engine.run_strategy(webs[n], tuple(batches), require_exit=True)
        played.append((n, batches, state, replay))
    p.stop()
    p.items = 2 * sum(len(b) for _, b, _, _ in played)
    p.out["games"] = [
        {"n": n, "strategy": [[b.predator, sorted(b.prey)] for b in batches],
         "played_pop": list(state.pop), "replay_pop": list(replay.final_state.pop),
         "residual": replay.residual, "count": replay.predation_count}
        for n, batches, state, replay in played
    ]
    p.out["digest"] = hashlib.sha256(json.dumps(p.out["games"]).encode()).hexdigest()


BODIES = {
    "verify-all": verify_all,
    "solve-sweep": solve_sweep,
    "jaco-competition": jaco_competition,
    "strategy-replay": strategy_replay,
}


def main() -> int:
    workload, seed, trace, smoke = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4] == "1"
    PROBE.start()
    t = clock()
    import grogweb
    import_s = clock() - t
    src = os.path.realpath(os.environ["PERFBENCH_SRC"])
    if not os.path.realpath(grogweb.__file__).startswith(src + os.sep):
        print(f"grogweb imported from {grogweb.__file__}, not from {src}", file=sys.stderr)
        return 3
    tracer = None
    if trace:
        tracer = Tracer()
        install(tracer)
    p = Pass(tracer)
    BODIES[workload](p, seed, smoke)
    PROBE.stop()
    speed = PROBE.factor()
    result = {
        "t_first": p.t_first,
        "probe_before_first_s": p.probe_before_first,
        "speed": speed,
        "import_s": import_s * speed,
        "wall_raw_s": p.wall_s,
        "wall_s": p.wall_s * speed,
        "items": p.items,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "out": p.out,
    }
    if tracer is not None:
        units = {name: unit for name, unit, _ in spec.PER_LAYER}
        result["layers"] = {
            name: value * speed if units[name] in ("s", "us") else value
            for name, value in layer_metrics(tracer, p.timings).items()
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
