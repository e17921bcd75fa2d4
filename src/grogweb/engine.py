"""The Grog predation game: validated state machine, exact and greedy solvers.

A web is an orientation of a simple connected graph in which the vertex
labelled i starts with population i.  One move picks a predator vertex
and a batch of its remaining out-arcs:

  * the batch size may not exceed the predator's current population,
  * every preyed-upon vertex needs current population at least 1,
  * each arc is consumed by use,
  * predator and prey each lose one population unit per arc.

Play halts when no remaining arc joins two positive populations.  The
residual is the total population left at that point, and the grog number
of a web is the smallest residual any strategy can reach.

Two structural facts drive the implementation.  First, each consumed arc
lowers the total population by exactly 2, and a vertex's population is
its label minus the number of consumed arcs incident to it; hence the
final state depends only on WHICH arcs were consumed, never on the
order, and residual = n(n+1)/2 - 2 * (arcs consumed).  Second, a set of
arcs can be consumed, in any order and one arc per batch, exactly when
every vertex v meets at most v of them: populations only fall, so each
arc's endpoints are still positive when it is played.  The largest such
set is a maximum simple b-matching with b(v) = v, which the exact
solver finds in polynomial time with one b-matching core, `_BMatching`,
run on a vertex-and-edge gadget.  The greedy counter searches
instead, because greedy counts depend on the orientation.  It first
splits the web: a vertex that is not tight (one meeting no more arcs
than its label) stays positive while it holds an arc and, as a tail,
takes all its legal out-arcs, so arcs that share no tight vertex play
independent games, whose greedy strings interleave with their blocks
kept whole.  Each part is walked alone, counted by its number of blocks,
and the parts are combined over the interleavings.  The walk runs over
remaining-arc masks with one incidence mask and one out-arc mask per
vertex, so the populations, the legal arcs and each tail's legal
out-arcs of a mask cost a few big-int operations per vertex.  It
memoises on the live subgame: an arc that loses an endpoint to
population 0 never becomes legal again, and only a tight vertex can
bind, so the legal arcs and the populations of the tight vertices still
meeting one decide the rest of the game.

A move is checked and charged by one in-place step, `_play`, on a
mutable population list: `apply_batch` wraps it to return a new frozen
`GrogState`, while `run_strategy` and `random_maximal_run` play a whole
strategy on one list and one arc set and build the final `GrogState` and
`RunResult` only at the end, in one shared helper.  `random_maximal_run`
draws each batch from the state of its own play, so a drawn strategy
comes with its result and needs no replay.  `legal_predations`
subtracts, from the remaining arcs, the arcs at every vertex of
population 0, read off a per-web incidence table built once per `Web`.

The exact solver's cost is the memory of the core's matching gadget,
bounded by SOLVER_GADGET_CAP, which no caller can move.  The greedy
counter's cost is up to 2^arcs masks of its largest part, bounded by an
arc cap on the whole web (GREEDY_ARC_CAP).
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate, combinations
from math import comb, factorial
from typing import TYPE_CHECKING, NamedTuple

from .graphs import CapExceeded, Digraph, GraphError

if TYPE_CHECKING:
    import random

SOLVER_GADGET_CAP = 2**17
GREEDY_ARC_CAP = 24


class StrategyError(ValueError):
    """A strategy could not be applied; `step` is the failing batch index."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class IllegalBatchError(StrategyError):
    """A predation batch violated a precondition."""


class NonTerminalError(StrategyError):
    """A strategy run with require_exit stopped before the game ended."""


class _WebFields(NamedTuple):
    digraph: Digraph


class Web(_WebFields):
    """A predation web: populations are fixed by the labels, pop(v_i) = i.

    Unlike the other records, a web declares no `__slots__`, so each web
    has an instance `__dict__`, where `incident_arcs` is kept once read.
    """

    @property
    def n(self) -> int:
        return self.digraph.n

    @property
    def populations(self) -> tuple[int, ...]:
        return tuple(range(1, self.n + 1))

    @property
    def total_population(self) -> int:
        return self.n * (self.n + 1) // 2

    @cached_property
    def incident_arcs(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The arcs at each vertex v, at position v - 1, in arc order."""
        at: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for arc in self.digraph.arcs:
            at[arc[0] - 1].append(arc)
            at[arc[1] - 1].append(arc)
        return tuple(map(tuple, at))


class _BatchFields(NamedTuple):
    predator: int
    prey: frozenset[int]


class PredationBatch(_BatchFields):
    """One move: `predator` consumes the out-arcs to each vertex in `prey`.

    `prey` may be given as any iterable; it is kept as a frozenset.
    `_make` and `_replace` go through the same check.
    """

    __slots__ = ()

    def __new__(cls, predator: int, prey):
        prey = frozenset(prey)
        if not prey:
            raise GraphError("a predation batch needs at least one prey vertex")
        return tuple.__new__(cls, (predator, prey))

    @classmethod
    def _make(cls, iterable) -> PredationBatch:
        return cls(*iterable)


Strategy = tuple[PredationBatch, ...]


class GrogState(NamedTuple):
    """Remaining arcs plus current populations during a run.

    Invariant: pop(v_i) = i - (consumed arcs incident to v_i), all
    populations non-negative.
    """

    web: Web
    remaining: frozenset[tuple[int, int]]
    pop: tuple[int, ...]

    def population(self, v: int) -> int:
        return self.pop[v - 1]

    def is_terminal(self) -> bool:
        return not legal_predations(self)


class RunResult(NamedTuple):
    final_state: GrogState
    residual: int
    predation_count: int
    used_arcs: frozenset[tuple[int, int]]


class SolveResult(NamedTuple):
    grog: int
    witness: Strategy
    max_predations: int
    states_explored: int


class GreedyResult(NamedTuple):
    count: int
    min_residual: int


def new_state(web: Web) -> GrogState:
    """Initial state: every arc remaining, pop(v_i) = i."""
    return GrogState(web, frozenset(web.digraph.arcs), web.populations)


def legal_predations(state: GrogState) -> set[tuple[int, int]]:
    """Remaining arcs whose both endpoints still have population >= 1.

    Empty exactly when the state is terminal.
    """
    incident = state.web.incident_arcs
    legal = set(state.remaining)
    legal.difference_update(*(incident[k] for k, p in enumerate(state.pop) if p < 1))
    return legal


def _play(pop: list[int], remaining, batch: PredationBatch) -> list[tuple[int, int]]:
    """Check one batch against `pop` and `remaining`, charge `pop` in place.

    Raises IllegalBatchError naming the first violated precondition, in
    this order: an arc that is not remaining, a predator short of
    population, or exhausted prey; `pop` is untouched then.  Returns the
    consumed arcs, which the caller removes from its remaining arcs.
    """
    pred = batch.predator
    prey = sorted(batch.prey)
    for p in prey:
        if (pred, p) not in remaining:
            raise IllegalBatchError(f"arc ({pred}, {p}) is not a remaining arc")
    if pop[pred - 1] < len(prey):
        raise IllegalBatchError(
            f"predator v_{pred} has population {pop[pred - 1]}, "
            f"cannot predate along {len(prey)} arcs"
        )
    for p in prey:
        if pop[p - 1] < 1:
            raise IllegalBatchError(f"prey v_{p} has population 0")
    pop[pred - 1] -= len(prey)
    for p in prey:
        pop[p - 1] -= 1
    return [(pred, p) for p in prey]


def apply_batch(state: GrogState, batch: PredationBatch) -> GrogState:
    """Apply one batch, returning the amended state.

    Raises IllegalBatchError naming the violated precondition: an arc
    that is not remaining, a predator short of population, or exhausted
    prey.
    """
    pop = list(state.pop)
    consumed = _play(pop, state.remaining, batch)
    return GrogState(state.web, state.remaining.difference(consumed), tuple(pop))


def _result(web: Web, pop: list[int], remaining: set[tuple[int, int]]) -> RunResult:
    """The RunResult of a play that left `pop` and `remaining`."""
    used = frozenset(web.digraph.arcs).difference(remaining)
    return RunResult(
        final_state=GrogState(web, frozenset(remaining), tuple(pop)),
        residual=sum(pop),
        predation_count=len(used),
        used_arcs=used,
    )


def run_strategy(web: Web, strategy: Strategy, require_exit: bool = False) -> RunResult:
    """Apply batches in order; pure and deterministic.

    The final state is not required to be terminal unless require_exit
    is set, in which case a premature stop raises NonTerminalError.
    """
    pop = list(web.populations)
    remaining = set(web.digraph.arcs)
    for step, batch in enumerate(strategy):
        try:
            remaining.difference_update(_play(pop, remaining, batch))
        except IllegalBatchError as exc:
            raise IllegalBatchError(f"step {step}: {exc}", step=step) from None
    result = _result(web, pop, remaining)
    if require_exit:
        leftover = legal_predations(result.final_state)
        if leftover:
            raise NonTerminalError(
                f"strategy stops early: {len(leftover)} legal predation(s) remain",
                step=len(strategy),
            )
    return result


def random_maximal_run(web: Web, rng: random.Random) -> tuple[Strategy, RunResult]:
    """A random maximal strategy and the result of playing it, from one play.

    Each step picks a predator uniformly among the tails of the legal
    arcs, then a uniform batch size up to what it may take, then that
    many of its legal prey, and plays the batch through the same checks
    as `run_strategy`; the result is the one `run_strategy(web, strategy,
    require_exit=True)` returns.  Deterministic given the rng.  Legal
    arcs are kept in `Digraph.arcs` order, which is sorted, and an arc
    that stops being legal never becomes legal again, so each step
    filters the previous step's list.
    """
    pop = list(web.populations)
    remaining = set(web.digraph.arcs)
    legal = list(web.digraph.arcs)
    batches: list[PredationBatch] = []
    choice, randint, sample = rng.choice, rng.randint, rng.sample
    while True:
        legal = [arc for arc in legal if arc in remaining and pop[arc[0] - 1] and pop[arc[1] - 1]]
        if not legal:
            return tuple(batches), _result(web, pop, remaining)
        pred = choice(list(dict.fromkeys([t for t, _ in legal])))
        mine = [h for t, h in legal if t == pred]
        batch = PredationBatch(pred, sample(mine, randint(1, min(pop[pred - 1], len(mine)))))
        remaining.difference_update(_play(pop, remaining, batch))
        batches.append(batch)


def _blossom_base(base, parent, mate, a: int, b: int) -> int:
    """Base of the innermost blossom holding the outer vertices a and b."""
    seen = set()
    while True:
        a = base[a]
        seen.add(a)
        if mate[a] == -1:
            break
        a = parent[mate[a]]
    while True:
        b = base[b]
        if b in seen:
            return b
        b = parent[mate[b]]


def _mark_blossom(base, parent, mate, blossom, v: int, top: int, child: int) -> None:
    """Flag the bases on the tree path v .. top and link it back to child."""
    while base[v] != top:
        blossom[base[v]] = blossom[base[mate[v]]] = True
        parent[v] = child
        child = mate[v]
        v = parent[mate[v]]


def _augment(adj, mate, dead, root: int) -> bool:
    """One augmenting-path search from the free vertex `root`.

    Edmonds' blossom search, breadth first, contracting blossoms by
    relabelling their base; vertices flagged in `dead` are not part of
    the graph.  Flips the path and returns True when one is found.
    """
    size = len(mate)
    parent = [-1] * size
    base = list(range(size))
    queued = [False] * size
    queued[root] = True
    queue = [root]
    for v in queue:
        for w in adj[v]:
            if dead[w] or base[v] == base[w] or mate[v] == w:
                continue
            if w == root or (mate[w] != -1 and parent[mate[w]] != -1):
                top = _blossom_base(base, parent, mate, v, w)
                blossom = [False] * size
                _mark_blossom(base, parent, mate, blossom, v, top, w)
                _mark_blossom(base, parent, mate, blossom, w, top, v)
                for i in range(size):
                    if blossom[base[i]]:
                        base[i] = top
                        if not queued[i]:
                            queued[i] = True
                            queue.append(i)
            elif parent[w] == -1:
                parent[w] = v
                if mate[w] == -1:
                    while w != -1:
                        u = parent[w]
                        after = mate[u]
                        mate[w] = u
                        mate[u] = w
                        w = after
                    return True
                queued[mate[w]] = True
                queue.append(mate[w])
    return False


def _free_copy_first(copies, mate, dead) -> int | None:
    """A live copy of one web vertex, free ones first; None if none is left."""
    found = None
    for c in copies:
        if not dead[c]:
            if mate[c] == -1:
                return c
            if found is None:
                found = c
    return found


class _BMatching:
    """A maximum simple b-matching of `arcs` on vertices 0..n, in which
    vertex v meets at most b[v] arcs, each b[v] clamped to min(b[v], deg v).

    Tutte and Shiloach's gadget makes it an ordinary matching: b[v]
    copies of each vertex v and, for arc k = (t, h), edge-vertices 2k and
    2k + 1, joined to each other and to every copy of t and of h
    respectively.  A matching covering every edge-vertex uses arc k when
    both its edge-vertices are matched to copies.  A greedy pass in
    ascending arc order seeds it; Edmonds' search then runs once from each
    free copy, since a copy with no augmenting path never gains one later.

    `size` is the size of a maximum b-matching, and the matching kept
    holds every arc taken.  `examined` counts the matchings examined: the
    seed and one per augmenting-path search.  Vertices flagged in `dead`
    have left the gadget.  Each copy of v meets the deg(v) edge-vertices
    at v, and a gadget of more than SOLVER_GADGET_CAP such copy edges
    raises CapExceeded before it is built.
    """

    def __init__(self, n: int, arcs, b):
        deg = [0] * (n + 1)
        for t, h in arcs:
            deg[t] += 1
            deg[h] += 1
        b = [min(c, d) for c, d in zip(b, deg)]
        copy_edges = sum(d * c for d, c in zip(deg, b))
        if copy_edges > SOLVER_GADGET_CAP:
            raise CapExceeded(
                f"the solver gadget would have {copy_edges} copy edges "
                f"(sum of deg(v) * min(v, deg v)), above the cap {SOLVER_GADGET_CAP}"
            )
        *starts, nodes = accumulate(b, initial=2 * len(arcs))
        self.copies = copies = [range(s, s + c) for s, c in zip(starts, b)]
        # the copies of v all meet the edge-vertices at v, so they share a list
        at = [[] for _ in range(n + 1)]
        self.adj = adj = [None] * (2 * len(arcs)) + [es for es, c in zip(at, b) for _ in range(c)]
        self.mate = mate = [-1] * nodes
        taken = [0] * (n + 1)
        for k, (t, h) in enumerate(arcs):
            et, eh = 2 * k, 2 * k + 1
            adj[et] = [eh, *copies[t]]
            adj[eh] = [et, *copies[h]]
            at[t].append(et)
            at[h].append(eh)
            if taken[t] < b[t] and taken[h] < b[h]:
                ct, ch = copies[t][taken[t]], copies[h][taken[h]]
                taken[t] += 1
                taken[h] += 1
                mate[et], mate[ct], mate[eh], mate[ch] = ct, et, ch, eh
            else:
                mate[et], mate[eh] = eh, et
        self.dead = dead = bytearray(nodes)
        examined = 1
        for c in range(2 * len(arcs), nodes):
            if mate[c] == -1:
                examined += 1
                _augment(adj, mate, dead, c)
        self.examined = examined
        self.size = sum(mate[c] != -1 for c in range(2 * len(arcs), nodes)) // 2

    def take(self, k: int, t: int, h: int) -> bool:
        """Take arc k = (t, h), one unit of b at each end, if a maximum
        b-matching holds it with every arc taken so far; else change nothing.

        An arc in the matching is taken at once.  Any other is forced in:
        its edge-vertices and a copy of each end leave the gadget, and one
        augmenting path from an edge-vertex freed there must restore the
        maximum, or the matching is put back.
        """
        mate, dead = self.mate, self.dead
        et, eh = 2 * k, 2 * k + 1
        if mate[et] != eh:
            for x in (et, eh, mate[et], mate[eh]):
                dead[x] = 1
            return True
        ct = _free_copy_first(self.copies[t], mate, dead)
        ch = _free_copy_first(self.copies[h], mate, dead)
        if ct is None or ch is None:
            return False
        # ct and ch leave with arc k, so the arcs holding them lose that
        # end; what is left is at most one short of the new maximum, and
        # any augmenting path starts at an edge-vertex freed here
        freed = [(mate[c], c) for c in (ct, ch) if mate[c] != -1]
        for x in (et, eh, ct, ch):
            dead[x] = 1
        for e, _ in freed:
            mate[e] = -1
        if len(freed) == 2:
            for e, _ in freed:
                self.examined += 1
                if _augment(self.adj, mate, dead, e):
                    break
            else:
                for e, c in freed:
                    mate[e] = c
                for x in (et, eh, ct, ch):
                    dead[x] = 0
                return False
        for e, _ in freed:
            if mate[e] == -1:
                # drop the arc that kept only its other end, freeing that copy
                mate[mate[e ^ 1]] = -1
                mate[e], mate[e ^ 1] = e ^ 1, e
        return True


def solve_exact(web: Web) -> SolveResult:
    """Exact grog number as a maximum b-matching with b(v) = v.

    grog = n(n+1)/2 - 2 * max_predations, the size of the core's maximum
    b-matching.  The witness plays, one arc per batch, the
    lexicographically least maximum b-matching in ascending arc order:
    the core is offered each arc in turn, and takes it when a maximum
    b-matching holds it with every arc taken before.  `states_explored`
    counts the matchings the core examined.
    """
    arcs = web.digraph.arcs
    core = _BMatching(web.n, arcs, range(web.n + 1))
    max_pred = core.size
    take = core.take
    witness = [PredationBatch(t, (h,)) for k, (t, h) in enumerate(arcs) if take(k, t, h)]
    return SolveResult(
        grog=web.total_population - 2 * max_pred,
        witness=tuple(witness),
        max_predations=max_pred,
        states_explored=core.examined,
    )


def enumerate_greedy(web: Web, cap: int = GREEDY_ARC_CAP) -> GreedyResult:
    """Count greedy strategies and return their minimum residual.

    A greedy strategy repeatedly picks a vertex with at least one legal
    out-arc and predates consecutively along the maximal legal number of
    them, L = min(population, legal out-arcs).  Strategies are counted
    as distinct ordered strings of single predator arcs, so a block
    contributes a factor of L! for its internal orders and one branch
    per choice of WHICH L arcs when the population is the binding limit.
    A predator's population never recovers, so blocks have pairwise
    distinct predators and the string determines the block structure.

    The web splits into independent parts.  A vertex v that is not
    tight (deg v <= v) has population v - consumed >= its remaining
    arcs, so it is positive while it holds an arc, and as a tail its
    block takes all its legal out-arcs.  Joining each tail to the tight
    heads of its out-arcs thus splits the arcs, grouped by tail, into
    parts whose moves never change one another's legal arcs or block
    sizes, and the web's greedy strings are the interleavings of the
    parts' strings with each block kept whole.  Parts of B_1 and B_2
    blocks interleave in C(B_1+B_2, B_1) ways, so each part is counted
    by block count: its walk multiplies by L! << W per block, with
    W = bit_length(3 * |part|!) above any count, and returns the strings
    of B blocks at bits B * W.  A web of one part walks with W = 0.  The
    most arcs consumed is the sum over the parts.

    Each part's walk runs over masks of its remaining arcs, with an
    incidence and an out-arc mask per vertex.  Only a tight vertex can
    run out of population or bind a block, so only those populations are
    computed; clearing the incidence masks of the tight vertices at
    population 0 leaves the legal arcs.  The walk is memoised on the live
    subgame, the legal arcs plus the populations of the tight vertices
    that still meet one: an arc that loses an endpoint to population 0
    never becomes legal again, and a tight vertex with no legal arc left
    is never touched again.  A second dict maps each mask walked to its
    result, so a repeated child costs one lookup.
    """
    arcs = web.digraph.arcs
    eps = len(arcs)
    if eps > cap:
        raise CapExceeded(f"{eps} arcs exceed the greedy cap {cap}")
    n = web.n
    inc = [0] * (n + 1)
    out = [0] * (n + 1)
    for k, (t, h) in enumerate(arcs):
        inc[t] |= 1 << k
        inc[h] |= 1 << k
        out[t] |= 1 << k
    tight = [(v, inc[v]) for v in range(1, n + 1) if inc[v].bit_count() > v]
    tails = [(t, out[t]) for t in range(1, n + 1) if out[t]]
    fact = [factorial(k) for k in range(eps + 1)]
    part_of = list(range(n + 1))
    for t, h in arcs:
        if inc[h].bit_count() > h:
            a, b = part_of[t], part_of[h]
            part_of = [a if p == b else p for p in part_of]
    parts: dict[int, int] = {}
    for t, mine in tails:
        parts[part_of[t]] = parts.get(part_of[t], 0) | mine
    graded = [1]
    most = 0
    for part in parts.values():
        w = (3 * fact[part.bit_count()]).bit_length() if len(parts) > 1 else 0
        mine = [x for x in tails if x[1] & part]
        packed, sub_most = _greedy_walk(part, part, [x for x in tight if x[1] & part], mine,
                                        [f << w for f in fact], {}, {})
        most += sub_most
        counts = [packed >> (b * w) & ((1 << w) - 1) for b in range(len(mine) + 1)] if w else [packed]
        merged = [0] * (len(graded) + len(counts) - 1)
        for i, x in enumerate(graded):
            for j, y in enumerate(counts):
                merged[i + j] += x * y * comb(i + j, i)
        graded = merged
    return GreedyResult(count=sum(graded), min_residual=web.total_population - 2 * most)


def _greedy_walk(mask: int, full: int, tight, tails, fact, memo, seen) -> tuple[int, int]:
    """(count, most further arcs consumed) of the greedy strategies from `mask`.

    The caller found `mask` missing from `seen`.  `full` holds the arcs
    of one part, `tight` (v, incidence mask) of its vertices that meet
    more arcs than their label, `tails` (t, out-arc mask) of its tails
    and `fact` the factorials, each shifted left by the part's grading
    width.  Within the part, `memo` maps each expanded live subgame to
    its result and `seen` each mask walked.
    """
    used = full ^ mask
    dead = 0
    live = []
    for v, at in tight:
        p = v - (used & at).bit_count()
        if p < 1:
            dead |= at
        else:
            live.append((v, p, at))
    legal = mask & ~dead
    if not legal:
        seen[mask] = 1, 0
        return 1, 0
    pop = {v: p for v, p, at in live if at & legal}
    key = legal, *pop.values()
    result = memo.get(key)
    if result is not None:
        seen[mask] = result
        return result
    count = 0
    most = 0
    for t, mine in tails:
        mine &= legal
        if not mine:
            continue
        size = mine.bit_count()
        ell = pop.get(t, size)
        if ell >= size:
            ell = size
            choices = (mine,)
        else:
            bits = []
            while mine:
                low = mine & -mine
                bits.append(low)
                mine ^= low
            choices = map(sum, combinations(bits, ell))
        mult = fact[ell]
        for chosen in choices:
            child = mask ^ chosen
            sub_count, sub_most = seen.get(child) or _greedy_walk(
                child, full, tight, tails, fact, memo, seen)
            count += sub_count * mult
            if sub_most + ell > most:
                most = sub_most + ell
    seen[mask] = memo[key] = count, most
    return count, most


# ---------------------------------------------------------------------------
# JSON forms
# ---------------------------------------------------------------------------

def strategy_to_json(strategy: Strategy) -> list:
    return [
        {"predator": b.predator, "prey": sorted(b.prey)}
        for b in strategy
    ]


def strategy_from_json(obj) -> Strategy:
    if not isinstance(obj, list):
        raise GraphError('strategy JSON must be [{"predator": <int>, "prey": [...]}, ...]')
    batches = []
    for item in obj:
        # vertices are exactly int, as in graph files: bool is an int subclass
        if (
            not isinstance(item, dict) or "predator" not in item or "prey" not in item
            or type(item["predator"]) is not int or type(item["prey"]) is not list
            or any(type(v) is not int for v in item["prey"])
        ):
            raise GraphError(f"bad strategy entry: {item!r}")
        batches.append(PredationBatch(item["predator"], item["prey"]))
    return tuple(batches)


def run_result_to_json(r: RunResult) -> dict:
    return {
        "residual": r.residual,
        "predation_count": r.predation_count,
        "used_arcs": [list(a) for a in sorted(r.used_arcs)],
        "population": list(r.final_state.pop),
    }


def solve_result_to_json(r: SolveResult, include_witness: bool = True) -> dict:
    obj = {
        "grog": r.grog,
        "max_predations": r.max_predations,
        "states_explored": r.states_explored,
    }
    if include_witness:
        obj["witness"] = strategy_to_json(r.witness)
    return obj
