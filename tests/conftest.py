"""Shared test data and independent oracles.

The oracles deliberately avoid the implementation's search shortcuts:
they explore full move sequences or arc subsets and recompute structures
from their defining conditions, so agreement with the library is
meaningful.
"""

from __future__ import annotations

import itertools
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from grogweb.engine import (
    PredationBatch,
    Strategy,
    Web,
    apply_batch,
    new_state,
    solve_exact,
)
from grogweb.graphs import Digraph

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(*args, timeout=300, **kwargs):
    """Run `python -m grogweb ARGS` in a child that imports this checkout's src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "grogweb", *args],
        capture_output=True, text=True, timeout=timeout, env=env, **kwargs,
    )


# The twelve distinct webs of the 3-vertex path, as (item, arc set,
# grog number).  Every item has exactly 2 greedy strategies.
EXAMPLE1_WEBS = [
    (1, {(1, 2), (2, 3)}, 2),
    (2, {(1, 2), (3, 2)}, 2),
    (3, {(2, 1), (2, 3)}, 2),
    (4, {(1, 3), (3, 2)}, 2),
    (5, {(1, 3), (2, 3)}, 2),
    (6, {(3, 1), (3, 2)}, 2),
    (7, {(2, 1), (1, 3)}, 4),
    (8, {(2, 1), (3, 1)}, 4),
    (9, {(1, 2), (1, 3)}, 4),
    (10, {(2, 3), (3, 1)}, 2),
    (11, {(3, 1), (1, 2)}, 4),
    (12, {(3, 2), (2, 1)}, 2),
]


def oracle_legal_predations(state) -> set[tuple[int, int]]:
    """Remaining arcs whose both endpoints have population >= 1, by the
    literal scan over the remaining arcs."""
    pop = state.pop
    return {(t, h) for t, h in state.remaining if pop[t - 1] >= 1 and pop[h - 1] >= 1}


def oracle_grog(web: Web) -> int:
    """Minimum residual by plain DFS over ALL legal single-predation
    sequences; exponential and memo-free on purpose."""
    total = web.total_population
    best = [total]

    def rec(remaining: frozenset, pops: tuple) -> None:
        legal = [(t, h) for t, h in remaining if pops[t - 1] >= 1 and pops[h - 1] >= 1]
        if not legal:
            best[0] = min(best[0], sum(pops))
            return
        for t, h in legal:
            np = list(pops)
            np[t - 1] -= 1
            np[h - 1] -= 1
            rec(remaining - {(t, h)}, tuple(np))

    rec(frozenset(web.digraph.arcs), web.populations)
    return best[0]


def oracle_solve(web: Web) -> tuple[int, Strategy]:
    """(max predations, witness) by memoized search over remaining-arc
    bitmasks, exponential in the arc count.

    The value of a state is the maximum number of further single
    predations.  The witness takes, at every step, the smallest legal
    arc (arcs are sorted) that keeps that maximum reachable.
    """
    arcs = web.digraph.arcs
    if len(arcs) > 16:
        raise ValueError(f"{len(arcs)} arcs: the memo oracle stops at 16")
    eps = len(arcs)
    full = (1 << eps) - 1
    inc = [0] * (web.n + 1)
    for k, (t, h) in enumerate(arcs):
        inc[t] |= 1 << k
        inc[h] |= 1 << k
    memo: dict[int, int] = {}

    def legal(mask: int, k: int) -> bool:
        used = full ^ mask
        t, h = arcs[k]
        return t - (used & inc[t]).bit_count() >= 1 and h - (used & inc[h]).bit_count() >= 1

    def best(mask: int) -> int:
        if mask not in memo:
            memo[mask] = max(
                (1 + best(mask ^ (1 << k))
                 for k in range(eps) if mask >> k & 1 and legal(mask, k)),
                default=0,
            )
        return memo[mask]

    witness = []
    mask = full
    while best(mask):
        k = next(
            k for k in range(eps)
            if mask >> k & 1 and legal(mask, k) and best(mask ^ (1 << k)) == best(mask) - 1
        )
        witness.append(PredationBatch(arcs[k][0], (arcs[k][1],)))
        mask ^= 1 << k
    return best(full), tuple(witness)


def oracle_b_matching(n: int, arcs, b) -> int:
    """Size of the largest subset of `arcs` (on vertices 0..n) in which
    every vertex v meets at most b[v] arcs, by brute force over the
    subsets, largest first."""
    for size in range(len(arcs), 0, -1):
        for subset in itertools.combinations(arcs, size):
            meets = [0] * (n + 1)
            for t, h in subset:
                meets[t] += 1
                meets[h] += 1
            if all(m <= c for m, c in zip(meets, b)):
                return size
    return 0


def oracle_greedy(web: Web) -> tuple[int, int]:
    """(count, min residual) over greedy strategies by literally walking
    every ordered predator-arc string, one arc at a time."""
    count = 0
    best = None

    def rec(state) -> None:
        nonlocal count, best
        legal = sorted(oracle_legal_predations(state))
        if not legal:
            count += 1
            residual = sum(state.pop)
            best = residual if best is None else min(best, residual)
            return
        for t in sorted({tail for tail, _ in legal}):
            mine = [h for tail, h in legal if tail == t]
            ell = min(state.population(t), len(mine))
            for ordered in itertools.permutations(mine, ell):
                nxt = state
                for h in ordered:
                    nxt = apply_batch(nxt, PredationBatch(t, (h,)))
                rec(nxt)

    rec(new_state(web))
    return count, best


def oracle_greedy_masks(web: Web) -> tuple[int, int]:
    """(count, min residual) over greedy strategies by a walk memoised on
    the mask of remaining arcs, so it reaches webs of 8-16 arcs.

    A mask's populations are the labels minus the consumed arcs at each
    vertex, its legal arcs the remaining arcs with both ends positive.
    Each tail t with legal out-arcs takes L = min(pop t, its legal
    out-arcs) of them, one branch per choice of which L arcs, each worth
    L! orders.  Terminal masks are not memoised.
    """
    arcs = web.digraph.arcs
    full = (1 << len(arcs)) - 1
    inc = [0] * (web.n + 1)
    for k, (t, h) in enumerate(arcs):
        inc[t] |= 1 << k
        inc[h] |= 1 << k
    memo: dict[int, tuple[int, int]] = {}

    def walk(mask: int) -> tuple[int, int]:
        if mask in memo:
            return memo[mask]
        used = full ^ mask
        pop = [v - (used & inc[v]).bit_count() for v in range(web.n + 1)]
        legal = [k for k in range(len(arcs))
                 if mask >> k & 1 and pop[arcs[k][0]] > 0 and pop[arcs[k][1]] > 0]
        if not legal:
            return 1, web.total_population - 2 * used.bit_count()
        count, best = 0, web.total_population
        for t in sorted({arcs[k][0] for k in legal}):
            mine = [k for k in legal if arcs[k][0] == t]
            ell = min(pop[t], len(mine))
            for chosen in itertools.combinations(mine, ell):
                sub_count, sub_best = walk(mask ^ sum(1 << k for k in chosen))
                count += sub_count * math.factorial(ell)
                best = min(best, sub_best)
        memo[mask] = count, best
        return count, best

    return walk(full)


def oracle_random_maximal_strategy(web: Web, rng) -> Strategy:
    """A random maximal strategy by the draw loop the harness first used.

    Each step picks a predator uniformly among the tails of the legal
    arcs, then a uniform batch size up to what it may take, then that
    many of its legal prey.  The batch is charged inline, with no legality
    check, since it is legal by construction.
    """
    pop = list(web.populations)
    remaining = set(web.digraph.arcs)
    legal = list(web.digraph.arcs)
    batches = []
    while True:
        legal = [(t, h) for t, h in legal if (t, h) in remaining and pop[t - 1] and pop[h - 1]]
        if not legal:
            return tuple(batches)
        pred = rng.choice(list(dict.fromkeys(t for t, _ in legal)))
        mine = [h for t, h in legal if t == pred]
        ell = rng.randint(1, min(pop[pred - 1], len(mine)))
        prey = rng.sample(mine, ell)
        pop[pred - 1] -= ell
        for h in prey:
            pop[h - 1] -= 1
            remaining.discard((pred, h))
        batches.append(PredationBatch(pred, prey))


def oracle_graph_values(g):
    """(min grog, witness web, witness strategy, histogram) of base graph g
    by one exact solve per labelled edge set over all n! indexings.

    Indexings are walked in lexicographic order; each new labelled edge
    set is solved on its mask-0 web (arc (label of p, label of q) for each
    base edge p < q).  The witness is the first edge set that attains the
    minimum, and the histogram counts the 2^eps webs of every edge set.
    """
    solved = {}
    for labels in itertools.permutations(range(1, g.n + 1)):
        arcs = [(labels[p - 1], labels[q - 1]) for p, q in g.edges]
        key = tuple(sorted((min(a, b), max(a, b)) for a, b in arcs))
        if key not in solved:
            web = Web(Digraph(g.n, tuple(sorted(arcs))))
            solved[key] = (web, solve_exact(web))
    web, best = min(solved.values(), key=lambda pair: pair[1].grog)
    counts = Counter(result.grog for _, result in solved.values())
    hist = {grog: count << len(g.edges) for grog, count in sorted(counts.items())}
    return best.grog, web, best.witness, hist


def oracle_webs(g, dedup: bool) -> list[Web]:
    """Every web of base graph g in stream order, by the per-web mask loop.

    Indexings in lexicographic order; for each, direction masks in binary
    counting order, where a set bit k reverses base edge k (edges sorted;
    a clear bit keeps the arc (label of p, label of q)).  With dedup, each
    arc set is kept at its first occurrence, checked web by web.
    """
    seen = set()
    webs = []
    for labels in itertools.permutations(range(1, g.n + 1)):
        for mask in range(2 ** len(g.edges)):
            arcs = []
            for k, (p, q) in enumerate(g.edges):
                a, b = labels[p - 1], labels[q - 1]
                arcs.append((b, a) if mask >> k & 1 else (a, b))
            key = tuple(sorted(arcs))
            if dedup and key in seen:
                continue
            seen.add(key)
            webs.append(Web(Digraph(g.n, key)))
    return webs


def oracle_automorphism_count(g) -> int:
    """|Aut(g)| by checking every one of the n! vertex permutations."""
    edges = set(g.edges)
    return sum(
        {tuple(sorted((perm[u - 1], perm[v - 1]))) for u, v in edges} == edges
        for perm in itertools.permutations(range(1, g.n + 1))
    )


def oracle_competition_edges(d) -> set[tuple[int, int]]:
    """Competition edges by the literal triple scan over (u, w, z)."""
    edges = set()
    arcs = set(d.arcs)
    for u in range(1, d.n + 1):
        for w in range(u + 1, d.n + 1):
            for z in range(1, d.n + 1):
                if (u, z) in arcs and (w, z) in arcs:
                    edges.add((u, w))
                    break
    return edges


def oracle_isolated(d) -> tuple[int, ...]:
    """Vertices u with no out-neighbor z that any other vertex w also
    preys on, by the literal scan over (z, w)."""
    arcs = set(d.arcs)
    vertices = range(1, d.n + 1)
    return tuple(
        u for u in vertices
        if not any(
            (u, z) in arcs and any((w, z) in arcs for w in vertices if w != u)
            for z in vertices
        )
    )


def oracle_jaco(n: int):
    """J_n(1) head by head, straight from the definition.

    For each head j = 1 .. n + 1 in increasing order, every earlier tail
    i gets the arc (i, j) exactly when 2i - d^-(v_i) >= j, with d^-(v_i)
    the in-degree accumulated so far; tails below j / 2 cannot qualify
    and are not scanned.  Head n + 1 is only counted: its in-degree gives
    the Jaconian vertex n - d^-(v_{n+1}).  Returns (arcs sorted by
    (tail, head), in-degrees, out-degrees, Jaconian).
    """
    dminus = [0] * (n + 2)
    arcs = []
    for j in range(1, n + 2):
        tails = [i for i in range((j + 1) // 2, j) if 2 * i - dminus[i] >= j]
        dminus[j] = len(tails)
        if j <= n:
            arcs.extend((i, j) for i in tails)
    arcs.sort()
    out_deg = [0] * (n + 1)
    for t, _ in arcs:
        out_deg[t] += 1
    jaconian = n - dminus[n + 1] if n >= 2 else None
    return tuple(arcs), tuple(dminus[1:n + 1]), tuple(out_deg[1:]), jaconian


def oracle_theorem_1_1(n: int) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """(edges, isolated) of the Thm 1.1 closed form, read literally, on
    oracle_jaco(n), n >= 5.

    Take the underlying graph of the subgraph induced by v_3 .. v_{n-1};
    for each i = 3 .. n - 2 remove the edge v_i v_{i + d+(v_i)} when
    that vertex lies in v_3 .. v_{n-1}; add v_1, v_2, v_n.  A vertex is
    isolated when no remaining edge meets it.
    """
    arcs, _, out_deg, _ = oracle_jaco(n)
    inside = range(3, n)
    edges = {(min(t, h), max(t, h)) for t, h in arcs if t in inside and h in inside}
    for i in range(3, n - 1):
        far = i + out_deg[i - 1]
        if far in inside:
            edges.discard((min(i, far), max(i, far)))
    touched = {v for edge in edges for v in edge}
    isolated = tuple(v for v in range(1, n + 1) if v not in touched)
    return tuple(sorted(edges)), isolated


def jaco_fixed_point_holds(digraph) -> bool:
    """Check the defining arc condition against in-degrees recomputed
    from the finished arc set: (i, j) present iff 2i - d^-(v_i) >= j."""
    arcs = set(digraph.arcs)
    dminus = [0] * (digraph.n + 1)
    for _, h in arcs:
        dminus[h] += 1
    for i in range(1, digraph.n + 1):
        for j in range(i + 1, digraph.n + 1):
            if ((i, j) in arcs) != (2 * i - dminus[i] >= j):
                return False
    return True


def bent_jaconian_reader(read):
    """`read` (check_jaconian) with J_10 bent to break Lemma 2.9 but no
    construction check: at order 10 it reads a table where v_4 is the
    Jaconian vertex with reach 9, so i + d^+(v_i) = 9 = n - 1 while
    2i - n = -2.  Other orders are read as they are."""

    def bent(table, n):
        if n != 10:
            return read(table, n)
        reach = list(table[1])
        reach[3:6] = [9, 11, 11]  # B_4 = 9; v_5 .. v_10 reach past v_10
        return read((table[0], reach), n)

    return bent


def top_first_builder(build, top: int):
    """`build` (build_jaco or jaco_table) that fails unless its first call
    is for order `top`, so a sweep that would start on its smaller orders
    stops at once."""
    calls = []

    def guarded(n):
        if not calls and n != top:
            raise AssertionError(f"first build is J_{n}, not the top order J_{top}")
        calls.append(n)
        return build(n)

    return guarded


def closed_form_without(closed_form, n: int, edge: tuple[int, int]):
    """`closed_form` (competition._closed_form) with `edge` dropped from the
    competition graph of J_n, so Theorem 1.1 fails at order n only; the
    isolated vertices are left as they are."""

    def bent(jg):
        comp = closed_form(jg)
        if jg.n != n:
            return comp
        edges = tuple(e for e in comp.ugraph.edges if e != edge)
        return comp._replace(ugraph=comp.ugraph._replace(edges=edges))

    return bent
