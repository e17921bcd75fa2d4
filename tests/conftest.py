"""Shared test data and independent oracles.

The oracles deliberately avoid the implementation's search shortcuts:
they explore full move sequences or arc subsets and recompute structures
from their defining conditions, so agreement with the library is
meaningful.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from pathlib import Path

from grogweb.engine import (
    PredationBatch,
    Strategy,
    Web,
    apply_batch,
    legal_predations,
    new_state,
)

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


def oracle_max_consumable(web: Web) -> int:
    """Size of the largest arc subset in which every vertex v meets at
    most v arcs, by brute force over the subsets, largest first."""
    arcs = web.digraph.arcs
    for size in range(len(arcs), 0, -1):
        for subset in itertools.combinations(arcs, size):
            meets = [0] * (web.n + 1)
            for t, h in subset:
                meets[t] += 1
                meets[h] += 1
            if all(meets[v] <= v for v in range(1, web.n + 1)):
                return size
    return 0


def oracle_greedy(web: Web) -> tuple[int, int]:
    """(count, min residual) over greedy strategies by literally walking
    every ordered predator-arc string, one arc at a time."""
    count = 0
    best = None

    def rec(state) -> None:
        nonlocal count, best
        legal = sorted(legal_predations(state))
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
