"""Finite Jaco graphs J_n(1) and their Jaconian vertex.

The infinite construction puts an arc (v_i, v_j), i < j, exactly when
2i - d^-(v_i) >= j, where d^-(v_i) is the in-degree v_i has accumulated.
Processing heads j in increasing order makes this well defined: all arcs
into v_i have head i, so d^-(v_i) is final before v_i is ever consulted
as a tail.  The order-n graph is obtained by lobbing off every vertex
above n together with the arcs into it, which is the same as stopping
the iteration at j = n.  Consequently the order-n graph is a prefix of
the order-(n + 1) graph, and one table of order n holds every order up
to n: jaco_table(n) lists the in-degree d^-(v_i) and the unclamped reach
B_i = 2i - d^-(v_i) of each v_i, and J_m(1), m <= n, is its first m rows.
Likewise JacoGraph.prefix(m) cuts J_m(1) out of a built J_n(1) without
building it: each tail's run of arcs ends at min(m, B_i), so J_m's arcs
are slices of J_n's arc tuple, and a sweep over orders builds one graph.

Out-neighbors of a tail in J_m(1) are a consecutive run i+1 .. min(m, B_i),
a fact the competition closed form relies on.  build_jaco emits each run
with one extend over a slice of a single list of vertex ints, so all
arcs at v_j hold the same int object: CPython caches ints only up to
256, and one new int per arc would be about a quarter of J_3000's
memory.  jaco_table keeps the in-degrees as a difference array: a run
i+1 .. top adds one at i+1 and removes it after top, and the running
sum is d^-(v_i) by the time tail i reads it.

The Jaconian vertex v_i of J_m(1) is recovered from the extension step:
going to order m + 1 adds exactly the arcs (v_{i+1}, v_{m+1}) through
(v_m, v_{m+1}), so i = m - d^-(v_{m+1}), and that in-degree counts the
tails t <= m with B_t > m.  check_jaconian reads it off the table and
checks the construction: i + d^+(v_i) = min(m, B_i) must be m or m - 1.
Lemma 2.9's 2i - m >= 0 is decided by the lemma-2.9 claim.
"""

from __future__ import annotations

from itertools import accumulate, chain, repeat
from typing import NamedTuple

from .graphs import CapExceeded, Digraph, GraphError, digraph_to_json

JACO_ORDER_CAP = 10_000


class JacoGraph(NamedTuple):
    """J_n(1) plus its degree tables and Jaconian vertex.

    in_deg / out_deg are 1-indexed via position i - 1.  jaconian is None
    for n = 1, where the extension rule has nothing to say.
    """

    n: int
    digraph: Digraph
    in_deg: tuple[int, ...]
    out_deg: tuple[int, ...]
    jaconian: int | None

    def prefix(self, m: int) -> JacoGraph:
        """J_m(1), 1 <= m <= n: this graph with v_{m+1} .. v_n cut away.

        Each tail's run of arcs is sliced to end at min(m, B_i), so the arc
        tuples are this graph's own and none is allocated.  In-degrees up
        to v_m are final here, so they give the reaches B_i = 2i - d^-(v_i)
        of a table of order n, which check_jaconian reads at order m.
        """
        if type(m) is not int or not 1 <= m <= self.n:
            raise GraphError(f"prefix order must be in 1..{self.n}, got {m!r}")
        in_deg = self.in_deg[:m]
        reach = [2 * i - d for i, d in enumerate(in_deg, 1)]
        out_deg = tuple(min(m, b) - i for i, b in enumerate(reach, 1))
        arcs = self.digraph.arcs
        starts = accumulate(self.out_deg, initial=0)
        runs = [arcs[s:s + d] for s, d in zip(starts, out_deg)]
        jaconian = check_jaconian((in_deg, reach), m) if m >= 2 else None
        return JacoGraph(m, Digraph(m, tuple(chain.from_iterable(runs))), in_deg, out_deg, jaconian)


def jaco_table(n: int) -> tuple[list[int], list[int]]:
    """(in-degrees d^-(v_i), reaches B_i) of v_1 .. v_n, 1-indexed via
    position i - 1, in O(1) Python steps per vertex.

    In-degrees are complete before they are read because arcs only point
    upward.  Orders above JACO_ORDER_CAP raise CapExceeded.
    """
    if type(n) is not int or n < 1:
        raise GraphError(f"Jaco graph order must be a positive integer, got {n!r}")
    if n > JACO_ORDER_CAP:
        raise CapExceeded(f"Jaco order {n} exceeds the cap {JACO_ORDER_CAP}")

    step = [0] * (n + 2)  # difference array of the in-degrees
    in_deg, reach = [], []
    running = 0
    for i in range(1, n + 1):
        running += step[i]
        in_deg.append(running)
        reach.append(2 * i - running)
        step[i + 1] += 1
        step[min(n, 2 * i - running) + 1] -= 1
    return in_deg, reach


def build_jaco(n: int) -> JacoGraph:
    """Construct J_n(1) from its table, linear in the arc count: each tail
    i emits the arcs (i, i+1) .. (i, min(n, B_i)) in one extend."""
    table = in_deg, reach = jaco_table(n)
    vertices = list(range(n + 1))  # one int per vertex, shared by all its arcs
    arcs: list[tuple[int, int]] = []
    for i, b in zip(vertices[1:], reach):
        arcs.extend(zip(repeat(i), vertices[i + 1:min(n, b) + 1]))
    out_deg = tuple(min(n, b) - i for i, b in enumerate(reach, 1))
    jaconian = check_jaconian(table, n) if n >= 2 else None
    return JacoGraph(n, Digraph(n, tuple(arcs)), tuple(in_deg), out_deg, jaconian)


def jaconian_vertex(n: int) -> int:
    """Index i of the Jaconian vertex of J_n(1), n >= 2, construction-checked
    by check_jaconian (the lemma-2.9 claim decides 2i - n >= 0)."""
    if type(n) is not int or n < 2:
        raise GraphError(f"Jaconian vertex needs n >= 2, got {n!r}")
    return check_jaconian(jaco_table(n), n)


def check_jaconian(table: tuple[list[int], list[int]], n: int) -> int:
    """The Jaconian vertex of J_n(1), read off a table of order n or more
    after checking it.

    Raises RuntimeError unless i + d^+(v_i) is n - 1 or n, which would
    signal a bug in jaco_table rather than bad input.  Lemma 2.9's
    2i - n >= 0 is not checked: the lemma-2.9 claim decides and reports it.
    """
    reach = table[1]
    if not 2 <= n <= len(reach):
        raise GraphError(f"Jaconian vertex needs 2 <= n <= {len(reach)}, got {n!r}")
    i = n - sum(b > n for b in reach[:n])
    top = min(n, reach[i - 1])
    if top not in (n - 1, n):
        raise RuntimeError(
            f"Jaconian invariant broken at n={n}: i + d+(v_i) = {top}, expected {n - 1} or {n}"
        )
    return i


def max_degree_vertex(table: tuple[list[int], list[int]], n: int) -> int:
    """The least vertex of maximum total degree d^-(v_j) + min(n, B_j) - j
    in J_n(1), n <= the table's order.

    Kept alongside jaconian for cross-checking: the two notions agree for
    every order checked so far, and the verification report records any
    order where they differ.  Raises GraphError unless 1 <= n <= the table's order.
    """
    if not 1 <= n <= len(table[1]):
        raise GraphError(f"max-degree vertex needs 1 <= n <= {len(table[1])}, got {n!r}")
    deg = [d + min(n, b) - j for j, d, b in zip(range(1, n + 1), *table)]
    return deg.index(max(deg)) + 1


def jaco_to_json(jg: JacoGraph) -> dict:
    obj = digraph_to_json(jg.digraph)
    obj["jaconian"] = jg.jaconian
    return obj
