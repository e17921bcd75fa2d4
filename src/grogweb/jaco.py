"""Finite Jaco graphs J_n(1) and their Jaconian vertex.

The infinite construction puts an arc (v_i, v_j), i < j, exactly when
2i - d^-(v_i) >= j, where d^-(v_i) is the in-degree v_i has accumulated.
Processing heads j in increasing order makes this well defined: all arcs
into v_i have head i, so d^-(v_i) is final before v_i is ever consulted
as a tail.  The order-n graph is obtained by lobbing off every vertex
above n together with the arcs into it, which is the same as stopping
the iteration at j = n.  Consequently the order-n graph is a prefix of
the order-(n + 1) graph.

Out-neighbors of a tail are a consecutive run i+1 .. 2i - d^-(v_i), a
fact the competition closed form relies on.  build_jaco emits each run
with one extend over a slice of a single list of vertex ints, so all
arcs at v_j hold the same int object: CPython caches ints only up to
256, and one new int per arc would be about a quarter of J_3000's
memory.  It keeps the in-degrees as a difference array: a run
i+1 .. top adds one at i+1 and removes it after top, and the running
sum is d^-(v_i) by the time tail i reads it.

The Jaconian vertex v_i of J_n(1) is recovered from the extension step:
going to order n + 1 adds exactly the arcs (v_{i+1}, v_{n+1}) through
(v_n, v_{n+1}), so i = n - d^-(v_{n+1}) where the in-degree is taken in
J_{n+1}(1).  Construction sanity is checked on every query, by
check_jaconian on an already-built graph: i + d^+(v_i) must be n or
n - 1.  Lemma 2.9's 2i - n >= 0 is decided by the lemma-2.9 claim.
"""

from __future__ import annotations

from itertools import repeat
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


def build_jaco(n: int) -> JacoGraph:
    """Construct J_n(1) iteratively.

    Linear in the arc count with O(1) Python steps per tail: each tail i
    emits the consecutive arcs (i, i+1) .. (i, min(n, 2i - d^-(v_i))) in
    one extend, and in-degrees are complete before they are read because
    arcs only point upward.  Orders above JACO_ORDER_CAP raise CapExceeded.
    """
    if type(n) is not int or n < 1:
        raise GraphError(f"Jaco graph order must be a positive integer, got {n!r}")
    if n > JACO_ORDER_CAP:
        raise CapExceeded(f"Jaco order {n} exceeds the cap {JACO_ORDER_CAP}")

    step = [0] * (n + 2)  # difference array of the in-degrees
    dminus = [0] * (n + 1)
    dplus = [0] * (n + 1)
    vertices = list(range(n + 1))  # one int per vertex, shared by all its arcs
    arcs: list[tuple[int, int]] = []
    running = 0
    for i in vertices[1:]:
        running += step[i]
        dminus[i] = running
        top = min(n, 2 * i - running)
        if top > i:
            arcs.extend(zip(repeat(i), vertices[i + 1:top + 1]))
            step[i + 1] += 1
            step[top + 1] -= 1
            dplus[i] = top - i

    if n >= 2:
        # in-degree v_{n+1} would have, without materializing it
        into_next = sum(1 for i in range(1, n + 1) if 2 * i - dminus[i] >= n + 1)
        jaconian = n - into_next
    else:
        jaconian = None

    return JacoGraph(
        n=n,
        digraph=Digraph(n, tuple(arcs)),
        in_deg=tuple(dminus[1:]),
        out_deg=tuple(dplus[1:]),
        jaconian=jaconian,
    )


def jaconian_vertex(n: int) -> int:
    """Index i of the Jaconian vertex of J_n(1), n >= 2, construction-checked
    by check_jaconian (the lemma-2.9 claim decides 2i - n >= 0)."""
    if type(n) is not int or n < 2:
        raise GraphError(f"Jaconian vertex needs n >= 2, got {n!r}")
    return check_jaconian(build_jaco(n))


def check_jaconian(jg: JacoGraph) -> int:
    """The Jaconian vertex of a built J_n(1), n >= 2, after checking it.

    Raises RuntimeError unless i + d^+(v_i) is n - 1 or n, which would
    signal a bug in build_jaco rather than bad input.  Lemma 2.9's
    2i - n >= 0 is not checked: the lemma-2.9 claim decides and reports it.
    """
    n, i = jg.n, jg.jaconian
    if i is None:
        raise GraphError(f"Jaconian vertex needs n >= 2, got {n!r}")
    reach = i + jg.out_deg[i - 1]
    if reach not in (n - 1, n):
        raise RuntimeError(
            f"Jaconian invariant broken at n={n}: i + d+(v_i) = {reach}, expected {n - 1} or {n}"
        )
    return i


def max_degree_vertices(jg: JacoGraph) -> tuple[int, ...]:
    """Vertices of maximum total degree, ascending.

    Kept alongside jaconian for cross-checking: the two notions agree on
    the smallest max-degree index for every order checked so far, and
    the verification report records any order where they differ.
    """
    deg = [jg.in_deg[k] + jg.out_deg[k] for k in range(jg.n)]
    top = max(deg)
    return tuple(i + 1 for i, d in enumerate(deg) if d == top)


def jaco_to_json(jg: JacoGraph) -> dict:
    obj = digraph_to_json(jg.digraph)
    obj["jaconian"] = jg.jaconian
    return obj
