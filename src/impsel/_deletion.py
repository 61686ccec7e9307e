"""Iterated-deletion core shared by the threshold mechanisms.

Operates on plain sequences so the audit harness can run it on raw per-vertex
out-tuples without building graph objects.  Vertices are 1..n; degree arrays
are 1-based lists with index 0 unused.
"""

from __future__ import annotations

from typing import Sequence

OutLists = Sequence[Sequence[int]]


def indegree_array(n: int, outs: OutLists) -> list[int]:
    deg = [0] * (n + 1)
    for targets in outs:
        for u in targets:
            deg[u] += 1
    return deg


def run_deletion(n: int, outs: OutLists, t: int) -> tuple[list[int], list[tuple[int, int, int]]]:
    """Iteratively delete outgoing edges of vertices with remaining indegree >= t.

    A sweep value d starts at the maximum indegree and decreases only when no
    undeleted vertex sits at remaining indegree exactly d.  Otherwise the
    greatest-index such vertex loses its outgoing edges, decrementing the
    remaining indegree of each of its out-neighbors (deleted or not).

    Returns (deg, deletions): the final remaining indegrees and the ordered
    per-iteration records (iteration, vertex, degree_at_deletion).
    """
    deg = indegree_array(n, outs)
    d = max(deg)
    deleted = [False] * (n + 1)
    deletions: list[tuple[int, int, int]] = []
    i = 0
    while d >= t:
        v = 0
        for u in range(n, 0, -1):
            if deg[u] == d and not deleted[u]:
                v = u
                break
        if v == 0:
            d -= 1
            continue
        deletions.append((i, v, d))
        deleted[v] = True
        for u in outs[v - 1]:
            deg[u] -= 1
        i += 1
    return deg, deletions


def select_top(n: int, deg: Sequence[int], threshold: int) -> int:
    """Greatest-index vertex of maximum degree, if that maximum reaches `threshold`.

    Returns 0 for no selection.
    """
    best_v, best_d = 1, deg[1]
    for u in range(2, n + 1):
        if deg[u] >= best_d:
            best_v, best_d = u, deg[u]
    return best_v if best_d >= threshold else 0


def twin_select(n: int, outs: OutLists, upper: int, lower: int) -> int:
    """Selected vertex (0 for none) of the twin-threshold rule, without tracing."""
    deg, _ = run_deletion(n, outs, lower)
    return select_top(n, deg, upper)
