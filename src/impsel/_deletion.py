"""Iterated-deletion core shared by the threshold mechanisms.

``run_deletion`` and ``select_top`` are the per-graph rules: they run on one
graph and its degree sequence, vertex v's degree at index v-1, as
``DirectedGraph.indegrees`` gives it.  ``run_deletion`` sweeps a bucket queue
of remaining indegrees, so it is linear in n + m up to one sort per level.

The row-wise numpy versions (``*_rows``) run the same rules on a block of
graphs at once, one graph per row.  A block is a table ``members`` of out-set
rows, shape (M, n+1), where ``members[i, u]`` is 1 when u is in out-set i
(column 0 is always 0), and a choice array of shape (B, n): graph b gives
vertex v the out-set in row ``choice[b, v-1]``.  Degree arrays are (B, n+1)
with column 0 unused, in the table's dtype.  Results equal the per-graph
functions' on every row; the per-graph functions are the reference the tests
compare against.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np

from .graphs import DirectedGraph


def run_deletion(graph: DirectedGraph, t: int) -> tuple[list[int], list[tuple[int, int, int]]]:
    """Iteratively delete outgoing edges of vertices with remaining indegree >= t.

    A sweep value d starts at the maximum indegree and decreases only when no
    undeleted vertex sits at remaining indegree exactly d.  Otherwise the
    greatest-index such vertex loses its outgoing edges, decrementing the
    remaining indegree of each of its out-neighbors (deleted or not).

    A bucket queue makes this O(n + m) plus one sort per level: bucket c gets
    each undeleted vertex whose remaining indegree reaches c.  No undeleted
    vertex sits above d (``run_deletion_rows``' invariant), so none joins level
    d during its sweep: d's bucket, greatest index first, minus entries a
    deletion pushed below d, gives the deletions at d.

    Returns (deg, deletions): the final remaining indegrees, vertex v's at
    index v-1, and the ordered per-iteration records (iteration, vertex,
    degree_at_deletion).
    """
    deg = list(graph.indegrees)
    top = max(deg)
    buckets: list[list[int]] = [[] for _ in range(top + 1)]  # index u is vertex u+1
    for u, c in enumerate(deg):
        buckets[c].append(u)
    deleted = [False] * graph.n
    deletions: list[tuple[int, int, int]] = []
    for d in range(top, t - 1, -1):
        for u in sorted(buckets[d], reverse=True):
            if deg[u] == d:
                deletions.append((len(deletions), u + 1, d))
                deleted[u] = True
                for w in graph.out_sets[u]:
                    c = deg[w - 1] = deg[w - 1] - 1
                    if c >= t and not deleted[w - 1]:
                        buckets[c].append(w - 1)
    return deg, deletions


def select_top(deg: Sequence[int], threshold: int) -> int:
    """Greatest-index vertex of maximum degree, if that maximum reaches
    `threshold`; vertex v's degree is deg[v-1].  Returns 0 for no selection."""
    best_v, best_d = 0, deg[0]
    for v, d in enumerate(deg, start=1):
        if d >= best_d:
            best_v, best_d = v, d
    return best_v if best_d >= threshold else 0


# ---------------------------------------------------------------------------
# row-wise numpy versions: one graph per row
# ---------------------------------------------------------------------------


def outset_rows(n: int, outsets: Sequence[Sequence[int]]) -> np.ndarray:
    """(len(outsets), n+1) table: entry [i, u] is 1 when u is in outsets[i].
    Its dtype is the smallest signed type holding every vertex id and -1."""
    rows = np.zeros((len(outsets), n + 1), np.min_scalar_type(-n - 1))
    sizes = [len(outs) for outs in outsets]
    rows[np.repeat(np.arange(len(outsets)), sizes), list(chain.from_iterable(outsets))] = 1
    return rows


def vertex_rows(last: np.ndarray, v: int) -> np.ndarray:
    """Vertex v's out-set rows from vertex n's: v's admissible out-sets are
    n's with every member >= v moved up by one, a monotone map that keeps the
    documented order (row r is v's r-th out-set when row r of `last` is n's)."""
    rows = np.zeros_like(last)
    rows[:, 1:v] = last[:, 1:v]
    rows[:, v + 1 :] = last[:, v:-1]
    return rows


def out_rows(members: np.ndarray, choice: np.ndarray, v: int) -> np.ndarray:
    """(B, n+1) membership rows of vertex v's out-set in every graph of the block."""
    return members[choice[:, v - 1]]


def indegree_rows(members: np.ndarray, choice: np.ndarray) -> np.ndarray:
    deg = np.zeros((len(choice), members.shape[1]), members.dtype)
    for v in range(1, choice.shape[1] + 1):
        deg += out_rows(members, choice, v)
    return deg


def _greatest_vertex(hit: np.ndarray) -> np.ndarray:
    """Per row, the greatest vertex column of the (B, n+1) mask that is set
    (garbage on rows where none is)."""
    n = hit.shape[1] - 1
    return n - np.argmax(hit[:, :0:-1], axis=1)


def run_deletion_rows(members: np.ndarray, choice: np.ndarray, t: int) -> np.ndarray:
    """Final remaining indegrees of ``run_deletion`` on every graph of the block.

    The scalar sweep keeps one invariant: no undeleted vertex has remaining
    indegree above d.  It holds at the start (d is the maximum indegree),
    deletions only lower degrees, and d steps down only when no undeleted
    vertex sits at d.  So the sweep's next deletion is always at the largest
    undeleted degree, and each block step jumps d there and deletes the
    greatest-index undeleted vertex at it, on every row where d >= t.  A row
    deletes each vertex at most once, so a block needs at most n+1 steps.
    """
    deg = indegree_rows(members, choice)
    live = deg.copy()  # remaining indegree of undeleted vertices, negative elsewhere
    live[:, 0] = -1
    while True:
        d = live.max(axis=1)
        rows = np.flatnonzero(d >= t)
        if rows.size == 0:
            return deg
        v = _greatest_vertex(live[rows] == d[rows, None])
        outs = members[choice[rows, v - 1]]
        deg[rows] -= outs
        live[rows] -= outs
        live[rows, v] = -1


def select_top_rows(deg: np.ndarray, threshold: int) -> np.ndarray:
    """``select_top`` on every row: selected vertex in the degrees' dtype, 0 for none."""
    top = deg[:, 1:].max(axis=1)
    v = _greatest_vertex(deg == top[:, None])
    return np.where(top >= threshold, v, 0).astype(deg.dtype)
