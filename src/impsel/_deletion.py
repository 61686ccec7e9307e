"""Iterated-deletion core shared by the threshold mechanisms.

``run_deletion`` and ``select_top`` are the per-graph rules: they run on one
graph and on a degree sequence, vertex v's degree at index v-1.
``run_deletion`` sweeps a bucket queue of remaining indegrees, so past the O(n)
degree count it is linear in the deleted vertices' edges up to one sort per level.

The numpy block versions (``*_rows``) run the same rules on a block of B
graphs at once.  A block is a table ``members`` of out-set rows, shape
(M, n+1), where ``members[i, u]`` is 1 when u is in out-set i (column 0 is
always 0), and a choice array of shape (B, n): graph b gives vertex v the
out-set in row ``choice[b, v-1]``.  Degree arrays are vertex-major, shape
(n+1, B) with row 0 zero, in the table's dtype, so a reduction across the
vertices runs elementwise over the B graphs.  Both rules pick the
greatest-index vertex of largest degree, and both do it with one max per
step over the key degree*(n+1) + vertex, which orders by degree and then by
index; a deletion step sends graphs already done to an extra, empty out-set
column instead of selecting the graphs still running.  Results equal the
per-graph functions' on every graph; the per-graph functions are the
reference the tests compare against.
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

    A bucket queue makes this O(n + m) plus one sort per level: bucket c >= t
    gets each undeleted vertex whose remaining indegree reaches c (degrees only
    fall, so no vertex below t is ever queued).  No undeleted vertex sits above
    d (``run_deletion_rows``' invariant), so none joins level d during its
    sweep: d's bucket, greatest index first, minus entries a deletion pushed
    below d, gives the deletions at d.  A deletion reads the vertex's slice of
    the graph's ``targets``.

    Returns (deg, deletions): the final remaining indegrees, vertex v's at
    index v-1, and the ordered per-iteration records (iteration, vertex,
    degree_at_deletion).
    """
    deg, top = list(graph.indegrees), graph.max_indegree
    buckets: list[list[int]] = [[] for _ in range(t, top + 1)]  # bucket c at c - t; index u is vertex u+1
    for u, c in enumerate(deg):
        if c >= t:
            buckets[c - t].append(u)
    offsets, targets = graph.offsets, graph.targets
    deleted: set[int] = set()
    deletions: list[tuple[int, int, int]] = []
    for d in range(top, t - 1, -1):
        for u in sorted(buckets[d - t], reverse=True):
            if deg[u] == d:
                deletions.append((len(deletions), u + 1, d))
                deleted.add(u)
                for w in targets[offsets[u] : offsets[u + 1]].tolist():
                    c = deg[w - 1] = deg[w - 1] - 1
                    if c >= t and w - 1 not in deleted:
                        buckets[c - t].append(w - 1)
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
# block versions: many graphs at once, vertex-major
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


def out_columns(members: np.ndarray) -> np.ndarray:
    """(n+1, M+1) vertex-major copy of the (M, n+1) table: column i is out-set
    row i, and the extra column M is the empty out-set."""
    cols = np.zeros((members.shape[1], len(members) + 1), members.dtype)
    cols[:, :-1] = members.T
    return cols


def _key_dtype(n: int) -> np.dtype:
    """Smallest signed type holding every key of ``run_deletion_rows`` and
    ``select_top_rows``: they lie in [-(n+1)**2, n*(n+1) - 1]."""
    return np.min_scalar_type(-((n + 1) ** 2))


def indegree_rows(members: np.ndarray, choice: np.ndarray) -> np.ndarray:
    """(n+1, B) indegrees of every graph of the block, row 0 zero, in the table's dtype."""
    cols = out_columns(members)
    deg = np.zeros((members.shape[1], len(choice)), members.dtype)
    for v in range(choice.shape[1]):
        deg += np.take(cols, choice[:, v], axis=1)
    return deg


def run_deletion_rows(members: np.ndarray, choice: np.ndarray, t: int) -> np.ndarray:
    """(n+1, B) final remaining indegrees of ``run_deletion`` on every graph
    of the block, row 0 zero, in the table's dtype.

    The scalar sweep keeps one invariant: no undeleted vertex has remaining
    indegree above d.  It holds at the start (d is the maximum indegree),
    deletions only lower degrees, and d steps down only when no undeleted
    vertex sits at d.  So the sweep's next deletion is always at the largest
    undeleted degree, on its greatest-index vertex.  Vertex u of a graph holds
    the key deg*(n+1) + u while undeleted and that minus (n+1)**2 once deleted
    (row 0 counts as deleted), so one max over the vertex axis gives every
    graph's next deletion at once: d = key // (n+1) and v = key % (n+1).
    Graphs with d < t are done and subtract the empty out-set column.  A
    graph still deleting at step k has deleted k-1 vertices, so a block takes
    at most n steps, and a done graph's top vertex may be marked deleted too:
    it is never marked twice, and the mark keeps its degree, which is read
    back as key // (n+1) modulo n+1.
    """
    n, size = choice.shape[1], len(choice)
    base, kind = n + 1, _key_dtype(n)
    step = out_columns(members).astype(kind) * kind.type(base)
    key = indegree_rows(members, choice).astype(kind) * kind.type(base) + np.arange(base, dtype=kind)[:, None]
    key[0] = -(base**2)
    flat, first, empty = choice.ravel(), np.arange(size) * n - 1, len(members)
    while True:
        top = key.max(axis=0)
        live = top >= t * base
        if not live.any():
            deg = key // base  # deg - (n+1) on deleted vertices
            return (deg + (deg < 0) * kind.type(base)).astype(members.dtype)
        v = top - top // base * base
        key -= (key == top) * kind.type(base**2)
        key -= np.take(step, np.where(live, flat[first + v], empty), axis=1)


def select_top_rows(deg: np.ndarray, threshold: int) -> np.ndarray:
    """``select_top`` on every graph of (n+1, B) degrees: selected vertex in
    the degrees' dtype, 0 for none.  One max over the key deg*(n+1) + u of
    the vertices u >= 1 gives each graph's top degree and its greatest-index
    vertex there."""
    base = len(deg)
    kind = _key_dtype(base - 1)
    key = deg[1:].astype(kind) * kind.type(base) + np.arange(1, base, dtype=kind)[:, None]
    top = key.max(axis=0)
    return np.where(top >= threshold * base, top - top // base * base, 0).astype(deg.dtype)
