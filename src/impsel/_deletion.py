"""Iterated-deletion core shared by the threshold mechanisms.

``run_deletion`` and ``select_top`` are the per-graph rules: they run on one
graph and on a degree sequence, vertex v's degree at index v-1.
``run_deletion`` sweeps a bucket queue of remaining indegrees, so past the O(n)
degree count it is linear in the deleted vertices' edges up to one sort per level.

The numpy block versions (``*_rows``) run the same rules on a block of B
graphs at once, in one layout ``(cols, choice, deg)`` that only
``outset_block`` builds, once per block.  ``cols``, shape (n+1, M+1), has
``cols[u, i]`` 1 when u is in out-set i, row 0 zero, and holds a group of
columns per vertex v in vertex order (rows of vertex n's out-sets moved to v),
then the empty out-set.  Graph b gives v the out-set in column
``choice[b, v-1]``, the group's first column plus b's pick in the group, in
the smallest type indexing the columns.  ``deg`` is the (n+1, B) sum over
the choice, row 0 zero, in the table's dtype: vertex-major, so a reduction
across the vertices runs elementwise over the B graphs.  Both rules pick the
greatest-index vertex of largest degree with one max per step over the key
degree*(n+1) + vertex, which orders by degree and then by index; a deletion
step sends graphs already done to the empty out-set column instead of
selecting the graphs still running.  Results equal the per-graph functions',
the reference the tests compare against.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Sequence

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


def outset_block(last: np.ndarray, rows: Sequence[Any], picks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The block (cols, choice, deg) of B graphs: vertex v's group holds the
    rows ``last[rows[v-1]]`` of vertex n's out-sets, moved to v, and graph b
    picks ``picks[b, v-1]`` of them.  v's out-sets are n's with every member
    >= v moved up by one, a monotone map that keeps the documented order:
    entries at v..n-1 move to v+1..n, and v takes the entry at n, which is 0."""
    groups = [last[held] for held in rows]
    parts = [np.concatenate([g[:, :v], g[:, -1:], g[:, v:-1]], axis=1) for v, g in enumerate(groups, start=1)]
    parts.append(np.zeros((1, last.shape[1]), last.dtype))
    cols = np.ascontiguousarray(np.concatenate(parts).T)
    kind = np.min_scalar_type(cols.shape[1] - 1)
    choice = (picks + np.cumsum([0, *map(len, groups[:-1])], dtype=kind)).astype(kind, copy=False)
    deg = np.zeros((len(cols), len(choice)), cols.dtype)
    for v in range(choice.shape[1]):
        deg += np.take(cols, choice[:, v], axis=1)
    return cols, choice, deg


def _key_dtype(n: int) -> np.dtype:
    """Smallest signed type holding every key of ``run_deletion_rows`` and
    ``select_top_rows``: they lie in [-(n+1)**2, n*(n+1) - 1]."""
    return np.min_scalar_type(-((n + 1) ** 2))


def run_deletion_rows(t: int, cols: np.ndarray, choice: np.ndarray, deg: np.ndarray) -> np.ndarray:
    """(n+1, B) final remaining indegrees of ``run_deletion`` on every graph
    of the block, whose indegrees are `deg`, row 0 zero, in the table's dtype.

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
    step = cols.astype(kind) * kind.type(base)
    key = deg.astype(kind) * kind.type(base) + np.arange(base, dtype=kind)[:, None]
    key[0] = -(base**2)
    flat, first, empty = choice.ravel(), np.arange(size) * n - 1, cols.shape[1] - 1
    while True:
        top = key.max(axis=0)
        live = top >= t * base
        if not live.any():
            final = key // base  # final - (n+1) on deleted vertices
            return (final + (final < 0) * kind.type(base)).astype(cols.dtype)
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
