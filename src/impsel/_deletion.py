"""Iterated-deletion core shared by the threshold mechanisms.

Operates on plain sequences so the audit harness can run it on raw per-vertex
out-tuples without building graph objects.  Vertices are 1..n; degree arrays
are 1-based lists with index 0 unused.

The row-wise numpy versions (``*_rows``) run the same rules on a block of
graphs at once, one graph per row.  A block is given by a membership array
``members`` of shape (n, R, n+1), where ``members[v-1, r, u]`` is 1 when u is
in the r-th admissible out-set of v (column 0 is always 0), and a digit array
of shape (B, n) holding each graph's out-set rank per vertex.  Degree arrays
are (B, n+1) with column 0 unused.  Results equal the scalar functions' on
every row; the scalar functions are the reference the tests compare against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

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


# ---------------------------------------------------------------------------
# row-wise numpy versions: one graph per row
# ---------------------------------------------------------------------------


def membership_array(n: int, outset_lists: Sequence[Sequence[Sequence[int]]]) -> np.ndarray:
    """(n, R, n+1) int8 array: entry [v-1, r, u] is 1 when u is in v's r-th out-set."""
    members = np.zeros((n, len(outset_lists[0]), n + 1), np.int8)
    for v, outsets in enumerate(outset_lists):
        for r, outs in enumerate(outsets):
            members[v, r, list(outs)] = 1
    return members


def out_rows(members: np.ndarray, digits: np.ndarray, v: int) -> np.ndarray:
    """(B, n+1) membership rows of vertex v's out-set in every graph of the block."""
    return members[v - 1, digits[:, v - 1]]


def indegree_rows(members: np.ndarray, digits: np.ndarray) -> np.ndarray:
    deg = np.zeros((len(digits), members.shape[2]), np.int8)
    for v in range(1, members.shape[0] + 1):
        deg += out_rows(members, digits, v)
    return deg


def _greatest_vertex(hit: np.ndarray) -> np.ndarray:
    """Per row, the greatest vertex column of the (B, n+1) mask that is set
    (garbage on rows where none is)."""
    n = hit.shape[1] - 1
    return n - np.argmax(hit[:, :0:-1], axis=1)


def run_deletion_rows(members: np.ndarray, digits: np.ndarray, t: int) -> np.ndarray:
    """Final remaining indegrees of ``run_deletion`` on every graph of the block.

    The scalar sweep keeps one invariant: no undeleted vertex has remaining
    indegree above d.  It holds at the start (d is the maximum indegree),
    deletions only lower degrees, and d steps down only when no undeleted
    vertex sits at d.  So the sweep's next deletion is always at the largest
    undeleted degree, and each block step jumps d there and deletes the
    greatest-index undeleted vertex at it, on every row where d >= t.  A row
    deletes each vertex at most once, so a block needs at most n+1 steps.
    """
    deg = indegree_rows(members, digits)
    live = deg.copy()  # remaining indegree of undeleted vertices, negative elsewhere
    live[:, 0] = -1
    while True:
        d = live.max(axis=1)
        rows = np.flatnonzero(d >= t)
        if rows.size == 0:
            return deg
        v = _greatest_vertex(live[rows] == d[rows, None])
        outs = members[v - 1, digits[rows, v - 1]]
        deg[rows] -= outs
        live[rows] -= outs
        live[rows, v] = -1


def select_top_rows(deg: np.ndarray, threshold: int) -> np.ndarray:
    """``select_top`` on every row: int8 selected vertex, 0 for none."""
    top = deg[:, 1:].max(axis=1)
    v = _greatest_vertex(deg == top[:, None])
    return np.where(top >= threshold, v, 0).astype(np.int8)
