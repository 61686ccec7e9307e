"""Brute-force and sampled verification of selection mechanisms.

Impartiality is checked directly against its definition: for every base graph
and every vertex, every admissible rewrite of that vertex's outgoing edges
must leave the vertex's selection status unchanged.  Every audit evaluates
the mechanism with its batch kernel, in blocks of at most ``KERNEL_BLOCK``
graphs, so no Python runs per graph and memory is bounded by the block.
Exhaustive mode writes each block's result in place into an outcome table, the
selected vertex (for gap audits, the additive gap) of every graph of a class.
Its blocks are windows of the class's digit rows (``_class_block``), the one
class walk, which witness texts read too; the scan for violating pairs walks
only the lines whose "v is selected" flags are mixed.
Sampled impartiality audits evaluate each seeded base graph's n deviation
lines (v's out-set swept, the rest fixed) and compare them with the base
graph; sampled gap audits stack the samples into blocks.  A witness is its
canonical text, written once from its out-set ranks (a class window's row or
a sampled rank tuple); violations are integer columns over the sorted
distinct texts, ordered by one lexsort, and a ``Violation`` or a witness
graph is made only when read (tracemalloc peak 5.4 MB on max-naive G_6(1)).

Worst additive gaps are measured in the same two modes, and trace invariants
are re-derived from recorded deletion traces, so that a trace passes them
exactly when it is the run.
"""

from __future__ import annotations

import os
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cache, cached_property, partial
from itertools import chain, islice
from typing import Callable, Union

import numpy as np

from ._deletion import indegree_rows, outset_rows, select_top, vertex_rows
from .graphs import (
    AUDIT_CAP,
    CapExceeded,
    DirectedGraph,
    GraphClassSpec,
    deviations,  # bound only for the bench tracer, which wraps it here
    edge_lines,
    graph_at_index,
    graph_of_ranks,
    parse_graph,
    sample_ranks,
    sample_stream,  # bound only for the bench tracer, which wraps it here
)
from .mechanisms import MechanismId, batch_kernel_for, kernel_for, resolve  # kernel_for: for the tracer
from .twin_threshold import DeletionTrace, ThresholdPair, additive_gap, run_twin_threshold  # run_twin_threshold: for the tracer

#: Graphs per batch-kernel call (table entries per stacked sampled gap
#: block); bounds the working arrays independently of the class size.
KERNEL_BLOCK = 1 << 16

#: Witness rows turned into Python lists at once, writing texts or reading violations.
_ROW_BLOCK = 1 << 12


@dataclass(frozen=True)
class Exhaustive:
    """Examine every graph of the class and every deviation of every vertex.

    The class may hold at most `cap` graphs.  Its outcome table is filled by
    min(jobs, usable CPUs, class size) worker processes, one chunk of the
    class each; the results do not depend on `jobs`.
    """

    jobs: int = 1
    cap: int = AUDIT_CAP

    def __post_init__(self):
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")

    def describe(self) -> str:
        return "exhaustive"


@dataclass(frozen=True)
class Sampled:
    """Examine `trials` seeded uniform base graphs in one process: gap audits
    measure them (n*(n+1) out-set row entries per graph, at most
    ``AUDIT_CAP``), impartiality audits compare each with every graph on its n
    deviation lines (n*R graphs, R admissible out-sets per vertex, at most
    ``AUDIT_CAP``)."""

    seed: int
    trials: int

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"need at least one trial, got {self.trials}")

    def describe(self) -> str:
        return f"sampled(seed={self.seed}, trials={self.trials})"


AuditMode = Union[Exhaustive, Sampled]


@cache
def _own_lines(v: int) -> re.Pattern:
    """Vertex v's edge lines in a graph text; each follows a line break, as the header comes first."""
    return re.compile(rf"\ne {v} [^\n]*")


@dataclass(frozen=True)
class Violation:
    """A witnessed impartiality failure: the deviator's own rewrite of its
    outgoing edges changed whether it is selected.

    The two witness graphs are held as their canonical texts, the smaller
    first, and the contract is checked on those texts: the same header
    ``n <count>`` with the deviator in 1..n, and the same lines once the
    deviator's own edge lines ``e <deviator> ...`` are left out, wherever
    they stand.  ``graph_a`` and ``graph_b`` parse the texts on first access;
    ``selected_b``, the deviator's status in graph b, is ``not selected_a``.
    """

    text_a: str
    text_b: str
    deviator: int
    selected_a: bool

    def __post_init__(self):
        header, v = self.text_a.partition("\n")[0], self.deviator
        if header != self.text_b.partition("\n")[0] or not header.startswith("n ") or not 1 <= v <= int(header[2:]):
            raise ValueError("violation graphs must share a vertex set containing the deviator")
        own = _own_lines(v)
        if own.sub("", self.text_a) != own.sub("", self.text_b):
            raise ValueError(f"graphs differ outside the outgoing edges of {v}")

    @property
    def selected_b(self) -> bool:
        return not self.selected_a

    @cached_property
    def graph_a(self) -> DirectedGraph:
        return parse_graph(self.text_a)

    @cached_property
    def graph_b(self) -> DirectedGraph:
        return parse_graph(self.text_b)


class Violations(Sequence):
    """An audit's violations in canonical order: the sorted distinct witness
    texts and the columns (rank of text_a, rank of text_b, deviator,
    selected_a).  Each ``Violation`` is made, so checked, only when read,
    ``_ROW_BLOCK`` rows at a time when iterating; slices are lazy too."""

    def __init__(self, texts: list[str], *columns: np.ndarray):
        self._texts, self._columns = texts, columns

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Violations(self._texts, *(column[i] for column in self._columns))
        i = range(len(self))[i]  # IndexError outside, negative counts from the end
        return next(iter(self[i : i + 1]))

    def __iter__(self) -> Iterator[Violation]:
        for lo in range(0, len(self), _ROW_BLOCK):
            for a, b, v, sel in zip(*(column[lo : lo + _ROW_BLOCK].tolist() for column in self._columns)):
                yield Violation(self._texts[a], self._texts[b], v, sel)

    def __eq__(self, other) -> bool:  # any sequence of the same violations in the same order
        return isinstance(other, Sequence) and len(self) == len(other) and all(x == y for x, y in zip(self, other))


@dataclass(frozen=True)
class GapReport:
    """Worst additive gap found, with a witness graph attaining it."""

    worst_gap: int
    witness: DirectedGraph
    graphs_checked: int


# ---------------------------------------------------------------------------
# kernel passes; exhaustive scans read the outcome table with whole-table numpy
# ---------------------------------------------------------------------------


def _blocks(start: int, end: int) -> Iterator[tuple[int, int]]:
    return ((lo, min(lo + KERNEL_BLOCK, end)) for lo in range(start, end, KERNEL_BLOCK))


def _class_block(spec: GraphClassSpec) -> Callable[[int, int], tuple[np.ndarray, np.ndarray]]:
    """block(lo, hi): the batch kernel's (members, choice) for graphs [lo, hi)
    of the class, hi - lo <= ``KERNEL_BLOCK``; kernel passes and witness texts
    read the class through these windows only.  Row (v-1)*R + r of members
    is ``spec.outset_at(v, r)``, vertex v's out-set of rank r (vertex n's
    unranked, the others moved from them), and choice is held in the
    smallest type indexing the rows.  Graph i's out-set ranks are the
    mixed-radix digits of i, vertex n the least significant: the trailing m
    digits, R**m <= ``KERNEL_BLOCK``, are row i % R**m of one template, and
    the leading n - m are those of the head index i // R**m, a few heads per
    block."""
    n, radix = spec.n, spec.outset_count
    last = outset_rows(n, [spec.outset_at(n, r) for r in range(radix)])
    members = np.concatenate([vertex_rows(last, v) for v in range(1, n + 1)])
    kind = np.min_scalar_type(len(members))
    offsets = np.arange(n, dtype=kind) * kind.type(radix)
    m = next(m for m in range(n, -1, -1) if radix**m <= KERNEL_BLOCK)
    width, lead = radix**m, n - m
    tail = np.indices((radix,) * m, dtype=kind).reshape(m, width).T + offsets[lead:]

    def block(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        choice = np.empty((hi - lo, n), kind)
        heads = np.arange(lo // width, (hi - 1) // width + 1)
        starts = heads * width
        rows = np.minimum(starts + width, hi) - np.maximum(starts, lo)  # the block's rows under each head
        digits = np.empty((len(heads), lead), kind)
        for col in range(lead - 1, -1, -1):
            heads, digit = np.divmod(heads, radix)
            digits[:, col] = digit
        choice[:, :lead] = np.repeat(digits + offsets[:lead], rows, axis=0)
        # the template from row lo % R**m, wrapping to row 0 at each new head
        skip = lo % width
        first = min(hi - lo, width - skip)
        whole = (hi - lo - first) // width * width
        choice[:first, lead:] = tail[skip : skip + first]
        choice[first : first + whole].reshape(-1, width, n)[:, :, lead:] = tail
        choice[first + whole :, lead:] = tail[: hi - lo - first - whole]
        return members, choice

    return block


def _outcome_chunk(args, score: Callable | None = None) -> np.ndarray:
    """Selected vertex (0 for none) of every graph with index in [start, end),
    or score(members, choice, selected) of each block when given, computed
    from the block the kernel ran on, and written in place into one array of
    the members' dtype, the dtype of the kernels' and ``_gaps``' results."""
    mid, spec, start, end = args
    kern, block, chunk = batch_kernel_for(mid), _class_block(spec), None
    for lo, hi in _blocks(start, end):
        members, choice = block(lo, hi)
        # made before any kernel call: made after one, it cost G_7(1) ten times the page faults
        chunk = np.empty(end - start, members.dtype) if chunk is None else chunk
        selected = kern(members, choice)
        chunk[lo - start : hi - start] = selected if score is None else score(members, choice, selected)
    return chunk


def _gaps(members: np.ndarray, choice: np.ndarray, selected: np.ndarray) -> np.ndarray:
    """Additive gap of every graph of a block, given the vertex each selects."""
    deg = indegree_rows(members, choice)
    return deg.max(axis=0) - deg[selected, np.arange(len(choice))]


def _chunks(size: int, parts: int) -> list[tuple[int, int]]:
    """[0, size) cut into `parts` consecutive ranges, non-empty for parts <= size."""
    return [(size * i // parts, size * (i + 1) // parts) for i in range(parts)]


def _worker_count(jobs: int, size: int) -> int:
    """Worker processes for a class of `size` graphs: never more than asked
    for, than there are usable CPUs (the affinity mask where the platform has
    one), or than there are graphs."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(jobs, cpus, size)


def _check_exhaustive_pre(spec: GraphClassSpec, cap: int) -> int:
    if spec.size > cap:
        raise CapExceeded(f"class {spec.describe()} has {spec.size} graphs, audit cap is {cap}")
    return spec.size


def _outcome_table(mid: MechanismId, spec: GraphClassSpec, jobs: int, score: Callable | None = None) -> np.ndarray:
    """Entry i is the vertex selected (0 for none) on the i-th graph of a
    non-empty class, or its score as ``_outcome_chunk`` says.  This kernel
    pass is the only work split across worker processes, one chunk of the
    class each; they receive index ranges and their chunks are copied in."""
    workers = _worker_count(jobs, spec.size)
    args = [(mid, spec, lo, hi) for lo, hi in _chunks(spec.size, workers)]
    chunk, table = partial(_outcome_chunk, score=score), None
    if workers == 1:
        return chunk(args[0])
    from concurrent.futures import ProcessPoolExecutor  # here: it loads multiprocessing, which a single worker never needs

    with ProcessPoolExecutor(max_workers=workers) as pool:
        for (_, _, lo, hi), part in zip(args, pool.map(chunk, args)):
            table = np.empty(spec.size, part.dtype) if table is None else table
            table[lo:hi] = part
    return table


def _violating_pairs(table: np.ndarray, n: int, radix: int) -> tuple[np.ndarray, ...]:
    """Every violating deviation pair of the outcome table, exactly once, as
    columns (index_a, index_b, deviator, selected_a), index_a < index_b.

    Indices that differ only in vertex v's digit form a line along axis 1 of
    the (R**(v-1), R, R**(n-v)) reshape, R = radix.  Digits d1 < d2 on a line
    whose "v is selected" flags differ are one violation, so only the lines
    whose flags are mixed are walked, in the order of the full walk, filling
    columns sized from the lines' counts: s selecting digits make s*(R-s).
    """
    walks = []
    for v in range(1, n + 1):
        stride = radix ** (n - v)
        flags = (table == v).reshape(-1, radix, stride)
        heads, tails = np.nonzero(flags.any(axis=1) & ~flags.all(axis=1))
        walks.append((v, stride, heads, tails, flags[heads, :, tails]))  # lines: (mixed lines, R) flags
    size, end = sum(int((s * (radix - s)).sum()) for s in (walk[-1].sum(axis=1) for walk in walks)), 0
    index_a, index_b, deviator, selected_a = (np.empty(size, dtype=t) for t in (np.int64,) * 3 + (bool,))
    for v, stride, heads, tails, lines in walks:
        for d1 in range(radix - 1):
            for d2 in range(d1 + 1, radix):
                j = np.flatnonzero(lines[:, d1] != lines[:, d2])
                start, end = end, end + len(j)
                index_a[start:end] = (heads[j] * radix + d1) * stride + tails[j]
                index_b[start:end] = index_a[start:end] + (d2 - d1) * stride
                deviator[start:end], selected_a[start:end] = v, lines[j, d1]
    return index_a, index_b, deviator, selected_a


def check_impartiality(mid: MechanismId, spec: GraphClassSpec, mode: AuditMode = Exhaustive()) -> Sequence[Violation]:
    """All impartiality violations found in the examined set, deduplicated by
    unordered graph pair and sorted canonically, as a lazy ``Violations``.
    Empty means no violation was found, not a proof beyond the examined set
    (it is a proof for the whole class in exhaustive mode).
    """
    mid.validate_for(spec.n)
    if isinstance(mode, Sampled):
        return _violations(spec, *_sampled_pairs(mid, spec, mode))
    if _check_exhaustive_pre(spec, mode.cap) == 0:
        return _violations(spec, [], *[np.zeros(0, dtype=np.int64)] * 4)
    index_a, index_b, deviator, selected_a = _violating_pairs(
        _outcome_table(mid, spec, mode.jobs), spec.n, spec.outset_count
    )
    indices = np.concatenate([index_a, index_b])
    del index_a, index_b
    keys, position = np.unique(indices, return_inverse=True)
    del indices
    position = position.astype(np.min_scalar_type(len(keys)))
    block, offsets = _class_block(spec), np.arange(spec.n) * spec.outset_count  # a key's ranks: window row - offsets
    held = ((lo, hi, keys[np.searchsorted(keys, lo) : np.searchsorted(keys, hi)]) for lo, hi in _blocks(0, spec.size))
    windows = (block(lo, hi)[1][here - lo] for lo, hi, here in held if len(here))
    blocks = ((rows[i : i + _ROW_BLOCK] - offsets).tolist() for rows in windows for i in range(0, len(rows), _ROW_BLOCK))
    deviator = deviator.astype(np.min_scalar_type(spec.n))
    return _violations(spec, chain.from_iterable(blocks), *np.split(position, 2), deviator, selected_a)


def _violations(spec: GraphClassSpec, rows: Iterable[Sequence[int]], a, b, deviator, selected_a) -> Violations:
    """The violations of (key a, key b, deviator, selected_a) columns in
    canonical order, no graph built.  Key j's text is written once from
    rows[j] (out-set ranks, vertex 1 first) with memoized ``edge_lines``.
    Ranked by text, a pair is (smaller rank, larger rank, deviator, status of
    the smaller); (text_a, text_b, deviator) is unique, so one lexsort sorts."""
    lines = cache(lambda v, rank: edge_lines((v, u) for u in spec.outset_at(v, rank)))
    head, vertices = f"n {spec.n}\n", range(1, spec.n + 1)
    texts = [head + "".join(map(lines, vertices, row)) for row in rows]
    kind = np.min_scalar_type(len(texts))
    order = np.array(sorted(range(len(texts)), key=texts.__getitem__), dtype=kind)
    rank = np.empty(len(texts), kind)
    rank[order] = np.arange(len(texts), dtype=kind)  # the inverse of the order: key -> text rank
    rank_a, rank_b = rank[a], rank[b]
    del rank
    lo, hi, selected_lo = np.minimum(rank_a, rank_b), np.maximum(rank_a, rank_b), selected_a ^ (rank_b < rank_a)
    del rank_a, rank_b
    keep = np.lexsort((deviator, hi, lo))
    return Violations([texts[i] for i in order.tolist()], lo[keep], hi[keep], deviator[keep], selected_lo[keep])


def _line_outcomes(kern, last: np.ndarray, fixed: np.ndarray, v: int) -> np.ndarray:
    """Selected vertex on every graph of a base graph's deviation line along
    v, in one array by v's out-set rank.  `last` holds vertex n's out-set rows
    and `fixed` the base graph's, vertex w's in row w-1."""
    n, outcomes = len(fixed), np.empty(len(last), fixed.dtype)
    for lo, hi in _blocks(0, len(last)):
        choice = np.tile(np.arange(n), (hi - lo, 1))
        choice[:, v - 1] = n + np.arange(hi - lo)
        outcomes[lo:hi] = kern(np.concatenate([fixed, vertex_rows(last[lo:hi], v)]), choice)
    return outcomes


def _sampled_pairs(mid: MechanismId, spec: GraphClassSpec, mode: Sampled) -> tuple:
    """Each sampled base graph against every graph on its deviation lines: one
    whose "v is selected" flag differs from the base graph's is a violating
    pair with deviator v, kept once per unordered pair.  Returns the distinct
    witnesses' rank tuples and the columns ``_violations`` takes."""
    n, radix = spec.n, spec.outset_count
    if n * radix > AUDIT_CAP:
        raise CapExceeded(f"deviation lines of a {spec.describe()} graph hold {n * radix} graphs, audit cap is {AUDIT_CAP}")
    kern, last = batch_kernel_for(mid), outset_rows(n, [spec.outset_at(n, r) for r in range(radix)])
    keys, found = {}, {}  # rank tuple -> key; (key a, key b, deviator), a < b -> selected_a
    for base in sample_ranks(spec, mode.seed, mode.trials):
        fixed = np.concatenate([vertex_rows(last[[r]], w) for w, r in enumerate(base, start=1)])
        for v, rank in enumerate(base, start=1):
            flags = _line_outcomes(kern, last, fixed, v) == v
            here = bool(flags[rank])
            for d in np.flatnonzero(flags != here).tolist():
                other = base[: v - 1] + (d,) + base[v:]
                a, b = keys.setdefault(base, len(keys)), keys.setdefault(other, len(keys))
                found.setdefault((min(a, b), max(a, b), v), here == (a < b))
    columns = np.array(list(found), dtype=np.int64).reshape(-1, 3).T
    return keys, *columns, np.array(list(found.values()), dtype=bool)


def _measure_gap_sampled(mid: MechanismId, spec: GraphClassSpec, mode: Sampled) -> GapReport:
    """Gaps of the sampled graphs, stacked into blocks whose table holds at
    most ``KERNEL_BLOCK`` entries: graph b of a block gives vertex v the
    out-set in row b*n + v-1 of the block's table.  A graph whose n rows of
    n+1 entries exceed ``AUDIT_CAP`` is refused before sampling."""
    kern, n = batch_kernel_for(mid), spec.n
    if n * (n + 1) > AUDIT_CAP:
        raise CapExceeded(f"a {spec.describe()} graph's out-set rows hold {n * (n + 1)} entries, "
                          f"audit cap is {AUDIT_CAP}")
    samples = sample_ranks(spec, mode.seed, mode.trials)
    best_gap, best = -1, ()
    while chunk := list(islice(samples, max(1, KERNEL_BLOCK // (n * (n + 1))))):
        members = outset_rows(n, [spec.outset_at(v, r) for ranks in chunk for v, r in enumerate(ranks, start=1)])
        choice = np.arange(len(members)).reshape(len(chunk), n)
        gaps = _gaps(members, choice, kern(members, choice))
        b = int(np.argmax(gaps))  # the first maximum: the earliest sample
        if gaps[b] > best_gap:
            best_gap, best = int(gaps[b]), chunk[b]
    return GapReport(best_gap, graph_of_ranks(spec, best), mode.trials)


def measure_gap(mid: MechanismId, spec: GraphClassSpec, mode: AuditMode = Exhaustive()) -> GapReport:
    """Worst additive gap over the examined graphs, with its witness.

    Ties between witnesses resolve to the smallest enumeration index, so the
    report does not depend on the worker count.
    """
    mid.validate_for(spec.n)
    if isinstance(mode, Sampled):
        report = _measure_gap_sampled(mid, spec, mode)
    else:
        size = _check_exhaustive_pre(spec, mode.cap)
        if size == 0:
            raise ValueError(f"class {spec.describe()} is empty, no gap to measure")
        gaps = _outcome_table(mid, spec, mode.jobs, score=_gaps)
        best_idx = int(np.argmax(gaps))  # the first maximum: the smallest index
        report = GapReport(int(gaps[best_idx]), graph_at_index(spec, best_idx), size)
    check = additive_gap(report.witness, resolve(mid)(report.witness))
    if check != report.worst_gap:
        raise RuntimeError(f"witness recomputation gave {check} != {report.worst_gap}")
    return report


# ---------------------------------------------------------------------------
# trace invariants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """One named check of a trace or a certificate; `detail` words its problems."""

    name: str
    ok: bool
    detail: str = ""


def check_trace_invariants(
    graph: DirectedGraph, thresholds: ThresholdPair, selected: int, trace: DeletionTrace
) -> tuple[Check, ...]:
    """Check a recorded run (`selected`, `trace`) against every trace invariant.

    Nothing here runs the mechanism.  The checks read each vertex's deletion
    step and degree at deletion (for a vertex never deleted: the number of
    deletions and its final degree) and its in-neighbors, all taken from the
    trace's two records and the graph's edges.  Each check lists its problems
    in increasing vertex (or record) order.  A malformed record fails a check
    rather than raising, counts and vertices being exact ints (not JSON's
    true, 2.0 or "2"): a deletion record that is not three ints or names a
    vertex outside 1..n fails deletion_order and no other check reads it; a
    final degree that is not an int fails remaining_degrees, and the other
    checks read the first n final degrees, 0 for a missing one or a non-int.

    remaining_degrees: there are n final degrees, and final remaining
        indegrees equal the original indegrees minus deleted in-neighbors;
        deleted vertices were at or above the lower threshold when deleted,
        undeleted ones ended strictly below it.
    descent_counts: a deleted vertex's indegree drop before its own deletion
        equals its number of earlier-deleted in-neighbors.
    deletion_order: record i is three ints (i, v, d) with v in 1..n, no
        vertex is deleted twice, and deletions happen in strictly
        decreasing lexicographic (degree-at-deletion, vertex) order.
    inneighbor_witness: for each vertex that is deleted or has a deleted
        in-neighbor, with pair (degree at deletion, or final degree, vertex):
        a drop of r forces exactly r deleted in-neighbors above that pair, the
        j-th of them above (original indegree - j), as the sweep took each of
        them over the vertex; the other deleted ones are below it, as one at
        the vertex's own pair would be the vertex itself, a self-loop that
        DirectedGraph rejects.
    selection: the selected vertex, an int in 0..n, is ``select_top`` of
        the final degrees at T.

    The checks pass exactly when the records are the run.  The sweep deletes,
    at each step, the undeleted vertex of greatest (remaining degree, vertex)
    pair at degree >= t.  By descent_counts and deletion_order, record i
    deletes a new vertex at its remaining degree after records 0..i-1.  Were
    an undeleted vertex w's pair (c, w) above record i's then, w would lose
    an in-neighbor at some step j >= i, since it ends below t or is deleted
    later below record i's pair; inneighbor_witness puts that in-neighbor
    above (c, w), deletion_order puts it at or below record i: so record i is
    the sweep's step.  remaining_degrees then ends the sweep where the trace
    ends and fixes the final degrees, and selection fixes the selection.
    """
    lower = thresholds.lower
    n = graph.n
    shaped = [isinstance(r, Sequence) and len(r) == 3 and all(type(x) is int for x in r) for r in trace.deletions]
    records = [r for r, ok in zip(trace.deletions, shaped) if ok and 1 <= r[1] <= n]
    given = (list(trace.final_degrees) + [0] * n)[:n]
    finals = [d if type(d) is int else 0 for d in given]
    step, at = [len(trace.deletions)] * (n + 1), [0, *finals]
    for i, v, d in records:
        step[v], at[v] = i, d
    deleted = {v for _, v, _ in records}
    inneighbors, lost = [[] for _ in range(n + 1)], [0] * (n + 1)  # lost[v]: v's deleted in-neighbors
    for u, v in graph.edges:
        inneighbors[v].append(u)
        if u in deleted:
            lost[v] += 1
    checks = []

    problems = []
    if len(trace.final_degrees) != n:
        problems.append(f"{len(trace.final_degrees)} final degrees for {n} vertices")
    for v in range(1, n + 1):
        final = finals[v - 1]
        expect = graph.indegrees[v - 1] - lost[v]
        if type(given[v - 1]) is not int:
            problems.append(f"vertex {v}: final degree {given[v - 1]!r} is not an int")
        elif final != expect:
            problems.append(f"vertex {v}: final degree {final} != recomputed {expect}")
        if v in deleted and at[v] < lower:
            problems.append(f"vertex {v} deleted at degree {at[v]} < t={lower}")
        if v not in deleted and final > lower - 1:
            problems.append(f"undeleted vertex {v} ended at degree {final} >= t={lower}")
    checks.append(Check("remaining_degrees", not problems, "; ".join(problems)))

    problems = []
    for v in sorted(deleted):
        drop = graph.indegrees[v - 1] - at[v]
        earlier = sum(1 for u in inneighbors[v] if step[u] < step[v])
        if drop != earlier:
            problems.append(f"vertex {v}: drop {drop} != earlier-deleted in-neighbors {earlier}")
    checks.append(Check("descent_counts", not problems, "; ".join(problems)))

    problems = []
    seen, order = set(), []
    for position, (record, ok) in enumerate(zip(trace.deletions, shaped)):
        if not ok:
            problems.append(f"record {position} is not three ints: {record!r}")
            continue
        i, v, d = record
        if i != position:
            problems.append(f"record {position} has iteration {i}")
        if not 1 <= v <= n:
            problems.append(f"record {position} names vertex {v} outside 1..{n}")
        if v in seen:
            problems.append(f"vertex {v} deleted again at record {position}")
        seen.add(v)
        order.append((d, v))
    for prev, cur in zip(order, order[1:]):
        if not prev > cur:
            problems.append(f"deletion order not strictly decreasing: {prev} then {cur}")
    checks.append(Check("deletion_order", not problems, "; ".join(problems)))

    problems = []
    for v in [v for v in range(1, n + 1) if lost[v] or v in deleted]:  # deleted, or a deleted in-neighbor
        dv, indeg = at[v], graph.indegrees[v - 1]
        r = indeg - dv
        above = sorted(((at[u], u) for u in inneighbors[v] if u in deleted and (at[u], u) > (dv, v)), reverse=True)
        if len(above) != r:
            problems.append(f"vertex {v}: {len(above)} in-neighbors above it, expected drop {r}")
            continue
        for j, pair in enumerate(above):
            if not pair > (indeg - j, v):
                problems.append(f"vertex {v}: witness {j} at {pair} not above ({indeg - j}, {v})")
    checks.append(Check("inneighbor_witness", not problems, "; ".join(problems)))

    upper = thresholds.upper
    expect = select_top(finals, upper)
    problem = (f"selected {selected!r} is not an int" if type(selected) is not int
               else f"selected {selected} outside 0..{n}" if not 0 <= selected <= n
               else f"selected {selected}, select_top of the final degrees at T={upper} is {expect}")
    ok = type(selected) is int and selected == expect
    checks.append(Check("selection", ok, "" if ok else problem))

    return tuple(checks)
