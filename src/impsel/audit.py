"""Brute-force and sampled verification of selection mechanisms.

Impartiality is checked directly against its definition: for every base graph
and every vertex, every admissible rewrite of that vertex's outgoing edges
must leave the vertex's selection status unchanged.  Every audit evaluates
the mechanism with its batch kernel, in blocks of at most ``KERNEL_BLOCK``
graphs, so no Python runs per graph and memory is bounded by the block.
Exhaustive mode fills an outcome table, the selected vertex of every graph of
a class (for gap audits, its additive gap, computed from the same block the
kernel ran on); only that kernel pass is split across worker processes, and
the scan for violating deviation pairs is whole-table numpy that walks only
the deviation lines whose "v is selected" flags are mixed.  Sampled
impartiality audits evaluate each seeded base graph's n deviation lines (v's
out-set swept, the rest fixed) and compare every graph on them with the base
graph; sampled gap audits stack the samples into blocks.  A witness is its
canonical text, written once from its out-set ranks (class index digits or
a sampled rank tuple); violations are integer columns over the sorted
distinct texts, ordered by one lexsort, and a ``Violation`` or a witness
graph is made only when read (tracemalloc peak 9.4 MB on max-naive G_6(1)).

Worst additive gaps are measured in the same two modes, trace invariants are
re-derived from recorded deletion traces, and a class's symmetrization (the
selection averaged over all n! vertex relabelings) reads the outcome table as
integer counts with one division by n!, never floats: downstream
infeasibility arguments compare masses against exactly 1.
"""

from __future__ import annotations

import os
import re
from collections.abc import Iterable, Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, partial
from itertools import chain, islice
from math import factorial
from typing import Callable, Union

import numpy as np

from ._deletion import indegree_rows, outset_rows, vertex_rows
from .graphs import (
    AUDIT_CAP,
    CapExceeded,
    DirectedGraph,
    GraphClassSpec,
    Permutation,
    deviations,  # bound only for the bench tracer, which wraps it here
    digit_block,
    edge_lines,
    graph_at_index,
    graph_of_ranks,
    parse_graph,
    sample_ranks,
    sample_stream,  # bound only for the bench tracer, which wraps it here
)
from .mechanisms import Kernel, MechanismId, batch_kernel_for, kernel_for, resolve  # kernel_for: for the tracer
from .twin_threshold import DeletionTrace, ThresholdPair, additive_gap, run_twin_threshold

#: Graphs per batch-kernel call (table entries per stacked sampled gap
#: block); bounds the working arrays independently of the class size.
KERNEL_BLOCK = 1 << 16

#: Witness rows turned into Python lists at once, writing texts or reading violations.
_ROW_BLOCK = 1 << 12

#: Symmetrization enumerates all n! vertex permutations; refuse past this n.
FACTORIAL_CAP = 7


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


@dataclass(frozen=True)
class Violation:
    """A witnessed impartiality failure: the deviator's own rewrite of its
    outgoing edges changed whether it is selected.

    The two witness graphs are held as their canonical texts, the smaller
    first, and the contract is checked on those texts: the same header
    ``n <count>`` with the deviator in 1..n, and the same lines once the
    deviator's own edge lines ``e <deviator> ...`` are left out, wherever
    they stand.  ``graph_a`` and ``graph_b`` parse the texts on first access.
    """

    text_a: str
    text_b: str
    deviator: int
    selected_a: bool
    selected_b: bool

    def __post_init__(self):
        header, v = self.text_a.partition("\n")[0], self.deviator
        if header != self.text_b.partition("\n")[0] or not header.startswith("n ") or not 1 <= v <= int(header[2:]):
            raise ValueError("violation graphs must share a vertex set containing the deviator")
        # every line of the deviator's edges follows a line break, as the header comes first
        own = re.compile(rf"\ne {v} [^\n]*")
        if own.sub("", self.text_a) != own.sub("", self.text_b):
            raise ValueError(f"graphs differ outside the outgoing edges of {v}")
        if self.selected_a == self.selected_b:
            raise ValueError("not a violation: selection status agrees")

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
                yield Violation(self._texts[a], self._texts[b], v, sel, not sel)

    def __eq__(self, other) -> bool:  # any sequence of the same violations in the same order
        return isinstance(other, Sequence) and len(self) == len(other) and all(x == y for x, y in zip(self, other))


@dataclass(frozen=True)
class GapReport:
    """Worst additive gap found, with a witness graph attaining it."""

    worst_gap: int
    witness: DirectedGraph
    graphs_checked: int
    mode: str


# ---------------------------------------------------------------------------
# kernel passes; exhaustive scans read the outcome table with whole-table numpy
# ---------------------------------------------------------------------------


def _blocks(start: int, end: int) -> Iterator[tuple[int, int]]:
    return ((lo, min(lo + KERNEL_BLOCK, end)) for lo in range(start, end, KERNEL_BLOCK))


def _class_block(spec: GraphClassSpec) -> Callable[[int, int], tuple[np.ndarray, np.ndarray]]:
    """block(lo, hi): the batch kernel's (members, choice) for graphs [lo, hi) of the class."""
    n, radix = spec.n, spec.outset_count
    last = outset_rows(n, spec.admissible_outsets(n))
    members = np.concatenate([vertex_rows(last, v) for v in range(1, n + 1)])
    offsets = np.arange(n) * radix  # vertex v's out-sets start at row (v-1)*R
    return lambda lo, hi: (members, digit_block(spec, np.arange(lo, hi)) + offsets)


def _outcome_chunk(args, score: Callable | None = None) -> np.ndarray:
    """Selected vertex (0 for none) of every graph with index in [start, end),
    or score(members, choice, selected) of each block when given, computed
    from the block the kernel ran on."""
    mid, spec, start, end = args
    kern, block = batch_kernel_for(mid), _class_block(spec)
    run = kern if score is None else lambda members, choice: score(members, choice, kern(members, choice))
    return np.concatenate([run(*block(lo, hi)) for lo, hi in _blocks(start, end)])


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
    size = spec.size
    if size > cap:
        raise CapExceeded(f"class {spec.describe()} has {size} graphs, audit cap is {cap}")
    return size


def _outcome_table(mid: MechanismId, spec: GraphClassSpec, jobs: int, score: Callable | None = None) -> np.ndarray:
    """Entry i is the vertex selected (0 for none) on the i-th graph of a
    non-empty class, or its score as ``_outcome_chunk`` says.  This kernel
    pass is the only work split across worker processes, one chunk of the
    class each; they receive index ranges, never the table."""
    workers = _worker_count(jobs, spec.size)
    args = [(mid, spec, lo, hi) for lo, hi in _chunks(spec.size, workers)]
    chunk = partial(_outcome_chunk, score=score)
    if workers == 1:
        return chunk(args[0])
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return np.concatenate(list(pool.map(chunk, args)))


def _violating_pairs(table: np.ndarray, n: int, radix: int) -> tuple[np.ndarray, ...]:
    """Every violating deviation pair of the outcome table, exactly once, as
    columns (index_a, index_b, deviator, selected_a), index_a < index_b.

    Indices that differ only in vertex v's digit form a line along axis 1 of
    the (R**(v-1), R, R**(n-v)) reshape, R = radix.  Digits d1 < d2 on a line
    whose "v is selected" flags differ are one violation, so only the lines
    whose flags are mixed are walked, in the order of the full walk.
    """
    blocks = [(np.zeros(0, dtype=np.int64),) * 3 + (np.zeros(0, dtype=bool),)]
    for v in range(1, n + 1):
        stride = radix ** (n - v)
        flags = (table == v).reshape(-1, radix, stride)
        heads, tails = np.nonzero(flags.any(axis=1) & ~flags.all(axis=1))
        lines = flags[heads, :, tails]  # (mixed lines, R)
        for d1 in range(radix - 1):
            for d2 in range(d1 + 1, radix):
                j = np.flatnonzero(lines[:, d1] != lines[:, d2])
                index_a = (heads[j] * radix + d1) * stride + tails[j]
                blocks.append((index_a, index_a + (d2 - d1) * stride, np.full(len(j), v), lines[j, d1]))
    return tuple(map(np.concatenate, zip(*blocks)))


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
    index_a, index_b, *columns = _violating_pairs(_outcome_table(mid, spec, mode.jobs), spec.n, spec.outset_count)
    keys, position = np.unique(np.concatenate([index_a, index_b]), return_inverse=True)
    blocks = (digit_block(spec, keys[lo : lo + _ROW_BLOCK]).tolist() for lo in range(0, len(keys), _ROW_BLOCK))
    return _violations(spec, chain.from_iterable(blocks), *np.split(position, 2), *columns)


def _violations(spec: GraphClassSpec, rows: Iterable[Sequence[int]], a, b, deviator, selected_a) -> Violations:
    """The violations of (key a, key b, deviator, selected_a) columns in
    canonical order, no graph built.  Key j's text is written once from
    rows[j] (out-set ranks, vertex 1 first) with memoized ``edge_lines``.
    Ranked by text, a pair is (smaller rank, larger rank, deviator, status of
    the smaller); (text_a, text_b, deviator) is unique, so one lexsort sorts."""
    lines = cache(lambda v, rank: edge_lines((v, u) for u in spec.outset_at(v, rank)))
    head, vertices = f"n {spec.n}\n", range(1, spec.n + 1)
    texts = [head + "".join(map(lines, vertices, row)) for row in rows]
    order = sorted(range(len(texts)), key=texts.__getitem__)
    rank_a, rank_b = np.argsort(order)[np.stack([a, b])]  # argsort inverts the order: key -> text rank
    lo, hi, selected_lo = np.minimum(rank_a, rank_b), np.maximum(rank_a, rank_b), selected_a ^ (rank_b < rank_a)
    keep = np.lexsort((deviator, hi, lo))
    return Violations([texts[i] for i in order], lo[keep], hi[keep], deviator[keep], selected_lo[keep])


def _line_outcomes(kern, last: np.ndarray, fixed: np.ndarray, v: int) -> np.ndarray:
    """Selected vertex on every graph of a base graph's deviation line along
    v, by v's out-set rank.  `last` holds vertex n's out-set rows and `fixed`
    the base graph's, vertex w's in row w-1."""
    n, outcomes = len(fixed), []
    for lo, hi in _blocks(0, len(last)):
        choice = np.tile(np.arange(n), (hi - lo, 1))
        choice[:, v - 1] = n + np.arange(hi - lo)
        outcomes.append(kern(np.concatenate([fixed, vertex_rows(last[lo:hi], v)]), choice))
    return np.concatenate(outcomes)


def _sampled_pairs(mid: MechanismId, spec: GraphClassSpec, mode: Sampled) -> tuple:
    """Each sampled base graph against every graph on its deviation lines: one
    whose "v is selected" flag differs from the base graph's is a violating
    pair with deviator v, kept once per unordered pair.  Returns the distinct
    witnesses' rank tuples and the columns ``_violations`` takes."""
    n, radix = spec.n, spec.outset_count
    if n * radix > AUDIT_CAP:
        raise CapExceeded(f"deviation lines of a {spec.describe()} graph hold {n * radix} graphs, audit cap is {AUDIT_CAP}")
    kern, last = batch_kernel_for(mid), outset_rows(n, spec.admissible_outsets(n))
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
    return GapReport(best_gap, graph_of_ranks(spec, best), mode.trials, mode.describe())


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
        report = GapReport(int(gaps[best_idx]), graph_at_index(spec, best_idx), size, mode.describe())
    check = additive_gap(report.witness, resolve(mid)(report.witness))
    if check != report.worst_gap:
        raise RuntimeError(f"witness recomputation gave {check} != {report.worst_gap}")
    return report


# ---------------------------------------------------------------------------
# trace invariants
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceCheck:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True, eq=False)
class TraceReport:
    """Per-invariant verdicts for one traced run, with counter-witness details."""

    thresholds: ThresholdPair
    selected: int
    trace: DeletionTrace
    checks: tuple[TraceCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def check_trace_invariants(graph: DirectedGraph, thresholds: ThresholdPair) -> TraceReport:
    """Run the twin-threshold mechanism and re-derive every trace invariant.

    The checks read each vertex's deletion step and degree at deletion (for a
    vertex never deleted: the number of deletions and its final degree) and
    its in-neighbors, all taken from the trace's two records and the graph's
    edges.  Each check lists its problems in increasing vertex order.

    remaining_degrees: final remaining indegrees equal the original indegrees
        minus deleted in-neighbors; deleted vertices were at or above the lower
        threshold when deleted, undeleted ones ended strictly below it.
    descent_counts: a deleted vertex's indegree drop before its own deletion
        equals its number of earlier-deleted in-neighbors.
    deletion_order: deletions happen in strictly decreasing lexicographic
        (degree-at-deletion, vertex) order.
    inneighbor_witness: a drop of r forces exactly r in-neighbors above the
        vertex in that order, the j-th of them above (original indegree - j);
        the others are below it, as an in-neighbor at the vertex's own pair
        would be the vertex itself, a self-loop that DirectedGraph rejects.
    """
    selected, trace = run_twin_threshold(graph, thresholds)
    lower = thresholds.lower
    n = graph.n
    step, at = [len(trace.deletions)] * (n + 1), [0, *trace.final_degrees]
    for i, v, d in trace.deletions:
        step[v], at[v] = i, d
    deleted = {v for _, v, _ in trace.deletions}
    inneighbors = [[] for _ in range(n + 1)]
    for u, v in graph.edges:
        inneighbors[v].append(u)
    checks = []

    problems = []
    for v in range(1, n + 1):
        final = trace.final_degrees[v - 1]
        expect = graph.indegrees[v - 1] - sum(1 for u in inneighbors[v] if u in deleted)
        if final != expect:
            problems.append(f"vertex {v}: final degree {final} != recomputed {expect}")
        if v in deleted and at[v] < lower:
            problems.append(f"vertex {v} deleted at degree {at[v]} < t={lower}")
        if v not in deleted and final > lower - 1:
            problems.append(f"undeleted vertex {v} ended at degree {final} >= t={lower}")
    checks.append(TraceCheck("remaining_degrees", not problems, "; ".join(problems)))

    problems = []
    for v in sorted(deleted):
        drop = graph.indegrees[v - 1] - at[v]
        earlier = sum(1 for u in inneighbors[v] if step[u] < step[v])
        if drop != earlier:
            problems.append(f"vertex {v}: drop {drop} != earlier-deleted in-neighbors {earlier}")
    checks.append(TraceCheck("descent_counts", not problems, "; ".join(problems)))

    problems = []
    order = [(d, v) for _, v, d in trace.deletions]
    for prev, cur in zip(order, order[1:]):
        if not prev > cur:
            problems.append(f"deletion order not strictly decreasing: {prev} then {cur}")
    checks.append(TraceCheck("deletion_order", not problems, "; ".join(problems)))

    problems = []
    for v in sorted(deleted):
        dv, indeg = at[v], graph.indegrees[v - 1]
        r = indeg - dv
        above = sorted(((at[u], u) for u in inneighbors[v] if (at[u], u) > (dv, v)), reverse=True)
        if len(above) != r:
            problems.append(f"vertex {v}: {len(above)} in-neighbors above it, expected drop {r}")
            continue
        for j, pair in enumerate(above):
            if not pair > (indeg - j, v):
                problems.append(f"vertex {v}: witness {j} at {pair} not above ({indeg - j}, {v})")
    checks.append(TraceCheck("inneighbor_witness", not problems, "; ".join(problems)))

    return TraceReport(thresholds, selected, trace, tuple(checks))


# ---------------------------------------------------------------------------
# symmetrization (exact rationals)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbabilityVector:
    """Per-vertex selection probabilities as exact rationals; total mass <= 1."""

    probs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "probs", tuple(Fraction(p) for p in self.probs))
        if any(p < 0 for p in self.probs):
            raise ValueError("negative probability")
        if sum(self.probs) > 1:
            raise ValueError(f"mass {sum(self.probs)} exceeds 1")

    @property
    def mass(self) -> Fraction:
        return sum(self.probs, Fraction(0))

    def prob(self, v: int) -> Fraction:
        return self.probs[v - 1]


def symmetrize_eval(mechanism: Kernel, graph: DirectedGraph) -> ProbabilityVector:
    """Average a mechanism (graph -> selected vertex, 0 for none) over all n!
    vertex relabelings, exactly.

    Entry v is the share of permutations pi for which the mechanism selects
    pi(v) on the relabeled graph.
    """
    n = graph.n
    if n > FACTORIAL_CAP:
        raise CapExceeded(f"symmetrization of n={n} exceeds factorial cap {FACTORIAL_CAP}")
    counts = [0] * n
    for perm in Permutation.all_of(n):
        w = mechanism(graph.relabel(perm))
        if w:
            counts[perm.images.index(w)] += 1  # the v with pi(v) = w
    scale = factorial(n)
    return ProbabilityVector(tuple(Fraction(c, scale) for c in counts))


def _symmetrizable_table(mid: MechanismId, spec: GraphClassSpec) -> np.ndarray:
    """The class's outcome table, after refusing, before any graph is built,
    a class whose symmetrization needs more than ``FACTORIAL_CAP``!
    relabelings per graph or more than ``AUDIT_CAP`` graphs, and parameters
    the mechanism rejects for n."""
    if spec.n > FACTORIAL_CAP:
        raise CapExceeded(f"symmetrization of n={spec.n} exceeds factorial cap {FACTORIAL_CAP}")
    size = _check_exhaustive_pre(spec, AUDIT_CAP)
    mid.validate_for(spec.n)
    return _outcome_table(mid, spec, 1) if size else np.zeros(0, dtype=np.int64)


def _symmetrized_counts(table: np.ndarray, spec: GraphClassSpec, indices: np.ndarray) -> np.ndarray:
    """(len(indices), n+1) int16 array: row j, column v counts the relabelings
    pi of graph indices[j] on which the mechanism whose outcome table is
    `table` selects pi(v), column 0 those selecting nobody.  Relabeling by pi
    moves v's out-set S to pi(v) as pi(S), so graph i's image is the class graph of index
    sum_v rank(pi(S_v)) * R**(n - pi(v)): its outcome-table entry w counts for
    pi^-1(w)."""
    n, radix = spec.n, spec.outset_count
    counts = np.zeros((len(indices), n + 1), dtype=np.int16)  # n! <= 7! fits
    rank = [{frozenset(s): d for d, s in enumerate(spec.admissible_outsets(v))} for v in range(1, n + 1)]
    perms = [perm.images for perm in Permutation.all_of(n)]
    # row pi, column (v-1)*R + d: what v's out-set of rank d adds to the image's index
    weights = np.array([[rank[w - 1][frozenset(p[u - 1] for u in s)] * radix ** (n - w)
                         for w, outs in zip(p, rank) for s in outs] for p in perms])
    inverses = np.argsort(np.pad(perms, ((0, 0), (1, 0))), axis=1)  # pi^-1, with 0 (none) fixed
    for lo, hi in _blocks(0, len(indices)):
        flat, rows = digit_block(spec, indices[lo:hi]) + np.arange(n) * radix, np.arange(lo, hi)
        for weight, inverse in zip(weights, inverses):
            counts[rows, inverse[table[weight[flat].sum(axis=1)]]] += 1
    return counts


def symmetrized_table(mid: MechanismId, spec: GraphClassSpec) -> dict[tuple[int, ...], ProbabilityVector]:
    """``symmetrize_eval`` of the mechanism on every graph of a class, keyed by
    graph key in enumeration order: the integer counts of
    ``_symmetrized_counts``, divided by n! once; the keys come from the
    class's digit rows, no graph built.  Refused upfront as ``_symmetrizable_table`` says."""
    table, n = _symmetrizable_table(mid, spec), spec.n
    counts, scale = _symmetrized_counts(table, spec, np.arange(spec.size)).tolist(), factorial(n)
    vectors = (ProbabilityVector(tuple(Fraction(c, scale) for c in row[1:])) for row in counts)
    # row v-1, column d: v's out-set of rank d as the bitmask DirectedGraph.key holds
    masks = np.array([[sum(1 << (u - 1) for u in s) for s in spec.admissible_outsets(v)] for v in range(1, n + 1)])
    keys = (masks[np.arange(n), digit_block(spec, np.arange(lo, hi))].tolist() for lo, hi in _blocks(0, spec.size))
    return dict(zip(map(tuple, chain.from_iterable(keys)), vectors))


@dataclass(frozen=True)
class WeakUnanimityReport:
    """Whether the symmetrization keeps full mass on positive-indegree vertices
    on every class member having a vertex of maximum possible indegree."""

    premise_holds: bool
    ok: bool
    graphs_checked: int
    detail: str = ""


def check_weak_unanimity_inheritance(mid: MechanismId, spec: GraphClassSpec) -> WeakUnanimityReport:
    """On graphs with a vertex of indegree n-1: if the base mechanism always
    selects a positive-indegree vertex there, the symmetrization must place
    mass exactly 1 on positive-indegree vertices: their relabeling counts in
    ``_symmetrized_counts`` sum to n!.  Everything is read from the outcome
    table and the class's indegree rows, scanned blockwise: the star graphs,
    the premise (the selected vertex's indegree, row 0 for none being zero)
    and each star's positive-indegree vertices.  A graph is built only to name
    a failing one.  Refused upfront as ``symmetrized_table`` is.
    """
    table, n = _symmetrizable_table(mid, spec), spec.n
    block, found, positive = _class_block(spec), [np.zeros(0, dtype=np.int64)], [np.zeros((0, n + 1), dtype=bool)]
    for lo, hi in _blocks(0, spec.size):
        deg = indegree_rows(*block(lo, hi))
        stars = np.flatnonzero((deg[1:] == n - 1).any(axis=0))
        found.append(lo + stars)
        positive.append(deg[:, stars].T >= 1)
    stars, positive = np.concatenate(found), np.concatenate(positive)
    if not positive[np.arange(len(stars)), table[stars]].all():
        detail = f"{mid.text()} does not select a positive-indegree vertex on some such graph"
        return WeakUnanimityReport(premise_holds=False, ok=True, graphs_checked=len(stars), detail=detail)
    scale = factorial(n)
    totals = (_symmetrized_counts(table, spec, stars) * positive).sum(axis=1)
    problems = [f"graph {graph_at_index(spec, i).key}: positive-indegree mass {Fraction(total, scale)} != 1"
                for i, total in zip(stars.tolist(), totals.tolist()) if total != scale]
    return WeakUnanimityReport(True, not problems, len(stars), "; ".join(problems))
