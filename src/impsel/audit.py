"""Brute-force and sampled verification of selection mechanisms.

Impartiality is checked directly against its definition: for every base graph
and every vertex, every admissible rewrite of that vertex's outgoing edges
must leave the vertex's selection status unchanged.  Every audit evaluates
the mechanism with its batch kernel, in blocks of at most ``KERNEL_BLOCK``
graphs, so no Python runs per graph and memory is bounded by the block.
Exhaustive mode fills an outcome table, the selected vertex of every graph of
a class; only that kernel pass is split across worker processes, and the
scans for violating deviation pairs and gaps are whole-table numpy.  Sampled
impartiality audits evaluate each seeded base graph's n deviation lines (v's
out-set swept, the rest fixed) and compare every graph on them with the base
graph; sampled gap audits stack the samples into blocks.  Each witness graph
is built once however many violations it is part of.

Worst additive gaps are measured in the same two modes, trace invariants are
re-derived from recorded deletion traces, and a class's symmetrization (the
selection averaged over all n! vertex relabelings) reads the outcome table as
integer counts with one division by n!, never floats: downstream
infeasibility arguments compare masses against exactly 1.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import islice, repeat
from math import factorial
from typing import Callable, Iterator, Union

import numpy as np

from ._deletion import indegree_rows, outset_rows, vertex_rows
from .graphs import (
    CapExceeded,
    DirectedGraph,
    GraphClassSpec,
    Permutation,
    deviations,  # bound only for the bench tracer, which wraps it here
    digit_block,
    enumerate_graphs,
    graph_at_index,
    graph_of_ranks,
    sample_ranks,
    sample_stream,  # bound only for the bench tracer, which wraps it here
)
from .mechanisms import Kernel, MechanismId, batch_kernel_for, kernel_for, resolve  # kernel_for: for the tracer
from .twin_threshold import DeletionTrace, ThresholdPair, additive_gap, run_twin_threshold

#: Exhaustive audits refuse classes larger than this unless their mode's `cap`
#: raises it (the outcome table holds one entry per graph); sampled
#: impartiality audits refuse base graphs whose deviation lines hold more
#: graphs, with no override.
AUDIT_CAP = 10**7

#: Graphs per batch-kernel call (table entries per stacked sampled gap
#: block); bounds the working arrays independently of the class size.
KERNEL_BLOCK = 1 << 16

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
    measure them, impartiality audits compare each with every graph on its n
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

    The two graphs agree outside the deviator's outgoing edges and are stored
    with the lexicographically smaller serialization first.
    """

    graph_a: DirectedGraph
    graph_b: DirectedGraph
    deviator: int
    selected_a: bool
    selected_b: bool

    def __post_init__(self):
        a, b, v = self.graph_a, self.graph_b, self.deviator
        if a.n != b.n or not 1 <= v <= a.n:
            raise ValueError("violation graphs must share a vertex set containing the deviator")
        for u in range(1, a.n + 1):
            if u != v and a.out_sets[u - 1] != b.out_sets[u - 1]:
                raise ValueError(f"graphs differ in the outgoing edges of {u}, not just of {v}")
        if self.selected_a == self.selected_b:
            raise ValueError("not a violation: selection status agrees")


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


def _outcome_chunk(args) -> np.ndarray:
    """Selected vertex (0 for none) of every graph with index in [start, end)."""
    mid, spec, start, end = args
    kern, block = batch_kernel_for(mid), _class_block(spec)
    return np.concatenate([kern(*block(lo, hi)) for lo, hi in _blocks(start, end)])


def _gaps(members: np.ndarray, choice: np.ndarray, selected: np.ndarray) -> np.ndarray:
    """Additive gap of every graph of a block, given the vertex each selects."""
    deg = indegree_rows(members, choice)
    return deg.max(axis=1) - deg[np.arange(len(choice)), selected]


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


def _outcome_table(mid: MechanismId, spec: GraphClassSpec, jobs: int) -> np.ndarray:
    """Entry i is the vertex selected (0 for none) on the i-th graph of a
    non-empty class.  This kernel pass is the only work split across worker
    processes, one chunk of the class each; they receive index ranges, never
    the table."""
    workers = _worker_count(jobs, spec.size)
    args = [(mid, spec, lo, hi) for lo, hi in _chunks(spec.size, workers)]
    if workers == 1:
        return _outcome_chunk(args[0])
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return np.concatenate(list(pool.map(_outcome_chunk, args)))


def _violating_pairs(table: np.ndarray, n: int, radix: int) -> Iterator[tuple[int, int, int, bool, bool]]:
    """Every violating deviation pair of the outcome table, exactly once, as
    (index_a, index_b, deviator, selected_a, selected_b) with index_a < index_b.

    Indices that differ only in vertex v's digit form a line along axis 1 of
    the (R**(v-1), R, R**(n-v)) reshape, R = radix.  Digits d1 < d2 on a line
    whose "v is selected" flags differ are one violation.
    """
    for v in range(1, n + 1):
        stride = radix ** (n - v)
        flags = (table == v).reshape(-1, radix, stride)
        for d1 in range(radix - 1):
            for d2 in range(d1 + 1, radix):
                head, tail = np.nonzero(flags[:, d1] != flags[:, d2])
                index_a = (head * radix + d1) * stride + tail
                index_b = index_a + (d2 - d1) * stride
                selected_a = flags[head, d1, tail]
                yield from zip(index_a.tolist(), index_b.tolist(), repeat(v), selected_a.tolist(), (~selected_a).tolist())


def check_impartiality(mid: MechanismId, spec: GraphClassSpec, mode: AuditMode = Exhaustive()) -> list[Violation]:
    """All impartiality violations found in the examined set, deduplicated by
    unordered graph pair and sorted canonically.  An empty list means no
    violation was found, not a proof beyond the examined set (it is a proof
    for the whole class in exhaustive mode).
    """
    mid.validate_for(spec.n)
    if isinstance(mode, Sampled):
        return _violations(_sampled_pairs(mid, spec, mode), partial(graph_of_ranks, spec))
    if _check_exhaustive_pre(spec, mode.cap) == 0:
        return []
    pairs = list(_violating_pairs(_outcome_table(mid, spec, mode.jobs), spec.n, spec.outset_count))
    return _violations(pairs, partial(graph_at_index, spec))


def _violations(pairs: list[tuple], build: Callable[..., DirectedGraph]) -> list[Violation]:
    """Violations of (a, b, deviator, selected_a, selected_b) pairs, the graph
    with the smaller serialization first, in canonical order; build(a) makes
    each witness graph, once."""
    graphs = {x: build(x) for x in {x for pair in pairs for x in pair[:2]}}
    violations = []
    for a, b, v, sel_a, sel_b in pairs:
        a, b = graphs[a], graphs[b]
        if b.serialize() < a.serialize():
            a, b, sel_a, sel_b = b, a, sel_b, sel_a
        violations.append(Violation(a, b, v, sel_a, sel_b))
    violations.sort(key=lambda w: (w.graph_a.serialize(), w.graph_b.serialize(), w.deviator))
    return violations


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


def _sampled_pairs(mid: MechanismId, spec: GraphClassSpec, mode: Sampled) -> list[tuple]:
    """Each sampled base graph against every graph on its deviation lines: one
    whose "v is selected" flag differs from the base graph's is a violating
    pair with deviator v, kept once per unordered pair.  Graphs are rank tuples."""
    n, radix = spec.n, spec.outset_count
    if n * radix > AUDIT_CAP:
        raise CapExceeded(f"deviation lines of a {spec.describe()} graph hold {n * radix} graphs, audit cap is {AUDIT_CAP}")
    kern, last = batch_kernel_for(mid), outset_rows(n, spec.admissible_outsets(n))
    found: dict[tuple, tuple] = {}
    for base in sample_ranks(spec, mode.seed, mode.trials):
        fixed = np.concatenate([vertex_rows(last[[r]], w) for w, r in enumerate(base, start=1)])
        for v, rank in enumerate(base, start=1):
            flags = _line_outcomes(kern, last, fixed, v) == v
            here = bool(flags[rank])
            for d in np.flatnonzero(flags != here).tolist():
                other = base[: v - 1] + (d,) + base[v:]
                found.setdefault((min(base, other), max(base, other), v), (base, other, v, here, not here))
    return list(found.values())


def _measure_gap_sampled(mid: MechanismId, spec: GraphClassSpec, mode: Sampled) -> GapReport:
    """Gaps of the sampled graphs, stacked into blocks whose table holds at
    most ``KERNEL_BLOCK`` entries: graph b of a block gives vertex v the
    out-set in row b*n + v-1 of the block's table."""
    kern, n = batch_kernel_for(mid), spec.n
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
        table, block = _outcome_table(mid, spec, mode.jobs), _class_block(spec)
        gaps = np.concatenate([_gaps(*block(lo, hi), table[lo:hi]) for lo, hi in _blocks(0, size)])
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

    remaining_degrees: final remaining indegrees equal the original indegrees
        minus deleted in-neighbors; deleted vertices were at or above the lower
        threshold when deleted, undeleted ones ended strictly below it.
    descent_counts: a deleted vertex's indegree drop before its own deletion
        equals its number of earlier-deleted in-neighbors.
    deletion_order: deletions happen in strictly decreasing lexicographic
        (degree-at-deletion, vertex) order.
    inneighbor_witness: a drop of r forces exactly r in-neighbors above the
        vertex in that order, the j-th of them above (original indegree - j),
        and every other in-neighbor strictly below the vertex.
    """
    selected, trace = run_twin_threshold(graph, thresholds)
    lower = thresholds.lower
    n = graph.n
    checks = []

    problems = []
    for v in range(1, n + 1):
        expect = graph.indegrees[v - 1] - sum(1 for u in graph.in_neighbors(v) if u in trace.deleted_set)
        if trace.final_degrees[v - 1] != expect:
            problems.append(f"vertex {v}: final degree {trace.final_degrees[v - 1]} != recomputed {expect}")
    for v in trace.deleted_set:
        if trace.dstar[v] < lower:
            problems.append(f"vertex {v} deleted at degree {trace.dstar[v]} < t={lower}")
    for v in range(1, n + 1):
        if v not in trace.deleted_set and trace.final_degrees[v - 1] > lower - 1:
            problems.append(f"undeleted vertex {v} ended at degree {trace.final_degrees[v - 1]} >= t={lower}")
    checks.append(TraceCheck("remaining_degrees", not problems, "; ".join(problems)))

    problems = []
    for v in trace.deleted_set:
        drop = graph.indegrees[v - 1] - trace.dstar[v]
        earlier = sum(1 for u in graph.in_neighbors(v) if trace.istar[u] < trace.istar[v])
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
    for v in sorted(trace.deleted_set):
        dv, indeg, at = trace.dstar[v], graph.indegrees[v - 1], trace.degree_at_deletion
        r = indeg - dv
        above = sorted(((at(u), u) for u in graph.in_neighbors(v) if (at(u), u) > (dv, v)), reverse=True)
        if len(above) != r:
            problems.append(f"vertex {v}: {len(above)} in-neighbors above it, expected drop {r}")
            continue
        for j, pair in enumerate(above):
            if not pair > (indeg - j, v):
                problems.append(f"vertex {v}: witness {j} at {pair} not above ({indeg - j}, {v})")
        for u in graph.in_neighbors(v):
            pair = (at(u), u)
            if pair not in above and not pair < (dv, v):
                problems.append(f"vertex {v}: in-neighbor {u} at {pair} neither witness nor below ({dv}, {v})")
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


def _check_symmetrizable(mid: MechanismId, spec: GraphClassSpec) -> None:
    """Refuse, before any graph is built, a class whose symmetrization needs
    more than ``FACTORIAL_CAP``! relabelings per graph or more than
    ``AUDIT_CAP`` graphs, and parameters the mechanism rejects for n."""
    if spec.n > FACTORIAL_CAP:
        raise CapExceeded(f"symmetrization of n={spec.n} exceeds factorial cap {FACTORIAL_CAP}")
    _check_exhaustive_pre(spec, AUDIT_CAP)
    mid.validate_for(spec.n)


def _symmetrized_counts(mid: MechanismId, spec: GraphClassSpec, indices: np.ndarray) -> np.ndarray:
    """(len(indices), n+1) int16 array: row j, column v counts the relabelings
    pi of graph indices[j] on which the mechanism selects pi(v), column 0
    those selecting nobody.  Relabeling by pi moves v's out-set S to pi(v) as
    pi(S), so graph i's image is the class graph of index
    sum_v rank(pi(S_v)) * R**(n - pi(v)): its outcome-table entry w counts for
    pi^-1(w)."""
    n, radix = spec.n, spec.outset_count
    counts = np.zeros((len(indices), n + 1), dtype=np.int16)  # n! <= 7! fits
    if len(indices) == 0:
        return counts
    table = _outcome_table(mid, spec, 1)
    rank = [{s: d for d, s in enumerate(outs)} for outs in spec.outset_lists]
    perms = [perm.images for perm in Permutation.all_of(n)]
    # row pi, column (v-1)*R + d: what v's out-set of rank d adds to the image's index
    weights = np.array([[rank[w - 1][frozenset(p[u - 1] for u in s)] * radix ** (n - w)
                         for w, outs in zip(p, spec.outset_lists) for s in outs] for p in perms])
    inverses = np.argsort(np.pad(perms, ((0, 0), (1, 0))), axis=1)  # pi^-1, with 0 (none) fixed
    for lo, hi in _blocks(0, len(indices)):
        flat, rows = digit_block(spec, indices[lo:hi]) + np.arange(n) * radix, np.arange(lo, hi)
        for weight, inverse in zip(weights, inverses):
            counts[rows, inverse[table[weight[flat].sum(axis=1)]]] += 1
    return counts


def symmetrized_table(mid: MechanismId, spec: GraphClassSpec) -> dict[tuple[int, ...], ProbabilityVector]:
    """``symmetrize_eval`` of the mechanism on every graph of a class, keyed by
    graph key in enumeration order: the integer counts of
    ``_symmetrized_counts``, divided by n! once.  Refused upfront as
    ``_check_symmetrizable`` says."""
    _check_symmetrizable(mid, spec)
    counts, scale = _symmetrized_counts(mid, spec, np.arange(spec.size)).tolist(), factorial(spec.n)
    vectors = (ProbabilityVector(tuple(Fraction(c, scale) for c in row[1:])) for row in counts)
    return {g.key: vector for g, vector in zip(enumerate_graphs(spec), vectors)}


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
    ``_symmetrized_counts`` sum to n!.  The star graphs are found blockwise
    from the class's indegree rows, and only they are built.  Refused upfront
    as ``symmetrized_table`` is.
    """
    _check_symmetrizable(mid, spec)
    mechanism, n = resolve(mid), spec.n
    block, found = _class_block(spec), []
    for lo, hi in _blocks(0, spec.size):
        found.append(lo + np.flatnonzero((indegree_rows(*block(lo, hi))[:, 1:] == n - 1).any(axis=1)))
    stars = [(i, graph_at_index(spec, i)) for i in np.concatenate(found).tolist()]
    for _, g in stars:
        v = mechanism(g)
        if v == 0 or g.indegrees[v - 1] < 1:
            detail = f"{mid.text()} does not select a positive-indegree vertex on some such graph"
            return WeakUnanimityReport(premise_holds=False, ok=True, graphs_checked=len(stars), detail=detail)
    problems, scale = [], factorial(n)
    counts = _symmetrized_counts(mid, spec, np.array([i for i, _ in stars], dtype=np.int64))
    for row, (_, g) in zip(counts, stars):
        total = int(row[[v for v in range(1, n + 1) if g.indegrees[v - 1] >= 1]].sum())
        if total != scale:
            problems.append(f"graph {g.key}: positive-indegree mass {Fraction(total, scale)} != 1")
    return WeakUnanimityReport(True, not problems, len(stars), "; ".join(problems))
