"""Brute-force and sampled verification of selection mechanisms.

Impartiality is checked directly against its definition: for every base graph
and every vertex, every admissible rewrite of that vertex's outgoing edges
must leave the vertex's selection status unchanged.  Exhaustive mode fills an
outcome table, the selected vertex of every graph of a class, with the
mechanism's batch kernel: index ranges are evaluated in blocks of
``KERNEL_BLOCK`` graphs, each a numpy pass over the block's out-set ranks, so
no Python runs per graph and memory beyond the table is bounded by the block.
Only that kernel pass is split across worker processes, and results are
independent of the worker count.  Both scans over the table, for violating
deviation pairs and for additive gaps, are whole-table numpy operations, and
each witness graph is unranked once however many violations it is part of.
Sampled mode draws seeded base graphs and still checks all of their
deviations.

Worst additive gaps are measured in the same two modes, trace invariants are
re-derived from recorded deletion traces, and randomized lifts/symmetrizations
are evaluated in exact rational arithmetic (never floating point: downstream
infeasibility arguments compare masses against exactly 1).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import factorial
from typing import Callable, Iterator, Union

import numpy as np

from ._deletion import membership_array
from .graphs import (
    CapExceeded,
    DirectedGraph,
    GraphClassSpec,
    Permutation,
    deviations,
    digit_block,
    enumerate_graphs,
    graph_at_index,
    sample_stream,
)
from .mechanisms import MechanismId, Outcome, batch_kernel_for, kernel_for, resolve
from .twin_threshold import DeletionTrace, ThresholdPair, additive_gap, run_twin_threshold

#: Exhaustive audits refuse classes larger than this by default (memory: the
#: outcome table holds one entry per graph).  Override per call.
AUDIT_CAP = 10**7

#: Graphs per batch-kernel call in exhaustive audits; bounds the working
#: arrays (a few (block, n+1) int8 arrays) independently of the class size.
KERNEL_BLOCK = 1 << 16

#: Symmetrization enumerates all n! vertex permutations; refuse past this n.
FACTORIAL_CAP = 7


@dataclass(frozen=True)
class Exhaustive:
    """Examine every graph of the class and every deviation of every vertex."""

    def describe(self) -> str:
        return "exhaustive"


@dataclass(frozen=True)
class Sampled:
    """Examine `trials` seeded uniform base graphs (all deviations of each)."""

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
# exhaustive scans: one kernel pass, then whole-table numpy
# ---------------------------------------------------------------------------


def _outcome_chunk(args) -> np.ndarray:
    """Selected vertex (0 for none) of every graph with index in [start, end),
    by the batch kernel, ``KERNEL_BLOCK`` graphs at a time."""
    mid, spec, start, end = args
    kern = batch_kernel_for(mid)
    members = membership_array(spec.n, spec.outset_lists)
    out = np.empty(end - start, np.int8)
    for lo in range(start, end, KERNEL_BLOCK):
        hi = min(lo + KERNEL_BLOCK, end)
        out[lo - start : hi - start] = kern(members, digit_block(spec, lo, hi))
    return out


def _chunks(size: int, jobs: int) -> list[tuple[int, int]]:
    step = (size + jobs - 1) // jobs
    return [(lo, min(lo + step, size)) for lo in range(0, size, step)]


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")


def _worker_count(jobs: int, chunks: int) -> int:
    """Worker processes for `chunks` chunks: never more than asked for, than
    there are usable CPUs (the affinity mask where the platform has one), or
    than there are chunks."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(jobs, cpus, chunks)


def _check_exhaustive_pre(spec: GraphClassSpec, cap: int) -> int:
    size = spec.size
    if size > cap:
        raise CapExceeded(f"class {spec.describe()} has {size} graphs, audit cap is {cap}")
    return size


def _outcome_table(mid: MechanismId, spec: GraphClassSpec, jobs: int) -> np.ndarray:
    """Entry i is the vertex selected (0 for none) on the i-th graph of a
    non-empty class.  This kernel pass is the only work split across worker
    processes; they receive index ranges, never the table."""
    args = [(mid, spec, lo, hi) for lo, hi in _chunks(spec.size, jobs)]
    workers = _worker_count(jobs, len(args))
    if workers == 1:
        return np.concatenate([_outcome_chunk(a) for a in args])
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
                yield from zip(
                    index_a.tolist(), index_b.tolist(), repeat(v), selected_a.tolist(), (~selected_a).tolist()
                )


def _gap_table(spec: GraphClassSpec, table: np.ndarray) -> np.ndarray:
    """Additive gap of every graph of the class, from its outcome table.

    Vertex u's indegree across the class is the sum, over the other vertices
    v, of "u is in v's out-set" broadcast along v's digit axis.  Only the
    running maximum indegree and the selected vertex's indegree are kept.
    """
    n, radix = spec.n, spec.outset_count
    members = membership_array(n, spec.outset_lists)
    top = np.zeros_like(table)
    chosen = np.zeros_like(table)
    for u in range(1, n + 1):
        deg = np.zeros_like(table)
        for v in spec.targets(u):
            lines = deg.reshape(-1, radix, radix ** (n - v))
            lines += members[v - 1, :, u, None]
        np.maximum(top, deg, out=top)
        np.copyto(chosen, deg, where=table == u)
    return top - chosen


def check_impartiality(
    mid: MechanismId,
    spec: GraphClassSpec,
    mode: AuditMode = Exhaustive(),
    *,
    cap: int = AUDIT_CAP,
    jobs: int = 1,
) -> list[Violation]:
    """All impartiality violations found in the examined set, deduplicated by
    unordered graph pair and sorted canonically.  An empty list means no
    violation was found, not a proof beyond the examined set (it is a proof
    for the whole class in exhaustive mode).
    """
    mid.validate_for(spec.n)
    _check_jobs(jobs)
    if isinstance(mode, Sampled):
        return _check_impartiality_sampled(mid, spec, mode)
    if _check_exhaustive_pre(spec, cap) == 0:
        return []
    pairs = list(_violating_pairs(_outcome_table(mid, spec, jobs), spec.n, spec.outset_count))
    witnesses = {i: graph_at_index(spec, i) for i in {i for pair in pairs for i in pair[:2]}}
    violations = [
        _orient_violation(witnesses[ia], witnesses[ib], vtx, sel_a, sel_b) for ia, ib, vtx, sel_a, sel_b in pairs
    ]
    violations.sort(key=_canonical_order)
    return violations


def _canonical_order(w: Violation) -> tuple[str, str, int]:
    return w.graph_a.serialize(), w.graph_b.serialize(), w.deviator


def _orient_violation(a: DirectedGraph, b: DirectedGraph, vtx: int, sel_a: bool, sel_b: bool) -> Violation:
    if b.serialize() < a.serialize():
        a, b, sel_a, sel_b = b, a, sel_b, sel_a
    return Violation(a, b, vtx, sel_a, sel_b)


def _check_impartiality_sampled(mid: MechanismId, spec: GraphClassSpec, mode: Sampled) -> list[Violation]:
    mechanism = resolve(mid)
    seen: set[tuple] = set()
    violations: list[Violation] = []
    for base in sample_stream(spec, mode.seed, mode.trials):
        base_sel = mechanism(base).vertex
        for v in range(1, spec.n + 1):
            here = base_sel == v
            for other in deviations(base, v, spec):
                if other.key == base.key:
                    continue
                there = mechanism(other).vertex == v
                if there == here:
                    continue
                dedup = (min(base.key, other.key), max(base.key, other.key), v)
                if dedup in seen:
                    continue
                seen.add(dedup)
                violations.append(_orient_violation(base, other, v, here, there))
    violations.sort(key=_canonical_order)
    return violations


def measure_gap(
    mid: MechanismId,
    spec: GraphClassSpec,
    mode: AuditMode = Exhaustive(),
    *,
    cap: int = AUDIT_CAP,
    jobs: int = 1,
) -> GapReport:
    """Worst additive gap over the examined graphs, with its witness.

    Ties between witnesses resolve to the smallest enumeration index, so the
    report does not depend on the worker count.
    """
    mid.validate_for(spec.n)
    _check_jobs(jobs)
    mechanism = resolve(mid)
    if isinstance(mode, Sampled):
        best_gap, witness = -1, None
        count = 0
        for graph in sample_stream(spec, mode.seed, mode.trials):
            gap = additive_gap(graph, mechanism(graph))
            if gap > best_gap:
                best_gap, witness = gap, graph
            count += 1
        if witness is None:
            raise RuntimeError("sampled gap audit needs at least one trial")
        report = GapReport(best_gap, witness, count, mode.describe())
    else:
        size = _check_exhaustive_pre(spec, cap)
        if size == 0:
            raise ValueError(f"class {spec.describe()} is empty, no gap to measure")
        gaps = _gap_table(spec, _outcome_table(mid, spec, jobs))
        best_idx = int(np.argmax(gaps))  # the first maximum: the smallest index
        report = GapReport(int(gaps[best_idx]), graph_at_index(spec, best_idx), size, mode.describe())
    check = additive_gap(report.witness, mechanism(report.witness))
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
    outcome: Outcome
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
    outcome, trace = run_twin_threshold(graph, thresholds)
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
        dv = trace.dstar[v]
        indeg = graph.indegrees[v - 1]
        r = indeg - dv
        above = sorted(
            (
                (trace.degree_at_deletion(u), u)
                for u in graph.in_neighbors(v)
                if (trace.degree_at_deletion(u), u) > (dv, v)
            ),
            reverse=True,
        )
        if len(above) != r:
            problems.append(f"vertex {v}: {len(above)} in-neighbors above it, expected drop {r}")
            continue
        for j, pair in enumerate(above):
            if not pair > (indeg - j, v):
                problems.append(f"vertex {v}: witness {j} at {pair} not above ({indeg - j}, {v})")
        for u in graph.in_neighbors(v):
            pair = (trace.degree_at_deletion(u), u)
            if pair not in above and not pair < (dv, v):
                problems.append(f"vertex {v}: in-neighbor {u} at {pair} neither witness nor below ({dv}, {v})")
    checks.append(TraceCheck("inneighbor_witness", not problems, "; ".join(problems)))

    return TraceReport(thresholds, outcome, trace, tuple(checks))


# ---------------------------------------------------------------------------
# randomized lifts and symmetrization (exact rationals)
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


Randomized = Callable[[DirectedGraph], ProbabilityVector]


def lift_deterministic(mechanism: MechanismId | Callable[[DirectedGraph], Outcome]) -> Randomized:
    """Degenerate randomized view of a deterministic mechanism: probability 1
    on the selected vertex, all-zero when nothing is selected."""
    f = resolve(mechanism) if isinstance(mechanism, MechanismId) else mechanism

    def randomized(graph: DirectedGraph) -> ProbabilityVector:
        v = f(graph).vertex
        probs = [Fraction(0)] * graph.n
        if v is not None:
            probs[v - 1] = Fraction(1)
        return ProbabilityVector(tuple(probs))

    return randomized


def symmetrize_eval(randomized: Randomized, graph: DirectedGraph, cap: int = FACTORIAL_CAP) -> ProbabilityVector:
    """Average the mechanism over all n! vertex relabelings, exactly.

    Entry v is (1/n!) times the sum over permutations pi of the probability the
    mechanism puts on pi(v) when run on the relabeled graph.
    """
    n = graph.n
    if n > cap:
        raise CapExceeded(f"symmetrization of n={n} exceeds factorial cap {cap}")
    totals = [Fraction(0)] * n
    cache: dict[tuple[int, ...], ProbabilityVector] = {}
    for perm in Permutation.all_of(n):
        relabeled = graph.relabel(perm)
        vector = cache.get(relabeled.key)
        if vector is None:
            vector = randomized(relabeled)
            cache[relabeled.key] = vector
        images = perm.images
        for v in range(1, n + 1):
            totals[v - 1] += vector.probs[images[v - 1] - 1]
    scale = factorial(n)
    return ProbabilityVector(tuple(p / scale for p in totals))


def symmetrized_table(
    mid: MechanismId, spec: GraphClassSpec, cap: int = FACTORIAL_CAP
) -> dict[tuple[int, ...], ProbabilityVector]:
    """Symmetrized vectors for every graph of a class, keyed by graph key.

    Classes are closed under relabeling, so one outcome pass over the class
    serves all n! relabelings of every member.  Classes larger than
    ``AUDIT_CAP`` are refused before any graph is built.
    """
    if spec.n > cap:
        raise CapExceeded(f"symmetrization of n={spec.n} exceeds factorial cap {cap}")
    _check_exhaustive_pre(spec, AUDIT_CAP)
    mid.validate_for(spec.n)
    kern = kernel_for(mid)
    n = spec.n
    graphs = list(enumerate_graphs(spec))
    selected = {g.key: kern(n, g.out_tuples) for g in graphs}
    perms = [(perm, perm.inverse()) for perm in Permutation.all_of(n)]
    scale = factorial(n)
    table: dict[tuple[int, ...], ProbabilityVector] = {}
    for g in graphs:
        counts = [0] * n
        for perm, inverse in perms:
            s = selected[g.relabel(perm).key]
            if s:
                counts[inverse(s) - 1] += 1
        table[g.key] = ProbabilityVector(tuple(Fraction(c, scale) for c in counts))
    return table


@dataclass(frozen=True)
class WeakUnanimityReport:
    """Whether the symmetrization keeps full mass on positive-indegree vertices
    on every class member having a vertex of maximum possible indegree."""

    premise_holds: bool
    ok: bool
    graphs_checked: int
    detail: str = ""


def check_weak_unanimity_inheritance(
    mid: MechanismId, spec: GraphClassSpec, cap: int = FACTORIAL_CAP
) -> WeakUnanimityReport:
    """On graphs with a vertex of indegree n-1: if the base mechanism always
    selects a positive-indegree vertex there, its symmetrization must place
    mass exactly 1 on positive-indegree vertices (checked in exact rationals).
    """
    mechanism = resolve(mid)
    lifted = lift_deterministic(mid)
    n = spec.n
    stars = [g for g in enumerate_graphs(spec) if g.max_indegree == n - 1]
    for g in stars:
        v = mechanism(g).vertex
        if v is None or g.indegrees[v - 1] < 1:
            return WeakUnanimityReport(
                premise_holds=False,
                ok=True,
                graphs_checked=len(stars),
                detail=f"{mid.text()} does not select a positive-indegree vertex on some such graph",
            )
    problems = []
    for g in stars:
        vector = symmetrize_eval(lifted, g, cap)
        mass = sum((vector.prob(v) for v in range(1, n + 1) if g.indegrees[v - 1] >= 1), Fraction(0))
        if mass != 1:
            problems.append(f"graph {g.key}: positive-indegree mass {mass} != 1")
    return WeakUnanimityReport(True, not problems, len(stars), "; ".join(problems))
