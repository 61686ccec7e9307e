"""Independent brute-force oracles the tests check library results against.

These deliberately avoid the library's own counting and scanning shortcuts:
weak orders are counted by enumerating level maps, isomorphism multiplicities
by relabeling, impartiality violations by literally comparing mechanism runs
across deviation pairs of graph objects, and additive gaps by counting
indegrees graph by graph.  The sampled oracles run the same per-graph loops
over the graphs ``sample_stream`` draws.
"""

from __future__ import annotations

from itertools import permutations, product

from impsel import (
    DirectedGraph,
    GraphClassSpec,
    Permutation,
    Violation,
    additive_gap,
    deviations,
    enumerate_graphs,
    sample_stream,
)


def count_weak_orders(n: int) -> int:
    """Number of weak orders on n elements, by enumerating all level maps.

    A weak order is a ranking with ties: a function onto an initial segment
    {1, ..., k} of the positive integers.
    """
    count = 0
    for levels in product(range(1, n + 1), repeat=n):
        if set(levels) == set(range(1, max(levels) + 1)):
            count += 1
    return count


def count_isomorphic_labelings(graph: DirectedGraph) -> int:
    """Number of distinct graphs obtained by relabeling the vertices."""
    seen = set()
    for images in permutations(range(1, graph.n + 1)):
        seen.add(graph.relabel(Permutation(images)).key)
    return len(seen)


def violations_by_definition(mechanism, spec: GraphClassSpec) -> set[tuple]:
    """Unordered impartiality-violation triples straight from the definition.

    `mechanism` maps a graph to an Outcome.  Returns canonical triples
    (smaller graph key, larger graph key, deviator).
    """
    found = set()
    for base in enumerate_graphs(spec):
        selected = mechanism(base).vertex
        for v in range(1, spec.n + 1):
            here = selected == v
            for other in deviations(base, v, spec):
                if other.key == base.key:
                    continue
                if (mechanism(other).vertex == v) != here:
                    found.add((min(base.key, other.key), max(base.key, other.key), v))
    return found


def gap_by_definition(mechanism, spec: GraphClassSpec) -> tuple[int, DirectedGraph]:
    """Maximum additive gap over the class and the first graph attaining it.

    `mechanism` maps a graph to an Outcome.  A graph's gap is its maximum
    indegree minus the selected vertex's indegree (0 when nothing is
    selected), with indegrees counted here from the out-sets.
    """
    best = None
    for graph in enumerate_graphs(spec):
        deg = [sum(u in outs for outs in graph.out_sets) for u in range(1, spec.n + 1)]
        v = mechanism(graph).vertex
        gap = max(deg) - (deg[v - 1] if v else 0)
        if best is None or gap > best[0]:
            best = (gap, graph)
    return best


def sampled_violations_by_definition(mechanism, spec: GraphClassSpec, seed: int, trials: int) -> list[Violation]:
    """The violations a sampled impartiality audit reports, by running
    `mechanism` (graph -> Outcome) on every deviation of every vertex of each
    sampled base graph: one per unordered pair and deviator, the graph with
    the smaller serialization first, sorted by (graph_a, graph_b, deviator)
    serializations."""
    seen: set[tuple] = set()
    violations: list[Violation] = []
    for base in sample_stream(spec, seed, trials):
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
                if other.serialize() < base.serialize():
                    violations.append(Violation(other, base, v, there, here))
                else:
                    violations.append(Violation(base, other, v, here, there))
    violations.sort(key=lambda w: (w.graph_a.serialize(), w.graph_b.serialize(), w.deviator))
    return violations


def sampled_gap_by_definition(
    mechanism, spec: GraphClassSpec, seed: int, trials: int
) -> tuple[int, DirectedGraph, int]:
    """Worst additive gap over the sampled graphs, the first sample attaining
    it, and the number of graphs checked."""
    best_gap, witness = -1, None
    count = 0
    for graph in sample_stream(spec, seed, trials):
        gap = additive_gap(graph, mechanism(graph))
        if gap > best_gap:
            best_gap, witness = gap, graph
        count += 1
    return best_gap, witness, count
