"""Independent brute-force oracles the tests check library results against.

These deliberately avoid the library's own counting and scanning shortcuts:
weak orders are counted by enumerating level maps, isomorphism multiplicities
by relabeling, impartiality violations by literally comparing mechanism runs
across deviation pairs of graph objects, and additive gaps by counting
indegrees graph by graph.
"""

from __future__ import annotations

from itertools import permutations, product

from impsel import DirectedGraph, GraphClassSpec, Permutation, deviations, enumerate_graphs


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
