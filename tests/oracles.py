"""Independent brute-force oracles the tests check library results against.

These deliberately avoid the library's own counting and scanning shortcuts:
a vertex's admissible out-sets are listed by sorting itertools combinations
(the package only unranks them, ``GraphClassSpec.outset_at``), weak orders
are counted by enumerating level maps, isomorphism multiplicities by
relabeling out-set tuples, symmetrizations by running the per-graph rule
once per class graph and looking each relabeling up by key, impartiality
violations by running the per-graph rule once per class graph and comparing
its results across every deviation pair, found by swapping out-set bitmasks
in graph keys, additive gaps by counting indegrees graph by graph, the
iterated deletion by rescanning every vertex at each step of the sweep, and
the violating pairs of an outcome table by walking every line of it (or, for
their number, by counting each line's selecting digits).  The sampled oracles
run the same per-graph loops over the graphs ``sample_stream`` draws.
Infeasibility certificates are checked against an inequality system written
from the composition graphs, with impartiality links found by comparing every
pair of graphs; the compositions in their order and their transition edges
are written as part tuples, by the successor rule and the block merge, where
the package walks rank bits.

Symmetrization has no library counterpart: ``symmetrized_by_definition``
(each graph's vector a tuple of ``Fraction``s) is the project's only one, and
the tests assert its laws on it directly, weak unanimity through
``weak_unanimity_by_definition``.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product
from math import factorial

import numpy as np

from impsel import (
    Certificate,
    CertificateRow,
    DirectedGraph,
    GraphClassSpec,
    Violation,
    additive_gap,
    graph_at_index,
    graph_of_composition,
    sample_stream,
)
from impsel.graphs import deviations


def class_graphs(spec: GraphClassSpec) -> Iterator[DirectedGraph]:
    """Every graph of the class in the documented order, one ``graph_at_index`` per index."""
    return (graph_at_index(spec, index) for index in range(spec.size))


def admissible_outsets(spec: GraphClassSpec, v: int) -> list[tuple[int, ...]]:
    """Vertex v's admissible out-sets in the documented order, written from
    it: the subsets of the other vertices with min_outdegree..bound members,
    each a sorted member tuple, in sorted order (abstention first when
    admissible)."""
    others = [u for u in range(1, spec.n + 1) if u != v]
    return sorted(s for size in range(spec.min_outdegree, spec.bound + 1) for s in combinations(others, size))


def relabeled_key(graph: DirectedGraph, images) -> tuple[int, ...]:
    """Key of the image of `graph` under the relabeling v -> images[v-1]: edge
    (u, w) becomes (images[u-1], images[w-1]), so vertex images[v-1] gets the
    images of v's out-set, as a bitmask (bit x-1 for vertex x)."""
    key = [0] * graph.n
    for v, outs in enumerate(graph.out_sets):
        key[images[v] - 1] = sum(1 << (images[w - 1] - 1) for w in outs)
    return tuple(key)


@cache
def _relabelings(spec: GraphClassSpec) -> tuple[tuple, tuple, tuple]:
    """The class graphs, every permutation of 1..n as its images, and for each
    graph the keys of its images under the permutations, in their order; the
    same for every mechanism, so made once per class."""
    graphs, perms = tuple(class_graphs(spec)), tuple(permutations(range(1, spec.n + 1)))
    return graphs, perms, tuple(tuple(relabeled_key(g, images) for images in perms) for g in graphs)


def symmetrized_by_definition(mechanism, spec: GraphClassSpec) -> dict[tuple[int, ...], tuple[Fraction, ...]]:
    """Each class graph's selection averaged over all n! vertex relabelings,
    keyed by graph key in class order: entry v is the share of relabelings pi
    on whose image of the graph `mechanism` (graph -> selected vertex, 0 for
    none) selects pi(v).  The rule runs once per class graph; a relabeled
    class graph is again a class graph, so each image's selection is a key
    lookup.  Counts are divided by n! once."""
    graphs, perms, image_keys = _relabelings(spec)
    selected = {g.key: mechanism(g) for g in graphs}
    scale, table = factorial(spec.n), {}
    for g, keys in zip(graphs, image_keys):
        counts = [0] * (spec.n + 1)  # entry v for vertex v, 0 for no selection
        for images, key in zip(perms, keys):
            w = selected[key]
            counts[images.index(w) + 1 if w else 0] += 1  # the v with pi(v) = w
        table[g.key] = tuple(Fraction(c, scale) for c in counts[1:])
    return table


def weak_unanimity_by_definition(mechanism, spec: GraphClassSpec, table: dict) -> tuple[bool, int, list[str]]:
    """Weak unanimity as the symmetrization `table` of `mechanism` (graph ->
    selected vertex, 0 for none) inherits it: on the class graphs with a
    vertex of indegree n-1 (stars), if the mechanism selects a
    positive-indegree vertex on every star, each star's vector must put mass
    exactly 1 on its positive-indegree vertices.  Indegrees are counted here
    from the out-sets.  Returns whether that premise holds, the number of
    stars, and one problem per star whose mass is not 1 (none when the
    premise fails: the law then asks nothing)."""
    stars = []
    for g in class_graphs(spec):
        deg = [sum(u in outs for outs in g.out_sets) for u in range(1, spec.n + 1)]
        if spec.n - 1 in deg:
            stars.append((g, [d > 0 for d in deg]))
    selected = [mechanism(g) for g, _ in stars]
    if not all(v and positive[v - 1] for (_, positive), v in zip(stars, selected)):
        return False, len(stars), []
    masses = [(g, sum(p for p, pos in zip(table[g.key], positive) if pos)) for g, positive in stars]
    return True, len(stars), [f"graph {g.key}: positive-indegree mass {mass} != 1" for g, mass in masses if mass != 1]


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
        seen.add(relabeled_key(graph, images))
    return len(seen)


def deletion_by_definition(graph: DirectedGraph, t: int) -> tuple[list[int], list[tuple[int, int, int]]]:
    """``run_deletion`` straight from the definition: at each step, rescan all
    vertices for the greatest-index undeleted one at remaining indegree d,
    stepping d down when there is none."""
    deg = list(graph.indegrees)
    d = max(deg)
    deleted = [False] * graph.n
    deletions: list[tuple[int, int, int]] = []
    i = 0
    while d >= t:
        v = 0
        for u in range(graph.n - 1, -1, -1):  # u is vertex u+1's index
            if deg[u] == d and not deleted[u]:
                v = u + 1
                break
        if v == 0:
            d -= 1
            continue
        deletions.append((i, v, d))
        deleted[v - 1] = True
        for u in graph.out_sets[v - 1]:
            deg[u - 1] -= 1
        i += 1
    return deg, deletions


def violations_by_definition(mechanism, spec: GraphClassSpec) -> set[tuple]:
    """Unordered impartiality-violation triples straight from the definition.

    `mechanism` maps a graph to the selected vertex, 0 for none.  It runs
    once per class graph; a deviation of v is the base key with v's out-set
    bitmask swapped for another admissible one, a class graph again, so its
    selection is a key lookup.  Returns canonical triples (smaller graph
    key, larger graph key, deviator).
    """
    selected = {g.key: mechanism(g) for g in class_graphs(spec)}
    masks = [[sum(1 << (u - 1) for u in s) for s in admissible_outsets(spec, v)] for v in range(1, spec.n + 1)]
    found = set()
    for key, chosen in selected.items():
        for v in range(1, spec.n + 1):
            here = chosen == v
            for mask in masks[v - 1]:
                other = (*key[: v - 1], mask, *key[v:])
                if other != key and (selected[other] == v) != here:
                    found.add((min(key, other), max(key, other), v))
    return found


def gap_by_definition(mechanism, spec: GraphClassSpec) -> tuple[int, DirectedGraph]:
    """Maximum additive gap over the class and the first graph attaining it.

    `mechanism` maps a graph to the selected vertex.  A graph's gap is its maximum
    indegree minus the selected vertex's indegree (0 when nothing is
    selected), with indegrees counted here from the out-sets.
    """
    best = None
    for graph in class_graphs(spec):
        deg = [sum(u in outs for outs in graph.out_sets) for u in range(1, spec.n + 1)]
        v = mechanism(graph)
        gap = max(deg) - (deg[v - 1] if v else 0)
        if best is None or gap > best[0]:
            best = (gap, graph)
    return best


def sampled_violations_by_definition(mechanism, spec: GraphClassSpec, seed: int, trials: int) -> list[Violation]:
    """The violations a sampled impartiality audit reports, by running
    `mechanism` (graph -> selected vertex, 0 for none) on every deviation of every vertex of each
    sampled base graph: one per unordered pair and deviator, the graph with
    the smaller serialization first, sorted by (graph_a, graph_b, deviator)
    serializations."""
    seen: set[tuple] = set()
    violations: list[Violation] = []
    for base in sample_stream(spec, seed, trials):
        base_sel = mechanism(base)
        for v in range(1, spec.n + 1):
            here = base_sel == v
            for other in deviations(base, v, spec):
                if other.key == base.key:
                    continue
                there = mechanism(other) == v
                if there == here:
                    continue
                dedup = (min(base.key, other.key), max(base.key, other.key), v)
                if dedup in seen:
                    continue
                seen.add(dedup)
                text_base, text_other = base.serialize(), other.serialize()
                if text_other < text_base:
                    violations.append(Violation(text_other, text_base, v, there))
                else:
                    violations.append(Violation(text_base, text_other, v, here))
    return canonical_order(violations)


def same_outside_deviator(text_a: str, text_b: str, deviator: int) -> bool:
    """Whether two graph texts have the same lines once every line of the
    deviator's own edges, ``e <deviator> ...``, is filtered out of each, by
    list filters over the split lines: ``Violation``'s contract."""
    own = f"e {deviator} "
    return [x for x in text_a.split("\n") if not x.startswith(own)] == [
        x for x in text_b.split("\n") if not x.startswith(own)
    ]


def fresh_text(graph: DirectedGraph) -> str:
    """The canonical text of `graph` written straight from its out-sets,
    without ``serialize``."""
    edges = sorted((v, u) for v, outs in enumerate(graph.out_sets, start=1) for u in outs)
    return f"n {graph.n}\n" + "".join(f"e {v} {u}\n" for v, u in edges)


def canonical_order(violations: list[Violation]) -> list[Violation]:
    """Violations sorted by (graph_a, graph_b) serializations, each computed
    afresh, then deviator: the order every audit reports."""
    return sorted(violations, key=lambda w: (fresh_text(w.graph_a), fresh_text(w.graph_b), w.deviator))


def violating_pairs_by_full_scan(table: np.ndarray, n: int, radix: int) -> list[tuple]:
    """(index_a, index_b, deviator, selected_a, selected_b) of every violating
    deviation pair of an outcome table, walking every line of every vertex:
    for each v, each digit pair d1 < d2 of v, and each line in index order,
    the pair is kept when the two "v is selected" flags differ."""
    pairs = []
    for v in range(1, n + 1):
        stride = radix ** (n - v)
        flags = (table == v).reshape(-1, radix, stride)
        for d1 in range(radix - 1):
            for d2 in range(d1 + 1, radix):
                head, tail = np.nonzero(flags[:, d1] != flags[:, d2])
                for h, t in zip(head.tolist(), tail.tolist()):
                    index_a = (h * radix + d1) * stride + t
                    selected_a = bool(flags[h, d1, t])
                    pairs.append((index_a, index_a + (d2 - d1) * stride, v, selected_a, not selected_a))
    return pairs


def violation_count_by_lines(table: np.ndarray, n: int, radix: int) -> int:
    """Number of violating deviation pairs of an outcome table, counted
    without listing any: on a line of indices that differ only in vertex v's
    digit, s of the R digits select v, and each of them against each of the
    other R - s is one violating pair with deviator v."""
    total = 0
    for v in range(1, n + 1):
        s = (table == v).reshape(-1, radix, radix ** (n - v)).sum(axis=1, dtype=np.int64)
        total += int((s * (radix - s)).sum())
    return total


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


def _compositions(n: int) -> list[tuple[int, ...]]:
    """Every composition of n as its part tuple, one per set of cut points in
    1..n-1."""
    comps = []
    for k in range(n):
        for cuts in combinations(range(1, n), k):
            bounds = (0, *cuts, n)
            comps.append(tuple(b - a for a, b in zip(bounds, bounds[1:])))
    return comps


def successor_compositions(n: int) -> Iterator[tuple[int, ...]]:
    """The compositions of n in lexicographic order by the successor rule: the
    next composition drops the last part s, adds 1 to the part before it and
    appends s - 1 ones."""
    parts = (1,) * n
    yield parts
    while len(parts) > 1:
        s = parts[-1]
        parts = parts[:-2] + (parts[-2] + 1,) + (1,) * (s - 1)
        yield parts


def merges(parts: tuple[int, ...]) -> Iterator[tuple[int, tuple[int, ...]]]:
    """The transitions out of one composition as part tuples: each singleton
    block j >= 2 merges into block j-1.  Yields (j, merged parts) in
    increasing j."""
    for j in range(2, len(parts) + 1):
        if parts[j - 1] == 1:
            yield j, parts[: j - 2] + (parts[j - 2] + 1,) + parts[j:]


def transitions(n: int) -> list[tuple[tuple[int, ...], int, tuple[int, ...]]]:
    """Every transition edge p --j--> q of the compositions of n as (p, j, q),
    by p in lexicographic order and then j."""
    return [(p, j, q) for p in successor_compositions(n) for j, q in merges(p)]


def composition_links(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """Impartiality links among composition graphs on n vertices, by comparing
    every pair: (parts a, parts b, v) when the two graphs' out-sets differ at
    vertex v alone, so an impartial rule selects v with the same probability
    in both."""
    graphs = [(p, graph_of_composition(p).out_sets) for p in _compositions(n)]
    links = []
    for (a, outs_a), (b, outs_b) in combinations(graphs, 2):
        differ = [v for v in range(1, n + 1) if outs_a[v - 1] != outs_b[v - 1]]
        if len(differ) == 1:
            links.append((a, b, differ[0]))
    return links


def certificate_problems(
    cert: Certificate, links: list[tuple] | None = None, rows: list[CertificateRow] | None = None
) -> list[str]:
    """Why `cert` does not prove infeasibility, checked from the definition
    (an empty list when it does).

    Each composition graph carries one variable per (composition, block): the
    probability that a vertex of that block is selected, the same for all of
    the block since permutations inside a block are automorphisms.  The rows
    are "mass <= 1" and, because the last block is nominated by everybody,
    "mass on positive-indegree vertices >= 1".  A row of sense at_most_one
    takes a multiplier >= 0 and one of sense at_least_one a multiplier <= 0,
    so each row scaled reads (coefficients . x) <= multiplier.  Variables
    joined by `links` (default: ``composition_links(cert.n)``) are equal.
    `rows` (default: ``cert.rows()``) stands in for the certificate's rows.
    Summed, every linked class must cancel exactly and every other variable
    must keep a coefficient >= 0, so the sum is >= 0 for nonnegative x, while
    the constants add up to a negative number.
    """
    n = cert.n
    links = composition_links(n) if links is None else links
    rows = list(cert.rows()) if rows is None else rows
    problems = []
    block_of = {}  # (parts, vertex) -> variable
    graphs = {}
    for p in _compositions(n):
        g = graph_of_composition(p)
        graphs[p] = g
        start = 1
        for b, size in enumerate(p, start=1):
            block = range(start, start + size)  # block b: the next s_b vertices
            start += size
            block_of.update(((p, v), (p, b)) for v in block)
            for v in block[:-1]:  # adjacent transpositions generate the block's permutations
                images = list(range(1, n + 1))
                images[v - 1], images[v] = v + 1, v
                if relabeled_key(g, images) != g.key:
                    problems.append(f"{p}: swapping {v} and {v + 1} is not an automorphism")
        if max(g.indegrees) != n - 1:
            problems.append(f"{p}: nobody is nominated by everybody")
    if sorted(row.composition for row in rows) != sorted(graphs):
        problems.append("certificate rows are not one per composition")

    parent = {var: var for var in block_of.values()}

    def find(var):
        while parent[var] != var:
            parent[var] = parent[parent[var]]
            var = parent[var]
        return var

    linked = set()
    for a, b, v in links:
        x, y = block_of[(a, v)], block_of[(b, v)]
        linked.update((x, y))
        parent[find(x)] = find(y)

    total: dict = {}
    constant = 0
    for row in rows:
        parts, m = row.composition, row.multiplier
        if row.sense == "at_most_one":
            if m < 0:
                problems.append(f"{parts}: at_most_one row with multiplier {m}")
            counted = range(1, n + 1)
        elif row.sense == "at_least_one":
            if m > 0:
                problems.append(f"{parts}: at_least_one row with multiplier {m}")
            counted = [v for v in range(1, n + 1) if graphs[parts].indegrees[v - 1] > 0]
        else:
            problems.append(f"{parts}: unknown sense {row.sense!r}")
            continue
        for v in counted:
            var = find(block_of[(parts, v)])
            total[var] = total.get(var, 0) + m
        constant += m

    linked_roots = {find(var) for var in linked}
    for root in sorted({find(var) for var in parent}):
        coefficient = total.get(root, 0)
        if coefficient < 0 or (root in linked_roots and coefficient != 0):
            problems.append(f"class of {root}: coefficient {coefficient}")
    if constant >= 0:
        problems.append(f"constants sum to {constant}, no contradiction")
    if constant != cert.rhs_total:
        problems.append(f"constants sum to {constant}, certificate says {cert.rhs_total}")
    return problems
