"""Ordered-partition graphs, their transition structure, and exact infeasibility
certificates.

A composition of n is its tuple of positive parts (s_1, ..., s_r).  It
generates the graph on consecutive vertex blocks where every vertex points to
everything in its own and later blocks.
The number of labeled graphs isomorphic to that generated graph is the
multinomial n!/prod(s_i!), and the sum of those multiplicities over all 2^(n-1)
compositions counts weak orders.

Merging a singleton block into its left neighbor is a transition, and the
transition edges pair the (composition, block) terms of two inequality
families - selection mass at most 1, and full mass on nominated vertices when
someone is nominated by everybody: p --j--> q pairs (p, j) with (q, j-1).
``build_certificate`` signs each row by its multinomial weight and proves, in
one pass over the compositions as they stream past, that every term is paired
once and that each pair cancels, while the constants sum to an odd negative
number; it keeps counters, not rows, and ``Certificate.rows()`` streams the
rows again when they are wanted.  The resulting ``Certificate`` is an
exact-arithmetic proof that no selection rule satisfies both families
(``certificate_problems`` in ``tests/oracles.py`` re-checks it from the
graphs); the reductions at the bottom transport it to bounded-outdegree and
no-abstention settings.

All arithmetic is arbitrary-precision integer or exact rational; floating
point never enters any comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial, prod
from typing import Iterator

import numpy as np

from .audit import Check
from .graphs import CapExceeded, DirectedGraph

#: Composition streams are refused past this n by default.  The cap bounds
#: time, not memory: the 2^(n-1) compositions stream past one at a time, so
#: time doubles per +1 in n while memory stays flat.  Measured with
#: ``impsel partitions --n N --certificate --json`` on 2 CPUs:
#: n=20 takes 23 s, n=21 (the largest default run) 45 s and n=22 92 s, all
#: near a 32 MB peak, with 153, 314 and 644 MB of JSON.
COMPOSITION_CAP = 21

AT_MOST_ONE = "at_most_one"
AT_LEAST_ONE = "at_least_one"


def _check_parts(parts: tuple[int, ...]) -> None:
    if not parts or min(parts) < 1:
        raise ValueError(f"parts must be positive integers, got {parts}")


def enumerate_compositions(n: int, cap: int = COMPOSITION_CAP) -> Iterator[tuple[int, ...]]:
    """All 2^(n-1) compositions of n as part tuples, in lexicographic order,
    streamed.  n is checked against 1 and `cap` when called, before the first
    composition is asked for."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > cap:
        raise CapExceeded(f"n={n} exceeds composition cap {cap}")

    def successors() -> Iterator[tuple[int, ...]]:
        # the next composition drops the last part s, adds 1 to the part
        # before it and appends s - 1 ones
        parts = (1,) * n
        yield parts
        while len(parts) > 1:
            s = parts[-1]
            parts = parts[:-2] + (parts[-2] + 1,) + (1,) * (s - 1)
            yield parts

    return successors()


def lambda_of(parts: tuple[int, ...]) -> int:
    """Number of labeled graphs isomorphic to the generated graph: n!/prod(s_i!)."""
    _check_parts(parts)
    return _lambda(parts)


def _lambda(parts: tuple[int, ...]) -> int:
    """``lambda_of`` without its check: for part tuples this module built."""
    return factorial(sum(parts)) // prod(map(factorial, parts))


def fubini(n: int) -> int:
    """Number of weak orders on n elements, which is the multiplicity sum over
    all compositions of n, by the recurrence a(m) = sum_k C(m, k) a(m - k)
    (choose the k elements of the top level).  The certificate construction
    hinges on it being odd."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(comb(m, k) * a[m - k] for k in range(1, m + 1)))
    return a[n]


def graph_of_composition(parts: tuple[int, ...]) -> DirectedGraph:
    """The generated graph: each vertex points to every other vertex in its own
    or a later block.  Vertex v in block i has indegree (s_1+...+s_i) - 1."""
    _check_parts(parts)
    n = sum(parts)
    starts = []
    acc = 1
    for size in parts:
        starts.extend([acc] * size)
        acc += size
    outs = [[u for u in range(starts[v - 1], n + 1) if u != v] for v in range(1, n + 1)]
    return DirectedGraph.from_out_sets(n, outs)


# ---------------------------------------------------------------------------
# transitions
# ---------------------------------------------------------------------------


def _merges(parts: tuple[int, ...]) -> Iterator[tuple[int, tuple[int, ...]]]:
    """The transitions out of one composition: each singleton block j >= 2
    merges into block j-1, which is exactly a rewrite of that single vertex's
    outgoing edges.  Yields (j, merged parts) in increasing j."""
    for j in range(2, len(parts) + 1):
        if parts[j - 1] == 1:
            yield j, parts[: j - 2] + (parts[j - 2] + 1,) + parts[j:]


# ---------------------------------------------------------------------------
# infeasibility certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertificateRow:
    """One inequality row: the constraint of the composition (a part tuple),
    scaled by its multiplicity and signed by the parity of its part count."""

    composition: tuple[int, ...]
    lam: int
    sign: int
    sense: str

    @property
    def multiplier(self) -> int:
        return self.sign * self.lam


@dataclass(frozen=True)
class Certificate:
    """Signed multiplier system witnessing that no selection rule can both keep
    mass at most 1 everywhere and place full mass on nominated vertices
    whenever some vertex is nominated by everyone.

    The rows are not stored: ``rows()`` streams one per composition, in
    lexicographic order, signed by ``sign_even_parts``, so a certificate takes
    the same small space at every n.

    ``checks`` come from one pass over the compositions and their ``links``
    transition edges.  unique_partner: the edges out of each composition p
    leave exactly its singleton blocks j >= 2, in increasing j; splitting the
    target's block j-1 into (q_(j-1) - 1, 1) gives back p, so that block has
    at least 2 vertices; and 2 * links is the number of variable terms
    (composition, block), all blocks but a singleton first one.  The sources
    are then every singleton variable term, once each, and the targets are
    distinct non-singleton terms, as each determines its source; the count
    makes the 2 * links entered terms all the variable terms, each once.
    cancellation: along every edge p --j--> q the two terms' signed
    coefficients sum to zero.  As every lambda is positive, that holds exactly
    when the rows have opposite signs (the part count changes by one) and
    lambda(q) * q_(j-1) = lambda(p); a failing edge's detail names which broke.

    ``cancellation_ok``, both checks passing, means every variable's signed
    coefficient sums to zero across the system; ``certificate_problems`` in
    ``tests/oracles.py`` checks the same from the composition graphs.
    ``rhs_total`` is the signed multiplicity sum, oriented negative; it
    cannot be zero, since the total multiplicity is odd.
    """

    n: int
    rhs_total: int
    sign_even_parts: int
    links: int
    checks: tuple[Check, ...]

    @property
    def cancellation_ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def rows(self) -> Iterator[CertificateRow]:
        # the cap was checked when the certificate was built
        for p in enumerate_compositions(self.n, self.n):
            sign = self.sign_even_parts if len(p) % 2 == 0 else -self.sign_even_parts
            yield CertificateRow(p, _lambda(p), sign, AT_MOST_ONE if sign > 0 else AT_LEAST_ONE)


def build_certificate(n: int, cap: int = COMPOSITION_CAP) -> Certificate:
    """Construct the infeasibility certificate for n >= 2 and prove it in one
    pass over the compositions and their transition edges
    (``Certificate.checks``), keeping counters and problem strings only.  The
    pass signs each row (-1)^(part count); the sum orients the rows after it,
    so that the constants total a negative number."""
    if n < 2:
        raise ValueError(f"certificate needs n >= 2, got {n}")
    signed_sum = links = variable_terms = 0
    unpaired, uncancelled = [], []
    for p in enumerate_compositions(n, cap):
        m_p = (-1) ** len(p) * _lambda(p)  # a singleton block's coefficient
        signed_sum += m_p
        variable_terms += len(p) - (p[0] == 1)
        merged = []
        for j, q in _merges(p):
            links += 1
            merged.append(j)
            m_q, size = (-1) ** len(q) * _lambda(q), q[j - 2]
            if m_p + m_q * size != 0:
                broken = "same sign" if m_p * m_q > 0 else f"{abs(m_q) * size} != {abs(m_p)}"
                uncancelled.append(f"{p} -> {q} (j={j}): {broken}")
            if q[: j - 2] + (size - 1, 1) + q[j - 1 :] != p:
                unpaired.append(f"{p} -> {q} (j={j}): splitting block {j - 1} of {q} does not give {p}")
        singletons = [j for j in range(2, len(p) + 1) if p[j - 1] == 1]
        if merged != singletons:
            unpaired.append(f"{p}: merges blocks {merged}, singleton blocks {singletons}")
    if 2 * links != variable_terms:
        unpaired.append(f"{links} edges enter {2 * links} terms, of {variable_terms} variable terms")

    sign_even = 1 if signed_sum < 0 else -1
    rhs_total = sign_even * signed_sum
    if rhs_total >= 0 or rhs_total % 2 == 0:
        raise RuntimeError(f"signed total {rhs_total} must be odd and negative")
    checks = (
        Check("unique_partner", not unpaired, "; ".join(unpaired)),
        Check("cancellation", not uncancelled, "; ".join(uncancelled)),
    )
    return Certificate(n, rhs_total, sign_even, links, checks)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def composition_of_graph(graph: DirectedGraph) -> tuple[int, ...] | None:
    """Recover the generating composition's part tuple, or None if the graph is
    not composition-generated.  The runs of equal indegrees are the candidate,
    whose block i has indegree S_i - 1 (S_i the sum of parts 1..i); it is built,
    with the graph's edge count, only when the indegrees match, and compared."""
    deg = np.array(graph.indegrees, dtype=np.int64)
    parts = np.diff(np.flatnonzero(np.diff(deg, prepend=-1)), append=graph.n)  # lengths of the runs
    if not np.array_equal(deg, np.repeat(np.cumsum(parts) - 1, parts)):
        return None
    candidate = tuple(parts.tolist())
    return candidate if graph_of_composition(candidate) == graph else None


def reduce_add_isolated(graph: DirectedGraph, n_target: int) -> DirectedGraph:
    """Pad the vertex set to n_target with isolated vertices; edges unchanged.

    Carries a selection problem on few vertices into a larger instance whose
    outdegree bound is the original vertex count minus one.
    """
    if graph.n < 2:
        raise ValueError(f"need at least 2 vertices, got {graph.n}")
    if n_target < graph.n:
        raise ValueError(f"target {n_target} smaller than input {graph.n}")
    offsets = np.concatenate([graph.offsets, np.full(n_target - graph.n, graph.edge_count)])
    return DirectedGraph(n_target, offsets, graph.targets)


def reduce_add_inneighbors(graph: DirectedGraph, n_target: int) -> DirectedGraph:
    """Pad a composition-generated graph to n_target vertices u_1, u_2, ... that
    each nominate every original vertex; original vertices that nominated
    nobody now nominate u_1.

    Every vertex of the result nominates someone; each added vertex has
    outdegree equal to the original vertex count, u_1 has indegree at most 1,
    later added vertices have indegree 0, and every original vertex gains
    exactly n_target - k in-edges.
    """
    k = graph.n
    if k < 2:
        raise ValueError(f"need at least 2 vertices, got {k}")
    if composition_of_graph(graph) is None:
        raise ValueError("input graph is not composition-generated")
    if n_target < k + 1:
        raise ValueError(f"target {n_target} must exceed input size {k}")
    outs = [outset or (k + 1,) for outset in graph.out_sets]
    outs.extend(range(1, k + 1) for _ in range(n_target - k))
    return DirectedGraph.from_out_sets(n_target, outs)
