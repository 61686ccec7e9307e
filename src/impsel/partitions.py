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
one walk over the edges, that every term is paired once and that each pair
cancels, while the constants sum to an odd negative number.  The resulting
``Certificate`` is an exact-arithmetic proof that no selection rule satisfies
both families (``certificate_problems`` in ``tests/oracles.py`` re-checks it
from the graphs); the reductions at the bottom transport it to
bounded-outdegree and no-abstention settings.

All arithmetic is arbitrary-precision integer or exact rational; floating
point never enters any comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial
from typing import Callable, Iterator

from .graphs import CapExceeded, DirectedGraph

#: Composition streams are refused past this n by default.  There are 2^(n-1)
#: compositions and a certificate keeps state for each, so memory grows about
#: 3x per +2 in n: the largest default run, ``impsel partitions --n 20
#: --certificate --json``, peaks near 0.3 GB (279 MB measured), and n=22
#: would need about 0.9 GB (extrapolated).
COMPOSITION_CAP = 20

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

    def rec(total: int) -> Iterator[tuple[int, ...]]:
        if total == 0:
            yield ()
            return
        for first in range(1, total + 1):
            for rest in rec(total - first):
                yield (first,) + rest

    return rec(n)


def lambda_of(parts: tuple[int, ...]) -> int:
    """Number of labeled graphs isomorphic to the generated graph: n!/prod(s_i!)."""
    _check_parts(parts)
    value = factorial(sum(parts))
    for part in parts:
        value //= factorial(part)
    return value


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
    outs = tuple(
        frozenset(u for u in range(starts[v - 1], n + 1) if u != v) for v in range(1, n + 1)
    )
    return DirectedGraph(n, outs)


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


def _walk(comps: list[tuple[int, ...]], visit: Callable[[tuple, int, tuple], None]) -> tuple[int, list[str]]:
    """Walk every transition edge of `comps` (the part tuples of all
    compositions of one n) once, in the order of `comps` and then of j; the
    edge p --j--> q links the term (p, j) to the term (q, j-1), and `visit`
    sees (p, j, q).  Returns the number of links and the pairing's problems:
    a block entered twice, or a composition whose entered blocks are not
    exactly its variable blocks (all but a singleton first block)."""
    entered = dict.fromkeys(comps, 0)
    problems = []

    def enter(parts: tuple[int, ...], block: int) -> None:
        if entered[parts] >> block & 1:
            problems.append(f"{parts} block {block}: entered twice")
        entered[parts] |= 1 << block

    links = 0
    for p in comps:
        for j, q in _merges(p):
            visit(p, j, q)
            enter(p, j)
            enter(q, j - 1)
            links += 1
    for parts, mask in entered.items():
        first = 2 if parts[0] == 1 else 1
        if mask != (1 << len(parts) + 1) - (1 << first):
            problems.append(f"{parts}: blocks entered {mask:b}, variable blocks {first}..{len(parts)}")
    return links, problems


def transitions(n: int) -> list[tuple[tuple[int, ...], int, tuple[int, ...]]]:
    """Every transition edge p --j--> q of the compositions of n, as the part
    tuples and block index (p, j, q), in the order ``_walk`` visits them."""
    edges = []
    _walk(list(enumerate_compositions(n)), lambda p, j, q: edges.append((p, j, q)))
    return edges


# ---------------------------------------------------------------------------
# infeasibility certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructureCheck:
    name: str
    ok: bool
    detail: str = ""


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

    ``checks`` come from one walk over the ``links`` transition edges.
    unique_partner: every term (composition, block index >= its variable
    floor) is entered by exactly one edge, as the singleton block j of its
    source or as block j-1 of its target, and no other block is entered.
    cancellation: along every edge p --j--> q the two terms' signed
    coefficients sum to zero.  As every lambda is positive, that holds exactly
    when the rows have opposite signs (the part count changes by one) and
    lambda(q) * q_(j-1) = lambda(p); a failing edge's detail names which broke.

    ``cancellation_ok``, both checks passing, means every variable's signed
    coefficient sums to zero across the system; ``certificate_problems`` in
    ``tests/oracles.py`` checks the same from the composition graphs.
    ``rhs_total`` is the signed multiplicity sum, oriented negative
    (``rhs_alternate`` is its negation); it cannot be zero, since the total
    multiplicity is odd.
    """

    n: int
    rows: tuple[CertificateRow, ...]
    rhs_total: int
    sign_even_parts: int
    links: int
    checks: tuple[StructureCheck, ...]

    @property
    def cancellation_ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def rhs_alternate(self) -> int:
        return -self.rhs_total

    def multipliers(self) -> tuple[int, ...]:
        return tuple(row.multiplier for row in self.rows)


def build_certificate(n: int, cap: int = COMPOSITION_CAP) -> Certificate:
    """Construct the infeasibility certificate for n >= 2 and prove it with
    one walk over the transition edges (``Certificate.checks``)."""
    if n < 2:
        raise ValueError(f"certificate needs n >= 2, got {n}")
    comps = list(enumerate_compositions(n, cap))
    lams = [lambda_of(p) for p in comps]
    even_total = sum(lam for p, lam in zip(comps, lams) if len(p) % 2 == 0)
    odd_total = sum(lam for p, lam in zip(comps, lams) if len(p) % 2 == 1)
    sign_even = 1 if even_total < odd_total else -1
    rhs_total = sign_even * (even_total - odd_total)
    if rhs_total >= 0 or rhs_total % 2 == 0:
        raise RuntimeError(f"signed total {rhs_total} must be odd and negative")

    rows = []
    for p, lam in zip(comps, lams):
        sign = sign_even if len(p) % 2 == 0 else -sign_even
        rows.append(CertificateRow(p, lam, sign, AT_MOST_ONE if sign > 0 else AT_LEAST_ONE))

    # a singleton block's coefficient is its row's multiplier
    mult = {row.composition: row.multiplier for row in rows}
    uncancelled = []

    def cancel(p: tuple[int, ...], j: int, q: tuple[int, ...]) -> None:
        if mult[p] + mult[q] * q[j - 2] != 0:
            broken = "same sign" if mult[p] * mult[q] > 0 else f"{abs(mult[q]) * q[j - 2]} != {abs(mult[p])}"
            uncancelled.append(f"{p} -> {q} (j={j}): {broken}")

    links, problems = _walk(comps, cancel)
    checks = (
        StructureCheck("unique_partner", not problems, "; ".join(problems)),
        StructureCheck("cancellation", not uncancelled, "; ".join(uncancelled)),
    )
    return Certificate(n, tuple(rows), rhs_total, sign_even, links, checks)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def composition_of_graph(graph: DirectedGraph) -> tuple[int, ...] | None:
    """Recover the generating composition's part tuple, or None if the graph is
    not composition-generated.  Verified by full reconstruction."""
    parts: list[int] = []
    prev: int | None = None
    for d in graph.indegrees:
        if prev is not None and d == prev:
            parts[-1] += 1
        else:
            parts.append(1)
        prev = d
    candidate = tuple(parts)
    if graph_of_composition(candidate) == graph:
        return candidate
    return None


def reduce_add_isolated(graph: DirectedGraph, n_target: int) -> DirectedGraph:
    """Pad the vertex set to n_target with isolated vertices; edges unchanged.

    Carries a selection problem on few vertices into a larger instance whose
    outdegree bound is the original vertex count minus one.
    """
    if graph.n < 2:
        raise ValueError(f"need at least 2 vertices, got {graph.n}")
    if n_target < graph.n:
        raise ValueError(f"target {n_target} smaller than input {graph.n}")
    outs = graph.out_sets + tuple(frozenset() for _ in range(n_target - graph.n))
    return DirectedGraph(n_target, outs)


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
    first_added = k + 1
    originals = frozenset(range(1, k + 1))
    outs = [
        outset | frozenset({first_added}) if not outset else outset for outset in graph.out_sets
    ]
    outs.extend(originals for _ in range(n_target - k))
    return DirectedGraph(n_target, tuple(outs))
