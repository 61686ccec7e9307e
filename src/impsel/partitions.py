"""Ordered-partition graphs, their transition structure, and exact infeasibility
certificates.

A composition of n is its tuple of positive parts (s_1, ..., s_r).  It
generates the graph on consecutive vertex blocks where every vertex points to
everything in its own and later blocks.
The number of labeled graphs isomorphic to that generated graph is the
multinomial n!/prod(s_i!), and the sum of those multiplicities over all 2^(n-1)
compositions counts weak orders.

The compositions are walked by rank.  Composition r of n, in lexicographic
order, starts a part at position k >= 1 (counting from 0) exactly when bit
n-1-k of r is 0, so a block of consecutive ranks is a (B, n) array of each
position's 1-based offset inside its part; a row's offsets multiply to
prod(s_i!).  The part tuples, the multiplicities and the certificate all read
these blocks, ``_BLOCK`` ranks at a time.

Merging a singleton block into its left neighbor is a transition: the same
rank with the bit before that block set.  The
transition edges pair the (composition, block) terms of two inequality
families - selection mass at most 1, and full mass on nominated vertices when
someone is nominated by everybody: p --j--> q pairs (p, j) with (q, j-1).
``build_certificate`` signs each row by its multinomial weight and proves, in
one walk over the rank blocks and their edges, that every term is paired
once and that each pair cancels, while the constants sum to an odd negative
number; it keeps counters, not rows, and ``Certificate.rows()`` walks the
blocks again when the rows are wanted.  The resulting ``Certificate`` is an
exact-arithmetic proof that no selection rule satisfies both families
(``certificate_problems`` in ``tests/oracles.py`` re-checks it from the
graphs); the reductions at the bottom transport it to bounded-outdegree and
no-abstention settings.

All arithmetic is arbitrary-precision integer or exact rational; floating
point never enters any comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import comb, factorial, prod
from typing import Iterator

import numpy as np

from .audit import Check
from .graphs import CapExceeded, DirectedGraph

#: Composition walks are refused past this n by default.  The cap bounds
#: time, not memory: the 2^(n-1) compositions are walked a block of ranks at
#: a time, so time doubles per +1 in n while memory stays flat.  Measured with
#: ``impsel partitions --n N --certificate --json`` on 2 CPUs:
#: n=20 takes 8 s, n=21 (the largest default run) 18 s and n=22 35 s, all
#: at a 31 MB peak, with 153, 314 and 644 MB of JSON.
COMPOSITION_CAP = 21

#: Ranks per block of the walk.  The certificate pass holds a block's
#: transition edges with it, n/4 per composition on average and up to n-1;
#: at this size it peaks near 48 KiB at n = 14, in the block of ranks 0-63.
_BLOCK = 64

AT_MOST_ONE = "at_most_one"
AT_LEAST_ONE = "at_least_one"


def _check_parts(parts: tuple[int, ...]) -> None:
    if not parts or min(parts) < 1:
        raise ValueError(f"parts must be positive integers, got {parts}")


def _rank_blocks(n: int, cap: int) -> Iterator[np.ndarray]:
    """The ranks 0 .. 2^(n-1) - 1 of the compositions of n, as int64 arrays of
    ``_BLOCK`` consecutive ranks.  n is checked against 1, `cap` and the
    width of the ranks when called, before the first block is asked for."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > cap:
        raise CapExceeded(f"n={n} exceeds composition cap {cap}")
    if n > 63:
        raise ValueError(f"n={n}: the walk's int64 ranks reach n=63")
    total = 1 << (n - 1)
    return (np.arange(lo, min(lo + _BLOCK, total), dtype=np.int64) for lo in range(0, total, _BLOCK))


def _offsets(n: int, ranks: np.ndarray) -> np.ndarray:
    """(len(ranks), n) uint8: each position's 1-based offset inside its part,
    in the compositions of n with these ranks.  Position k joins the part
    before it exactly when bit n-1-k of the rank is 1, so the offset counts
    back to the last position whose bit is 0.  The bits are unpacked a byte
    at a time; the zero bits above bit n-1 are parts of 1 before position 0."""
    width = 8 * ((n + 7) // 8)
    offsets = np.unpackbits(ranks.astype(">u8").view(np.uint8).reshape(-1, 8)[:, 8 - width // 8 :], axis=1)
    position = np.arange(width, dtype=np.uint8)
    offsets ^= 1
    offsets *= position
    np.maximum.accumulate(offsets, axis=1, out=offsets)  # where each position's part starts
    return np.subtract(position + 1, offsets, out=offsets)[:, width - n :]


def _parts(n: int, ranks: np.ndarray) -> list[tuple[int, ...]]:
    """The part tuples of the compositions of n with these ranks: a part ends
    where the next position starts one, and its last offset is its size."""
    offsets = _offsets(n, ranks)
    ends = np.ones(offsets.shape, dtype=bool)
    ends[:, :-1] = offsets[:, 1:] == 1
    sizes, bounds = offsets[ends].tolist(), np.cumsum(1 + np.bitwise_count(_cuts(n, ranks))).tolist()
    # a tuple of a list slice is allocated at its size, unlike one of an iterator
    return [tuple(sizes[lo:hi]) for lo, hi in zip([0, *bounds], bounds)]


def _lambdas(n: int, ranks: np.ndarray) -> np.ndarray:
    """lambda of the compositions of n with these ranks, n!/prod(offsets):
    int64 while n! fits it, else Python ints in an object array, so that every
    value is exact.  The product is taken a position at a time, as one call
    over the block would buffer a cast of all its offsets."""
    top = factorial(n)
    product = np.ones(len(ranks), dtype=np.int64 if top < 1 << 63 else object)
    for offset in _offsets(n, ranks).T:
        product *= offset
    return top // product


def enumerate_compositions(n: int, cap: int = COMPOSITION_CAP) -> Iterator[tuple[int, ...]]:
    """All 2^(n-1) compositions of n as part tuples, in lexicographic order,
    made a block of ranks at a time.  n is checked against 1 and `cap` when
    called, before the first composition is asked for."""
    return chain.from_iterable(_parts(n, ranks) for ranks in _rank_blocks(n, cap))


def lambda_of(parts: tuple[int, ...]) -> int:
    """Number of labeled graphs isomorphic to the generated graph: n!/prod(s_i!)."""
    _check_parts(parts)
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


def _cuts(n: int, ranks: np.ndarray) -> np.ndarray:
    """Bit n-1-k is set when a part starts at position k >= 1: the rank's
    zero bits below bit n-1."""
    return ~ranks & ((1 << (n - 1)) - 1)


def _singletons(cuts: np.ndarray) -> np.ndarray:
    """Bit n-1-k is set when a singleton block starts at position k >= 1:
    a part starts there, and at the next position or there is none."""
    return cuts & ((cuts << 1) | 1)


def _singleton_blocks(n: int, ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row, bit, j) of every singleton block j >= 2 of the compositions of n
    with these ranks, by row and then j; the block starts at position
    n-1-bit, after the j-1 parts that start up to then."""
    cuts, width = _cuts(n, ranks), (n + 6) // 8
    flags = np.unpackbits(_singletons(cuts).astype(">u8").view(np.uint8).reshape(-1, 8)[:, 8 - width :], axis=1)
    rows, column = np.divmod(np.flatnonzero(flags), 8 * width)
    bit = 8 * width - 1 - column
    return rows, bit, 1 + np.bitwise_count(cuts[rows] >> bit)


def _merge_edges(n: int, ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The transitions out of the compositions of n with these ranks: each
    singleton block j >= 2 merges into block j-1, which is exactly a rewrite
    of that single vertex's outgoing edges, and sets the rank's bit before the
    block.  (row, j, merged rank) per edge, by row and then j."""
    rows, bit, j = _singleton_blocks(n, ranks)
    return rows, j, ranks[rows] | (1 << bit)


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

    The rows are not stored: ``rows()`` makes one per composition from the
    rank blocks, in lexicographic order, signed by ``sign_even_parts``, so a
    certificate takes the same small space at every n.

    ``checks`` come from one walk over the rank blocks and their ``links``
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
    Each side's lambda, part count and block sizes come from its own rank.

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
        even = self.sign_even_parts
        cells = [(sign, AT_MOST_ONE if sign > 0 else AT_LEAST_ONE) for sign in (even, -even)]  # by part count parity
        for ranks in _rank_blocks(self.n, self.n):  # the cap was checked when the certificate was built
            for p, lam in zip(_parts(self.n, ranks), _lambdas(self.n, ranks).tolist()):
                yield CertificateRow(p, lam, *cells[len(p) % 2])


def _composition(n: int, rank) -> tuple[int, ...]:
    """The part tuple of one rank, for the detail of a failed check."""
    return _parts(n, np.array([rank], dtype=np.int64))[0]


def _splits(sources: np.ndarray, j: np.ndarray, targets: np.ndarray, cuts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per edge, with the targets' `cuts`: whether splitting the last position
    off the target's block j-1 gives back the source, and where it does, that
    block's size.  The merge cleared one cut of the source, so the target has
    that position joined at the end of its block j-1: j-1 parts start up to
    it, and the next position starts a part or there is none."""
    moved = targets ^ sources
    bit = np.bitwise_count(moved - 1)  # moved's bit, when it is one bit
    paired = (
        (np.bitwise_count(moved) == 1) & ((moved & targets) == moved)
        & (1 + np.bitwise_count(cuts >> bit) == j - 1)
        & ((((cuts << 1) | 1) >> bit) & 1 == 1)
    )
    run = targets >> bit  # joined positions from there back to the block's first
    return paired, 1 + np.bitwise_count(run & ~(run + 1))


def _check_block(n: int, ranks: np.ndarray, unpaired: list[str], uncancelled: list[str]) -> tuple[int, int, int]:
    """Check the compositions of n with these ranks and the edges out of them,
    appending what fails to `unpaired` and `uncancelled`; return the sum of
    their signed lambdas, (-1)^(part count) * lambda, their edge count and
    their variable terms."""
    rows, j, targets = _merge_edges(n, ranks)
    count, edges = len(ranks), len(rows)
    # each side's lambda and part count from its own rank, in one array
    both = np.concatenate([ranks, targets])
    lam, cuts = _lambdas(n, both), _cuts(n, both)
    parts = 1 + np.bitwise_count(cuts)
    signed = np.where(parts[:count] & 1, -lam[:count], lam[:count])
    # every block is a variable term but a singleton first one
    variable_terms = int(parts[:count].sum()) - np.count_nonzero(cuts[:count] >> (n - 2))

    paired, block_size = _splits(ranks[rows], j, targets, cuts[count:])
    # a paired edge leaves a singleton block j of its source; with j rising
    # along each row, the edge count then says whether a row's are all of them
    rising = np.ones(edges, dtype=bool)
    rising[1:] = (rows[1:] > rows[:-1]) | ((rows[1:] == rows[:-1]) & (j[1:] > j[:-1]))
    counted = np.bincount(rows, minlength=count) == np.bitwise_count(_singletons(cuts[:count]))
    suspects = set(np.flatnonzero(~counted).tolist()).union(rows[~(paired & rising)].tolist())
    for r in sorted(suspects):
        p = _composition(n, ranks[r])
        for e in np.flatnonzero((rows == r) & ~paired).tolist():
            q, block = _composition(n, targets[e]), int(j[e]) - 1
            block_size[e] = q[block - 1]
            unpaired.append(f"{p} -> {q} (j={block + 1}): splitting block {block} of {q} does not give {p}")
        merged, singletons = j[rows == r].tolist(), _singleton_blocks(n, ranks[r : r + 1])[2].tolist()
        if merged != singletons:
            unpaired.append(f"{p}: merges blocks {merged}, singleton blocks {singletons}")

    source_lam, target_lam = lam[rows], lam[count:]
    opposite = ((parts[count:] ^ parts[rows]) & 1) == 1
    for e in np.flatnonzero(~(opposite & (target_lam * block_size == source_lam))).tolist():
        broken = f"{target_lam[e] * int(block_size[e])} != {source_lam[e]}" if opposite[e] else "same sign"
        uncancelled.append(f"{_composition(n, ranks[rows[e]])} -> {_composition(n, targets[e])} (j={j[e]}): {broken}")
    return sum(signed.tolist()), edges, variable_terms


def build_certificate(n: int, cap: int = COMPOSITION_CAP) -> Certificate:
    """Construct the infeasibility certificate for n >= 2 and prove it in one
    walk over the rank blocks and their transition edges
    (``Certificate.checks``), keeping counters and problem strings only.  The
    walk signs each row (-1)^(part count); the sum orients the rows after it,
    so that the constants total a negative number."""
    if n < 2:
        raise ValueError(f"certificate needs n >= 2, got {n}")
    signed_sum = links = variable_terms = 0
    unpaired, uncancelled = [], []
    for ranks in _rank_blocks(n, cap):
        block_sum, block_links, block_terms = _check_block(n, ranks, unpaired, uncancelled)
        signed_sum, links, variable_terms = signed_sum + block_sum, links + block_links, variable_terms + block_terms
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
