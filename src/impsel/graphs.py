"""Directed nomination graphs: data model, graph classes, enumeration, sampling, I/O.

Vertices are the integers 1..n and an edge (u, v) records that u nominates v.
Graphs are loop-free, unweighted and immutable.  Families of graphs with a
maximum-outdegree bound and/or a strictly-positive-outdegree requirement are
described by :class:`GraphClassSpec`, which also owns enumeration, deviation
generation and uniform sampling.

Enumeration order
-----------------
The admissible out-sets of a vertex are ordered lexicographically by their
sorted member tuple, abstention (the empty set) first when admissible.  For
targets {1, 2, 3} and no bound this gives

    (), (1,), (1, 2), (1, 2, 3), (1, 3), (2,), (2, 3), (3,).

A class is enumerated in lexicographic order of the per-vertex choice tuple,
the choice of vertex 1 varying slowest: graph i has the base-R digits of i as
its per-vertex out-set ranks, vertex 1 the most significant (R out-sets per
vertex).  That digit layout is the one way to walk a class: ``digit_block``
gives the ranks of an array of indices as a numpy array for batched kernels, and
``graph_at_index`` unranks single indices into graphs that share the spec's
cached ``outset_lists`` (``enumerate_graphs`` yields it for every index).

Sampling
--------
``sample_stream(spec, seed, count)`` draws `count` graphs from one seeded
stream; each graph's vertices take their out-sets uniformly and independently
from their admissible out-sets, vertices 1..n in order.  Randomness comes from
the Philox4x64 counter-based generator (numpy's implementation) keyed with the
seed; uniform integers below m are obtained by rejection sampling on
big-endian 64-bit words.  A (spec, seed) pair therefore identifies one stream
of graphs, portably across machines and runs; `count` only says how many of
them are drawn.
"""

from __future__ import annotations

import itertools
import re
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from functools import cache, cached_property
from math import comb
from typing import Iterable, Iterator, Sequence

import numpy as np

#: The most graphs of a class that are walked whole: ``enumerate_graphs``
#: refuses larger classes, and so do exhaustive audits unless their mode's
#: `cap` raises it (their outcome table holds one entry per graph).  Sampled
#: impartiality audits refuse base graphs whose deviation lines hold more
#: graphs, with no override.
AUDIT_CAP = 10**7

#: Source vertices per block when a large graph is written or built from a
#: file: what a block holds at once, not the whole edge set.
_VERTEX_BLOCK = 4096


class GraphFormatError(ValueError):
    """Raised when a graph file is malformed; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class CapExceeded(RuntimeError):
    """Raised when an exhaustive operation would exceed its configured cap."""


# ---------------------------------------------------------------------------
# core data model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DirectedGraph:
    """Loop-free directed graph on vertices 1..n, immutable after construction.

    ``out_sets[v - 1]`` is the set of out-neighbors of vertex v.  Derived views
    (in-neighborhoods, degrees, edge list) are computed lazily and cached; the
    object is safe to share across threads.
    """

    n: int
    out_sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"vertex count must be positive, got {self.n}")
        object.__setattr__(self, "out_sets", tuple(frozenset(s) for s in self.out_sets))
        if len(self.out_sets) != self.n:
            raise ValueError(f"expected {self.n} out-sets, got {len(self.out_sets)}")
        for v, outs in enumerate(self.out_sets, start=1):
            for u in outs:
                if not isinstance(u, int) or not 1 <= u <= self.n:
                    raise ValueError(f"vertex {v} has out-neighbor {u!r} outside 1..{self.n}")
                if u == v:
                    raise ValueError(f"self-loop at vertex {v}")

    # ---- constructors ----

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "DirectedGraph":
        outs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not 1 <= u <= n or not 1 <= v <= n:
                raise ValueError(f"edge ({u}, {v}) outside 1..{n}")
            outs[u - 1].add(v)
        return cls(n, tuple(frozenset(s) for s in outs))

    @classmethod
    def empty(cls, n: int) -> "DirectedGraph":
        return cls(n, tuple(frozenset() for _ in range(n)))

    # ---- derived views ----

    @cached_property
    def in_sets(self) -> tuple[frozenset[int], ...]:
        ins: list[set[int]] = [set() for _ in range(self.n)]
        for v, outs in enumerate(self.out_sets, start=1):
            for u in outs:
                ins[u - 1].add(v)
        return tuple(frozenset(s) for s in ins)

    @cached_property
    def indegrees(self) -> tuple[int, ...]:
        degs = [0] * self.n
        for outs in self.out_sets:
            for u in outs:
                degs[u - 1] += 1
        return tuple(degs)

    @cached_property
    def outdegrees(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.out_sets)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted((v, u) for v, outs in enumerate(self.out_sets, start=1) for u in outs))

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self.out_sets)

    @cached_property
    def max_indegree(self) -> int:
        return max(self.indegrees)

    @cached_property
    def key(self) -> tuple[int, ...]:
        """Per-vertex out-set bitmasks (bit u-1 set for out-neighbor u)."""
        return tuple(sum(1 << (u - 1) for u in outs) for outs in self.out_sets)

    def in_neighbors(self, v: int) -> frozenset[int]:
        return self.in_sets[v - 1]

    # ---- transformations ----

    def relabel(self, perm: "Permutation") -> "DirectedGraph":
        """Image graph under the permutation: edge (u, v) becomes (perm(u), perm(v))."""
        if perm.n != self.n:
            raise ValueError(f"permutation on {perm.n} elements applied to n={self.n}")
        outs: list[frozenset[int]] = [frozenset()] * self.n
        images = perm.images
        for v, s in enumerate(self.out_sets, start=1):
            outs[images[v - 1] - 1] = frozenset(images[u - 1] for u in s)
        return DirectedGraph(self.n, tuple(outs))

    def serialize(self) -> str:
        """Canonical file form: header, then edge lines sorted by (u, v).

        The lines are written for ``_VERTEX_BLOCK`` source vertices at a time,
        with one sort per block, so no list of the whole edge set is built and
        the cached ``edges`` view is neither read nor computed."""
        outs = self.out_sets
        blocks = (
            edge_lines(sorted((v, u) for v, s in enumerate(outs[lo : lo + _VERTEX_BLOCK], start=lo + 1) for u in s))
            for lo in range(0, self.n, _VERTEX_BLOCK)
        )
        return "".join([f"n {self.n}\n", *blocks])

    def __repr__(self) -> str:
        return f"DirectedGraph(n={self.n}, edges={list(self.edges)})"


def edge_lines(pairs: Iterable[tuple[int, int]]) -> str:
    """The edge lines ``e u v`` of the file format, one per (u, v) pair, in
    the order given: the one writer of canonical text."""
    return "".join(f"e {u} {v}\n" for u, v in pairs)


@dataclass(frozen=True)
class Permutation:
    """Bijection on 1..n, given by the image tuple (images[v-1] = image of v)."""

    images: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a bijection on 1..{n}: {self.images}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, v: int) -> int:
        return self.images[v - 1]

    @classmethod
    def all_of(cls, n: int) -> Iterator["Permutation"]:
        for images in itertools.permutations(range(1, n + 1)):
            yield cls(images)


# ---------------------------------------------------------------------------
# graph classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GraphClassSpec:
    """A family of graphs on 1..n with outdegree constraints.

    ``max_outdegree=None`` means unbounded (effectively n-1); with
    ``require_positive_outdegree`` every vertex must nominate someone.
    """

    n: int
    max_outdegree: int | None = None
    require_positive_outdegree: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"vertex count must be positive, got {self.n}")
        k = self.max_outdegree
        if k is not None and not 1 <= k <= self.n - 1:
            raise ValueError(f"outdegree bound {k} outside 1..{self.n - 1}")

    @property
    def bound(self) -> int:
        """Effective outdegree bound."""
        return self.n - 1 if self.max_outdegree is None else self.max_outdegree

    @property
    def min_outdegree(self) -> int:
        return 1 if self.require_positive_outdegree else 0

    @cached_property
    def outset_count(self) -> int:
        """Number of admissible out-sets per vertex (identical for all vertices)."""
        m = self.n - 1
        return sum(comb(m, j) for j in range(self.min_outdegree, self.bound + 1))

    @cached_property
    def size(self) -> int:
        """Number of graphs in the class: per-vertex choices are independent."""
        return self.outset_count**self.n

    def contains(self, graph: DirectedGraph) -> bool:
        if graph.n != self.n:
            return False
        lo, hi = self.min_outdegree, self.bound
        return all(lo <= len(s) <= hi for s in graph.out_sets)

    def admissible_outsets(self, v: int) -> list[tuple[int, ...]]:
        """All admissible out-sets of vertex v in the documented order."""
        pool = [u for u in range(1, self.n + 1) if u != v]
        sets = itertools.chain.from_iterable(
            itertools.combinations(pool, j) for j in range(self.min_outdegree, self.bound + 1)
        )
        return sorted(sets)

    @cached_property
    def outset_lists(self) -> tuple[tuple[frozenset[int], ...], ...]:
        """``admissible_outsets`` of every vertex (entry v-1) as frozensets,
        shared by every graph ``graph_at_index`` builds.  Holds n * R sets:
        meant for classes small enough to enumerate, not for sampling."""
        return tuple(tuple(map(frozenset, self.admissible_outsets(v))) for v in range(1, self.n + 1))

    def outset_at(self, v: int, rank: int) -> tuple[int, ...]:
        """Unrank: the rank-th admissible out-set of v in the documented order.
        It is vertex n's (a subset of 1..n-1) with every member >= v moved up
        by one, a monotone map that keeps the order."""
        if not 0 <= rank < self.outset_count:
            raise ValueError(f"out-set rank {rank} outside 0..{self.outset_count - 1}")
        outs = _unrank_outset(rank, self.n - 1, self.min_outdegree, self.bound)
        return tuple(u + (u >= v) for u in outs)

    def describe(self) -> str:
        plus = "+" if self.require_positive_outdegree else ""
        bound = "" if self.max_outdegree is None else f"({self.max_outdegree})"
        return f"G{plus}_{self.n}{bound}"


def _count_upto(m: int, b: int) -> int:
    """Number of subsets of an m-element pool with at most b elements."""
    if b < 0:
        return 0
    return sum(comb(m, j) for j in range(0, min(b, m) + 1))


@cache
def _cumulative_counts(m: int, b: int) -> tuple[int, ...]:
    """Entry i: subsets of 1..m with 1..b+1 members, the least of them <= i."""
    return (0, *itertools.accumulate(_count_upto(m - 1 - i, b) for i in range(m)))


def _unrank_outset(rank: int, m: int, lo: int, hi: int) -> tuple[int, ...]:
    """rank-th subset of 1..m with size in [lo, hi], in lexicographic tuple order.

    lo is 0 or 1; the empty set, when allowed, is rank 0.  A chosen prefix is
    itself the first subset that starts with it, so x counts the subsets still
    to pass after the current prefix, and the answer is the prefix at which x
    reaches 0.  Each next member is found by bisecting the cumulative subset
    counts of the current size budget: O(log m) steps per member.
    """
    x = rank - 1 + lo  # past the empty prefix, which is rank 0 when lo is 0
    if x < 0:
        return ()
    chosen: list[int] = []
    p, rest = 0, hi - 1  # next candidate's index; members that may follow it
    while True:
        cum = _cumulative_counts(m, rest)
        q = bisect_right(cum, x + cum[p], p) - 1  # the candidate whose block holds x
        if q == m:
            raise ValueError(f"rank {rank} out of range")
        chosen.append(q + 1)
        x -= cum[q] - cum[p]
        if x == 0:
            return tuple(chosen)
        p, rest, x = q + 1, rest - 1, x - 1


def enumerate_graphs(spec: GraphClassSpec) -> Iterator[DirectedGraph]:
    """All graphs of the class, each exactly once, in the documented order,
    one at a time; refuses upfront when the class has more than ``AUDIT_CAP``
    graphs."""
    if spec.size > AUDIT_CAP:
        raise CapExceeded(f"class {spec.describe()} has {spec.size} graphs, cap is {AUDIT_CAP}")
    for index in range(spec.size):
        yield graph_at_index(spec, index)


def digit_block(spec: GraphClassSpec, indices: np.ndarray) -> np.ndarray:
    """(len(indices), n) int64 array: row j holds graph indices[j]'s out-set
    ranks, column v-1 that of vertex v."""
    radix, x = spec.outset_count, np.asarray(indices, dtype=np.int64)
    digits = np.empty((len(x), spec.n), dtype=np.int64)
    for col in range(spec.n - 1, -1, -1):  # vertex n is the least significant digit
        # a scalar divisor takes numpy's fast constant-division path, which
        # neither an array of place values nor % does
        q = x // radix
        digits[:, col] = x - q * radix
        x = q
    return digits


def graph_at_index(spec: GraphClassSpec, index: int) -> DirectedGraph:
    """The index-th graph of the enumeration order, by mixed-radix unranking."""
    if not 0 <= index < spec.size:
        raise ValueError(f"index {index} outside 0..{spec.size - 1}")
    radix = spec.outset_count
    outs = [frozenset()] * spec.n
    x = index
    for v in range(spec.n - 1, -1, -1):  # vertex n is the least significant digit
        x, digit = divmod(x, radix)
        outs[v] = spec.outset_lists[v][digit]
    return DirectedGraph(spec.n, tuple(outs))


def deviations(graph: DirectedGraph, v: int, spec: GraphClassSpec) -> Iterator[DirectedGraph]:
    """All class members that agree with `graph` outside v's outgoing edges:
    every admissible out-set of v once, in the documented order, including
    `graph` itself."""
    if not 1 <= v <= graph.n:
        raise ValueError(f"vertex {v} outside 1..{graph.n}")
    if not spec.contains(graph):
        raise ValueError(f"graph is not in class {spec.describe()}")
    for choice in spec.admissible_outsets(v):
        outs = list(graph.out_sets)
        outs[v - 1] = frozenset(choice)
        yield DirectedGraph(graph.n, tuple(outs))


# ---------------------------------------------------------------------------
# seeded sampling (Philox4x64)
# ---------------------------------------------------------------------------


class _PhiloxWords:
    """Stream of 64-bit words from a Philox4x64 generator keyed by `seed`, buffered 512 at a time."""

    def __init__(self, seed: int):
        if not 0 <= seed < 2**128:
            raise ValueError(f"seed {seed} outside 0..2**128-1")
        self._gen = np.random.Generator(np.random.Philox(key=seed))
        self._buf: list[int] = []

    def next_word(self) -> int:
        if not self._buf:
            words = self._gen.integers(0, 2**64, size=512, dtype=np.uint64)
            self._buf = [int(w) for w in reversed(words)]
        return self._buf.pop()

    def below(self, m: int) -> int:
        """Uniform integer in [0, m) by rejection on big-endian 64-bit words."""
        if m < 1:
            raise ValueError(f"cannot draw below {m}")
        if m == 1:
            return 0
        nwords = (m.bit_length() + 63) // 64
        span = 1 << (64 * nwords)
        limit = span - span % m
        while True:
            x = 0
            for _ in range(nwords):
                x = (x << 64) | self.next_word()
            if x < limit:
                return x % m


def sample_ranks(spec: GraphClassSpec, seed: int, count: int) -> Iterator[tuple[int, ...]]:
    """Out-set ranks, vertex 1 first, of `count` independent uniform samples
    drawn from one seeded Philox stream; ``sample_stream`` builds its graphs
    from them."""
    if spec.outset_count == 0:
        raise ValueError(f"class {spec.describe()} is empty")
    words = _PhiloxWords(seed)
    for _ in range(count):
        yield tuple(words.below(spec.outset_count) for _ in range(spec.n))


def graph_of_ranks(spec: GraphClassSpec, ranks: Sequence[int]) -> DirectedGraph:
    """The class member whose vertex v has out-set rank ranks[v-1]."""
    return DirectedGraph(spec.n, tuple(frozenset(spec.outset_at(v, r)) for v, r in enumerate(ranks, start=1)))


def sample_stream(spec: GraphClassSpec, seed: int, count: int) -> Iterator[DirectedGraph]:
    """`count` independent uniform samples drawn from one seeded Philox stream."""
    for ranks in sample_ranks(spec, seed, count):
        yield graph_of_ranks(spec, ranks)


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


#: Well-formed text as ``serialize()`` writes it: the header ``n <count>``,
#: then edge lines ``e <u> <v>``, single spaces, "\n" line ends (the last one
#: optional), ids of 1 to 18 ASCII digits without a leading zero, so that each
#: fits an int64.  After the header, a search for the first line end followed
#: by neither an edge line nor the end of the text keeps no state per line,
#: where one match of a repeated line group would (172 MB at 10^6 lines).
_ID = r"[1-9][0-9]{0,17}"
_HEADER = re.compile(rf"n {_ID}(?=\n|\Z)")
_NOT_AN_EDGE_LINE = re.compile(rf"\n(?!e {_ID} {_ID}(?:\n|\Z)|\Z)")
_DIRECTIVES_TO_BLANKS = str.maketrans("ne", "  ")


def _well_formed(text: str) -> bool:
    header = _HEADER.match(text)
    return header is not None and _NOT_AN_EDGE_LINE.search(text, header.end()) is None


def parse_graph(text: str) -> DirectedGraph:
    """Parse the line-oriented graph format.

    Comment lines start with '#'; exactly one header line ``n <count>`` must
    precede the edge lines ``e <u> <v>``.  Self-loops, out-of-range ids and
    duplicate edges are rejected with the offending line number.

    Text in the form ``serialize()`` writes (see ``_well_formed``: no comments
    or blank lines, single spaces, ids without signs, underscores or leading
    zeros) is read in one array pass: the endpoints become int64 arrays,
    whose range, self-loops and duplicates (neighbours after sorting on
    (u, v)) are checked vectorized, and each out-set is built once from its
    sorted slice, ``_VERTEX_BLOCK`` sources at a time.  Any other text, and
    well-formed text that fails a check, goes to the line reader
    ``_read_lines``, which is the specification of the format and alone words
    the errors.  Neither path allocates per vertex of the header's count
    before the edges have passed their checks.
    """
    if not _well_formed(text):
        return _read_lines(text)
    values = np.fromstring(text.translate(_DIRECTIVES_TO_BLANKS), dtype=np.int64, sep=" ")
    n, u, v = int(values[0]), values[1::2], values[2::2]
    if len(u) and (max(u.max(), v.max()) > n or (u == v).any()):
        return _read_lines(text)
    order = np.lexsort((v, u))
    u, v = u[order], v[order]
    if ((u[1:] == u[:-1]) & (v[1:] == v[:-1])).any():
        return _read_lines(text)
    firsts = np.flatnonzero(np.diff(u, prepend=0))  # each source's first edge; ids are >= 1
    bounds = np.append(firsts, len(u))
    outs = [frozenset()] * n
    for b in range(0, len(firsts), _VERTEX_BLOCK):
        cuts = bounds[b : b + _VERTEX_BLOCK + 1].tolist()
        targets, base = v[cuts[0] : cuts[-1]].tolist(), cuts[0]
        for src, lo, hi in zip(u[firsts[b : b + _VERTEX_BLOCK]].tolist(), cuts, cuts[1:]):
            outs[src - 1] = frozenset(targets[lo - base : hi - base])
    return DirectedGraph(n, tuple(outs))


def _read_lines(text: str) -> DirectedGraph:
    """The line reader: ``parse_graph`` line by line, wording each error with
    its line number.  Out-sets are filled as the edges are read, keyed by
    source vertex, so a large header costs nothing until the graph is built."""
    n: int | None = None
    outs: defaultdict[int, set[int]] = defaultdict(set)
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "n":
            if n is not None:
                raise GraphFormatError(lineno, "duplicate 'n' header")
            if len(fields) != 2:
                raise GraphFormatError(lineno, "header must be 'n <count>'")
            try:
                n = int(fields[1])
            except ValueError:
                raise GraphFormatError(lineno, f"vertex count {fields[1]!r} is not an integer") from None
            if n < 1:
                raise GraphFormatError(lineno, f"vertex count must be positive, got {n}")
        elif fields[0] == "e":
            if n is None:
                raise GraphFormatError(lineno, "edge line before 'n' header")
            if len(fields) != 3:
                raise GraphFormatError(lineno, "edge line must be 'e <u> <v>'")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise GraphFormatError(lineno, f"edge endpoints {fields[1]!r} {fields[2]!r} must be integers") from None
            if not 1 <= u <= n or not 1 <= v <= n:
                raise GraphFormatError(lineno, f"edge ({u}, {v}) outside 1..{n}")
            if u == v:
                raise GraphFormatError(lineno, f"self-loop at vertex {u}")
            if v in outs[u]:
                raise GraphFormatError(lineno, f"duplicate edge ({u}, {v})")
            outs[u].add(v)
        else:
            raise GraphFormatError(lineno, f"unrecognized directive {fields[0]!r}")
    if n is None:
        raise GraphFormatError(last_line + 1, "missing 'n <count>' header")
    return DirectedGraph(n, tuple(frozenset(outs.get(u, ())) for u in range(1, n + 1)))
