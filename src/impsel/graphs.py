"""Directed nomination graphs: data model, graph classes, unranking, sampling, I/O.

Vertices are the integers 1..n and an edge (u, v) records that u nominates v.
A graph is loop-free, unweighted, immutable and held as two int64 arrays in
compressed sparse row form (:class:`DirectedGraph`).  A family of graphs with
an outdegree bound and/or a positive-outdegree requirement is a
:class:`GraphClassSpec`; module functions unrank, deviate and sample it.

Enumeration order
-----------------
The admissible out-sets of a vertex are ordered lexicographically by their
sorted member tuple, abstention (the empty set) first when admissible.  For
targets {1, 2, 3} and no bound this gives

    (), (1,), (1, 2), (1, 2, 3), (1, 3), (2,), (2, 3), (3,).

``GraphClassSpec.outset_at(v, r)``, the r-th of them, is the definition of
that order and the package's only enumeration of out-sets: the kernel rows of
every audit, the deviations of a vertex and every witness text read it.

A class is enumerated in lexicographic order of the per-vertex choice tuple,
the choice of vertex 1 varying slowest: graph i has the base-R digits of i as
its per-vertex out-set ranks, vertex 1 the most significant (R out-sets per
vertex).  That digit layout is the one way to walk a class: the exhaustive
audits' kernel windows (``audit._class_block``) hold the digit rows of
consecutive indices, built from a template of the trailing digits, and
``graph_at_index`` builds one index's graph from its ranks with
``graph_of_ranks``, as sampling does.  Exhaustive audits read digit rows and
build a graph only to report it.

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
from dataclasses import dataclass
from functools import cache, cached_property
from math import comb
from typing import Iterable, Iterator, Sequence

import numpy as np

#: The most graphs of a class that are walked whole: exhaustive audits refuse
#: larger classes unless their mode's `cap` raises it (their outcome table
#: holds one entry per graph).  Sampled impartiality audits refuse base graphs
#: whose deviation lines hold more graphs, with no override.
AUDIT_CAP = 10**7

#: Source vertices per block when a large graph is written: what a block
#: holds at once, not the whole edge set.
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


@dataclass(frozen=True, eq=False)
class DirectedGraph:
    """Loop-free directed graph on vertices 1..n, immutable after construction.

    Compressed sparse rows: vertex v's out-neighbors are, strictly increasing,
    ``targets[offsets[v - 1]:offsets[v]]``.  The constructor keeps read-only
    int64 copies of both arrays and checks them whole; equality and hashing
    read n and their bytes.  Other views are derived on first use and cached.
    """

    n: int
    offsets: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        n, offsets, targets = self.n, _frozen_ints(self.offsets), _frozen_ints(self.targets)
        if n < 1 or offsets.shape != (n + 1,) or targets.ndim != 1:
            raise ValueError(f"expected a positive vertex count, n + 1 offsets and flat targets, got n={n}")
        if offsets[0] != 0 or offsets[-1] != len(targets) or (offsets[1:] < offsets[:-1]).any():
            raise ValueError(f"offsets must rise from 0 to the target count {len(targets)}")
        self.__dict__.update(offsets=offsets, targets=targets)
        sources = _sources(offsets)
        bad = (targets < 1) | (targets > n) | (targets == sources)
        if bad.any():
            v, u = int(sources[bad.argmax()]), int(targets[bad.argmax()])
            raise ValueError(f"self-loop at vertex {v}" if u == v else f"vertex {v} has out-neighbor {u} outside 1..{n}")
        bad = (targets[1:] <= targets[:-1]) & (sources[1:] == sources[:-1])  # within a slice
        if bad.any():
            v, u, w = int(sources[bad.argmax()]), int(targets[bad.argmax() + 1]), targets[bad.argmax()]
            raise ValueError(f"duplicate edge ({v}, {u})" if u == w else f"out-neighbors of {v} not increasing at {u}")

    def __eq__(self, other) -> bool:
        return isinstance(other, DirectedGraph) and self._identity() == other._identity()

    def __hash__(self) -> int:
        return hash(self._identity())

    def _identity(self) -> tuple[int, bytes, bytes]:
        return self.n, self.offsets.tobytes(), self.targets.tobytes()

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "DirectedGraph":
        """The graph with these (u, v) edges; an edge given twice counts once."""
        pairs = _frozen_ints(list(edges)).reshape(-1, 2)
        outside = ((pairs < 1) | (pairs > n)).any(axis=1)
        if outside.any():
            raise ValueError("edge ({}, {}) outside 1..{}".format(*pairs[outside.argmax()].tolist(), n))
        keys = np.unique(pairs[:, 0] * (n + 1) + pairs[:, 1])  # sorted by (u, v), each edge once
        return cls(n, np.bincount(keys // (n + 1), minlength=n + 1).cumsum(), keys % (n + 1))

    @classmethod
    def from_out_sets(cls, n: int, out_sets: Iterable[Iterable[int]]) -> "DirectedGraph":
        """The graph in which vertex v nominates the members of out_sets[v-1]."""
        rows = [sorted(s) for s in out_sets]
        return cls(n, [0, *itertools.accumulate(map(len, rows))], list(itertools.chain.from_iterable(rows)))

    @cached_property
    def out_sets(self) -> tuple[frozenset[int], ...]:
        """Vertex v's out-neighbors at index v-1, for per-graph rules on small graphs."""
        targets, cuts = self.targets.tolist(), self.offsets.tolist()
        return tuple(frozenset(targets[lo:hi]) for lo, hi in zip(cuts, cuts[1:]))

    @cached_property
    def indegrees(self) -> tuple[int, ...]:
        return tuple(np.bincount(self.targets, minlength=self.n + 1)[1:].tolist())

    @cached_property
    def outdegrees(self) -> tuple[int, ...]:
        return tuple(np.diff(self.offsets).tolist())

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(_sources(self.offsets).tolist(), self.targets.tolist()))

    @property
    def edge_count(self) -> int:
        return len(self.targets)

    @cached_property
    def max_indegree(self) -> int:
        return max(self.indegrees)

    @cached_property
    def key(self) -> tuple[int, ...]:
        """Per-vertex out-set bitmasks (bit u-1 set for out-neighbor u)."""
        return tuple(sum(1 << (u - 1) for u in outs) for outs in self.out_sets)

    def serialize(self) -> str:
        """Canonical file form: header, then edge lines by (u, v), ``_VERTEX_BLOCK`` sources at a time."""
        blocks = [f"n {self.n}\n"]
        for lo in range(0, self.n, _VERTEX_BLOCK):
            cuts = self.offsets[lo : lo + _VERTEX_BLOCK + 1]
            blocks.append(edge_lines(zip(_sources(cuts, lo + 1).tolist(), self.targets[cuts[0] : cuts[-1]].tolist())))
        return "".join(blocks)

    def __repr__(self) -> str:
        return f"DirectedGraph(n={self.n}, edges={list(self.edges)})"


def _frozen_ints(values) -> np.ndarray:
    """A read-only int64 copy of `values`; raises TypeError unless they are integers."""
    array = np.array(values)
    array = array.astype(np.int64, casting="safe" if array.size else "unsafe", copy=False)
    array.flags.writeable = False
    return array


def _sources(offsets: np.ndarray, first: int = 1) -> np.ndarray:
    """Source of every edge in the slices `offsets` bounds, the first being vertex `first`'s."""
    return np.arange(first, first + len(offsets) - 1).repeat(offsets[1:] - offsets[:-1])


def edge_lines(pairs: Iterable[tuple[int, int]]) -> str:
    """Edge lines ``e u v`` of the file format for (u, v) pairs in the given order: the one writer of canonical text."""
    return "".join(f"e {u} {v}\n" for u, v in pairs)


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
        return _count_upto(self.n - 1, self.bound) - self.min_outdegree  # less the empty set if barred

    @cached_property
    def size(self) -> int:
        """Number of graphs in the class: per-vertex choices are independent."""
        return self.outset_count**self.n

    def contains(self, graph: DirectedGraph) -> bool:
        return graph.n == self.n and all(self.min_outdegree <= d <= self.bound for d in graph.outdegrees)

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


def graph_at_index(spec: GraphClassSpec, index: int) -> DirectedGraph:
    """The index-th graph of the enumeration order, by mixed-radix unranking."""
    if not 0 <= index < spec.size:
        raise ValueError(f"index {index} outside 0..{spec.size - 1}")
    radix = spec.outset_count  # vertex v's rank is the digit of place value radix**(n-v)
    return graph_of_ranks(spec, [index // radix ** (spec.n - v) % radix for v in range(1, spec.n + 1)])


def deviations(graph: DirectedGraph, v: int, spec: GraphClassSpec) -> Iterator[DirectedGraph]:
    """All class members that agree with `graph` outside v's outgoing edges:
    every admissible out-set of v once, in the documented order, including
    `graph` itself."""
    if not 1 <= v <= graph.n:
        raise ValueError(f"vertex {v} outside 1..{graph.n}")
    if not spec.contains(graph):
        raise ValueError(f"graph is not in class {spec.describe()}")
    before, after = graph.out_sets[: v - 1], graph.out_sets[v:]
    for rank in range(spec.outset_count):
        yield DirectedGraph.from_out_sets(graph.n, [*before, spec.outset_at(v, rank), *after])


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
    return DirectedGraph.from_out_sets(spec.n, [spec.outset_at(v, r) for v, r in enumerate(ranks, start=1)])


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
    zeros) is read in one array pass: the endpoints become int64 arrays whose
    range, self-loops and duplicates (neighbours after sorting on (u, v)) are
    checked vectorized before anything per vertex is allocated, and the sorted
    arrays become the graph's.  Any other text, and well-formed text that fails
    a check, goes to the line reader ``_read_lines``, which is the
    specification of the format and alone words the errors.
    """
    if not _well_formed(text):
        return _read_lines(text)
    values = np.fromstring(text.translate(_DIRECTIVES_TO_BLANKS), dtype=np.int64, sep=" ")
    n, u, v = int(values[0]), values[1::2], values[2::2]
    # Not DirectedGraph's checks twice over: a bad file must reach the line reader's worded
    # error before bincount allocates n + 1 offsets, a MemoryError for a declared n of 10^17.
    if len(u) and (max(u.max(), v.max()) > n or (u == v).any()):
        return _read_lines(text)
    values = values[1:].reshape(-1, 2)[np.lexsort((v, u))]  # sorted (u, v) rows; the unsorted ones are freed
    u, v = values.T
    if ((u[1:] == u[:-1]) & (v[1:] == v[:-1])).any():
        return _read_lines(text)
    return DirectedGraph(n, np.bincount(u, minlength=n + 1).cumsum(), v)


def _read_lines(text: str) -> DirectedGraph:
    """The line reader: ``parse_graph`` line by line, each error worded with its line number."""
    n: int | None = None
    edges: set[tuple[int, int]] = set()
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
            if (u, v) in edges:
                raise GraphFormatError(lineno, f"duplicate edge ({u}, {v})")
            edges.add((u, v))
        else:
            raise GraphFormatError(lineno, f"unrecognized directive {fields[0]!r}")
    if n is None:
        raise GraphFormatError(lineno + 1, "missing 'n <count>' header")
    return DirectedGraph.from_edges(n, edges)
