"""Spans around impsel's layers, installed from outside the package.

Each wrapper replaces a public function at the name its caller binds (for
example ``impsel.audit.kernel_for`` rather than ``impsel.mechanisms.kernel_for``),
so only calls made along the audited paths are seen.  A span records
(id, name, start, end, parent span id, command id).  A layer's self time is its
span's duration minus the time its child spans cover; because wrappers run in
one thread, child spans nest strictly and their durations add up.

Self times include the bookkeeping of the wrappers of child calls, so a layer
with many cheap children (``audit.check_impartiality`` over the kernel calls)
reads high.

The private ``_pair_chunk`` scan and the ``run_deletion`` core have no wrapper
of their own: their time is inside the ``audit.check_impartiality`` and
``twin_threshold.run_twin_threshold`` spans until the program records spans
itself.

Every call updates the counters; spans are kept in memory only up to
``span_cap`` per (command, name), so the 1.7 million kernel calls of the
exhaustive workload do not fill memory.  ``dropped`` counts the spans not kept.
"""

from __future__ import annotations

import inspect
import json
from collections import Counter
from contextlib import contextmanager
from functools import partial, wraps
from pathlib import Path
from time import perf_counter

import impsel.audit
import impsel.cli
import impsel.graphs
import impsel.partitions


class Tracer:
    """Spans and counters of one traced pass, keyed by span name."""

    def __init__(self, span_cap: int = 1000):
        self.span_cap = span_cap
        self.command = ""
        self.counts: Counter = Counter()
        self.self_s: Counter = Counter()
        self.spans: list[tuple] = []
        self.dropped = 0
        self._kept: Counter = Counter()
        self._stack: list[list] = []  # open spans: [id, name, start, child seconds]
        self._next_id = 1

    def begin(self, name: str) -> None:
        self._stack.append([self._next_id, name, perf_counter(), 0.0])
        self._next_id += 1

    def end(self) -> None:
        now = perf_counter()
        span_id, name, start, child = self._stack.pop()
        duration = now - start
        parent = 0
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        self.self_s[name] += duration - child
        key = (self.command, name)
        if self._kept[key] < self.span_cap:
            self._kept[key] += 1
            self.spans.append((span_id, name, start, now, parent, self.command))
        else:
            self.dropped += 1

    def write(self, path: Path, header: dict) -> None:
        with path.open("w", encoding="utf-8") as f:
            f.write(json.dumps({**header, "span_cap": self.span_cap, "spans_kept": len(self.spans), "spans_dropped": self.dropped}) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def _call(tracer: Tracer, name: str, fn, on_result=None):
    calls = name + ".calls"

    @wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[calls] += 1
        tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end()
        if on_result is not None:
            on_result(tracer, args, kwargs, result)
        return result

    return wrapper


def _generator(tracer: Tracer, name: str, fn):
    """Time spent inside the generator's ``next``; counts invocations and items."""

    calls, items = name + ".calls", name + ".items"

    @wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[calls] += 1
        inner = fn(*args, **kwargs)
        while True:
            tracer.begin(name)
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                tracer.end()
            tracer.counts[items] += 1
            yield item

    return wrapper


def _factory(tracer: Tracer, name: str, fn):
    """Wrap the callables `fn` returns (kernels and resolved mechanisms)."""

    @wraps(fn)
    def wrapper(*args, **kwargs):
        return _call(tracer, name, fn(*args, **kwargs))

    return wrapper


def _deletions(tracer, args, kwargs, result) -> None:
    tracer.counts["twin_threshold.run_twin_threshold.deletions"] += len(result[1].deletions)


_IMPARTIALITY_SIGNATURE = inspect.signature(impsel.audit.check_impartiality)


def _impartiality(tracer, args, kwargs, result) -> None:
    """Violations found and deviation pairs examined, the latter computed from
    class sizes: every unordered pair once in exhaustive mode, every (base,
    other deviation) pair in sampled mode."""
    bound = _IMPARTIALITY_SIGNATURE.bind(*args, **kwargs)
    bound.apply_defaults()
    spec, mode = bound.arguments["spec"], bound.arguments["mode"]
    others = spec.n * (spec.outset_count - 1)
    pairs = mode.trials * others if hasattr(mode, "trials") else spec.size * others // 2
    tracer.counts["audit.check_impartiality.violations"] += len(result)
    tracer.counts["audit.pairs_examined"] += pairs


def _edges(tracer, args, kwargs, result) -> None:
    tracer.counts["graphs.parse_graph.edges"] += result.edge_count


# (owner, attribute, span name, wrapper)
PATCHES = [
    (impsel.audit, "graph_at_index", "graphs.graph_at_index", _call),
    (impsel.cli, "sample_stream", "graphs.sample_stream", _generator),
    (impsel.audit, "sample_stream", "graphs.sample_stream", _generator),
    (impsel.audit, "deviations", "graphs.deviations", _generator),
    (impsel.cli, "parse_graph", "graphs.parse_graph", partial(_call, on_result=_edges)),
    (impsel.graphs.DirectedGraph, "serialize", "graphs.DirectedGraph.serialize", _call),
    (impsel.audit, "kernel_for", "mechanisms.kernel", _factory),
    (impsel.audit, "resolve", "mechanisms.resolve", _factory),
    (impsel.cli, "run_twin_threshold", "twin_threshold.run_twin_threshold", partial(_call, on_result=_deletions)),
    (impsel.audit, "run_twin_threshold", "twin_threshold.run_twin_threshold", partial(_call, on_result=_deletions)),
    (impsel.cli, "check_impartiality", "audit.check_impartiality", partial(_call, on_result=_impartiality)),
    (impsel.cli, "measure_gap", "audit.measure_gap", _call),
    (impsel.cli, "check_trace_invariants", "audit.check_trace_invariants", _call),
    (impsel.cli, "enumerate_compositions", "partitions.enumerate_compositions", _generator),
    (impsel.partitions, "enumerate_compositions", "partitions.enumerate_compositions", _generator),
    (impsel.cli, "lambda_of", "partitions.lambda_of", _call),
    (impsel.cli, "fubini", "partitions.fubini", _call),
    (impsel.cli, "build_certificate", "partitions.build_certificate", _call),
    (impsel.cli, "reduce_add_isolated", "partitions.reduce_add_isolated", _call),
    (impsel.cli, "main", "cli.main", _call),
]


@contextmanager
def installed(tracer: Tracer):
    """Install every wrapper, and restore the originals on exit."""
    saved = []
    for owner, attr, name, wrap in PATCHES:
        original = owner.__dict__[attr]
        saved.append((owner, attr, original))
        setattr(owner, attr, wrap(tracer, name, original))
    graph_cls = impsel.graphs.DirectedGraph
    post_init = graph_cls.__post_init__
    saved.append((graph_cls, "__post_init__", post_init))

    def counted_post_init(self):
        tracer.counts["graphs.DirectedGraph.built"] += 1
        post_init(self)

    graph_cls.__post_init__ = counted_post_init
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
