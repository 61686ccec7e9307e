"""Registry of deterministic selection mechanisms.

Every mechanism maps a graph to at most one vertex.  All of them are pure
functions of the input graph and never raise on degenerate inputs (n=1, no
edges): a selection is the selected vertex's id, and where the rule yields
nothing they return 0.

Each mechanism is two plain rules that take its integer parameters first:
``rule(*params, graph)`` runs on one graph, and ``rule_rows(*params, members,
choice)`` runs the same rule on a block of graphs at once (see
:mod:`impsel._deletion` for the block layout); the block rule is what every
audit, exhaustive or sampled, evaluates.  ``MECHANISMS`` is the one registry:
it maps each name to its parameter count, a validator of the parameters
against a vertex count, and the two rules.  ``MechanismId`` construction and
parsing, ``validate_for``, ``kernel_for`` and ``batch_kernel_for`` (the rules
with the parameters bound) and ``resolve`` are all lookups in it.  The
thresholds of ``twin:T,t`` and ``naive-iter:t`` (the pair (t, t)) are checked
by ``twin_threshold.ThresholdPair``, the one (T, t) contract.  Names and
parameter syntax (the CLI contract):

    never              select nothing, always
    max-naive          greatest-index vertex of maximum indegree (always selects;
                       manipulable through the fixed tie-break)
    follow:A           greatest-index out-neighbor of the fixed vertex A (never
                       selects A itself)
    majority           the vertex with indegree >= floor(n/2)+1, if any (ties to
                       the greatest index)
    naive-iter:t       iterated deletion at t, select top remaining >= t (twin
                       with both thresholds at t; not impartial)
    naive-sim:t        one-shot deletion at t, select top remaining >= t+1 (not
                       impartial)
    twin:T,t           iterated deletion at t, select top remaining >= T (the
                       traced variant lives in :mod:`impsel.twin_threshold`)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from ._deletion import indegree_rows, out_columns, run_deletion, run_deletion_rows, select_top, select_top_rows
from .graphs import DirectedGraph
from .twin_threshold import ThresholdPair

Kernel = Callable[[DirectedGraph], int]
BatchKernel = Callable[[np.ndarray, np.ndarray], np.ndarray]


# ---------------------------------------------------------------------------
# rules: (*params, graph) -> selected vertex id, 0 for none
# ---------------------------------------------------------------------------


def _never(graph: DirectedGraph) -> int:
    return 0


def _max_naive(graph: DirectedGraph) -> int:
    return select_top(graph.indegrees, 0)


def _follow(anchor: int, graph: DirectedGraph) -> int:
    return max(graph.out_sets[anchor - 1], default=0)


def _majority(graph: DirectedGraph) -> int:
    return select_top(graph.indegrees, graph.n // 2 + 1)


def _naive_sim(t: int, graph: DirectedGraph) -> int:
    remaining = list(graph.indegrees)
    for outs, d in zip(graph.out_sets, graph.indegrees):
        if d >= t:
            for u in outs:
                remaining[u - 1] -= 1
    return select_top(remaining, t + 1)


def _twin(upper: int, lower: int, graph: DirectedGraph) -> int:
    deg, _ = run_deletion(graph, lower)
    return select_top(deg, upper)


# ---------------------------------------------------------------------------
# block rules: (*params, members (M, n+1), choice (B, n)) -> selected vertex
# per graph in the members' dtype, 0 for none; they work on vertex-major
# (n+1, B) degree arrays (see impsel._deletion)
# ---------------------------------------------------------------------------


def _never_rows(members: np.ndarray, choice: np.ndarray) -> np.ndarray:
    return np.zeros(len(choice), members.dtype)


def _max_naive_rows(members: np.ndarray, choice: np.ndarray) -> np.ndarray:
    return select_top_rows(indegree_rows(members, choice), 0)


def _follow_rows(anchor: int, members: np.ndarray, choice: np.ndarray) -> np.ndarray:
    # greatest member of every listed out-set, 0 for the empty one
    top = (members * np.arange(members.shape[1], dtype=members.dtype)).max(axis=1)
    return top[choice[:, anchor - 1]]


def _majority_rows(members: np.ndarray, choice: np.ndarray) -> np.ndarray:
    return select_top_rows(indegree_rows(members, choice), choice.shape[1] // 2 + 1)


def _naive_sim_rows(t: int, members: np.ndarray, choice: np.ndarray) -> np.ndarray:
    cols, deg = out_columns(members), indegree_rows(members, choice)
    remaining = deg.copy()
    for v in range(1, choice.shape[1] + 1):
        # a vertex below t deletes the empty out-set, column len(members)
        remaining -= np.take(cols, np.where(deg[v] >= t, choice[:, v - 1], len(members)), axis=1)
    return select_top_rows(remaining, t + 1)


def _twin_rows(upper: int, lower: int, members: np.ndarray, choice: np.ndarray) -> np.ndarray:
    return select_top_rows(run_deletion_rows(members, choice, lower), upper)


# ---------------------------------------------------------------------------
# parameter validators: (n, params) -> None, raising ValueError
# ---------------------------------------------------------------------------


def _no_params(n: int, params: tuple[int, ...]) -> None:
    pass


def _check_anchor(n: int, params: tuple[int, ...]) -> None:
    (anchor,) = params
    if not 1 <= anchor <= n:
        raise ValueError(f"anchor {anchor} outside 1..{n}")


def _check_threshold(n: int, params: tuple[int, ...]) -> None:
    (t,) = params
    if not 1 <= t <= n - 1:
        raise ValueError(f"threshold {t} outside 1..{n - 1}")


def _check_pair(n: int, params: tuple[int, ...]) -> None:
    """(T, t), or t as the pair (t, t): the one (T, t) contract checks it."""
    ThresholdPair(params[0], params[-1]).validate_for(n)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


class MechanismEntry(NamedTuple):
    arity: int
    validate: Callable[[int, tuple[int, ...]], None]
    kernel: Callable[..., int]  # (*params, graph)
    batch: Callable[..., np.ndarray]  # (*params, members, choice)


MECHANISMS: dict[str, MechanismEntry] = {
    "never": MechanismEntry(0, _no_params, _never, _never_rows),
    "max-naive": MechanismEntry(0, _no_params, _max_naive, _max_naive_rows),
    "follow": MechanismEntry(1, _check_anchor, _follow, _follow_rows),
    "majority": MechanismEntry(0, _no_params, _majority, _majority_rows),
    "naive-iter": MechanismEntry(
        1, _check_pair, lambda t, graph: _twin(t, t, graph), lambda t, *block: _twin_rows(t, t, *block)
    ),
    "naive-sim": MechanismEntry(1, _check_threshold, _naive_sim, _naive_sim_rows),
    "twin": MechanismEntry(2, _check_pair, _twin, _twin_rows),
}


@dataclass(frozen=True)
class MechanismId:
    """A registry mechanism plus its integer parameters, e.g. twin:(4, 1)."""

    name: str
    params: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(self.params))
        entry = MECHANISMS.get(self.name)
        if entry is None:
            raise ValueError(f"unknown mechanism {self.name!r}; known: {', '.join(MECHANISMS)}")
        if len(self.params) != entry.arity:
            raise ValueError(f"mechanism {self.name!r} takes {entry.arity} parameter(s), got {len(self.params)}")

    @classmethod
    def parse(cls, text: str) -> "MechanismId":
        """Parse the CLI syntax, e.g. 'never', 'follow:1', 'twin:4,1'."""
        name, _, rest = text.partition(":")
        params: tuple[int, ...] = ()
        if rest:
            try:
                params = tuple(int(p) for p in rest.split(","))
            except ValueError:
                raise ValueError(f"non-integer parameter in {text!r}") from None
        return cls(name, params)

    def text(self) -> str:
        if not self.params:
            return self.name
        return f"{self.name}:{','.join(str(p) for p in self.params)}"

    def validate_for(self, n: int) -> None:
        """Check parameter ranges against a target vertex count."""
        MECHANISMS[self.name].validate(n, self.params)


def kernel_for(mid: MechanismId) -> Kernel:
    """Per-graph kernel: graph -> selected vertex, 0 for none; ``resolve``
    adds the parameter check, and the tests check the batch kernel against it."""
    return partial(MECHANISMS[mid.name].kernel, *mid.params)


def batch_kernel_for(mid: MechanismId) -> BatchKernel:
    """Block kernel for audits: (members, choice) -> selected vertex per
    graph, 0 for none; equal to ``kernel_for(mid)`` on every graph."""
    return partial(MECHANISMS[mid.name].batch, *mid.params)


def _validated(mid: MechanismId, graph: DirectedGraph) -> int:
    mid.validate_for(graph.n)
    return MECHANISMS[mid.name].kernel(*mid.params, graph)


def resolve(mid: MechanismId) -> Kernel:
    """Graph-level mechanism: graph -> selected vertex, 0 for none.  It is
    ``kernel_for(mid)`` after validating the parameters against each graph's
    vertex count."""
    return partial(_validated, mid)
