"""Impartial selection on nomination graphs.

A library (and ``impsel`` command-line tool) for deterministic selection
mechanisms on directed nomination graphs: the twin-threshold rule with full
deletion tracing and exact threshold planning, baseline mechanisms, a
brute-force audit harness for impartiality and additive gaps, and the
ordered-partition machinery that certifies, in exact arithmetic, when
impartial selection with unanimity-style guarantees is impossible.
"""

from .audit import (
    AUDIT_CAP,
    FACTORIAL_CAP,
    Exhaustive,
    GapReport,
    ProbabilityVector,
    Sampled,
    TraceReport,
    Violation,
    WeakUnanimityReport,
    check_impartiality,
    check_trace_invariants,
    check_weak_unanimity_inheritance,
    measure_gap,
    symmetrize_eval,
    symmetrized_table,
)
from .graphs import (
    ENUMERATION_CAP,
    CapExceeded,
    DirectedGraph,
    GraphClassSpec,
    GraphFormatError,
    Permutation,
    deviations,
    enumerate_graphs,
    graph_at_index,
    parse_graph,
    sample_graph,
    sample_stream,
)
from .mechanisms import (
    MechanismId,
    kernel_for,
    resolve,
)
from .partitions import (
    COMPOSITION_CAP,
    Certificate,
    CertificateRow,
    FubiniResult,
    OrderedPartition,
    build_certificate,
    composition_of_graph,
    enumerate_compositions,
    fubini,
    graph_of_composition,
    lambda_of,
    reduce_add_inneighbors,
    reduce_add_isolated,
    transitions,
)
from .twin_threshold import (
    DeletionTrace,
    PlanReport,
    ThresholdPair,
    additive_gap,
    plan_thresholds_general,
    plan_thresholds_k1,
    run_twin_threshold,
    validate_thresholds,
)

__version__ = "0.1.0"
