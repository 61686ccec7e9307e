import json
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import impsel.audit
from impsel import (
    CapExceeded,
    DeletionTrace,
    DirectedGraph,
    Exhaustive,
    GraphClassSpec,
    MechanismId,
    Permutation,
    ProbabilityVector,
    Sampled,
    ThresholdPair,
    Violation,
    WeakUnanimityReport,
    check_impartiality,
    check_trace_invariants,
    check_weak_unanimity_inheritance,
    deviations,
    enumerate_graphs,
    measure_gap,
    resolve,
    run_twin_threshold,
    symmetrize_eval,
    symmetrized_table,
)
from impsel._deletion import outset_rows, run_deletion, run_deletion_rows
from impsel.audit import FACTORIAL_CAP
from impsel.cli import main
from impsel.graphs import graph_at_index
from impsel.mechanisms import MECHANISMS, batch_kernel_for, kernel_for
from conftest import graph
from oracles import (
    canonical_order,
    fresh_text,
    gap_by_definition,
    sampled_gap_by_definition,
    sampled_violations_by_definition,
    same_outside_deviator,
    violating_pairs_by_full_scan,
    violation_count_by_lines,
    violations_by_definition,
)


# ---- impartiality ----


def test_constant_mechanism_has_no_violations():
    for spec in (GraphClassSpec(3, None), GraphClassSpec(4, 1)):
        assert check_impartiality(MechanismId.parse("never"), spec) == []


def test_certified_twin_has_no_violations_small():
    # margin 9 > 6 certifies (3, 1) on 4-vertex single-nomination graphs
    assert check_impartiality(MechanismId.parse("twin:3,1"), GraphClassSpec(4, 1)) == []


def test_max_naive_violations_match_definition_oracle():
    # G+_4(2) has more out-sets per vertex than vertices (6 > 4), G+_2 just one
    specs = (
        GraphClassSpec(3, None),
        GraphClassSpec(3, 1),
        GraphClassSpec(4, 1),
        GraphClassSpec(3, 2, True),
        GraphClassSpec(4, 2, True),
        GraphClassSpec(2, None, True),
    )
    for text in ("max-naive", "follow:1", "majority", "naive-sim:1", "naive-iter:1"):
        mid = MechanismId.parse(text)
        for spec in specs:
            fast = check_impartiality(mid, spec)
            triples = {(w.graph_a.key, w.graph_b.key, w.deviator) for w in fast}
            canonical = {(min(a, b), max(a, b), v) for a, b, v in triples}
            assert canonical == violations_by_definition(resolve(mid), spec), (text, spec.describe())
            assert len(fast) == len(canonical)  # each pair is reported once


def test_violation_objects_are_structurally_sound():
    vs = check_impartiality(MechanismId.parse("max-naive"), GraphClassSpec(3, 1))
    assert vs
    for w in vs:
        assert w.selected_a != w.selected_b
        assert w.graph_a.serialize() < w.graph_b.serialize()
        for u in range(1, 4):
            if u != w.deviator:
                assert w.graph_a.out_sets[u - 1] == w.graph_b.out_sets[u - 1]


def test_violation_validation_rejects_nonsense():
    a, b = "n 3\ne 1 2\n", "n 3\ne 2 3\n"  # differs in vertex 2's edges, deviator says 1
    with pytest.raises(ValueError, match="outside the outgoing edges of 1"):
        Violation(a, b, 1, True, False)
    with pytest.raises(ValueError, match="agrees"):
        Violation(a, a, 1, True, True)  # statuses agree
    with pytest.raises(ValueError, match="vertex set"):
        Violation("n 3\ne 1 2\n", "n 4\ne 1 3\n", 1, True, False)  # headers differ
    for v in (0, 4):  # deviator outside 1..n
        with pytest.raises(ValueError, match="vertex set"):
            Violation(a, "n 3\ne 1 3\n", v, True, False)
    # vertex 1's lines are "e 1 ...", not those of vertex 10
    with pytest.raises(ValueError, match="outside the outgoing edges of 1"):
        Violation("n 11\ne 1 2\ne 10 1\n", "n 11\ne 10 2\n", 1, True, False)
    # accepted: vertex 2 abstains in one graph, and in the other its line sits
    # between vertex 1's and vertex 3's, so the texts differ in that line alone
    a, b = "n 3\ne 1 2\ne 2 1\ne 3 1\n", "n 3\ne 1 2\ne 3 1\n"
    w = Violation(a, b, 2, True, False)
    assert w.graph_a == graph(3, (1, 2), (2, 1), (3, 1)) and w.graph_b == graph(3, (1, 2), (3, 1))
    Violation("n 3\n", "n 3\ne 1 2\ne 1 3\n", 1, False, True)  # no edge line at all in one text


# lines of either text: the deviator's own, vertex 10's and 12's against
# deviator 1, and lines that no canonical text holds
BODY_LINES = st.sampled_from(["e 1 2", "e 1 3", "e 10 1", "e 12 1", "e 2 1", "e 2 10", "e 1", "e 1 ", "e  1 2", "", "# e 1 2"])


@st.composite
def text_pairs(draw):
    """Two texts under one header: shared lines, each with a few lines of its
    own (the deviator's or not) inserted anywhere, with or without a final
    line break."""
    v = draw(st.sampled_from([1, 2, 10]))
    shared = draw(st.lists(BODY_LINES, max_size=5))

    def text():
        lines = list(shared)
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            own = draw(st.sampled_from([f"e {v} 4", f"e {v} 5", f"e {v}", f"e {v}0 1"]))
            lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), draw(st.one_of(st.just(own), BODY_LINES)))
        return "\n".join(["n 12", *lines]) + draw(st.sampled_from(["\n", ""]))

    return text(), text(), v


@settings(max_examples=300, deadline=None)
@given(text_pairs())
def test_violation_texts_check_matches_the_line_filter_oracle(pair):
    a, b, v = pair
    try:
        Violation(a, b, v, True, False)
        accepted = True
    except ValueError as exc:
        assert str(exc) == f"graphs differ outside the outgoing edges of {v}"
        accepted = False
    assert accepted == same_outside_deviator(a, b, v)


def test_sampled_mode_is_deterministic_and_finds_known_failures():
    mid = MechanismId.parse("max-naive")
    spec = GraphClassSpec(4, 1)
    first = check_impartiality(mid, spec, Sampled(seed=1, trials=40))
    second = check_impartiality(mid, spec, Sampled(seed=1, trials=40))
    assert first == second and first
    exhaustive = {(w.graph_a.key, w.graph_b.key, w.deviator) for w in check_impartiality(mid, spec)}
    assert {(w.graph_a.key, w.graph_b.key, w.deviator) for w in first} <= exhaustive


@pytest.mark.slow
def test_certified_pair_survives_sampled_audit_at_k2():
    # margin 40 > 32 certifies (5, 1) for 6 vertices with outdegree bound 2;
    # the full class (16^6 graphs) is over the cap, so sample base graphs
    mid = MechanismId.parse("twin:5,1")
    spec = GraphClassSpec(6, 2)
    assert check_impartiality(mid, spec, Sampled(seed=77, trials=1500)) == []


def test_empty_class_and_degenerate_modes():
    empty = GraphClassSpec(1, None, True)  # one vertex cannot nominate anyone
    assert empty.size == 0
    assert check_impartiality(MechanismId.parse("never"), empty) == []
    with pytest.raises(ValueError, match="empty"):
        measure_gap(MechanismId.parse("never"), empty)
    with pytest.raises(ValueError, match="trial"):
        Sampled(seed=0, trials=0)


def test_exhaustive_cap_refuses_upfront():
    with pytest.raises(CapExceeded):
        check_impartiality(MechanismId.parse("never"), GraphClassSpec(5, None), Exhaustive(cap=100))
    with pytest.raises(CapExceeded):
        measure_gap(MechanismId.parse("never"), GraphClassSpec(5, None), Exhaustive(cap=100))


def test_results_do_not_depend_on_worker_count():
    mid = MechanismId.parse("max-naive")
    spec = GraphClassSpec(4, 1)
    assert check_impartiality(mid, spec, Exhaustive(jobs=1)) == check_impartiality(mid, spec, Exhaustive(jobs=3))
    g1 = measure_gap(MechanismId.parse("never"), spec, Exhaustive(jobs=1))
    g3 = measure_gap(MechanismId.parse("never"), spec, Exhaustive(jobs=3))
    assert (g1.worst_gap, g1.witness, g1.graphs_checked) == (g3.worst_gap, g3.witness, g3.graphs_checked)


def test_worker_pool_is_clamped_to_cpus_and_chunks(monkeypatch):
    # A fake pool records the worker count and the arguments the kernel pass
    # asks for and runs the chunks here, so a huge --jobs starts no process.
    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            mapped.extend(args)
            return map(fn, args)

    asked, mapped = [], []
    monkeypatch.setattr(impsel.audit, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(impsel.audit.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    mid, spec = MechanismId.parse("max-naive"), GraphClassSpec(4, 1)
    serial = check_impartiality(mid, spec)
    assert check_impartiality(mid, spec, Exhaustive(jobs=10**9)) == serial
    assert measure_gap(mid, spec, Exhaustive(jobs=10**9)) == measure_gap(mid, spec)
    assert asked == [4, 4]  # the outcome table of each audit; its scans run here
    # workers get index ranges, never the outcome table, one chunk each
    assert mapped == [(mid, spec, lo, lo + 64) for lo in range(0, spec.size, 64)] * 2
    assert impsel.audit._worker_count(10**9, 3) == 3


def _every_mechanism(n: int):
    """Every registry mechanism with every parameter tuple its validator accepts at n."""
    for name, entry in MECHANISMS.items():
        for params in product(range(1, n + 1), repeat=entry.arity):
            try:
                entry.validate(n, params)
            except ValueError:
                continue
            yield MechanismId(name, params)


def _graphs(spec, start, end):
    """The graphs with indices [start, end), built once per window and shared
    by every mechanism's scalar reference."""
    return [graph_at_index(spec, i) for i in range(start, end)]


def _scalar_outcomes(mid, window):
    kernel = kernel_for(mid)
    return [kernel(g) for g in window]


@pytest.mark.parametrize(
    "spec, block",
    [
        (GraphClassSpec(2), 7),
        (GraphClassSpec(3), 7),
        (GraphClassSpec(4), 7),
        (GraphClassSpec(5, 1), 7),
        (GraphClassSpec(4, 2, True), 7),  # 6 out-sets per vertex, more than vertices
        (GraphClassSpec(2, None, True), 7),  # one out-set per vertex
        (GraphClassSpec(6, 1), 997),
    ],
    ids=lambda x: x.describe() if isinstance(x, GraphClassSpec) else f"block{x}",
)
def test_batch_kernels_match_scalar_kernels(monkeypatch, spec, block):
    # Blocks smaller than the class (one chunk, run here) straddle its end.
    monkeypatch.setattr(impsel.audit, "KERNEL_BLOCK", block)
    monkeypatch.setattr(impsel.audit, "_worker_count", lambda jobs, chunks: 1)
    window = _graphs(spec, 0, spec.size)
    for mid in _every_mechanism(spec.n):
        table = impsel.audit._outcome_table(mid, spec, 3)
        assert table.tolist() == _scalar_outcomes(mid, window), mid.text()


def test_batch_kernels_match_scalar_kernels_on_windows_of_g5(monkeypatch):
    # G_5 has 2**20 graphs; the scalar reference on all of them, for every
    # mechanism, takes minutes, so windows spread over the class stand in.
    monkeypatch.setattr(impsel.audit, "KERNEL_BLOCK", 7)
    spec = GraphClassSpec(5)
    width = 400
    windows = [(lo, lo + width) for lo in range(0, spec.size - width, spec.size // 6 + 1)]
    windows.append((spec.size - width, spec.size))
    graphs = {(lo, hi): _graphs(spec, lo, hi) for lo, hi in windows}
    for mid in _every_mechanism(spec.n):
        for lo, hi in windows:
            got = impsel.audit._outcome_chunk((mid, spec, lo, hi))
            assert got.tolist() == _scalar_outcomes(mid, graphs[lo, hi]), (mid.text(), lo)


def test_batch_outcome_table_does_not_depend_on_worker_count():
    spec = GraphClassSpec(6, 1)
    for text in ("max-naive", "twin:4,1", "naive-sim:2"):
        mid = MechanismId.parse(text)
        assert np.array_equal(impsel.audit._outcome_table(mid, spec, 2), impsel.audit._outcome_table(mid, spec, 1))


def test_witnesses_are_parsed_only_on_demand(monkeypatch, capsys):
    # an audit writes witness texts; the JSON report prints them, so it
    # builds no graph, and the text report parses the 10 pairs it shows
    built = []
    post_init = DirectedGraph.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(DirectedGraph, "__post_init__", counting)
    argv = ["audit", "impartiality", "--mechanism", "max-naive", "--n", "5", "--k", "1", "--exhaustive"]
    assert main([*argv, "--json"]) == 1 and json.loads(capsys.readouterr().out)["violation_count"] == 2834
    assert built == []
    assert main(argv) == 1 and capsys.readouterr().out.count("deviator") == 10
    assert 0 < len(built) <= 20
    w = check_impartiality(MechanismId.parse("max-naive"), GraphClassSpec(4, 1))[0]
    built.clear()
    assert w.graph_a is w.graph_a and len(built) == 1


@pytest.mark.parametrize(
    "text, spec",
    [
        ("max-naive", GraphClassSpec(6, 1)),
        ("twin:2,1", GraphClassSpec(6, 1)),
        ("naive-sim:1", GraphClassSpec(4, 2, True)),
        ("twin:4,1", GraphClassSpec(6, 1)),  # certified: no violation
    ],
    ids=lambda x: x.describe() if isinstance(x, GraphClassSpec) else x,
)
def test_violation_scan_walks_only_mixed_lines_in_full_scan_order(text, spec):
    table = impsel.audit._outcome_table(MechanismId.parse(text), spec, 1)
    columns = impsel.audit._violating_pairs(table, spec.n, spec.outset_count)
    assert [c.dtype for c in columns] == [np.int64] * 3 + [np.bool_]
    index_a, index_b, deviator, selected_a = (c.tolist() for c in columns)
    got = list(zip(index_a, index_b, deviator, selected_a, (~columns[3]).tolist()))
    assert got == violating_pairs_by_full_scan(table, spec.n, spec.outset_count)
    assert (len(got) == 0) == (text == "twin:4,1")


@pytest.mark.parametrize(
    "text, spec, expect",
    [
        ("max-naive", GraphClassSpec(5, 1), 2834),
        ("max-naive", GraphClassSpec(6, 1), 48430),
        ("twin:2,1", GraphClassSpec(6, 1), None),
        ("naive-sim:1", GraphClassSpec(4, 2, True), 186),
        ("twin:4,1", GraphClassSpec(6, 1), 0),  # certified
    ],
    ids=lambda x: x.describe() if isinstance(x, GraphClassSpec) else str(x),
)
def test_violation_count_is_the_sum_over_deviation_lines(text, spec, expect):
    # a line with s selecting digits holds s*(R-s) violating pairs; the count
    # needs no pair listed, and the definition oracle agrees where it is cheap
    mid = MechanismId.parse(text)
    count = violation_count_by_lines(impsel.audit._outcome_table(mid, spec, 1), spec.n, spec.outset_count)
    assert len(check_impartiality(mid, spec)) == count
    assert expect is None or count == expect
    if spec.size <= 5**5:
        assert count == len(violations_by_definition(resolve(mid), spec))


def test_violations_are_made_only_when_read(monkeypatch, capsys):
    mid, spec = MechanismId.parse("max-naive"), GraphClassSpec(5, 1)
    whole = list(check_impartiality(mid, spec))  # one block of rows
    made = []
    post_init = Violation.__post_init__
    monkeypatch.setattr(Violation, "__post_init__", lambda self: made.append(self) or post_init(self))
    monkeypatch.setattr(impsel.audit, "_ROW_BLOCK", 100)  # texts written and violations read in blocks
    violations = check_impartiality(mid, spec)
    assert made == []
    first = list(violations)
    assert len(made) == len(violations) == 2834 and first == whole
    assert list(violations) == first and violations == first and first == violations
    assert violations[0] == first[0] and violations[-1] == first[-1] and violations[-2834] == first[0]
    for part in (slice(None, 10), slice(95, 205), slice(5, -5, 3), slice(None, None, -1), slice(3000, None)):
        assert violations[part] == first[part] and list(violations[part]) == first[part]
    for i in (2834, -2835):
        with pytest.raises(IndexError):
            violations[i]
    assert violations != first[:-1] and violations != first[::-1] and violations != "not violations"
    assert violations == check_impartiality(mid, spec, Exhaustive(jobs=2)) == canonical_order(first)
    # the text report makes, and so checks, every violation once; --json makes each as it is written
    argv = ["audit", "impartiality", "--mechanism", "max-naive", "--n", "5", "--k", "1", "--exhaustive"]
    for extra in ([], ["--json"]):
        made.clear()
        assert main([*argv, *extra]) == 1 and len(made) == 2834
    capsys.readouterr()


def test_exhaustive_witness_memory_is_bounded():
    # 48,430 violations among about 30,000 witnesses: the distinct texts and
    # integer columns, no Violation objects and no sort tuples
    mid, spec = MechanismId.parse("max-naive"), GraphClassSpec(6, 1)
    tracemalloc.start()
    try:
        violations = check_impartiality(mid, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(violations) == 48430 and peak < 12 * 2**20, peak


@pytest.mark.parametrize(
    "spec, mode",
    [
        (GraphClassSpec(4, 1), Exhaustive()),
        (GraphClassSpec(4, 2, True), Exhaustive()),
        (GraphClassSpec(3, None), Exhaustive()),
        (GraphClassSpec(5, 2), Sampled(seed=3, trials=6)),
    ],
    ids=lambda x: x.describe(),
)
def test_witness_texts_are_their_graphs_serializations(spec, mode):
    # each witness text is written from out-set ranks; it must be what its
    # parsed graph and a newly built copy serialize to, and order the report
    for text in ("max-naive", "naive-sim:1", "naive-iter:1"):
        violations = check_impartiality(MechanismId.parse(text), spec, mode)
        assert violations, (text, spec.describe())
        for w in violations:
            assert w.text_a == w.graph_a.serialize() == fresh_text(w.graph_a)
            assert w.text_b == w.graph_b.serialize() == fresh_text(w.graph_b)
            assert w.text_a < w.text_b
        assert violations == canonical_order(violations), (text, spec.describe())


def test_exhaustive_gap_builds_each_block_once(monkeypatch):
    # the kernel pass computes the gaps from the blocks it evaluates, so the
    # class's digits are computed once per block: 5 blocks of G_4(1)'s 256 graphs
    calls = []
    digits = impsel.audit.digit_block

    def counting(spec, indices):
        calls.append(len(indices))
        return digits(spec, indices)

    monkeypatch.setattr(impsel.audit, "KERNEL_BLOCK", 60)
    monkeypatch.setattr(impsel.audit, "digit_block", counting)
    mid, spec = MechanismId.parse("majority"), GraphClassSpec(4, 1)
    report = measure_gap(mid, spec)
    assert calls == [60, 60, 60, 60, 16]
    assert (report.worst_gap, report.witness) == gap_by_definition(resolve(mid), spec)


def test_worker_count_reads_cpu_affinity(monkeypatch):
    monkeypatch.setattr(impsel.audit.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(impsel.audit.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert impsel.audit._worker_count(2, 8) == 1
    # platforms without an affinity mask fall back to the CPU count
    monkeypatch.delattr(impsel.audit.os, "sched_getaffinity", raising=False)
    assert impsel.audit._worker_count(2, 8) == 2
    monkeypatch.setattr(impsel.audit.os, "cpu_count", lambda: None)
    assert impsel.audit._worker_count(2, 8) == 1


# ---- sampled audits ----


@pytest.mark.parametrize(
    "spec, trials",
    [
        (GraphClassSpec(4, 1), 12),
        (GraphClassSpec(4, 2, True), 8),  # 6 out-sets per vertex, more than vertices
        (GraphClassSpec(2, None, True), 5),  # one out-set per vertex
        (GraphClassSpec(6, 2), 3),
        (GraphClassSpec(5, 3, True), 4),
    ],
    ids=lambda x: x.describe() if isinstance(x, GraphClassSpec) else f"trials{x}",
)
@pytest.mark.parametrize("seed, block", [(1, None), (8, 5)], ids=["seed1", "seed8-block5"])
def test_sampled_audits_match_definition_oracles(monkeypatch, spec, trials, seed, block):
    # A 5-entry block splits deviation lines into several kernel calls and
    # stacks one sampled graph per gap block, so the first maximum is kept
    # across blocks.
    if block is not None:
        monkeypatch.setattr(impsel.audit, "KERNEL_BLOCK", block)
    for mid in _every_mechanism(spec.n):
        mechanism = resolve(mid)
        got = check_impartiality(mid, spec, Sampled(seed, trials))
        assert got == sampled_violations_by_definition(mechanism, spec, seed, trials), mid.text()
        report = measure_gap(mid, spec, Sampled(seed, 10 * trials))
        expect = sampled_gap_by_definition(mechanism, spec, seed, 10 * trials)
        assert (report.worst_gap, report.witness, report.graphs_checked) == expect, mid.text()


def _assert_batch_kernels_match_on_stars(n, texts):
    """Stars into vertices n-2..n, and a graph where 1..n-2 nominate n-1,
    which nominates n: every mechanism of `texts` has batch kernel == scalar kernel."""
    stars = [DirectedGraph.from_edges(n, [(u, c) for u in range(1, n + 1) if u != c]) for c in (n - 2, n - 1, n)]
    stars.append(DirectedGraph.from_edges(n, [(u, n - 1) for u in range(1, n - 1)] + [(n - 1, n), (n, 1)]))
    for text in texts:
        mid = MechanismId.parse(text)
        for g in stars:
            members = outset_rows(n, g.out_sets)
            got = batch_kernel_for(mid)(members, np.arange(n)[None, :])
            assert got.tolist() == [kernel_for(mid)(g)], text


def test_batch_kernels_widen_rows_past_int8_vertex_ids():
    # stars into vertices 128..130 have vertex ids and indegrees above 127
    n = 130
    texts = ("never", "max-naive", "follow:130", "follow:129", "majority", "naive-iter:100", "naive-sim:100")
    _assert_batch_kernels_match_on_stars(n, (*texts, "twin:128,2", "twin:129,129"))
    spec = GraphClassSpec(n, 1)
    for text in ("max-naive", "twin:20,3"):
        report = measure_gap(MechanismId.parse(text), spec, Sampled(2, 30))
        expect = sampled_gap_by_definition(resolve(MechanismId.parse(text)), spec, 2, 30)
        assert (report.worst_gap, report.witness, report.graphs_checked) == expect


def test_batch_kernels_widen_keys_past_int16():
    # a key is degree*(n+1) + vertex: a star's centre at n=200 keys 199*201 + c > 32767
    n = 200
    texts = ("never", "max-naive", "follow:200", "follow:199", "majority", "naive-iter:150", "naive-sim:150")
    _assert_batch_kernels_match_on_stars(n, (*texts, "twin:198,2", "twin:199,199", "twin:199,1"))


@pytest.mark.parametrize("block", [7, 1 << 16])
def test_deletion_rows_final_degrees_match_run_deletion(monkeypatch, block):
    monkeypatch.setattr(impsel.audit, "KERNEL_BLOCK", block)
    for spec in (GraphClassSpec(1), GraphClassSpec(2, 1), GraphClassSpec(5, 1), GraphClassSpec(4, 2), GraphClassSpec(4, 3, True)):
        n, make = spec.n, impsel.audit._class_block(spec)
        graphs = list(enumerate_graphs(spec))
        for t in range(1, max(n, 2)):
            for lo, hi in impsel.audit._blocks(0, spec.size):
                deg = run_deletion_rows(*make(lo, hi), t)
                assert deg.shape == (n + 1, hi - lo) and not deg[0].any()
                expect = [run_deletion(g, t)[0] for g in graphs[lo:hi]]
                assert deg[1:].T.tolist() == expect, (spec.describe(), t, lo)


def test_sampled_impartiality_refuses_long_deviation_lines_before_sampling(monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampled before the cap check")

    monkeypatch.setattr(impsel.audit, "sample_ranks", no_sampling)
    spec = GraphClassSpec(50, 4)  # 50 lines of 231,526 graphs per base graph
    with pytest.raises(CapExceeded, match="11576300 graphs"):
        check_impartiality(MechanismId.parse("twin:30,6"), spec, Sampled(1, 1))


def test_sampled_gap_refuses_wide_graphs_before_sampling(monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampled before the cap check")

    monkeypatch.setattr(impsel.audit, "sample_ranks", no_sampling)
    # a sampled graph takes n rows of n+1 entries: 3,161 is the largest n under the audit cap
    with pytest.raises(CapExceeded, match="10001406 entries"):
        measure_gap(MechanismId.parse("twin:2,1"), GraphClassSpec(3162, 1), Sampled(1, 1))
    with pytest.raises(AssertionError, match="sampled before"):
        measure_gap(MechanismId.parse("twin:2,1"), GraphClassSpec(3161, 1), Sampled(1, 1))


def test_sampled_audits_run_the_batch_kernels_only(monkeypatch):
    # the per-graph mechanism runs once per gap audit, to recheck the witness
    calls = []
    resolved = impsel.audit.resolve

    def counting(mid):
        mechanism = resolved(mid)
        return lambda g: calls.append(g) or mechanism(g)

    monkeypatch.setattr(impsel.audit, "resolve", counting)
    monkeypatch.setattr(impsel.audit, "kernel_for", None)
    monkeypatch.setattr(impsel.audit, "deviations", None)
    mid, spec = MechanismId.parse("max-naive"), GraphClassSpec(5, 2)
    assert check_impartiality(mid, spec, Sampled(1, 4)) and calls == []
    report = measure_gap(mid, spec, Sampled(1, 40))
    assert calls == [report.witness]


# ---- gaps ----


def test_never_gap_is_n_minus_1_with_star_witness():
    report = measure_gap(MechanismId.parse("never"), GraphClassSpec(4, 1))
    assert report.worst_gap == 3
    assert report.witness.max_indegree == 3  # a 3-star into some vertex
    assert report.graphs_checked == 256


def test_exhaustive_gap_matches_definition_oracle():
    for text in ("never", "majority", "follow:1", "twin:2,1"):
        mid = MechanismId.parse(text)
        for spec in (GraphClassSpec(4, 1), GraphClassSpec(4, 2, True), GraphClassSpec(3, None)):
            report = measure_gap(mid, spec)
            assert (report.worst_gap, report.witness) == gap_by_definition(resolve(mid), spec), (text, spec.describe())


def test_gap_sampled_mode():
    report = measure_gap(MechanismId.parse("never"), GraphClassSpec(6, 1), Sampled(seed=3, trials=200))
    again = measure_gap(MechanismId.parse("never"), GraphClassSpec(6, 1), Sampled(seed=3, trials=200))
    assert report.worst_gap == again.worst_gap and report.witness == again.witness
    assert report.graphs_checked == 200
    assert report.mode == "sampled(seed=3, trials=200)"


# ---- trace invariants ----


def test_trace_checks_pass_vacuously_on_empty_graph():
    report = check_trace_invariants(DirectedGraph.empty(4), ThresholdPair(2, 1))
    assert report.ok and report.trace.deletions == ()


def test_trace_descent_count_on_cascade():
    g = graph(5, (1, 5), (2, 5), (3, 5), (5, 4), (3, 4))
    report = check_trace_invariants(g, ThresholdPair(2, 1))
    assert report.ok
    trace = report.trace
    # vertex 4 dropped from indegree 2 to 1 before its own deletion,
    # accounted for by its one earlier-deleted in-neighbor (vertex 5)
    assert [g.indegrees[3] - d for _, v, d in trace.deletions if v == 4] == [1]
    step = {v: i for i, v, _ in trace.deletions}
    assert [u for u, w in g.edges if w == 4 and step.get(u, len(trace.deletions)) < step[4]] == [5]


@pytest.mark.parametrize(
    "deletions, final_degrees, failed, detail",
    [
        # vertex 4's final degree raised by one
        (((0, 5, 3), (1, 4, 1)), (0, 0, 0, 2, 3), {"remaining_degrees"}, "vertex 4: final degree 2 != recomputed 1"),
        # the first deletion's degree raised by one
        (
            ((0, 5, 4), (1, 4, 1)),
            (0, 0, 0, 1, 3),
            {"descent_counts", "inneighbor_witness"},
            "vertex 5: drop -1 != earlier-deleted in-neighbors 0; vertex 5: 0 in-neighbors above it, expected drop -1",
        ),
        # the last deletion's degree lowered by one
        (
            ((0, 5, 3), (1, 4, 0)),
            (0, 0, 0, 1, 3),
            {"remaining_degrees", "descent_counts", "inneighbor_witness"},
            "vertex 4 deleted at degree 0 < t=1; vertex 4: drop 2 != earlier-deleted in-neighbors 1;"
            " vertex 4: 1 in-neighbors above it, expected drop 2",
        ),
        # the two records swapped, iterations kept
        (
            ((0, 4, 1), (1, 5, 3)),
            (0, 0, 0, 1, 3),
            {"descent_counts", "deletion_order"},
            "vertex 4: drop 1 != earlier-deleted in-neighbors 0; deletion order not strictly decreasing: (1, 4) then (3, 5)",
        ),
    ],
)
def test_trace_checks_fail_on_a_corrupted_trace(monkeypatch, deletions, final_degrees, failed, detail):
    g = graph(5, (1, 5), (2, 5), (3, 5), (5, 4), (3, 4))
    pair = ThresholdPair(2, 1)
    selected, trace = run_twin_threshold(g, pair)
    assert (selected, trace.deletions, trace.final_degrees) == (5, ((0, 5, 3), (1, 4, 1)), (0, 0, 0, 1, 3))
    corrupted = DeletionTrace(deletions, final_degrees)
    monkeypatch.setattr(impsel.audit, "run_twin_threshold", lambda graph, thresholds: (selected, corrupted))
    report = check_trace_invariants(g, pair)
    assert report.trace is corrupted and not report.ok
    assert [c.name for c in report.checks] == ["remaining_degrees", "descent_counts", "deletion_order", "inneighbor_witness"]
    assert {c.name for c in report.checks if not c.ok} == failed
    assert "; ".join(c.detail for c in report.checks if not c.ok) == detail


def test_trace_checks_over_a_whole_class():
    spec = GraphClassSpec(4, None)
    for g in enumerate_graphs(spec):
        report = check_trace_invariants(g, ThresholdPair(2, 1))
        assert report.ok, (g.edges, [c for c in report.checks if not c.ok])


# ---- symmetrization ----


def test_probability_vector_validation():
    with pytest.raises(ValueError):
        ProbabilityVector((Fraction(-1, 2), Fraction(0)))
    with pytest.raises(ValueError):
        ProbabilityVector((Fraction(2, 3), Fraction(2, 3)))
    v = ProbabilityVector((Fraction(1, 3), Fraction(1, 3)))
    assert v.mass == Fraction(2, 3) and v.prob(2) == Fraction(1, 3)


def test_symmetrize_examples():
    zero = symmetrize_eval(resolve(MechanismId.parse("never")), graph(3, (1, 2)))
    assert zero.mass == 0

    # both relabelings of the single edge select the image of vertex 2
    v = symmetrize_eval(resolve(MechanismId.parse("max-naive")), graph(2, (1, 2)))
    assert v.probs == (Fraction(0), Fraction(1))

    complete = graph(3, (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2))
    uniform = symmetrize_eval(resolve(MechanismId.parse("max-naive")), complete)
    assert uniform.probs == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))

    # follow:1 selects pi(3) on the relabeled edge pi(2) -> pi(3) exactly when
    # pi(2) = 1: two of the six permutations, all of them crediting vertex 3
    lone = symmetrize_eval(resolve(MechanismId.parse("follow:1")), graph(3, (2, 3)))
    assert lone.probs == (Fraction(0), Fraction(0), Fraction(1, 3))


def test_symmetrize_respects_factorial_cap():
    with pytest.raises(CapExceeded):
        symmetrize_eval(resolve(MechanismId.parse("never")), DirectedGraph.empty(FACTORIAL_CAP + 1))


def test_symmetrized_table_refuses_classes_over_the_audit_cap():
    # G_6(2) has 16^6 graphs: under the factorial cap, over the audit cap
    with pytest.raises(CapExceeded, match="audit cap"):
        symmetrized_table(MechanismId.parse("never"), GraphClassSpec(6, 2))


@pytest.mark.parametrize(
    "spec, texts, error, refusal",
    [
        pytest.param(GraphClassSpec(8, 1), ("max-naive",), CapExceeded, "factorial cap", id="G_8(1)-factorial cap"),
        pytest.param(GraphClassSpec(6, 2), ("max-naive",), CapExceeded, "audit cap", id="G_6(2)-audit cap"),
        pytest.param(GraphClassSpec(6, 2, True), ("max-naive",), CapExceeded, "audit cap", id="G+_6(2)-audit cap"),
        pytest.param(
            GraphClassSpec(3, 1), ("twin:5,1", "follow:4"), ValueError, r"invalid for n=3|outside 1\.\.3",
            id="G_3(1)-parameters",
        ),
    ],
)
def test_symmetrization_refuses_before_enumerating(monkeypatch, spec, texts, error, refusal):
    # G_8(1) is over the factorial cap; G_6(2) (16^6 graphs) and G+_6(2)
    # (15^6) are under it but over the audit cap.  The batch kernels do not
    # check parameters: twin:5,1 would never select on G_3(1), and follow:4
    # would index past its rows.
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated before the cap and parameter checks")

    monkeypatch.setattr(impsel.audit, "digit_block", no_enumeration)
    monkeypatch.setattr(impsel.audit, "_outcome_table", no_enumeration)
    for text in texts:
        for check in (symmetrized_table, check_weak_unanimity_inheritance):
            with pytest.raises(error, match=refusal):
                check(MechanismId.parse(text), spec)


def test_symmetry_law_by_direct_enumeration():
    mechanism = resolve(MechanismId.parse("max-naive"))
    spec = GraphClassSpec(3, 1)
    for g in enumerate_graphs(spec):
        fs = symmetrize_eval(mechanism, g)
        for perm in Permutation.all_of(3):
            relabeled = symmetrize_eval(mechanism, g.relabel(perm))
            for v in range(1, 4):
                assert relabeled.prob(perm(v)) == fs.prob(v)


@pytest.mark.parametrize(
    "spec, texts",
    [
        pytest.param(GraphClassSpec(3, 1), None, id="G_3(1)"),
        pytest.param(GraphClassSpec(4, 1), None, id="G_4(1)"),
        pytest.param(GraphClassSpec(4), ("max-naive", "twin:2,1"), id="G_4", marks=pytest.mark.slow),
        pytest.param(GraphClassSpec(4, 2, True), None, id="G+_4(2)", marks=pytest.mark.slow),
    ],
)
def test_symmetrized_table_matches_symmetrize_eval(monkeypatch, spec, texts):
    # texts None: every registry mechanism valid for n.  Blocks of 7 graphs
    # make the class span several blocks.
    monkeypatch.setattr(impsel.audit, "KERNEL_BLOCK", 7)
    graphs = list(enumerate_graphs(spec))
    for mid in _every_mechanism(spec.n) if texts is None else map(MechanismId.parse, texts):
        table = symmetrized_table(mid, spec)
        assert list(table) == [g.key for g in graphs]
        for g in graphs:
            assert table[g.key] == symmetrize_eval(resolve(mid), g), (mid, g)


def test_symmetrization_inherits_impartiality_on_impartial_base():
    mid = MechanismId.parse("majority")
    spec = GraphClassSpec(3, 1)
    assert check_impartiality(mid, spec) == []
    table = symmetrized_table(mid, spec)
    for base in enumerate_graphs(spec):
        for v in range(1, 4):
            for other in deviations(base, v, spec):
                assert table[base.key].prob(v) == table[other.key].prob(v)


def test_weak_unanimity_inheritance():
    report = check_weak_unanimity_inheritance(MechanismId.parse("majority"), GraphClassSpec(3, 1))
    assert report.premise_holds and report.ok and report.graphs_checked > 0
    report = check_weak_unanimity_inheritance(MechanismId.parse("max-naive"), GraphClassSpec(4, 1))
    assert report.premise_holds and report.ok
    # on a G+_3(1) star centred at 1, follow:1 selects the indegree-1 vertex 1
    # nominates, so part of the symmetrized mass sits on indegree-1 vertices
    # and must count as positive indegree
    report = check_weak_unanimity_inheritance(MechanismId.parse("follow:1"), GraphClassSpec(3, 1, True))
    assert report.premise_holds and report.ok and report.graphs_checked == 6
    # never selects nothing, so the premise fails and the check is vacuous
    report = check_weak_unanimity_inheritance(MechanismId.parse("never"), GraphClassSpec(3, 1))
    assert not report.premise_holds and report.ok
    # G+_1 has no graphs, so it has no star graph either
    empty = GraphClassSpec(1, None, True)
    assert symmetrized_table(MechanismId.parse("majority"), empty) == {}
    report = check_weak_unanimity_inheritance(MechanismId.parse("majority"), empty)
    assert report == WeakUnanimityReport(True, True, 0)


def test_weak_unanimity_applies_only_the_block_rule(monkeypatch):
    # the premise and the masses are read from the outcome table and the
    # indegree rows; no per-graph rule runs and, on a passing class, no graph
    # is built
    def per_graph(*args):
        raise AssertionError("ran the per-graph rule or built a graph")

    monkeypatch.setattr(impsel.audit, "resolve", per_graph)
    monkeypatch.setattr(impsel.audit, "graph_at_index", per_graph)
    for text, spec in (("majority", GraphClassSpec(3, 1)), ("max-naive", GraphClassSpec(4, 1)),
                       ("follow:1", GraphClassSpec(3, 1, True))):
        report = check_weak_unanimity_inheritance(MechanismId.parse(text), spec)
        assert report.premise_holds and report.ok and report.graphs_checked > 0, text
    report = check_weak_unanimity_inheritance(MechanismId.parse("never"), GraphClassSpec(3, 1))
    assert not report.premise_holds and report.ok
    report = check_weak_unanimity_inheritance(MechanismId.parse("majority"), GraphClassSpec(1, None, True))
    assert report == WeakUnanimityReport(True, True, 0)


def test_weak_unanimity_names_a_graph_whose_mass_falls_short(monkeypatch):
    # a lost relabeling on the first star is the one failure, so its graph,
    # and only it, is built to name it
    counts, built = impsel.audit._symmetrized_counts, []

    def short(table, spec, indices):
        rows = counts(table, spec, indices)
        rows[0, 1:] -= rows[0, 1:] == rows[0, 1:].max()
        return rows

    def build(spec, i):
        built.append(i)
        return graph_at_index(spec, i)

    monkeypatch.setattr(impsel.audit, "_symmetrized_counts", short)
    monkeypatch.setattr(impsel.audit, "graph_at_index", build)
    spec = GraphClassSpec(3, 1)
    report = check_weak_unanimity_inheritance(MechanismId.parse("max-naive"), spec)
    star = next(i for i, g in enumerate(enumerate_graphs(spec)) if g.max_indegree == 2)
    assert report.premise_holds and not report.ok and built == [star]
    assert report.detail == f"graph {graph_at_index(spec, star).key}: positive-indegree mass 5/6 != 1"


@pytest.mark.parametrize("block", [7, 1 << 16])
def test_weak_unanimity_stars_are_the_graphs_with_a_universal_nominee(monkeypatch, block):
    monkeypatch.setattr(impsel.audit, "KERNEL_BLOCK", block)
    counts, seen = impsel.audit._symmetrized_counts, []

    def spy(mid, spec, indices):
        seen.append(indices.tolist())
        return counts(mid, spec, indices)

    monkeypatch.setattr(impsel.audit, "_symmetrized_counts", spy)
    for text, spec in (("max-naive", GraphClassSpec(4, 1)), ("follow:1", GraphClassSpec(3, 1, True)),
                       ("majority", GraphClassSpec(4))):
        seen.clear()
        report = check_weak_unanimity_inheritance(MechanismId.parse(text), spec)
        stars = [i for i, g in enumerate(enumerate_graphs(spec)) if g.max_indegree == spec.n - 1]
        assert seen == [stars] and report.graphs_checked == len(stars), (text, spec)
