import concurrent.futures
import json
import tracemalloc
from fractions import Fraction
from itertools import permutations, product

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
    Sampled,
    ThresholdPair,
    Violation,
    check_impartiality,
    check_trace_invariants,
    measure_gap,
    resolve,
    run_twin_threshold,
)
from impsel._deletion import outset_rows, run_deletion, run_deletion_rows, select_top
from impsel.cli import main
from impsel.graphs import deviations, graph_at_index
from impsel.mechanisms import MECHANISMS, batch_kernel_for, kernel_for
from conftest import graph
from oracles import (
    canonical_order,
    class_graphs,
    fresh_text,
    gap_by_definition,
    relabeled_key,
    sampled_gap_by_definition,
    sampled_violations_by_definition,
    same_outside_deviator,
    symmetrized_by_definition,
    violating_pairs_by_full_scan,
    violation_count_by_lines,
    violations_by_definition,
    weak_unanimity_by_definition,
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
        Violation(a, b, 1, True)
    with pytest.raises(ValueError, match="vertex set"):
        Violation("n 3\ne 1 2\n", "n 4\ne 1 3\n", 1, True)  # headers differ
    for v in (0, 4):  # deviator outside 1..n
        with pytest.raises(ValueError, match="vertex set"):
            Violation(a, "n 3\ne 1 3\n", v, True)
    # vertex 1's lines are "e 1 ...", not those of vertex 10
    with pytest.raises(ValueError, match="outside the outgoing edges of 1"):
        Violation("n 11\ne 1 2\ne 10 1\n", "n 11\ne 10 2\n", 1, True)
    # accepted: vertex 2 abstains in one graph, and in the other its line sits
    # between vertex 1's and vertex 3's, so the texts differ in that line alone
    a, b = "n 3\ne 1 2\ne 2 1\ne 3 1\n", "n 3\ne 1 2\ne 3 1\n"
    w = Violation(a, b, 2, True)
    assert w.selected_b is False
    assert w.graph_a == graph(3, (1, 2), (2, 1), (3, 1)) and w.graph_b == graph(3, (1, 2), (3, 1))
    Violation("n 3\n", "n 3\ne 1 2\ne 1 3\n", 1, False)  # no edge line at all in one text


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
        Violation(a, b, v, True)
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
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)  # the kernel pass imports it when it starts a pool
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


def _spread_windows(size, width=400):
    """Windows of `width` graphs spread over a class of `size` > width
    graphs, the last one ending the class."""
    return [(lo, lo + width) for lo in range(0, size - width, size // 6 + 1)] + [(size - width, size)]


def test_batch_kernels_match_scalar_kernels_on_windows_of_g5(monkeypatch):
    # G_5 has 2**20 graphs; the scalar reference on all of them, for every
    # mechanism, takes minutes, so windows spread over the class stand in.
    monkeypatch.setattr(impsel.audit, "KERNEL_BLOCK", 7)
    spec = GraphClassSpec(5)
    windows = _spread_windows(spec.size)
    graphs = {(lo, hi): _graphs(spec, lo, hi) for lo, hi in windows}
    for mid in _every_mechanism(spec.n):
        for lo, hi in windows:
            got = impsel.audit._outcome_chunk((mid, spec, lo, hi))
            assert got.tolist() == _scalar_outcomes(mid, graphs[lo, hi]), (mid.text(), lo)


@pytest.mark.parametrize(
    "spec",
    [GraphClassSpec(1), GraphClassSpec(3), GraphClassSpec(4, 1), GraphClassSpec(4, 2, True), GraphClassSpec(5, 2),
     GraphClassSpec(5)],
    ids=lambda spec: spec.describe(),
)
def test_class_blocks_are_digit_rows_in_the_members_index_type(monkeypatch, spec):
    # a block's choice is the class's digit rows plus vertex v's row offset
    # (v-1)*R, whatever the block size and wherever a window starts: sizes
    # around R and R**2 change how many digits come from the template.  The
    # whole-class windows run where they take at most 20,000 blocks (on
    # G_5(2), 161,051 graphs, from blocks of R-1; on G_5, 2**20, from R**2);
    # the spread windows of the G_5 kernel test run on every class larger
    # than them.
    n, radix, size = spec.n, spec.outset_count, spec.size
    place = np.array([radix ** (n - v) for v in range(1, n + 1)], dtype=np.int64)
    for block in sorted({1, 2, radix - 1, radix, radix + 1, radix**2, 997, 1 << 16} - {0}):
        monkeypatch.setattr(impsel.audit, "KERNEL_BLOCK", block)
        make = impsel.audit._class_block(spec)
        windows = [(0, size), (1, size - 1)] if size // block <= 20_000 else []
        windows += _spread_windows(size) if size > 400 else []
        for lo, hi in windows:
            expect = np.arange(lo, hi)[:, None] // place % radix + np.arange(n) * radix
            for a, b in impsel.audit._blocks(lo, hi):
                members, choice = make(a, b)
                assert choice.dtype == np.min_scalar_type(len(members)) != np.int64
                assert len(choice) <= block and np.array_equal(choice, expect[a - lo : b - lo]), (block, a, b)


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
    # the kernel pass computes the gaps from the blocks it evaluates, so each
    # block is built once: 5 blocks of G_4(1)'s 256 graphs
    calls = []
    make = impsel.audit._class_block

    def counting(spec):
        block = make(spec)

        def build(lo, hi):
            calls.append(hi - lo)
            return block(lo, hi)

        return build

    monkeypatch.setattr(impsel.audit, "KERNEL_BLOCK", 60)
    monkeypatch.setattr(impsel.audit, "_class_block", counting)
    mid, spec = MechanismId.parse("majority"), GraphClassSpec(4, 1)
    report = measure_gap(mid, spec)
    assert calls == [60, 60, 60, 60, 16]
    assert (report.worst_gap, report.witness) == gap_by_definition(resolve(mid), spec)


def test_exhaustive_kernel_pass_memory_is_bounded():
    # G_7(1)'s 823,543 graphs in 13 blocks: the outcome table and one block's
    # narrow choice array and kernel arrays trace about 3.9 MB; int64 digit
    # rows of a block would take it to about 7.8 MB
    mid, spec = MechanismId.parse("twin:4,1"), GraphClassSpec(7, 1)
    tracemalloc.start()
    try:
        table = impsel.audit._outcome_table(mid, spec, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == spec.size and peak < 5 * 2**20, peak


def test_outcome_table_is_held_once(monkeypatch):
    # each block's result is written into the one table, so the traced peak
    # is the table and one block's working arrays, not the table twice
    monkeypatch.setattr(impsel.audit, "KERNEL_BLOCK", 4096)
    mid, spec = MechanismId.parse("twin:4,1"), GraphClassSpec(7, 1)
    for score in (None, impsel.audit._gaps):
        tracemalloc.start()
        try:
            table = impsel.audit._outcome_table(mid, spec, 1, score=score)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table) == spec.size and peak < 1.5 * table.nbytes, (score, peak, table.nbytes)


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
        graphs = list(class_graphs(spec))
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


@pytest.mark.parametrize(
    "spec, texts, modes, error, refusal",
    [
        pytest.param(GraphClassSpec(6, 2), ("max-naive",), (Exhaustive(),), CapExceeded, "audit cap",
                     id="G_6(2)-audit cap"),
        pytest.param(GraphClassSpec(6, 2, True), ("max-naive",), (Exhaustive(),), CapExceeded, "audit cap",
                     id="G+_6(2)-audit cap"),
        pytest.param(
            GraphClassSpec(3, 1), ("twin:5,1", "follow:4"), (Exhaustive(), Sampled(1, 5)), ValueError,
            r"upper threshold 5 exceeds n-1=2|outside 1\.\.3", id="G_3(1)-parameters",
        ),
    ],
)
def test_audits_refuse_before_any_kernel_runs(monkeypatch, spec, texts, modes, error, refusal):
    # G_6(2) (16^6 graphs) and G+_6(2) (15^6) are over the exhaustive audit
    # cap; sampled audits cap one graph's rows instead (the two tests above),
    # which these classes are far under.  The batch kernels do not check
    # parameters: twin:5,1 would never select on G_3(1), and follow:4 would
    # index past its rows.
    def no_kernel(*args, **kwargs):
        raise AssertionError("walked or sampled the class before the cap and parameter checks")

    for name in ("_class_block", "_outcome_table", "sample_ranks", "batch_kernel_for"):
        monkeypatch.setattr(impsel.audit, name, no_kernel)
    for text in texts:
        for mode in modes:
            for audit in (check_impartiality, measure_gap):
                with pytest.raises(error, match=refusal):
                    audit(MechanismId.parse(text), spec, mode)


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
    assert Sampled(seed=3, trials=200).describe() == "sampled(seed=3, trials=200)"


# ---- trace invariants ----


def test_trace_checks_pass_vacuously_on_empty_graph():
    g, pair = graph(4), ThresholdPair(2, 1)
    selected, trace = run_twin_threshold(g, pair)
    assert trace.deletions == () and all(c.ok for c in check_trace_invariants(g, pair, selected, trace))


def test_trace_descent_count_on_cascade():
    g = graph(5, (1, 5), (2, 5), (3, 5), (5, 4), (3, 4))
    pair = ThresholdPair(2, 1)
    selected, trace = run_twin_threshold(g, pair)
    assert all(c.ok for c in check_trace_invariants(g, pair, selected, trace))
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
        # the second record numbered 2
        (((0, 5, 3), (2, 4, 1)), (0, 0, 0, 1, 3), {"deletion_order"}, "record 1 has iteration 2"),
        # vertex 4 deleted a second time
        (
            ((0, 5, 3), (1, 4, 1), (2, 4, 1)),
            (0, 0, 0, 1, 3),
            {"deletion_order"},
            "vertex 4 deleted again at record 2; deletion order not strictly decreasing: (1, 4) then (1, 4)",
        ),
    ],
)
def test_trace_checks_fail_on_a_corrupted_trace(deletions, final_degrees, failed, detail):
    g = graph(5, (1, 5), (2, 5), (3, 5), (5, 4), (3, 4))
    pair = ThresholdPair(2, 1)
    selected, trace = run_twin_threshold(g, pair)
    assert (selected, trace.deletions, trace.final_degrees) == (5, ((0, 5, 3), (1, 4, 1)), (0, 0, 0, 1, 3))
    checks = check_trace_invariants(g, pair, selected, DeletionTrace(deletions, final_degrees))
    assert [c.name for c in checks] == [
        "remaining_degrees", "descent_counts", "deletion_order", "inneighbor_witness", "selection"
    ]
    assert {c.name for c in checks if not c.ok} == failed
    assert "; ".join(c.detail for c in checks if not c.ok) == detail


def test_trace_checks_read_only_their_inputs(monkeypatch):
    g = graph(5, (1, 5), (2, 5), (3, 5), (5, 4), (3, 4))
    pair = ThresholdPair(2, 1)
    selected, trace = run_twin_threshold(g, pair)

    def refused(graph, thresholds):
        raise AssertionError("the checker ran the mechanism")

    monkeypatch.setattr(impsel.audit, "run_twin_threshold", refused)
    assert all(c.ok for c in check_trace_invariants(g, pair, selected, trace))
    checks = check_trace_invariants(g, pair, selected, DeletionTrace(((0, 5, 3), (2, 4, 1)), trace.final_degrees))
    assert [(c.name, c.detail) for c in checks if not c.ok] == [("deletion_order", "record 1 has iteration 2")]


def test_trace_checks_on_a_run_report(capsys, tmp_path):
    # the records of `run --json --trace`, read back as a trace, check
    # without a re-run; one record's degree changed fails descent_counts
    g = graph(6, (2, 1), (3, 1), (4, 1), *((u, v) for u in (5, 6) for v in (2, 3, 4)))
    path = tmp_path / "g.g"
    path.write_text(g.serialize())
    assert main(["run", "--graph", str(path), "--T", "2", "--t", "2", "--json", "--trace"]) == 0
    report = json.loads(capsys.readouterr().out)
    pair, selected = ThresholdPair(report["T"], report["t"]), report["selected"][0]
    records = [(r["i"], r["v"], r["dstar"]) for r in report["trace"]]
    trace = DeletionTrace(tuple(records), tuple(report["final_degrees"]))
    assert all(c.ok for c in check_trace_invariants(g, pair, selected, trace))
    records[1] = (1, 4, 3)
    checks = check_trace_invariants(g, pair, selected, DeletionTrace(tuple(records), trace.final_degrees))
    assert "descent_counts" in {c.name for c in checks if not c.ok}


def test_trace_checks_over_a_whole_class():
    spec = GraphClassSpec(4, None)
    pair = ThresholdPair(2, 1)
    for g in class_graphs(spec):
        failed = [c for c in check_trace_invariants(g, pair, *run_twin_threshold(g, pair)) if not c.ok]
        assert failed == [], g.edges


def test_trace_checks_fail_on_a_trace_that_leaves_out_a_vertex():
    # 2, 3 and 4 nominate 1; 5 and 6 nominate each of 2, 3 and 4.  The run
    # deletes 1 at degree 3 first.  A trace without 1 has the same final
    # degrees and selection, and each record is at its vertex's degree; but
    # the sweep would have taken 1, at pair (3, 1), before 4 at (2, 4).
    g = graph(6, (2, 1), (3, 1), (4, 1), *((u, v) for u in (5, 6) for v in (2, 3, 4)))
    pair = ThresholdPair(2, 2)
    selected, trace = run_twin_threshold(g, pair)
    assert (selected, trace.deletions) == (4, ((0, 1, 3), (1, 4, 2), (2, 3, 2), (3, 2, 2)))
    corrupted = DeletionTrace(((0, 4, 2), (1, 3, 2), (2, 2, 2)), trace.final_degrees)
    checks = check_trace_invariants(g, pair, selected, corrupted)
    assert [(c.name, c.detail) for c in checks if not c.ok] == [
        ("inneighbor_witness", "vertex 1: witness 0 at (2, 4) not above (3, 1)")
    ]


def test_trace_checks_fail_on_a_wrong_selection():
    g = graph(5, (1, 5), (2, 5), (3, 5), (5, 4), (3, 4))
    pair = ThresholdPair(2, 1)
    selected, trace = run_twin_threshold(g, pair)
    assert selected == 5
    checks = check_trace_invariants(g, pair, 1, trace)
    assert [(c.name, c.detail) for c in checks if not c.ok] == [
        ("selection", "selected 1, select_top of the final degrees at T=2 is 5")
    ]


@pytest.mark.parametrize(
    "g, pair, selected, trace, problems",
    [
        # a record of vertex 0 on a run that deletes nothing
        pytest.param(
            graph(3), ThresholdPair(1, 1), 0, DeletionTrace(((0, 0, 0),), (0, 0, 0)),
            [("deletion_order", "record 0 names vertex 0 outside 1..3")], id="vertex 0",
        ),
        # the run (2, ((0, 2, 2),), (0, 2, 0)) with a fourth final degree that selection would read
        pytest.param(
            graph(3, (1, 2), (3, 2)), ThresholdPair(2, 2), 4, DeletionTrace(((0, 2, 2),), (0, 2, 0, 5)),
            [("remaining_degrees", "4 final degrees for 3 vertices"), ("selection", "selected 4 outside 0..3")],
            id="n+1 final degrees",
        ),
        # the run plus a record of vertex -3, which indexed vertex 1's slot and then raised IndexError
        pytest.param(
            graph(3, (1, 3), (2, 3)), ThresholdPair(2, 2), 3, DeletionTrace(((0, 3, 2), (1, -3, 1)), (0, 0, 2)),
            [("deletion_order", "record 1 names vertex -3 outside 1..3")], id="vertex -3",
        ),
        # too few final degrees: the missing one reads as 0
        pytest.param(
            graph(3, (1, 2), (3, 2)), ThresholdPair(2, 2), 2, DeletionTrace(((0, 2, 2),), (0, 2)),
            [("remaining_degrees", "2 final degrees for 3 vertices")], id="n-1 final degrees",
        ),
    ],
)
def test_trace_checks_fail_on_malformed_records(g, pair, selected, trace, problems):
    # records that name no vertex of the graph fail a worded check; none raises
    # or reads such a record into another vertex's entry
    assert [(c.name, c.detail) for c in check_trace_invariants(g, pair, selected, trace) if not c.ok] == problems


@pytest.mark.parametrize(
    "selected, deletions, final_degrees, problems",
    [
        # vertex 2 as a JSON float: the record is left unread, so vertex 2 counts as undeleted
        pytest.param(2, ((0, 2.0, 2),), (0, 2, 0), [
            ("remaining_degrees", "undeleted vertex 2 ended at degree 2 >= t=2"),
            ("deletion_order", "record 0 is not three ints: (0, 2.0, 2)"),
        ], id="float vertex"),
        pytest.param(2, ((0, 2),), (0, 2, 0), [
            ("remaining_degrees", "undeleted vertex 2 ended at degree 2 >= t=2"),
            ("deletion_order", "record 0 is not three ints: (0, 2)"),
        ], id="two fields"),
        # the run plus a malformed record that would delete vertex 2 again if read
        pytest.param(2, ((0, 2, 2), (1, 2.0, 2)), (0, 2, 0), [
            ("deletion_order", "record 1 is not three ints: (1, 2.0, 2)"),
        ], id="extra float record"),
        pytest.param(2, ((0, 2, 2), (1, True, 2)), (0, 2, 0), [
            ("deletion_order", "record 1 is not three ints: (1, True, 2)"),
        ], id="extra bool record"),
        pytest.param(2, ((0, 2, 2), 7), (0, 2, 0), [
            ("deletion_order", "record 1 is not three ints: 7"),
        ], id="extra scalar record"),
        # the other checks read the float degree as 0, so selection fails too
        pytest.param(2, ((0, 2, 2),), (0, 2.0, 0), [
            ("remaining_degrees", "vertex 2: final degree 2.0 is not an int"),
            ("selection", "selected 2, select_top of the final degrees at T=2 is 0"),
        ], id="float final degree"),
        pytest.param("2", ((0, 2, 2),), (0, 2, 0), [("selection", "selected '2' is not an int")], id="str selected"),
        pytest.param(2.0, ((0, 2, 2),), (0, 2, 0), [("selection", "selected 2.0 is not an int")], id="float selected"),
        pytest.param(True, ((0, 2, 2),), (0, 2, 0), [("selection", "selected True is not an int")], id="bool selected"),
    ],
)
def test_trace_checks_fail_on_records_of_the_wrong_type(selected, deletions, final_degrees, problems):
    # a count or vertex id must be an exact int: the JSON values true, 2.0 and
    # "2" fail the check that reads them, and nothing raises
    g, pair = graph(3, (1, 2), (3, 2)), ThresholdPair(2, 2)
    selected_run, run = run_twin_threshold(g, pair)
    assert (selected_run, run.deletions, run.final_degrees) == (2, ((0, 2, 2),), (0, 2, 0))
    checks = check_trace_invariants(g, pair, selected, DeletionTrace(deletions, final_degrees))
    assert len(checks) == 5
    assert [(c.name, c.detail) for c in checks if not c.ok] == problems


def _trace_of_order(g, order, upper):
    """(selection, trace) of deleting the vertices `order` in turn, each
    recorded at its remaining degree then, the selection read from the final
    degrees at upper threshold `upper`: a trace consistent in every count."""
    deg, records = list(g.indegrees), []
    for i, v in enumerate(order):
        records.append((i, v, deg[v - 1]))
        for w in g.out_sets[v - 1]:
            deg[w - 1] -= 1
    return select_top(deg, upper), DeletionTrace(tuple(records), tuple(deg))


def _corrupted_orders(order, n):
    """Every deletion order one step from `order`: one deletion dropped, two
    adjacent ones swapped, or an undeleted vertex inserted anywhere."""
    for k in range(len(order)):
        yield order[:k] + order[k + 1 :]
    for k in range(len(order) - 1):
        yield order[:k] + (order[k + 1], order[k]) + order[k + 2 :]
    for u in sorted(set(range(1, n + 1)) - set(order)):
        for k in range(len(order) + 1):
            yield order[:k] + (u,) + order[k:]


@pytest.mark.parametrize(
    "spec, runs, corruptions",
    [
        pytest.param(GraphClassSpec(3), 192, 976, id="G_3"),
        pytest.param(GraphClassSpec(4, 1), 1536, 10341, id="G_4(1)"),
        pytest.param(GraphClassSpec(4), 24576, 192480, id="G_4", marks=pytest.mark.slow),
    ],
)
def test_trace_checks_pass_exactly_the_run(spec, runs, corruptions):
    # every real run passes, and every consistent trace of another deletion
    # order fails: the checks pin the trace down to the run
    pairs = [ThresholdPair(upper, lower) for upper in range(1, spec.n) for lower in range(1, upper + 1)]
    ran, corrupted = 0, 0
    for g in class_graphs(spec):
        for pair in pairs:
            selected, trace = run_twin_threshold(g, pair)
            order = tuple(v for _, v, _ in trace.deletions)
            again, rebuilt = _trace_of_order(g, order, pair.upper)
            assert (again, rebuilt.deletions) == (selected, trace.deletions)
            assert rebuilt.final_degrees == trace.final_degrees
            assert all(c.ok for c in check_trace_invariants(g, pair, selected, trace)), (g.edges, pair)
            ran += 1
            for other in _corrupted_orders(order, spec.n):
                checks = check_trace_invariants(g, pair, *_trace_of_order(g, other, pair.upper))
                assert not all(c.ok for c in checks), (g.edges, pair, other)
                corrupted += 1
    assert (ran, corrupted) == (runs, corruptions)


# ---- symmetrization, on the test oracle (the project's only symmetrization) ----


def test_symmetrize_examples():
    def symmetrized(text, g):
        return symmetrized_by_definition(resolve(MechanismId.parse(text)), GraphClassSpec(g.n))[g.key]

    assert symmetrized("never", graph(3, (1, 2))) == (0, 0, 0)

    # both relabelings of the single edge select the image of vertex 2
    assert symmetrized("max-naive", graph(2, (1, 2))) == (Fraction(0), Fraction(1))

    complete = graph(3, (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2))
    assert symmetrized("max-naive", complete) == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))

    # follow:1 selects pi(3) on the relabeled edge pi(2) -> pi(3) exactly when
    # pi(2) = 1: two of the six permutations, all of them crediting vertex 3
    assert symmetrized("follow:1", graph(3, (2, 3))) == (Fraction(0), Fraction(0), Fraction(1, 3))


def test_symmetry_law_by_direct_enumeration():
    # the symmetrization of pi's image of a graph gives pi(v) what the graph gives v
    spec = GraphClassSpec(3, 1)
    table = symmetrized_by_definition(resolve(MechanismId.parse("max-naive")), spec)
    for g in class_graphs(spec):
        for images in permutations(range(1, 4)):
            relabeled = table[relabeled_key(g, images)]
            for v in range(1, 4):
                assert relabeled[images[v - 1] - 1] == table[g.key][v - 1]


@pytest.mark.parametrize(
    "spec, texts",
    [
        pytest.param(GraphClassSpec(3, 1), None, id="G_3(1)"),
        pytest.param(GraphClassSpec(4, 1), None, id="G_4(1)"),
        pytest.param(GraphClassSpec(4), ("max-naive", "twin:2,1"), id="G_4", marks=pytest.mark.slow),
        pytest.param(GraphClassSpec(4, 2, True), None, id="G+_4(2)", marks=pytest.mark.slow),
    ],
)
def test_symmetrized_vectors_are_probability_vectors(spec, texts):
    # one vector per class graph, in class order, with n entries, none
    # negative, of mass at most 1.  texts None: every registry mechanism valid for n.
    keys = [g.key for g in class_graphs(spec)]
    for mid in _every_mechanism(spec.n) if texts is None else map(MechanismId.parse, texts):
        table = symmetrized_by_definition(resolve(mid), spec)
        assert list(table) == keys, mid
        for key, vector in table.items():
            assert len(vector) == spec.n and min(vector) >= 0 and sum(vector) <= 1, (mid, key, vector)


def test_symmetrization_inherits_impartiality_on_impartial_base():
    mid = MechanismId.parse("majority")
    spec = GraphClassSpec(3, 1)
    assert check_impartiality(mid, spec) == []
    table = symmetrized_by_definition(resolve(mid), spec)
    for base in class_graphs(spec):
        for v in range(1, 4):
            for other in deviations(base, v, spec):
                assert table[base.key][v - 1] == table[other.key][v - 1]


def _weak_unanimity(text, spec):
    mechanism = resolve(MechanismId.parse(text))
    return weak_unanimity_by_definition(mechanism, spec, symmetrized_by_definition(mechanism, spec))


def test_weak_unanimity_inheritance():
    premise, stars, problems = _weak_unanimity("majority", GraphClassSpec(3, 1))
    assert premise and problems == [] and stars > 0
    premise, stars, problems = _weak_unanimity("max-naive", GraphClassSpec(4, 1))
    assert premise and problems == [] and stars > 0
    # on a G+_3(1) star centred at 1, follow:1 selects the indegree-1 vertex 1
    # nominates, so part of the symmetrized mass sits on indegree-1 vertices
    # and must count as positive indegree
    assert _weak_unanimity("follow:1", GraphClassSpec(3, 1, True)) == (True, 6, [])
    # never selects nothing, so the premise fails and the check is vacuous
    premise, stars, problems = _weak_unanimity("never", GraphClassSpec(3, 1))
    assert not premise and problems == [] and stars > 0
    # G+_1 has no graphs, so it has no star graph either
    empty = GraphClassSpec(1, None, True)
    assert symmetrized_by_definition(resolve(MechanismId.parse("majority")), empty) == {}
    assert _weak_unanimity("majority", empty) == (True, 0, [])


def test_weak_unanimity_names_a_graph_whose_mass_falls_short():
    # a relabeling taken off the first star's largest entry is the one
    # failure, and the check names that star
    mechanism, spec = resolve(MechanismId.parse("max-naive")), GraphClassSpec(3, 1)
    table = symmetrized_by_definition(mechanism, spec)
    star = next(g for g in class_graphs(spec) if g.max_indegree == 2)
    vector = table[star.key]
    top = vector.index(max(vector))
    table[star.key] = tuple(p - Fraction(1, 6) if v == top else p for v, p in enumerate(vector))
    premise, _, problems = weak_unanimity_by_definition(mechanism, spec, table)
    assert premise and problems == [f"graph {star.key}: positive-indegree mass 5/6 != 1"]
