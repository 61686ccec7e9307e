import dataclasses
import random
from fractions import Fraction
from itertools import count
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import impsel.twin_threshold
from impsel import (
    DirectedGraph,
    GraphClassSpec,
    MechanismId,
    ThresholdPair,
    additive_gap,
    check_trace_invariants,
    enumerate_graphs,
    plan_thresholds_general,
    plan_thresholds_k1,
    resolve,
    run_twin_threshold,
    sample_stream,
    validate_thresholds,
)
from impsel._deletion import run_deletion
from conftest import graph
from oracles import deletion_by_definition


def test_threshold_pair_validation():
    with pytest.raises(ValueError):
        ThresholdPair(1, 2)  # t > T
    with pytest.raises(ValueError):
        ThresholdPair(1, 0)
    ThresholdPair(4, 1).validate_for(5)
    with pytest.raises(ValueError):
        ThresholdPair(4, 1).validate_for(4)


def test_run_on_empty_graph():
    selected, trace = run_twin_threshold(DirectedGraph.empty(5), ThresholdPair(3, 2))
    assert selected == 0
    assert trace.deletions == ()  # no iteration ran
    assert {v for _, v, _ in trace.deletions} == set()
    assert trace.final_degrees == (0, 0, 0, 0, 0)


def test_run_star_keeps_top_vertex():
    star = graph(5, (2, 1), (3, 1), (4, 1), (5, 1))
    selected, trace = run_twin_threshold(star, ThresholdPair(3, 2))
    assert selected == 1 and star.indegrees[selected - 1] == 4
    assert trace.deletions == ((0, 1, 4),)  # only the hub reaches the lower threshold
    assert trace.final_degrees == (4, 0, 0, 0, 0)
    assert [i for i, v, _ in trace.deletions if v in (1, 2)] == [0] and len(trace.deletions) == 1  # 2 never deleted
    assert {v: d for _, v, d in trace.deletions} == {1: 4}


def test_run_cascade_two_deletions():
    g = graph(5, (1, 5), (2, 5), (3, 5), (5, 4), (3, 4))
    selected, trace = run_twin_threshold(g, ThresholdPair(2, 1))
    assert trace.deletions == ((0, 5, 3), (1, 4, 1))  # 5 first, dropping 4 to degree 1
    assert selected == 5
    assert trace.final_degrees[4] == 3  # vertex 5 keeps its support


def test_no_deletion_below_lower_threshold():
    g = graph(4, (2, 1))
    selected, trace = run_twin_threshold(g, ThresholdPair(3, 2))
    assert trace.deletions == () and selected == 0


def test_deleted_vertex_degrees_keep_dropping_after_deletion():
    # 1 and 2 nominate each other; both are deleted, and the later deletion
    # lowers the earlier victim's remaining degree before selection.
    g = graph(4, (1, 2), (2, 1), (3, 1), (4, 2))
    selected, trace = run_twin_threshold(g, ThresholdPair(2, 1))
    assert trace.deletions == ((0, 2, 2), (1, 1, 1))
    assert trace.final_degrees == (1, 1, 0, 0)
    assert selected == 0  # nothing left at the upper threshold


def test_traced_and_untraced_paths_agree_on_a_class():
    spec = GraphClassSpec(4, None)
    for g in enumerate_graphs(spec):
        for pair in (ThresholdPair(2, 1), ThresholdPair(3, 2), ThresholdPair(3, 3)):
            selected, _ = run_twin_threshold(g, pair)
            assert selected == resolve(MechanismId("twin", (pair.upper, pair.lower)))(g)


def _hub_and_voter_graph(n: int, seed: int) -> DirectedGraph:
    """Voters nominate one hub each, t..2t voters per hub (t = ceil(sqrt n)),
    and every hub nominates another hub, so deletions lower waiting hubs."""
    rng = random.Random(seed)
    t = isqrt(n - 1) + 1
    quotas = []
    while sum(quotas) + (d := rng.randint(t, 2 * t)) <= n - len(quotas) - 1:
        quotas.append(d)
    first_hub = n - len(quotas) + 1
    voters = list(range(1, first_hub))
    rng.shuffle(voters)
    edges = []
    for hub, quota in enumerate(quotas, start=first_hub):
        edges += [(u, hub) for u in voters[:quota]]
        del voters[:quota]
        other = rng.randrange(first_hub, n)
        edges.append((hub, other + (other >= hub)))
    return DirectedGraph.from_edges(n, edges)


def test_deletion_drops_into_a_lower_level_out_of_index_order():
    # at level 2, deleting 5 drops 3 and then deleting 4 drops 2 into level 1,
    # where 1 already waits: level 1 must still go 3, 2, and deleting 3 pushes
    # 1 below the level before its turn
    g = graph(11, (6, 5), (7, 5), (8, 4), (9, 4), (5, 3), (10, 3), (4, 2), (11, 2), (3, 1))
    assert run_deletion(g, 1)[1] == [(0, 5, 2), (1, 4, 2), (2, 3, 1), (3, 2, 1)]
    for t in range(1, g.n):
        assert run_deletion(g, t) == deletion_by_definition(g, t), t


@pytest.mark.parametrize("spec", [GraphClassSpec(8, 3), GraphClassSpec(10, 2, True), GraphClassSpec(12, 11), GraphClassSpec(30, 4)])
def test_deletion_matches_the_rescan_oracle_on_sampled_graphs(spec):
    for g in sample_stream(spec, 5, 40):
        for t in range(1, spec.n):
            assert run_deletion(g, t) == deletion_by_definition(g, t), (g, t)


def test_deletion_matches_the_rescan_oracle_on_a_hub_and_voter_graph():
    for n, seed in ((3000, 1), (2000, 2), (1500, 3), (1000, 4)):
        g = _hub_and_voter_graph(n, seed)
        t = isqrt(n - 1) + 1
        deletions = run_deletion(g, t)[1]
        assert len(deletions) > 10
        # a deletion dropped a hub into a level still >= t, where it was deleted
        assert any(t <= d < g.indegrees[v - 1] for _, v, d in deletions), (n, seed)
        # above every indegree no vertex is queued: nothing is deleted or changed
        assert run_deletion(g, g.max_indegree + 1) == (list(g.indegrees), [])
        for t in range(1, g.n):
            assert run_deletion(g, t) == deletion_by_definition(g, t), (n, seed, t)


def test_additive_gap_examples():
    empty = DirectedGraph.empty(4)
    selected, _ = run_twin_threshold(empty, ThresholdPair(2, 1))
    assert additive_gap(empty, selected) == 0

    star = graph(5, (2, 1), (3, 1), (4, 1), (5, 1))
    selected, _ = run_twin_threshold(star, ThresholdPair(3, 2))
    assert additive_gap(star, selected) == 0
    assert additive_gap(star, 0) == 4  # nothing selected counts as indegree 0
    assert additive_gap(star, 2) == 4


# ---- validation ----


def test_validate_thresholds_examples():
    r = validate_thresholds(100, 1, ThresholdPair(16, 10))
    assert (r.condition_lhs, r.condition_rhs, r.impartial_certified) == (Fraction(107), 102, True)
    r = validate_thresholds(100, 1, ThresholdPair(10, 10))
    assert (r.condition_lhs, r.condition_rhs, r.impartial_certified) == (Fraction(20), 102, False)
    r = validate_thresholds(5, 1, ThresholdPair(4, 1))
    assert (r.condition_lhs, r.condition_rhs, r.impartial_certified) == (Fraction(14), 7, True)
    assert r.alpha_bound == 4 + 5 - 2


def test_condition_margin_is_integral_and_exact():
    # T(T+3) and t(1-t) are both even, so the halved margin is an integer
    r = validate_thresholds(6, 1, ThresholdPair(4, 2))
    assert r.condition_lhs == 13 and r.condition_lhs.denominator == 1
    assert r.impartial_certified == (26 > 2 * 8)


def test_validate_thresholds_rejects_bad_parameters():
    with pytest.raises(ValueError):
        validate_thresholds(5, 0, ThresholdPair(3, 1))
    with pytest.raises(ValueError):
        validate_thresholds(5, 5, ThresholdPair(3, 1))
    with pytest.raises(ValueError):
        validate_thresholds(4, 1, ThresholdPair(4, 1))


# ---- planning ----


def test_plan_k1_spot_values():
    r = plan_thresholds_k1(100)
    assert (r.thresholds.lower, r.thresholds.upper, r.alpha_bound) == (10, 16, 24)
    assert r.impartial_certified and not r.degenerate

    r = plan_thresholds_k1(4)
    assert (r.thresholds.lower, r.thresholds.upper, r.alpha_bound) == (2, 3, 3)

    r = plan_thresholds_k1(2)
    assert r.degenerate and "never select" in r.note
    with pytest.raises(ValueError):
        plan_thresholds_k1(1)


def test_plan_k1_guarantee_is_exact_square_comparison():
    for n in (4, 9, 16, 25, 100, 10_000, 12345):
        r = plan_thresholds_k1(n)
        if not r.degenerate:
            assert r.impartial_certified
            assert r.alpha_bound**2 <= 8 * n


def test_plan_general_spot_values():
    r = plan_thresholds_general(100, 1, 0.0, 1.0)
    assert (r.thresholds.upper, r.thresholds.lower) == (24, 5)
    assert r.condition_lhs == Fraction(576 + 72 + 5 - 25, 2) == 314
    assert r.condition_rhs == 102 and r.impartial_certified

    r = plan_thresholds_general(16, 1, 1.0, 1.0)
    assert r.degenerate  # raw upper threshold 39 exceeds n-1


def test_plan_general_rejects_bad_domains():
    with pytest.raises(ValueError):
        plan_thresholds_general(10, 3, 0.0, 1.0)  # k > c*n^kappa
    with pytest.raises(ValueError):
        plan_thresholds_general(10, 2, 1.5, 1.0)
    with pytest.raises(ValueError):
        plan_thresholds_general(10, 2, 0.5, -1.0)
    with pytest.raises(ValueError):
        plan_thresholds_general(1, 1, 0.0, 1.0)


def test_plan_general_is_exact_where_c_times_n_is_a_perfect_square():
    # s = sqrt(3n) is an integer at these n; flooring a float root gave t one low
    for n in (12, 27, 48, 75, 192, 768, 2028):
        for k in (1, 2, 3):
            r = plan_thresholds_general(n, k, 0, 3)
            lower = max(1, isqrt(3 * n) // 2)  # floor(s/2) = floor(floor(s)/2)
            upper = next(m for m in count(1) if 4 * m * m >= 25 * 3 * n) - 1  # ceil(5s/2) - 1
            assert r.degenerate == (upper > n - 1)
            upper = min(upper, n - 1)
            assert (r.thresholds.upper, r.thresholds.lower) == (upper, min(lower, upper)), (n, k)
    r = plan_thresholds_general(12, 3, 0, 3)
    assert (r.thresholds.lower, r.alpha_bound) == (3, 21)
    # the bench's trace plan keeps its thresholds
    r = plan_thresholds_general(50, 3, 0.0, 3.0)
    assert (r.thresholds.upper, r.thresholds.lower) == (30, 6)


def test_plan_general_reads_kappa_and_c_exactly():
    # s = 256^(3/4) = 64 exactly: t = 32, T = 160 - 1
    for kappa in ("1/2", Fraction(1, 2), 0.5):
        r = plan_thresholds_general(256, 16, kappa, 1)
        assert (r.thresholds.upper, r.thresholds.lower) == (159, 32)
    # s = 81^(3/4) = 27: t = floor(13.5), T = ceil(67.5) - 1
    r = plan_thresholds_general(81, 9, "1/2", "1")
    assert (r.thresholds.upper, r.thresholds.lower) == (67, 13)
    # a float is the decimal it prints as
    assert plan_thresholds_general(100, 3, 0.3, 1.0) == plan_thresholds_general(100, 3, "3/10", 1)
    # the domain check k <= c*n^kappa is exact at its boundary
    plan_thresholds_general(256, 16, "1/2", 1)
    with pytest.raises(ValueError, match="exceeds"):
        plan_thresholds_general(256, 17, "1/2", 1)
    with pytest.raises(ValueError, match="exceeds"):
        plan_thresholds_general(12, 3, 0, "2.9999999999")  # a 1e-9 float slack accepted this
    with pytest.raises(ValueError, match="denominator"):
        plan_thresholds_general(100, 1, "1/100001", 1)


def test_plan_general_alpha_stays_order_root_n_for_constant_k():
    n = 16
    while n <= 4096:
        r = plan_thresholds_general(n, 1, 0.0, 1.0)
        assert not r.degenerate and r.impartial_certified
        assert r.alpha_bound**2 <= 25 * n  # alpha <= 5 sqrt(n), exactly
        n *= 2


def test_plan_k1_dense_range_never_breaks_its_own_promises():
    # the planner checks certification and alpha^2 <= 8n internally whenever
    # the raw thresholds were in range; sweep a dense range to exercise that
    for n in range(2, 600):
        r = plan_thresholds_k1(n)
        assert r.degenerate or (r.impartial_certified and r.alpha_bound**2 <= 8 * n)
        assert 1 <= r.thresholds.lower <= r.thresholds.upper <= n - 1


def test_plan_k1_raises_when_its_own_certification_fails(monkeypatch):
    # The contract must hold under python -O too, so it cannot be an assert.
    real = impsel.twin_threshold.validate_thresholds

    def uncertified(*args):
        return dataclasses.replace(real(*args), impartial_certified=False)

    monkeypatch.setattr(impsel.twin_threshold, "validate_thresholds", uncertified)
    with pytest.raises(RuntimeError, match="failed its own certification"):
        plan_thresholds_k1(100)


def test_gap_bound_holds_on_sampled_graphs():
    from impsel import MechanismId, Sampled, measure_gap

    n, k = 30, 2
    plan = plan_thresholds_general(n, k, 0.0, float(k))
    mid = MechanismId.parse(f"twin:{plan.thresholds.upper},{plan.thresholds.lower}")
    report = measure_gap(mid, GraphClassSpec(n, k), Sampled(seed=11, trials=500))
    assert report.worst_gap <= plan.alpha_bound


# ---- trace invariants on random graphs ----


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(6, 16), st.integers(1, 3))
def test_trace_invariants_on_sampled_graphs(seed, n, k):
    spec = GraphClassSpec(n, min(k, n - 1), False)
    g = next(sample_stream(spec, seed, 1))
    pair = ThresholdPair(min(3, n - 1), min(2, n - 1))
    report = check_trace_invariants(g, pair)
    assert report.ok, [c for c in report.checks if not c.ok]
    assert len(report.trace.deletions) <= n  # at most one deletion per vertex
