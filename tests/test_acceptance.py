"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  Every
expected value is exact (integer or rational); no tolerance is approximate.
"""

from fractions import Fraction

import pytest

from impsel import (
    GraphClassSpec,
    MechanismId,
    Permutation,
    ThresholdPair,
    build_certificate,
    check_impartiality,
    check_trace_invariants,
    check_weak_unanimity_inheritance,
    deviations,
    enumerate_compositions,
    enumerate_graphs,
    fubini,
    graph_of_composition,
    lambda_of,
    measure_gap,
    plan_thresholds_general,
    plan_thresholds_k1,
    reduce_add_inneighbors,
    reduce_add_isolated,
    resolve,
    sample_stream,
    symmetrized_table,
    validate_thresholds,
)
from conftest import graph
from oracles import count_weak_orders

TRACE_SWEEP_SEED = 20260810  # arbitrary fixed seed; the criterion needs reproducibility only


def report(cid: str, ok: bool, summary: str) -> None:
    print(f"[{cid}] {'PASS' if ok else 'FAIL'}: {summary}")
    assert ok, f"{cid}: {summary}"


def test_c01_impartiality_positive_controls():
    anchor = validate_thresholds(5, 1, ThresholdPair(4, 1))
    v5 = check_impartiality(MechanismId.parse("twin:4,1"), GraphClassSpec(5, 1))
    v6 = check_impartiality(MechanismId.parse("twin:5,1"), GraphClassSpec(6, 1))
    ok = (
        anchor.condition_lhs == Fraction(14)
        and anchor.condition_rhs == 7
        and anchor.impartial_certified
        and GraphClassSpec(5, 1).size == 3125
        and v5 == []
        and GraphClassSpec(6, 1).size == 6**6
        and v6 == []
    )
    report(
        "c01",
        ok,
        f"twin:4,1 on G_5(1): {len(v5)} violations (exact check 14 > 7); "
        f"twin:5,1 on G_6(1): {len(v6)} violations",
    )


def test_c02_impartiality_negative_controls():
    max_naive = check_impartiality(MechanismId.parse("max-naive"), GraphClassSpec(4, 1))

    def first_violating_n(mech_text):
        for n in (4, 5, 6):
            found = check_impartiality(MechanismId.parse(mech_text), GraphClassSpec(n, 1))
            if found:
                return n, found
        return None, []

    iter_n, iter_found = first_violating_n("naive-iter:2")
    sim_n, sim_found = first_violating_n("naive-sim:2")

    # pinned regression witnesses, re-checked by direct mechanism evaluation
    naive = resolve(MechanismId.parse("max-naive"))
    pin1 = naive(graph(4)) == 4 and naive(graph(4, (4, 1))) != 4

    it = resolve(MechanismId.parse("naive-iter:2"))
    a = graph(4, (1, 2), (2, 1), (3, 1), (4, 2))
    b = graph(4, (1, 3), (2, 1), (3, 1), (4, 2))
    pin2 = it(a) != 1 and it(b) == 1  # vertex 1 flips itself in by renominating

    sim = resolve(MechanismId.parse("naive-sim:2"))
    c = graph(5, (1, 2), (2, 1), (3, 1), (4, 1), (5, 2))
    d = graph(5, (1, 3), (2, 1), (3, 1), (4, 1), (5, 2))
    pin3 = sim(c) != 1 and sim(d) == 1

    ok = bool(max_naive) and iter_n == 4 and sim_n == 5 and pin1 and pin2 and pin3
    report(
        "c02",
        ok,
        f"max-naive: {len(max_naive)} violations on G_4(1); naive-iter:2 first fails at n={iter_n}; "
        f"naive-sim:2 first fails at n={sim_n}; pinned witnesses hold",
    )


def test_c03_additive_guarantees():
    majority = {n: measure_gap(MechanismId.parse("majority"), GraphClassSpec(n, 1)).worst_gap for n in (3, 4, 5)}
    twin = measure_gap(MechanismId.parse("twin:4,1"), GraphClassSpec(5, 1))
    follow = measure_gap(MechanismId.parse("follow:1"), GraphClassSpec(4, None, True))
    ok = (
        all(majority[n] <= n // 2 for n in (3, 4, 5))
        and twin.worst_gap <= 4 + 5 // 1 - 2
        and follow.graphs_checked == 2401
        and follow.worst_gap == 2
    )
    report(
        "c03",
        ok,
        f"majority gaps {majority} within floor(n/2); twin:4,1 gap {twin.worst_gap} <= 7; "
        f"follow:1 on G+_4 gap {follow.worst_gap} == 2 (tight)",
    )


def test_c04_k1_planner():
    spots = {}
    ok = True
    for n in (4, 9, 16, 25, 100, 10_000):
        plan = plan_thresholds_k1(n)
        recheck = validate_thresholds(n, 1, plan.thresholds)
        ok &= not plan.degenerate
        ok &= plan.alpha_bound**2 <= 8 * n  # exact integer-vs-square comparison
        ok &= recheck.impartial_certified
        spots[n] = (plan.thresholds.lower, plan.thresholds.upper, plan.alpha_bound)
    ok &= spots[100] == (10, 16, 24)
    report("c04", ok, f"plans {spots}; alpha^2 <= 8n and certified for all six sizes")


@pytest.mark.slow
def test_c05_trace_invariants_on_random_graphs():
    failures = 0
    runs = 0
    details = []
    for n, k in ((20, 1), (30, 2), (50, 3)):
        if k == 1:
            pair = plan_thresholds_k1(n).thresholds
        else:
            pair = plan_thresholds_general(n, k, 0.0, float(k)).thresholds
        spec = GraphClassSpec(n, k)
        bad = 0
        for g in sample_stream(spec, TRACE_SWEEP_SEED, 10_000):
            if not check_trace_invariants(g, pair).ok:
                bad += 1
            runs += 1
        failures += bad
        details.append(f"(n={n},k={k},T={pair.upper},t={pair.lower}): {bad}")
    report("c05", failures == 0, f"{runs} seeded runs, failures per config: {'; '.join(details)}")


def test_c06_historical_variant():
    summaries = []
    ok = True
    for n in (4, 5, 6, 7):
        t = n // 3 + 1
        mid = MechanismId.parse(f"twin:{t + 1},{t}")
        spec = GraphClassSpec(n, 1)
        violations = check_impartiality(mid, spec)
        gap = measure_gap(mid, spec).worst_gap
        ok &= violations == [] and gap <= n // 3 + 2
        summaries.append(f"n={n}: {len(violations)} violations, gap {gap} <= {n // 3 + 2}")
    report("c06", ok, "; ".join(summaries))


def test_c07_fubini():
    values = {n: fubini(n) for n in range(1, 16)}
    ok = all(values[n].odd for n in values)
    table = {p.parts: lambda_of(p) for n in (2, 3) for p in enumerate_compositions(n)}
    expected = {(1, 1): 2, (2,): 1, (1, 1, 1): 6, (1, 2): 3, (2, 1): 3, (3,): 1}
    ok &= table == expected
    brute = {n: count_weak_orders(n) for n in range(1, 7)}
    ok &= all(values[n].value == brute[n] for n in brute)
    report(
        "c07",
        ok,
        f"fubini odd for n=1..15; multiplicity table at n=2,3 matches; "
        f"values {[values[n].value for n in range(1, 7)]} equal brute-force weak-order counts",
    )


def test_c08_certificates():
    ok = True
    totals = {}
    for n in range(2, 9):
        cert = build_certificate(n)
        ok &= cert.cancellation_ok and cert.rhs_total <= -1 and cert.rhs_total % 2 != 0
        totals[n] = cert.rhs_total
    m3 = build_certificate(3).multipliers()
    m4 = build_certificate(4).multipliers()
    e3 = (-6, 3, 3, -1)
    e4 = (-24, 12, 12, -4, 12, -6, -4, 1)
    ok &= m3 in (e3, tuple(-x for x in e3))
    ok &= m4 in (e4, tuple(-x for x in e4))
    report("c08", ok, f"n=2..8 cancellation ok, signed totals {totals}; n=3,4 multipliers match pinned values")


def test_c09_transition_structure():
    ok = True
    edge_counts = {}
    for n in range(2, 9):
        cert = build_certificate(n)
        ok &= [c.name for c in cert.checks] == ["unique_partner", "cancellation"] and cert.cancellation_ok
        edge_counts[n] = cert.links
    report("c09", ok, f"unique-partner and edge-wise cancellation hold; edges {edge_counts}")


def _registry_for(n: int) -> list[MechanismId]:
    t = min(2, n - 1)
    return [
        MechanismId.parse(text)
        for text in (
            "never",
            "max-naive",
            "follow:1",
            "majority",
            f"naive-iter:{t}",
            f"naive-sim:{t}",
            f"twin:{n - 1},1",
        )
    ]


def test_c10_symmetrization():
    ok = True
    details = []
    for n in (2, 3, 4):
        spec = GraphClassSpec(n, 1)
        graphs = list(enumerate_graphs(spec))
        perms = list(Permutation.all_of(n))
        relabeled_keys = [[(perm, g.relabel(perm).key) for perm in perms] for g in graphs]
        dev_pairs = [
            (g.key, other.key, v)
            for g in graphs
            for v in range(1, n + 1)
            for other in deviations(g, v, spec)
            if other.key != g.key
        ]
        inherited = 0
        for mid in _registry_for(n):
            table = symmetrized_table(mid, spec)
            ok &= all(vec.mass <= 1 for vec in table.values())
            for g, relabelings in zip(graphs, relabeled_keys):
                base = table[g.key]
                for perm, key2 in relabelings:
                    image = table[key2]
                    ok &= all(image.prob(perm(v)) == base.prob(v) for v in range(1, n + 1))
            if check_impartiality(mid, spec) == []:
                inherited += 1
                ok &= all(table[ka].prob(v) == table[kb].prob(v) for ka, kb, v in dev_pairs)
        details.append(f"n={n}: 7 mechanisms symmetric, {inherited} impartial bases inherit impartiality")
    for n in (3, 4):
        for text in ("majority", "max-naive"):
            wu = check_weak_unanimity_inheritance(MechanismId.parse(text), GraphClassSpec(n, 1))
            ok &= wu.premise_holds and wu.ok
    report("c10", ok, "; ".join(details) + "; weak unanimity inherited for majority and max-naive at n=3,4")


def test_c11_reductions():
    ok = True
    isolated_cases = 0
    for m in range(2, 7):  # original vertex count m = k + 1
        k = m - 1
        for p in enumerate_compositions(m):
            g = graph_of_composition(p)
            for n_target in range(m, 11):
                padded = reduce_add_isolated(g, n_target)
                ok &= GraphClassSpec(n_target, k).contains(padded)
                ok &= padded.max_indegree == g.max_indegree
                isolated_cases += 1
    inneighbor_cases = 0
    for k in range(2, 7):
        for p in enumerate_compositions(k):
            g = graph_of_composition(p)
            for n_target in range(k + 1, 11):
                padded = reduce_add_inneighbors(g, n_target)
                ok &= GraphClassSpec(n_target, None, True).contains(padded)
                ok &= all(padded.outdegrees[j - 1] == k for j in range(k + 1, n_target + 1))
                ok &= padded.indegrees[k] <= 1
                ok &= all(padded.indegrees[j - 1] == 0 for j in range(k + 2, n_target + 1))
                ok &= all(
                    padded.indegrees[v - 1] == g.indegrees[v - 1] + (n_target - k)
                    for v in range(1, k + 1)
                )
                inneighbor_cases += 1
    report(
        "c11",
        ok,
        f"{isolated_cases} isolated-padding cases land in G_n(k) with max indegree preserved; "
        f"{inneighbor_cases} in-neighbor-padding cases show outdegree k, one low-indegree helper, "
        f"and original indegrees up by exactly n-k",
    )
