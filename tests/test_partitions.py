import math
import random
import tracemalloc
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from impsel import (
    CapExceeded,
    DirectedGraph,
    GraphClassSpec,
    build_certificate,
    composition_of_graph,
    enumerate_compositions,
    fubini,
    graph_of_composition,
    lambda_of,
    reduce_add_inneighbors,
    reduce_add_isolated,
)
from impsel import partitions
from conftest import graph
from oracles import (
    _compositions,
    certificate_problems,
    composition_links,
    count_isomorphic_labelings,
    count_weak_orders,
    merges,
    successor_compositions,
    transitions,
)


def comps(n):
    return list(enumerate_compositions(n))


# ---- compositions and multiplicities ----


def test_composition_validation():
    for parts in ((2, 0), ()):
        with pytest.raises(ValueError, match="positive integers"):
            lambda_of(parts)
        with pytest.raises(ValueError, match="positive integers"):
            graph_of_composition(parts)


def test_enumerate_compositions_small():
    assert comps(2) == [(1, 1), (2,)]
    assert comps(3) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    assert len(comps(8)) == 128
    for n in range(1, 9):
        seq = comps(n)
        assert seq == sorted(seq)  # lexicographic order
        assert len(set(seq)) == len(seq) == 2 ** (n - 1)
    for n in range(1, 15):
        assert comps(n) == sorted(_compositions(n)), n
    for n in range(1, 13):  # the rank-bit walk against the successor rule
        assert comps(n) == list(successor_compositions(n)), n
    with pytest.raises(CapExceeded):
        list(enumerate_compositions(30))
    with pytest.raises(ValueError):
        list(enumerate_compositions(0))
    with pytest.raises(ValueError, match="int64"):
        enumerate_compositions(64, cap=64)  # refused when called, not at the first composition


def test_lambda_values():
    table = {(1, 1): 2, (2,): 1, (1, 1, 1): 6, (1, 2): 3, (2, 1): 3, (3,): 1}
    for parts, lam in table.items():
        assert lambda_of(parts) == lam
    assert lambda_of((7,)) == 1
    assert lambda_of((2, 3)) == lambda_of((3, 2)) == 10


def test_block_lambdas_match_lambda_of():
    for n in range(1, 13):
        assert partitions._lambdas(n, np.arange(2 ** (n - 1))).tolist() == [lambda_of(p) for p in comps(n)], n
    # at the cap 21! passes 2^63: (1,)*21 and (21,) have it as lambda and as
    # denominator; ranks set a bit for each position joined to the one before
    n, ones = 21, (1 << 20) - 1
    cases = {(1,) * 21: 0, (21,): ones, (20, 1): ones - 1, (1, 20): ones >> 1}
    lams = partitions._lambdas(n, np.array(list(cases.values()), dtype=np.int64))
    assert lams.tolist() == [lambda_of(p) for p in cases] and lams[0] == math.factorial(21) > 2**63
    assert [partitions._composition(n, rank) for rank in cases.values()] == list(cases)


def test_lambda_counts_relabelings():
    for n in range(2, 6):
        for p in enumerate_compositions(n):
            assert lambda_of(p) == count_isomorphic_labelings(graph_of_composition(p))


def test_palindromic_multiplicities_are_even():
    for n in range(1, 13):
        for p in enumerate_compositions(n):
            if p == p[::-1] and len(p) >= 2:
                assert lambda_of(p) % 2 == 0, p


def test_fubini_small_values_and_parity():
    assert [fubini(n) for n in range(1, 7)] == [1, 3, 13, 75, 541, 4683]
    for n in range(1, 16):
        assert fubini(n) % 2 == 1
    for n in range(1, 7):
        assert fubini(n) == count_weak_orders(n)


def test_fubini_is_multiplicity_sum():
    for n in range(1, 10):
        assert fubini(n) == sum(lambda_of(p) for p in enumerate_compositions(n))


def test_fubini_past_the_composition_cap():
    # weak orders with k levels: k! times the Stirling number S(n, k)
    n = 25
    stirling = [1] + [0] * n  # S(m, k) for the current m, starting at m = 0
    for _ in range(n):
        stirling = [0] + [k * stirling[k] + stirling[k - 1] for k in range(1, n + 1)]
    result = fubini(n)
    assert result == sum(math.factorial(k) * stirling[k] for k in range(n + 1))
    assert result % 2 == 1


# ---- generated graphs ----


def test_graph_of_composition_examples():
    complete = graph_of_composition((3,))
    assert complete.edge_count == 6 and set(complete.indegrees) == {2}

    single = graph_of_composition((1, 1))
    assert single.edges == ((1, 2),)

    g = graph_of_composition((2, 1))
    assert g.edges == ((1, 2), (1, 3), (2, 1), (2, 3))
    assert g.indegrees == (1, 1, 2)
    assert g.max_indegree == g.n - 1


def test_generated_graph_degree_law():
    for n in range(1, 9):
        for p in enumerate_compositions(n):
            g = graph_of_composition(p)
            prefix = 0
            for size in p:
                for v in range(prefix + 1, prefix + size + 1):  # this block's vertices
                    assert g.indegrees[v - 1] == prefix + size - 1
                prefix += size
            assert g.max_indegree == n - 1
            # zero-outdegree vertices form the last block exactly when it is a singleton
            sinks = {v for v in range(1, n + 1) if g.outdegrees[v - 1] == 0}
            if p[-1] == 1:
                assert sinks == {n}
            else:
                assert sinks == set()


def test_composition_of_graph_round_trip_and_rejection():
    for n in range(1, 8):
        for p in enumerate_compositions(n):
            assert composition_of_graph(graph_of_composition(p)) == p
    assert composition_of_graph(graph(2, (2, 1))) is None
    assert composition_of_graph(graph(2)) is None
    # the indegrees of (2, 1)'s graph, but other edges: refused by the full comparison
    assert composition_of_graph(graph(3, (3, 1), (3, 2), (1, 3), (2, 3))) is None


def test_composition_of_graph_compares_indegrees_before_building(monkeypatch):
    # a candidate has Theta(n^2) edges; one whose indegrees are not the
    # graph's is never built
    def no_candidate(parts):
        raise AssertionError(f"built a candidate with {len(parts)} parts")

    monkeypatch.setattr(partitions, "graph_of_composition", no_candidate)
    n, rng = 20_000, random.Random(1)
    nominee = [rng.randrange(1, n) for _ in range(n)]
    inputs = [
        DirectedGraph.from_edges(n, [(v, v + 1) for v in range(1, n)]),  # indegrees 0, 1, ..., 1
        DirectedGraph.from_edges(n, [(v, n) for v in range(1, n)]),  # a star: 0, ..., 0, n-1
        DirectedGraph.from_edges(n, [(v, u + (u >= v)) for v, u in enumerate(nominee, start=1)]),
    ]
    for g in inputs:
        assert composition_of_graph(g) is None
        with pytest.raises(ValueError, match="not composition-generated"):
            reduce_add_inneighbors(g, n + 1)


# ---- transitions ----


def test_transitions_small():
    assert transitions(2) == [((1, 1), 2, (2,))]
    assert transitions(3) == [((1, 1, 1), 2, (2, 1)), ((1, 1, 1), 3, (1, 2)), ((2, 1), 2, (3,))]


def test_transition_target_rules():
    assert dict(merges((1, 1, 1))) == {2: (2, 1), 3: (1, 2)}
    assert dict(merges((1, 2))) == {}  # block 2 not a singleton
    assert dict(merges((1, 1))) == {2: (2,)}  # block 1 never merges


def test_transition_relation_properties():
    for n in range(2, 8):
        edges = transitions(n)
        pairs = [(p, q) for p, _, q in edges]
        assert len(set(pairs)) == len(pairs)  # at most one j per ordered pair
        pair_set = set(pairs)
        for a, b in pairs:
            assert (b, a) not in pair_set  # antisymmetry
        for p, j, q in edges:
            assert len(p) == len(q) + 1  # bipartite by parity of the part count
            assert p[j - 1] == 1
            # coefficient identity: lambda(q) * q_(j-1) = lambda(p) * p_j
            assert lambda_of(q) * q[j - 2] == lambda_of(p) * p[j - 1]


def _recording(edges, seen):
    """``partitions._merge_edges`` that also appends each edge to `seen` as (p, j, q)."""

    def recorded(n, ranks):
        rows, j, targets = edges(n, ranks)
        walk = comps(n)
        seen.extend((walk[p], k, walk[q]) for p, k, q in zip(ranks[rows].tolist(), j.tolist(), targets.tolist()))
        return rows, j, targets

    return recorded


def test_transition_structure_verifies_through_8(monkeypatch):
    for n in range(2, 9):
        seen = []
        with monkeypatch.context() as m:
            m.setattr(partitions, "_merge_edges", _recording(partitions._merge_edges, seen))
            cert = build_certificate(n)
        assert [c.name for c in cert.checks] == ["unique_partner", "cancellation"]
        assert cert.cancellation_ok, [c for c in cert.checks if not c.ok]
        # the proof checks every transition edge once, in the order the tuple rule lists them
        assert seen == transitions(n)
        assert cert.links == len(seen) == n * 2**n // 8


def test_split_check_matches_the_tuple_rule():
    # every (p, j, q), edge or not: the bit test of the pairing against
    # splitting q's block j-1 into (q_(j-1) - 1, 1) as tuples
    for n in range(2, 6):
        walk = comps(n)
        p, j, q = (np.array(column) for column in zip(*product(range(len(walk)), range(2, n + 2), range(len(walk)))))
        paired, size = partitions._splits(p, j, q, partitions._cuts(n, q))
        for a, k, b, ok, s in zip(p.tolist(), j.tolist(), q.tolist(), paired.tolist(), size.tolist()):
            source, target = walk[a], walk[b]
            split = k - 1 <= len(target) and target[: k - 2] + (target[k - 2] - 1, 1) + target[k - 1 :] == source
            assert ok == split and (not ok or s == target[k - 2]), (source, k, target)


def _failed_checks(cert):
    return {c.name: c.detail for c in cert.checks if not c.ok}


def test_certificate_checks_name_the_broken_fact(monkeypatch):
    rank = {p: r for n in (3, 4) for r, p in enumerate(comps(n))}  # a composition's rank in its walk
    lam = partitions._lambdas
    with monkeypatch.context() as m:
        m.setattr(partitions, "_lambdas", lambda n, ranks: lam(n, ranks) + 2 * (ranks == rank[1, 2, 1]))
        failed = _failed_checks(build_certificate(4))
    assert list(failed) == ["cancellation"]
    # (1, 2, 1) is entered by (1, 1, 1, 1) --3--> and leaves by --3--> (1, 3)
    assert failed["cancellation"] == "(1, 1, 1, 1) -> (1, 2, 1) (j=3): 28 != 24; (1, 2, 1) -> (1, 3) (j=3): 12 != 14"

    edges = partitions._merge_edges
    ones = rank[1, 1, 1, 1]

    def dropped(n, ranks):
        rows, j, targets = edges(n, ranks)
        keep = (ranks[rows] != ones) | (j != 4)
        return rows[keep], j[keep], targets[keep]

    with monkeypatch.context() as m:
        m.setattr(partitions, "_merge_edges", dropped)
        cert = build_certificate(4)
        failed = _failed_checks(cert)
    assert list(failed) == ["unique_partner"] and not cert.cancellation_ok
    assert cert.links == len(transitions(4)) - 1
    # the source side names the composition; the count finds the target (1, 1, 2) unentered
    assert failed["unique_partner"] == (
        "(1, 1, 1, 1): merges blocks [2, 3], singleton blocks [2, 3, 4]; 7 edges enter 14 terms, of 16 variable terms"
    )

    def looped(n, ranks):
        rows, j, targets = edges(n, ranks)
        return rows, j, np.where((ranks[rows] == ones) & (j == 4), ranks[rows], targets)

    with monkeypatch.context() as m:
        m.setattr(partitions, "_merge_edges", looped)
        failed = _failed_checks(build_certificate(4))
    assert failed["cancellation"] == "(1, 1, 1, 1) -> (1, 1, 1, 1) (j=4): same sign"
    # the sources and the count still hold; the target's block 3 is no split of a source
    assert failed["unique_partner"] == (
        "(1, 1, 1, 1) -> (1, 1, 1, 1) (j=4): splitting block 3 of (1, 1, 1, 1) does not give (1, 1, 1, 1)"
    )

    def extra(n, ranks):
        rows, j, targets = edges(n, ranks)
        (row,) = np.flatnonzero(ranks == rank[1, 2])  # (1, 2) has no edge of its own: add --2--> (3,)
        return np.append(rows, row), np.append(j, 2), np.append(targets, rank[3,])

    # the extra edge cancels (lambda 3 against 1 * 3), so only the pairing can catch it
    with monkeypatch.context() as m:
        m.setattr(partitions, "_merge_edges", extra)
        cert = build_certificate(3)
    assert list(_failed_checks(cert)) == ["unique_partner"] and cert.links == len(transitions(3)) + 1
    assert _failed_checks(cert)["unique_partner"] == (
        "(1, 2) -> (3,) (j=2): splitting block 1 of (3,) does not give (1, 2); (1, 2): merges blocks [2], "
        "singleton blocks []; 4 edges enter 8 terms, of 6 variable terms"
    )

    def reversed_edges(n, ranks):
        rows, j, targets = edges(n, ranks)
        order = np.lexsort((np.where(ranks[rows] == ones, -1, 1) * j, rows))  # j falling out of (1, 1, 1, 1)
        return rows[order], j[order], targets[order]

    # each edge pairs and the count holds: only the order gives it away
    with monkeypatch.context() as m:
        m.setattr(partitions, "_merge_edges", reversed_edges)
        failed = _failed_checks(build_certificate(4))
    assert failed == {"unique_partner": "(1, 1, 1, 1): merges blocks [4, 3, 2], singleton blocks [2, 3, 4]"}


def test_coefficient_identity_examples():
    p = (1, 1, 1)
    q = dict(merges(p))[2]  # (2, 1)
    assert lambda_of(q) * q[0] == lambda_of(p) * p[1] == 6
    r = dict(merges(q))[2]  # (3,)
    assert lambda_of(r) * r[0] == lambda_of(q) * q[1] == 3


# ---- certificates ----


def test_certificate_small_orientations():
    cert = build_certificate(2)
    assert tuple(row.multiplier for row in cert.rows()) == (-2, 1)
    assert cert.rhs_total == -1


def test_certificate_matches_pinned_multipliers():
    assert tuple(row.multiplier for row in build_certificate(3).rows()) == (-6, 3, 3, -1)
    assert tuple(row.multiplier for row in build_certificate(4).rows()) == (-24, 12, 12, -4, 12, -6, -4, 1)


def test_certificate_soundness_through_8():
    for n in range(2, 17):
        cert = build_certificate(n)
        assert cert.cancellation_ok
        # closed forms: the alternating multiplicity sum is (-1)^n, and each
        # of the n * 2^(n-1) / 4 singleton variable terms has one edge
        assert cert.rhs_total == -1
        assert cert.sign_even_parts == (1 if n % 2 else -1)
        assert cert.links == n * 2**n // 8
    for n in range(2, 9):
        cert = build_certificate(n)
        signs = {len(row.composition) % 2: row.sign for row in cert.rows()}
        assert signs[0] == -signs[1]  # constant per parity class, opposite across
        for row in cert.rows():
            assert row.sense == ("at_most_one" if row.sign > 0 else "at_least_one")
            assert row.lam == lambda_of(row.composition)
        assert sum(row.multiplier for row in cert.rows()) == cert.rhs_total


def test_certificate_passes_the_definition_oracle_through_8():
    for n in range(2, 9):
        assert certificate_problems(build_certificate(n)) == [], n


def test_brute_force_links_are_the_transition_edges():
    # the deviator of p --j--> q is the vertex of p's singleton block j
    for n in range(2, 8):
        links = {(frozenset((a, b)), v) for a, b, v in composition_links(n)}
        moves = {(frozenset((p, q)), sum(p[: j - 1]) + 1) for p, j, q in transitions(n)}
        assert links == moves, n


def _with_row(rows, i, **changes):
    rows = list(rows)
    rows[i] = replace(rows[i], **changes)
    return rows


def test_certificate_oracle_rejects_mutations():
    cert = build_certificate(5)
    links = composition_links(5)
    rows = list(cert.rows())
    other = {"at_most_one": "at_least_one", "at_least_one": "at_most_one"}
    for i, row in enumerate(rows):
        assert certificate_problems(cert, links, _with_row(rows, i, sign=-row.sign))  # flipped multiplier
        assert certificate_problems(cert, links, _with_row(rows, i, sense=other[row.sense]))  # swapped sense
        # flipped with a matching sense: the classes no longer cancel
        problems = certificate_problems(cert, links, _with_row(rows, i, sign=-row.sign, sense=other[row.sense]))
        assert any(problem.startswith("class of") for problem in problems)
    for k in range(len(links)):
        assert certificate_problems(cert, links[:k] + links[k + 1 :])  # dropped link


def test_certificate_memory_does_not_grow_with_the_rows():
    # 8,192 rows at n=14; the proof and the row stream each hold one at a time
    tracemalloc.start()
    try:
        cert = build_certificate(14)
        _, built = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for _ in cert.rows():
            pass
        _, streamed = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cert.cancellation_ok
    assert built < 64 * 1024 and streamed < 64 * 1024, (built, streamed)


def test_certificate_rejects_trivial_n():
    with pytest.raises(ValueError, match="n >= 2"):
        build_certificate(1, cap=0)  # refused before the compositions are counted against the cap


# ---- reductions ----


def test_reduce_add_isolated_example():
    g = graph(2, (1, 2))
    padded = reduce_add_isolated(g, 4)
    assert padded.n == 4 and padded.edges == ((1, 2),)
    assert padded.indegrees == (0, 1, 0, 0)
    with pytest.raises(ValueError):
        reduce_add_isolated(g, 1)
    with pytest.raises(ValueError):
        reduce_add_isolated(graph(1), 3)


def test_reduce_add_isolated_lands_in_bounded_class():
    for m in range(2, 7):  # m = k + 1 original vertices
        k = m - 1
        for p in enumerate_compositions(m):
            g = graph_of_composition(p)
            for n_target in range(m, 11):
                padded = reduce_add_isolated(g, n_target)
                assert GraphClassSpec(n_target, k).contains(padded)
                assert padded.max_indegree == g.max_indegree  # gap structure preserved


def test_reduce_add_inneighbors_example():
    g = graph_of_composition((1, 1))  # edge (1, 2); vertex 2 is a sink
    padded = reduce_add_inneighbors(g, 4)
    assert padded.n == 4
    assert set(padded.edges) == {(1, 2), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2)}
    assert padded.indegrees == (2, 3, 1, 0)  # originals gained n_target - k = 2 each


def test_reduce_add_inneighbors_degree_facts():
    for k in range(2, 7):
        for p in enumerate_compositions(k):
            g = graph_of_composition(p)
            for n_target in range(k + 1, 11):
                padded = reduce_add_inneighbors(g, n_target)
                assert GraphClassSpec(n_target, None, True).contains(padded)
                assert GraphClassSpec(n_target, k, True).contains(padded)
                for v in range(1, k + 1):
                    assert padded.indegrees[v - 1] == g.indegrees[v - 1] + (n_target - k)
                assert padded.indegrees[k] <= 1  # first added vertex
                for j in range(k + 2, n_target + 1):
                    assert padded.indegrees[j - 1] == 0
                for j in range(k + 1, n_target + 1):
                    assert padded.outdegrees[j - 1] == k
                assert padded.max_indegree == n_target - 1


def test_reduce_add_inneighbors_preconditions():
    with pytest.raises(ValueError, match="composition"):
        reduce_add_inneighbors(graph(2, (2, 1)), 4)
    g = graph_of_composition((1, 1))
    with pytest.raises(ValueError):
        reduce_add_inneighbors(g, 2)  # must add at least one vertex
    with pytest.raises(ValueError):
        reduce_add_inneighbors(graph(1), 3)
