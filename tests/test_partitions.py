import math
from dataclasses import replace

import pytest

from impsel import (
    CapExceeded,
    DirectedGraph,
    GraphClassSpec,
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
from impsel import partitions
from conftest import graph
from oracles import certificate_problems, composition_links, count_isomorphic_labelings, count_weak_orders


def comps(n):
    return [p.parts for p in enumerate_compositions(n)]


# ---- compositions and multiplicities ----


def test_composition_validation():
    with pytest.raises(ValueError):
        OrderedPartition((2, 0))
    with pytest.raises(ValueError):
        OrderedPartition(())
    p = OrderedPartition((1, 2, 1))
    assert p.n == 4 and p.r == 3
    assert p.blocks() == ((1,), (2, 3), (4,))


def test_enumerate_compositions_small():
    assert comps(2) == [(1, 1), (2,)]
    assert comps(3) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    assert len(comps(8)) == 128
    for n in range(1, 9):
        seq = comps(n)
        assert seq == sorted(seq)  # lexicographic order
        assert len(set(seq)) == len(seq) == 2 ** (n - 1)
    with pytest.raises(CapExceeded):
        list(enumerate_compositions(30))
    with pytest.raises(ValueError):
        list(enumerate_compositions(0))


def test_lambda_values():
    table = {(1, 1): 2, (2,): 1, (1, 1, 1): 6, (1, 2): 3, (2, 1): 3, (3,): 1}
    for parts, lam in table.items():
        assert lambda_of(OrderedPartition(parts)) == lam
    assert lambda_of(OrderedPartition((7,))) == 1
    assert lambda_of(OrderedPartition((2, 3))) == lambda_of(OrderedPartition((3, 2))) == 10


def test_lambda_counts_relabelings():
    for n in range(2, 6):
        for p in enumerate_compositions(n):
            assert lambda_of(p) == count_isomorphic_labelings(graph_of_composition(p))


def test_palindromic_multiplicities_are_even():
    for n in range(1, 13):
        for p in enumerate_compositions(n):
            if p.parts == p.parts[::-1] and p.r >= 2:
                assert lambda_of(p) % 2 == 0, p


def test_fubini_small_values_and_parity():
    assert [fubini(n).value for n in range(1, 7)] == [1, 3, 13, 75, 541, 4683]
    for n in range(1, 16):
        result = fubini(n)
        assert result.odd and result.value % 2 == 1
    for n in range(1, 7):
        assert fubini(n).value == count_weak_orders(n)


def test_fubini_is_multiplicity_sum():
    for n in range(1, 10):
        assert fubini(n).value == sum(lambda_of(p) for p in enumerate_compositions(n))


def test_fubini_past_the_composition_cap():
    # weak orders with k levels: k! times the Stirling number S(n, k)
    n = 25
    stirling = [1] + [0] * n  # S(m, k) for the current m, starting at m = 0
    for _ in range(n):
        stirling = [0] + [k * stirling[k] + stirling[k - 1] for k in range(1, n + 1)]
    result = fubini(n)
    assert result.value == sum(math.factorial(k) * stirling[k] for k in range(n + 1))
    assert result.odd


# ---- generated graphs ----


def test_graph_of_composition_examples():
    complete = graph_of_composition(OrderedPartition((3,)))
    assert complete.edge_count == 6 and set(complete.indegrees) == {2}

    single = graph_of_composition(OrderedPartition((1, 1)))
    assert single.edges == ((1, 2),)

    g = graph_of_composition(OrderedPartition((2, 1)))
    assert g.edges == ((1, 2), (1, 3), (2, 1), (2, 3))
    assert g.indegrees == (1, 1, 2)
    assert g.max_indegree == g.n - 1


def test_generated_graph_degree_law():
    for n in range(1, 9):
        for p in enumerate_compositions(n):
            g = graph_of_composition(p)
            prefix = 0
            for size, block in zip(p.parts, p.blocks()):
                prefix += size
                for v in block:
                    assert g.indegrees[v - 1] == prefix - 1
            assert g.max_indegree == n - 1
            # zero-outdegree vertices form the last block exactly when it is a singleton
            sinks = {v for v in range(1, n + 1) if g.outdegrees[v - 1] == 0}
            if p.parts[-1] == 1:
                assert sinks == {n}
            else:
                assert sinks == set()


def test_composition_of_graph_round_trip_and_rejection():
    for n in range(1, 8):
        for p in enumerate_compositions(n):
            assert composition_of_graph(graph_of_composition(p)) == p
    assert composition_of_graph(graph(2, (2, 1))) is None
    assert composition_of_graph(DirectedGraph.empty(2)) is None


# ---- transitions ----


def test_transitions_small():
    assert transitions(2) == [((1, 1), 2, (2,))]
    assert transitions(3) == [((1, 1, 1), 2, (2, 1)), ((1, 1, 1), 3, (1, 2)), ((2, 1), 2, (3,))]


def test_transition_target_rules():
    assert dict(partitions._merges((1, 1, 1))) == {2: (2, 1), 3: (1, 2)}
    assert dict(partitions._merges((1, 2))) == {}  # block 2 not a singleton
    assert dict(partitions._merges((1, 1))) == {2: (2,)}  # block 1 never merges


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
            assert lambda_of(OrderedPartition(q)) * q[j - 2] == lambda_of(OrderedPartition(p)) * p[j - 1]


def test_transition_structure_verifies_through_8():
    for n in range(2, 9):
        cert = build_certificate(n)
        assert [c.name for c in cert.checks] == ["unique_partner", "cancellation"]
        assert cert.cancellation_ok, [c for c in cert.checks if not c.ok]
        assert cert.links == len(transitions(n))


def _failed_checks(cert):
    return {c.name: c.detail for c in cert.checks if not c.ok}


def test_certificate_checks_name_the_broken_fact(monkeypatch):
    lambda_of = partitions.lambda_of
    with monkeypatch.context() as m:
        m.setattr(partitions, "lambda_of", lambda p: lambda_of(p) + 2 * (p.parts == (1, 2, 1)))
        failed = _failed_checks(build_certificate(4))
    assert list(failed) == ["cancellation"]
    # (1, 2, 1) is entered by (1, 1, 1, 1) --3--> and leaves by --3--> (1, 3)
    assert failed["cancellation"] == "(1, 1, 1, 1) -> (1, 2, 1) (j=3): 28 != 24; (1, 2, 1) -> (1, 3) (j=3): 12 != 14"

    merges = partitions._merges

    def dropped(parts):
        return ((j, q) for j, q in merges(parts) if (parts, j) != ((1, 1, 1, 1), 4))

    with monkeypatch.context() as m:
        m.setattr(partitions, "_merges", dropped)
        cert = build_certificate(4)
        failed = _failed_checks(cert)
    assert list(failed) == ["unique_partner"] and not cert.cancellation_ok
    assert cert.links == len(transitions(4)) - 1
    assert failed["unique_partner"].count("variable blocks") == 2  # (1, 1, 1, 1) and (1, 1, 2)

    def looped(parts):
        return ((j, parts if (parts, j) == ((1, 1, 1, 1), 4) else q) for j, q in merges(parts))

    with monkeypatch.context() as m:
        m.setattr(partitions, "_merges", looped)
        failed = _failed_checks(build_certificate(4))
    assert failed["cancellation"] == "(1, 1, 1, 1) -> (1, 1, 1, 1) (j=4): same sign"


def test_walk_pairs_every_variable_term_once():
    comps = [p.parts for p in enumerate_compositions(5)]
    seen = []
    links, problems = partitions._walk(comps, lambda p, j, q: seen.append((p, j, q)))
    assert problems == [] and links == len(seen) == len(transitions(5))
    assert seen == transitions(5)
    # (1, 1, 1, 1, 1) listed twice enters each of its links' blocks twice
    _, problems = partitions._walk(comps + comps[:1], lambda p, j, q: None)
    assert problems and all("entered twice" in problem for problem in problems)
    # without it, the blocks its links enter in (2, 1, 1, 1) and the rest stay empty
    _, problems = partitions._walk(comps[1:], lambda p, j, q: None)
    assert len(problems) == 4 and not any("entered twice" in problem for problem in problems)


def test_coefficient_identity_examples():
    p = OrderedPartition((1, 1, 1))
    q = OrderedPartition(dict(partitions._merges(p.parts))[2])  # (2, 1)
    assert lambda_of(q) * q.parts[0] == lambda_of(p) * p.parts[1] == 6
    r = OrderedPartition(dict(partitions._merges(q.parts))[2])  # (3,)
    assert lambda_of(r) * r.parts[0] == lambda_of(q) * q.parts[1] == 3


# ---- certificates ----


def test_certificate_small_orientations():
    cert = build_certificate(2)
    assert cert.multipliers() == (-2, 1)
    assert cert.rhs_total == -1 and cert.rhs_alternate == 1


def test_certificate_matches_pinned_multipliers():
    assert build_certificate(3).multipliers() == (-6, 3, 3, -1)
    assert build_certificate(4).multipliers() == (-24, 12, 12, -4, 12, -6, -4, 1)


def test_certificate_soundness_through_8():
    for n in range(2, 9):
        cert = build_certificate(n)
        assert cert.cancellation_ok
        assert cert.rhs_total <= -1
        assert cert.rhs_total % 2 != 0
        assert cert.rhs_alternate == -cert.rhs_total
        signs = {row.composition.r % 2: row.sign for row in cert.rows}
        assert signs[0] == -signs[1]  # constant per parity class, opposite across
        for row in cert.rows:
            assert row.sense == ("at_most_one" if row.sign > 0 else "at_least_one")
            assert row.lam == lambda_of(row.composition)
        assert sum(cert.multipliers()) == cert.rhs_total


def test_certificate_passes_the_definition_oracle_through_8():
    for n in range(2, 9):
        assert certificate_problems(build_certificate(n)) == [], n


def test_brute_force_links_are_the_transition_edges():
    # the deviator of p --j--> q is the vertex of p's singleton block j
    for n in range(2, 8):
        links = {(frozenset((a, b)), v) for a, b, v in composition_links(n)}
        moves = {(frozenset((p, q)), sum(p[: j - 1]) + 1) for p, j, q in transitions(n)}
        assert links == moves, n


def _with_row(cert, i, **changes):
    rows = list(cert.rows)
    rows[i] = replace(rows[i], **changes)
    return replace(cert, rows=tuple(rows))


def test_certificate_oracle_rejects_mutations():
    cert = build_certificate(5)
    links = composition_links(5)
    other = {"at_most_one": "at_least_one", "at_least_one": "at_most_one"}
    for i, row in enumerate(cert.rows):
        assert certificate_problems(_with_row(cert, i, sign=-row.sign), links)  # flipped multiplier
        assert certificate_problems(_with_row(cert, i, sense=other[row.sense]), links)  # swapped sense
        # flipped with a matching sense: the classes no longer cancel
        problems = certificate_problems(_with_row(cert, i, sign=-row.sign, sense=other[row.sense]), links)
        assert any(problem.startswith("class of") for problem in problems)
    for k in range(len(links)):
        assert certificate_problems(cert, links[:k] + links[k + 1 :])  # dropped link


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
        reduce_add_isolated(DirectedGraph.empty(1), 3)


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
    g = graph_of_composition(OrderedPartition((1, 1)))  # edge (1, 2); vertex 2 is a sink
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
    g = graph_of_composition(OrderedPartition((1, 1)))
    with pytest.raises(ValueError):
        reduce_add_inneighbors(g, 2)  # must add at least one vertex
    with pytest.raises(ValueError):
        reduce_add_inneighbors(DirectedGraph.empty(1), 3)
