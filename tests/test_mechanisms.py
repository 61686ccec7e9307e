import pytest

from impsel import (
    DirectedGraph,
    GraphClassSpec,
    MechanismId,
    additive_gap,
    check_impartiality,
    measure_gap,
    resolve,
)
from conftest import graph
from oracles import class_graphs

STAR5 = graph(5, (2, 1), (3, 1), (4, 1), (5, 1))


def run(text: str, g: DirectedGraph) -> int:
    return resolve(MechanismId.parse(text))(g)


def test_never():
    assert run("never", STAR5) == 0
    assert run("never", graph(3)) == 0
    assert additive_gap(STAR5, run("never", STAR5)) == 4


def test_max_indegree_naive():
    assert run("max-naive", graph(3)) == 3  # all tie at 0
    assert run("max-naive", STAR5) == 1
    assert run("max-naive", graph(2, (1, 2), (2, 1))) == 2
    assert run("max-naive", graph(1)) == 1


def test_follow_fixed():
    g = graph(4, (1, 2), (1, 4))
    assert run("follow:1", g) == 4
    assert run("follow:1", graph(4)) == 0
    assert run("follow:3", g) == 0  # anchor abstains
    with pytest.raises(ValueError):
        run("follow:5", g)


def test_follow_fixed_never_selects_anchor_and_bounds_gap():
    # positive outdegree forces a selection with indegree >= 1
    spec = GraphClassSpec(3, None, True)
    for g in class_graphs(spec):
        v = run("follow:1", g)
        assert v not in (0, 1)
        assert g.indegrees[v - 1] >= 1
        assert g.max_indegree - g.indegrees[v - 1] <= g.n - 2


def test_majority_threshold():
    assert run("majority", STAR5) == 1  # 4 >= floor(5/2)+1 = 3
    two_low = graph(5, (2, 1), (3, 1), (4, 5), (1, 5))  # two vertices at indegree 2
    assert run("majority", two_low) == 0
    assert run("majority", graph(4)) == 0


def test_naive_iterated():
    low = graph(4, (2, 1))  # max indegree 1 < t
    assert run("naive-iter:2", low) == 0
    assert run("naive-iter:2", STAR5) == 1
    # naive-iter:t validates as the twin pair (t, t)
    with pytest.raises(ValueError, match=r"^upper threshold 5 exceeds n-1=4$"):
        run("naive-iter:5", STAR5)
    with pytest.raises(ValueError, match=r"^need 1 <= t <= T, got T=0, t=0$"):
        run("naive-iter:0", STAR5)


def test_naive_iterated_equals_twin_with_equal_thresholds():
    spec = GraphClassSpec(4, 1)
    for g in class_graphs(spec):
        assert run("naive-iter:2", g) == run("twin:2,2", g)


def test_naive_simultaneous():
    low = graph(4, (2, 1))
    assert run("naive-sim:2", low) == 0
    # mutual top pair: deleting both outgoing sets at once leaves nobody above t+1
    g = graph(5, (1, 2), (2, 1), (3, 1), (4, 1), (5, 2))  # indegrees 3, 2 at t=2
    assert run("naive-sim:2", g) == 0
    # without the back edge, only vertex 1 is above t and keeps its support
    g2 = graph(5, (2, 1), (3, 1), (4, 1), (5, 2))
    assert run("naive-sim:2", g2) == 1
    with pytest.raises(ValueError):
        run("naive-sim:0", low)


def test_mechanisms_are_pure():
    for text in ("never", "max-naive", "majority", "naive-iter:2"):
        assert run(text, STAR5) == run(text, STAR5)


# ---- registry ----


def test_mechanism_id_parse_round_trip():
    for text in ("never", "max-naive", "follow:3", "majority", "naive-iter:2", "naive-sim:1", "twin:4,1"):
        assert MechanismId.parse(text).text() == text


def test_mechanism_id_rejects_bad_input():
    with pytest.raises(ValueError, match="unknown"):
        MechanismId.parse("bogus")
    with pytest.raises(ValueError, match="parameter"):
        MechanismId.parse("twin:4")
    with pytest.raises(ValueError, match="non-integer"):
        MechanismId.parse("follow:x")
    with pytest.raises(ValueError):
        MechanismId.parse("twin:1,2").validate_for(5)  # t > T
    with pytest.raises(ValueError):
        MechanismId.parse("twin:4,1").validate_for(4)  # T > n-1


def test_resolve_matches_direct_calls():
    expected = {
        "never": 0,
        "max-naive": 1,
        "follow:2": 1,
        "majority": 1,
        "naive-iter:2": 1,
        "naive-sim:2": 1,
        "twin:3,2": 1,
        "follow:1": 0,  # the hub abstains
    }
    for text, selected in expected.items():
        assert run(text, STAR5) == selected, text


# ---- audit-facing contracts ----


def test_never_and_follow_pass_exhaustive_impartiality():
    for spec in (GraphClassSpec(5, 1), GraphClassSpec(4, None)):
        assert check_impartiality(MechanismId.parse("never"), spec) == []
        assert check_impartiality(MechanismId.parse("follow:1"), spec) == []


def test_max_naive_fails_impartiality_by_n4():
    assert check_impartiality(MechanismId.parse("max-naive"), GraphClassSpec(4, 1)) != []


def test_majority_impartial_with_small_gap():
    assert check_impartiality(MechanismId.parse("majority"), GraphClassSpec(5, 1)) == []
    for n in (3, 4, 5):
        report = measure_gap(MechanismId.parse("majority"), GraphClassSpec(n, 1))
        assert report.worst_gap <= n // 2


def test_follow_gap_tight_on_no_abstention_class():
    report = measure_gap(MechanismId.parse("follow:1"), GraphClassSpec(4, None, True))
    assert report.worst_gap == 2
