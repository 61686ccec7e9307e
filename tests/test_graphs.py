import hashlib
import itertools
import math
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import impsel.graphs
from impsel import (
    DirectedGraph,
    GraphClassSpec,
    GraphFormatError,
    MechanismId,
    graph_at_index,
    parse_graph,
    sample_stream,
)
import impsel.audit
from impsel.audit import _blocks, _chunks, _class_block
from impsel.graphs import _read_lines, _unrank_outset, _well_formed, deviations, graph_of_ranks, sample_ranks
from conftest import graph
from oracles import admissible_outsets, class_graphs, relabeled_key


@st.composite
def graphs(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    outs = []
    for v in range(1, n + 1):
        targets = [u for u in range(1, n + 1) if u != v]
        outs.append(frozenset(draw(st.sets(st.sampled_from(targets)))) if targets else frozenset())
    return DirectedGraph.from_out_sets(n, outs)


# ---- data model ----


def test_rejects_self_loop_and_range():
    with pytest.raises(ValueError, match="self-loop"):
        DirectedGraph.from_out_sets(3, ({1}, (), ()))
    with pytest.raises(ValueError, match="outside"):
        DirectedGraph.from_out_sets(2, ({3}, ()))
    with pytest.raises(ValueError):
        graph(0)


@pytest.mark.parametrize(
    "offsets, targets, match",
    [
        ([1, 1, 1, 1], [], "offsets must rise from 0"),
        ([0, 2, 1, 2], [2, 3], "offsets must rise from 0"),
        ([0, 1, 1], [2], r"n \+ 1 offsets"),
        ([0, 1, 1, 1, 1], [2], r"n \+ 1 offsets"),
        ([0, 1, 1, 1], [2, 3], "offsets must rise from 0 to the target count 2"),
        ([0, 1, 1, 2], [2], "offsets must rise from 0 to the target count 1"),
        ([0, 1, 1, 1], [0], r"^vertex 1 has out-neighbor 0 outside 1\.\.3$"),
        ([0, 0, 1, 1], [4], r"^vertex 2 has out-neighbor 4 outside 1\.\.3$"),
        ([0, 0, 1, 2], [1, 3], r"^self-loop at vertex 3$"),
        ([0, 2, 2, 2], [3, 2], "out-neighbors of 1 not increasing at 2"),
        ([0, 0, 2, 2], [3, 3], r"duplicate edge \(2, 3\)"),
    ],
)
def test_constructor_rejects_malformed_arrays(offsets, targets, match):
    with pytest.raises(ValueError, match=match):
        DirectedGraph(3, offsets, targets)


def test_arrays_are_read_only_copies():
    offsets, targets = np.array([0, 2, 2, 3]), np.array([2, 3, 1])
    g = DirectedGraph(3, offsets, targets)
    offsets[1], targets[0] = 1, 3  # the caller's arrays stay the caller's
    assert g.edges == ((1, 2), (1, 3), (3, 1))
    for array in (g.offsets, g.targets):
        assert array.dtype == np.int64
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    with pytest.raises(TypeError, match="cast"):
        DirectedGraph(3, [0, 1, 1, 1], [2.5])  # a float id is refused, not truncated


def test_edge_views():
    g = graph(3, (1, 2), (3, 2), (2, 1))
    assert g.edges == ((1, 2), (2, 1), (3, 2))
    assert g.indegrees == (1, 2, 0)
    assert g.outdegrees == (1, 1, 1)
    assert {u for u, v in g.edges if v == 2} == {1, 3}
    assert 2 in g.out_sets[0] and 3 not in g.out_sets[1]
    assert g.max_indegree == 2
    assert g.edge_count == 3


def test_degree_views_examples():
    empty = graph(3)
    assert empty.indegrees == (0, 0, 0) and empty.max_indegree == 0

    star = graph(5, (2, 1), (3, 1), (4, 1), (5, 1))
    assert star.indegrees[0] == 4 and star.max_indegree == 4

    complete = graph(3, (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2))
    assert set(complete.indegrees) == {2} and set(complete.outdegrees) == {2} and complete.max_indegree == 2


@given(graphs())
def test_degree_sums_match_edge_count(g):
    assert sum(g.indegrees) == sum(g.outdegrees) == g.edge_count


# ---- relabeling (the tests' oracle, which certificate checks rely on) ----


def _graph_of_key(n, key):
    return DirectedGraph.from_out_sets(n, [[u for u in range(1, n + 1) if mask >> (u - 1) & 1] for mask in key])


def test_relabel_examples():
    g = graph(2, (1, 2))
    assert relabeled_key(g, (1, 2)) == g.key
    swapped = _graph_of_key(2, relabeled_key(g, (2, 1)))
    assert swapped.edges == ((2, 1),)
    # 1 -> 2 -> 3 under 1 -> 2 -> 3 -> 1 becomes 2 -> 3 -> 1
    assert _graph_of_key(3, relabeled_key(graph(3, (1, 2), (2, 3)), (2, 3, 1))).edges == ((2, 3), (3, 1))


@given(graphs(), st.randoms())
def test_relabel_inverse_and_degree_multiset(g, rnd):
    images = list(range(1, g.n + 1))
    rnd.shuffle(images)
    relabeled = _graph_of_key(g.n, relabeled_key(g, images))
    inverse = [images.index(v) + 1 for v in range(1, g.n + 1)]
    assert relabeled_key(relabeled, inverse) == g.key
    assert sorted(relabeled.indegrees) == sorted(g.indegrees)
    assert sorted(relabeled.outdegrees) == sorted(g.outdegrees)


# ---- class specs, membership, enumeration ----


def test_spec_validation():
    with pytest.raises(ValueError):
        GraphClassSpec(3, 0)
    with pytest.raises(ValueError):
        GraphClassSpec(3, 3)
    with pytest.raises(ValueError):
        GraphClassSpec(0)
    assert GraphClassSpec(5, 2, True).describe() == "G+_5(2)"
    assert GraphClassSpec(4).describe() == "G_4"


def test_class_membership_examples():
    single = graph(2, (1, 2))
    assert not GraphClassSpec(2, 1, True).contains(single)  # vertex 2 abstains
    assert GraphClassSpec(2, 1, False).contains(single)
    complete3 = graph(3, (1, 2), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2))
    assert not GraphClassSpec(3, 1).contains(complete3)
    assert not GraphClassSpec(3, 1).contains(single)  # wrong vertex count


def test_enumeration_counts():
    assert GraphClassSpec(2, 1).size == 4
    assert GraphClassSpec(4, 1).size == 256
    assert GraphClassSpec(4, None, True).size == 7**4
    assert len(list(class_graphs(GraphClassSpec(2, 1)))) == 4
    assert list(class_graphs(GraphClassSpec(1, None, True))) == []  # a lone vertex cannot nominate


@pytest.mark.parametrize(
    "spec",
    [
        GraphClassSpec(2, 1),
        GraphClassSpec(3, 1),
        GraphClassSpec(3, 2, True),
        GraphClassSpec(4, 1, True),
        GraphClassSpec(4, None, False),
        GraphClassSpec(5, 1),
    ],
)
def test_enumeration_matches_closed_form_and_is_duplicate_free(spec):
    per_vertex = sum(
        math.comb(spec.n - 1, j) for j in range(spec.min_outdegree, spec.bound + 1)
    )
    expected = per_vertex**spec.n
    seen = set()
    count = 0
    for g in class_graphs(spec):
        assert spec.contains(g)
        seen.add(g.key)
        count += 1
    assert count == expected == spec.size
    assert len(seen) == count


def test_enumeration_order_documented():
    # abstention first, then lexicographic by sorted out-set tuple
    spec = GraphClassSpec(3, None, False)
    first = graph_at_index(spec, 0)
    assert first == graph(3)
    for v, listed in ((1, [(), (2,), (2, 3), (3,)]), (2, [(), (1,), (1, 3), (3,)])):
        assert admissible_outsets(spec, v) == listed
        assert [spec.outset_at(v, r) for r in range(spec.outset_count)] == listed


def _documented_order(spec):
    """The class in the documented order, independently of the digit layout:
    the product of the admissible out-set lists, vertex 1 varying slowest."""
    choices = [admissible_outsets(spec, v) for v in range(1, spec.n + 1)]
    return [DirectedGraph.from_out_sets(spec.n, combo) for combo in itertools.product(*choices)]


def test_graph_at_index_agrees_with_enumeration():
    for spec in (GraphClassSpec(3, None), GraphClassSpec(3, 1, True), GraphClassSpec(2, 1)):
        listed = _documented_order(spec)
        assert list(class_graphs(spec)) == listed
        for i, g in enumerate(listed):
            assert graph_at_index(spec, i) == g
    with pytest.raises(ValueError):
        graph_at_index(GraphClassSpec(2, 1), 4)


# every class with n <= 6; the first four are listed first so that their
# parameter ids (spec0..spec3) keep naming the same classes
_FIRST_UNRANKED = [GraphClassSpec(5), GraphClassSpec(6, 2), GraphClassSpec(5, 3, True), GraphClassSpec(2, None, True)]
_SMALL_CLASSES = [
    GraphClassSpec(n, k, positive)
    for n in range(1, 7)
    for k in (None, *range(1, n))
    for positive in (False, True)
]


@pytest.mark.parametrize("spec", _FIRST_UNRANKED + [s for s in _SMALL_CLASSES if s not in _FIRST_UNRANKED])
def test_unranking_matches_the_outset_lists(spec):
    for v in range(1, spec.n + 1):
        outsets = admissible_outsets(spec, v)
        assert len(outsets) == spec.outset_count
        for r, outs in enumerate(outsets):
            assert spec.outset_at(v, r) == outs


@pytest.mark.parametrize("spec", [GraphClassSpec(50, 3), GraphClassSpec(20, 2, True), GraphClassSpec(13)])
def test_unranking_matches_the_outset_lists_of_larger_classes(spec):
    # G_50(3) has 19,650 out-sets per vertex: every rank at the first, a
    # middle and the last vertex
    for v in (1, (spec.n + 1) // 2, spec.n):
        outsets = admissible_outsets(spec, v)
        assert len(outsets) == spec.outset_count
        assert [spec.outset_at(v, r) for r in range(spec.outset_count)] == outsets
        for rank in (-1, spec.outset_count):
            with pytest.raises(ValueError, match="out-set rank"):
                spec.outset_at(v, rank)
    for v in (0, spec.n + 1):  # no vertex of the class, whatever the rank
        with pytest.raises(ValueError, match=rf"vertex {v} outside 1\.\.{spec.n}"):
            spec.outset_at(v, 1)
    with pytest.raises(ValueError, match="out of range"):
        _unrank_outset(spec.outset_count, spec.n - 1, spec.min_outdegree, spec.bound)


def test_enumerator_starts_mid_range_at_chunk_boundaries(monkeypatch):
    # audits with jobs > 1 start their class windows at the boundaries _chunks
    # makes; windows of 5 graphs also start inside a chunk
    for kernel_block in (5, 1 << 16):
        monkeypatch.setattr(impsel.audit, "KERNEL_BLOCK", kernel_block)
        for spec in (GraphClassSpec(3, None), GraphClassSpec(3, 1, True), GraphClassSpec(4, 1)):
            chunks = _chunks(spec.size, 3)
            assert len(chunks) == 3 and chunks[-1][1] == spec.size
            choices = [admissible_outsets(spec, v) for v in range(1, spec.n + 1)]
            block, offsets = _class_block(spec), np.arange(spec.n) * spec.outset_count
            for lo, hi in chunks:
                rows = (np.concatenate([block(a, b)[1] for a, b in _blocks(lo, hi)]) - offsets).tolist()
                assert len(rows) == hi - lo and all(len(row) == spec.n for row in rows)
                got = [DirectedGraph.from_out_sets(spec.n, [choices[v][r] for v, r in enumerate(row)]) for row in rows]
                assert got == [graph_at_index(spec, i) for i in range(lo, hi)]


@pytest.mark.parametrize("spec", [GraphClassSpec(4, 2), GraphClassSpec(4, 2, True), GraphClassSpec(7, 1)], ids=GraphClassSpec.describe)
def test_digit_block_matches_place_value_division(monkeypatch, spec):
    # the class windows' digit rows, and the witness rows an exhaustive
    # impartiality audit divides out of scattered sorted keys
    n, radix, last, block = spec.n, spec.outset_count, spec.size - 1, _class_block(spec)
    place = np.array([radix ** (n - v) for v in range(1, n + 1)], dtype=np.int64)
    for lo, hi in ((0, 300), (last - 299, last + 1)):
        digits = block(lo, hi)[1] - np.arange(n) * radix
        assert np.array_equal(digits, np.arange(lo, hi)[:, None] // place % radix)
    scattered = np.random.default_rng(5).integers(0, spec.size, 500)
    pairs = np.array([last, 0, *scattered, 0, last]).reshape(2, -1)  # index_a and index_b columns
    rows = []
    monkeypatch.setattr(impsel.audit, "_outcome_table", lambda *args: None)
    monkeypatch.setattr(impsel.audit, "_violating_pairs", lambda *args: (*pairs, pairs[0] * 0 + 1, pairs[0] < 0))
    monkeypatch.setattr(impsel.audit, "_violations", lambda spec, witness_rows, *columns: rows.append(list(witness_rows)))
    keys = np.unique(pairs)
    assert keys[0] == 0 and keys[-1] == last
    for kernel_block in (97, 1 << 16):  # the witness rows do not depend on the window size
        monkeypatch.setattr(impsel.audit, "KERNEL_BLOCK", kernel_block)
        monkeypatch.setattr(impsel.audit, "_ROW_BLOCK", 7)
        rows.clear()
        impsel.audit.check_impartiality(MechanismId.parse("never"), spec)
        assert rows == [(keys[:, None] // place % radix).tolist()], kernel_block


# ---- deviations ----


def test_deviations_examples():
    spec = GraphClassSpec(2, 1)
    devs = list(deviations(graph(2), 1, spec))
    assert len(devs) == 2  # abstain, nominate 2
    assert {d.edges for d in devs} == {(), ((1, 2),)}

    spec4 = GraphClassSpec(4, 1)
    assert len(list(deviations(graph(4), 2, spec4))) == 4

    plus = GraphClassSpec(4, None, True)
    base = graph(4, (1, 2), (2, 1), (3, 1), (4, 1))
    assert len(list(deviations(base, 2, plus))) == 7


def test_deviations_agree_outside_vertex_and_stay_in_class():
    spec = GraphClassSpec(3, 2, True)
    base = graph(3, (1, 2), (2, 3), (3, 1))
    seen = set()
    includes_base = False
    for d in deviations(base, 2, spec):
        assert spec.contains(d)
        for u in (1, 3):
            assert d.out_sets[u - 1] == base.out_sets[u - 1]
        seen.add(d.key)
        includes_base |= d == base
    assert includes_base
    assert len(seen) == spec.outset_count


def test_deviations_rejects_nonmember():
    with pytest.raises(ValueError):
        list(deviations(graph(3, (1, 2), (1, 3)), 1, GraphClassSpec(3, 1)))


# ---- sampling ----


def test_sampling_deterministic_and_in_class():
    spec = GraphClassSpec(6, 2, True)
    a = next(sample_stream(spec, 99, 1))
    b = next(sample_stream(spec, 99, 1))
    assert a == b
    assert spec.contains(a)
    assert next(sample_stream(spec, 100, 1)) != a  # overwhelmingly likely, and fixed by the seed


def test_sampling_single_member_class():
    only = next(sample_stream(GraphClassSpec(1), 7, 1))
    assert only == graph(1)


def test_sampling_stream_matches_repeated_protocol():
    spec = GraphClassSpec(5, 1)
    stream = list(sample_stream(spec, 5, 10))
    assert len(stream) == 10
    assert all(spec.contains(g) for g in stream)
    assert stream[0] == next(sample_stream(spec, 5, 1))


def test_sampling_empty_class():
    with pytest.raises(ValueError, match="empty"):
        next(sample_stream(GraphClassSpec(1, None, True), 0, 1))


def test_sampling_rejects_a_negative_count():
    # a negative count would otherwise draw nothing and say nothing
    with pytest.raises(ValueError, match="sample count -2 is negative"):
        list(sample_stream(GraphClassSpec(3), 1, -2))
    assert list(sample_stream(GraphClassSpec(3), 1, 0)) == []


def test_sampled_keys_at_n50_k3_are_pinned():
    # sha256 of the keys of 1,000 samples per seed, as the per-vertex pool
    # unranker drew them; unranking every vertex against vertex n's pool
    # must not move a single sample
    pinned = {
        1: "656bc48debbbc618d1909b7f676a566bc94160d28fe4fd58e994f59a2323b079",
        2: "99122e8165a565fecfc0d87f0ddd1c7fd6e1abe9d0a712fcc263c61089b09bc9",
        3: "5bf72ee3301a870a0c639a83700cbfcacd119b52ac77f05306871df11a9252c8",
        11: "6f55d3b40ebab2490bc6caea4aab90ff3d3208bbf3c161e1e3f8d21e83e2fcb5",
    }
    spec = GraphClassSpec(50, 3)
    for seed, digest in pinned.items():
        keys = [g.key for g in sample_stream(spec, seed, 1000)]
        assert hashlib.sha256(repr(keys).encode()).hexdigest() == digest, seed
        assert [graph_of_ranks(spec, r).key for r in sample_ranks(spec, seed, 20)] == keys[:20]


def test_sampling_golden_values():
    # pins the word-consumption and unranking protocol; a change here breaks
    # seed portability and must be deliberate
    g = next(sample_stream(GraphClassSpec(6, 2, True), 2024, 1))
    assert g.edges == (
        (1, 2), (1, 4), (2, 4), (3, 1), (3, 4), (4, 2), (4, 3), (5, 1), (5, 3), (6, 4), (6, 5),
    )
    stream = [x.edges for x in sample_stream(GraphClassSpec(5, 1), 7, 3)]
    assert stream == [
        ((1, 3), (4, 2)),
        ((1, 5), (2, 4), (3, 2), (5, 4)),
        ((1, 3), (2, 1), (5, 3)),
    ]


#: The first sample's out-set ranks for seeds 1 and 2 on two classes past one
#: word: G_65(32) has R = 10,139,684,107,326,071,075, about 1.10 * 2**63, so
#: about 45% of its words are rejected; G_66 has R = 2**65, two words a draw.
_MULTIWORD_RANKS = {
    (65, 32, 1): (
        5599841837815857887, 2880178291573394738, 573812481542357666, 960460491066566553, 4542806826184744765,
        7531101419052079111, 3116694405751838939, 4829305644157075203, 4947898268433920346, 6772105247286353214,
        5702136112529972612, 4486913444117760757, 3053342901079121049, 1020520609869542460, 5229634981978138143,
        2709070615218784302, 1488809396389996362, 6380396624854279052, 6224351925753301604, 3620967716562376413,
        9373142774663866083, 8696085032779844307, 4563194638526885960, 8979106194456269363, 2961971066112242589,
        2508169576796586577, 1529267138650997302, 1994119423215498286, 8086590876933907903, 9865569202233116148,
        3156495228058094717, 6804671436967007722, 7526563739015591277, 1088376848219401020, 8304159168521066548,
        5412084861422158354, 3855512441425882672, 1732795628192423129, 5254995425677908400, 1510975846568240477,
        3168649906805629292, 909419893083065718, 9041492643784376498, 5712333762079588522, 8962051148696132593,
        5357864194345194282, 9289893313327243691, 1608515542777648170, 2184996398763409518, 417761683494699893,
        2139515145657145750, 2405009836531818781, 5213661260306447151, 9930897685223211711, 5817797146581886842,
        4910983694039903699, 20124739335808557, 10077853178903134988, 4679818668648593825, 6473659144256411633,
        6092055886364889208, 10065349086224354409, 7227095814335091642, 9472559795800281390, 4240669157237813171
    ),
    (65, 32, 2): (
        9018899181413962518, 5976283139122749592, 6536962276746197288, 9144354425304890202, 3667175094358731012,
        5942182897563251664, 1516726041038333645, 6293962529067491449, 437143695465936237, 6142115674119954234,
        3192977370034856457, 4070496661332527939, 1649018501345596740, 137381400198522523, 14569873104981719,
        5463447386810385691, 9565365151027874359, 8087987076120683078, 4273883746467258222, 2757615480909691929,
        5563223719593412995, 8357223638854465382, 6678709215503506836, 2358681225059009709, 6217468743112537860,
        3133745576166927559, 8818239508153328111, 8714578721208204643, 5999713935404234541, 5061328523856236829,
        7581591927246145024, 5772027963283650606, 6594706768097087693, 957926576374868748, 2013476319749281787,
        5125029870726737686, 9211030181045735557, 8649326639317322903, 9204436495336528093, 6575453668889753336,
        4406842186421199514, 9298894139554800564, 1100775482491515853, 8191614549011866448, 8406253736346415657,
        4919283021526440281, 5228248889696902206, 2048043758931452626, 6275710593302714369, 9066686275104330698,
        6728797163629281262, 9635197294221411839, 9974529354793525674, 9794592625649222556, 6814890453488623932,
        930658408452701230, 4426973930795766597, 2096470804500496586, 3891516680682154507, 5786536376111951844,
        5206090997898043016, 6063937658110963250, 3271164599765784496, 3264511686653660154, 2420759959104861828
    ),
    (66, None, 1): (
        34102657172281101871, 573812481542357666, 960460491066566553, 4542806826184744765, 21563438479461390555,
        33568661216213707111, 29542341206061401750, 6772105247286353214, 11386533545480267005,
        16935391444198963441, 13101198750258898855, 21500086974788672665, 5229634981978138143,
        1488809396389996362, 6224351925753301604, 31628123044045492893, 27142829106489395923,
        13703881693994841694, 12190648464315915029, 34504944086445964360, 21408715139821794205,
        19976011212360548918, 8086590876933907903, 11966019091014040123, 21603239301767646333,
        14376710624481581731, 7526563739015591277, 8304159168521066548, 3855512441425882672,
        23701739499387460016, 35691662944251618308, 13160636259215611629, 21615393980515180908,
        9041492643784376498, 11858035797282027457, 27408795222405684209, 9289893313327243691,
        1608515542777648170, 20631740472472961134, 29603634291642154321, 2139515145657145750,
        31405036939428872994, 28377641758932763327, 15497647324182811020, 29965797929567566696,
        28524597252612686604, 24920403217965963249, 24538799960074440824, 16402675096671132242,
        28512093159933906025, 7227095814335091642, 27919303869509833006, 29879485590679022403,
        13287446190705964034, 28615929695898739058, 9503746761495616761, 27214722604756254640,
        752375897622613828, 8759168700702104174, 27616155590894613303, 31524176469614865896,
        29777656091442975724, 26213195821427412894, 9932356614227916953, 16656434192708435702,
        12938138264919803098
    ),
    (66, None, 2): (
        5976283139122749592, 28889528923835552605, 14223932622896463954, 15913073390648822176,
        18235611302223718748, 5942182897563251664, 33877996426917595089, 18883887769175487853,
        13139533056825095284, 33336026333649032321, 20095762575055148356, 35539781313473760083,
        18461313946814533335, 5463447386810385691, 35530869767885764800, 8087987076120683078,
        15873138007566066138, 35775990740730074675, 13895333856976613619, 26803967712564016998,
        15690248122176403398, 32163598744728300757, 6217468743112537860, 3133745576166927559,
        16167535351735941355, 33558747689744385036, 24446458009113786157, 30221582441103699370,
        26028336000955696640, 16117281900810303933, 15864283816982433076, 6594706768097087693,
        2013476319749281787, 33165727143348765280, 23571773944436289302, 17406005592027376977,
        32798693743504605390, 34088503018915485891, 28647826244284725749, 28605435335612084650,
        12465130487075831683, 4406842186421199514, 9298894139554800564, 26638358622721418064,
        12440544420854964897, 36017655585364685122, 23674992963406453822, 6275710593302714369,
        10164275705848132759, 9635197294221411839, 9794592625649222556, 31957420201993608307,
        10381354500102197959, 10468590130851269829, 4426973930795766597, 32659120406551934697,
        2096470804500496586, 32558644252797481530, 24233280449821503460, 6063937658110963250,
        16987536225235338969, 2420759959104861828, 9732282716493177319, 36295946282391213240,
        34421075060318907662, 27848602229504873020
    ),
}


@pytest.mark.parametrize("n, bound, seed", list(_MULTIWORD_RANKS))
def test_sampling_pins_rejection_and_multiword_draws(n, bound, seed):
    assert next(sample_ranks(GraphClassSpec(n, bound), seed, 1)) == _MULTIWORD_RANKS[n, bound, seed]


@pytest.mark.slow
def test_sampling_uniform_within_5_sigma():
    spec = GraphClassSpec(3, 1, True)
    members = {g.key for g in class_graphs(spec)}
    assert len(members) == 8
    counts = Counter(next(sample_stream(spec, seed, 1)).key for seed in range(10_000))
    assert set(counts) == members
    expected = 10_000 / 8
    sigma = math.sqrt(10_000 * (1 / 8) * (7 / 8))
    assert max(abs(c - expected) for c in counts.values()) <= 5 * sigma


# ---- file format ----


def test_parse_examples():
    assert parse_graph("n 2\ne 1 2\n") == graph(2, (1, 2))
    star = parse_graph("n 5\ne 2 1\ne 3 1\ne 4 1\ne 5 1\n")
    assert star == graph(5, (2, 1), (3, 1), (4, 1), (5, 1))
    with_comments = parse_graph("# a star\n\nn 2\n# the only edge\ne 1 2\n")
    assert with_comments == graph(2, (1, 2))


@pytest.mark.parametrize(
    "text,line,match",
    [
        ("n 3\ne 1 1\n", 2, "self-loop"),
        ("n 2\ne 1 3\n", 2, "outside"),
        ("n 2\ne 1 2\ne 1 2\n", 3, "duplicate edge"),
        ("e 1 2\n", 1, "before"),
        ("n 2\nn 2\n", 2, "duplicate 'n'"),
        ("n two\n", 1, "not an integer"),
        ("n 2\nx 1 2\n", 2, "unrecognized"),
        ("n 2\ne 1\n", 2, "must be"),
        ("n 0\n", 1, "positive"),
        ("# nothing\n", 2, "missing"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, match):
    with pytest.raises(GraphFormatError, match=match) as err:
        parse_graph(text)
    assert err.value.line == line


def test_serialize_canonical():
    g = graph(3, (3, 1), (1, 2))
    assert g.serialize() == "n 3\ne 1 2\ne 3 1\n"


@given(graphs())
def test_parse_serialize_round_trip(g):
    assert parse_graph(g.serialize()) == g


@given(graphs())
def test_every_builder_gives_the_same_graph(g):
    spec = GraphClassSpec(g.n)
    ranks = [admissible_outsets(spec, v).index(tuple(sorted(outs))) for v, outs in enumerate(g.out_sets, start=1)]
    index = sum(r * spec.outset_count ** (g.n - v) for v, r in enumerate(ranks, start=1))
    text = g.serialize()
    built = [
        DirectedGraph.from_edges(g.n, reversed(g.edges)),
        DirectedGraph.from_out_sets(g.n, g.out_sets),
        parse_graph(text),
        _read_lines("# the line reader\n" + text),
        graph_at_index(spec, index),
        graph_of_ranks(spec, ranks),
    ]
    for h in built:
        assert h == g and hash(h) == hash(g) and h.key == g.key and h.serialize() == text
    if g.edges:
        assert DirectedGraph.from_edges(g.n, g.edges[1:]) != g
    missing = [(u, v) for u in range(1, g.n + 1) for v in range(1, g.n + 1) if u != v and (u, v) not in g.edges]
    if missing:
        assert DirectedGraph.from_edges(g.n, [*g.edges, missing[0]]) != g


def test_serialize_leaves_the_edge_view_uncomputed():
    # vertex 1's out-set {3, 8} iterates as 8, 3: the lines are sorted, not in set order
    g = graph(8, (5, 1), (1, 8), (1, 3), (4, 2))
    assert list(g.out_sets[0]) == [8, 3]
    assert g.serialize() == "n 8\ne 1 3\ne 1 8\ne 4 2\ne 5 1\n"
    assert "edges" not in g.__dict__


def test_serialize_writes_blocks_in_vertex_order(monkeypatch):
    monkeypatch.setattr(impsel.graphs, "_VERTEX_BLOCK", 2)
    g = graph(5, (5, 4), (3, 1), (2, 5), (1, 3), (1, 2), (4, 2))
    assert g.serialize() == "n 5\ne 1 2\ne 1 3\ne 2 5\ne 3 1\ne 4 2\ne 5 4\n"
    assert parse_graph(g.serialize()) == g


def _parsed(reader, text):
    """The graph `reader` returns, or the message and line of its error."""
    try:
        return reader(text)
    except GraphFormatError as exc:
        return str(exc), exc.line


# tokens of either reader's grammar and just outside it; each id that is no
# small vertex id makes the line reader refuse the line
IDS = st.sampled_from(["0", "03", "+3", "1_0", "\u0663", "-1", "x", "2" * 19, str(2**63), str(2**63 - 1), "99999999999999999"])
SEPARATORS = st.sampled_from([" ", " ", " ", "  ", "\t", " \t"])


@st.composite
def graph_texts(draw):
    """Canonical text of a small graph, then a few edits, each of which may
    take it out of the array pass's grammar or make it invalid."""
    n = draw(st.integers(min_value=1, max_value=6))
    small = st.integers(min_value=1, max_value=n + 1).map(str)
    ids = st.one_of(small, IDS)
    lines = draw(graphs(max_n=n)).serialize().splitlines()
    lines[0] = f"n {n}"
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        at = draw(st.integers(min_value=0, max_value=len(lines)))
        edit = draw(st.sampled_from(["edge", "edge", "comment", "blank", "header", "retoken", "respace", "duplicate", "drop"]))
        if edit == "edge":
            lines.insert(at, f"e {draw(small)} {draw(small)}")
        elif edit == "comment":
            lines.insert(at, draw(st.sampled_from(["# a comment", "  # indented", "#"])))
        elif edit == "blank":
            lines.insert(at, draw(st.sampled_from(["", " ", "\t"])))
        elif edit == "header":
            lines.insert(at, f"n {draw(ids)}")
        elif lines and at < len(lines):
            fields = lines[at].split(" ")
            if edit == "retoken":
                fields[draw(st.integers(min_value=0, max_value=len(fields) - 1))] = draw(ids)
                lines[at] = " ".join(fields)
            elif edit == "respace":
                lines[at] = draw(SEPARATORS).join(fields) + draw(st.sampled_from(["", " ", "\t"]))
            elif edit == "duplicate":
                lines.insert(at, lines[at])
            else:
                del lines[at]
    newline = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from([newline, newline, ""]))


@settings(max_examples=400, deadline=None)
@given(graph_texts())
def test_parse_graph_agrees_with_the_line_reader(text):
    # a header count past 10^6 would have the line reader build that many
    # out-sets: such a text ends in a self-loop, so both readers refuse it first
    if any(fields[:1] == ["n"] and max(map(len, fields)) > 6 for fields in map(str.split, text.splitlines())):
        text += "\ne 1 1\n"
    assert _parsed(parse_graph, text) == _parsed(_read_lines, text)


# the array pass's grammar as one match of the whole text, which keeps
# backtracking state per line and so only suits small texts
_ID = r"[1-9][0-9]{0,17}"
_GRAMMAR = re.compile(rf"n {_ID}(?:\ne {_ID} {_ID})*\n?")


@settings(max_examples=400, deadline=None)
@given(st.one_of(graph_texts(), graphs().map(DirectedGraph.serialize)))
def test_well_formed_is_the_grammar(text):
    assert _well_formed(text) == (_GRAMMAR.fullmatch(text) is not None)


@pytest.mark.parametrize(
    "text",
    ["", "\n", "n 3", "n 3\n", "n 3\n\n", "\nn 3\n", "n 3\ne 1 2", "n 3\ne 1 2\n\n", "n 3\ne 1 2\ne 2 1\n",
     "n 3\ne 1 2 \n", "n 3\ne 1\n", "e 1 2\nn 3\n", f"n {'9' * 18}\n", f"n {'9' * 19}\n",
     f"n 3\ne {'1' * 18} 2\n", f"n 3\ne 1 {'1' * 19}\n", "n 03\n", "n 3\ne 0 1\n", "n 3\r\ne 1 2\n"],
)
def test_well_formed_examples(text):
    assert _well_formed(text) == (_GRAMMAR.fullmatch(text) is not None)


@pytest.mark.parametrize(
    "text,line,match",
    [
        # ids past int64 are refused by the line reader, not by a conversion
        (f"n 3\ne 1 {2**63}\n", 2, "outside"),
        (f"n 3\ne {'9' * 25} 2\n", 2, "outside"),
        # a well-formed text whose header asks for 10^17 out-sets fails at
        # its bad line before any out-set is built
        (f"n {10**17}\ne 1 2\ne 2 2\n", 3, "self-loop"),
        (f"n {10**17}\ne 1 2\ne 3 4\ne 1 2", 4, "duplicate edge"),
        (f"n {2**63}\ne 1 2\ne 2 2\n", 3, "self-loop"),
        # well-formed but out of range, in and past the last line
        ("n 3\ne 1 2\ne 3 4", 3, "outside"),
        ("n 3\ne 4 1\ne 1 2\n", 2, "outside"),
    ],
)
def test_array_pass_leaves_errors_to_the_line_reader(text, line, match):
    with pytest.raises(GraphFormatError, match=match) as err:
        parse_graph(text)
    assert err.value.line == line
    assert _parsed(parse_graph, text) == _parsed(_read_lines, text)
