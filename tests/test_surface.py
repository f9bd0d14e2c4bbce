"""Tests for decomposition graphs, labelings, and the genus-3 census."""

from itertools import combinations_with_replacement, permutations, product

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    canonical_combo_all_perms, census_by_filter, common_cycle_class,
    first_strong_orientation_by_product, graph_key, has_bridge, multicurve_key,
    multicurve_problem_by_vertex_loop, realizability_by_search, reachable, scan_subsets,
)
from torelli3 import cli, surface
from torelli3.lattice import (
    A1, A2, A3, HVector, ZERO, InternalInconsistencyError, UsageError, intersection,
)
from torelli3.surface import (
    CensusEntry, DecompGraph, LabeledMulticurve,
    ambient_genus, bp_count, cd_arithmetic_line, cd_upper_bound, census_json,
    classify_types, dimension, positive_genus_count, realizability_check,
)

MINUS = "−"

# frozen fingerprints (|V|, |E|, genus multiset, multi-edge profile)
CENSUS_FINGERPRINTS = {
    0: [
        (1, 1, (2,), ()),
        (1, 2, (1,), (2,)),
        (1, 3, (0,), (3,)),
    ],
    1: [
        (2, 2, (1, 1), (2,)),
        (2, 3, (0, 1), (2,)),
        (2, 3, (0, 1), (3,)),
        (2, 4, (0, 0), (2,)),
        (2, 4, (0, 0), (3,)),
        (2, 4, (0, 0), (4,)),
    ],
    2: [
        (3, 4, (0, 0, 1), (2,)),
        (3, 5, (0, 0, 0), (2,)),
        (3, 5, (0, 0, 0), (2, 2)),
    ],
    3: [
        (4, 6, (0, 0, 0, 0), ()),
        (4, 6, (0, 0, 0, 0), (2, 2)),
    ],
}


def k4_graph():
    edges = []
    for i, (a, b) in enumerate((p for p in product(range(4), range(4)) if p[0] < p[1])):
        edges.append((i, a, b))
    return DecompGraph([(v, 0) for v in range(4)], edges)


def three_shared():
    graph = DecompGraph(
        [(0, 1), (1, 0)],
        [("u1", 0, 1), ("u2", 0, 1), ("w", 1, 0)],
    )
    classes = {"u1": A1, "u2": A2, "w": A1 + A2}
    return LabeledMulticurve(graph, classes, A1 + A2)


def two_loops():
    graph = DecompGraph([(0, 1)], [("l1", 0, 0), ("l2", 0, 0)])
    return LabeledMulticurve(graph, {"l1": A1, "l2": A2}, A1 + A2)


def bounding_pair():
    graph = DecompGraph([(0, 1), (1, 1)], [("d1", 0, 1), ("d2", 1, 0)])
    return LabeledMulticurve(graph, {"d1": A1, "d2": A1}, A1)


# ---------------------------------------------------------------------------
# graphs and labelings


def test_ambient_genus_examples():
    assert ambient_genus(DecompGraph([(0, 3)], [])) == 3
    assert ambient_genus(k4_graph()) == 3
    five = DecompGraph(
        [(0, 0), (1, 0), (2, 0)],
        [(0, 0, 1), (1, 0, 1), (2, 0, 2), (3, 0, 2), (4, 1, 2)],
    )
    chis = sorted(five.euler_char(v) for v in five.vertex_ids)
    assert chis == [-2, -1, -1]
    assert ambient_genus(five) == 3


def test_graph_validation():
    with pytest.raises(UsageError, match="duplicate vertex ids"):
        DecompGraph([(0, 1), (0, 2)], [])
    with pytest.raises(UsageError, match="duplicate edge ids"):
        DecompGraph([(0, 3)], [("e", 0, 0), ("e", 0, 0)])
    with pytest.raises(UsageError, match="touches an unknown vertex"):
        DecompGraph([(0, 3)], [("e", 0, 1)])
    with pytest.raises(UsageError, match="negative genus"):
        DecompGraph([(0, -1)], [])
    with pytest.raises(UsageError, match="not connected"):
        DecompGraph([(0, 2), (1, 2)], [])  # disconnected
    with pytest.raises(UsageError, match="disk or annulus piece"):
        DecompGraph([(0, 0)], [])  # disk piece
    with pytest.raises(UsageError, match="disk or annulus piece"):
        DecompGraph([(0, 0)], [("l", 0, 0)])  # annulus piece
    with pytest.raises(UsageError, match="disk or annulus piece"):
        DecompGraph([(0, 0), (1, 2)], [("e", 0, 1)])  # vertex 0 is a disk


@pytest.mark.parametrize("bad", (0.5, 2.0, "3"))
def test_graph_rejects_a_non_integer_genus(bad):
    with pytest.raises(UsageError, match="vertex genera must be integers"):
        DecompGraph([(0, 3), (1, bad)], [("e", 0, 1)])


def test_graph_ids_are_kept_in_order():
    g = DecompGraph([("b", 1), ("a", 1)], [("y", "a", "b"), ("x", "b", "a")])
    assert g.vertex_ids == ("b", "a")
    assert g.edge_ids == ("y", "x")


def test_labeling_validation():
    graph = DecompGraph([(0, 1), (1, 1)], [("d1", 0, 1), ("d2", 1, 0)])
    with pytest.raises(UsageError, match="labeling does not match the edge set"):
        LabeledMulticurve(graph, {"d1": A1}, A1)
    with pytest.raises(UsageError, match="not null-homologous"):
        LabeledMulticurve(graph, {"d1": A1, "d2": A2}, A1)
    loop = DecompGraph([(0, 2)], [("l", 0, 0)])
    with pytest.raises(UsageError, match="classes span rank 0, expected 1"):
        LabeledMulticurve(loop, {"l": ZERO}, A1)  # rank 0, expected 1
    fine = LabeledMulticurve(loop, {"l": A1}, A1)
    assert fine.class_of("l") == A1


def canonical_key(graph):
    """The census key of a graph: the least of ``surface._relabelings`` of
    its genera and its edges as pairs of piece indices."""
    index = {v: i for i, (v, _) in enumerate(graph.vertices)}
    return min(
        surface._relabelings(
            [g for _, g in graph.vertices],
            [(index[t], index[h]) for _, t, h in graph.edges],
        )
    )


def test_reoriented_round_trip():
    g = k4_graph()
    flipped = g.reoriented([0, 3])
    assert graph_key(flipped) != graph_key(g)
    assert graph_key(flipped.reoriented([0, 3])) == graph_key(g)
    assert canonical_key(flipped) == canonical_key(g)


def test_bp_and_counts():
    assert bp_count(bounding_pair()) == 1
    assert bp_count(two_loops()) == 0
    assert bp_count(three_shared()) == 0
    assert positive_genus_count(three_shared()) == 1
    assert positive_genus_count(two_loops()) == 1
    single = LabeledMulticurve(
        DecompGraph([(0, 2)], [("l", 0, 0)]), {"l": A1}, A1
    )
    assert bp_count(single) == 0


def test_cd_bound_examples():
    m = three_shared()
    assert cd_upper_bound(m) == 2
    assert cd_arithmetic_line(m) == f"6 {MINUS} 1 {MINUS} 3 + 0 = 2"
    m = two_loops()
    assert cd_upper_bound(m) == 3
    assert cd_arithmetic_line(m) == f"6 {MINUS} 1 {MINUS} 2 + 0 = 3"


def test_cd_bound_on_complete_graph_type():
    entry = next(
        e for e in classify_types(3, 3) if e.fingerprint == (4, 6, (0, 0, 0, 0), ())
    )
    assert cd_upper_bound(entry.witness) == 0
    assert dimension(entry.graph) == 3


def test_cd_bound_requires_genus_3():
    small = LabeledMulticurve(DecompGraph([(0, 2)], []), {}, ZERO)
    assert ambient_genus(small.graph) == 2
    with pytest.raises(ValueError):
        cd_upper_bound(small)


def test_dimension():
    assert dimension(DecompGraph([(0, 3)], [])) == 0
    assert dimension(k4_graph()) == 3


# ---------------------------------------------------------------------------
# realizability


def test_realizability_loop_on_torus_piece():
    graph = DecompGraph([(0, 1)], [("l", 0, 0)])
    witness = realizability_check(graph)
    assert witness is not None
    assert witness.class_of("l") == A1
    assert witness.x == A1


def test_realizability_rejects_bridge():
    graph = DecompGraph([(0, 2), (1, 1)], [("e", 0, 1)])
    assert realizability_check(graph) is None


def test_realizability_rejects_empty():
    assert realizability_check(DecompGraph([(0, 3)], [])) is None


def test_realizability_rejects_loop_plus_bridge():
    # loop forces its neighbor edge to carry class 0
    graph = DecompGraph(
        [(0, 0), (1, 2)], [("l", 0, 0), ("e", 0, 1)]
    )
    assert realizability_check(graph) is None


# ---------------------------------------------------------------------------
# the census


def test_census_counts_and_fingerprints():
    for p, expected in CENSUS_FINGERPRINTS.items():
        entries = classify_types(3, p)
        assert [e.fingerprint for e in entries] == expected
    assert [len(classify_types(3, p)) for p in range(4)] == [3, 6, 3, 2]


def test_census_out_of_range():
    assert classify_types(3, 4) == []
    assert classify_types(3, 7) == []
    with pytest.raises(ValueError):
        classify_types(2, 0)
    with pytest.raises(ValueError):
        classify_types(3, -1)


@pytest.mark.parametrize(
    "g, p, message",
    [
        (3, 2.0, "the dimension must be an integer, got 2.0"),
        (3, "2", "the dimension must be an integer, got '2'"),
        (3.0, 2, "the genus must be an integer, got 3.0"),
    ],
    ids=["float-dimension", "string-dimension", "float-genus"],
)
def test_census_rejects_a_non_integer_argument(g, p, message):
    with pytest.raises(UsageError, match=message):
        classify_types(g, p)


def _condition_i_brute(classes):
    vecs = [c.coords for c in classes]
    for coeffs in product(range(4), repeat=len(vecs)):
        if not any(coeffs):
            continue
        total = [sum(c * v[i] for c, v in zip(coeffs, vecs)) for i in range(6)]
        if not any(total):
            return False
    return True


def _condition_ii_brute(m):
    edges = list(m.graph.edge_ids)
    vecs = {e: sympy.Matrix(list(m.class_of(e).coords)) for e in edges}
    x = sympy.Matrix(list(m.x.coords))
    covered = set()
    n = len(edges)
    for mask in range(1, 1 << n):
        chosen = [edges[i] for i in range(n) if mask >> i & 1]
        mat = sympy.Matrix.hstack(*(vecs[e] for e in chosen))
        if mat.rank() != len(chosen):
            continue
        for ks in product(range(1, 5), repeat=len(chosen)):
            total = sympy.zeros(6, 1)
            for k, e in zip(ks, chosen):
                total += k * vecs[e]
            if total == x:
                covered.update(chosen)
                break
    return covered == set(edges)


def test_census_witnesses_satisfy_invariants():
    for p in range(4):
        for entry in classify_types(3, p):
            m = entry.witness
            d = entry.to_dict()
            assert d["dim"] == p
            assert d["dim"] + d["cd_bound"] <= 4
            assert ambient_genus(m.graph) == 3
            assert not m.x.is_zero()
            values = [m.class_of(e) for e in m.graph.edge_ids]
            assert all(not c.is_zero() for c in values)
            for u in values:
                for v in values:
                    assert intersection(u, v) == 0
            assert d["bp"] == len(values) - len({c.coords for c in values})
            assert _condition_i_brute(values)
            assert _condition_ii_brute(m)


def test_census_rank_identity():
    for p in range(4):
        for entry in classify_types(3, p):
            m = entry.witness
            mat = sympy.Matrix([list(m.class_of(e).coords) for e in m.graph.edge_ids])
            assert mat.rank() == len(m.graph.edges) - (len(m.graph.vertices) - 1)


def test_census_deterministic():
    first = [e.fingerprint for p in range(4) for e in classify_types(3, p)]
    second = [e.fingerprint for p in range(4) for e in classify_types(3, p)]
    assert first == second


def test_census_json_shape():
    records = census_json()
    assert len(records) == 14
    assert [r["dim"] for r in records] == sorted(r["dim"] for r in records)
    for r in records:
        assert set(r) == {
            "vertices", "edges", "genus_multiset", "multiedge_profile",
            "bp", "p_count", "cd_bound", "dim",
        }
        assert r["vertices"] == r["dim"] + 1


def test_canonical_key_separates_census_types():
    keys = set()
    for p in range(4):
        for entry in classify_types(3, p):
            keys.add(canonical_key(entry.graph))
    assert len(keys) == 14


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_canonical_key_ignores_labels_and_orientations(data):
    # each census witness graph is its own canonical form; relabeling its
    # vertices, reorienting and reordering its edges keeps that key and
    # keeps it realizable
    for entry in (e for p in range(4) for e in classify_types(3, p)):
        g = entry.graph
        key = (
            tuple(gen for _, gen in g.vertices),
            tuple((min(t, h), max(t, h)) for _, t, h in g.edges),
        )
        assert canonical_key(g) == key
        ids = g.vertex_ids
        rename = dict(zip(ids, data.draw(st.permutations(range(len(ids))))))
        n = len(g.edges)
        flips = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        vertices = sorted((rename[v], gen) for v, gen in g.vertices)
        edges = [
            (e, rename[h], rename[t]) if flip else (e, rename[t], rename[h])
            for (e, t, h), flip in zip(g.edges, flips)
        ]
        relabeled = DecompGraph(vertices, data.draw(st.permutations(edges)))
        assert canonical_key(relabeled) == key
        witness = realizability_check(relabeled)
        assert witness is not None
        assert witness.graph.vertices == relabeled.vertices


def test_census_matches_the_unpruned_oracle():
    for p in range(4):
        got, want = classify_types(3, p), census_by_filter(p)
        assert [e.fingerprint for e in got] == [e.fingerprint for e in want]
        # graphs, classes and x
        assert [multicurve_key(e.witness) for e in got] == [
            multicurve_key(e.witness) for e in want
        ]


def graphs_checked_by(census):
    """Every graph ``census(p)`` hands ``realizability_check``, p = 0..3."""
    seen = []
    check = surface.realizability_check

    def counting(graph):
        seen.append(graph)
        return check(graph)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(surface, "realizability_check", counting)
        for p in range(4):
            census(p)
    return seen


@pytest.fixture(scope="module")
def census_graphs():
    return graphs_checked_by(surface._census.__wrapped__)


def test_census_checks_realizability_of_the_same_graphs(census_graphs):
    assert len(census_graphs) == 42
    assert list(map(graph_key, census_graphs)) == list(
        map(graph_key, graphs_checked_by(census_by_filter))
    )


def test_cold_census_canonicalizes_each_new_type_once(monkeypatch):
    # every later copy of a type is one of the relabelings seeded when it
    # was found, so the 205 (genera, edges) forms met over p = 0..3 cost
    # one relabeling walk per graph checked
    keys, graphs = [], []
    walk, check = surface._relabelings, surface.realizability_check

    def counting_walk(genera, pairs):
        forms = list(walk(genera, pairs))
        keys.append(min(forms))
        return iter(forms)

    def counting_check(graph):
        graphs.append(graph)
        return check(graph)

    monkeypatch.setattr(surface, "_relabelings", counting_walk)
    monkeypatch.setattr(surface, "realizability_check", counting_check)
    surface._census.cache_clear()
    try:
        for p in range(4):
            classify_types(3, p)
    finally:
        surface._census.cache_clear()
    assert len(keys) == len(graphs) == 42
    # each graph checked is the least form of the walk just taken
    assert keys == [
        (tuple(g for _, g in graph.vertices), tuple((t, h) for _, t, h in graph.edges))
        for graph in graphs
    ]


def sum_of_rows(rows):
    return tuple(map(sum, zip(*rows.values())))


def test_weight_search_oracle_agrees_on_every_census_graph(census_graphs):
    accepted = 0
    for graph in census_graphs:
        got, want = realizability_check(graph), realizability_by_search(graph)
        assert (got is None) == (want is None)
        if got is not None:
            accepted += 1
            assert graph_key(got.graph) == graph_key(want.graph)  # the same first orientation
            assert got.classes == want.classes
    assert accepted == 14
    passing = 0
    for graph in census_graphs:
        order = list(graph.edge_ids)
        for flips in product((False, True), repeat=len(order)):
            oriented = graph.reoriented([e for e, f in zip(order, flips) if f])
            rows, chords = surface._cycle_rows(oriented)
            if not chords or not scan_subsets(rows, order, (0,) * len(chords))[1]:
                continue
            passing += 1
            assert common_cycle_class(rows, order) is not None
            found, bounded = scan_subsets(rows, order, sum_of_rows(rows))
            assert bounded
            assert {e for subset, _ in found for e in subset} == set(order)
    assert passing == 138


def test_cycle_rows_run_once_per_accepted_census_graph(census_graphs, monkeypatch):
    # the orientations are decided on their arcs; only the first that
    # passes is built into a witness
    calls = []
    cycle_rows = surface._cycle_rows

    def counting_rows(graph):
        calls.append(graph)
        return cycle_rows(graph)

    monkeypatch.setattr(surface, "_cycle_rows", counting_rows)
    accepted = 0
    for graph in census_graphs:
        before = len(calls)
        witness = realizability_check(graph)
        if witness is None:
            assert len(calls) == before
        else:
            accepted += 1
            assert calls[before:] == [witness.graph]
    assert accepted == len(calls) == 14


def test_census_fault_is_an_internal_error(monkeypatch, capsys):
    """A witness the checked constructor rejects is an internal
    inconsistency of the census, exit 3, not a usage error."""
    cycle_rows = surface._cycle_rows

    def doubling_rows(graph):
        rows, chords = cycle_rows(graph)
        first = graph.edge_ids[0]
        rows[first] = tuple(2 * c for c in rows[first])
        return rows, chords

    monkeypatch.setattr(surface, "_cycle_rows", doubling_rows)
    surface._census.cache_clear()
    try:
        with pytest.raises(InternalInconsistencyError, match="census graph"):
            classify_types(3, 1)
        assert cli.main(["types"]) == cli.EXIT_INTERNAL == 3
    finally:
        surface._census.cache_clear()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: census graph")


def test_cycle_rows_refuse_a_disconnected_graph():
    """The spanning tree of ``_cycle_rows`` must reach every piece; a
    trusted graph with a piece cut off is an internal inconsistency."""
    graph = DecompGraph._trusted(((0, 1), (1, 1)), ((0, 0, 0),))
    with pytest.raises(InternalInconsistencyError, match=r"vertices \[1\] are cut off"):
        surface._cycle_rows(graph)


def test_realizability_refuses_a_chord_count_off_the_rank(monkeypatch):
    """One chord per independent cycle: rows that drop a chord are an
    internal inconsistency of the witness, not a rejection."""
    cycle_rows = surface._cycle_rows

    def dropping_chord(graph):
        rows, chords = cycle_rows(graph)
        return {e: row[:-1] for e, row in rows.items()}, chords[:-1]

    monkeypatch.setattr(surface, "_cycle_rows", dropping_chord)
    with pytest.raises(InternalInconsistencyError, match="2 chords, not the rank 3"):
        realizability_check(k4_graph())


@st.composite
def oriented_multigraphs(draw):
    """A connected multigraph on at most 4 vertices and 6 edges, loops
    allowed, of cycle rank 1 to 3, with a random orientation: a spanning
    tree first, then the extra edges.  Genera make every piece legal."""
    nv = draw(st.integers(1, 4))
    rank = draw(st.integers(1, 3))
    vertex = st.integers(0, nv - 1)
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, nv)]
    pairs += [(draw(vertex), draw(vertex)) for _ in range(rank)]
    edges = [
        (i, b, a) if draw(st.booleans()) else (i, a, b) for i, (a, b) in enumerate(pairs)
    ]
    degree = [sum((t == v) + (h == v) for _, t, h in edges) for v in range(nv)]
    return DecompGraph([(v, max(0, (4 - d) // 2)) for v, d in enumerate(degree)], edges)


def arcs_of(graph):
    return [(t, h) for _, t, h in graph.edges]


@settings(max_examples=300, deadline=None)
@given(oriented_multigraphs())
def test_condition_i_is_strong_connectivity(graph):
    # a nonnegative vanishing combination of the rows is a flow orthogonal
    # to every cycle, so a directed cut; none exists exactly when the
    # orientation is strongly connected (Minty)
    rows, chords = surface._cycle_rows(graph)
    order = list(graph.edge_ids)
    strong = surface._strongly_connected(arcs_of(graph), graph.vertex_ids)
    assert strong == scan_subsets(rows, order, (0,) * len(chords))[1]
    if strong:
        found, bounded = scan_subsets(rows, order, sum_of_rows(rows))
        assert bounded
        assert {e for subset, _ in found for e in subset} == set(order)
        assert all(type(w) is int and w > 0 for _, weights in found for w in weights)


@settings(max_examples=200, deadline=None)
@given(oriented_multigraphs())
def test_some_orientation_is_strong_exactly_without_a_bridge(graph):
    """Robbins' theorem on random connected multigraphs with loops: some
    orientation passes the reachability test exactly when the
    breadth-first oracle finds no bridge, and the census accepts the
    graph exactly then."""
    bridged = has_bridge(graph)
    strong = [
        surface._strongly_connected(
            [(h, t) if f else (t, h) for (t, h), f in zip(arcs_of(graph), flips)],
            graph.vertex_ids,
        )
        for flips in product((False, True), repeat=len(graph.edges))
    ]
    assert any(strong) != bridged
    assert (realizability_check(graph) is None) == bridged


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_union_find_matches_the_bfs_oracle(data):
    """Connectivity by the union-find ``surface._merges`` against the
    breadth-first search, on multigraphs with loops that may be
    disconnected."""
    nv = data.draw(st.integers(1, 5))
    vertex = st.integers(0, nv - 1)
    pairs = data.draw(st.lists(st.tuples(vertex, vertex), max_size=7))
    assert (surface._merges(pairs, range(nv)) == nv - 1) == (len(reachable(pairs, 0)) == nv)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(0, 6), st.integers(0, 8), st.integers(-1, 6))
def test_capped_multisets_are_the_filtered_multisets(nv, ne, cap, budget):
    """The budgeted walk yields the multisets of the capped filter with no
    isolated vertex (nv > 1) and least genera within the budget, in
    combinations_with_replacement order, each with its least genera."""
    pairs = [(i, j) for i in range(nv) for j in range(i, nv)]
    want = []
    for combo in combinations_with_replacement(pairs, ne):
        degree = [0] * nv
        for a, b in combo:
            degree[a] += 1
            degree[b] += 1
        least = tuple(max(0, (4 - d) // 2) for d in degree)
        if max(degree) > cap or (nv > 1 and min(degree) == 0) or sum(least) > budget:
            continue
        want.append((combo, least))
    assert list(surface._capped_multisets(nv, ne, cap, budget)) == want


def test_census_work_counters(monkeypatch):
    """The two cuts of the census, frozen: the walk yields 306 multisets
    over p = 0..3 (913 unpruned), and ``_strongly_connected`` decides 14
    complete orientations of the 42 graphs checked (606 by the product
    loop), one per accepted graph."""
    combos, leaves = [], []
    walk, strong = surface._capped_multisets, surface._strongly_connected

    def counting_walk(*args):
        for item in walk(*args):
            combos.append(item)
            yield item

    def counting_strong(arcs, ids):
        leaves.append(strong(arcs, ids))
        return leaves[-1]

    monkeypatch.setattr(surface, "_capped_multisets", counting_walk)
    monkeypatch.setattr(surface, "_strongly_connected", counting_strong)
    assert [len(surface._census.__wrapped__(p)) for p in range(4)] == [3, 6, 3, 2]
    assert len(combos) == 306
    assert len(leaves) == 14 and all(leaves)


@settings(max_examples=300, deadline=None)
@given(oriented_multigraphs())
def test_strong_orientation_matches_the_product_loop(graph):
    """The depth-first search finds the product loop's first strongly
    connected orientation, and none exactly when the graph has a bridge."""
    flips = surface._strong_orientation(graph)
    assert flips == first_strong_orientation_by_product(graph)
    assert (flips is None) == has_bridge(graph)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_canonical_combo_matches_all_relabelings(data):
    nv = data.draw(st.integers(1, 4))
    genera = data.draw(st.lists(st.integers(0, 3), min_size=nv, max_size=nv))
    vertex = st.integers(0, nv - 1)
    combo = data.draw(st.lists(st.tuples(vertex, vertex), max_size=6))
    assert min(surface._relabelings(genera, combo)) == canonical_combo_all_perms(
        nv, genera, combo
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_relabelings_are_every_renaming(data):
    """The whole form set, which the census's seen set takes: vertex v
    renamed label[v] in the genera and in each pair, pairs drawn in either
    orientation and sorted after renaming, one form per label."""
    nv = data.draw(st.integers(1, 4))
    genera = data.draw(st.lists(st.integers(0, 3), min_size=nv, max_size=nv))
    vertex = st.integers(0, nv - 1)
    pairs = data.draw(st.lists(st.tuples(vertex, vertex), max_size=6))
    want = []
    for label in permutations(range(nv)):
        renamed = [None] * nv
        for v in range(nv):
            renamed[label[v]] = genera[v]
        edges = sorted(tuple(sorted((label[a], label[b]))) for a, b in pairs)
        want.append((tuple(renamed), tuple(edges)))
    got = list(surface._relabelings(genera, pairs))
    assert len(got) == len(want)
    assert set(got) == set(want)


def test_multiedge_profile_conventions():
    g = DecompGraph([(0, 1)], [("l1", 0, 0), ("l2", 0, 0)])
    assert g.multiedge_profile() == (2,)
    g = DecompGraph(
        [(0, 0), (1, 1)],
        [("d1", 0, 1), ("d2", 0, 1), ("l", 0, 0)],
    )
    assert g.multiedge_profile() == (2,)


small_classes = st.lists(st.integers(-3, 3), min_size=6, max_size=6).map(HVector)


@st.composite
def labelings(draw):
    """A random graph of ``oriented_multigraphs`` with its vertices in a
    random order, and a labeling of it: each class the combination of
    random chord classes along the fundamental-cycle row of its edge,
    so that every boundary is null-homologous, then perturbed or not by
    adding random classes to some edges, or by dropping an edge."""
    graph = draw(oriented_multigraphs())
    order = draw(st.permutations(list(graph.vertices)))
    graph = DecompGraph(order, graph.edges)
    rows, chords = surface._cycle_rows(graph)
    chord_classes = [draw(small_classes) for _ in chords]
    classes = {
        e: sum((k * h for k, h in zip(rows[e], chord_classes)), ZERO) for e in graph.edge_ids
    }
    for e in draw(st.lists(st.sampled_from(graph.edge_ids), max_size=2)):
        classes[e] = classes[e] + draw(small_classes)
    if draw(st.integers(0, 9)) == 0:
        del classes[draw(st.sampled_from(graph.edge_ids))]
    return graph, classes


@settings(max_examples=400, deadline=None)
@given(labelings(), small_classes)
def test_null_homology_pass_matches_the_vertex_loop_oracle(case, x):
    """The one-pass boundary sums accept and reject the labelings the
    per-vertex loop does, with the same message: the same first bad
    vertex in ``vertex_ids`` order, or the same rank."""
    graph, classes = case
    want = multicurve_problem_by_vertex_loop(graph, classes)
    try:
        m = LabeledMulticurve(graph, classes, x)
    except UsageError as err:
        assert str(err) == want
    else:
        assert want is None
        assert m.classes == classes
