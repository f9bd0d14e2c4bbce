"""Tests for basic cycles, oriented cell faces, and the ladder complex."""

from fractions import Fraction
from itertools import permutations
from math import gcd, lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    affine_frame_by_ranks, append_loop_by_scan, basic_cycle_problem, boundary_faces,
    face_geometry, faces_key, graph_key, ladder_by_sheets, ladder_cell_by_scan, lift_by_mirror,
    multicurve_key,
    remove_edges, smith_factors, solve_rational, scan_subsets, support_key, two_scan,
)
from torelli3 import cycles
from torelli3.lattice import (
    A1, A2, A3, HVector, UsageError, bareiss_determinant, echelon,
)
from torelli3.cycles import (
    CellInstance,
    InternalInconsistencyError,
    append_loop,
    build_ladder,
    enumerate_basic_cycles,
    psi,
    psi_max,
)
from torelli3.surface import DecompGraph, LabeledMulticurve, classify_types


def single_loop(target=A1):
    graph = DecompGraph([(0, 2)], [("e", 0, 0)])
    return LabeledMulticurve(graph, {"e": target}, target)


def bounding_pair(cls=A1):
    graph = DecompGraph([(0, 1), (1, 1)], [("d1", 0, 1), ("d2", 1, 0)])
    return LabeledMulticurve(graph, {"d1": cls, "d2": cls}, cls)


def shared_class_triple():
    graph = DecompGraph(
        [(0, 0), (1, 1)], [("e1", 0, 1), ("e2", 0, 1), ("e3", 1, 0)]
    )
    classes = {"e1": A1, "e2": A2, "e3": A1 + A2}
    return LabeledMulticurve(graph, classes, A1 + A2)


def double_with_two_loops():
    """Aligned pair between two genus-0 pieces, one loop on each piece."""
    graph = DecompGraph(
        [(0, 0), (1, 0)],
        [("d1", 0, 1), ("d2", 1, 0), ("l0", 0, 0), ("l1", 1, 1)],
    )
    classes = {"d1": A1, "d2": A1, "l0": A2, "l1": A3}
    return LabeledMulticurve(graph, classes, A1 + A2 + A3)


def three_double_chain():
    """The three-dimensional cell: three aligned pairs in a hexagon."""
    p, q, c = A1, A2, A3
    graph = DecompGraph(
        [("w", 0), ("x", 0), ("y", 0), ("z", 0)],
        [
            ("A1", "w", "x"),
            ("A2", "x", "w"),
            ("g1", "w", "y"),
            ("B1", "z", "y"),
            ("B2", "y", "z"),
            ("g2", "z", "x"),
        ],
    )
    classes = {"A1": p, "A2": p + c, "g1": c, "B1": q, "B2": q + c, "g2": c}
    return LabeledMulticurve(graph, classes, 3 * p + 2 * q + 4 * c)


def test_single_edge_has_one_unit_cycle():
    m = single_loop()
    cycles = enumerate_basic_cycles(m, A1)
    assert cycles == [{"e": 1}]
    assert psi(cycles[0]) == 1


def test_bounding_pair_has_two_singleton_cycles():
    m = bounding_pair()
    cycles = enumerate_basic_cycles(m, A1)
    assert {frozenset(v.items()) for v in cycles} == {
        frozenset({("d1", 1)}),
        frozenset({("d2", 1)}),
    }


def test_shared_class_triple_has_two_cycles():
    m = shared_class_triple()
    cycles = enumerate_basic_cycles(m, A1 + A2)
    assert {frozenset(v.items()) for v in cycles} == {
        frozenset({("e3", 1)}),
        frozenset({("e1", 1), ("e2", 1)}),
    }


def test_zero_target_is_degenerate():
    with pytest.raises(UsageError, match="the zero class supports no basic cycle"):
        enumerate_basic_cycles(shared_class_triple(), HVector([0] * 6))


def test_enumeration_is_deterministic():
    m = three_double_chain()
    first = enumerate_basic_cycles(m, m.x)
    second = enumerate_basic_cycles(m, m.x)
    assert first == second


def test_basic_cycle_validation():
    """The oracle's self-test: each rejected weighting names its
    problem, and both basic cycles of the cell pass."""
    m = shared_class_triple()
    cases = [
        ({}, A1 + A2, "a basic cycle needs a nonempty support"),
        ({"e1": 0, "e2": 1}, A1 + A2, "weight of 'e1' must be a positive integer"),
        ({"nope": 1}, A1 + A2, "unknown curve 'nope' in support"),
        ({"e1": 1, "e2": 2}, A1 + A2, "weighted class sum misses the target"),
        ({"e1": 1, "e2": 1, "e3": 1}, 2 * A1 + 2 * A2, "support classes are dependent"),
    ]
    for weights, target, problem in cases:
        assert basic_cycle_problem(m, weights, target) == problem
    for v in enumerate_basic_cycles(m, m.x):
        assert basic_cycle_problem(m, v, m.x) is None


def test_cell_dimensions():
    assert CellInstance(single_loop()).dim == 0
    assert CellInstance(double_with_two_loops()).dim == 1
    assert CellInstance(three_double_chain()).dim == 3


def test_cell_dim_cross_check_detects_tampering():
    cell = CellInstance(three_double_chain())
    cell.verts = cell.verts[:2]
    with pytest.raises(InternalInconsistencyError, match="vertex span"):
        boundary_faces(cell)


def test_uncovered_curve_is_malformed():
    graph = DecompGraph([(0, 1), (1, 1)], [("d1", 0, 1), ("d2", 0, 1)])
    m = LabeledMulticurve(graph, {"d1": A1, "d2": -1 * A1}, A1)
    with pytest.raises(UsageError, match="the weight polytope is unbounded"):
        CellInstance(m)
    # bounded, but only e1 carries the target
    triple = shared_class_triple()
    m = LabeledMulticurve(triple.graph, triple.classes, A1)
    with pytest.raises(UsageError, match=r"outside every basic cycle: \['e2', 'e3'\]"):
        CellInstance(m)


def test_a_target_no_positive_weights_reach_has_no_cell():
    """The triple's classes a1, a2 and a1 + a2 with target -(a1 + a2): the
    polytope is bounded, but every solution has a negative weight, so no
    basic cycle carries the target."""
    triple = shared_class_triple()
    m = LabeledMulticurve(triple.graph, triple.classes, -1 * (A1 + A2))
    with pytest.raises(UsageError, match="no basic cycle carries the target class"):
        CellInstance(m)


def unbounded_labeling():
    """Graph and classes with the recession ray a + b = 0."""
    graph = DecompGraph(
        [("P", 1), ("Q", 0), ("R", 0)],
        [("a", "P", "Q"), ("b", "P", "R"), ("c", "R", "Q"), ("d", "Q", "R")],
    )
    return graph, {"a": A1, "b": -1 * A1, "c": A2, "d": A1 + A2}


def test_unbounded_polytope_is_malformed():
    """Every curve lies on a vertex, yet a + b = 0 is a recession ray."""
    m = LabeledMulticurve(*unbounded_labeling(), A1 + 2 * A2)
    found, bounded = two_scan(*scan_inputs_of(m), m.x.coords)
    assert sorted(found) == [(("a", "c"), [1, 2]), (("b", "d"), [1, 2]), (("c", "d"), [1, 1])]
    assert not bounded
    with pytest.raises(UsageError, match="the weight polytope is unbounded"):
        CellInstance(m)


COPRIME_PAIRS = [(m, n) for m in range(1, 6) for n in range(1, 6) if gcd(m, n) == 1]


def scan_inputs_of(m):
    """Class rows by curve id and the edge order of a multicurve."""
    return {e: m.class_of(e).coords for e in m.edge_ids()}, list(m.edge_ids())


def normalized(scan):
    found, bounded = scan
    return sorted((tuple(s), tuple(w)) for s, w in found), bounded


def assert_scan_matches_oracle(rows, order, target):
    """The merged scan against the two-route oracle: the same verdict, and
    the same vertices when bounded (an unbounded scan stops early)."""
    found, bounded = normalized(scan_subsets(rows, order, target))
    want, want_bounded = normalized(two_scan(rows, order, target))
    assert bounded == want_bounded
    if bounded:
        assert found == want
    else:
        assert set(found) <= set(want)


@st.composite
def scan_inputs(draw):
    """Integer columns with zero columns, dependent columns and planted
    sign-definite relations, and a target that is often a positive
    combination of them."""
    width = draw(st.integers(1, 6))
    entry = st.integers(-3, 3)
    columns = []
    for _ in range(draw(st.integers(1, 7))):
        kind = draw(st.sampled_from(["random", "random", "zero", "dependent", "planted"]))
        if kind == "zero":
            col = [0] * width
        elif kind == "random" or len(columns) < 2:
            col = draw(st.lists(entry, min_size=width, max_size=width))
        else:
            picks = draw(st.lists(st.sampled_from(columns), min_size=2, max_size=3))
            if kind == "planted":
                coeffs = [-draw(st.integers(1, 3)) for _ in picks]
            else:
                coeffs = draw(st.lists(entry, min_size=len(picks), max_size=len(picks)))
            col = [sum(k * c[i] for k, c in zip(coeffs, picks)) for i in range(width)]
        columns.append(col)
    if draw(st.booleans()):
        weights = draw(st.lists(st.integers(0, 3), min_size=len(columns), max_size=len(columns)))
        target = [sum(w * c[i] for w, c in zip(weights, columns)) for i in range(width)]
    else:
        target = draw(st.lists(entry, min_size=width, max_size=width))
    order = [f"c{i}" for i in range(len(columns))]
    return dict(zip(order, columns)), order, target


@settings(max_examples=300, deadline=None)
@given(scan_inputs())
def test_merged_scan_matches_two_scan_oracle(case):
    rows, order, target = case
    assert_scan_matches_oracle(rows, order, target)
    assert_scan_matches_oracle(rows, order, [0] * len(target))


def test_merged_scan_matches_oracle_on_census_witnesses():
    for p in range(4):
        for entry in classify_types(3, p):
            m = entry.witness
            for target in (m.x.coords, (0,) * 6):
                assert_scan_matches_oracle(*scan_inputs_of(m), target)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(COPRIME_PAIRS), st.integers(1, 2), st.data())
def test_merged_scan_matches_oracle_on_ladder_cells(mn, K, data):
    ladder = build_ladder(*mn, K)
    tags = ladder.edges() + ladder.two_cells()
    picked = data.draw(st.lists(st.sampled_from(tags), min_size=1, max_size=6, unique=True))
    cells = [ladder.vertex_cells[v] for v in ladder.vertices()[:2]]
    for tag in picked:
        plain = ladder.edge_cells.get(tag) or ladder.cell_cells[tag]
        cells += [plain, lift_by_mirror(ladder, tag)]
    for cell in cells:
        assert_scan_matches_oracle(*scan_inputs_of(cell.multicurve), cell.multicurve.x.coords)


def assert_pattern_route_matches(columns, order, target, oracle):
    """``cycles._scan_by_pattern`` against an oracle with the interface of
    ``oracles.scan_subsets``: the same verdict, and the same vertices
    when bounded."""
    found, bounded = cycles._scan_by_pattern([columns[e] for e in order], target)
    want, want_bounded = normalized(oracle(columns, order, target))
    assert bounded == want_bounded
    if bounded:
        assert sorted((tuple(order[j] for j in cols), tuple(w)) for cols, w in found) == want
    else:
        assert found == []


@settings(max_examples=300, deadline=None)
@given(scan_inputs())
def test_pattern_route_matches_two_scan_oracle(case):
    rows, order, target = case
    assert_pattern_route_matches(rows, order, target, two_scan)
    assert_pattern_route_matches(rows, order, [0] * len(target), two_scan)


@pytest.mark.parametrize(
    "columns, target, bounded, found",
    [
        ([(2,)], (1,), True, []),  # y = 1/2 is not integral
        ([(2, 0), (0, 1)], (3, 1), True, []),  # the same, one row down
        ([(2, 0), (0, 1)], (4, 1), True, [((0, 1), [2, 1])]),
        ([(1, 0), (2, 0)], (0, 1), True, []),  # x outside the span
        ([(1, 0), (-1, 0)], (0, 1), False, []),  # unbounded before the span
        ([(0, 0)], (1, 0), False, []),  # a zero class is a recession ray
        ([], (1,), True, []),
    ],
)
def test_pattern_route_examples(columns, target, bounded, found):
    assert cycles._scan_by_pattern(columns, target) == (found, bounded)
    order = list(range(len(columns)))
    assert_pattern_route_matches(dict(enumerate(columns)), order, target, scan_subsets)


def test_pattern_cache_separates_forms_with_equal_pivots():
    """Three curves of rank 2 with pivots in the first two columns, once
    bounded and once with c1 + c2 + c3 = 0: a cache keyed on anything
    coarser than the reduced form would hand one the other's scan."""
    target = (1, 2)
    for third in [(1, 1), (-1, -1), (1, 2), (1, -1), (2, 1)]:
        columns = {"c1": (1, 0), "c2": (0, 1), "c3": third}
        assert_pattern_route_matches(columns, ["c1", "c2", "c3"], target, scan_subsets)
        assert_pattern_route_matches(columns, ["c3", "c1", "c2"], target, scan_subsets)


def test_unbounded_polytope_raises_before_the_span_test():
    """The recession ray a + b = 0 is found even when x lies outside the
    span of the classes, so no basic cycle exists."""
    m = LabeledMulticurve(*unbounded_labeling(), A3)
    with pytest.raises(UsageError, match="the weight polytope is unbounded"):
        CellInstance(m)


def mirror_cells(ladder):
    """(tag, cell) of every plain mirror cell: B, c- and e-."""
    return [
        (tag, cells[tag])
        for cells in (ladder.vertex_cells, ladder.edge_cells)
        for tag in cells
        if tag[0] in ("B", "c-", "e-")
    ]


def assert_same_cell(cell, checked):
    """The same multicurve, vertex list (in order, with weights in edge
    order) and dimension, every vertex a basic cycle of the cell."""
    assert multicurve_key(cell.multicurve) == multicurve_key(checked.multicurve)
    assert [list(v.items()) for v in cell.verts] == [list(v.items()) for v in checked.verts]
    for v in cell.verts:
        assert basic_cycle_problem(cell.multicurve, v, cell.multicurve.x) is None
    assert cell.dim == checked.dim


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(COPRIME_PAIRS), st.integers(1, 6))
def test_mirror_cells_match_the_checked_build(mn, K):
    """Each mirror cell, plain and appended, against the checked build of
    the - side: ``oracles.ladder_cell_by_scan``, the checked constructors
    on the curves written out, and ``append_loop`` of it."""
    ladder = build_ladder(*mn, K)
    mirrored = mirror_cells(ladder)
    partner = {"A": "B", "c+": "c-", "e+": "e-"}
    tags = [*ladder.vertex_cells, *ladder.edge_cells]
    assert {tag for tag, _ in mirrored} == {(partner[kind], k) for kind, k in tags if kind in partner}
    for tag, cell in mirrored:
        checked = ladder_cell_by_scan(ladder, tag)
        assert_same_cell(cell, checked)
        if tag[0] != "B":
            assert_same_cell(lift_by_mirror(ladder, tag), append_loop(checked))


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(COPRIME_PAIRS), st.integers(1, 6))
def test_ladder_cells_pass_the_checked_constructors(mn, K):
    """``_template`` builds its graphs and multicurves trusted: every
    vertex, edge, two-cell and external-witness template of a ladder is
    built once, is one cell's own multicurve, and passes ``DecompGraph``
    and ``LabeledMulticurve`` unchanged."""
    built, make = [], cycles._template

    def recording(pieces, edges, classes, x):
        multicurve = make(pieces, edges, classes, x)
        built.append(multicurve)
        return multicurve

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cycles, "_template", recording)
        ladder = build_ladder(*mn, K)
    tables = (ladder.vertex_cells, ladder.edge_cells, ladder.cell_cells)
    cells = [cell.multicurve for table in tables for cell in table.values()]
    witnesses = [m for m in built if {"u'", "w'"} & set(m.classes)]
    assert len(witnesses) == 2
    assert len(built) == len(cells) + 2
    assert {id(m) for m in cells + witnesses} == {id(m) for m in built}
    for m in cells + witnesses:
        graph = DecompGraph(m.graph.vertices, m.graph.edges)
        assert graph_key(graph) == graph_key(m.graph)
        checked = LabeledMulticurve(graph, m.classes, m.x)
        assert multicurve_key(checked) == multicurve_key(m)


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(st.integers(1, 9), st.integers(1, 9)).filter(lambda mn: gcd(*mn) == 1),
    st.integers(1, 8),
)
def test_face_read_cells_match_the_scan_oracle(mn, K):
    """Every vertex and edge cell, read off the faces of the two-cells,
    against ``oracles.ladder_cell_by_scan``, the scan of its curves: the
    same multicurve, vertex list (in order, with weights in curve order)
    and dimension, every vertex a basic cycle of the cell.  Every edge
    and every endpoint has a cell."""
    ladder = build_ladder(*mn, K)
    assert set(ladder.edge_cells) == set(ladder.edge_endpoints)
    ends = {v for pair in ladder.edge_endpoints.values() for v in pair}
    assert set(ladder.vertex_cells) == ends
    for table in (ladder.vertex_cells, ladder.edge_cells):
        for tag, cell in table.items():
            assert_same_cell(cell, ladder_cell_by_scan(ladder, tag))


def scanned_two_cells(ladder):
    """The two-cells that ``build_ladder`` scans: those of the sheets
    k >= k0 - 1, k0 = min(0, t - 1), the closing triangle among them."""
    k0 = min(0, ladder.t - 1)
    return [tag for tag in ladder.cell_cells if tag[1] >= k0 - 1]


def test_build_ladder_scans_only_the_two_cells(monkeypatch):
    """``CellInstance.__init__``, the scan, runs once per two-cell of the
    scanned sheets and once per external witness: no edge or vertex cell
    is scanned, and no cell of a sheet below them.  The count does not
    grow with K."""
    init, scanned = CellInstance.__init__, []

    def counting(cell, multicurve):
        scanned.append(multicurve)
        init(cell, multicurve)

    monkeypatch.setattr(CellInstance, "__init__", counting)
    counts = {}
    for mn, K in [((1, 1), 1), ((1, 2), 3), ((2, 5), 32), ((3, 4), 7), ((2, 5), 64), ((1, 2), 32),
                  ((1, 2), 64)]:
        scanned.clear()
        ladder = build_ladder(*mn, K)
        tags = scanned_two_cells(ladder)
        assert len(scanned) == len(tags) + 2
        assert {id(ladder.cell_cells[tag].multicurve) for tag in tags} <= {id(m) for m in scanned}
        counts[mn, K] = len(scanned)
    assert counts[(2, 5), 32] == counts[(2, 5), 64] == 8 + 2
    assert counts[(1, 2), 32] == counts[(1, 2), 64] == 6 + 2


def ladder_tables(ladder):
    """Every table of a ladder, each cell by its multicurve, vertex list
    (in order, with weights in curve order) and dimension."""
    cells = {
        name: {
            tag: (multicurve_key(c.multicurve), [list(v.items()) for v in c.verts], c.dim)
            for tag, c in getattr(ladder, name).items()
        }
        for name in ("vertex_cells", "edge_cells", "cell_cells")
    }
    return cells, ladder.edge_endpoints, ladder.cell_boundary, ladder.cell_psi, ladder.closing


BENCH_PAIRS = ((1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (1, 5), (2, 5), (3, 5), (4, 5))


def test_generic_sheet_build_matches_the_build_by_sheets():
    """Every table of ``build_ladder``, whose sheets below the two generic
    ones are instantiated, against ``oracles.ladder_by_sheets``, which
    scans every sheet: for coprime (m, n) <= 5 at K = 1 to 8, 16 and 64,
    and for the nine perfbench pairs at K = 32."""
    cases = [(mn, K) for mn in COPRIME_PAIRS for K in [*range(1, 9), 16, 64]]
    for (m, n), K in cases + [(mn, 32) for mn in BENCH_PAIRS]:
        assert ladder_tables(build_ladder(m, n, K)) == ladder_tables(ladder_by_sheets(m, n, K)), (
            m, n, K
        )


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(COPRIME_PAIRS), st.integers(1, 4))
def test_abstract_boundary_is_the_geometric_one(mn, K):
    """``cell_boundary``, which the d22 page reads, against the face signs
    of ``oracles.face_geometry``: on each two-cell, plain and appended,
    the faces are the boundary edges (each support the edge's curves,
    with ``beta`` on the appended sheet), and each sign is +1 or -1.
    Each sign, times +1 when the face vertex that sorts last in the
    cell's coordinates is the edge's head (the face frame runs from the
    first sorted vertex to the last), times the edge's boundary
    coefficient, is one value per cell, +1 or -1, the same on both
    sheets."""
    ladder = build_ladder(*mn, K)
    for tag in ladder.two_cells():
        boundary = ladder.cell_boundary[tag]
        orientation = set()
        for lift in ({}, {"beta": 1}):
            cell = ladder.appended_cell(tag) if lift else ladder.cell_cells[tag]
            order = cell.multicurve.edge_ids()
            edge_on = {
                frozenset(ladder.edge_cells[edge].multicurve.edge_ids()) | set(lift): edge
                for edge in boundary
            }
            geometry = face_geometry(cell)
            assert len(geometry) == len(boundary)
            assert {edge_on[support] for _, support, _ in geometry} == set(boundary)
            for sign, support, vecs in geometry:
                assert sign in (1, -1)
                edge = edge_on[support]
                tail, head = (
                    tuple({**ladder.vertex_cells[v].verts[0], **lift}.get(e, 0) for e in order)
                    for v in ladder.edge_endpoints[edge]
                )
                last = max(vecs)
                assert last in (tail, head)
                along = 1 if last == head else -1
                orientation.add(sign * along * boundary[edge])
        assert len(orientation) == 1, tag
        assert orientation <= {1, -1}, tag


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(COPRIME_PAIRS), st.integers(1, 6))
def test_pattern_route_matches_scan_subsets_on_ladder_cells(mn, K):
    """Every cell a ladder builds (vertex, edge, two-cell, mirror,
    appended and external-witness cells) against the per-cell scan, and
    every vertex through ``oracles.basic_cycle_problem``.  Only the
    two-cells of the scanned sheets and the witnesses scan; the vertex
    and edge cells are read off the two-cells' faces, the sheets below
    instantiated, and the appended cells lifted from the two-cells."""
    calls = []
    original = cycles.enumerate_basic_cycles

    def recording(m, x):
        verts = original(m, x)
        calls.append((m, x, verts))
        return verts

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cycles, "enumerate_basic_cycles", recording)
        ladder = build_ladder(*mn, K)
        appended = [lift_by_mirror(ladder, tag) for tag in ladder.edges() + ladder.two_cells()]
    scanned = scanned_two_cells(ladder)
    read = [*ladder.vertex_cells.values(), *ladder.edge_cells.values()]
    read += [cell for tag, cell in ladder.cell_cells.items() if tag not in scanned]
    assert len(calls) == len(scanned) + 2  # and the two external witnesses
    assert len(appended) == len(ladder.edge_cells) + len(ladder.cell_cells)
    calls += [(c.multicurve, c.multicurve.x, c.verts) for c in read + appended]
    for m, x, verts in calls:
        rows, order = scan_inputs_of(m)
        found, bounded = normalized(scan_subsets(rows, order, x.coords))
        assert bounded
        assert sorted((tuple(v), tuple(v.values())) for v in verts) == found
        for v in verts:
            assert basic_cycle_problem(m, v, x) is None


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(COPRIME_PAIRS), st.integers(1, 6))
def test_appended_sheet_matches_the_scan_oracle(mn, K):
    """Each lifted appended cell against a full scan of the appended
    multicurve: the same multicurve, vertex list (in order) and
    dimension, every vertex a basic cycle of the lifted cell; each
    appended two-cell's faces, the appended cells of its boundary edges
    with the plain signs (``faces_on``), against a fresh
    ``oracles.face_geometry`` of the scanned cell: the same signs and
    supports, and each face's vertex vectors those of the appended edge
    cell."""
    ladder = build_ladder(*mn, K)
    oracles = {}
    for tag in ladder.edges() + ladder.two_cells():
        lifted = lift_by_mirror(ladder, tag)
        oracle = oracles[tag] = append_loop_by_scan(
            ladder.edge_cells.get(tag) or ladder.cell_cells[tag]
        )
        assert multicurve_key(lifted.multicurve) == multicurve_key(oracle.multicurve)
        assert lifted.verts == oracle.verts
        assert lifted.dim == oracle.dim
        for v in lifted.verts:
            assert basic_cycle_problem(lifted.multicurve, v, lifted.multicurve.x) is None
    for tag in ladder.two_cells():
        geometry = face_geometry(oracles[tag])
        order = oracles[tag].multicurve.edge_ids()
        faces = faces_on(ladder, tag, "appended")
        assert len(faces) == len(geometry)
        read = {
            (sign, frozenset(face.multicurve.edge_ids())): sorted(
                tuple(v.get(e, 0) for e in order) for v in face.verts
            )
            for sign, face in faces
        }
        assert read == {(sign, support): sorted(vecs) for sign, support, vecs in geometry}


def test_append_loop_rejects_a_loop_class_in_the_span():
    """With a3 already in the span of the classes the loop weight is not
    forced to 1 (here x + a3 = 2 a3 is carried by e or beta alone, at
    weight 2), so the lifting lemma fails; the rank test of the plain
    classes plus a3 must refuse the lift, as the checked constructor of
    the appended multicurve does."""
    plain = CellInstance(single_loop(A3))
    assert plain.verts == [{"e": 1}]
    with pytest.raises(UsageError, match="classes span rank 1, expected 2"):
        append_loop(plain)
    with pytest.raises(UsageError, match="classes span rank 1, expected 2"):
        append_loop_by_scan(plain)


def test_append_loop_refuses_a_taken_loop_id():
    """A plain cell with a curve ``beta`` already: the lift refuses it as
    the checked graph constructor does."""
    graph = DecompGraph([(0, 2)], [("beta", 0, 0)])
    plain = CellInstance(LabeledMulticurve(graph, {"beta": A1}, A1))
    with pytest.raises(UsageError, match="duplicate edge ids"):
        append_loop(plain)
    with pytest.raises(UsageError, match="duplicate edge ids"):
        append_loop_by_scan(plain)


FROZEN_CHAIN_VERTS = [
    {"A1": 1, "A2": 2, "B2": 2},
    {"A1": 3, "B1": 2, "g1": 4},
    {"A1": 3, "B1": 2, "g2": 4},
    {"A1": 3, "B2": 2, "g1": 2},
    {"A1": 3, "B2": 2, "g2": 2},
    {"A2": 3, "B1": 1, "B2": 1},
    {"A2": 3, "B1": 2, "g1": 1},
    {"A2": 3, "B1": 2, "g2": 1},
]


def test_three_double_chain_vertices_frozen():
    cell = CellInstance(three_double_chain())
    got = sorted(
        (dict(sorted(v.items())) for v in cell.verts),
        key=lambda d: sorted(d.items()),
    )
    want = sorted(FROZEN_CHAIN_VERTS, key=lambda d: sorted(d.items()))
    assert got == want
    assert psi_max(cell) == 9


def test_psi_of_ladder_corner_is_m_plus_n():
    for m, n in [(1, 1), (2, 1), (1, 2), (3, 2)]:
        corner = build_ladder(m, n, 1).vertex_cells[("A", 0)]
        assert corner.verts == [{"u0": m, "delta1": n}]
        assert psi_max(corner) == m + n
    assert psi_max(build_ladder(2, 1, 1).vertex_cells[("A", 0)]) == 3


def test_psi_max_examples():
    ladder = build_ladder(1, 1, 1)
    assert psi_max(ladder.cell_cells[("R", -1)]) == 3
    point = ladder.vertex_cells[("A", 0)]
    assert psi_max(point) == psi(point.verts[0]) == 2

    u, w, y = A1, A2 - A1, A2
    tri_graph = DecompGraph(
        [(0, 0), (1, 0), (2, 1)],
        [("u", 0, 1), ("delta", 1, 0), ("w", 0, 2), ("w'", 2, 1)],
    )
    tri = CellInstance(
        LabeledMulticurve(
            tri_graph, {"u": u, "delta": y, "w": w, "w'": w}, A1 + A2
        )
    )
    assert len(tri.verts) == 3
    assert psi_max(tri) == 3


def test_psi_max_needs_a_cell():
    with pytest.raises(UsageError, match="cell carries no basic cycles"):
        psi_max(object())


def test_segment_faces_have_opposite_signs():
    cell = CellInstance(shared_class_triple())
    faces = boundary_faces(cell)
    assert sorted(sign for sign, _ in faces) == [-1, 1]
    supports = {support_key(f) for _, f in faces}
    assert supports == {("e3",), ("e1", "e2")}


def test_rung_faces_have_opposite_signs():
    ladder = build_ladder(1, 1, 1)
    faces = boundary_faces(ladder.edge_cells[("d", 0)])
    assert sorted(sign for sign, _ in faces) == [-1, 1]


def test_rectangle_faces_alternate():
    ladder = build_ladder(1, 1, 2)
    rect = ladder.cell_cells[("R", -1)]
    faces = boundary_faces(rect)
    assert len(faces) == 4
    assert sorted(sign for sign, _ in faces) == [-1, -1, 1, 1]
    by_support = {support_key(f): sign for sign, f in faces}
    # the two rungs carry opposite signs, as do the two sheet edges
    assert (
        by_support[("delta1", "delta2", "u-1")]
        == -by_support[("delta1", "delta2", "u0")]
    )
    assert (
        by_support[("delta1", "u-1", "u0")]
        == -by_support[("delta2", "u-1", "u0")]
    )


def test_gamma_faces_of_chain_have_opposite_signs():
    cell = CellInstance(three_double_chain())
    faces = boundary_faces(cell)
    assert len(faces) == 6
    by_support = {support_key(f): sign for sign, f in faces}
    no_g1 = ("A1", "A2", "B1", "B2", "g2")
    no_g2 = ("A1", "A2", "B1", "B2", "g1")
    assert by_support[no_g1] == -by_support[no_g2]
    profiles = {
        support_key(f): f.multicurve.graph.multiedge_profile() for _, f in faces
    }
    assert profiles[no_g1] == (2, 2)
    assert profiles[no_g2] == (2, 2)
    others = [k for k in profiles if k not in (no_g1, no_g2)]
    assert all(profiles[k] == (2,) for k in others)


def chain_boundary_squared(cell):
    acc = {}
    for sign, face in boundary_faces(cell):
        for sign2, sub in boundary_faces(face):
            key = support_key(sub)
            acc[key] = acc.get(key, 0) + sign * sign2
    return {k: v for k, v in acc.items() if v}


def test_boundary_squares_to_zero():
    assert chain_boundary_squared(CellInstance(three_double_chain())) == {}
    ladder = build_ladder(1, 1, 2)
    for tag in ladder.two_cells():
        assert chain_boundary_squared(ladder.cell_cells[tag]) == {}
    ladder = build_ladder(2, 3, 1)
    for tag in ladder.two_cells():
        assert chain_boundary_squared(ladder.cell_cells[tag]) == {}


def vertex_set(cell):
    return {frozenset(v.items()) for v in cell.verts}


def faces_on(ladder, tag, sheet):
    """(sign, face cell) of each face of the two-cell ``tag`` on a sheet:
    the edge cells of its ``cell_boundary``, or their lifts by
    ``oracles.lift_by_mirror``, each with the sign of the plain face on
    its curves in ``oracles.face_geometry`` of the plain two-cell."""
    signs = {support: sign for sign, support, _ in face_geometry(ladder.cell_cells[tag])}
    return [
        (
            signs[frozenset(ladder.edge_cells[edge].multicurve.edge_ids())],
            ladder.edge_cells[edge] if sheet == "plain" else lift_by_mirror(ladder, edge),
        )
        for edge in ladder.cell_boundary[tag]
    ]


def assert_same_faces(kept, fresh):
    """Kept faces are the ladder's own edge cells, fresh ones are built
    from the two-cell: sign, curve ids, classes, x and vertex set agree
    exactly, the graphs up to piece ids and curve directions."""
    assert len(kept) == len(fresh)
    kept = sorted(kept, key=lambda sf: support_key(sf[1]))
    for (sign, face), (fresh_sign, fresh_face) in zip(kept, fresh):
        assert sign == fresh_sign
        a, b = face.multicurve, fresh_face.multicurve
        assert a.classes == b.classes and a.x == b.x
        assert vertex_set(face) == vertex_set(fresh_face)
        # a relabeling of pieces that fixes every curve id, each curve
        # reversed or not
        genus_a, genus_b = dict(a.graph.vertices), dict(b.graph.vertices)
        assert any(
            all(genus_a[v] == genus_b[relabel[v]] for v in genus_a)
            and all(
                sorted((relabel[t], relabel[h]), key=str)
                == sorted(b.graph.endpoints(e), key=str)
                for e, t, h in a.graph.edges
            )
            for relabel in (
                dict(zip(genus_a, perm)) for perm in permutations(genus_b)
            )
        )


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(COPRIME_PAIRS), st.integers(1, 3))
def test_ladder_boundary_squares_to_zero_and_euler_is_one(mn, K):
    ladder = build_ladder(*mn, K)
    for tag in ladder.two_cells():
        cell = ladder.cell_cells[tag]
        assert chain_boundary_squared(cell) == {}
        # the faces and appended cells the ladder keeps match fresh ones
        assert_same_faces(faces_on(ladder, tag, "plain"), boundary_faces(cell))
        appended, oracle = ladder.appended_cell(tag), append_loop_by_scan(cell)
        assert multicurve_key(appended.multicurve) == multicurve_key(oracle.multicurve)
        assert_same_faces(faces_on(ladder, tag, "appended"), boundary_faces(appended))
    v, e, c = len(ladder.vertices()), len(ladder.edges()), len(ladder.two_cells())
    assert v - e + c == 1


def fraction_boundary_faces(c):
    """``boundary_faces`` as it was computed with rationals: face
    coordinates solved in the cell frame, denominators cleared row by
    row, ranks read off sympy's Smith form.  Kept as the reference."""

    def rank(rows):
        return len(smith_factors(rows, len(rows[0]))) if rows else 0

    def affine_frame(vectors):
        ordered = sorted(vectors)
        frame = []
        for vec in ordered[1:]:
            candidate = frame + [[a - b for a, b in zip(vec, ordered[0])]]
            if rank(candidate) > len(frame):
                frame = candidate
        return frame

    def coordinates(frame, vector):
        matrix = [[row[i] for row in frame] for i in range(len(vector))]
        sol = solve_rational(matrix, list(vector))
        assert sol is not None
        return sol

    m = c.multicurve
    order = m.edge_ids()
    vectors = c.vectors()
    dim = c.dim
    if dim == 0:
        return []
    cell_frame = affine_frame(vectors)
    assert len(cell_frame) == dim
    cell_bary = [Fraction(sum(col), len(vectors)) for col in zip(*vectors)]
    faces = []
    seen = set()
    for i, e in enumerate(order):
        face_vecs = [vec for vec in vectors if vec[i] == 0]
        if not face_vecs:
            continue
        support = set()
        for vec in face_vecs:
            support |= {order[j] for j, k in enumerate(vec) if k}
        key = frozenset(support)
        if key in seen:
            continue
        face_frame = affine_frame(face_vecs)
        if len(face_frame) != dim - 1:
            continue
        seen.add(key)
        face_bary = [Fraction(sum(col), len(face_vecs)) for col in zip(*face_vecs)]
        normal = [a - b for a, b in zip(face_bary, cell_bary)]
        columns = [coordinates(cell_frame, normal)] + [
            coordinates(cell_frame, row) for row in face_frame
        ]
        rows = []
        for i in range(dim):
            row = [columns[j][i] for j in range(dim)]
            scale = lcm(*(v.denominator for v in row))
            rows.append([int(v * scale) for v in row])
        det = bareiss_determinant(rows)
        assert det != 0
        sub = remove_edges(m, set(order) - support)
        faces.append((1 if det > 0 else -1, CellInstance(sub)))
    faces.sort(key=lambda sf: support_key(sf[1]))
    return faces


def assert_faces_match_fraction_oracle(cell):
    """Faces and signs agree with the rational reference, one level down too."""
    faces = boundary_faces(cell)
    assert faces_key(faces) == faces_key(fraction_boundary_faces(cell))
    for _, face in faces:
        assert faces_key(boundary_faces(face)) == faces_key(fraction_boundary_faces(face))


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(COPRIME_PAIRS), st.integers(1, 3))
def test_face_signs_match_fraction_oracle_on_ladders(mn, K):
    ladder = build_ladder(*mn, K)
    for tag in ladder.two_cells():
        assert_faces_match_fraction_oracle(ladder.cell_cells[tag])
        assert_faces_match_fraction_oracle(ladder.appended_cell(tag))


def test_face_signs_match_fraction_oracle_on_census_cells():
    cells = [CellInstance(three_double_chain()), CellInstance(shared_class_triple())]
    cells += [CellInstance(e.witness) for p in range(4) for e in classify_types(3, p)]
    negative = 0
    for cell in cells:
        assert_faces_match_fraction_oracle(cell)
        negative += sum(1 for sign, _ in boundary_faces(cell) if sign < 0)
    assert negative > 0


def assert_face_rows_span_the_cell(cell):
    """On each face of ``face_geometry``: [normal] + face_frame lies in
    the span of the cell frame, has its rank dim, and has a nonzero minor
    on the cell frame's pivot coordinates; sympy decides all three."""
    vectors, dim = cell.vectors(), cell.dim
    cell_frame = affine_frame_by_ranks(vectors)
    coords = echelon(cell_frame, len(vectors[0]))[1]
    cell_sum = [sum(col) for col in zip(*vectors)]
    for _, _, face_vecs in face_geometry(cell):
        face_sum = [sum(col) for col in zip(*face_vecs)]
        normal = [len(vectors) * a - len(face_vecs) * b for a, b in zip(face_sum, cell_sum)]
        rows = [normal] + affine_frame_by_ranks(face_vecs)
        assert len(rows) == dim
        assert sympy.Matrix(cell_frame + rows).rank() == sympy.Matrix(rows).rank() == dim
        assert sympy.Matrix([[row[j] for j in coords] for row in rows]).det() != 0


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(COPRIME_PAIRS), st.integers(1, 4))
def test_face_rows_span_the_cell_and_have_a_nonzero_minor(mn, K):
    """``oracles.face_geometry`` runs no rank or minor check: its docstring proves
    both, and this test asserts them on the census cells and on the plain
    and appended two-cells of random ladders."""
    cells = [CellInstance(e.witness) for p in range(4) for e in classify_types(3, p)]
    cells += [CellInstance(three_double_chain()), CellInstance(shared_class_triple())]
    ladder = build_ladder(*mn, K)
    for tag in ladder.two_cells():
        cells += [ladder.cell_cells[tag], ladder.appended_cell(tag)]
    assert any(face_geometry(cell) for cell in cells)
    for cell in cells:
        assert_face_rows_span_the_cell(cell)


def test_remove_edges_merges_and_adds_genus():
    m = three_double_chain()
    sub = remove_edges(m, {"A1"})
    g = sub.graph
    assert len(g.vertices) == 3
    assert g.genus_multiset() == (0, 0, 0)
    assert g.multiedge_profile() == (2,)
    # a second removal inside the merged piece raises its genus
    sub2 = remove_edges(sub, {"A2"})
    assert sub2.graph.genus_multiset() == (0, 0, 1)
    # stepwise and simultaneous removal agree exactly
    assert multicurve_key(remove_edges(m, {"A1", "A2"})) == multicurve_key(sub2)
    loopless = remove_edges(single_loop(), set())
    assert multicurve_key(loopless) == multicurve_key(single_loop())
    with pytest.raises(UsageError, match="cannot drop unknown curves"):
        remove_edges(m, {"missing"})


def test_ladder_small_square_counts():
    ladder = build_ladder(1, 1, 3)
    assert len(ladder.vertices()) == 13
    assert len(ladder.edges()) == 20
    assert len(ladder.two_cells()) == 8
    cofaces = ladder._coface_index()
    assert sorted(cofaces[("d", 0)], key=str) == [("R", -1), ("V", 0), ("tri", 0)]
    assert ladder.closing == ("tri", 0)
    assert ladder.check_pair_endpoints()
    assert ladder.check_rung_cofaces()
    assert ladder.check_ladder_property()
    assert ladder.check_psi_growth()
    # e+(0) bounds V(0) alone; its two horizontal cofaces are the external
    # witnesses, outside the ladder
    assert cofaces[("e+", 0)] == [("V", 0)]
    assert psi_max(ladder.edge_cells[("e+", 0)]) == 3


def test_ladder_census_one_two():
    ladder = build_ladder(1, 2, 2)
    ks = list(range(-2, 2))
    assert ladder.vertices() == sorted(
        [("A", k) for k in ks]
        + [("B", k) for k in ks]
        + [("C", k) for k in ks]
        + [("T", 1)],
        key=str,
    )
    assert ladder.edges() == sorted(
        [(kind, k) for kind in ("d", "c+", "c-", "e+", "e-") for k in ks],
        key=str,
    )
    assert ladder.two_cells() == sorted(
        [("R", k) for k in range(-2, 1)]
        + [("tri", 1)]
        + [("V", k) for k in ks],
        key=str,
    )
    v, e, c = len(ladder.vertices()), len(ladder.edges()), len(ladder.two_cells())
    assert (v, e, c) == (13, 20, 8)
    assert v - e + c == 1


def test_ladder_psi_values():
    for m, n in [(1, 1), (1, 2), (2, 3)]:
        ladder = build_ladder(m, n, 2)
        top = ("R", 0) if ("R", 0) in ladder.cell_psi else ladder.closing
        assert ladder.cell_psi[top] == m + n
        assert ladder.cell_psi[("R", -1)] == 2 * m + n
        assert ladder.cell_psi[("V", 0)] == m + 2 * n
        assert ladder.check_psi_growth()


@settings(max_examples=25, deadline=None)
@given(
    st.tuples(st.integers(1, 9), st.integers(1, 9)).filter(lambda mn: gcd(*mn) == 1),
    st.integers(1, 12),
)
def test_ladder_weights_read_off_the_cells_match_the_closed_forms(mn, K):
    """The closed forms of the paper's weight function are the oracle
    for the weights the ladder reads off its cells."""
    (m, n), ladder = mn, build_ladder(*mn, K)
    for (kind, k), value in ladder.cell_psi.items():
        assert value == (m + 2 * (n - m * k) if kind == "V" else m + n - m * k)
    assert set(ladder.cell_psi) == set(ladder.cell_boundary)
    for (kind, k), cell in ladder.vertex_cells.items():
        (weighting,) = cell.verts
        want = {"A": m + n - m * k, "B": m + n - m * k, "C": m + 2 * (n - m * k), "T": m}
        assert psi(weighting) == want[kind]
    assert ladder.check_psi_growth()


def test_psi_growth_fails_on_planted_weights():
    ladder = build_ladder(1, 2, 3)
    for low, high in ((("R", -1), ("R", -2)), (("R", -1), ("V", -1))):
        kept = ladder.cell_psi[high]
        for planted in (ladder.cell_psi[low], ladder.cell_psi[low] - 1):
            ladder.cell_psi[high] = planted
            assert not ladder.check_psi_growth(), (high, planted)
        ladder.cell_psi[high] = kept
    assert ladder.check_psi_growth()


def witnesses_of(monkeypatch, tamper):
    """``build_ladder(1, 2, 2)`` with each external witness cell (the two
    cells on a doubled curve) passed through ``tamper``: the ladder and
    its witnesses."""
    make, witnesses = cycles._cell, []

    def tampering(pieces, edges, classes, x):
        cell = make(pieces, edges, classes, x)
        if any(e in ("w'", "u'") for e, _, _ in edges):
            witnesses.append(cell)
            tamper(cell)
        return cell

    with monkeypatch.context() as patch:
        patch.setattr(cycles, "_cell", tampering)
        ladder = build_ladder(1, 2, 2)
    return ladder, witnesses


def test_external_witnesses_hold_the_vertical_edge(monkeypatch):
    """The vertical edge e+(0) lies on one triangular and one rectangular
    horizontal cell outside the ladder, each of weight m + 2n."""
    ladder, (tri, rect) = witnesses_of(monkeypatch, lambda cell: None)
    assert (len(tri.verts), len(rect.verts)) == (3, 4)
    assert psi_max(tri) == psi_max(rect) == 1 + 2 * 2
    for vertex in ladder.edge_cells[("e+", 0)].verts:
        assert vertex in tri.verts and vertex in rect.verts


def test_external_witnesses_catch_a_lost_vertex_or_weight(monkeypatch):
    def lose_a_vertex(cell):
        del cell.verts[-1]

    def double_the_weights(cell):
        cell.verts = [{e: 2 * w for e, w in v.items()} for v in cell.verts]

    for tamper, drift in ((lose_a_vertex, "shapes"), (double_the_weights, "weights")):
        with pytest.raises(
            InternalInconsistencyError, match=f"external witness {drift} drifted"
        ):
            witnesses_of(monkeypatch, tamper)


def test_external_witnesses_catch_a_vertical_edge_they_lost(monkeypatch):
    """Each witness with every curve id renamed keeps its vertex count and
    weights, but no longer holds the vertices of e+(0)."""

    def rename_curves(cell):
        cell.verts = [{"x" + e: w for e, w in v.items()} for v in cell.verts]

    with pytest.raises(InternalInconsistencyError, match="vertical edge left its witnesses"):
        witnesses_of(monkeypatch, rename_curves)


def test_ladder_truncated_before_closing():
    ladder = build_ladder(1, 5, 2)
    assert ladder.closing is None
    assert ladder.t == 4
    assert ("T", 4) not in ladder.vertex_cells
    assert ("A", 3) in ladder.vertex_cells
    assert ("d", 3) in ladder.edge_endpoints
    assert ("R", 2) in ladder.cell_boundary
    v, e, c = len(ladder.vertices()), len(ladder.edges()), len(ladder.two_cells())
    assert v - e + c == 1
    assert ladder.check_rung_cofaces()
    assert ladder.check_ladder_property()


def test_ladder_audits_catch_a_missing_rung():
    ladder = build_ladder(1, 2, 3)
    for tag, boundary in ladder.cell_boundary.items():
        for rung in [e for e in boundary if e[0] == "d" and e[1] > -ladder.K]:
            sign = boundary.pop(rung)
            assert not ladder.check_rung_cofaces(), (tag, rung)
            if tag[0] == "V":
                assert not ladder.check_ladder_property(), (tag, rung)
            boundary[rung] = sign
    assert ladder.check_rung_cofaces() and ladder.check_ladder_property()
    # the free edges c+(-1) and c-(-1) of R(-1) gain a second horizontal coface
    ladder.cell_boundary[("R", -2)][("c+", -1)] = 1
    ladder.cell_boundary[("R", -2)][("c-", -1)] = -1
    assert not ladder.check_ladder_property()


def test_ladder_property_reads_the_edge_kind_off_the_tag():
    """A horizontal cell whose one free edge is vertical (an e+ edge)
    has no free horizontal edge."""
    ladder = build_ladder(1, 2, 3)
    assert ladder.check_ladder_property()
    ladder.cell_boundary[("R", -1)] = {("e+", -1): 1}
    assert not ladder.check_ladder_property()


def test_ladder_refuses_a_boundary_that_does_not_close_up(monkeypatch):
    """The rung d(-1) of V(-1) with its sign flipped as the build checks
    the boundary: A(-1) and B(-1) no longer cancel, and the check names
    V(-1)."""
    check = cycles.LadderComplex._check_chain_complex

    def flipped(ladder):
        ladder.cell_boundary[("V", -1)][("d", -1)] = 1
        check(ladder)

    monkeypatch.setattr(cycles.LadderComplex, "_check_chain_complex", flipped)
    with pytest.raises(
        InternalInconsistencyError, match=r"boundary of \('V', -1\) does not close up"
    ):
        build_ladder(1, 2, 2)


def plant_in_two_cells(monkeypatch, plant):
    """``cycles._cell`` with its vertices replaced by ``plant(curve ids,
    vertices)`` on every scanned cell: the two-cells, then the external
    witnesses, which a build that a plant fails never reaches."""
    scan = cycles._cell

    def planted(pieces, edges, classes, x):
        cell = scan(pieces, edges, classes, x)
        cell.verts = plant(cell.multicurve.edge_ids(), cell.verts)
        return cell

    monkeypatch.setattr(cycles, "_cell", planted)


def test_face_matching_names_the_differing_vertex_set(monkeypatch):
    """R(-1), the first two-cell of ``build_ladder(1, 2, 1)``, has its
    vertex B_0 = {u0: 1, delta2: 2} moved to {u0: 1, delta1: 1,
    delta2: 1}, inside the rung d0: the face on d0, which d0 would be
    read off, loses B_0, and its vertex set is no longer d0's endpoint
    weightings."""
    b0, inside = {"u0": 1, "delta2": 2}, {"u0": 1, "delta1": 1, "delta2": 1}
    plant_in_two_cells(monkeypatch, lambda ids, verts: [inside if v == b0 else v for v in verts])
    with pytest.raises(
        InternalInconsistencyError,
        match=r"cell \('R', -1\) face \['delta1', 'delta2', 'u0'\]: vertex set differs",
    ):
        build_ladder(1, 2, 1)


def test_ladder_refuses_a_two_cell_of_smaller_span(monkeypatch):
    """Each scanned four-vertex two-cell of ``build_ladder(1, 2, 2)``
    keeps its vertices 0 and 3 only, opposite corners on a line: every
    curve still lies on a vertex, so the scan passes, and the span check
    of ``match_faces`` refuses the first such cell, R(-1), naming it."""
    enumerate_all = cycles.enumerate_basic_cycles

    def opposite_corners(m, x):
        verts = enumerate_all(m, x)
        return [verts[0], verts[3]] if len(m.graph.vertices) == 3 and len(verts) == 4 else verts

    monkeypatch.setattr(cycles, "enumerate_basic_cycles", opposite_corners)
    with pytest.raises(
        InternalInconsistencyError,
        match=r"cell \('R', -1\): vertex span disagrees with the dimension",
    ):
        build_ladder(1, 2, 2)


def test_face_matching_names_the_differing_class(monkeypatch):
    """The rung d0's template with delta1 of class a3: R(-1), the first
    two-cell that holds d0, refuses to read it off its face."""
    make = cycles._template

    def tamper(pieces, edges, classes, x):
        if [e for e, _, _ in edges] == ["u0", "delta1", "delta2"]:
            classes = {**classes, "delta1": A3}
        return make(pieces, edges, classes, x)

    monkeypatch.setattr(cycles, "_template", tamper)
    with pytest.raises(
        InternalInconsistencyError,
        match=r"cell \('R', -1\) face \['delta1', 'delta2', 'u0'\]: classes differ",
    ):
        build_ladder(1, 2, 1)


def test_ladder_catches_a_lost_two_cell_vertex(monkeypatch):
    """A rectangle that loses any one of its four vertices fails the
    build: the three left still span 2, and the face reading finds an
    edge with no face on its curves, or a face whose vertex set is not
    its edge's endpoint weightings."""
    enumerate_all = cycles.enumerate_basic_cycles
    for index in range(4):

        def dropping(m, x, index=index):
            verts = enumerate_all(m, x)
            if len(m.graph.vertices) == 3 and len(verts) == 4:
                del verts[index]
            return verts

        monkeypatch.setattr(cycles, "enumerate_basic_cycles", dropping)
        with pytest.raises(InternalInconsistencyError, match=r"cell \('R', -1\) face"):
            build_ladder(1, 2, 2)


def add_a_rung_point_to_v(ids, verts):
    """V(-1) gains the point {u-1: 1, delta1: 1, delta2: 2} inside its
    rung d(-1); the faces on e+ and e- keep their vertices."""
    if "w-1" not in ids:
        return verts
    return verts + [{"u-1": 1, "delta1": 1, "delta2": 2}]


def rotate_curves(ids, verts):
    """Each weight moves to the next curve in curve order: every edge is
    looked up on the vertices of other curves."""
    step = dict(zip(ids, ids[1:] + ids[:1]))
    return [{step[e]: w for e, w in v.items()} for v in verts]


def bump_a_weight_on_triangles(ids, verts):
    """On a triangle, the first weight of the first vertex one higher: a
    vertex weighting off by one.  A rectangle keeps its vertices, as a
    bumped one would leave the plane of the other three and fail the
    span check instead."""
    if len(verts) != 3:
        return verts
    first = dict(verts[0])
    first[next(iter(first))] += 1
    return [first] + verts[1:]


# the rung d(-1) on V(-1), c+(-1) on R(-1), and c+(1) on the closing
# triangle, of build_ladder(1, 2, 2), whose sheet -2 is not scanned
RUNG_ON_V = r"cell \('V', -1\) face \['delta1', 'delta2', 'u-1'\]"
C_PLUS_ON_R = r"cell \('R', -1\) face \['delta1', 'u-1', 'u0'\]"
C_PLUS_ON_TRI = r"cell \('tri', 1\) face \['delta1', 'u1', 'u2'\]"


@pytest.mark.parametrize(
    "plant, face",
    [
        (add_a_rung_point_to_v, RUNG_ON_V),
        (rotate_curves, C_PLUS_ON_R),
        (bump_a_weight_on_triangles, C_PLUS_ON_TRI),
    ],
    ids=["shared-rung", "wrong-curve", "weight-off-by-one"],
)
def test_face_reading_refuses_planted_faults(monkeypatch, plant, face):
    """A V face on its rung with one vertex too many, though R(-1) read
    the rung off its own face; every edge looked up on the weights of
    other curves; a vertex weighting off by one.  Each is planted in the
    scanned two-cells' vertices and fails the build, naming the two-cell
    and the face."""
    plant_in_two_cells(monkeypatch, plant)
    with pytest.raises(InternalInconsistencyError, match=face + ": vertex set differs"):
        build_ladder(1, 2, 2)


def test_face_matching_refuses_a_face_left_over(monkeypatch):
    """V(1) of ``build_ladder(1, 2, 1)`` gains two points off u1 in the
    plane of its vertices, D = A + (B - A) - (C - A) and E = A + 3 (B -
    A) - (C - A): the span stays 2 and each boundary edge keeps its
    face, but the two make a face on u1 that no edge claims."""

    def add_a_face(ids, verts):
        if "w1" not in ids:
            return verts
        return verts + [{"w1": -1, "delta1": 1, "delta2": 1}, {"w1": -1, "delta1": -1, "delta2": 3}]

    plant_in_two_cells(monkeypatch, add_a_face)
    with pytest.raises(
        InternalInconsistencyError,
        match=r"cell \('V', 1\) face \['delta1', 'delta2', 'w1'\]: curve ids differ",
    ):
        build_ladder(1, 2, 1)


def test_generic_sheet_refuses_a_shear_that_leaves_w_behind(monkeypatch):
    """A renaming that moves u_k but keeps w_k at w0: sheet -1 of
    ``build_ladder(1, 2, 3)`` instantiated keeps w0 where its scan has
    w-1, and the build names the first cell kind that holds a w curve,
    the vertex cell C."""
    rename = cycles._sheet_ids
    monkeypatch.setattr(cycles, "_sheet_ids", lambda k: {**rename(k), "w0": "w0"})
    with pytest.raises(
        InternalInconsistencyError, match=r"generic sheet C: sheet -1 is not its scan"
    ):
        build_ladder(1, 2, 3)


def test_generic_sheet_refuses_a_weight_positive_on_one_sheet(monkeypatch):
    """A solver planted in the R pattern of ``build_ladder(1, 2, 3)`` on
    the curve u0 alone, whose weight 3 y_0 + 2 y_1 is 1 - d on sheet
    -d: positive, exact and with no check row on sheet 0, so a
    certificate that tested the sheet k0 = 0 alone would accept it.  The
    build refuses it before any scan, naming the shape and the curve."""
    R, y0 = cycles._reduced_system([(A1 + k * A2).coords for k in (0, 1)] + [A2.coords] * 2,
                                   (A1 + 2 * A2).coords)
    y1 = cycles._reduced_system([(A1 + k * A2).coords for k in (-1, 0)] + [A2.coords] * 2,
                                (A1 + 2 * A2).coords)[1]
    w0, w1 = 3 * y0[0] + 2 * y0[1], 3 * (y1[0] - y0[0]) + 2 * (y1[1] - y0[1])
    assert (w0, w1) == (1, -1)
    pattern = cycles._pattern

    def planted(n, form):
        bounded, solvers = pattern(n, form)
        return bounded, (((0,), (0, 1), ((3, 2),), 1, ()),) + solvers if form == R else solvers

    monkeypatch.setattr(cycles, "_pattern", planted)
    with pytest.raises(
        InternalInconsistencyError,
        match=r"generic sheet R: curves \['u0'\] hold a vertex on some sheets only",
    ):
        build_ladder(1, 2, 3)


def test_generic_sheet_refuses_a_relation_pattern_that_moves(monkeypatch):
    """``build_ladder(1, 2, 3)`` with u-1 given the class of u0: the R
    cell of sheet -1 then has two equal classes, so its relation pattern
    is not sheet 0's, and the build refuses before any scan."""
    frame = cycles._ladder_frame

    def planted(m, n, K):
        ladder, classes, *rest = frame(m, n, K)
        classes["u-1"] = classes["u0"]
        return (ladder, classes, *rest)

    monkeypatch.setattr(cycles, "_ladder_frame", planted)
    with pytest.raises(
        InternalInconsistencyError, match=r"generic sheet R: the relation pattern moves"
    ):
        build_ladder(1, 2, 3)


def test_generic_sheet_refuses_a_vertex_order_that_moves(monkeypatch):
    """The certificate of ``build_ladder(1, 2, 3)`` with every slope
    negated: the delta weights then fall with depth, the two vertices of
    the first edge kind d would swap order on a deeper sheet, and the
    build refuses it before instantiating any sheet."""
    slopes = cycles._generic_slopes

    def negated(classes, x, k0):
        certified = slopes(classes, x, k0)
        return {key: {e: -s for e, s in vertex.items()} for key, vertex in certified.items()}

    monkeypatch.setattr(cycles, "_generic_slopes", negated)
    with pytest.raises(InternalInconsistencyError, match=r"generic sheet d: vertex order moves"):
        build_ladder(1, 2, 3)


def test_vertex_reading_names_the_vertex(monkeypatch):
    """A vertex template on the wrong curves: no vertex of its edge lies
    on them, and the build names the vertex cell and its weighting."""
    make = cycles._template

    def tamper(pieces, edges, classes, x):
        if [e for e, _, _ in edges] == ["u-1", "delta1"]:
            edges = [("u-1", 0, 0), ("delta2", 0, 0)]
        return make(pieces, edges, classes, x)

    monkeypatch.setattr(cycles, "_template", tamper)
    with pytest.raises(
        InternalInconsistencyError,
        match=r"vertex cell \('A', -1\): weights differ from \{'u-1': 1, 'delta1': 3\}",
    ):
        build_ladder(1, 2, 2)


def test_ladder_catches_a_lost_triangle_vertex(monkeypatch):
    """A triangular two-cell that loses any one of its three vertices
    fails the build as an internal contradiction, not a usage error:
    each vertex is the only one carrying some curve."""
    enumerate_all = cycles.enumerate_basic_cycles
    for index in range(3):

        def dropping(m, x, index=index):
            verts = enumerate_all(m, x)
            if len(m.graph.vertices) == 3 and len(verts) == 3:
                del verts[index]
            return verts

        monkeypatch.setattr(cycles, "enumerate_basic_cycles", dropping)
        with pytest.raises(
            InternalInconsistencyError, match=r"ladder cell on curves .*: curves outside"
        ):
            build_ladder(1, 2, 2)


def test_ladder_rejects_bad_parameters():
    for m, n, K in [(0, 1, 1), (1, 0, 1), (-1, 2, 1), (2, 4, 1), (1, 1, 0)]:
        with pytest.raises(ValueError):
            build_ladder(m, n, K)
    with pytest.raises(ValueError):
        build_ladder(1, 1, "deep")


def test_ladder_glued_pairs():
    ladder = build_ladder(1, 2, 2)
    for k in range(-2, 2):
        cp = ladder.edge_endpoints[("c+", k)]
        cm = ladder.edge_endpoints[("c-", k)]
        assert cp != cm
        assert tuple(map(ladder.glued_vertex, cp)) == tuple(
            map(ladder.glued_vertex, cm)
        )
