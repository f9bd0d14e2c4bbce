import random
import re
from collections import Counter
from functools import lru_cache
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    admissible_subgroups, boundary_faces, column_support, is_admissible_by_vectors,
    lift_by_mirror, pair_tag_by_vectors,
    separation_by_lifts, target_basis_03, target_basis_12, target_basis_21, transvection,
)
from torelli3 import cycles, lattice, specseq, surface
from torelli3.cycles import CellInstance, append_loop, build_ladder
from torelli3.lattice import (
    A1,
    A2,
    A3,
    B1,
    B2,
    B3,
    STANDARD_SPLITTING,
    HVector,
    Splitting,
    SymplecticSubgroup,
    UsageError,
    enumerate_splittings,
    enumerate_symplectic_rank2,
    splitting_type_wrt_x,
)
from torelli3.specseq import (
    E1Truncation,
    GeneratorTag,
    SparseIntMatrix,
    Truncation,
    build_e1,
    check_image_separation,
    check_injective,
    d13_apply,
    d13_tilde_apply,
    d22_apply,
    d31_apply,
    dim_cd_inequality,
    e2_13_kernel,
    e2_13_tilde_kernel,
    vanishing_census,
)
from torelli3.surface import DecompGraph, LabeledMulticurve, classify_types


U23 = SymplecticSubgroup.spanned_by([A2, B2])
U33 = SymplecticSubgroup.spanned_by([A3, B3])
U33_SKEW = SymplecticSubgroup.spanned_by([A3, B3 + A2])


def bounding_pair_cell():
    g = DecompGraph([(0, 1), (1, 1)], [("e1", 0, 1), ("e2", 1, 0)])
    return CellInstance(LabeledMulticurve(g, {"e1": A1, "e2": A1}, A1))


def translated_splitting(c):
    """Image of the standard splitting under the transvection along c."""
    return Splitting(
        [
            SymplecticSubgroup.spanned_by([transvection(c, v) for v in p.vectors()])
            for p in STANDARD_SPLITTING.parts
        ]
    )


def plain_13_family():
    """Two one-part splittings, one two-part, one three-part, for x = a1."""
    splittings = [
        STANDARD_SPLITTING,
        translated_splitting(A2 + A3),
        translated_splitting(B1 + A2),
        translated_splitting(B1 + A2 + A3),
    ]
    letters = [splitting_type_wrt_x(A1, s)[0] for s in splittings]
    assert letters == ["a", "a", "b", "c"]
    return splittings


def tilde_family():
    """One splitting of each type for x = a1, y = a2 + a3."""
    s1 = Splitting(
        [
            SymplecticSubgroup.spanned_by([A1, B1]),
            SymplecticSubgroup.spanned_by([A2 + A3, B3]),
            SymplecticSubgroup.spanned_by([A2, B2 - B3]),
        ]
    )
    s2 = Splitting(
        [
            SymplecticSubgroup.spanned_by([A1, B1 - B3]),
            SymplecticSubgroup.spanned_by([A1 + A2 + A3, B2]),
            SymplecticSubgroup.spanned_by([A1 + A3, B3 - B2]),
        ]
    )
    s3 = STANDARD_SPLITTING
    s4 = Splitting(
        [
            SymplecticSubgroup.spanned_by([A1, B1 - B3]),
            SymplecticSubgroup.spanned_by([A2, B2]),
            SymplecticSubgroup.spanned_by([A1 + A3, B3]),
        ]
    )
    return [s1, s2, s3, s4]


def test_tag_identity_and_ordering():
    assert GeneratorTag.bp_twist(2) == GeneratorTag.bp_twist(2)
    assert GeneratorTag.bp_twist(2) != GeneratorTag.bp_twist(-3)
    assert hash(GeneratorTag.a2(U33)) == hash(GeneratorTag.a2(U33))
    assert GeneratorTag.a2(U23) != GeneratorTag.a2(U33)


def test_pair_tag_antisymmetry():
    forward = GeneratorTag.a2_pair(U23, U33)
    backward = GeneratorTag.a2_pair(U33, U23)
    assert forward.data[:2] == backward.data[:2]
    assert forward.data[2] == -backward.data[2] in (1, -1)


ORTHOGONAL_PAIRS = st.tuples(st.integers(0, 12656), st.permutations(range(3))).map(
    lambda t: tuple(enumerate_splittings(1)[t[0]].parts[i] for i in t[1][:2])
)


@settings(max_examples=300, deadline=None)
@given(ORTHOGONAL_PAIRS)
def test_pair_tag_matches_the_vector_route(pair):
    # two parts of one splitting of bound 1, as both (1, 3) page builders
    # pass them: the checked route finds them distinct and orthogonal, and
    # gives the same tag
    assert GeneratorTag.a2_pair(*pair).key() == pair_tag_by_vectors(*pair).key()


@settings(max_examples=100, deadline=None)
@given(ORTHOGONAL_PAIRS)
def test_stored_tag_hash_matches_the_key(pair):
    # the hash is computed once per tag; equal tags built by either route,
    # in either order, or rebuilt from their data must hash alike
    u1, u2 = pair
    for a, b in ((u1, u2), (u2, u1)):
        tag = GeneratorTag.a2_pair(a, b)
        twin = pair_tag_by_vectors(a, b)
        rebuilt = GeneratorTag(tag.kind, tag.data)
        assert tag == twin == rebuilt
        assert hash(tag) == hash(twin) == hash(rebuilt) == hash(tag.key())
    for tag in (
        GeneratorTag.bp_twist(-3),
        GeneratorTag.a2(u1),
        GeneratorTag.a3(STANDARD_SPLITTING),
    ):
        assert hash(tag) == hash(tag.key())


def is_admissible(cell, u):
    """One plane against one cell, guarded as the (2, 2) page guards its
    subgroups: the plane check, then the pairing routes."""
    specseq._require_plane(u)
    return specseq._admissible(cell, u)


def test_admissible_for_bounding_pair():
    keys = {u.key() for u in admissible_subgroups(bounding_pair_cell(), 1)}
    assert U23.key() in keys
    assert U33.key() in keys
    assert SymplecticSubgroup.spanned_by([A1, B1]).key() not in keys


def test_subgroup_filter_runs_no_plane_guard(monkeypatch):
    """The census witness cells and plain and appended 2-cells of a
    ladder: the filter keeps what the guarded ``is_admissible`` keeps, and
    passes no plane through ``is_symplectic_rank2``, since every
    enumerated plane pairs to +-1 by construction."""
    ladder = build_ladder(2, 5, 4)
    tags = ladder.two_cells()[:3]
    cells = [CellInstance(e.witness) for p in range(4) for e in classify_types(3, p)]
    cells += [ladder.cell_cells[tag] for tag in tags]
    cells += [ladder.appended_cell(tag) for tag in tags]
    planes = enumerate_symplectic_rank2(1)
    guarded = [[u for u in planes if is_admissible(cell, u)] for cell in cells]
    assert any(guarded) and not all(guarded)
    guards = Counter()

    def counting(u):
        guards[u.key()] += 1
        return lattice.is_symplectic_rank2(u)

    monkeypatch.setattr(specseq, "is_symplectic_rank2", counting)
    assert [[u.key() for u in admissible_subgroups(cell, 1)] for cell in cells] == [
        [u.key() for u in kept] for kept in guarded
    ]
    assert not guards
    is_admissible(cells[0], U33)
    assert guards == {U33.key(): 1}


def test_admissible_empty_for_full_support():
    full = next(
        e
        for e in classify_types(3, 3)
        if e.fingerprint == (4, 6, (0, 0, 0, 0), ())
    )
    assert admissible_subgroups(CellInstance(full.witness), 1) == []


def test_appended_sheet_geometry():
    ladder = build_ladder(1, 1, 2)
    plain = ladder.cell_cells[("R", -1)]
    appended = append_loop(plain)
    g = appended.multicurve.graph
    assert (len(g.vertices), len(g.edges)) == (3, 5)
    assert g.genus_multiset() == (0, 0, 0)
    assert g.multiedge_profile() == (2,)
    assert appended.dim == plain.dim
    assert len(appended.verts) == len(plain.verts)
    profiles = sorted(
        (
            face.multicurve.graph.genus_multiset(),
            face.multicurve.graph.multiedge_profile(),
        )
        for _, face in boundary_faces(appended)
    )
    assert profiles == [
        ((0, 0), (2,)),
        ((0, 0), (2,)),
        ((0, 0), (3,)),
        ((0, 0), (3,)),
    ]


def test_appended_admissibility_uses_the_loop():
    ladder = build_ladder(1, 1, 2)
    plain = ladder.cell_cells[("R", -1)]
    appended = append_loop(plain)
    assert is_admissible(plain, U33)
    assert is_admissible(appended, U33)
    shifted = SymplecticSubgroup.spanned_by([A1 + A3, B3])
    assert is_admissible(plain, shifted)
    assert not is_admissible(appended, shifted)


COPRIME_PAIRS = [(m, n) for m in range(1, 6) for n in range(1, 6) if gcd(m, n) == 1]
# a seeded sample of the height-1 planes, and the subgroup the pages use
ADMISSIBILITY_PLANES = tuple(random.Random(15).sample(enumerate_symplectic_rank2(1), 30)) + (U33,)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from(COPRIME_PAIRS), st.integers(1, 6))
def test_is_admissible_matches_the_vector_oracle_on_ladder_cells(mn, K):
    """Every vertex, edge and two-cell of the ladder, plain and appended,
    against the sampled planes: the tuple route and the old route (the
    rank first, pairings on HVectors) give the same verdict, and both
    verdicts and both routes occur."""
    ladder = build_ladder(*mn, K)
    tags = ladder.edges() + ladder.two_cells()
    cells = list(ladder.vertex_cells.values())
    cells += [ladder.edge_cells.get(tag) or ladder.cell_cells[tag] for tag in tags]
    cells += [lift_by_mirror(ladder, tag) for tag in tags]
    verdicts = Counter()
    for cell in cells:
        genus = any(g >= 1 for _, g in cell.multicurve.graph.vertices)
        for u in ADMISSIBILITY_PLANES:
            got = is_admissible(cell, u)
            assert got == is_admissible_by_vectors(cell, u)
            verdicts[genus, got] += 1
    assert set(verdicts) == {(True, True), (True, False), (False, True), (False, False)}


def transvected_planes(count, seed):
    """Images of U33 under products of one to three transvections along
    seeded small vectors."""
    rng = random.Random(seed)
    planes = []
    while len(planes) < count:
        rows = [A3, B3]
        for _ in range(rng.randint(1, 3)):
            c = HVector(tuple(rng.randint(-1, 1) for _ in range(6)))
            power = rng.choice((-1, 1))
            rows = [transvection(c, v, power) for v in rows]
        planes.append(SymplecticSubgroup.spanned_by(rows))
    return planes


def sphere_with_two_loops():
    """A genus-2 cell on one genus-0 piece: every class is orthogonal to
    U33, but no piece has genus to host it and no loop class lies in it."""
    graph = DecompGraph([(0, 0)], [("e1", 0, 0), ("e2", 0, 0)])
    return CellInstance(LabeledMulticurve(graph, {"e1": A1, "e2": A2}, A1 + A2))


# not unimodular: its basis rows pair to 2
PLANE_PAIRING_TO_2 = SymplecticSubgroup.spanned_by([A1 + A2, B1 + B2])


def test_is_admissible_matches_the_vector_oracle_off_the_ladder():
    """The census witness cells, a bounding pair and a genus-0 piece
    with two loops, against the sampled planes and seeded transvection
    images of U33: the rank-free route gives the oracle's verdict, by
    both routes and on genus-0 cells too.  A plane that is not
    unimodular is refused, where the oracle would give a verdict."""
    witnesses = [CellInstance(e.witness) for p in range(4) for e in classify_types(3, p)]
    cells = witnesses + [bounding_pair_cell(), sphere_with_two_loops()]
    planes = ADMISSIBILITY_PLANES + tuple(transvected_planes(40, 22))
    verdicts = Counter()
    for cell in cells:
        genus = any(g >= 1 for _, g in cell.multicurve.graph.vertices)
        for u in planes:
            got = is_admissible(cell, u)
            assert got == is_admissible_by_vectors(cell, u)
            verdicts[genus, got] += 1
        with pytest.raises(UsageError, match="is not a symplectic plane"):
            is_admissible(cell, PLANE_PAIRING_TO_2)
    assert set(verdicts) == {(True, True), (True, False), (False, True), (False, False)}
    assert not is_admissible(sphere_with_two_loops(), U33)


@pytest.mark.parametrize(
    "u, message",
    [
        (SymplecticSubgroup([A1, A2]), "is not a symplectic plane"),
        (PLANE_PAIRING_TO_2, "is not a symplectic plane"),
        (SymplecticSubgroup([A3]), "rank-2 subgroup required, got rank 1"),
    ],
    ids=["a1a2", "a1+a2_b1+b2", "rank-1"],
)
def test_admissibility_refuses_what_is_not_a_symplectic_plane(u, message):
    """A degenerate plane, one that is not unimodular and a rank-1
    subgroup, refused by ``is_admissible`` and by the (2, 2) page,
    before any cell is tested."""
    ladder = build_ladder(1, 2, 2)
    with pytest.raises(UsageError, match=message):
        is_admissible(ladder.cell_cells[("R", 0)], u)
    with pytest.raises(UsageError, match=message):
        build_e1((2, 2), Truncation(ladder=ladder, subgroups=[U33, u], height=1))


def test_ladder_page_work_counters(monkeypatch):
    """The (2, 2) page and the separation check of ``build_ladder(2, 5,
    8)``, frozen: admissibility takes no rank, nor does any of the 22
    lifts to the appended sheet, one per two-cell, whose classes have no
    a3-coordinate; no edge is lifted, and each subgroup's height is read
    once."""
    ladder = build_ladder(2, 5, 8)
    ranks, lift_ranks, admissible_ranks, heights = [], [], [], []
    rank, lift, admissible = lattice.matrix_rank, cycles.append_loop, specseq._admissible
    height = SymplecticSubgroup.height

    def counting_rank(m):
        ranks.append(m)
        return rank(m)

    def counting_lift(cell):
        before = len(ranks)
        lifted = lift(cell)
        lift_ranks.append(len(ranks) - before)
        return lifted

    def counting_admissible(cell, u):
        before = len(ranks)
        verdict = admissible(cell, u)
        admissible_ranks.append(len(ranks) - before)
        return verdict

    def counting_height(u):
        heights.append(u)
        return height(u)

    for module in (lattice, surface, cycles, specseq):
        monkeypatch.setattr(module, "matrix_rank", counting_rank)
    monkeypatch.setattr(cycles, "append_loop", counting_lift)
    monkeypatch.setattr(specseq, "_admissible", counting_admissible)
    monkeypatch.setattr(SymplecticSubgroup, "height", counting_height)
    src = build_e1((2, 2), Truncation(ladder=ladder, subgroups=[U33, U33_SKEW], height=1))
    assert check_image_separation(ladder, U33)
    assert len(src) == 2 * 2 * len(ladder.two_cells()) == 88
    assert admissible_ranks == [0] * 88
    assert lift_ranks == [0] * 22
    assert ranks == []
    assert heights == [U33, U33_SKEW]
    assert set(ladder._appended) == set(ladder.two_cells())


def test_appended_cell_takes_two_cells_only():
    """No package route lifts an edge or a vertex: ``appended_cell``
    refuses both, and ``oracles.lift_by_mirror`` lifts edges."""
    ladder = build_ladder(1, 2, 2)
    for tag in (("d", 0), ("c-", -1), ("e+", 0), ("A", 0)):
        with pytest.raises(UsageError, match="is not a two-cell of the ladder"):
            ladder.appended_cell(tag)
    assert not ladder._appended


@pytest.mark.parametrize("bad", (0.5, 2.0, "3"))
def test_twist_index_must_be_an_integer(bad):
    with pytest.raises(UsageError, match="a twist index must be an integer"):
        GeneratorTag.bp_twist(bad)


def test_append_loop_needs_genus():
    ladder = build_ladder(1, 1, 2)
    appended = append_loop(ladder.cell_cells[("R", -1)])
    with pytest.raises(UsageError, match="no piece can host the loop"):
        append_loop(appended)


def test_sparse_matrix_validates_labels():
    with pytest.raises(ValueError):
        SparseIntMatrix(["r"], ["c"], {("bad", "c"): 1})


def test_trusted_pages_pass_the_checked_constructor(monkeypatch):
    """The d13, d13-tilde and d22 pages and the pattern matrices of the
    two kernel checks, rebuilt through __init__, keep rows, cols and
    entries."""
    trusted = SparseIntMatrix._trusted
    built = []

    def checking(cls, rows, cols, entries):
        mat = trusted(rows, cols, entries)
        checked = SparseIntMatrix(rows, cols, entries)
        assert (checked.rows, checked.cols, checked.entries) == (mat.rows, mat.cols, mat.entries)
        built.append(len(mat.entries))
        return mat

    monkeypatch.setattr(SparseIntMatrix, "_trusted", classmethod(checking))
    x = A1
    e2_13_kernel(build_e1((1, 3), Truncation(splittings=plain_13_family(), x=x)))
    e2_13_tilde_kernel(
        build_e1((1, 3), Truncation(splittings=tilde_family(), x=x, y=A2 + A3))
    )
    ladder = build_ladder(1, 2, 3)
    src = build_e1((2, 2), Truncation(ladder=ladder, subgroups=[U33], height=1))
    d22_apply(src, ladder)
    assert len(built) == 5 and all(built)


def test_check_injective_examples():
    yes = SparseIntMatrix(["r1", "r2"], ["c"], {("r1", "c"): 1, ("r2", "c"): -1})
    assert check_injective(yes)
    no = SparseIntMatrix(
        ["r1", "r2"], ["c1", "c2"], {("r1", "c1"): 2}
    )
    assert not check_injective(no)


def test_truncation_rejects_unknown_fields():
    with pytest.raises(ValueError):
        Truncation(window=3)
    with pytest.raises(ValueError):
        build_e1((5, 5), Truncation())


def test_build_31_and_21_sizes():
    src = build_e1((3, 1), Truncation(orbits=["O1", "O2"], K=3))
    assert len(src) == 6
    assert src.basis[0] == (("O1", 0), GeneratorTag.bp_twist(0))
    tgt = target_basis_21(Truncation(orbits=["O1"], K=2))
    assert len(tgt) == 5
    labels = [tag.data for _, tag in tgt.basis]
    assert labels == [-2, -1, 0, 1, 2]
    # d31 names its rows among the (2, 1) labels of the same window
    window = Truncation(orbits=["O1", "O2"], K=3)
    assert set(d31_apply(src).rows) <= set(target_basis_21(window).basis)


def test_duplicate_labels_rejected():
    tag = GeneratorTag.bp_twist(0)
    with pytest.raises(ValueError):
        E1Truncation((2, 1), [("O", tag), ("O", tag)], Truncation())


def test_d31_columns_are_twist_differences():
    src = build_e1((3, 1), Truncation(orbits=["O"], K=3))
    mat = d31_apply(src)
    col = (("O", 1), GeneratorTag.bp_twist(0))
    assert mat.entries[(("O", GeneratorTag.bp_twist(1)), col)] == 1
    assert mat.entries[(("O", GeneratorTag.bp_twist(-2)), col)] == -1
    assert len(column_support(mat, col)) == 2


def test_d31_image_pairs_disjoint():
    src = build_e1((3, 1), Truncation(orbits=["O1", "O2"], K=4))
    mat = d31_apply(src)
    supports = [frozenset(column_support(mat, c)) for c in mat.cols]
    for i, s in enumerate(supports):
        for t in supports[i + 1 :]:
            assert not (s & t)


@pytest.mark.parametrize("K", range(1, 9))
def test_d31_injective(K):
    src = build_e1((3, 1), Truncation(orbits=["O"], K=K))
    mat = d31_apply(src)
    assert check_injective(mat)
    assert mat.rank() == len(mat.cols) == K


def test_d31_empty_is_zero():
    src = E1Truncation((3, 1), [], Truncation(K=2))
    mat = d31_apply(src)
    assert (len(mat.rows), len(mat.cols)) == (0, 0)
    assert check_injective(mat)


def test_d31_overflow():
    src = E1Truncation(
        (3, 1), [(("O", 5), GeneratorTag.bp_twist(0))], Truncation(K=2)
    )
    with pytest.raises(UsageError, match="translate 5 needs window 6, have 2"):
        d31_apply(src)


def test_d22_basis_and_blocks():
    ladder = build_ladder(1, 1, 2)
    trunc = Truncation(ladder=ladder, subgroups=[U33, U33_SKEW], height=1)
    src = build_e1((2, 2), trunc)
    assert len(src) == 2 * 2 * len(ladder.two_cells())
    mat = d22_apply(src, ladder)
    assert check_injective(mat)
    for (row, col) in mat.entries:
        assert row[0][1] == col[0][1]
        assert row[1] == col[1]


def test_d22_rectangle_column():
    ladder = build_ladder(1, 1, 2)
    src = build_e1((2, 2), Truncation(ladder=ladder, subgroups=[U33], height=1))
    mat = d22_apply(src, ladder)
    gen = GeneratorTag.a2(U33)
    col = ((("R", -1), "plain"), gen)
    expected = {
        ((("c+", -1), "plain"), gen): 1,
        ((("d", 0), "plain"), gen): 1,
        ((("c-", -1), "plain"), gen): -1,
        ((("d", -1), "plain"), gen): -1,
    }
    assert {r: mat.entries[(r, col)] for r in column_support(mat, col)} == expected


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 3)])
def test_d22_kernel_zero(shape):
    m, n = shape
    for K in (1, 3, 6):
        ladder = build_ladder(m, n, K)
        src = build_e1(
            (2, 2), Truncation(ladder=ladder, subgroups=[U33], height=1)
        )
        mat = d22_apply(src, ladder)
        assert check_injective(mat)
        assert mat.kernel_vectors() == []


@pytest.mark.parametrize(
    "u, separated",
    [
        (U33, True),
        (SymplecticSubgroup.spanned_by([A1, B1]), False),
        (U23, False),
        (SymplecticSubgroup.spanned_by([B1 + A3, B3]), False),
    ],
    ids=["a3b3", "a1b1", "a2b2", "b1+a3_b3"],
)
def test_d22_separation(u, separated):
    ladder = build_ladder(1, 2, 2)
    assert check_image_separation(ladder, u) is separated


def test_d22_separation_tests_each_class_once(monkeypatch):
    """One ``contains`` per distinct class: under the separating subgroup
    no plain face meets it and every two-cell's loop class lies in it, so
    every class of every face, plain or lifted by the oracle, is tested,
    and each exactly once."""
    ladder = build_ladder(2, 5, 8)
    faces = {e for boundary in ladder.cell_boundary.values() for e in boundary}
    want = {
        c
        for e in faces
        for cell in (ladder.edge_cells[e], lift_by_mirror(ladder, e))
        for c in cell.multicurve.classes.values()
    }
    calls = []
    contains = SymplecticSubgroup.contains

    def counting(u, c):
        calls.append(c)
        return contains(u, c)

    monkeypatch.setattr(SymplecticSubgroup, "contains", counting)
    assert check_image_separation(ladder, U33)
    assert len(calls) == len(set(calls))
    assert set(calls) == want


# the height-1 planes the separation tests draw from
HEIGHT_1_PLANES = enumerate_symplectic_rank2(1)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(COPRIME_PAIRS),
    st.integers(1, 6),
    st.lists(st.sampled_from(HEIGHT_1_PLANES), max_size=4),
)
def test_separation_matches_the_lifting_oracle(mn, K, planes):
    """The loop-class route against ``oracles.separation_by_lifts``, which
    lifts every edge to the appended sheet, on drawn height-1 planes and
    always on <a3, b3>."""
    ladder = build_ladder(*mn, K)
    for u in [U33, *planes]:
        assert check_image_separation(ladder, u) == separation_by_lifts(ladder, u)


def plant_class(cell, u_class):
    """The cell with the class of its first curve replaced by ``u_class``,
    its vertices kept: a planted fault, not a cell of the ladder."""
    m = cell.multicurve
    first = m.graph.edges[0][0]
    planted = LabeledMulticurve._trusted(m.graph, {**m.classes, first: u_class}, m.x)
    return CellInstance._trusted(planted, cell.verts, cell.dim)


@pytest.mark.parametrize("mn", [(1, 2), (2, 5)])
def test_separation_refuses_planted_faults(mn):
    """A plain face class moved into U is refused, face by face; so is a
    plane that no plain face meets but that does not contain a3, which
    only the loop class can tell.  The lifting oracle agrees on each."""
    ladder = build_ladder(*mn, 3)
    assert check_image_separation(ladder, U33)
    for edge in ladder.edges():
        kept = ladder.edge_cells[edge]
        ladder.edge_cells[edge] = plant_class(kept, B3)
        assert not check_image_separation(ladder, U33)
        assert not separation_by_lifts(ladder, U33)
        ladder.edge_cells[edge] = kept
    off_a3 = [SymplecticSubgroup.spanned_by([A3 + A1, B3]), SymplecticSubgroup.spanned_by([A3 + B1, B3])]
    classes = {c for cell in ladder.edge_cells.values() for c in cell.multicurve.classes.values()}
    for u in off_a3:
        assert not u.contains(A3)
        assert not any(u.contains(c) for c in classes)
        assert not check_image_separation(ladder, u)
        assert not separation_by_lifts(ladder, u)


def test_d22_corner_builds_each_cell_once(monkeypatch):
    """Ladder, (2, 2) page and separation at (2, 5), K=32: every cell
    instance, scanned, read off a face or a two-cell lifted to the
    appended sheet, is distinct by its curve classes and target.  Only
    the 8 two-cells of the sheets -1 to 2 and the 2 external witnesses
    are scanned; the other 62 two-cells are instantiated from the
    generic sheet, built trusted."""
    built = {"scanned": [], "trusted": []}
    init = CellInstance.__init__
    trusted = CellInstance._trusted.__func__

    def counting(cell, multicurve):
        init(cell, multicurve)
        built["scanned"].append((frozenset(multicurve.classes.items()), multicurve.x))

    def counting_trusted(cls, multicurve, verts, dim):
        built["trusted"].append((frozenset(multicurve.classes.items()), multicurve.x))
        return trusted(cls, multicurve, verts, dim)

    monkeypatch.setattr(CellInstance, "__init__", counting)
    monkeypatch.setattr(CellInstance, "_trusted", classmethod(counting_trusted))
    ladder = build_ladder(2, 5, 32)
    build_e1((2, 2), Truncation(K=32, ladder=ladder, subgroups=[U33], height=1))
    assert check_image_separation(ladder, U33)
    every = built["scanned"] + built["trusted"]
    assert len(ladder.cell_cells) == 70
    assert (len(built["scanned"]), len(built["trusted"])) == (8 + 2, 351 + 62)
    assert len(every) == len(set(every)) == 423


def test_d22_rejects_inadmissible_subgroup():
    ladder = build_ladder(1, 1, 1)
    bad = SymplecticSubgroup.spanned_by([A1, B1])
    with pytest.raises(UsageError, match="not admissible for"):
        build_e1((2, 2), Truncation(ladder=ladder, subgroups=[bad], height=1))
    with pytest.raises(UsageError, match="exceeds height 0"):
        build_e1(
            (2, 2),
            Truncation(ladder=ladder, subgroups=[U33_SKEW], height=0),
        )


def test_d22_overflow_on_foreign_cell():
    ladder = build_ladder(1, 1, 1)
    src = E1Truncation(
        (2, 2),
        [(((("R", 99)), "plain"), GeneratorTag.a2(U33))],
        Truncation(ladder=ladder),
    )
    with pytest.raises(UsageError, match=r"cell \('R', 99\) outside the ladder"):
        d22_apply(src, ladder)


def _face_outside_the_ladder():
    ladder = build_ladder(1, 1, 1)
    src = build_e1((2, 2), Truncation(ladder=ladder, subgroups=[U33], height=1))
    (tag, _), _ = src.basis[0]
    face = next(iter(ladder.cell_boundary[tag]))
    del ladder.edge_endpoints[face]
    return src, ladder, rf"face {re.escape(repr(face))} outside the ladder"


def _page_guard_cases():
    """(call, message) for each guard of the page builders and
    differentials that only a wrong source or a planted fault trips."""
    window = Truncation(K=2, orbits=["O"])
    page_31 = build_e1((3, 1), window)
    plain = build_e1((1, 3), Truncation(splittings=plain_13_family(), x=A1))
    tilde_trunc = Truncation(splittings=tilde_family(), x=A1, y=A2 + A3)
    tilde = build_e1((1, 3), tilde_trunc)
    key = STANDARD_SPLITTING.unordered_key()
    unnamed = E1Truncation(
        (1, 3),
        [((3, key, "t9"), GeneratorTag.a2_pair(U23, U33))],
        tilde_trunc,
        {key: STANDARD_SPLITTING},
    )
    foreign_tag = E1Truncation((3, 1), [(("O", 0), GeneratorTag.a2(U33))], window)
    src, ladder, face_message = _face_outside_the_ladder()
    plain_13 = r"source must be the plain \(1, 3\) truncation"
    restricted_13 = r"source must be the restricted \(1, 3\) truncation"
    return {
        "31-no-orbits": (
            lambda: build_e1((3, 1), Truncation(K=2)),
            "need orbits and a conjugation window",
        ),
        "31-no-window": (
            lambda: build_e1((3, 1), Truncation(orbits=["O"])),
            "need orbits and a conjugation window",
        ),
        "d31-position": (lambda: d31_apply(plain), r"source must sit at position \(3, 1\)"),
        "d31-tag": (
            lambda: d31_apply(foreign_tag),
            r"unexpected tag GeneratorTag\(a2, .*\) at \(3, 1\)",
        ),
        "d22-position": (
            lambda: d22_apply(page_31, ladder),
            r"source must sit at position \(2, 2\)",
        ),
        "d22-face": (lambda: d22_apply(src, ladder), face_message),
        "d13-position": (lambda: d13_apply(page_31), plain_13),
        "d13-restricted": (lambda: d13_apply(tilde), plain_13),
        "tilde-position": (lambda: d13_tilde_apply(page_31), restricted_13),
        "tilde-plain": (lambda: d13_tilde_apply(plain), restricted_13),
        "tilde-name": (
            lambda: d13_tilde_apply(unnamed),
            r"unclassified generator \(3, .*'t9'\)",
        ),
    }


@pytest.mark.parametrize(
    "case",
    [
        "31-no-orbits", "31-no-window", "d31-position", "d31-tag", "d22-position", "d22-face",
        "d13-position", "d13-restricted", "tilde-position", "tilde-plain", "tilde-name",
    ],
)
def test_page_guards_refuse_planted_faults(case):
    """Each guard of ``_build_31`` and the four differentials, reached
    through its public function with a wrong source or a planted fault:
    a face deleted from the ladder's edges, a tag of the wrong kind, a
    generator name no type has."""
    call, message = _page_guard_cases()[case]
    with pytest.raises(UsageError, match=message):
        call()


def test_edge_position_basis():
    """The (1, 2) basis of the test oracle: one label per edge, sheet and
    subgroup, each edge cell admissible on both sheets; d22 names its
    rows among those labels."""
    ladder = build_ladder(1, 1, 1)
    trunc = Truncation(ladder=ladder, subgroups=[U33], height=1)
    tgt = target_basis_12(trunc)
    assert len(tgt) == 2 * len(ladder.edges())
    edges = ladder.edges()
    cells = [ladder.edge_cells[e] for e in edges] + [lift_by_mirror(ladder, e) for e in edges]
    assert all(is_admissible(cell, U33) for cell in cells)
    src = build_e1((2, 2), trunc)
    assert set(d22_apply(src, ladder).rows) <= set(tgt.basis)
    with pytest.raises(UsageError, match=r"unsupported position \(1, 2\)"):
        build_e1((1, 2), trunc)


def test_page_composition_vanishes():
    ladder = build_ladder(1, 2, 2)
    d1 = SparseIntMatrix.from_columns(
        [
            (e, {ladder.edge_endpoints[e][0]: -1, ladder.edge_endpoints[e][1]: 1})
            for e in ladder.edges()
        ]
    )
    for cell in ladder.two_cells():
        total = {}
        for edge, sign in ladder.cell_boundary[cell].items():
            for v in column_support(d1, edge):
                total[v] = total.get(v, 0) + sign * d1.entries[(v, edge)]
        assert all(value == 0 for value in total.values())


def test_d13_basis_sizes_by_type():
    src = build_e1((1, 3), Truncation(splittings=plain_13_family(), x=A1))
    counts = {}
    for (letter, _, _), _ in src.basis:
        counts[letter] = counts.get(letter, 0) + 1
    assert counts == {"a": 2, "b": 2, "c": 3}


def test_d13_images():
    src = build_e1((1, 3), Truncation(splittings=plain_13_family(), x=A1))
    mat = d13_apply(src)
    for (orbit, tag) in src.basis:
        col = (orbit, tag)
        support = column_support(mat, col)
        if orbit[0] in ("a", "b"):
            assert support == set()
        else:
            assert len(support) == 1
            row = next(iter(support))
            assert row[0][0] == "vertex"
            assert mat.entries[(row, col)] == 1


def test_d13_kernel_rank_and_pattern():
    src = build_e1((1, 3), Truncation(splittings=plain_13_family(), x=A1))
    result = e2_13_kernel(src)
    assert result["rank"] == 2 + 2 * 1 + 2 * 1
    singles = [c for c in result["basis"] if len(c) == 1]
    doubles = [c for c in result["basis"] if len(c) == 2]
    assert len(singles) == 4
    assert len(doubles) == 2
    for combo in doubles:
        assert sorted(combo.values()) == [-1, 1]
        letters = {orbit[0] for orbit, _ in combo}
        assert letters == {"c"}


def test_d13_rejects_unclassified():
    src = E1Truncation(
        (1, 3),
        [(("z", "key", 0), GeneratorTag.a2_pair(U23, U33))],
        Truncation(x=A1),
    )
    with pytest.raises(UsageError, match="unclassified generator"):
        d13_apply(src)


def test_d13_monotone_under_more_splittings():
    family = plain_13_family()
    small = build_e1((1, 3), Truncation(splittings=family[:2], x=A1))
    large = build_e1((1, 3), Truncation(splittings=family, x=A1))
    small_kernel = e2_13_kernel(small)
    large_kernel = e2_13_kernel(large)
    assert small_kernel["rank"] <= large_kernel["rank"]
    small_labels = {frozenset(c) for c in small_kernel["basis"]}
    large_labels = {frozenset(c) for c in large_kernel["basis"]}
    assert small_labels <= large_labels


def test_tilde_basis_types_and_sizes():
    src = build_e1(
        (1, 3), Truncation(splittings=tilde_family(), x=A1, y=A2 + A3)
    )
    counts = {}
    for (ytype, _, _), _ in src.basis:
        counts[ytype] = counts.get(ytype, 0) + 1
    assert counts == {1: 1, 2: 2, 3: 2, 4: 3}


def test_tilde_images():
    src = build_e1(
        (1, 3), Truncation(splittings=tilde_family(), x=A1, y=A2 + A3)
    )
    mat = d13_tilde_apply(src)
    by_name = {orbit[2]: (orbit, tag) for orbit, tag in src.basis}
    assert column_support(mat, by_name["t1"]) == set()
    assert column_support(mat, by_name["t22p"]) == set()
    t22 = column_support(mat, by_name["t22"])
    assert {row[0][0] for row in t22} == {"b1b2", "b1'b2"}
    assert sorted(mat.entries[(r, by_name["t22"])] for r in t22) == [-1, 1]
    a_row = column_support(mat, by_name["t32a"])
    assert a_row == column_support(mat, by_name["t32b"])
    assert next(iter(a_row))[1].kind == "a3"
    t42 = column_support(mat, by_name["t42"])
    assert {row[0][0] for row in t42} == {"b1b2b3", "b1'b2b3"}
    t52 = column_support(mat, by_name["t52a"])
    assert t52 == column_support(mat, by_name["t52b"])
    assert len(t52) == 1


def test_tilde_kernel_rank_and_pattern():
    src = build_e1(
        (1, 3), Truncation(splittings=tilde_family(), x=A1, y=A2 + A3)
    )
    result = e2_13_tilde_kernel(src)
    assert result["rank"] == 4
    names = []
    for combo in result["basis"]:
        names.append(sorted(orbit[2] for orbit, _ in combo))
    assert sorted(map(tuple, names)) == [
        ("t1",),
        ("t22p",),
        ("t32a", "t32b"),
        ("t52a", "t52b"),
    ]


def test_tilde_requires_isolated_x():
    with pytest.raises(UsageError, match="x must lie in a single part"):
        build_e1(
            (1, 3),
            Truncation(splittings=[STANDARD_SPLITTING], x=A1 + A2, y=A3),
        )


def test_position_03_labels():
    family = plain_13_family()
    src = target_basis_03(Truncation(splittings=family))
    assert len(src) == len(family)
    assert all(tag.kind == "a3" for _, tag in src.basis)
    # d13 names its rows among the (0, 3) labels of the same family
    page = build_e1((1, 3), Truncation(splittings=family, x=A1))
    assert set(d13_apply(page).rows) <= set(src.basis)


def test_dim_cd_inequality_examples():
    assert dim_cd_inequality(0, 3, 3) is True
    assert dim_cd_inequality(1, 3, 3) is False
    assert dim_cd_inequality(0, 0, 1) is False


def test_vanishing_census_table():
    table = vanishing_census()
    rows = {tuple(map(str, [r["fingerprint"]])): r for r in table["types"]}
    assert len(table["types"]) == 14
    by_fp = {r["fingerprint"]: r for r in table["types"]}
    assert by_fp[(2, 3, (0, 1), (3,))]["zero_above"] == 2
    assert by_fp[(1, 2, (1,), (2,))]["zero_above"] == 3
    assert by_fp[(4, 6, (0, 0, 0, 0), ())]["zero_above"] == 0
    assert table["tilde_0_4_zero"]
    assert rows


@lru_cache(maxsize=None)
def _isolating_a1():
    """The splittings of bound 1 that put a1 in one part."""
    return [s for s in enumerate_splittings(1) if splitting_type_wrt_x(A1, s)[0] == "a"]


def _page_summary(kernel, family, **fields):
    """Rank, per-splitting type counts, kernel pattern and page rows,
    each independent of the order of the family."""
    src = build_e1((1, 3), Truncation(splittings=family, **fields))
    result = kernel(src)  # raises when the kernel misses its pattern
    types = {orbit[1]: orbit[0] for orbit, _ in src.basis}
    return (
        result["rank"],
        Counter(types.values()),
        {frozenset(combo.items()) for combo in result["basis"]},
        set(result["matrix"].rows),
    )


def _shuffled_sample(pool_size, max_size):
    return st.lists(
        st.integers(0, pool_size - 1), min_size=1, max_size=max_size, unique=True
    ).flatmap(lambda idx: st.tuples(st.just(idx), st.permutations(idx)))


@settings(max_examples=25, deadline=None)
@given(_shuffled_sample(12657, 40))
def test_d13_kernel_is_independent_of_family_order(orders):
    splittings = enumerate_splittings(1)
    ordered, shuffled = ([splittings[i] for i in idx] for idx in orders)
    assert _page_summary(e2_13_kernel, ordered, x=A1) == _page_summary(
        e2_13_kernel, shuffled, x=A1
    )


@settings(max_examples=25, deadline=None)
@given(_shuffled_sample(1297, 40))
def test_d13_tilde_kernel_is_independent_of_family_order(orders):
    pool = _isolating_a1()
    ordered, shuffled = ([pool[i] for i in idx] for idx in orders)
    fields = {"x": A1, "y": A2 + A3}
    assert _page_summary(e2_13_tilde_kernel, ordered, **fields) == _page_summary(
        e2_13_tilde_kernel, shuffled, **fields
    )


@settings(max_examples=10, deadline=None)
@given(st.permutations(range(4)))
def test_tilde_family_kernel_is_independent_of_order(order):
    family = tilde_family()
    fields = {"x": A1, "y": A2 + A3}
    assert _page_summary(e2_13_tilde_kernel, family, **fields) == _page_summary(
        e2_13_tilde_kernel, [family[i] for i in order], **fields
    )
