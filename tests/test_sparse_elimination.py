"""Sparse unit-pivot elimination against the dense normal forms.

`SparseIntMatrix.rank` and `kernel_vectors` eliminate on ±1 pivots and
hand only a leftover block without unit entries to the dense Hermite
routes of `lattice`.  The dense rank and sympy are the oracles, and
sympy's Smith form alone decides saturation; the sparse page kernel
check is compared with the dense Hermite-form check it replaced, and the
worklist eliminator with the bucket queue by fill it replaced,
``oracles.eliminate_by_fill_buckets``.
"""

import random
from math import gcd
from unittest import mock

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_kernel_matches_pattern, eliminate_by_fill_buckets, smith_factors
from torelli3 import cli, specseq
from torelli3.cycles import build_ladder
from torelli3.lattice import (
    A1,
    A2,
    A3,
    B3,
    SymplecticSubgroup,
    enumerate_splittings,
    hermite_row_form,
    is_saturated,
    kernel_basis,
    matrix_rank,
)
from torelli3.specseq import (
    E1Truncation,
    GeneratorTag,
    SparseIntMatrix,
    Truncation,
    _dense_block,
    _kernel_matches_pattern,
    build_e1,
    d13_apply,
    d13_tilde_apply,
    d22_apply,
    d31_apply,
    e2_13_kernel,
    e2_13_tilde_kernel,
)
from torelli3.surface import classify_types


ALL_ENTRIES = (0, 1, -1, 2, -2, 3, -3)
NON_UNIT_ENTRIES = (0, 2, -2, 3, -3)


@st.composite
def dense_matrices(draw):
    """(rows, column count) with 0-12 rows and columns.

    Some columns carry no unit entry at all, so the leftover block runs.
    """
    nrows = draw(st.integers(0, 12))
    ncols = draw(st.integers(0, 12))
    columns = []
    for _ in range(ncols):
        alphabet = draw(st.sampled_from((ALL_ENTRIES, NON_UNIT_ENTRIES)))
        columns.append(
            draw(st.lists(st.sampled_from(alphabet), min_size=nrows, max_size=nrows))
        )
    return [[columns[j][i] for j in range(ncols)] for i in range(nrows)], ncols


def sparse(dense, ncols):
    """Label rows and columns by index and keep the zero entries too."""
    entries = {
        (i, j): value for i, row in enumerate(dense) for j, value in enumerate(row)
    }
    return SparseIntMatrix(range(len(dense)), range(ncols), entries)


@settings(max_examples=300, deadline=None)
@given(dense_matrices())
def test_rank_matches_dense_and_sympy(matrix):
    dense, ncols = matrix
    rank = sparse(dense, ncols).rank()
    assert rank == matrix_rank(dense)
    assert rank == sympy.Matrix(len(dense), ncols, [v for row in dense for v in row]).rank()


@settings(max_examples=300, deadline=None)
@given(dense_matrices())
def test_kernel_annihilated_and_saturated(matrix):
    dense, ncols = matrix
    mat = sparse(dense, ncols)
    kernel = mat.kernel_vectors()
    assert all(len(vec) == ncols for vec in kernel)
    for vec in kernel:
        assert all(sum(a * b for a, b in zip(row, vec)) == 0 for row in dense)
    assert len(kernel) == ncols - len(smith_factors(dense, ncols))
    assert smith_factors(kernel, ncols) == [1] * len(kernel)


@settings(max_examples=300, deadline=None)
@given(dense_matrices())
def test_columns_saturated_matches_sympy(matrix):
    dense, ncols = matrix
    factors = smith_factors(dense, ncols)
    want = len(factors) == ncols and all(f == 1 for f in factors)
    assert sparse(dense, ncols).columns_saturated() == want


def test_dependent_leftover_columns_are_not_saturated():
    # no unit entry, so both columns reach the dense block; their span is
    # saturated, but the second column is twice the first
    assert sparse([[2, 4], [3, 6]], 2).columns_saturated() is False
    assert sparse([[2, 3], [3, 5]], 2).columns_saturated() is True


def test_leftover_block_keeps_kernel_saturated():
    mat = sparse([[2, 3], [4, 6]], 2)
    assert mat.rank() == 1
    assert hermite_row_form(mat.kernel_vectors()) == ((3, -2),)


def test_leftover_after_unit_pivots():
    # the unit in column 0 clears row 0, leaving 2*c1 + 4*c2 = 0 below it
    dense = [[1, 5, 7], [0, 2, 4], [0, 4, 8]]
    mat = sparse(dense, 3)
    assert mat.rank() == 2
    assert hermite_row_form(mat.kernel_vectors()) == ((3, -2, 1),)


def test_duplicate_column_labels_share_entries():
    mat = SparseIntMatrix(["r"], ["c", "c"], {("r", "c"): 1})
    assert mat.rank() == 1
    assert hermite_row_form(mat.kernel_vectors()) == ((1, -1),)


def test_unit_matrices_never_reach_the_dense_forms(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("dense normal form on a matrix with unit pivots")

    monkeypatch.setattr(specseq, "matrix_rank", refuse)
    monkeypatch.setattr(specseq, "kernel_basis", refuse)
    orbits = tuple(str(e.fingerprint) for e in classify_types(3, 3))
    mat = d31_apply(build_e1((3, 1), Truncation(K=16, orbits=orbits)))
    assert mat.rank() == 32
    assert mat.kernel_vectors() == []


def test_d31_rank_at_k_256():
    orbits = tuple(str(e.fingerprint) for e in classify_types(3, 3))
    mat = d31_apply(build_e1((3, 1), Truncation(K=256, orbits=orbits)))
    assert (len(mat.rows), len(mat.cols)) == (1024, 512)
    assert mat.rank() == 512


def test_d22_kernel_empty_on_ladder_1_5_at_k_32():
    ladder = build_ladder(1, 5, 32)
    u = SymplecticSubgroup.spanned_by([A3, B3])
    src = build_e1((2, 2), Truncation(K=32, ladder=ladder, subgroups=(u,), height=1))
    mat = d22_apply(src, ladder)
    assert len(mat.cols) == 148
    assert mat.kernel_vectors() == []
    assert mat.rank() == len(mat.cols)


@pytest.mark.parametrize("ncols", [0, 3])
def test_no_rows_gives_identity_kernel(ncols):
    mat = SparseIntMatrix([], range(ncols), {})
    assert mat.rank() == 0
    assert mat.kernel_vectors() == [
        tuple(int(i == j) for j in range(ncols)) for i in range(ncols)
    ]


# ---------------------------------------------------------------------------
# the sparse page kernel check against the dense Hermite-form oracle

TAG = GeneratorTag.bp_twist(0)


def page(dense, ncols):
    """A page with generator j labeled (j, TAG), and its matrix."""
    labels = [(j, TAG) for j in range(ncols)]
    entries = {
        (i, labels[j]): value for i, row in enumerate(dense) for j, value in enumerate(row)
    }
    src = E1Truncation((2, 1), labels, Truncation())
    return src, SparseIntMatrix(range(len(dense)), labels, entries)


def pattern_of(vectors):
    return [{(j, TAG.key()): c for j, c in enumerate(vec) if c} for vec in vectors]


MUTATIONS = ("none", "mixed", "scaled", "outside", "dropped", "repeated")


@settings(max_examples=300, deadline=None)
@given(dense_matrices(), st.sampled_from(MUTATIONS), st.data())
def test_sparse_pattern_check_agrees_with_dense_oracle(matrix, mutation, data):
    dense, ncols = matrix
    src, mat = page(dense, ncols)
    basis = [list(vec) for vec in kernel_basis(dense, ncols)]
    pick = st.integers(0, max(len(basis) - 1, 0))
    moved = [j for j in range(ncols) if any(row[j] for row in dense)]
    expected = True
    if mutation == "mixed" and len(basis) >= 2:
        i, k = data.draw(st.permutations(range(len(basis))))[:2]
        factor = data.draw(st.integers(-3, 3))
        basis[i] = [a + factor * b for a, b in zip(basis[i], basis[k])]
    elif mutation == "scaled" and basis:
        i = data.draw(pick)
        basis[i] = [2 * a for a in basis[i]]
        expected = False
    elif mutation == "outside" and moved:
        j = data.draw(st.sampled_from(moved))
        if basis:
            basis[data.draw(pick)][j] += 1
        else:
            basis.append([int(k == j) for k in range(ncols)])
        expected = False
    elif mutation == "dropped" and basis:
        basis.pop(data.draw(pick))
        expected = False
    elif mutation == "repeated" and len(basis) >= 2:
        i, k = data.draw(st.permutations(range(len(basis))))[:2]
        basis[i] = list(basis[k])
        expected = False
    pattern = pattern_of(basis)
    got = _kernel_matches_pattern(src, mat, pattern)
    assert got == dense_kernel_matches_pattern(src, mat, pattern)
    assert got == expected


def test_pattern_without_unit_entries_takes_the_dense_route(monkeypatch):
    # neither the matrix nor the pattern has a unit entry to pivot on
    calls = []

    def counted(rows, ncols):
        calls.append((rows, ncols))
        return is_saturated(rows, ncols)

    monkeypatch.setattr(specseq, "is_saturated", counted)
    src, mat = page([[3, -2]], 2)
    assert _kernel_matches_pattern(src, mat, pattern_of([(2, 3)]))
    assert calls == [([(2, 3)], 2)]
    assert not _kernel_matches_pattern(src, mat, pattern_of([(4, 6)]))
    assert calls[-1] == ([(4, 6)], 2)


def test_kernel_combos_are_the_sparse_kernel_vectors():
    dense = [[1, 5, 7, 0], [0, 2, 4, 0], [0, 4, 8, 0]]
    mat = sparse(dense, 4)
    combos = mat.kernel_combos()
    assert all(all(combo.values()) for combo in combos)
    assert [
        tuple(combo.get(j, 0) for j in range(4)) for combo in combos
    ] == mat.kernel_vectors()
    assert len(combos) == 2


# ---------------------------------------------------------------------------
# the worklist eliminator against the bucket queue by fill it replaced

def elimination_verdicts(mat):
    """Rank, kernel lattice (Hermite form of the kernel vectors) and
    whether the columns are saturated: what no pivot order changes."""
    return mat.rank(), hermite_row_form(mat.kernel_vectors()), mat.columns_saturated()


def leftover_verdicts(mat):
    """The pivot count and the leftover block's rank and saturation."""
    pivots, _, leftover = mat._eliminate()
    block = _dense_block(leftover)
    return pivots, matrix_rank(block), is_saturated([list(c) for c in zip(*block)], len(block))


def assert_matches_bucket_oracle(mat, verdicts=elimination_verdicts):
    got = verdicts(mat)
    with mock.patch.object(SparseIntMatrix, "_eliminate", eliminate_by_fill_buckets):
        assert verdicts(mat) == got


@settings(max_examples=300, deadline=None)
@given(dense_matrices())
def test_worklist_eliminator_matches_the_bucket_oracle(matrix):
    """On a dense matrix the leftover block may depend on the pivot
    order: of the four units of [[0, 0], [1, 1], [1, -1], [1, 2]], all of
    fill 2, the one at (2, 1) leaves the unit-free column (0, 2, 0, 3)."""
    assert_matches_bucket_oracle(sparse(*matrix))


U33 = SymplecticSubgroup.spanned_by([A3, B3])
LADDER_PAIRS = [(m, n) for n in range(2, 6) for m in range(1, n) if gcd(m, n) == 1]


def kernel_matrices(kernel, src):
    """The page and the pattern matrix that ``kernel`` checks on ``src``."""
    built = []
    trusted = SparseIntMatrix._trusted

    def recording(cls, rows, cols, entries):
        built.append(trusted(rows, cols, entries))
        return built[-1]

    with mock.patch.object(SparseIntMatrix, "_trusted", classmethod(recording)):
        kernel(src)
    return built


def page_matrices(family):
    """The page matrices of one family, with their pattern matrices."""
    if family == "d31":
        orbits = tuple(str(e.fingerprint) for e in classify_types(3, 3))
        return [
            d31_apply(build_e1((3, 1), Truncation(K=K, orbits=orbits))) for K in (1, 2, 5, 16, 64)
        ]
    if family == "d22":
        pages = []
        for m, n in LADDER_PAIRS:
            ladder = build_ladder(m, n, 32)
            trunc = Truncation(K=32, ladder=ladder, subgroups=(U33,), height=1)
            pages.append(d22_apply(build_e1((2, 2), trunc), ladder))
        return pages
    if family == "d13":
        sample = random.Random(32).sample(enumerate_splittings(1), 500)
        src = build_e1((1, 3), Truncation(splittings=sample, x=A1))
        pages = kernel_matrices(e2_13_kernel, src)
        assert len(pages) == 2 and pages[0].entries == d13_apply(src).entries
        return pages
    src = build_e1(
        (1, 3), Truncation(splittings=cli.tilde_splitting_family(), x=A1, y=A2 + A3)
    )
    pages = kernel_matrices(e2_13_tilde_kernel, src)
    assert len(pages) == 2 and pages[0].entries == d13_tilde_apply(src).entries
    return pages


PAGE_FAMILIES = ("d31", "d22", "d13", "d13-tilde")


@pytest.mark.parametrize("family", PAGE_FAMILIES)
def test_worklist_eliminator_matches_the_bucket_oracle_on_pages(family):
    """d31 at K <= 64, d22 on the nine coprime pairs at K=32, d13 on a
    seeded 500 splittings of bound 1 and d13-tilde on the default
    family, each page with the pattern matrix of its kernel check."""
    for mat in page_matrices(family):
        assert_matches_bucket_oracle(mat)
        assert_matches_bucket_oracle(mat, leftover_verdicts)


@pytest.fixture
def no_scan_pivot(monkeypatch):
    """A least-fill scan that raises if it finds a pivot: the one scan
    that finds none, once the worklist is spent, still runs."""
    scan = specseq._least_fill_unit

    def refusing(cols, row_cols):
        unit = scan(cols, row_cols)
        if unit is not None:
            raise AssertionError(f"the least-fill scan found the pivot {unit}")
        return None

    monkeypatch.setattr(specseq, "_least_fill_unit", refusing)


@pytest.mark.parametrize("family", PAGE_FAMILIES)
def test_pages_eliminate_from_the_worklist_alone(family, no_scan_pivot):
    for mat in page_matrices(family):
        assert leftover_verdicts(mat)[1:] == (0, True)


def test_report_eliminates_from_the_worklist_alone(no_scan_pivot, capsys):
    assert cli.main(["report"]) == 0
    assert '"ok": true' in capsys.readouterr().out


def test_least_fill_scan_takes_the_pivot_of_least_fill():
    # no fill-0 unit; the first one, (1, 0), has fill 2 * 2, and the
    # least fill, 1 * 2, is first reached at (0, 1)
    dense = [[2, 1, 0], [1, 2, 1], [0, 1, 1], [2, 0, 3]]
    mat = sparse(dense, 3)
    scans = []
    scan = specseq._least_fill_unit

    def recording(cols, row_cols):
        scans.append(scan(cols, row_cols))
        return scans[-1]

    with mock.patch.object(specseq, "_least_fill_unit", recording):
        assert mat.rank() == matrix_rank(dense)
    assert scans[0] == (2, 0, 1)
    assert scans[-1] is None
    assert_matches_bucket_oracle(mat)
