"""Sparse unit-pivot elimination against the dense normal forms.

`SparseIntMatrix.rank` and `kernel_vectors` eliminate on ±1 pivots and
hand only a leftover block without unit entries to the dense Hermite
routes of `lattice`.  The dense rank and sympy are the oracles, and
sympy's Smith form alone decides saturation; the sparse page kernel
check is compared with the dense Hermite-form check it replaced.
"""

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_kernel_matches_pattern, smith_factors
from torelli3 import specseq
from torelli3.cycles import build_ladder
from torelli3.lattice import (
    A3,
    B3,
    SymplecticSubgroup,
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
    _kernel_matches_pattern,
    build_e1,
    d22_apply,
    d31_apply,
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
