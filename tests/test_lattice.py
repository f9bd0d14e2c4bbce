"""Tests for the integer linear algebra layer.

Derived counts are frozen here and cross-checked against independent oracles:
sympy normal forms for the matrix utilities, and a brute-force box search for
the height-1 enumeration results.
"""

import random
from fractions import Fraction
from itertools import permutations, product

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    contains_by_lists, decompose, identity_matrix, kernel_by_full_hermite, letter_by_decompose,
    smith_factors, solve_rational, splittings_by_plane_masks, transvection, ytype_by_decompose,
)
from torelli3 import lattice
from torelli3.lattice import (
    A1, A2, A3, B1, B2, B3, BASIS, ZERO,
    HVector, Splitting, SymplecticSubgroup, STANDARD_SPLITTING,
    InternalInconsistencyError, UsageError,
    bareiss_determinant, enumerate_splittings, enumerate_symplectic_rank2,
    form_row, hermite_row_form, intersection, is_saturated, is_symplectic_rank2,
    kernel_basis, matrix_rank, orthogonal_complement,
    primitive_part, saturate, solve_integer,
    splitting_type_wrt_x,
    splitting_type_wrt_y, transvection_matrix, apply_matrix,
    transform_splitting,
)
from torelli3.surface import DecompGraph

# frozen enumeration results, confirmed by the box oracle below
RANK2_HEIGHT1_COUNT = 4767
RANK2_HEIGHT1_PAIRING_MINUS_ONE = 1740
SPLITTINGS_BOUND1_COUNT = 12657
PLANES_ORTHOGONAL_TO_A1B1 = 70
SPLITTINGS_THROUGH_A1B1 = 33


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


# ---------------------------------------------------------------------------
# ranks and determinants against sympy


def test_rank_matches_sympy_random():
    rng = random.Random(13)
    for _ in range(80):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        m = random_matrix(rng, r, c, -4, 4)
        assert matrix_rank(m) == sympy.Matrix(m).rank()


def test_bareiss_matches_sympy_random():
    rng = random.Random(17)
    for _ in range(80):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n)
        assert bareiss_determinant(m) == sympy.Matrix(m).det()


# ---------------------------------------------------------------------------
# fraction-free elimination

SMALL_ENTRIES = (0, 1, -1, 2, -2, 3, -3)


@st.composite
def small_matrices(draw, max_rows=5, max_cols=5):
    """Matrices with entries in {0, +-1, +-2, +-3}.

    Some columns are zero and some rows are combinations of others, so
    rank-deficient inputs are common.
    """
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    m = [
        draw(st.lists(st.sampled_from(SMALL_ENTRIES), min_size=ncols, max_size=ncols))
        for _ in range(nrows)
    ]
    for j in draw(st.sets(st.integers(0, ncols - 1), max_size=ncols)):
        for row in m:
            row[j] = 0
    if nrows > 1 and draw(st.booleans()):
        k = draw(st.sampled_from((1, -1, 2)))
        m[-1] = [a + k * b for a, b in zip(m[0], m[1 % (nrows - 1)])]
    return m


def snf_rank(m):
    return len(smith_factors(m, len(m[0])))


@settings(max_examples=300, deadline=None)
@given(small_matrices(max_rows=6, max_cols=6))
def test_echelon_rank_matches_snf_and_sympy(m):
    assert matrix_rank(m) == snf_rank(m) == sympy.Matrix(m).rank()


@settings(max_examples=300, deadline=None)
@given(small_matrices(max_rows=6, max_cols=6), st.data())
def test_solve_integer_matches_rational_oracle(m, data):
    cols = len(m[0])
    if data.draw(st.booleans()):
        x = data.draw(st.lists(st.integers(-3, 3), min_size=cols, max_size=cols))
        target = [sum(a * v for a, v in zip(row, x)) for row in m]
    else:
        target = data.draw(
            st.lists(st.integers(-4, 4), min_size=len(m), max_size=len(m))
        )
    rank, sol, _ = solve_integer(m, target)
    assert rank == sympy.Matrix(m).rank()
    want = solve_rational(m, target)
    if want is None or any(v.denominator != 1 for v in want):
        assert sol is None
    else:
        assert sol == [int(v) for v in want]


def test_solve_integer_rejects_fractional_and_inconsistent():
    assert solve_integer([[2], [0]], [1, 0]) == (1, None, None)
    assert solve_integer([[2], [4]], [2, 4]) == (1, [1], None)
    assert solve_integer([[1, 1], [1, 1]], [0, 1]) == (1, None, [-1, 1])
    assert solve_integer([[0, 2], [0, 0]], [6, 0]) == (1, [0, 3], [2, 0])


def signs(v):
    return [(k > 0) - (k < 0) for k in v]


@settings(max_examples=300, deadline=None)
@given(small_matrices(max_rows=5, max_cols=6), st.data())
def test_kernel_line_is_a_multiple_of_kernel_basis(m, data):
    ncols = len(m[0])
    ker = kernel_basis(m, ncols)
    # the line of m is read from the echelon of [m | target], whatever target
    target = data.draw(st.lists(st.integers(-4, 4), min_size=len(m), max_size=len(m)))
    for rhs in ([0] * len(m), target):
        gen = solve_integer(m, rhs)[2]
        if len(ker) != 1:
            assert gen is None
            continue
        (ref,) = ker
        assert any(gen)
        assert all(sum(a * v for a, v in zip(row, gen)) == 0 for row in m)
        # proportional with a nonzero ratio, so the sign pattern agrees up to sign
        assert all(gen[i] * ref[j] == gen[j] * ref[i] for i in range(ncols) for j in range(ncols))
        assert signs(gen) in (signs(ref), signs(-k for k in ref))


def test_kernel_line_refuses_to_leave_the_integers(monkeypatch):
    # an echelon of [m | 0] whose last pivot does not clear the denominators
    monkeypatch.setattr(
        lattice, "echelon", lambda m, n: ([[2, 0, 1, 0], [0, 3, 1, 0]], [0, 1], 1)
    )
    with pytest.raises(InternalInconsistencyError, match="left the integers"):
        solve_integer([[1, 0, 0]], [0])


def test_bareiss_determinant_sign_follows_row_swaps():
    assert bareiss_determinant([[0, 1], [1, 0]]) == -1
    assert bareiss_determinant([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert bareiss_determinant([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1
    assert bareiss_determinant([[1, 2], [2, 4]]) == 0
    assert bareiss_determinant([]) == 1


def snf_primitive(rows):
    return all(f == 1 for f in smith_factors(rows, 6))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4), st.data())
def test_minor_gcd_primitivity_matches_smith_factors(nrows, data):
    rows = [
        data.draw(st.lists(st.sampled_from(SMALL_ENTRIES), min_size=6, max_size=6))
        for _ in range(nrows)
    ]
    if data.draw(st.booleans()):
        k = data.draw(st.sampled_from((2, 3)))
        rows[0] = [k * v for v in rows[0]]
    try:
        SymplecticSubgroup(rows)
        accepted = True
    except ValueError as err:
        assert "non-primitive" in str(err)
        accepted = False
    assert accepted == snf_primitive(rows)


@pytest.mark.parametrize(
    "rows",
    [
        [[2, 0, 0, 0, 0, 0]],
        [[1, 1, 0, 0, 0, 0], [1, -1, 0, 0, 0, 0]],
        [[1, 0, 1, 0, 0, 0], [0, 2, 0, 0, 0, 0], [0, 0, 2, 0, 0, 0]],
        [[0, 0, 0, 0, 3, 3]],
    ],
)
def test_non_primitive_rows_rejected(rows):
    assert not snf_primitive(rows)
    with pytest.raises(ValueError, match="generators span a non-primitive sublattice"):
        SymplecticSubgroup(rows)


# ---------------------------------------------------------------------------
# Hermite form, kernels, saturation


def _hermite_shape_ok(h):
    pivots = []
    for row in h:
        j = next(i for i, x in enumerate(row) if x != 0)
        assert row[j] > 0
        pivots.append(j)
    assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
    for r, row in enumerate(h):
        for above in h[:r]:
            assert 0 <= above[pivots[r]] < row[pivots[r]]


def test_hermite_shape_and_idempotence_random():
    rng = random.Random(19)
    for _ in range(100):
        r, c = rng.randint(1, 5), rng.randint(2, 6)
        m = random_matrix(rng, r, c)
        h = hermite_row_form(m)
        _hermite_shape_ok(h)
        assert hermite_row_form(h) == h


def test_hermite_canonical_under_row_operations():
    rng = random.Random(23)
    for _ in range(60):
        r, c = rng.randint(2, 4), rng.randint(3, 6)
        m = random_matrix(rng, r, c, -5, 5)
        h = hermite_row_form(m)
        mixed = [list(row) for row in m]
        for _ in range(6):
            i, j = rng.sample(range(r), 2)
            k = rng.randint(-3, 3)
            mixed[i] = [x + k * y for x, y in zip(mixed[i], mixed[j])]
        if rng.random() < 0.5:
            i, j = rng.sample(range(r), 2)
            mixed[i], mixed[j] = mixed[j], mixed[i]
        assert hermite_row_form(mixed) == h


def test_kernel_annihilates_and_is_saturated():
    rng = random.Random(29)
    for _ in range(80):
        r, c = rng.randint(1, 4), rng.randint(2, 6)
        m = random_matrix(rng, r, c, -5, 5)
        ker = kernel_basis(m)
        assert len(ker) == c - matrix_rank(m)
        for x in ker:
            assert all(sum(a * b for a, b in zip(row, x)) == 0 for row in m)
        # saturated: every invariant factor of the kernel rows is 1
        assert smith_factors(ker, c) == [1] * len(ker)


def test_kernel_of_empty_matrix_needs_ncols():
    assert len(kernel_basis([], 6)) == 6
    with pytest.raises(ValueError):
        kernel_basis([])


@st.composite
def lattice_matrices(draw):
    """(rows, column count): 0-6 rows, 1-8 columns, entries in -4..4.

    Half the time one row is a multiple k >= 2 of a primitive row, so the
    rows often span a lattice that is not saturated.
    """
    ncols = draw(st.integers(1, 8))
    entries = st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(entries, max_size=6))
    if rows and draw(st.booleans()):
        k = draw(st.integers(2, 4))
        rows[draw(st.integers(0, len(rows) - 1))] = [k * v for v in draw(entries)]
    return rows, ncols


@settings(max_examples=300, deadline=None)
@given(lattice_matrices())
def test_hermite_kernel_and_saturation_against_sympy_smith(matrix):
    """sympy's Smith form is the oracle, so this shares no code with the
    Hermite route under test.  The kernel rows, reduced alone, are also
    those of the whole Hermite form of [m^T | I], row for row."""
    m, ncols = matrix
    ker = kernel_basis(m, ncols)
    assert ker == kernel_by_full_hermite(m, ncols)
    for x in ker:
        assert all(sum(a * b for a, b in zip(row, x)) == 0 for row in m)
    rank = len(smith_factors(m, ncols))
    assert len(ker) == ncols - rank
    assert tuple(ker) == hermite_row_form(ker)
    assert smith_factors(ker, ncols) == [1] * len(ker)
    assert is_saturated(m, ncols) == all(f == 1 for f in smith_factors(m, ncols))


def test_saturate_contains_originals():
    rng = random.Random(31)
    for _ in range(60):
        r = rng.randint(1, 3)
        m = random_matrix(rng, r, 6, -4, 4)
        sat = saturate(m, 6)
        assert matrix_rank(sat) == matrix_rank(m)
        assert smith_factors(sat, 6) == [1] * len(sat)
        for row in m:
            sol = solve_rational([list(col) for col in zip(*sat)], row) if sat else (
                [] if not any(row) else None
            )
            assert sol is not None
            assert all(x.denominator == 1 for x in sol)


def test_solve_rational_roundtrip_and_inconsistency():
    rng = random.Random(37)
    for _ in range(80):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        m = random_matrix(rng, r, c)
        x = [rng.randint(-5, 5) for _ in range(c)]
        b = [sum(a * v for a, v in zip(row, x)) for row in m]
        sol = solve_rational(m, b)
        assert sol is not None
        got = [sum(Fraction(a) * v for a, v in zip(row, sol)) for row in m]
        assert got == [Fraction(v) for v in b]
    assert solve_rational([[1, 1], [1, 1]], [0, 1]) is None


# ---------------------------------------------------------------------------
# pairing and vectors


def test_intersection_spec_value():
    assert intersection(A1 + 2 * B2, 3 * A2 - B1) == -7


def test_basis_hyperbolic_pairs():
    for i, (a, b) in enumerate(((A1, B1), (A2, B2), (A3, B3))):
        assert intersection(a, b) == 1
        assert intersection(b, a) == -1
        for j, other in enumerate(BASIS):
            if other not in (a, b):
                assert intersection(a, other) == 0


# the pairing as first defined: a sum over this Gram matrix of three
# hyperbolic planes, kept as the reference for the closed forms
GRAM = (
    (0, 1, 0, 0, 0, 0),
    (-1, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0),
    (0, 0, -1, 0, 0, 0),
    (0, 0, 0, 0, 0, 1),
    (0, 0, 0, 0, -1, 0),
)

COORDS = st.lists(st.integers(-50, 50), min_size=6, max_size=6)


@settings(max_examples=200, deadline=None)
@given(COORDS, COORDS)
def test_closed_form_pairing_matches_gram_sum(u, v):
    gram_sum = sum(u[i] * GRAM[i][j] * v[j] for i in range(6) for j in range(6))
    assert intersection(HVector(u), HVector(v)) == gram_sum
    assert sum(a * b for a, b in zip(form_row(HVector(u)), v)) == gram_sum
    j = sympy.Matrix(GRAM)
    assert (sympy.Matrix([u]) * j * sympy.Matrix(v))[0, 0] == gram_sum


def test_intersection_antisymmetric_bilinear():
    rng = random.Random(41)
    for _ in range(100):
        u = HVector([rng.randint(-6, 6) for _ in range(6)])
        v = HVector([rng.randint(-6, 6) for _ in range(6)])
        w = HVector([rng.randint(-6, 6) for _ in range(6)])
        k = rng.randint(-4, 4)
        assert intersection(u, v) == -intersection(v, u)
        assert intersection(u, u) == 0
        assert intersection(u + k * v, w) == intersection(u, w) + k * intersection(v, w)


# ---------------------------------------------------------------------------
# subgroups


def test_subgroup_rejects_non_primitive():
    with pytest.raises(ValueError):
        SymplecticSubgroup([2 * A1])
    with pytest.raises(ValueError):
        SymplecticSubgroup([A1 + B1, A1 - B1])


def test_spanned_by_saturates():
    u = SymplecticSubgroup.spanned_by([2 * A1, 3 * B2])
    assert u.rank == 2
    assert u.contains(A1) and u.contains(B2)
    v = SymplecticSubgroup.spanned_by([A1 + B1, A1 - B1])
    assert v.contains(B1)


small_generators = st.lists(st.integers(-3, 3), min_size=6, max_size=6).map(tuple)


@st.composite
def generator_lists(draw):
    """0 to 4 generators in [-3, 3]^6.  Some are 2 or 3 times a vector in
    [-1, 1]^6, so not primitive, and some negate an earlier one, so the
    list is dependent; random ones often span a non-saturated lattice."""
    unit = st.lists(st.integers(-1, 1), min_size=6, max_size=6)
    gens = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(("free", "multiple", "negated") if gens else ("free",)))
        if kind == "free":
            gens.append(draw(small_generators))
        elif kind == "multiple":
            k = draw(st.integers(2, 3))
            gens.append(tuple(k * x for x in draw(unit)))
        else:
            gens.append(tuple(-x for x in draw(st.sampled_from(gens))))
    return gens


@settings(max_examples=200, deadline=None)
@given(generator_lists())
def test_spanned_by_passes_the_public_constructor(gens):
    """``spanned_by`` builds trusted: its basis is the one the checked
    constructor keeps, with invariant factors all 1 by sympy's Smith
    form, and it holds every generator in a lattice of their rank."""
    u = SymplecticSubgroup.spanned_by(gens)
    assert SymplecticSubgroup(u.basis).basis == u.basis
    assert smith_factors(u.basis, 6) == [1] * u.rank
    assert u.rank == (sympy.Matrix(gens).rank() if gens else 0)
    assert all(u.contains(g) for g in gens)


@pytest.mark.parametrize("length", (5, 7))
def test_a_generator_of_the_wrong_length_is_a_usage_error(length):
    # a 7th coordinate was dropped, and a 5-coordinate row was an IndexError
    row = (1,) + (0,) * (length - 2) + (5,)
    with pytest.raises(UsageError, match="every row needs 6 entries"):
        kernel_basis([row], 6)
    with pytest.raises(UsageError, match="every row needs 6 entries"):
        kernel_basis([A2.coords, row])
    with pytest.raises(UsageError, match="every row needs 6 entries"):
        SymplecticSubgroup.spanned_by([A1, row])


def test_subgroup_contains():
    u = SymplecticSubgroup([A1, B1])
    assert u.contains(3 * A1 - 2 * B1)
    assert not u.contains(A2)
    assert u.contains(ZERO)


@pytest.mark.parametrize(
    "coords, message",
    [
        ((0, 0, 0, 0, 1, 0, 5), "expected 6 coordinates, got 7"),
        ((0, 0, 0, 0, 1), "expected 6 coordinates, got 5"),
        ((0, 0, 0, 0, 1.5, 0), "coordinates must be integers"),
    ],
    ids=["seven", "five", "float"],
)
def test_contains_refuses_a_bad_tuple(coords, message):
    """A 7th entry was dropped (True), 5 entries raised ``IndexError``
    and a float entry read False; each is a usage error."""
    u = SymplecticSubgroup.spanned_by([A3, B3])
    with pytest.raises(UsageError, match=message):
        u.contains(coords)


small_vectors = st.lists(st.integers(-4, 4), min_size=6, max_size=6).map(tuple)


@settings(max_examples=200, deadline=None)
@given(st.lists(small_vectors, min_size=1, max_size=4), st.lists(small_vectors, max_size=4),
       st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_contains_matches_the_list_oracle(generators, others, coefficients):
    """Random saturated subgroups against vectors inside them (integer
    combinations of their basis rows) and random vectors."""
    u = SymplecticSubgroup.spanned_by(generators)
    inside = tuple(
        sum(k * row[i] for k, row in zip(coefficients, u.basis)) for i in range(6)
    )
    for v in [inside, HVector(inside)] + others + [HVector(w) for w in others]:
        assert u.contains(v) == contains_by_lists(u, v)
    assert u.contains(inside)


def test_orthogonal_complement_spec_example():
    u = SymplecticSubgroup.spanned_by([A1 + A2, B1])
    comp = orthogonal_complement(u)
    assert comp.rank == 4
    for v in (A3, B3, B2 - B1):
        assert comp.contains(v)
    for x in u.vectors():
        for y in comp.vectors():
            assert intersection(x, y) == 0


def test_complement_involution_on_symplectic_planes():
    for u in (SymplecticSubgroup([A1, B1]), SymplecticSubgroup([A2 + A3, B3])):
        assert orthogonal_complement(orthogonal_complement(u)).key() == u.key()


def test_complement_of_zero_subgroup_is_everything():
    zero = SymplecticSubgroup([])
    assert zero.rank == 0
    assert orthogonal_complement(zero).rank == 6


def test_is_symplectic_rank2():
    assert is_symplectic_rank2(SymplecticSubgroup([A1, B1]))
    assert not is_symplectic_rank2(SymplecticSubgroup([A1, A2]))
    with pytest.raises(ValueError):
        is_symplectic_rank2(SymplecticSubgroup([A1]))


# ---------------------------------------------------------------------------
# splittings


def test_standard_splitting_decompose():
    x = A1 + 2 * B2 - A3
    comps = decompose(STANDARD_SPLITTING, x)
    assert comps == (A1, 2 * B2, -1 * A3)
    assert comps[0] + comps[1] + comps[2] == x


def _decompose_oracle(splitting, x):
    """The decomposition as first computed: an exact solve against the
    stacked part bases, kept as the reference for the closed form."""
    stacked = [row for p in splitting.parts for row in p.basis]
    sol = solve_rational([list(col) for col in zip(*stacked)], list(x.coords))
    assert sol is not None and all(c.denominator == 1 for c in sol)
    comps = []
    for i, p in enumerate(splitting.parts):
        s, t = int(sol[2 * i]), int(sol[2 * i + 1])
        comps.append(HVector(s * a + t * b for a, b in zip(*p.basis)))
    return tuple(comps)


def _moved_standard_splitting(moves):
    s = STANDARD_SPLITTING
    for c, power in moves:
        s = transform_splitting(transvection_matrix(HVector(c), power), s)
    return s


MOVES = st.lists(
    st.tuples(
        st.lists(st.integers(-2, 2), min_size=6, max_size=6),
        st.sampled_from((-2, -1, 1, 2)),
    ),
    max_size=4,
)
SPLITTINGS = st.one_of(
    st.integers(0, SPLITTINGS_BOUND1_COUNT - 1).map(lambda i: enumerate_splittings(1)[i]),
    MOVES.map(_moved_standard_splitting),
)


@settings(max_examples=200, deadline=None)
@given(SPLITTINGS, COORDS)
def test_decompose_matches_linear_solve(splitting, coords):
    x = HVector(coords)
    want = _decompose_oracle(splitting, x)
    pairs = splitting.coefficients(x.coords)
    comps = [
        tuple(s * a + t * b for a, b in zip(*part.basis))
        for (s, t), part in zip(pairs, splitting.parts)
    ]
    assert tuple(HVector(c) for c in comps) == want
    assert decompose(splitting, x) == want
    for comp, part in zip(comps, splitting.parts):
        assert part.contains(comp)
    assert tuple(map(sum, zip(*comps))) == x.coords
    if not x.is_zero():
        assert splitting_type_wrt_x(x, splitting) == letter_by_decompose(x, splitting)


def test_plane_pairings_take_both_signs():
    # the closed form multiplies by w = <u, v>, so both signs must occur
    # among the Hermite bases the enumeration and the splittings use
    signs = [intersection(*u.vectors()) for u in enumerate_symplectic_rank2(1)]
    assert signs.count(-1) == RANK2_HEIGHT1_PAIRING_MINUS_ONE
    assert signs.count(1) == RANK2_HEIGHT1_COUNT - RANK2_HEIGHT1_PAIRING_MINUS_ONE
    w = {intersection(*p.vectors()) for s in enumerate_splittings(1) for p in s.parts}
    assert w == {1, -1}


def test_splitting_rejects_bad_parts():
    with pytest.raises(ValueError):
        Splitting([
            SymplecticSubgroup([A1, B1]),
            SymplecticSubgroup([A2, B2]),
            SymplecticSubgroup([A2, B2]),
        ])
    with pytest.raises(ValueError):
        Splitting([
            SymplecticSubgroup([A1, B1]),
            SymplecticSubgroup([A2, B2]),
            SymplecticSubgroup([A3, B3 + A2]),
        ])
    with pytest.raises(ValueError):
        Splitting([
            SymplecticSubgroup([A1, B1]),
            SymplecticSubgroup([A2, B2]),
            SymplecticSubgroup([A3, A2]),  # isotropic, not symplectic
        ])


def test_splitting_checks_every_cross_pairing():
    # <a3, b3 + a1> is a unimodular plane orthogonal to <a2, b2> but not to
    # <a1, b1>, and the stacked basis still has determinant +-1, so only the
    # pairing checks can reject it, whichever two positions the planes take
    planes = (
        SymplecticSubgroup([A1, B1]),
        SymplecticSubgroup([A2, B2]),
        SymplecticSubgroup([A3, B3 + A1]),
    )
    stacked = [row for p in planes for row in p.basis]
    assert bareiss_determinant(stacked) in (1, -1)
    for order in permutations(range(3)):
        bad = tuple(sorted((order.index(0), order.index(2))))
        with pytest.raises(ValueError, match="parts %d and %d are not" % bad):
            Splitting([planes[i] for i in order])


def test_splitting_type_wrt_x_examples():
    s = STANDARD_SPLITTING
    assert splitting_type_wrt_x(A1, s) == ("a", (0, 1, 2))
    assert splitting_type_wrt_x(B2, s) == ("a", (1, 0, 2))
    assert splitting_type_wrt_x(A1 + B2, s) == ("b", (0, 1, 2))
    assert splitting_type_wrt_x(A2 - B3, s) == ("b", (1, 2, 0))
    assert splitting_type_wrt_x(A1 + A2 + A3, s) == ("c", (0, 1, 2))
    with pytest.raises(ValueError):
        splitting_type_wrt_x(ZERO, s)


def test_splitting_type_wrt_y_examples():
    s = STANDARD_SPLITTING
    assert splitting_type_wrt_y(A2, s, 0) == (1, (1, 2))
    assert splitting_type_wrt_y(B1 + A2, s, 0) == (2, (1, 2))
    assert splitting_type_wrt_y(A2 + A3, s, 0) == (3, (1, 2))
    assert splitting_type_wrt_y(B1 + A2 + A3, s, 0) == (4, (1, 2))
    assert splitting_type_wrt_y(B3, s, 1) == (1, (2, 0))
    assert splitting_type_wrt_y(A1 + B2 + A3, s, 2) == (4, (0, 1))
    with pytest.raises(ValueError):
        splitting_type_wrt_y(B1, s, 0)
    with pytest.raises(ValueError):
        splitting_type_wrt_y(A2, s, 5)


def _outcome(classify, *args):
    try:
        return classify(*args)
    except ValueError as err:
        return str(err)


def test_splitting_types_match_the_decompose_route_on_bound_1():
    # the coefficient-pair route against HVector components and is_zero(),
    # over every splitting of bound 1 and each part as the x-part of
    # y = a2 + a3, then with one seeded random nonzero class per splitting
    # as x and as y
    y = A2 + A3
    rng = random.Random(2401)
    letters, ytypes = set(), set()
    for s in enumerate_splittings(1):
        letter = splitting_type_wrt_x(A1, s)
        assert letter == letter_by_decompose(A1, s)
        letters.add(letter[0])
        for part in range(3):
            got = _outcome(splitting_type_wrt_y, y, s, part)
            assert got == _outcome(ytype_by_decompose, y, s, part)
            ytypes.add(got if isinstance(got, str) else got[0])
        v = HVector([rng.randint(-2, 2) for _ in range(6)])
        if v.is_zero():
            continue
        assert splitting_type_wrt_x(v, s) == letter_by_decompose(v, s)
        part = rng.randrange(3)
        assert _outcome(splitting_type_wrt_y, v, s, part) == _outcome(ytype_by_decompose, v, s, part)
    assert letters == {"a", "b", "c"}
    assert ytypes == {1, 2, 3, 4, "y lies in the part containing x; no type applies"}


def test_primitive_part():
    k, a = primitive_part(HVector((2, 0, 4, 0, 0, 0)))
    assert (k, a) == (2, HVector((1, 0, 2, 0, 0, 0)))
    k, a = primitive_part(-3 * B3)
    assert k == 3 and a == -1 * B3
    with pytest.raises(ValueError):
        primitive_part(ZERO)


# ---------------------------------------------------------------------------
# transvections


def test_transvection_matrix_agrees_with_formula():
    rng = random.Random(43)
    for _ in range(60):
        c = HVector([rng.randint(-3, 3) for _ in range(6)])
        v = HVector([rng.randint(-5, 5) for _ in range(6)])
        p = rng.choice((-2, -1, 1, 2))
        mat = transvection_matrix(c, p)
        assert apply_matrix(mat, v) == transvection(c, v, p)


def test_transvection_preserves_pairing_and_fixes_axis():
    rng = random.Random(47)
    for _ in range(60):
        c = HVector([rng.randint(-2, 2) for _ in range(6)])
        u = HVector([rng.randint(-5, 5) for _ in range(6)])
        v = HVector([rng.randint(-5, 5) for _ in range(6)])
        assert intersection(transvection(c, u), transvection(c, v)) == intersection(u, v)
        assert transvection(c, c) == c
        assert transvection(c, transvection(c, v), -1) == v


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-5, 5), min_size=6, max_size=6),
    st.lists(st.integers(-5, 5), min_size=6, max_size=6),
    st.lists(st.integers(-5, 5), min_size=6, max_size=6),
    st.integers(-3, 3),
)
def test_transvect_matches_the_formula_and_the_matrix(c, u, v, power):
    c, u, v = HVector(c), HVector(u), HVector(v)
    image = lattice._transvect(c.coords, v.coords, power)
    assert HVector(image) == transvection(c, v, power)
    assert HVector(image) == apply_matrix(transvection_matrix(c, power), v)
    other = lattice._transvect(c.coords, u.coords, power)
    assert lattice._pairing(other, image) == intersection(u, v)


def test_transvection_moves_splittings():
    mat = transvection_matrix(B1 + A2)
    moved = transform_splitting(mat, STANDARD_SPLITTING)
    assert moved.unordered_key() != STANDARD_SPLITTING.unordered_key()
    # still a valid splitting: constructor validated it, spot check decompose
    x = A1 + A2
    comps = decompose(moved, x)
    assert comps[0] + comps[1] + comps[2] == x


# ---------------------------------------------------------------------------
# enumeration with frozen counts and the box oracle


def test_enumerate_rank2_height1_frozen_count():
    subs = enumerate_symplectic_rank2(1)
    assert len(subs) == RANK2_HEIGHT1_COUNT
    keys = [u.key() for u in subs]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    for u in subs:
        assert u.height() <= 1
        assert is_symplectic_rank2(u)
    assert SymplecticSubgroup([A1, B1]).key() in set(keys)
    with pytest.raises(ValueError):
        enumerate_symplectic_rank2(0)


def _box_oracle_height1_count():
    """Independent recount of height-1 unimodular symplectic planes.

    Any such plane has a canonical basis with entries in {-1,0,1}, so it is
    spanned by a pair of box vectors with pairing +-1.  Lattices are deduped
    by their full box-point sets (each set contains a spanning pair, so the
    key is faithful).  A lattice qualifies iff some Hermite-shaped pair of
    its box points spans it; box points have (u,v)-coefficients bounded by 2
    in absolute value, hence the [-2,2] combination window is complete.

    Each unordered pair {u, v} is visited once, v after u.  The pairing
    is alternating, so (v, u) pairs to minus what (u, v) does and passes
    the +-1 test exactly when (u, v) does; the window [-2,2]^2 is
    symmetric in its two coefficients, so (v, u) gives the same box-point
    set; and u = v pairs to 0.  So the same lattices are found.
    """
    gram = [[0] * 6 for _ in range(6)]
    for i in (0, 2, 4):
        gram[i][i + 1] = 1
        gram[i + 1][i] = -1

    def form(u):
        return tuple(sum(u[i] * gram[i][j] for i in range(6)) for j in range(6))

    vecs = [v for v in product((-1, 0, 1), repeat=6) if any(v)]
    forms = {v: form(v) for v in vecs}
    reps = {}
    for index, u in enumerate(vecs):
        fu = forms[u]
        for v in vecs[index + 1 :]:
            p = sum(a * b for a, b in zip(fu, v))
            if p != 1 and p != -1:
                continue
            pts = []
            for s in range(-2, 3):
                for t in range(-2, 3):
                    w = tuple(s * a + t * b for a, b in zip(u, v))
                    if all(-1 <= x <= 1 for x in w):
                        pts.append(w)
            reps.setdefault(frozenset(pts), (u, v))

    def pivot(r):
        return next((i for i, x in enumerate(r) if x != 0), None)

    def hermite_shaped(p, q):
        j1, j2 = pivot(p), pivot(q)
        if j1 is None or j2 is None or j1 >= j2:
            return False
        return p[j1] > 0 and q[j2] > 0 and 0 <= p[j2] < q[j2]

    def spans(p, q, u, v):
        pick = None
        for i in range(6):
            for j in range(i + 1, 6):
                d = u[i] * v[j] - u[j] * v[i]
                if d != 0:
                    pick = (i, j, d)
                    break
            if pick:
                break
        i, j, d = pick

        def coeff(w):
            return (
                Fraction(w[i] * v[j] - w[j] * v[i], d),
                Fraction(u[i] * w[j] - u[j] * w[i], d),
            )

        a1, b1 = coeff(p)
        a2, b2 = coeff(q)
        return abs(a1 * b2 - a2 * b1) == 1

    count = 0
    for pts, (u, v) in reps.items():
        pl = sorted(pts)
        if any(hermite_shaped(p, q) and spans(p, q, u, v) for p in pl for q in pl):
            count += 1
    return count


def test_enumerate_rank2_completeness_against_box_oracle():
    assert _box_oracle_height1_count() == RANK2_HEIGHT1_COUNT
    assert len(enumerate_symplectic_rank2(1)) == RANK2_HEIGHT1_COUNT


def test_enumerate_splittings_frozen_count():
    spl = enumerate_splittings(1)
    assert len(spl) == SPLITTINGS_BOUND1_COUNT
    keys = {s.unordered_key() for s in spl}
    assert len(keys) == len(spl)
    ordered = [s.ordered_key() for s in spl]
    assert ordered == sorted(ordered)
    assert STANDARD_SPLITTING.unordered_key() in keys
    with pytest.raises(ValueError):
        enumerate_splittings(0)


def _ordered_keys(splittings):
    return [s.ordered_key() for s in splittings]


def test_splittings_of_bound_1_match_the_plane_mask_oracle():
    want = _ordered_keys(splittings_by_plane_masks(enumerate_symplectic_rank2(1)))
    assert len(want) == SPLITTINGS_BOUND1_COUNT
    assert _ordered_keys(enumerate_splittings(1)) == want


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from((0.05, 0.3, 0.6, 0.9)))
def test_splittings_among_plane_sublists_match_the_oracle(seed, density):
    """On a sorted random sublist of the height-1 planes, where the forced
    third part of an orthogonal pair is often missing, the row-mask route
    finds the same splittings in the same order as the plane-mask one."""
    rng = random.Random(seed)
    planes = [u for u in enumerate_symplectic_rank2(1) if rng.random() < density]
    want = _ordered_keys(splittings_by_plane_masks(planes))
    assert _ordered_keys(lattice._splittings_among(planes)) == want


def _planes_orthogonal_to(*parts):
    """The height-1 planes whose basis rows pair to 0 with every basis
    row of ``parts``, by a plain scan of pairings."""
    rows = [row for p in parts for row in p.basis]
    return [
        w for w in enumerate_symplectic_rank2(1)
        if all(lattice._pairing(r, s) == 0 for r in rows for s in w.basis)
    ]


@settings(max_examples=10, deadline=None)
@given(st.integers(0, SPLITTINGS_BOUND1_COUNT - 1))
def test_the_third_part_of_a_splitting_is_forced(index):
    """The listed planes orthogonal to two parts of a splitting are
    exactly its third part."""
    parts = enumerate_splittings(1)[index].parts
    for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        assert _planes_orthogonal_to(parts[i], parts[j]) == [parts[k]]


@settings(max_examples=10, deadline=None)
@given(st.integers(0, RANK2_HEIGHT1_COUNT - 1), st.data())
def test_an_orthogonal_pair_in_no_splitting_has_no_third_part(index, data):
    u = enumerate_symplectic_rank2(1)[index]
    partners = {
        p for s in enumerate_splittings(1) if u.key() in s.ordered_key() for p in s.ordered_key()
    }
    lonely = [v for v in _planes_orthogonal_to(u) if v.key() not in partners]
    assume(lonely)
    v = data.draw(st.sampled_from(lonely))
    assert _planes_orthogonal_to(u, v) == []


def test_splittings_through_fixed_part_recounted():
    u = SymplecticSubgroup([A1, B1])
    subs = enumerate_symplectic_rank2(1)

    def orth(p, q):
        return all(
            intersection(x, y) == 0 for x in p.vectors() for y in q.vectors()
        )

    ann = [v for v in subs if orth(u, v)]
    assert len(ann) == PLANES_ORTHOGONAL_TO_A1B1
    pairs = sum(
        1
        for i in range(len(ann))
        for j in range(i + 1, len(ann))
        if orth(ann[i], ann[j])
    )
    assert pairs == SPLITTINGS_THROUGH_A1B1
    through = sum(
        1 for s in enumerate_splittings(1) if u.key() in [p.key() for p in s.parts]
    )
    assert through == SPLITTINGS_THROUGH_A1B1


# ---------------------------------------------------------------------------
# the enumerators' trusted constructors against the public ones


def test_enumerated_planes_pass_the_public_constructor():
    for u in enumerate_symplectic_rank2(1):
        assert hermite_row_form(u.basis) == u.basis
        assert SymplecticSubgroup(u.basis).basis == u.basis


def test_enumerated_splittings_pass_the_public_constructor():
    for s in enumerate_splittings(1):
        assert Splitting(s.parts).ordered_key() == s.ordered_key()
        assert bareiss_determinant([row for p in s.parts for row in p.basis]) in (1, -1)


@st.composite
def hermite_candidates(draw, height=3):
    """Two rows in the Hermite shape `enumerate_symplectic_rank2` builds,
    entries in [-height, height], redrawn until their pairing is +-1."""
    span = st.integers(-height, height)
    for _ in range(30):
        j1, j2 = sorted(draw(st.lists(st.integers(0, 5), min_size=2, max_size=2, unique=True)))
        p2 = draw(st.integers(1, height))
        row1 = [0] * 6
        row1[j1] = draw(st.integers(1, height))
        row1[j2] = draw(st.integers(0, min(height, p2 - 1)))
        for j in range(j1 + 1, 6):
            if j != j2:
                row1[j] = draw(span)
        row2 = [0] * j2 + [p2] + [draw(span) for _ in range(j2 + 1, 6)]
        if intersection(HVector(row1), HVector(row2)) in (1, -1):
            return tuple(row1), tuple(row2)
    assume(False)


@settings(max_examples=200, deadline=None)
@given(hermite_candidates())
def test_hermite_candidates_with_unit_pairing_are_planes(basis):
    assert hermite_row_form(basis) == basis
    assert SymplecticSubgroup(basis).basis == basis


@settings(max_examples=200, deadline=None)
@given(st.one_of(hermite_candidates(), generator_lists()))
def test_orthogonal_complement_passes_the_public_constructor(gens):
    """``orthogonal_complement`` builds trusted on ``kernel_basis``: the
    complement of a drawn plane, or of any drawn subgroup, is the basis
    the checked constructor keeps, with invariant factors all 1 by
    sympy's Smith form, of rank 6 minus the subgroup's, and orthogonal
    to it."""
    u = SymplecticSubgroup.spanned_by(gens)
    comp = orthogonal_complement(u)
    assert SymplecticSubgroup(comp.basis).basis == comp.basis
    assert smith_factors(comp.basis, 6) == [1] * comp.rank
    assert comp.rank == 6 - u.rank
    assert all(intersection(x, y) == 0 for x in u.vectors() for y in comp.vectors())


def test_public_routes_still_reject_bad_planes_and_triples():
    u1, u2 = SymplecticSubgroup([A1, B1]), SymplecticSubgroup([A2, B2])
    with pytest.raises(ValueError, match="non-primitive"):
        SymplecticSubgroup([A3, 2 * B3])
    # <a3, a2 + 2 b3> is primitive, so spanned_by keeps it, but its pairing is 2
    skew = SymplecticSubgroup.spanned_by([A3, A2 + 2 * B3])
    assert skew.rank == 2 and not is_symplectic_rank2(skew)
    with pytest.raises(ValueError, match="unimodular"):
        Splitting([u1, u2, skew])
    with pytest.raises(ValueError, match="not orthogonal"):
        Splitting([u1, u2, SymplecticSubgroup.spanned_by([A3, B3 + A1])])
    # a shear a3 -> a3 + a1 is not symplectic: the moved third part meets b1
    shear = identity_matrix(6)
    shear[0][4] = 1
    with pytest.raises(ValueError, match="not orthogonal"):
        transform_splitting(shear, STANDARD_SPLITTING)
    # doubling b3 makes the third part non-primitive
    double = identity_matrix(6)
    double[5][5] = 2
    with pytest.raises(ValueError, match="non-primitive"):
        transform_splitting(double, STANDARD_SPLITTING)


# ---------------------------------------------------------------------------
# the checked constructors take integers only

NON_INTEGERS = (0.5, 2.0, "3")


def test_non_integer_examples_are_usage_errors():
    with pytest.raises(UsageError, match=r"coordinates must be integers, got \(0.5, 1.9"):
        HVector((0.5, 1.9, 0, 0, 0, 0))
    with pytest.raises(UsageError, match="a scalar must be an integer, got 2.7"):
        2.7 * A2
    with pytest.raises(UsageError, match="basis entries must be integers"):
        SymplecticSubgroup([(1.5, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)])
    with pytest.raises(UsageError, match=r"coordinates must be integers, got \('3'"):
        HVector(("3", 0, 0, 0, 0, 0))


def test_components_of_parts_that_are_not_orthogonal_are_an_internal_error():
    # <a3, b3 + a1> pairs with <a1, b1>, so the part formula misses x = b1;
    # the check raises under python -O as well, and the letter reads it
    parts = (SymplecticSubgroup.spanned_by(pair) for pair in ((A1, B1), (A2, B2), (A3, B3 + A1)))
    stale = Splitting._trusted(tuple(parts))
    with pytest.raises(InternalInconsistencyError, match=r"do not sum to x = \(0, 1, 0"):
        stale.coefficients(B1.coords)
    with pytest.raises(InternalInconsistencyError, match=r"do not sum to x = \(0, 1, 0"):
        splitting_type_wrt_x(B1, stale)


def test_enumerate_splittings_rejects_a_non_integer_bound():
    with pytest.raises(UsageError, match="the coefficient bound must be an integer, got 1.0"):
        enumerate_splittings(1.0)


@pytest.mark.parametrize("bad", (1.5, "2", 2.0, 1.0))
def test_enumerate_rank2_rejects_a_non_integer_height(bad):
    enumerate_symplectic_rank2(1)  # a cached int entry is not hit by 1.0
    with pytest.raises(UsageError, match=f"the height must be an integer, got {bad!r}"):
        enumerate_symplectic_rank2(bad)


@pytest.mark.parametrize("bad", NON_INTEGERS)
def test_hvector_rejects_a_non_integer_coordinate(bad):
    with pytest.raises(UsageError, match="coordinates must be integers"):
        HVector((1, 0, 0, 0, 0, bad))


@pytest.mark.parametrize("bad", NON_INTEGERS)
def test_hvector_rejects_a_non_integer_scalar(bad):
    with pytest.raises(UsageError, match="a scalar must be an integer"):
        bad * B3


@pytest.mark.parametrize("bad", NON_INTEGERS)
def test_subgroup_rejects_a_non_integer_basis_entry(bad):
    with pytest.raises(UsageError, match="basis entries must be integers"):
        SymplecticSubgroup([(1, 0, 0, 0, 0, 0), (0, bad, 0, 0, 0, 0)])
    with pytest.raises(UsageError, match="generator entries must be integers"):
        SymplecticSubgroup.spanned_by([(1, 0, 0, 0, 0, 0), (0, bad, 0, 0, 0, 0)])


def test_integer_types_still_pass():
    assert HVector((True, 0, 0, 0, 0, 0)) == A1
    assert lattice.as_int(False, "a flag") == 0
    assert (-3) * A1 == HVector((-3, 0, 0, 0, 0, 0))


@settings(max_examples=200, deadline=None)
@given(small_vectors, small_vectors, st.integers(-3, 3))
def test_hvector_arithmetic_matches_the_checked_constructor(a, b, k):
    """Sum, difference, negation and multiple, built through
    ``HVector._trusted``, equal the vectors the checked __init__ builds
    from the same coordinates, and hold a tuple of 6 ints."""
    u, v = HVector(a), HVector(b)
    for got, want in (
        (u + v, [x + y for x, y in zip(a, b)]),
        (u - v, [x - y for x, y in zip(a, b)]),
        (-u, [-x for x in a]),
        (k * u, [k * x for x in a]),
    ):
        assert got == HVector(want)
        assert type(got.coords) is tuple and len(got.coords) == 6
        assert all(type(x) is int for x in got.coords)


U11 = SymplecticSubgroup.spanned_by([A1, B1])


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: SymplecticSubgroup([(1, 0, 0, 0, 0)]),
            "basis rows must have 6 coordinates",
        ),
        (lambda: Splitting(STANDARD_SPLITTING.parts[:2]), "a splitting needs exactly 3 parts"),
        (
            lambda: Splitting([U11, U11, (A3, B3)]),
            "parts must be SymplecticSubgroup instances",
        ),
        (lambda: splitting_type_wrt_y(ZERO, STANDARD_SPLITTING, 0), "y must be nonzero"),
        (lambda: DecompGraph([], []), "a decomposition graph needs at least one vertex"),
        (lambda: DecompGraph([(0, 3)], []).endpoints("e"), "unknown edge 'e'"),
    ],
    ids=["short-row", "two-parts", "foreign-part", "zero-y", "no-vertex", "unknown-edge"],
)
def test_constructors_refuse_usage_errors(build, message):
    with pytest.raises(UsageError, match=message):
        build()
