"""Integer linear algebra on the genus-3 symplectic lattice.

The ambient lattice is Z^6 with ordered basis (a1, b1, a2, b2, a3, b3) and the
standard alternating form built from three hyperbolic planes.  Everything runs
over plain Python integers: ranks, determinants, solves and one-dimensional
kernels come from one fraction-free elimination, whose divisions are exact;
saturated kernels, saturation and canonical bases come from the one Hermite
normal form.

Matrices are sequences of rows.  Sublattices are always stored through their
Hermite canonical basis, so equal sublattices have equal keys.
"""

from functools import lru_cache
from itertools import combinations, product
from math import gcd
from operator import add, index, neg, sub


class Torelli3Error(Exception):
    """Base of the package's errors; ``exit_code`` is the CLI's exit status."""

    exit_code = 3


class UsageError(Torelli3Error, ValueError):
    """An argument outside the contract of the routine it was given to."""

    exit_code = 2


class MismatchError(Torelli3Error):
    """A computed kernel misses the pattern predicted for it."""

    exit_code = 1


class InternalInconsistencyError(Torelli3Error):
    """Two independent computations of the same quantity disagree."""

    exit_code = 3


def as_int(value, what):
    """``value`` as an int; a float, a string or any other non-integer,
    even an integral float such as 2.0, is a usage error naming ``what``."""
    try:
        return index(value)
    except TypeError:
        raise UsageError(f"{what} must be an integer, got {value!r}") from None


def as_ints(values, what):
    """The tuple of ``as_int`` of each value."""
    values = tuple(values)
    try:
        return tuple(map(index, values))
    except TypeError:
        raise UsageError(f"{what} must be integers, got {values!r}") from None


class HVector:
    """A lattice element in the fixed basis (a1, b1, a2, b2, a3, b3)."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        coords = as_ints(coords, "coordinates")
        if len(coords) != 6:
            raise UsageError("expected 6 coordinates, got %d" % len(coords))
        self.coords = coords

    @classmethod
    def _trusted(cls, coords):
        """A vector on a tuple of 6 ints, with no checks run.

        The sum, difference, negation and integer multiple of vectors
        (``__add__``, ``__sub__``, ``__neg__`` and ``__rmul__``, whose
        scalar passes ``as_int``) build their results this way: each is
        a tuple of 6 ints because its operands are, so the integer test
        of __init__ proves nothing there.  Sums, differences, negations
        and multiples of random vectors equal the vectors __init__ builds
        from the same coordinates in
        ``test_hvector_arithmetic_matches_the_checked_constructor``.
        """
        v = object.__new__(cls)
        v.coords = coords
        return v

    def __add__(self, other):
        return HVector._trusted(tuple(map(add, self.coords, other.coords)))

    def __sub__(self, other):
        return HVector._trusted(tuple(map(sub, self.coords, other.coords)))

    def __neg__(self):
        return HVector._trusted(tuple(map(neg, self.coords)))

    def __rmul__(self, k):
        k = as_int(k, "a scalar")
        return HVector._trusted(tuple(k * x for x in self.coords))

    def __eq__(self, other):
        return isinstance(other, HVector) and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def is_zero(self):
        return all(x == 0 for x in self.coords)

    def __repr__(self):
        names = ("a1", "b1", "a2", "b2", "a3", "b3")
        terms = []
        for c, name in zip(self.coords, names):
            if c == 0:
                continue
            if c == 1:
                terms.append("+%s" % name)
            elif c == -1:
                terms.append("-%s" % name)
            else:
                terms.append("%+d%s" % (c, name))
        return "HVector(%s)" % ("".join(terms).lstrip("+") or "0")


A1 = HVector((1, 0, 0, 0, 0, 0))
B1 = HVector((0, 1, 0, 0, 0, 0))
A2 = HVector((0, 0, 1, 0, 0, 0))
B2 = HVector((0, 0, 0, 1, 0, 0))
A3 = HVector((0, 0, 0, 0, 1, 0))
B3 = HVector((0, 0, 0, 0, 0, 1))
ZERO = HVector((0, 0, 0, 0, 0, 0))
BASIS = (A1, B1, A2, B2, A3, B3)


def _pairing(a, b):
    """The alternating form on coordinate tuples: the one pairing formula."""
    return a[0] * b[1] - a[1] * b[0] + a[2] * b[3] - a[3] * b[2] + a[4] * b[5] - a[5] * b[4]


def intersection(u, v):
    """Algebraic intersection number of two classes, <a_i, b_i> = 1.

    >>> intersection(A1 + 2 * B2, 3 * A2 - B1)
    -7
    """
    return _pairing(u.coords, v.coords)


def form_row(u):
    """The linear functional <u, .> as a coefficient row."""
    return tuple(_pairing(u.coords, e.coords) for e in BASIS)


# ---------------------------------------------------------------------------
# plain integer matrix utilities


def echelon(m, ncols):
    """Row echelon form by fraction-free elimination (Bareiss, 1968).

    Returns (rows, pivots, sign): row i of the echelon has its leading
    entry in column pivots[i], and that entry is the minor of the input
    on the first i + 1 rows (in their swapped order) and the columns
    pivots[: i + 1]; sign is the parity of the row swaps.  Every division
    is exact by Sylvester's identity.  Zero rows are dropped first.
    """
    a = [list(row) for row in m if any(row)]
    pivots = []
    sign = prev = 1
    for j in range(ncols):
        r = len(pivots)
        if r == len(a):
            break
        if a[r][j] == 0:
            swap = next((i for i in range(r + 1, len(a)) if a[i][j] != 0), None)
            if swap is None:
                continue
            a[r], a[swap] = a[swap], a[r]
            sign = -sign
        top = a[r]
        pivot = top[j]
        # rows below r vanish left of column j; a row with 0 under the pivot
        # is only rescaled by pivot / prev, which is 1 when they are equal
        for row in a[r + 1 :]:
            f = row[j]
            if f == 0 and pivot == prev:
                continue
            for k in range(j + 1, ncols):
                row[k] = (row[k] * pivot - f * top[k]) // prev
            row[j] = 0
        pivots.append(j)
        prev = pivot
    return a, pivots, sign


def _back_substitute(rows, pivots, x):
    """Fill x at the pivot columns so that every echelon row annihilates it.

    x arrives holding its free entries.  Returns False as soon as a
    division leaves a remainder, that is when the solution is not integral.
    """
    for i in range(len(pivots) - 1, -1, -1):
        j = pivots[i]
        row = rows[i]
        q, rem = divmod(-sum(row[k] * x[k] for k in range(j + 1, len(x))), row[j])
        if rem:
            return False
        x[j] = q
    return True


def matrix_rank(m):
    return len(echelon(m, len(m[0]))[1]) if m else 0


def solve_integer(m, target):
    """Rank of m, the solution x of m x = target with free entries zero,
    and a generator of the kernel of m when that kernel is a line.

    One echelon of [m | target] gives all three; its pivots left of the
    target column are those of m.  The solution is None when the system
    is inconsistent or not integral.  The generator's free entry is the
    last pivot of m, the minor that clears every denominator (Cramer's
    rule), so it need not be primitive.
    """
    cols = len(m[0])
    rows, pivots, _ = echelon([list(r) + [t] for r, t in zip(m, target)], cols + 1)
    if pivots and pivots[-1] == cols:
        pivots, sol = pivots[:-1], None
    elif not any(target):
        sol = [0] * cols  # homogeneous: zero free entries force zero
    else:
        x = [0] * cols + [-1]
        sol = x[:cols] if _back_substitute(rows, pivots, x) else None
    line = None
    if len(pivots) == cols - 1:
        line = [0] * cols
        free = next(j for j in range(cols) if j not in pivots)
        line[free] = rows[len(pivots) - 1][pivots[-1]] if pivots else 1
        if not _back_substitute(rows, pivots, line):
            raise InternalInconsistencyError("kernel generator left the integers")
    return len(pivots), sol, line


def kernel_basis(m, ncols=None):
    """Hermite basis rows of the saturated kernel {x : m x = 0}.

    One Hermite form of [m^T | I] gives it (Cohen, GTM 138, 2.4): it is
    [U m^T | U] for a unimodular U, so the U parts of the rows whose m^T
    part is zero span the kernel, and as rows of U they span a saturated
    lattice.  They are the trailing rows of the echelon, and reducing
    above a pivot reads only the rows below it, so they alone are
    reduced.  Every row must have ``ncols`` entries.
    """
    if ncols is None:
        if not m:
            raise UsageError("empty matrix needs an explicit column count")
        ncols = len(m[0])
    if any(len(row) != ncols for row in m):
        raise UsageError(f"every row needs {ncols} entries, got {[len(r) for r in m]}")
    rows = [r for r in m if any(r)]
    r = len(rows)
    augmented = [[row[j] for row in rows] + [int(i == j) for i in range(ncols)]
                 for j in range(ncols)]
    echelon_rows, pivots = _gcd_echelon(augmented)
    keep = next((i for i, j in enumerate(pivots) if j >= r), len(pivots))
    return [row[r:] for row in _reduce_above(echelon_rows[keep:], pivots[keep:])]


def saturate(rows, ncols=None):
    """Hermite basis of the smallest primitive sublattice containing the rows."""
    return kernel_basis(kernel_basis(rows, ncols), ncols)


def is_saturated(rows, ncols):
    """Whether the rows span a saturated lattice: their Hermite basis is
    that of their saturation.  The nonzero invariant factors are then all
    1; the rows need not be independent."""
    return list(hermite_row_form(rows)) == saturate(rows, ncols)


def hermite_row_form(m):
    """Row-style Hermite normal form.

    Pivots are positive, entries above a pivot are reduced into [0, pivot),
    zero rows are dropped.  The result is a tuple of tuples and is the unique
    canonical basis of the row lattice.
    """
    return _reduce_above(*_gcd_echelon(m))


def _gcd_echelon(m):
    """(rows, pivot columns) of a row echelon basis of m's row lattice."""
    rows = [list(r) for r in m if any(r)]
    pivots = []
    for j in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        # gcd-eliminate column j below row r
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][j] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        changed = True
        while changed:
            changed = False
            for i in range(r + 1, len(rows)):
                if rows[i][j] == 0:
                    continue
                if abs(rows[i][j]) < abs(rows[r][j]):
                    rows[r], rows[i] = rows[i], rows[r]
                q = rows[i][j] // rows[r][j]
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
                changed |= rows[i][j] != 0
        if rows[r][j] < 0:
            rows[r] = [-x for x in rows[r]]
        pivots.append(j)
    return rows[: len(pivots)], pivots


def _reduce_above(rows, pivots):
    """Echelon rows with each entry above a pivot reduced into [0, pivot)."""
    for r, j in enumerate(pivots):
        for i in range(r):
            q = rows[i][j] // rows[r][j]
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
    return tuple(tuple(row) for row in rows)


def bareiss_determinant(m):
    """Determinant of a square integer matrix: the last echelon pivot."""
    rows, pivots, sign = echelon(m, len(m))
    if len(pivots) < len(m):
        return 0
    return sign * rows[-1][-1] if m else 1


# ---------------------------------------------------------------------------
# sublattices


class SymplecticSubgroup:
    """A primitive sublattice of H, stored by its Hermite canonical basis.

    The constructor insists the given rows already span a primitive lattice:
    the gcd of the maximal minors of the Hermite basis is 1.  spanned_by()
    saturates arbitrary generators, which needs neither test (`_trusted`).
    """

    __slots__ = ("basis",)

    def __init__(self, rows):
        clean = []
        for r in rows:
            coords = r.coords if isinstance(r, HVector) else as_ints(r, "basis entries")
            if len(coords) != 6:
                raise UsageError("basis rows must have 6 coordinates")
            clean.append(coords)
        h = hermite_row_form(clean)
        g = 0
        for cols in combinations(range(6), len(h)):
            g = gcd(g, bareiss_determinant([[row[j] for j in cols] for row in h]))
            if g == 1:
                break
        if g != 1:
            raise UsageError("generators span a non-primitive sublattice")
        self.basis = h

    @classmethod
    def _trusted(cls, basis):
        """A sublattice on its Hermite basis, with no checks run.

        It skips the Hermite form and the minor-gcd primitivity test.
        `enumerate_symplectic_rank2` builds its rows in Hermite shape,
        and it keeps a pair only when the pairing is +-1, a combination
        of 2x2 minors, so their gcd is 1.  Every plane of height 1
        passes __init__ unchanged in the enumerator test
        ``test_enumerated_planes_pass_the_public_constructor``, and drawn
        candidates of height up to 3 do in
        ``test_hermite_candidates_with_unit_pairing_are_planes``.
        `spanned_by` passes the rows of `saturate`, which are the
        Hermite basis of a saturated lattice: its Hermite form is itself,
        and its invariant factors are all 1, so is their product, the gcd
        of its maximal minors.  Drawn generators pass __init__ unchanged in
        ``test_spanned_by_passes_the_public_constructor``.
        `orthogonal_complement` passes `kernel_basis`, the Hermite basis
        of an integer kernel, which is saturated: the same two facts.
        Drawn complements pass __init__ unchanged in
        ``test_orthogonal_complement_passes_the_public_constructor``.
        """
        u = object.__new__(cls)
        u.basis = basis
        return u

    @classmethod
    def spanned_by(cls, vectors):
        """The saturation of the generators, built by `_trusted`."""
        rows = [
            v.coords if isinstance(v, HVector) else as_ints(v, "generator entries")
            for v in vectors
        ]
        return cls._trusted(tuple(saturate(rows, 6)))

    @property
    def rank(self):
        return len(self.basis)

    def vectors(self):
        return [HVector(row) for row in self.basis]

    def contains(self, v):
        """Whether v, an ``HVector`` or 6 integers, lies in the sublattice:
        reduce it by each Hermite row at that row's pivot, and test what
        is left for zero."""
        coords = v.coords if isinstance(v, HVector) else HVector(v).coords
        for row in self.basis:
            for j, pivot in enumerate(row):
                if pivot:
                    break
            q, rem = divmod(coords[j], pivot)
            if rem:
                return False
            if q:
                coords = tuple(x - q * y for x, y in zip(coords, row))
        return not any(coords)

    def height(self):
        return max((abs(x) for row in self.basis for x in row), default=0)

    def key(self):
        return self.basis

    def __repr__(self):
        return "SymplecticSubgroup(rank=%d, basis=%r)" % (self.rank, self.basis)


def is_symplectic_rank2(u):
    """True iff the rank-2 subgroup is unimodular for the restricted form."""
    if u.rank != 2:
        raise UsageError("rank-2 subgroup required, got rank %d" % u.rank)
    return _pairing(*u.basis) in (1, -1)


def orthogonal_complement(u):
    """The saturated orthogonal complement with respect to the pairing,
    built by `SymplecticSubgroup._trusted`."""
    form_rows = [form_row(v) for v in u.vectors()]
    return SymplecticSubgroup._trusted(tuple(kernel_basis(form_rows, 6)))


class Splitting:
    """An ordered triple of pairwise orthogonal unimodular symplectic planes.

    The parts then sum to the whole lattice, with no further check: for
    the stacked 6x6 basis B and the form J, B J B^T is block diagonal
    with three blocks of determinant <u, v>^2 = 1, so det(B)^2 = 1.
    ``test_enumerated_splittings_pass_the_public_constructor`` asserts the
    determinant.
    """

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(parts)
        if len(parts) != 3:
            raise UsageError("a splitting needs exactly 3 parts")
        for p in parts:
            if not isinstance(p, SymplecticSubgroup):
                raise UsageError("parts must be SymplecticSubgroup instances")
            if p.rank != 2 or not is_symplectic_rank2(p):
                raise UsageError("each part must be a unimodular symplectic plane")
        for i, j in ((0, 1), (0, 2), (1, 2)):
            for u in parts[i].basis:
                for v in parts[j].basis:
                    if _pairing(u, v) != 0:
                        raise UsageError("parts %d and %d are not orthogonal" % (i, j))
        self.parts = parts

    @classmethod
    def _trusted(cls, parts):
        """A splitting from `_splittings_among`, with no checks run.

        It skips the part types and ranks, the unimodularity of each
        part and the cross-part pairings.  The parts are planes of
        `enumerate_symplectic_rank2`, each with pairing +-1, and the row
        masks hold the exact pairing of every two basis rows; the class
        docstring derives the determinant.  Every splitting of bound 1
        passes __init__ unchanged in
        ``test_enumerated_splittings_pass_the_public_constructor``.  The
        row-mask route equals the plane-mask oracle on bound 1 in
        ``test_splittings_of_bound_1_match_the_plane_mask_oracle`` and on
        random plane lists in
        ``test_splittings_among_plane_sublists_match_the_oracle``; a
        pairing scan proves its forced third part in
        ``test_the_third_part_of_a_splitting_is_forced`` and
        ``test_an_orthogonal_pair_in_no_splitting_has_no_third_part``.
        """
        s = object.__new__(cls)
        s.parts = parts
        return s

    def coefficients(self, xc):
        """The pair (s, t) of each part (u, v), with x = sum of s u + t v:
        the parts are orthogonal, so with w = <u, v> = +-1, s = w<x, v>
        and t = w<u, x>.  One pass over the coordinates checks the sum.  As
        u and v are independent, s u + t v = 0 exactly when (s, t) = (0, 0)."""
        bases = [p.basis for p in self.parts]
        pairs = []
        for u, v in bases:
            w = _pairing(u, v)
            pairs.append((w * _pairing(xc, v), w * _pairing(u, xc)))
        (s1, t1), (s2, t2), (s3, t3) = pairs
        (u1, v1), (u2, v2), (u3, v3) = bases
        for x, a1, b1, a2, b2, a3, b3 in zip(xc, u1, v1, u2, v2, u3, v3):
            if s1 * a1 + t1 * b1 + s2 * a2 + t2 * b2 + s3 * a3 + t3 * b3 != x:
                comps = [tuple(s * a + t * b for a, b in zip(*uv))
                         for (s, t), uv in zip(pairs, bases)]
                raise InternalInconsistencyError(f"components {comps} do not sum to x = {xc}")
        return pairs

    def ordered_key(self):
        return tuple(p.basis for p in self.parts)

    def unordered_key(self):
        return tuple(sorted(p.basis for p in self.parts))

    def __repr__(self):
        return "Splitting(%r)" % (self.ordered_key(),)


STANDARD_SPLITTING = Splitting(
    [
        SymplecticSubgroup([A1, B1]),
        SymplecticSubgroup([A2, B2]),
        SymplecticSubgroup([A3, B3]),
    ]
)


def splitting_type_wrt_x(x, splitting):
    """Classify a splitting by which parts the class x touches.

    Returns (letter, perm): letter "a", "b" or "c" counts the parts with a
    coefficient pair not (0, 0), perm lists the touched part indices first.
    """
    if x.is_zero():
        raise UsageError("x must be nonzero")
    nonzero = [s or t for s, t in splitting.coefficients(x.coords)]
    touched = [i for i in range(3) if nonzero[i]]
    letter = "abc"[len(touched) - 1]
    perm = tuple(touched + [i for i in range(3) if not nonzero[i]])
    return letter, perm


def splitting_type_wrt_y(y, splitting, x_part):
    """Classify the second class y relative to the part holding x.

    Returns (type, others): types 1..4 record whether y touches the
    x-part and how many of the other two parts it touches; others lists
    those two part indices, the touched ones first.  A class y inside
    the x-part has no type.
    """
    if x_part not in (0, 1, 2):
        raise UsageError("x_part must be 0, 1 or 2")
    if y.is_zero():
        raise UsageError("y must be nonzero")
    nonzero = [s or t for s, t in splitting.coefficients(y.coords)]
    rest = [i for i in range(3) if i != x_part]
    touched = [i for i in rest if nonzero[i]]
    others = tuple(touched + [i for i in rest if not nonzero[i]])
    in_x = nonzero[x_part]
    if len(touched) == 1:
        return (2 if in_x else 1), others
    if len(touched) == 2:
        return (4 if in_x else 3), others
    raise UsageError("y lies in the part containing x; no type applies")


def primitive_part(x):
    """Split x as k * a with k > 0 and a primitive.

    >>> primitive_part(HVector((2, 0, 4, 0, 0, 0)))[0]
    2
    """
    if x.is_zero():
        raise UsageError("the zero class has no primitive part")
    k = 0
    for c in x.coords:
        k = gcd(k, abs(c))
    return k, HVector(c // k for c in x.coords)


# ---------------------------------------------------------------------------
# transvections


def _transvect(c, v, power=1):
    """v + power * <v, c> c on coordinate tuples: the one formula of the
    c-transvection, which ``transvection_matrix`` applies to the basis."""
    k = power * _pairing(v, c)
    return tuple(a + k * b for a, b in zip(v, c)) if k else v


def transvection_matrix(c, power=1):
    """The 6x6 matrix of the c-transvection acting on column vectors:
    its columns are the ``_transvect`` images of the basis."""
    return list(zip(*(_transvect(c.coords, e.coords, power) for e in BASIS)))


def apply_matrix(mat, v):
    return HVector(sum(x * y for x, y in zip(row, v.coords)) for row in mat)


def transform_subgroup(mat, u):
    return SymplecticSubgroup([apply_matrix(mat, v) for v in u.vectors()])


def transform_splitting(mat, splitting):
    return Splitting([transform_subgroup(mat, p) for p in splitting.parts])


# ---------------------------------------------------------------------------
# enumeration


@lru_cache(maxsize=None, typed=True)
def enumerate_symplectic_rank2(height):
    """All unimodular symplectic planes whose canonical basis entries fit in
    [-height, height], sorted by canonical key.

    The Hermite shape is enumerated directly: two pivot columns j1 < j2 with
    positive pivots, the row-1 entry over the second pivot reduced, all other
    entries free in the box.  A candidate is kept iff the basis pairing is
    +-1, which also forces primitivity.  The cache is typed, so a float
    height never meets the entry of the equal int and fails ``as_int``.
    """
    height = as_int(height, "the height")
    if height < 1:
        raise UsageError("height must be at least 1")
    span = range(-height, height + 1)
    found = []
    for j1 in range(6):
        for j2 in range(j1 + 1, 6):
            free2 = [j for j in range(j2 + 1, 6)]
            free1 = [j for j in range(j1 + 1, 6) if j != j2]
            for p2 in range(1, height + 1):
                row2_list = []
                for vals in product(span, repeat=len(free2)):
                    row = [0] * 6
                    row[j2] = p2
                    for idx, v in zip(free2, vals):
                        row[idx] = v
                    row2_list.append(tuple(row))
                for p1 in range(1, height + 1):
                    for top in range(0, min(height, p2 - 1) + 1):
                        for vals in product(span, repeat=len(free1)):
                            row1 = [0] * 6
                            row1[j1] = p1
                            row1[j2] = top
                            for idx, v in zip(free1, vals):
                                row1[idx] = v
                            for row2 in row2_list:
                                if _pairing(row1, row2) in (1, -1):
                                    found.append(SymplecticSubgroup._trusted((tuple(row1), row2)))
    seen = {}
    for u in found:
        if seen.setdefault(u.key(), u) is not u:
            raise InternalInconsistencyError(
                f"Hermite-shape enumeration produced {u.key()} twice"
            )
    return tuple(sorted(seen.values(), key=lambda u: u.key()))


def _perp_masks(rows):
    """perp[r]: the bit mask of the rows s with <rows[r], rows[s]> = 0.

    The form is the sum of one term r0 s1 - r1 s0 per hyperbolic block,
    so one table per block maps a block value p of r and a term v to the
    mask of the rows whose block pairs with p to v; perp[r] joins the
    three tables over the terms that sum to 0.
    """
    tables = []
    for t in (0, 2, 4):
        by_value = {}
        for s, row in enumerate(rows):
            q = row[t : t + 2]
            by_value[q] = by_value.get(q, 0) | 1 << s
        table = {}
        for p0, p1 in by_value:
            terms = table[p0, p1] = {}
            for (q0, q1), mask in by_value.items():
                v = p0 * q1 - p1 * q0
                terms[v] = terms.get(v, 0) | mask
        tables.append(table)
    t0, t1, t2 = tables
    perp = []
    for row in rows:
        third = t2[row[4:6]]
        m = 0
        for v0, m0 in t0[row[0:2]].items():
            for v1, m1 in t1[row[2:4]].items():
                m |= m0 & m1 & third.get(-v0 - v1, 0)
        perp.append(m)
    return perp


def _splittings_among(planes):
    """The splittings whose parts are in ``planes``, a list of unimodular
    planes sorted by key, each with its parts in key order, in
    ordered-key order.

    Rows are numbered in sorted order, so key order on planes is the
    order of their (first row, second row) ids.  A pairwise orthogonal
    triple of unimodular planes spans the lattice, so the splittings are
    the triangles of the orthogonality graph, found on row masks: M is
    the mask of rows orthogonal to a plane (a, b), the second parts
    (c, d) > (a, b) have both rows in M (row a is not in M, as
    <a, b> = +-1, so c > a), and x = M & perp[c] & perp[d] holds the
    rows orthogonal to both.  The third part is forced: P_i + P_j is
    unimodular of rank 4, its complement C is a unimodular plane, and a
    listed plane with both rows in C has index 1 in it, so it is C.  One
    third part (e, f) with e > c therefore ends the search.
    """
    rows = sorted({row for u in planes for row in u.basis})
    ids = {row: r for r, row in enumerate(rows)}
    perp = _perp_masks(rows)
    second = [0] * len(rows)  # second[c]: second rows of the planes with first row c
    plane_at = {}
    for u in planes:
        c, d = ids[u.basis[0]], ids[u.basis[1]]
        second[c] |= 1 << d
        plane_at[c, d] = u
    found = []
    for (a, b), u in plane_at.items():
        m = perp[a] & perp[b]
        cs = m >> a << a
        while cs:
            low = cs & -cs
            cs ^= low
            c = low.bit_length() - 1
            mc = m & perp[c]
            if not mc >> (c + 1):
                continue  # no row e > c for a third part
            ds = second[c] & m
            while ds:
                low = ds & -ds
                ds ^= low
                d = low.bit_length() - 1
                x = mc & perp[d]
                es = x >> c << c
                while es:
                    low = es & -es
                    es ^= low
                    e = low.bit_length() - 1
                    fs = second[e] & x
                    if fs:
                        k = plane_at[e, fs.bit_length() - 1]
                        found.append(Splitting._trusted((u, plane_at[c, d], k)))
                        break
    return tuple(found)


@lru_cache(maxsize=None)
def _splittings_cached(bound):
    return _splittings_among(enumerate_symplectic_rank2(bound))


def enumerate_splittings(coefficient_bound):
    """All splittings whose three parts have canonical height <= bound."""
    coefficient_bound = as_int(coefficient_bound, "the coefficient bound")
    if coefficient_bound < 1:
        raise UsageError("coefficient bound must be at least 1")
    return list(_splittings_cached(coefficient_bound))
