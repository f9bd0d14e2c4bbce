"""Truncated first pages of the cycle-complex spectral sequence.

Stabilizer homology is symbolic: each generator is a cell orbit id plus
a tag naming a twist class or an abelian cycle, following the explicit
bases of the source material.  Differentials become sparse integer
matrices on these labels.  Ranks come off block sums where they can, and
the rest by exact sparse unit-pivot elimination, with the dense Hermite
routes of ``lattice`` only for a leftover block that has no unit entry.
Truncations are explicit; an image that would leave the window raises
instead of being clipped.
"""

from functools import lru_cache

from .cycles import _LOOP
from .lattice import (
    MismatchError,
    UsageError,
    _pairing,
    as_int,
    is_saturated,
    is_symplectic_rank2,
    kernel_basis,
    matrix_rank,
    splitting_type_wrt_x,
    splitting_type_wrt_y,
)
from .surface import cd_upper_bound, classify_types


class GeneratorTag:
    """Symbolic stabilizer-homology generator.

    Kinds: ``bp`` (conjugated bounding-pair twist class, integer index),
    ``a2`` (abelian cycle of two commuting twists), ``a2pair`` (two
    orthogonal subgroups, stored in canonical order with a sign), ``a3``
    (a full splitting).
    """

    __slots__ = ("kind", "data", "_hash")

    def __init__(self, kind, data):
        self.kind = kind
        self.data = data
        self._hash = hash((kind, data))

    @classmethod
    def bp_twist(cls, k):
        return cls("bp", as_int(k, "a twist index"))

    @classmethod
    def a2(cls, u):
        return cls("a2", u.key())

    @classmethod
    def a2_pair(cls, u1, u2):
        """Tag for a pair of orthogonal subgroups; swapping flips sign.

        It runs no check: ``_build_13`` and ``_build_13_tilde`` pass two
        parts of one ``Splitting``, proved orthogonal by its constructor
        or the enumerator, and orthogonal planes with <u, v> = +-1
        differ.  ``test_pair_tag_matches_the_vector_route`` checks it
        against the checked route ``oracles.pair_tag_by_vectors``.
        """
        a, b = u1.key(), u2.key()
        if a <= b:
            return cls("a2pair", (a, b, 1))
        return cls("a2pair", (b, a, -1))

    @classmethod
    def a3(cls, splitting):
        return cls("a3", splitting.unordered_key())

    def key(self):
        return (self.kind, self.data)

    def __eq__(self, other):
        if not isinstance(other, GeneratorTag):
            return NotImplemented
        return self.key() == other.key()

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"GeneratorTag({self.kind}, {self.data!r})"


class Truncation:
    """Bag of truncation parameters; unknown names are rejected."""

    _FIELDS = (
        "K",
        "height",
        "orbits",
        "splittings",
        "x",
        "y",
        "ladder",
        "subgroups",
    )
    __slots__ = _FIELDS

    def __init__(self, **kwargs):
        for name in self._FIELDS:
            object.__setattr__(self, name, kwargs.pop(name, None))
        if kwargs:
            raise UsageError(f"unknown truncation fields: {sorted(kwargs)}")

    def __repr__(self):
        shown = {
            name: getattr(self, name)
            for name in self._FIELDS
            if getattr(self, name) is not None
        }
        return f"Truncation({shown!r})"


class E1Truncation:
    """A labeled basis of one truncated page position.

    ``splitting_index`` maps the unordered part key of each splitting of
    the page to the splitting.  On the plain (1, 3) page,
    ``type_c_labels`` maps the key of each type-(c) splitting to the
    labels of its three generators, each under the key of the part that
    its pair leaves out.
    """

    __slots__ = ("position", "basis", "trunc", "splitting_index", "type_c_labels")

    def __init__(self, position, basis, trunc, splitting_index=None, type_c_labels=None):
        seen = set()
        for orbit, tag in basis:
            label = (orbit, tag.key())
            if label in seen:
                raise UsageError(f"duplicate basis label {label}")
            seen.add(label)
        self.position = position
        self.basis = list(basis)
        self.trunc = trunc
        self.splitting_index = splitting_index or {}
        self.type_c_labels = type_c_labels or {}

    def __len__(self):
        return len(self.basis)

    def __repr__(self):
        return f"E1Truncation(position={self.position}, size={len(self.basis)})"


class SparseIntMatrix:
    """Integer matrix indexed by hashable labels."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        self.rows = list(rows)
        self.cols = list(cols)
        self.entries = dict(entries)
        row_set, col_set = set(self.rows), set(self.cols)
        for r, c in self.entries:
            if r not in row_set or c not in col_set:
                raise UsageError("entry outside the declared index sets")

    @classmethod
    def _trusted(cls, rows, cols, entries):
        """A matrix whose index sets were built from its own entries.

        It skips the entry-in-index-set check and takes the row list,
        column list and entry dict as they are.  Its two callers,
        `from_columns` and the pattern matrix of
        `_kernel_matches_pattern`, list every row and column an entry
        names; the d13, d13-tilde and d22 pages and their pattern
        matrices pass __init__ unchanged in
        ``test_trusted_pages_pass_the_checked_constructor``.
        """
        mat = object.__new__(cls)
        mat.rows = rows
        mat.cols = cols
        mat.entries = entries
        return mat

    @classmethod
    def from_columns(cls, columns):
        """columns: list of (col_label, {row_label: entry}).

        Rows come in the order the columns first name them.
        """
        rows = list(dict.fromkeys(r for _, col in columns for r in col))
        entries = {}
        for label, col in columns:
            for r, v in col.items():
                if v:
                    entries[(r, label)] = entries.get((r, label), 0) + v
        return cls._trusted(rows, [label for label, _ in columns], entries)

    def rank(self):
        rank = self._block_sum_rank()
        if rank is not None:
            return rank
        pivots, _, leftover = self._eliminate()
        if not leftover:
            return pivots
        return pivots + matrix_rank(_dense_block(leftover))

    def _block_sum_rank(self):
        """The rank, in one pass over the nonzero entries, when every
        nonzero column has a single entry (a star column) or sits on rows
        no other column touches (a span column); None otherwise.  Permuted,
        the matrix is then a block sum of span columns and of rows with
        the star columns on them, plus zero columns; each block has rank 1,
        so the rank is their count.  A repeated column label leaves the
        rank as it is.  The d31, d13 and d13-tilde pages are block sums."""
        rows_of = {}
        for (r, c), v in self.entries.items():
            if v:
                rows_of.setdefault(c, []).append(r)
        spans, span_rows, star_rows = 0, set(), set()
        for rows in rows_of.values():
            star = len(rows) == 1
            if not span_rows.isdisjoint(rows) or not (star or star_rows.isdisjoint(rows)):
                return None  # a row that a span column shares
            (star_rows if star else span_rows).update(rows)
            spans += not star
        return spans + len(star_rows)

    def kernel_combos(self):
        """Basis of the saturated integer kernel, one {column index:
        coefficient} dict per vector, as the eliminator records them."""
        _, kernel, leftover = self._eliminate()
        if leftover:
            block = _dense_block(leftover)
            for vec in kernel_basis(block, ncols=len(leftover)):
                combo = {}
                for coeff, (_, moves) in zip(vec, leftover):
                    for j, w in moves.items():
                        combo[j] = combo.get(j, 0) + coeff * w
                kernel.append({j: w for j, w in combo.items() if w})
        return kernel

    def kernel_vectors(self):
        """The kernel combos as dense tuples, one per vector."""
        basis = []
        for combo in self.kernel_combos():
            vec = [0] * len(self.cols)
            for j, w in combo.items():
                vec[j] = w
            basis.append(tuple(vec))
        return basis

    def columns_saturated(self):
        """Whether the columns are independent and span a saturated lattice.

        The retired columns carry a unit-triangular minor on their pivot
        rows, where every other column is zero, so the columns are
        independent and saturated exactly when the leftover block's are:
        it must have full column rank, and its columns, as rows, must
        span a saturated lattice.  A column that became zero is a
        dependence.
        """
        _, kernel, leftover = self._eliminate()
        if kernel:
            return False
        if not leftover:
            return True
        block = _dense_block(leftover)
        columns = list(zip(*block))
        return matrix_rank(columns) == len(columns) and is_saturated(columns, len(block))

    def _eliminate(self):
        """Sparse elimination by integer column operations on unit pivots.

        Each step takes a ±1 entry of least fill, (row count - 1) *
        (column count - 1), clears its row with the pivot column and
        retires that column.  No later operation touches that row, so
        the retired column stays independent of the rest: it adds one to
        the rank and no kernel vector.  Fill-0 units, alone in their row
        or column, come off a worklist: a pivot changes only the columns
        it clears and the rows it meets, so it queues the singletons
        there, and a queued entry is taken if it still is one.  With the
        worklist empty, ``_least_fill_unit`` scans the live entries.
        Each column's operations are an {original column: coefficient}
        dict, a unimodular transform made when one first touches it.
        Returns the pivot count, the transforms of the columns that
        became zero (the saturated kernel of the eliminated part), and
        the leftover (column, transform) pairs, which have no unit entry
        left.  Its oracle is ``tests/oracles.eliminate_by_fill_buckets``.
        """
        row_ids = {r: i for i, r in enumerate(dict.fromkeys(self.rows))}
        positions = {}
        for j, c in enumerate(self.cols):
            positions.setdefault(c, []).append(j)
        cols = [{} for _ in self.cols]  # a retired column becomes None
        for (r, c), v in self.entries.items():
            if v:
                for j in positions[c]:
                    cols[j][row_ids[r]] = v
        row_cols = {}
        for j, col in enumerate(cols):
            for i in col:
                row_cols.setdefault(i, set()).add(j)
        moves = {}
        work = [(i, j) for j, col in enumerate(cols) if len(col) == 1 for i in col]
        work += [(i, next(iter(js))) for i, js in row_cols.items() if len(js) == 1]
        while True:
            while work:
                i, j = work.pop()
                col = cols[j]
                if col and col.get(i) in (1, -1) and 1 in (len(col), len(row_cols[i])):
                    break
            else:
                unit = _least_fill_unit(cols, row_cols)
                if unit is None:
                    break
                _, i, j = unit
            pivot, cols[j] = cols[j], None
            v = pivot[i]
            for ii in pivot:
                row_cols[ii].discard(j)
            step = moves.get(j, {j: 1})
            for k in list(row_cols[i]):
                target, factor = cols[k], cols[k][i] * v
                for ii, w in pivot.items():
                    new = target.get(ii, 0) - factor * w
                    if new:
                        target[ii] = new
                        row_cols[ii].add(k)
                    else:
                        del target[ii]
                        row_cols[ii].discard(k)
                kept = moves.setdefault(k, {k: 1})
                for jj, w in step.items():
                    new = kept.get(jj, 0) - factor * w
                    if new:
                        kept[jj] = new
                    else:
                        del kept[jj]
                if len(target) == 1:
                    work.append((next(iter(target)), k))
            work += [(ii, next(iter(row_cols[ii]))) for ii in pivot if len(row_cols[ii]) == 1]
        kernel = [moves.get(j, {j: 1}) for j, col in enumerate(cols) if col == {}]
        leftover = [(col, moves.get(j, {j: 1})) for j, col in enumerate(cols) if col]
        return cols.count(None), kernel, leftover

    def __repr__(self):
        return "SparseIntMatrix(%d x %d, nnz=%d)" % (
            len(self.rows),
            len(self.cols),
            len(self.entries),
        )


def _least_fill_unit(cols, row_cols):
    """(fill, row, column) of the live ±1 entry of least fill, or None."""
    units = (
        ((len(row_cols[i]) - 1) * (len(col) - 1), i, j)
        for j, col in enumerate(cols) if col for i, v in col.items() if v in (1, -1)
    )
    return min(units, default=None)


def _dense_block(leftover):
    """Dense rows of the leftover columns, over the rows they meet."""
    rows = sorted({i for col, _ in leftover for i in col})
    return [[col.get(i, 0) for col, _ in leftover] for i in rows]


def check_injective(mat):
    """True exactly when the integer kernel is trivial."""
    return mat.rank() == len(mat.cols)


def _require_plane(u):
    if not is_symplectic_rank2(u):
        raise UsageError(f"subgroup {u.key()} is not a symplectic plane")


def _admissible(cell, u, pairs=None):
    """Whether one subgroup fits the cell (either admissibility route).

    ``u`` must be a symplectic plane (``lattice.is_symplectic_rank2``,
    which ``_require_plane`` checks): its basis rows pair to +-1, so U
    meets its orthogonal complement U^perp only in zero, over Q.  That
    fact settles every rank test of the two routes, which then read
    pairings alone:

    - Route 1: some piece has positive genus and every class is
      orthogonal to U.  The classes then span a subspace of U^perp,
      which meets U in zero, so U's basis raises their rank by 2.
    - Loop route: a loop's class c lies in U and every other class is
      orthogonal to U.  The others span a subspace of U^perp, so U's
      basis raises their rank by 2, and c lies outside their span, or
      it would lie in U and U^perp, which makes c = 0.  A loop is a
      graph cycle by itself, and the multicurve contract (boundary sums
      zero, classes of rank |E| - |V| + 1) leaves only the cut space in
      the kernel of the class map, so a loop's class is never 0.  A
      nonzero class of U pairs with U, so c is then the one class
      that does.

    ``pairs`` maps the coordinates of each class met so far to whether
    it pairs with U; ``_build_22`` keeps one per subgroup, so each
    distinct class of a ladder is paired with U once, not once per cell.
    """
    graph = cell.multicurve.graph
    classes = cell.multicurve.classes
    v, w = u.basis
    if pairs is None:
        pairs = {}
    paired = None  # (is a loop, class) of the one class that pairs with U
    for e, t, h in graph.edges:
        c = classes[e].coords
        hit = pairs.get(c)
        if hit is None:
            hit = pairs[c] = bool(_pairing(v, c) or _pairing(w, c))
        if hit:
            if paired is not None:
                return False
            paired = (t == h, classes[e])
    if paired is None:
        return any(g >= 1 for _, g in graph.vertices)
    loop, c = paired
    return loop and u.contains(c)


def build_e1(position, trunc):
    """Labeled basis of a truncated page position.

    Positions and their labels: (3,1) one twist class per translated
    3-cell orbit; (2,2) abelian cycles per ladder two-cell, sheet, and
    admissible subgroup; (1,3) pair tags per splitting organized by
    type.  Each differential names its own rows, so no package path
    builds the target bases at (2,1), (1,2) and (0,3); they are the
    row-label oracles ``tests/oracles.target_basis_21``,
    ``target_basis_12`` and ``target_basis_03``.
    """
    if position == (3, 1):
        return _build_31(trunc)
    if position == (2, 2):
        return _build_22(trunc)
    if position == (1, 3):
        if trunc.y is not None:
            return _build_13_tilde(trunc)
        return _build_13(trunc)
    raise UsageError(f"unsupported position {position}")


def _build_31(trunc):
    if not trunc.orbits or not trunc.K:
        raise UsageError("need orbits and a conjugation window")
    zero = GeneratorTag.bp_twist(0)
    basis = [((orbit, j), zero) for orbit in trunc.orbits for j in range(trunc.K)]
    return E1Truncation((3, 1), basis, trunc)


def _build_22(trunc):
    ladder = trunc.ladder
    height = 1 if trunc.height is None else trunc.height
    subgroups = trunc.subgroups
    for u in subgroups:
        if u.height() > height:
            raise UsageError(f"subgroup {u.key()} exceeds height {height}")
        _require_plane(u)
    basis = []
    memos = [{} for _ in subgroups]
    for sheet in ("plain", "appended"):
        for tag in ladder.two_cells():
            cell = ladder.cell_cells[tag] if sheet == "plain" else ladder.appended_cell(tag)
            for u, pairs in zip(subgroups, memos):
                if not _admissible(cell, u, pairs):
                    raise UsageError(
                        f"subgroup {u.key()} not admissible for {tag}/{sheet}"
                    )
                basis.append(((tag, sheet), GeneratorTag.a2(u)))
    return E1Truncation((2, 2), basis, trunc)


def d31_apply(src):
    """Difference of the two conjugate twist labels, per source cell;
    the orbits share the two tags of each translate."""
    if src.position != (3, 1):
        raise UsageError("source must sit at position (3, 1)")
    K = src.trunc.K
    columns, twists = [], {}  # twists: translate -> its two tags
    for orbit, tag in src.basis:
        base, j = orbit
        if tag.kind != "bp":
            raise UsageError(f"unexpected tag {tag!r} at (3, 1)")
        if not (0 <= j and j + 1 <= K):
            raise UsageError(f"translate {j} needs window {j + 1}, have {K}")
        j = as_int(j, "a twist index")  # as bp_twist checks it
        if j not in twists:
            twists[j] = GeneratorTag.bp_twist(j), GeneratorTag.bp_twist(-j - 1)
        plus, minus = twists[j]
        columns.append(((orbit, tag), {(base, plus): 1, (base, minus): -1}))
    return SparseIntMatrix.from_columns(columns)


def d22_apply(src, ladder):
    """Ladder boundary with the subgroup tag carried to every face."""
    if src.position != (2, 2):
        raise UsageError("source must sit at position (2, 2)")
    columns = []
    for (tag, sheet), gen in src.basis:
        if tag not in ladder.cell_boundary:
            raise UsageError(f"cell {tag} outside the ladder")
        col = {}
        for edge, sign in ladder.cell_boundary[tag].items():
            if edge not in ladder.edge_endpoints:
                raise UsageError(f"face {edge} outside the ladder")
            col[((edge, sheet), gen)] = sign
        columns.append((((tag, sheet), gen), col))
    return SparseIntMatrix.from_columns(columns)


def check_image_separation(ladder, u):
    """Faces of plain cells never meet the subgroup; faces of appended
    cells always do, through the loop class.  No edge is lifted: by
    ``append_loop``'s construction the appended face of a two-cell on the
    edge e carries e's classes plus the loop ``beta``, whose class the
    two-cell's ``LadderComplex.appended_cell`` carries (lifted once, span
    check included, and kept from ``build_e1((2, 2))``).  So an appended
    face meets U exactly when the plain face does or U contains the loop
    class.  Each distinct class is tested once;
    ``tests/oracles.separation_by_lifts`` lifts every edge instead."""
    meets = lru_cache(maxsize=None)(u.contains)
    for tag in ladder.two_cells():
        faces = [ladder.edge_cells[edge] for edge in ladder.cell_boundary[tag]]
        if any(meets(c) for face in faces for c in face.multicurve.classes.values()):
            return False
        if faces and not meets(ladder.appended_cell(tag).multicurve.classes[_LOOP]):
            return False
    return True


def _build_13(trunc):
    """Pair-tagged basis organized by splitting type relative to x."""
    x = trunc.x
    basis = []
    index = {}
    type_c_labels = {}
    for s in trunc.splittings:
        letter, perm = splitting_type_wrt_x(x, s)
        parts = [s.parts[i] for i in perm]
        key = s.unordered_key()
        index[key] = s
        if letter == "a":
            gens = [GeneratorTag.a2_pair(parts[1], parts[2])]
        elif letter == "b":
            gens = [
                GeneratorTag.a2_pair(parts[1], parts[2]),
                GeneratorTag.a2_pair(parts[0], parts[2]),
            ]
        else:
            gens = [
                GeneratorTag.a2_pair(parts[1], parts[2]),
                GeneratorTag.a2_pair(parts[2], parts[0]),
                GeneratorTag.a2_pair(parts[0], parts[1]),
            ]
            # generator i pairs the two parts other than parts[i]
            type_c_labels[key] = {
                p.key(): ((letter, key, i), gen.key())
                for i, (p, gen) in enumerate(zip(parts, gens))
            }
        for i, gen in enumerate(gens):
            basis.append((((letter, key, i)), gen))
    return E1Truncation((1, 3), basis, trunc, index, type_c_labels)


def d13_apply(src):
    """Types (a) and (b) die; each type-(c) generator hits its splitting."""
    if src.position != (1, 3) or src.trunc.y is not None:
        raise UsageError("source must be the plain (1, 3) truncation")
    columns = []
    for orbit, tag in src.basis:
        letter, key, _ = orbit
        if letter not in ("a", "b", "c"):
            raise UsageError(f"unclassified generator {orbit!r}")
        col = {}
        if letter == "c":
            s = src.splitting_index[key]
            col[(("vertex", key), GeneratorTag.a3(s))] = 1
        columns.append(((orbit, tag), col))
    return SparseIntMatrix.from_columns(columns)


def _unit_leads(pattern):
    """Whether each pattern vector has a lead: a label at +-1 that no
    earlier vector touches.  On the leads, in order, the pattern is then
    unit upper triangular, as no vector touches the lead of a later one;
    that minor is +-1, so the vectors are independent and span a
    saturated lattice."""
    touched = set()
    for combo in pattern:
        if not any(v in (1, -1) and label not in touched for label, v in combo.items()):
            return False
        touched.update(combo)
    return True


def _kernel_matches_pattern(src, mat, pattern):
    """Whether the pattern vectors are a basis of the saturated kernel.

    Three sparse exact checks: mat annihilates every pattern vector,
    there are cols - rank of them, and taken as columns they are
    independent and span a saturated lattice.  A saturated lattice
    inside the kernel with the kernel's rank is the whole kernel.  The
    last check is `_unit_leads` when the pattern has its leads, and
    otherwise an elimination of the pattern matrix.
    """
    labels = [(orbit, tag.key()) for orbit, tag in src.basis]
    column_of = dict(zip(labels, mat.cols))
    images = {}
    for (r, c), v in mat.entries.items():
        images.setdefault(c, []).append((r, v))
    for combo in pattern:
        image = {}
        for label, coeff in combo.items():
            for r, v in images.get(column_of[label], ()):
                image[r] = image.get(r, 0) + coeff * v
        if any(image.values()):
            return False
    if len(pattern) != len(mat.cols) - mat.rank():
        return False
    if _unit_leads(pattern):
        return True
    entries = {(label, k): coeff for k, combo in enumerate(pattern) for label, coeff in combo.items()}
    return SparseIntMatrix._trusted(labels, list(range(len(pattern))), entries).columns_saturated()


def e2_13_kernel(src):
    """Kernel of the differential out of (1, 3), with its basis pattern.

    One surviving generator per type-(a) splitting, both generators per
    type-(b), and the two consecutive differences per type-(c); the
    pattern is verified against the exact integer kernel.
    """
    mat = d13_apply(src)
    groups = {}
    for orbit, tag in src.basis:
        letter, key, i = orbit
        groups.setdefault((letter, key), []).append(((orbit, tag.key()), i))
    pattern = []
    for (letter, _), gens in groups.items():
        gens.sort(key=lambda g: g[1])
        labels = [g[0] for g in gens]
        if letter == "a":
            pattern.append({labels[0]: 1})
        elif letter == "b":
            pattern.append({labels[0]: 1})
            pattern.append({labels[1]: 1})
        else:
            pattern.append({labels[0]: 1, labels[1]: -1})
            pattern.append({labels[1]: 1, labels[2]: -1})
    if not _kernel_matches_pattern(src, mat, pattern):
        raise MismatchError("kernel does not match the expected pattern")
    return {"rank": len(pattern), "basis": pattern, "matrix": mat}


def _build_13_tilde(trunc):
    """Basis for the page of the stabilizer of a distinguished curve.

    Splittings must isolate x in one part; the y decomposition then
    yields types (1) to (4) with one, two, two and three generators.
    """
    x, y = trunc.x, trunc.y
    basis = []
    index = {}
    for s in trunc.splittings:
        letter, perm = splitting_type_wrt_x(x, s)
        if letter != "a":
            raise UsageError("x must lie in a single part")
        x_part = perm[0]
        # the other two parts, those y touches first: (touched, free) for
        # types 1 and 2, both touched in increasing order for 3 and 4
        ytype, (j, k) = splitting_type_wrt_y(y, s, x_part)
        key = s.unordered_key()
        index[key] = s
        u = s.parts
        if ytype == 1:
            gens = [("t1", GeneratorTag.a2_pair(u[x_part], u[k]))]
        elif ytype == 2:
            gens = [
                ("t22", GeneratorTag.a2_pair(u[j], u[k])),
                ("t22p", GeneratorTag.a2_pair(u[x_part], u[k])),
            ]
        elif ytype == 3:
            gens = [
                ("t32a", GeneratorTag.a2_pair(u[k], u[x_part])),
                ("t32b", GeneratorTag.a2_pair(u[x_part], u[j])),
            ]
        else:
            gens = [
                ("t42", GeneratorTag.a2_pair(u[j], u[k])),
                ("t52a", GeneratorTag.a2_pair(u[k], u[x_part])),
                ("t52b", GeneratorTag.a2_pair(u[x_part], u[j])),
            ]
        for name, gen in gens:
            basis.append(((ytype, key, name), gen))
    return E1Truncation((1, 3), basis, trunc, index)


def d13_tilde_apply(src):
    """Images per the typed list for the restricted complex."""
    if src.position != (1, 3) or src.trunc.y is None:
        raise UsageError("source must be the restricted (1, 3) truncation")
    columns = []
    for orbit, tag in src.basis:
        ytype, key, name = orbit
        s = src.splitting_index[key]
        col = {}
        if name in ("t1", "t22p"):
            pass
        elif name == "t22":
            col[(("b1b2", key), tag)] = 1
            col[(("b1'b2", key), tag)] = -1
        elif name in ("t32a", "t32b"):
            col[(("b2b3", key), GeneratorTag.a3(s))] = 1
        elif name == "t42":
            col[(("b1b2b3", key), tag)] = 1
            col[(("b1'b2b3", key), tag)] = -1
        elif name in ("t52a", "t52b"):
            col[(("b1b2b3", key), GeneratorTag.a3(s))] = 1
        else:
            raise UsageError(f"unclassified generator {orbit!r}")
        columns.append(((orbit, tag), col))
    return SparseIntMatrix.from_columns(columns)


def e2_13_tilde_kernel(src):
    """Kernel pattern: the lone type-(1) generator, the second type-(2)
    generator, and one difference each for types (3) and (4)."""
    mat = d13_tilde_apply(src)
    groups = {}
    for orbit, tag in src.basis:
        ytype, key, name = orbit
        groups.setdefault((ytype, key), {})[name] = (orbit, tag.key())
    pattern = []
    for (ytype, _), gens in groups.items():
        if ytype == 1:
            pattern.append({gens["t1"]: 1})
        elif ytype == 2:
            pattern.append({gens["t22p"]: 1})
        elif ytype == 3:
            pattern.append({gens["t32a"]: 1, gens["t32b"]: -1})
        else:
            pattern.append({gens["t52a"]: 1, gens["t52b"]: -1})
    if not _kernel_matches_pattern(src, mat, pattern):
        raise MismatchError("kernel does not match the expected pattern")
    return {"rank": len(pattern), "basis": pattern, "matrix": mat}


def dim_cd_inequality(dim_sigma, cd_stab, g):
    """Whether a cell of the given dimension can carry a stabilizer of
    the given cohomological dimension on the 2g-punctured sphere."""
    return dim_sigma + cd_stab <= 2 * g - 3


def vanishing_census():
    """Vanishing table for stabilizer homology over the census.

    Each type's entry records the degree bound above which the homology
    of the stabilizer vanishes; the restricted page at (0, 4) is zero
    because the bound on the cut-open sphere caps the degree at three.
    """
    table = []
    for p in range(4):
        for entry in classify_types(3, p):
            bound = cd_upper_bound(entry.witness)
            table.append(
                {
                    "fingerprint": entry.fingerprint,
                    "dim": p,
                    "cd_bound": bound,
                    "zero_above": bound,
                }
            )
    return {
        "types": table,
        "tilde_0_4_zero": not dim_cd_inequality(0, 4, 3),
    }
