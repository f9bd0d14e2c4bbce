"""Cells of the cycle complex and the bounding-pair ladder.

A labeled multicurve supporting a class x determines a compact polytope:
nonnegative real weights on the curves whose weighted class sum is x.
Its vertices are the basic cycles (positive integer weights on an
independent subset of curves).  This module enumerates those vertices,
computes cell dimensions and weight sums, and assembles the
two-dimensional "ladder" subcomplex attached to a bounding pair class,
whose two-cells' faces are read off their vertex supports.
"""

from functools import lru_cache
from math import gcd

from .lattice import (
    A1,
    A2,
    A3,
    InternalInconsistencyError,
    UsageError,
    bareiss_determinant,
    echelon,
    matrix_rank,
    solve_integer,
)
from .surface import DecompGraph, LabeledMulticurve


def _reduced_system(columns, target):
    """(R, y): the system sum_e w_e c_e = target in canonical coordinates.

    One fraction-free echelon of [classes | target], reduced upward so
    that each pivot column is zero off its row.  Every row is divided by
    the gcd of all its entries, then by the gcd of its class entries,
    with its pivot made positive.  R is then the reduced row echelon
    form of the classes with primitive rows: it depends only on their
    row space, so two class matrices with one kernel share it.  R w = y
    has the solutions of the system; y is None when no integer w solves
    it, because the target lies outside the span of the classes or a
    class gcd does not divide its row's target entry.
    """
    n = len(columns)
    rows, pivots, _ = echelon(
        [[c[i] for c in columns] + [t] for i, t in enumerate(target)], n + 1
    )
    solvable = not pivots or pivots[-1] < n
    if not solvable:
        pivots = pivots[:-1]
    reduced = []
    for i in range(len(pivots) - 1, -1, -1):
        row = rows[i]
        for below, j in zip(reduced, pivots[i + 1 :]):
            f = row[j]
            if f:
                row = [a * below[j] - f * b for a, b in zip(row, below)]
        g = gcd(*row) if row[pivots[i]] > 0 else -gcd(*row)
        reduced.insert(0, [a // g for a in row])
    R, y = [], []
    for row in reduced:
        g = gcd(*row[:n])
        R.append(tuple(a // g for a in row[:n]))
        # the whole row is primitive: the target entry is a multiple of g only when g == 1
        solvable = solvable and g == 1
        y.append(row[n])
    return tuple(R), (y if solvable else None)


def _adjugate(m):
    """Integer adjugate of a square matrix: m * adj = det(m) * identity."""
    k = len(m)
    return tuple(
        tuple(
            (-1) ** (i + j)
            * bareiss_determinant(
                [[m[r][c] for c in range(k) if c != i] for r in range(k) if r != j]
            )
            for j in range(k)
        )
        for i in range(k)
    )


@lru_cache(maxsize=None)
def _pattern(n, R):
    """(bounded, solvers) of the reduced class form R on n curves.

    The subset scan of ``tests/oracles.scan_subsets``, run once per
    pattern on R, which has the kernel of every class matrix reducing to
    it.  A subset whose kernel is a line with a sign-definite generator
    makes the polytope unbounded, and the scan stops there.  Each independent
    subset of columns gets a solver: the rows of R where its minor is
    invertible (the pivot rows), the adjugate and determinant of that
    minor, and the other rows restricted to the subset, which a solution
    must also satisfy.
    """
    r = len(R)
    solvers = []
    for mask in range(1, 1 << n):
        cols = tuple(j for j in range(n) if mask >> j & 1)
        k = len(cols)
        if k > r + 1:
            continue  # a kernel of dimension two or more: no line, no vertex
        matrix = [[row[j] for j in cols] for row in R] or [[0] * k]  # R = (): zero classes
        rank, _, line = solve_integer(matrix, [0] * len(matrix))
        if rank == k:
            # the pivots of the transposed columns are independent rows of R
            pivot_rows = echelon([[row[j] for row in R] for j in cols], r)[1]
            minor = [[R[i][j] for j in cols] for i in pivot_rows]
            checks = tuple(
                (i, tuple(R[i][j] for j in cols)) for i in range(r) if i not in pivot_rows
            )
            solvers.append(
                (cols, tuple(pivot_rows), _adjugate(minor), bareiss_determinant(minor), checks)
            )
        elif line and (min(line) > 0 or max(line) < 0):
            return False, ()
    return True, tuple(solvers)


def _scan_by_pattern(columns, target):
    """(found, bounded) of ``tests/oracles.scan_subsets`` by the pattern route.

    ``found`` lists (column indices, weights) of the positive integer
    solutions on independent subsets, which the pattern's solvers give
    by one adjugate product and one exact division each; it is empty
    when the polytope is unbounded.
    """
    R, y = _reduced_system(columns, target)
    bounded, solvers = _pattern(len(columns), R)
    found = []
    if not bounded or y is None:
        return found, bounded
    for cols, pivot_rows, adj, det, checks in solvers:
        sub = [y[i] for i in pivot_rows]
        weights = []
        for adj_row in adj:
            w, rem = divmod(sum(a * b for a, b in zip(adj_row, sub)), det)
            if rem or w <= 0:
                break
            weights.append(w)
        else:
            if all(sum(a * w for a, w in zip(row, weights)) == y[i] for i, row in checks):
                found.append((cols, weights))
    return found, True


def enumerate_basic_cycles(m, x):
    """All basic cycles of the multicurve ``m`` with target class ``x``:
    ``{curve id: weight}`` dicts with their keys in edge order, sorted by
    weight vector in edge order.

    The pattern route: one echelon of [classes | x] puts the system in
    its canonical reduced form R w = y (``_reduced_system``).  The
    subset scan runs once per distinct R (``_pattern``) and decides
    boundedness, raising before any solve when the polytope is
    unbounded; each cell then solves every independent subset by an
    adjugate product and an exact division.  The test oracle
    ``tests/oracles.scan_subsets`` makes one elimination per curve subset.

    A vertex needs no further check, because the solve proves each
    property of a basic cycle: its support is a subset of the edge
    order, every weight is an exact integer quotient that passed the
    positivity test, the subset's pivot minor has a nonzero determinant,
    so the support classes are independent, and R w = y holds on every
    row of the reduced form, whose solutions are those of the class sum.
    ``test_pattern_route_matches_scan_subsets_on_ladder_cells`` runs the
    checks of ``tests/oracles.basic_cycle_problem`` on every vertex of
    random ladder cells.
    """
    if x.is_zero():
        raise UsageError("the zero class supports no basic cycle")
    edge_order = m.edge_ids()
    found, bounded = _scan_by_pattern([m.class_of(e).coords for e in edge_order], x.coords)
    if not bounded:
        raise UsageError("the weight polytope is unbounded")
    verts = [{edge_order[j]: w for j, w in zip(cols, weights)} for cols, weights in found]
    verts.sort(key=lambda v: tuple(v.get(e, 0) for e in edge_order))
    return verts


def psi(v):
    """Total weight of a basic cycle."""
    return sum(v.values())


class CellInstance:
    """A multicurve together with the full vertex set of its polytope.

    ``verts`` lists every basic cycle for the multicurve's own target
    class, as a ``{curve id: weight}`` dict; ``dim`` is the count of
    curves minus the rank of their span, which the multicurve contract
    makes equal to one less than the number of pieces.
    ``enumerate_basic_cycles`` finds the vertices by the pattern route,
    after the scan of the cell's relation pattern has checked that the
    polytope is bounded (the tests compare both with the per-cell
    ``tests/oracles.scan_subsets``); every curve must lie on a vertex.  An
    appended cell is lifted from its plain cell instead, and a ladder
    edge or vertex cell read off a face of a scanned two-cell
    (``_trusted``), and a cell below the generic sheets of a ladder is
    instantiated from them (``_instantiate``).
    """

    __slots__ = ("multicurve", "verts", "dim")

    def __init__(self, multicurve):
        verts = enumerate_basic_cycles(multicurve, multicurve.x)
        if not verts:
            raise UsageError("no basic cycle carries the target class")
        missing = set(multicurve.edge_ids()).difference(*verts)
        if missing:
            raise UsageError(
                "curves outside every basic cycle: %s"
                % sorted(str(e) for e in missing)
            )
        self.multicurve = multicurve
        self.verts = verts
        self.dim = len(multicurve.graph.vertices) - 1

    @classmethod
    def _trusted(cls, multicurve, verts, dim):
        """A cell whose vertices are known, with no scan run.

        ``match_faces`` builds each ladder edge cell this way, from the
        vertices of a scanned two-cell whose support lies in the edge's
        curves, and ``_scan_two_cell`` each vertex cell, by the same
        support read (``_vertices_on``) on an edge; the face lemma in
        the docstring of ``match_faces`` makes them the cells the scan
        would build.  Every such cell of random ladders equals the scan
        of its curves in ``test_face_read_cells_match_the_scan_oracle``.
        ``_instantiate`` builds every cell of the sheets below the
        generic ones this way, by the argument of ``build_ladder``; each
        equals ``tests/oracles.ladder_by_sheets`` in
        ``test_generic_sheet_build_matches_the_build_by_sheets``.
        ``append_loop`` builds each appended cell this way, by lifting
        the plain cell.  The lemma:
        if x lies in the span of the curve classes c_e and the loop
        class a3 does not, then
        sum_e w_e c_e + w_beta a3 = x + a3 forces w_beta = 1.  So the
        basic cycles for x + a3 are the plain basic cycles for x with
        ``beta`` at weight 1: the appended support stays independent
        because a3 is outside the span, and the polytope is the plain one
        times the point w_beta = 1, of the same dimension, with its
        vertices in the same order (a constant last coordinate keeps the
        sort by weight vector).  Both hypotheses are checked on every
        appended cell: the plain cell has a vertex (``__init__``), whose
        class sum puts x in the span, and the one rank test of
        ``append_loop`` requires the plain classes plus a3 to span
        |E| + 1 - (|V| - 1), one more than the plain classes span, so a3
        is outside their span.  Every lifted cell of random ladders
        equals a full scan of its multicurve in
        ``test_appended_sheet_matches_the_scan_oracle``.
        """
        cell = object.__new__(cls)
        cell.multicurve = multicurve
        cell.verts = verts
        cell.dim = dim
        return cell

    def vectors(self):
        order = self.multicurve.edge_ids()
        return [tuple(v.get(e, 0) for e in order) for v in self.verts]

    def __repr__(self):
        return f"CellInstance(dim={self.dim}, verts={len(self.verts)})"


def psi_max(c):
    """Largest total weight over the cell's basic cycles."""
    if not isinstance(c, CellInstance) or not c.verts:
        raise UsageError("cell carries no basic cycles")
    return max(psi(v) for v in c.verts)


def _vertices_on(cell, ids):
    """The vertices of ``cell`` whose support lies in the curve ids
    ``ids``, keyed in ``ids`` order and sorted by weight vector in that
    order, as the scan of the cell on ``ids`` keys and sorts them."""
    keep = set(ids)
    verts = [{e: v[e] for e in ids if e in v} for v in cell.verts if v.keys() <= keep]
    verts.sort(key=lambda v: tuple(v.get(e, 0) for e in ids))
    return verts


def match_faces(tag, cell, edges, edge_cells):
    """Match the faces of the two-cell ``tag`` with ``edges``, a ``{edge
    tag: (template multicurve, endpoint weightings)}`` dict, and read
    each edge that ``edge_cells`` lacks off its face into it.

    The vertices must span the cell's dimension, 2: one rank of their
    differences.  The polygon's edges are then read off the vertex
    supports.  The face on a curve e holds the vertices that do not use
    e; when there are at least two, it is an edge of the polygon, and
    its support is the union of theirs.  Each face must be one edge: its
    support the edge's curve ids, the cell's classes and x on them, and
    its vertex set the edge's endpoint weightings; no face may be left
    over.  An error names the two-cell, the face's curve ids and the
    property that differs.  An edge is read off the first two-cell that
    holds it, and every other face on it, such as a shared rung on
    R_(k-1), R_k and V_k, is compared with the same weightings.

    The read edge's vertices are the cell's vertices on its support
    (``_vertices_on``), and its dimension is 1.  The face lemma makes
    them the scan's.  The polytope's only inequalities are w_e >= 0, so
    each of its edges is a face {w_e = 0}: the polytope of the
    sub-multicurve on the face's support, hence bounded.  The vertices
    of a face are the polytope's vertices on it (Ziegler, *Lectures on
    Polytopes*, 2.1), those whose support lies in the face's, so they
    are the basic cycles of the sub-multicurve.  A proper face of a
    polygon is a vertex or an edge, and no face {w_e = 0} is the whole
    polygon, as every curve lies on a vertex; so a face of two vertices
    is an edge, and "every curve on a vertex" is the lookup of the
    edge's curve ids as the support.
    """
    m = cell.multicurve
    vectors = cell.vectors()
    if matrix_rank([[a - b for a, b in zip(v, vectors[0])] for v in vectors[1:]]) != cell.dim:
        raise InternalInconsistencyError(f"cell {tag}: vertex span disagrees with the dimension")
    supports = set()
    for e in m.edge_ids():
        on = [v for v in cell.verts if e not in v]
        if len(on) > 1:
            supports.add(frozenset().union(*on))
    for edge, (face, ends) in edges.items():
        order = face.edge_ids()
        ids = frozenset(order)
        problem = "curve ids differ"
        if ids in supports:
            supports.remove(ids)
            on = {frozenset(v.items()) for v in cell.verts if v.keys() <= ids}
            checks = (
                ("classes differ", all(face.class_of(e) == m.class_of(e) for e in ids)),
                ("x differs", face.x == m.x),
                ("vertex set differs", on == ends),
            )
            problem = next((what for what, same in checks if not same), None)
        if problem:
            ids = sorted(map(str, ids))
            raise InternalInconsistencyError(f"cell {tag} face {ids}: {problem}")
        if edge not in edge_cells:
            edge_cells[edge] = CellInstance._trusted(face, _vertices_on(cell, order), 1)
    if supports:
        ids = sorted(map(str, next(iter(supports))))
        raise InternalInconsistencyError(f"cell {tag} face {ids}: curve ids differ")


def _template(pieces, edges, classes, x):
    """The multicurve with the given pieces and (id, tail, head) curves,
    each curve carrying its class from ``classes``, built trusted.

    The callers pass seven shapes, each for every k: the vertex cell,
    the rung, c+ and c-, e+ and e-, R (and the closing triangle), V, and
    the two external witnesses.  Every class is u_k = a1 + k a2,
    w_k = a2 - u_k or a2, so each boundary sum cancels and the classes
    span |E| - |V| + 1, as u_k and a2 are independent.  Ids are
    distinct, a curve joins each piece to the first, and fixed genera
    and degrees give each piece Euler characteristic -1 to -4: -4 on a
    vertex cell (genus 3 less its one or two loops), -2 and -2 on the
    rung, -1 and -3 on c+, c-, e+ and e-, and -1, -1 and -2 on a
    two-cell or witness.  Every template of random ladders passes both
    checked constructors unchanged in
    ``test_ladder_cells_pass_the_checked_constructors``.
    """
    graph = DecompGraph._trusted(tuple(pieces), tuple(edges))
    return LabeledMulticurve._trusted(graph, {e: classes[e] for e, _, _ in edges}, x)


def _cell(pieces, edges, classes, x):
    """The scanned cell of a template (``_template``): the scan of
    ``CellInstance`` finds the vertices, proves the polytope bounded and
    puts every curve on a vertex.  Only the two-cells and the two
    external witnesses scan; ``build_ladder`` reads every edge and
    vertex cell off their faces.

    The vertices span the cell's dimension, checked once per cell: the
    class rank bounds the span; ``match_faces`` raises on a two-cell of
    smaller span, naming it; and an external witness has 3 or 4 vertices
    (``_check_external_witnesses``), so, in dimension at most 2, spans
    2.  A scan that fails here on the ladder's own curves is an internal
    contradiction, not a usage error.
    """
    try:
        return CellInstance(_template(pieces, edges, classes, x))
    except UsageError as err:
        ids = [e for e, _, _ in edges]
        raise InternalInconsistencyError(f"ladder cell on curves {ids}: {err}") from err


# the loop of the appended sheet
_LOOP = "beta"


def append_loop(cell):
    """The same cell with one extra loop ``beta`` of class a3 on a
    positive-genus piece, lifted from ``cell`` with no scan.

    The appended graph and multicurve are built trusted, on the plain
    cell's checked contract.  The host piece loses one genus and gains
    degree 2, so its Euler characteristic is unchanged, and a loop
    leaves connectivity as it is; the loop adds +a3 and -a3 at its host,
    so every boundary sum stays zero.  Three checks remain: a host of
    positive genus, ``beta`` not already a curve id, and one rank: the
    plain classes plus a3 must span |E| - |V| + 2, one more than the
    plain classes, so a3 is outside their span.  With the plain cell's
    vertices that proves the lifting lemma of ``CellInstance._trusted``:
    the appended vertices are the plain ones with ``beta`` at weight 1,
    in the same order, and the dimension is the plain one.
    """
    m = cell.multicurve
    host = next((v for v, g in m.graph.vertices if g >= 1), None)
    if host is None:
        raise UsageError("no piece can host the loop")
    if _LOOP in m.classes:
        raise UsageError("duplicate edge ids")
    rows = [c.coords for c in m.classes.values()] + [A3.coords]
    want = len(m.graph.edges) - len(m.graph.vertices) + 2
    rank = matrix_rank(rows)
    if rank != want:
        raise UsageError(f"classes span rank {rank}, expected {want}")
    graph = DecompGraph._trusted(
        tuple((v, g - 1 if v == host else g) for v, g in m.graph.vertices),
        m.graph.edges + ((_LOOP, host, host),),
    )
    lifted = LabeledMulticurve._trusted(graph, {**m.classes, _LOOP: A3}, m.x + A3)
    verts = [{**v, _LOOP: 1} for v in cell.verts]
    return CellInstance._trusted(lifted, verts, cell.dim)


# pieces of the ladder's one-cells and two-cells: (id, genus)
_EDGE_PIECES = ((0, 0), (1, 1))
_FACE_PIECES = ((0, 0), (1, 0), (2, 1))


class LadderComplex:
    """Truncated two-dimensional complex attached to a bounding pair.

    For a primitive pair (m, n) the target class is m*alpha + n*y where
    alpha and y are the first two disjoint handle classes.  Sheets are
    indexed by an integer k; the truncation keeps -K <= k.  Rungs d_k
    join the two bounding-pair weightings, horizontal edges c+/c- step
    between neighbouring sheets, vertical edges e+/e- reach the mixed
    weighting, and the two-cells are rectangles, one closing triangle,
    and one vertical triangle per sheet.

    ``build_ladder`` fills the tables, building each cell once on its
    template (``_template``): the cells (``vertex_cells``, ``edge_cells``,
    ``cell_cells``), the incidence (``edge_endpoints``,
    ``cell_boundary``) and each two-cell's ``psi_max`` (``cell_psi``),
    read off the cell.  A tag's letter gives its kind: e+/e- edges and V
    cells are vertical.  Only the two-cells are scanned; the edge and
    vertex cells are read off their faces (``match_faces``), and a
    two-cell's faces are the edges of its ``cell_boundary``.
    ``appended_cell`` lifts a two-cell to the appended sheet once; no
    edge is lifted.
    """

    __slots__ = (
        "m",
        "n",
        "K",
        "l",
        "t",
        "vertex_cells",
        "edge_endpoints",
        "edge_cells",
        "cell_boundary",
        "cell_psi",
        "cell_cells",
        "closing",
        "_appended",
    )

    def __init__(self, m, n, K):
        self.m = m
        self.n = n
        self.K = K
        self.l = n // m
        self.t = (n - 1) // m
        self.vertex_cells = {}
        self.edge_endpoints = {}
        self.edge_cells = {}
        self.cell_boundary = {}
        self.cell_psi = {}
        self.cell_cells = {}
        self.closing = None
        self._appended = {}

    def _check_chain_complex(self):
        for tag, boundary in self.cell_boundary.items():
            total = {}
            for edge, sign in boundary.items():
                tail, head = self.edge_endpoints[edge]
                total[head] = total.get(head, 0) + sign
                total[tail] = total.get(tail, 0) - sign
            bad = {v: c for v, c in total.items() if c}
            if bad:
                raise InternalInconsistencyError(
                    f"boundary of {tag} does not close up: {bad}"
                )

    def appended_cell(self, tag):
        """``append_loop`` of the two-cell ``tag``, lifted once.

        No edge is lifted.  An appended face is its plain edge with the
        loop ``beta`` of class a3 added: by the lemma of
        ``CellInstance._trusted`` each vertex gains ``beta`` at weight 1,
        so every face support gains ``beta`` and the loop bounds no face.
        ``test_appended_sheet_matches_the_scan_oracle`` checks this, face
        signs included, on edges lifted by
        ``tests/oracles.lift_by_mirror``."""
        if tag not in self.cell_cells:
            raise UsageError(f"{tag} is not a two-cell of the ladder")
        if tag not in self._appended:
            self._appended[tag] = append_loop(self.cell_cells[tag])
        return self._appended[tag]

    def vertices(self):
        return sorted(self.vertex_cells, key=str)

    def edges(self):
        return sorted(self.edge_endpoints, key=str)

    def two_cells(self):
        return sorted(self.cell_boundary, key=str)

    def _coface_index(self):
        """Edge -> the two-cells whose boundary holds it, in table order."""
        index = {}
        for tag, boundary in self.cell_boundary.items():
            for edge in boundary:
                index.setdefault(edge, []).append(tag)
        return index

    def glued_vertex(self, v):
        """Image of a vertex after identifying the two rung endpoints."""
        if v[0] == "B":
            return ("A", v[1])
        return v

    def check_pair_endpoints(self):
        """The +/- partner edges coincide after gluing yet stay distinct."""
        for k in self._span():
            for plus, minus in ((("c+", k), ("c-", k)), (("e+", k), ("e-", k))):
                pt = tuple(map(self.glued_vertex, self.edge_endpoints[plus]))
                mt = tuple(map(self.glued_vertex, self.edge_endpoints[minus]))
                if pt != mt:
                    return False
        return True

    def check_rung_cofaces(self):
        """Every rung away from the truncation edge bounds three 2-cells."""
        index = self._coface_index()
        hi = min(self.t, self.K)
        for k in range(-self.K + 1, hi + 1):
            if len(index.get(("d", k), ())) != 3:
                return False
        return True

    def check_ladder_property(self):
        """Dropping the vertical cells frees a horizontal edge of every
        horizontal cell, and every vertical cell owns its rung."""
        index = self._coface_index()
        verticals = {t for t in self.cell_boundary if t[0] == "V"}
        for tag, boundary in self.cell_boundary.items():
            if tag in verticals:
                owners = [o for o in index.get(("d", tag[1]), ()) if o in verticals]
                if owners != [tag]:
                    return False
            elif not any(
                edge[0] not in ("e+", "e-")
                and all(o == tag or o in verticals for o in index[edge])
                for edge in boundary
            ):
                return False
        return True

    def check_psi_growth(self):
        """Weight sums grow strictly toward negative sheets and upward."""
        for tag, value in self.cell_psi.items():
            kind, k = tag[0], tag[1]
            if kind == "R":
                left = ("R", k - 1)
                if left in self.cell_psi and not self.cell_psi[left] > value:
                    return False
                vert = ("V", k)
                if vert in self.cell_psi and not self.cell_psi[vert] > value:
                    return False
        return True

    def _span(self):
        return range(-self.K, min(self.t, self.K) + 1)

    def __repr__(self):
        return "LadderComplex(m=%d, n=%d, K=%d, cells=%d)" % (
            self.m,
            self.n,
            self.K,
            len(self.cell_boundary),
        )


def _two_cell_curves(kind, k):
    """The curves of the two-cell ``(kind, k)`` on ``_FACE_PIECES``."""
    if kind == "V":
        return [(f"u{k}", 0, 1), (f"w{k}", 0, 1), ("delta1", 2, 0), ("delta2", 1, 2)]
    # two genus-0 pieces joined by the sheet pair, with the bounding pair
    # hanging off the genus-1 piece
    return [(f"u{k}", 0, 1), (f"u{k + 1}", 1, 0), ("delta1", 0, 2), ("delta2", 2, 1)]


def _sheet_ids(k):
    """Sheet 0's curve ids renamed as T^k renames them (``build_ladder``)."""
    return dict(u0=f"u{k}", u1=f"u{k + 1}", w0=f"w{k}", delta1="delta1", delta2="delta2")


def _ladder_frame(m, n, K):
    """(ladder, classes, x, vertex maps, vertex and edge templates): the
    tags and the checked boundary, before any cell is built."""
    if not all(isinstance(v, int) for v in (m, n, K)):
        raise UsageError("invalid parameters: m, n, K must be integers")
    if m <= 0 or n <= 0:
        raise UsageError("invalid parameters: need positive m and n")
    if gcd(m, n) != 1:
        raise UsageError("invalid parameters: (m, n) must be coprime")
    if K < 1:
        raise UsageError("invalid parameters: truncation depth must be >= 1")
    ladder = LadderComplex(m, n, K)
    l, t = ladder.l, ladder.t
    hi = min(t, K)
    right = hi + 1 if hi < t else hi
    x = m * A1 + n * A2
    classes = {"delta1": A2, "delta2": A2}
    for k in range(-K, right + 2):
        classes[f"u{k}"] = A1 + k * A2
        classes[f"w{k}"] = A2 - classes[f"u{k}"]

    vertex_maps = {}
    for k in range(-K, right + 1):
        vertex_maps[("A", k)] = {f"u{k}": m, "delta1": n - m * k}
        vertex_maps[("B", k)] = {f"u{k}": m, "delta2": n - m * k}
    for k in range(-K, hi + 1):
        vertex_maps[("C", k)] = {f"u{k}": n - m * k + m, f"w{k}": n - m * k}
    if t <= K:
        split = {f"u{t}": m * (t + 1) - n, f"u{t + 1}": n - m * t}
        vertex_maps[("T", t)] = {f"u{l}": m} if n % m == 0 else split
    # zero-dimensional cells: loops on one piece, one basic cycle
    templates = {
        tag: _template([(0, 3 - len(mp))], [(e, 0, 0) for e in mp], classes, x)
        for tag, mp in vertex_maps.items()
    }

    for k in range(-K, right + 1):
        # the rung joins the two bounding-pair weightings: the sheet curve
        # is a loop on the genus-0 piece, the pair bounds the genus-1 piece
        rung = ("d", k)
        ladder.edge_endpoints[rung] = (("A", k), ("B", k))
        templates[rung] = _template(
            _EDGE_PIECES, [(f"u{k}", 0, 0), ("delta1", 0, 1), ("delta2", 1, 0)], classes, x
        )
    for k in range(-K, hi + 1):
        # the other edges bundle three curves between the two pieces
        u, u_next, w = f"u{k}", f"u{k + 1}", f"w{k}"
        for side, start, delta in (("+", "A", "delta1"), ("-", "B", "delta2")):
            c, e = ("c" + side, k), ("e" + side, k)
            nxt = ("T", t) if k == t else (start, k + 1)
            ladder.edge_endpoints[c] = ((start, k), nxt)
            ladder.edge_endpoints[e] = ((start, k), ("C", k))
            templates[c] = _template(
                _EDGE_PIECES, [(u, 0, 1), (u_next, 1, 0), (delta, 0, 1)], classes, x
            )
            templates[e] = _template(
                _EDGE_PIECES, [(u, 0, 1), (w, 0, 1), (delta, 1, 0)], classes, x
            )

    rect_top = hi if hi < t else hi - 1
    for k in range(-K, rect_top + 1):
        ladder.cell_boundary[("R", k)] = {
            ("c+", k): 1, ("d", k + 1): 1, ("c-", k): -1, ("d", k): -1
        }
    if t <= K:
        ladder.closing = ("tri", t)
        ladder.cell_boundary[ladder.closing] = {("c+", t): 1, ("c-", t): -1, ("d", t): -1}
    for k in range(-K, hi + 1):
        ladder.cell_boundary[("V", k)] = {("e+", k): 1, ("e-", k): -1, ("d", k): -1}
    ladder._check_chain_complex()
    return ladder, classes, x, vertex_maps, templates


def _scan_two_cell(ladder, tag, classes, x, vertex_maps, templates):
    """Scan the two-cell ``tag`` (``_cell``), match its faces, reading each
    edge not read yet (``match_faces``), and read each endpoint not read
    yet off its edge: the one vertex on the vertex's curves, by the same
    face lemma, which must equal its weighting in ``vertex_maps``."""
    boundary = ladder.cell_boundary[tag]
    cell = ladder.cell_cells[tag] = _cell(_FACE_PIECES, _two_cell_curves(*tag), classes, x)
    ladder.cell_psi[tag] = psi_max(cell)
    edges = {
        e: (templates[e], {frozenset(vertex_maps[v].items()) for v in ladder.edge_endpoints[e]})
        for e in boundary
    }
    match_faces(tag, cell, edges, ladder.edge_cells)
    for edge in boundary:
        for v in ladder.edge_endpoints[edge]:
            if v in ladder.vertex_cells:
                continue
            point, mp = templates[v], vertex_maps[v]
            verts = _vertices_on(ladder.edge_cells[edge], point.edge_ids())
            if verts != [mp]:
                raise InternalInconsistencyError(f"vertex cell {v}: weights differ from {mp}")
            ladder.vertex_cells[v] = CellInstance._trusted(point, verts, 0)


def _positive(a, b):
    """Whether a + d b > 0 for all d >= 0 (True), for none (False), or not
    constant (None)."""
    if a > 0 and b >= 0:
        return True
    return False if a <= 0 and b <= 0 else None


def _generic_slopes(classes, x, k0):
    """The certificate: ``{support: {curve: slope}}`` of the R and V
    vertices in sheet 0's ids, a weight w on sheet k0 being w + d slope
    on sheet k0 - d for every d >= 0.

    Each shape must reduce to one pattern R on sheets k0 and k0 - 1, and
    y(k0 - d) = y0 + d dy.  A solver of ``_pattern`` fires when each of
    its affine conditions in d holds: the weight p / det > 0 (a sign,
    ``_positive``), det | p (always when det divides both coefficients,
    never when gcd(b, det) does not divide a), and each check row
    a + d b = 0 (always when a = b = 0, never without a root d >= 0).
    A condition that never holds keeps the solver off every sheet;
    otherwise one that is not constant raises, naming the shape and the
    solver's curves.
    """
    slopes = {}
    for shape in ("R", "V"):
        ids = [e for e, _, _ in _two_cell_curves(shape, 0)]
        (R, y0), (R1, y1) = (
            _reduced_system([classes[e].coords for e, *_ in _two_cell_curves(shape, k)], x.coords)
            for k in (k0, k0 - 1)
        )
        if R1 != R or None in (y0, y1):
            raise InternalInconsistencyError(f"generic sheet {shape}: the relation pattern moves")
        dy = [b - a for a, b in zip(y0, y1)]
        for cols, rows, adj, det, checks in _pattern(len(ids), R)[1]:
            p = [tuple(sum(a * y[i] for a, i in zip(r, rows)) for y in (y0, dy)) for r in adj]
            tests = []
            for a, b in p:
                divides = a % gcd(b, det) == 0 and (a % det == b % det == 0 or None)
                tests += [_positive(a * det, b * det), divides]
            for i, row in checks:
                a = sum(c * q0 for c, (q0, _) in zip(row, p)) - det * y0[i]
                b = sum(c * q1 for c, (_, q1) in zip(row, p)) - det * dy[i]
                root = b and not a % b and -a // b >= 0
                tests.append(True if a == b == 0 else None if root else False)
            if None in tests and False not in tests:
                curves = [ids[j] for j in cols]
                raise InternalInconsistencyError(
                    f"generic sheet {shape}: curves {curves} hold a vertex on some sheets only"
                )
            if False not in tests:
                vertex = {ids[j]: b // det for j, (_, b) in zip(cols, p)}
                slopes[frozenset(vertex)] = vertex
    return slopes


def _instantiate(ladder, k0, slopes, classes, x, templates):
    """Every cell of the sheets k <= k0 - 2, from its kind's cell on sheet
    k0 with the slopes of ``_generic_slopes``, renamed (``_sheet_ids``)
    and built trusted.  Consecutive vertices stay sorted on every sheet:
    the first curve where they differ is ``_positive`` in the later one's
    favour.  Sheet k0 - 1 so built must be its scan, ids, weights and
    order."""
    names = {e: e0 for e0, e in _sheet_ids(k0).items()}
    forms = []
    for table in (ladder.vertex_cells, ladder.edge_cells, ladder.cell_cells):
        for (kind, k), cell in list(table.items()):
            if k != k0:
                continue
            form = []
            for v in cell.verts:
                slope = slopes[frozenset(map(names.get, v))]
                form.append([(names[e], w, slope[names[e]]) for e, w in v.items()])
            for a, b in zip(form, form[1:]):
                a, b = ({e: (w, s) for e, w, s in v} for v in (a, b))
                order = map(names.get, cell.multicurve.edge_ids())
                first = next(e for e in order if a.get(e) != b.get(e))
                (wa, sa), (wb, sb) = a.get(first, (0, 0)), b.get(first, (0, 0))
                if not _positive(wb - wa, sb - sa):
                    raise InternalInconsistencyError(f"generic sheet {kind}: vertex order moves")
            forms.append((table, kind, cell.dim, form))

    def at(form, ids, d):
        return [{ids[e]: w + d * s for e, w, s in v} for v in form]

    ids = _sheet_ids(k0 - 1)
    for table, kind, _, form in forms:
        scanned = [[*v.items()] for v in table[kind, k0 - 1].verts]
        if [[*v.items()] for v in at(form, ids, 1)] != scanned:
            raise InternalInconsistencyError(
                f"generic sheet {kind}: sheet {k0 - 1} is not its scan"
            )
    for k in range(-ladder.K, k0 - 1):
        ids = _sheet_ids(k)
        for table, kind, dim, form in forms:
            tag = (kind, k)
            if dim == 2:
                templates[tag] = _template(_FACE_PIECES, _two_cell_curves(kind, k), classes, x)
            cell = table[tag] = CellInstance._trusted(templates[tag], at(form, ids, k0 - k), dim)
            if dim == 2:
                ladder.cell_psi[tag] = psi_max(cell)


def build_ladder(m, n, K):
    """Assemble the truncated ladder for the class m*alpha + n*y.

    Requires positive coprime (m, n) and a truncation depth K >= 1.
    Every vertex, edge and two-cell tag is backed by an explicit cell
    instance on its template multicurve (``_template``); the abstract
    boundary is verified to close up, and each two-cell's faces to be
    the edges of its boundary.

    Let k0 = min(0, t - 1).  The two-cells of the sheets k >= k0 - 1 and
    the two external witnesses are scanned (``_cell``), each two-cell in
    table order, its faces matched and its edge and vertex cells read off
    them (``_scan_two_cell``; the face lemma is in ``match_faces``).  The
    sheets k <= k0 - 2 are instantiated (``_instantiate``).  That is
    exact by the shear T, which fixes a2 and a3 and sends u_j to u_{j+1}
    and w_j to w_{j+1}: sheet k of (m, n) is sheet 0 of (m, n - mk) under
    T^k, so each shape has one relation pattern R on every sheet, and its
    reduced target y is affine in k.  ``_generic_slopes`` shows once per
    shape that each solver fires on all sheets k <= k0 or on none, so
    each vertex is a fixed solver's, affine in k and positive, and the
    vertex supports, hence the faces, do not move.  Each fact that
    ``match_faces`` and the vertex read check is then structural under
    the renaming (curve ids, and the classes and x of one ``classes``
    dict) or an equality of affine vectors in k (a face's vertex set
    against its endpoints' weightings), which holds on every sheet once
    it holds on the scanned sheets k0 and k0 - 1.  The shapes are
    generic there: every weight of R_k is positive while k <= t - 1.
    ``tests/oracles.ladder_by_sheets`` scans every sheet.
    """
    ladder, classes, x, vertex_maps, templates = _ladder_frame(m, n, K)
    k0 = min(0, ladder.t - 1)
    slopes = _generic_slopes(classes, x, k0) if k0 - 2 >= -K else None
    for tag in ladder.cell_boundary:
        if tag[1] >= k0 - 1:
            _scan_two_cell(ladder, tag, classes, x, vertex_maps, templates)
    if slopes is not None:
        _instantiate(ladder, k0, slopes, classes, x, templates)
    _check_external_witnesses(ladder, classes, x)
    return ladder


def _check_external_witnesses(ladder, classes, x):
    """The vertical edge e+ of sheet 0, which K >= 1 and t >= 0 keep in
    the window, lies on one rectangular and one triangular horizontal
    cell outside the ladder, each of weight m + 2n."""
    u, w = "u0", "w0"
    doubled = {**classes, "w'": classes[w], "u'": classes[u]}
    tri = _cell(
        _FACE_PIECES, [(u, 0, 1), ("delta1", 1, 0), (w, 0, 2), ("w'", 2, 1)], doubled, x
    )
    rect = _cell(
        _FACE_PIECES, [(w, 0, 1), ("delta1", 1, 0), (u, 0, 2), ("u'", 2, 1)], doubled, x
    )
    if not (len(tri.verts) == 3 and len(rect.verts) == 4):
        raise InternalInconsistencyError("external witness shapes drifted")
    expect = ladder.m + 2 * ladder.n
    if psi_max(tri) != expect or psi_max(rect) != expect:
        raise InternalInconsistencyError("external witness weights drifted")
    edge_pair = {frozenset(v.items()) for v in ladder.edge_cells[("e+", 0)].verts}
    for witness in (tri, rect):
        have = {frozenset(v.items()) for v in witness.verts}
        if not edge_pair <= have:
            raise InternalInconsistencyError("vertical edge left its witnesses")
