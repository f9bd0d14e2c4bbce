"""Slow exact references kept for the tests.

``solve_rational`` is the rational Gauss-Jordan solve the package used
before its linear algebra went fraction-free; the integer routines are
checked against it.  ``scan_subsets``, one elimination per curve subset,
is the route cells took before they were solved by relation pattern,
and the census's realizability check before it became a reachability
test; it is the oracle of ``cycles._pattern`` and, with a zero target,
of the strong-connectivity test ``surface._strongly_connected``.
``two_scan`` is the route cells took before one
elimination per curve subset served both vertices and boundedness.
``face_geometry`` is ``cycles.face_geometry`` as it was before the
ladder read its two-cells' faces off the vertex supports: each face's
support, vertex vectors and orientation sign, a sign that no package
code read.  ``boundary_faces`` builds every face of a cell as a fresh
cell with those signs, as the ladder did before it kept its own edge
cells as faces.
``append_loop_by_scan`` is ``cycles.append_loop`` as it was before the
appended cell was lifted from the plain one: the appended multicurve's
own cell, from a full scan, whose faces come from a fresh
``face_geometry``.
``dense_kernel_matches_pattern`` is the page kernel check as it was
before it went sparse: the Hermite forms of the pattern and of the dense
kernel basis must agree.  ``letter_by_decompose``, ``ytype_by_decompose``
and ``pair_tag_by_vectors`` are the splitting-page routes as they were
before they moved to coordinate tuples: components as ``HVector``s tested
with ``is_zero()``, and pair orthogonality through ``vectors()`` and
``intersection``; ``decompose`` is the ``HVector`` view of
``components`` they read.  ``components`` is ``Splitting.components`` as
it was before the letters were read off ``Splitting.coefficients``: the
three component tuples, summed back to x.  ``reachable`` is the
breadth-first search that tested connectivity before the union-find
``surface._merges``.  ``census_by_filter`` is the genus-3
census as it was before its enumeration was capped by the Euler bound:
every edge multiset from ``combinations_with_replacement``, connectivity
(by ``reachable``) first, then every genus composition filtered piece by piece, deduplicated
by ``canonical_combo_all_perms``, the least key over all relabelings.
``realizability_by_search`` is ``surface.realizability_check`` as it was
before one scan against x = sum of the rows decided both conditions: a
bridge test, a zero-target ``scan_subsets`` for condition (i), then the
weight search ``common_cycle_class`` for condition (ii), whose least
class is x.  Its bridge test ``has_bridge`` asks ``reachable`` whether
the ends of each non-loop edge stay joined without it.
``multicurve_problem_by_vertex_loop``, ``contains_by_lists`` and
``is_admissible_by_vectors`` are the cell-layer checks as they were before
they moved to coordinate tuples: a null-homology sum of ``HVector``s per
vertex over all edges, the sublattice test on lists, and admissibility
with a rank taken before any pairing, where the package now decides it
by pairings alone.  ``sclass_image_by_scan`` is
``sclasses.sclass_image_in_e2`` as it was before the (1, 3) page kept
its type-(c) label index: a scan of the whole page basis per call.
``basic_cycle_problem`` runs the checks a vertex's constructor made
before the vertices became plain weight dicts.
``splittings_by_plane_masks`` is the splitting enumerator as it was
before it worked on the rows of the planes: every triangle of the
orthogonality graph, by masks of planes indexed by their place in the
sorted list, and a pairing of every two distinct rows.
``planes_by_hermite_shapes`` is ``lattice.enumerate_symplectic_rank2``
as it was before it walked row masks: every Hermite shape from
``product``, each candidate pair of rows paired, and a sort at the end.
``first_strong_orientation_by_product`` is the orientation loop of
``surface.realizability_check`` as it was before its depth-first search
cut dead vertices: every orientation in ``product`` order, each decided
by ``surface._strongly_connected``.
``target_basis_21``, ``target_basis_12`` and ``target_basis_03`` are the
target bases of the differentials at (2, 1), (1, 2) and (0, 3), which
``specseq.build_e1`` built before each differential named its own rows.
``affine_frame_by_ranks``, the frame of ``face_geometry``, keeps each
sorted difference that raises the rank, one rank per candidate; the
echelon route ``cycles._affine_frame`` that replaced it left the package
with ``face_geometry``.
``lantern_by_products`` is ``sclasses.lantern_check`` as it was before
it compared the basis images of the two sides: seven dense 6x6 products
by ``matrix_product``, which left the package with it.
``identity_matrix`` left the package with its last caller there, the
Smith form; ``smith_factors`` reads the nonzero invariant factors off
sympy's Smith form, the oracle of every kernel and saturation test, so
none of them runs the package's Hermite route as its own reference.
``is_loop`` and ``transvection`` are references the tests read and the
package does not; so is ``column_support``, which left
``SparseIntMatrix`` because only the tests read it.  ``graph_key``,
``multicurve_key`` and ``faces_key`` are what the tests compare graphs,
multicurves and cells by, as none of them defines ``__eq__``: the
pieces and curves in order, the class of each curve and x;
``support_key``, the sorted curve ids of a cell, left ``CellInstance``
when the ladder's faces became edge tags, and orders faces.
``lift_by_mirror`` is ``LadderComplex.appended_cell`` as it was before it
took two-cells only: an edge is lifted by ``cycles.append_loop``, and a
c- or e- edge's lift is the ``_mirror`` of its + partner's, which renames
``delta1`` to ``delta2`` as the package did before its mirror cells came
off the faces of the two-cells.  ``ladder_cell_by_scan`` is a vertex or
edge cell of ``cycles.build_ladder`` as it was built before it was read
off the faces of a scanned two-cell: its own scan.
``ladder_by_sheets`` is ``cycles.build_ladder`` as it was before the
sheets below the generic ones were instantiated: every two-cell scanned.
``eliminate_by_fill_buckets`` is ``SparseIntMatrix._eliminate`` as it
was before fill-0 pivots came off a worklist: a bucket queue holding
every unit entry at its fill, with stale entries skipped.
``separation_by_lifts`` is ``specseq.check_image_separation`` as it was
before it read the appended faces off the plain ones: every edge lifted
that way, and each class of each face tested, one verdict per edge and
sheet.  ``kernel_by_full_hermite`` is ``lattice.kernel_basis`` as it was
before it reduced only the rows it keeps: the whole Hermite form of
[m^T | I].  ``admissible_subgroups`` is the cross product of
``lattice.enumerate_symplectic_rank2`` with ``specseq._admissible``: every
admissible plane of a cell up to a height.  The package lists no such
set; the (2, 2) page tests only the planes it is given.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product

import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from torelli3 import cycles, surface
from torelli3.cycles import CellInstance, append_loop
from torelli3.lattice import (
    A1, A2, A3, ZERO, HVector, InternalInconsistencyError, Splitting, UsageError, _pairing,
    bareiss_determinant, echelon, enumerate_symplectic_rank2, hermite_row_form,
    intersection, kernel_basis, matrix_rank, solve_integer, splitting_type_wrt_x,
    transvection_matrix,
)
from torelli3.specseq import E1Truncation, GeneratorTag, _admissible
from torelli3.surface import (
    ISOTROPIC_BASIS, CensusEntry, DecompGraph, LabeledMulticurve,
)


def solve_rational(m, target):
    """One exact solution x of m x = target, or None if inconsistent.

    Free variables are set to zero.  Entries of the result are Fractions.
    """
    rows = len(m)
    if rows == 0:
        return [] if all(t == 0 for t in target) else None
    cols = len(m[0])
    a = [[Fraction(x) for x in row] + [Fraction(t)] for row, t in zip(m, target)]
    pivots = []
    r = 0
    for j in range(cols):
        piv = next((i for i in range(r, rows) if a[i][j] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        scale = a[r][j]
        a[r] = [x / scale for x in a[r]]
        for i in range(rows):
            if i != r and a[i][j] != 0:
                f = a[i][j]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(j)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if a[i][cols] != 0:
            return None
    x = [Fraction(0)] * cols
    for i, j in enumerate(pivots):
        x[j] = a[i][cols]
    return x


def two_scan(rows, edge_order, target):
    """``scan_subsets`` by its old two routes, one elimination each.

    Vertices: ``solve_integer`` on [rows of S | target] for every subset S
    of at most ``len(target)`` curves, keeping positive solutions of full
    rank.  Boundedness: the kernel of the rows of every subset alone, over
    all subsets; a one-dimensional kernel with a strictly sign-definite
    generator is a vanishing nonnegative combination.  Kernels come from
    the Hermite form, so this route shares no echelon with the scan.
    """
    width = len(target)
    found = []
    for size in range(1, min(len(edge_order), width) + 1):
        for subset in combinations(edge_order, size):
            matrix = [[rows[e][i] for e in subset] for i in range(width)]
            rank, sol, _ = solve_integer(matrix, target)
            if rank == size and sol is not None and min(sol) > 0:
                found.append((subset, sol))
    bounded = True
    n = len(edge_order)
    for mask in range(1, 1 << n):
        chosen = [edge_order[i] for i in range(n) if mask >> i & 1]
        matrix = [[rows[e][i] for e in chosen] for i in range(width)]
        kernel = kernel_basis(matrix, len(chosen))
        if len(kernel) == 1 and (min(kernel[0]) > 0 or max(kernel[0]) < 0):
            bounded = False
    return found, bounded


def remove_edges(m, drop):
    """Sub-multicurve after deleting the given curves.

    Pieces joined by a deleted curve merge; a deleted curve inside one
    piece (including any loop) raises that piece's genus by one.  The
    merged piece keeps the smallest of the original ids so that deleting
    in two steps or in one gives identical results.
    """
    drop = set(drop)
    unknown = drop - set(m.edge_ids())
    if unknown:
        raise UsageError(f"cannot drop unknown curves {sorted(map(str, unknown))}")
    parent = {v: v for v in m.graph.vertex_ids}
    genus = dict(m.graph.vertices)

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e, t, h in m.graph.edges:
        if e not in drop:
            continue
        rt, rh = find(t), find(h)
        if rt == rh:
            genus[rt] += 1
        else:
            keep, gone = sorted((rt, rh), key=str)
            parent[gone] = keep
            genus[keep] += genus[gone]
    rep = {v: find(v) for v in m.graph.vertex_ids}
    vertices = sorted(
        ((r, genus[r]) for r in set(rep.values())), key=lambda p: str(p[0])
    )
    edges = [(e, rep[t], rep[h]) for e, t, h in m.graph.edges if e not in drop]
    classes = {e: m.class_of(e) for e, _, _ in edges}
    return LabeledMulticurve(DecompGraph(vertices, edges), classes, m.x)


def face_geometry(c):
    """Sign, support and vertex vectors (in edge order) of each facet.

    Each face arises from the vertices vanishing on some curve; its sign
    orients the face frame against the cell frame, with the outward
    direction taken from face barycenter minus cell barycenter.  Both
    frames (``affine_frame_by_ranks``) are compared on the pivot
    coordinates of the cell frame, where it is invertible, so the sign
    is that of two integer determinants.  Curves with a constant
    positive weight on every vertex never produce faces.

    The face determinant is never 0.  Each row of [normal] + face_frame
    is a zero-sum combination of vertices, so in the cell's direction
    space.  The face on curve i has a frame of rank dim - 1, so some
    vertex has a positive weight on i: normal[i] = -n_face * cell_sum[i]
    < 0, and every face frame row is 0 at i.  The dim rows are
    independent, so their minor on ``coords``, like the cell frame's
    ``base``, is nonzero
    (``test_face_rows_span_the_cell_and_have_a_nonzero_minor``).
    """
    order = c.multicurve.edge_ids()
    vectors = c.vectors()
    dim = c.dim
    if dim == 0:
        return []
    cell_frame = affine_frame_by_ranks(vectors)
    if len(cell_frame) != dim:
        raise InternalInconsistencyError("vertex span disagrees with the dimension")
    coords = echelon(cell_frame, len(order))[1]
    base = bareiss_determinant([[row[j] for j in coords] for row in cell_frame])
    cell_sum = [sum(col) for col in zip(*vectors)]
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
        face_frame = affine_frame_by_ranks(face_vecs)
        if len(face_frame) != dim - 1:
            continue
        seen.add(key)
        # the barycenter difference, scaled by both vertex counts
        face_sum = [sum(col) for col in zip(*face_vecs)]
        n, n_face = len(vectors), len(face_vecs)
        normal = [n * a - n_face * b for a, b in zip(face_sum, cell_sum)]
        rows = [normal] + face_frame
        det = bareiss_determinant([[row[j] for j in coords] for row in rows])
        faces.append((1 if (det > 0) == (base > 0) else -1, key, face_vecs))
    return faces


def boundary_faces(c):
    """Signed codimension-one faces of a cell, each built as a fresh cell.

    The sign and the support of each face come from ``face_geometry``;
    the face cell is the multicurve left after deleting the curves off
    its support.  The package scans no face cell: a ladder reads its
    edge cells off the two-cells' vertex supports
    (``cycles.match_faces``), and the tests compare those with these.
    """
    m = c.multicurve
    order = set(m.edge_ids())
    faces = [
        (sign, CellInstance(remove_edges(m, order - support)))
        for sign, support, _ in face_geometry(c)
    ]
    faces.sort(key=lambda sf: support_key(sf[1]))
    return faces


def affine_frame_by_ranks(vectors):
    """The differences from the first sorted vector, each kept when it
    raises the rank of those kept before it."""
    ordered = sorted(vectors)
    origin = ordered[0]
    frame = []
    for vec in ordered[1:]:
        candidate = frame + [[a - b for a, b in zip(vec, origin)]]
        if matrix_rank(candidate) > len(frame):
            frame = candidate
    return frame


def append_loop_by_scan(cell):
    """The cell with the appended loop ``beta`` of class a3, built by a
    full basic-cycle scan of the appended multicurve."""
    m = cell.multicurve
    host = next((v for v, g in m.graph.vertices if g >= 1), None)
    if host is None:
        raise UsageError("no piece can host the loop")
    pieces = [(v, g - 1 if v == host else g) for v, g in m.graph.vertices]
    edges = list(m.graph.edges) + [("beta", host, host)]
    classes = {**m.classes, "beta": A3}
    graph = DecompGraph(pieces, edges)
    return CellInstance(LabeledMulticurve(graph, {e: classes[e] for e, _, _ in edges}, m.x + A3))


def _mirror(cell):
    """The cell with the curve id ``delta1`` renamed ``delta2``, with no
    scan: both curves carry the class a2, and renaming one curve to an id
    the cell does not hold keeps the pieces, the incidence, the classes
    and x, so the scan's vertices are the given ones, re-keyed."""
    m = cell.multicurve

    def rename(e):
        return "delta2" if e == "delta1" else e

    graph = DecompGraph._trusted(
        m.graph.vertices, tuple((rename(e), t, h) for e, t, h in m.graph.edges)
    )
    mirrored = LabeledMulticurve._trusted(graph, {rename(e): c for e, c in m.classes.items()}, m.x)
    verts = [{rename(e): w for e, w in v.items()} for v in cell.verts]
    return CellInstance._trusted(mirrored, verts, cell.dim)


def ladder_cell_by_scan(ladder, tag):
    """The vertex or edge cell ``tag`` of the ladder from its curves,
    written out here, by the checked graph and multicurve constructors
    and the scan of ``CellInstance``: loops on one piece for a vertex,
    three curves between a genus-0 and a genus-1 piece for an edge."""
    kind, k = tag
    u, u_next, w = f"u{k}", f"u{k + 1}", f"w{k}"
    delta = "delta2" if kind in ("B", "c-", "e-") else "delta1"
    loops = {
        "A": [u, delta],
        "B": [u, delta],
        "C": [u, w],
        "T": [f"u{ladder.l}"] if ladder.n % ladder.m == 0 else [u, u_next],
    }
    if kind in loops:
        pieces, edges = [(0, 3 - len(loops[kind]))], [(e, 0, 0) for e in loops[kind]]
    else:
        pieces = [(0, 0), (1, 1)]
        edges = {
            "d": [(u, 0, 0), ("delta1", 0, 1), ("delta2", 1, 0)],
            "c": [(u, 0, 1), (u_next, 1, 0), (delta, 0, 1)],
            "e": [(u, 0, 1), (w, 0, 1), (delta, 1, 0)],
        }[kind[0]]

    def class_of(e):
        if e.startswith("delta"):
            return A2
        sheet = A1 + int(e[1:]) * A2
        return sheet if e[0] == "u" else A2 - sheet

    labels = {e: class_of(e) for e, _, _ in edges}
    x = ladder.m * A1 + ladder.n * A2
    return CellInstance(LabeledMulticurve(DecompGraph(pieces, edges), labels, x))


def ladder_by_sheets(m, n, K):
    """``cycles.build_ladder`` as it was before the sheets k <= k0 - 2
    were instantiated from the generic sheet: every two-cell scanned in
    table order, its faces matched and its edge and vertex cells read off
    them, then the two external witnesses."""
    ladder, classes, x, vertex_maps, templates = cycles._ladder_frame(m, n, K)
    for tag in ladder.cell_boundary:
        cycles._scan_two_cell(ladder, tag, classes, x, vertex_maps, templates)
    cycles._check_external_witnesses(ladder, classes, x)
    return ladder


def lift_by_mirror(ladder, tag):
    """The appended cell of the edge or two-cell ``tag`` of the ladder."""
    kind, k = tag
    if tag in ladder.cell_cells:
        return ladder.appended_cell(tag)
    if kind in ("c-", "e-"):
        return _mirror(lift_by_mirror(ladder, (kind[0] + "+", k)))
    return append_loop(ladder.edge_cells[tag])


def separation_by_lifts(ladder, u):
    """Whether no plain face of a two-cell meets U and every appended face
    does, each face lifted to the appended sheet by ``lift_by_mirror``."""
    meets = {}

    def verdict(edge, sheet):
        if (edge, sheet) not in meets:
            face = ladder.edge_cells[edge] if sheet == "plain" else lift_by_mirror(ladder, edge)
            meets[edge, sheet] = any(u.contains(c) for c in face.multicurve.classes.values())
        return meets[edge, sheet]

    for tag in ladder.two_cells():
        if any(verdict(edge, "plain") for edge in ladder.cell_boundary[tag]):
            return False
        if not all(verdict(edge, "appended") for edge in ladder.cell_boundary[tag]):
            return False
    return True


def admissible_subgroups(cell, height):
    """Rank-2 symplectic subgroups compatible with a cell.

    Either the subgroup is orthogonal to every curve class, meets their
    span only in zero, and some piece has positive genus to host it; or
    the cell carries a loop whose class generates a free handle inside
    the subgroup, with the subgroup orthogonal to all other classes.
    The enumerated planes pair to +-1 by construction
    (``test_enumerated_planes_pass_the_public_constructor``), so each
    goes to ``specseq._admissible`` with no plane guard.
    """
    return [u for u in enumerate_symplectic_rank2(height) if _admissible(cell, u)]


def kernel_by_full_hermite(m, ncols):
    """The U parts of the rows of the Hermite form of [m^T | I] whose m^T
    part is zero."""
    rows = [r for r in m if any(r)]
    r = len(rows)
    augmented = [[row[j] for row in rows] + [int(i == j) for i in range(ncols)]
                 for j in range(ncols)]
    return [row[r:] for row in hermite_row_form(augmented) if not any(row[:r])]


def eliminate_by_fill_buckets(mat):
    """``SparseIntMatrix._eliminate`` of ``mat`` by a bucket queue on fill.

    Every unit entry is queued at its fill, (row count - 1) * (column
    count - 1), and queued again whenever an operation changes that fill;
    a popped entry whose column retired, whose value is no longer ±1 or
    whose fill changed is stale and skipped.  Returns the pivot count,
    the kernel transforms and the leftover (column, transform) pairs.
    """
    row_ids = {r: i for i, r in enumerate(dict.fromkeys(mat.rows))}
    positions = {}
    for j, c in enumerate(mat.cols):
        positions.setdefault(c, []).append(j)
    cols = [{} for _ in mat.cols]
    for (r, c), v in mat.entries.items():
        if v:
            for j in positions[c]:
                cols[j][row_ids[r]] = v
    row_cols = {}
    for j, col in enumerate(cols):
        for i in col:
            row_cols.setdefault(i, set()).add(j)
    moves = [{j: 1} for j in range(len(cols))]
    retired = [False] * len(cols)

    def fill(i, j):
        return (len(row_cols[i]) - 1) * (len(cols[j]) - 1)

    buckets = {}  # fill -> unit entries (i, j) queued at that fill

    def push(i, j):
        if cols[j][i] in (1, -1):
            buckets.setdefault(fill(i, j), []).append((i, j))

    for j, col in enumerate(cols):
        for i in col:
            push(i, j)
    pivots = 0
    while buckets:
        cost = min(buckets)
        queued = buckets[cost]
        i, j = queued.pop()
        if not queued:
            del buckets[cost]
        pivot = cols[j]
        v = pivot.get(i)
        if retired[j] or v not in (1, -1) or cost != fill(i, j):
            continue
        changed = []
        for k in row_cols[i] - {j}:
            target, factor = cols[k], cols[k][i] * v
            for ii, w in pivot.items():
                new = target.get(ii, 0) - factor * w
                if new:
                    target[ii] = new
                    row_cols[ii].add(k)
                else:
                    del target[ii]
                    row_cols[ii].discard(k)
            kept = moves[k]
            for jj, w in moves[j].items():
                new = kept.get(jj, 0) - factor * w
                if new:
                    kept[jj] = new
                else:
                    del kept[jj]
            changed.append(k)
        for ii in pivot:
            row_cols[ii].discard(j)
        retired[j] = True
        pivots += 1
        for ii in pivot:
            for k in row_cols[ii]:
                push(ii, k)
        for k in changed:
            for ii in cols[k]:
                push(ii, k)
    live = [j for j in range(len(cols)) if not retired[j]]
    kernel = [moves[j] for j in live if not cols[j]]
    leftover = [(cols[j], moves[j]) for j in live if cols[j]]
    return pivots, kernel, leftover


def dense_kernel_matches_pattern(src, mat, pattern):
    """Whether the pattern rows span the saturated kernel of mat.

    The pattern becomes dense rows over the page labels and is compared
    with the dense kernel basis through their Hermite forms.
    """
    labels = [(orbit, tag.key()) for orbit, tag in src.basis]
    position = {label: i for i, label in enumerate(labels)}
    rows = []
    for combo in pattern:
        vec = [0] * len(labels)
        for label, coeff in combo.items():
            vec[position[label]] = coeff
        rows.append(vec)
    kernel = mat.kernel_vectors()
    if len(kernel) != len(rows):
        return False
    if not rows:
        return True
    return hermite_row_form(rows) == hermite_row_form(kernel)


def components(splitting, xc):
    """Write the coordinate tuple xc as a sum of one component per part.

    The parts are orthogonal, so the part with basis (u, v) and
    w = <u, v> = +-1 takes the component w<x, v> u + w<u, x> v.
    Returns the three component tuples.
    """
    comps = []
    for u, v in (p.basis for p in splitting.parts):
        w = _pairing(u, v)
        s, t = w * _pairing(xc, v), w * _pairing(u, xc)
        comps.append(tuple(s * a + t * b for a, b in zip(u, v)))
    if tuple(map(sum, zip(*comps))) != xc:
        raise InternalInconsistencyError(f"components {comps} do not sum to x = {xc}")
    return comps


def decompose(splitting, x):
    """The components of x (see ``components``) as HVectors."""
    return tuple(HVector(c) for c in components(splitting, x.coords))


def letter_by_decompose(x, splitting):
    """(letter, perm) of ``splitting_type_wrt_x`` from HVector components."""
    comps = decompose(splitting, x)
    touched = [i for i in range(3) if not comps[i].is_zero()]
    letter = {1: "a", 2: "b", 3: "c"}[len(touched)]
    return letter, tuple(touched + [i for i in range(3) if i not in touched])


def ytype_by_decompose(y, splitting, x_part):
    """(type, others) of ``splitting_type_wrt_y`` from HVector components."""
    comps = decompose(splitting, y)
    in_x = not comps[x_part].is_zero()
    rest = [i for i in range(3) if i != x_part]
    touched = [i for i in rest if not comps[i].is_zero()]
    others = tuple(touched + [i for i in rest if comps[i].is_zero()])
    if len(touched) == 1:
        return (2 if in_x else 1), others
    if len(touched) == 2:
        return (4 if in_x else 3), others
    raise UsageError("y lies in the part containing x; no type applies")


def pair_tag_by_vectors(u1, u2):
    """``GeneratorTag.a2_pair`` with its checks run on HVectors."""
    if u1.key() == u2.key():
        raise UsageError("pair parts must differ")
    for v in u1.vectors():
        for w in u2.vectors():
            if intersection(v, w) != 0:
                raise UsageError("pair parts must be orthogonal")
    a, b = u1.key(), u2.key()
    if a <= b:
        return GeneratorTag("a2pair", (a, b, 1))
    return GeneratorTag("a2pair", (b, a, -1))


def canonical_combo_all_perms(nv, genera, combo):
    """Least (genera, edge pairs) key over every relabeling of 0..nv-1."""
    best = None
    for perm in permutations(range(nv)):
        pg = tuple(genera[perm.index(i)] for i in range(nv))
        pp = tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in combo))
        key = (pg, pp)
        if best is None or key < best:
            best = key
    return best


def reachable(pairs, start):
    """Vertices joined to ``start`` by a path along the given edge pairs."""
    neighbors = {}
    for a, b in pairs:
        neighbors.setdefault(a, set()).add(b)
        neighbors.setdefault(b, set()).add(a)
    seen = {start}
    frontier = [start]
    while frontier:
        for w in neighbors.get(frontier.pop(), ()):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def census_by_filter(p):
    """Census entries of dimension p by the unpruned enumeration.

    ``surface.realizability_check`` is looked up on each call, so a test
    can wrap it and see the graphs this route hands it.
    """
    nv = p + 1
    entries = []
    seen = set()
    pairs = [(i, j) for i in range(nv) for j in range(i, nv)]
    for ne in range(max(nv - 1, 0), p + 4):
        total_genus = p + 3 - ne
        for combo in combinations_with_replacement(pairs, ne):
            if len(reachable(combo, 0)) != nv:
                continue
            degree = [0] * nv
            for a, b in combo:
                degree[a] += 1
                degree[b] += 1
            for genera in surface._compositions(total_genus, nv):
                if any(2 - 2 * g - d > -1 for g, d in zip(genera, degree)):
                    continue
                key = canonical_combo_all_perms(nv, genera, combo)
                if key in seen:
                    continue
                seen.add(key)
                canon_genera, canon_pairs = key
                graph = DecompGraph(
                    [(v, g) for v, g in enumerate(canon_genera)],
                    [(i, a, b) for i, (a, b) in enumerate(canon_pairs)],
                )
                witness = surface.realizability_check(graph)
                if witness is not None:
                    entries.append(CensusEntry(witness))
    entries.sort(key=lambda entry: entry.fingerprint)
    return tuple(entries)


def scan_subsets(rows, edge_order, target):
    """One elimination of [rows of S | target] per nonempty curve subset S.

    Returns the positive solutions (S, weights) of the subsets of full
    rank, and condition (i): no nontrivial nonnegative combination of the
    rows vanishes.  A violation of minimal support is a subset whose
    kernel is a line with a sign-definite generator (of any scale), so
    reading each kernel line is exact.  The scan stops at the first
    violation, its solutions then incomplete.  The kernel lines do not
    depend on the target; a zero target (tests only) decides (i) alone.
    """
    n, width = len(edge_order), len(target)
    found = []
    for mask in range(1, 1 << n):
        subset = [edge_order[i] for i in range(n) if mask >> i & 1]
        if len(subset) > width + 1:
            continue
        matrix = [[rows[e][i] for e in subset] for i in range(width)]
        rank, sol, line = solve_integer(matrix, target)
        if rank == len(subset) and sol is not None and min(sol) > 0:
            found.append((subset, sol))
        elif line and (min(line) > 0 or max(line) < 0):
            return found, False
    return found, True


def has_bridge(graph):
    """Whether removing some non-loop edge cuts its ends apart, by
    ``reachable``."""
    pairs = [(t, h) for _, t, h in graph.edges]
    return any(
        t != h and h not in reachable(pairs[:i] + pairs[i + 1 :], t)
        for i, (t, h) in enumerate(pairs)
    )


def first_strong_orientation_by_product(graph):
    """Flips of the first strongly connected orientation in ``product``
    order over ``edge_ids`` (a True flip reverses its edge), or None."""
    for flips in product((False, True), repeat=len(graph.edges)):
        arcs = [(h, t) if f else (t, h) for (_, t, h), f in zip(graph.edges, flips)]
        if surface._strongly_connected(arcs, graph.vertex_ids):
            return flips
    return None


def common_cycle_class(rows, edge_order, weight_bound=3):
    """Condition (ii) witness: a class carried by a basic cycle through
    every edge, searched over positive integer weights up to the bound."""
    width = len(rows[edge_order[0]])
    hits = {e: set() for e in edge_order}
    n = len(edge_order)
    for mask in range(1, 1 << n):
        chosen = [edge_order[i] for i in range(n) if mask >> i & 1]
        if len(chosen) > width:
            continue
        vecs = [rows[e] for e in chosen]
        if matrix_rank(vecs) != len(chosen):
            continue
        for weights in product(range(1, weight_bound + 1), repeat=len(chosen)):
            total = tuple(
                sum(w * rows[e][i] for w, e in zip(weights, chosen))
                for i in range(width)
            )
            assert any(total), "independent positive combinations cannot vanish"
            for e in chosen:
                hits[e].add(total)
    common = None
    for e in edge_order:
        common = hits[e] if common is None else common & hits[e]
        if not common:
            return None
    return min(common)


def realizability_by_search(graph):
    """``surface.realizability_check`` by the zero-target scan and the search."""
    if not graph.edges:
        return None
    rank = len(graph.edges) - (len(graph.vertices) - 1)
    if rank < 1 or rank > len(ISOTROPIC_BASIS):
        return None
    if has_bridge(graph):
        return None
    edge_order = list(graph.edge_ids)
    for flips in product((False, True), repeat=len(edge_order)):
        candidate = graph.reoriented([e for e, f in zip(edge_order, flips) if f])
        rows, _ = surface._cycle_rows(candidate)
        if not scan_subsets(rows, edge_order, (0,) * rank)[1]:
            continue
        target = common_cycle_class(rows, edge_order)
        if target is None:
            continue
        basis = ISOTROPIC_BASIS[:rank]
        classes = {e: sum((c * v for c, v in zip(rows[e], basis)), ZERO) for e in edge_order}
        x = sum((c * v for c, v in zip(target, basis)), ZERO)
        return LabeledMulticurve(candidate, classes, x)
    return None


def basic_cycle_problem(multicurve, weights, target):
    """The message of the first check that the ``{curve id: weight}``
    dict ``weights`` fails as a basic cycle of ``multicurve`` for
    ``target``, or None: a nonempty support, of known curve ids, with
    positive integer weights, independent classes and a class sum equal
    to the target."""
    if not weights:
        return "a basic cycle needs a nonempty support"
    edge_ids = set(multicurve.edge_ids())
    for e, k in weights.items():
        if e not in edge_ids:
            return f"unknown curve {e!r} in support"
        if not isinstance(k, int) or k < 1:
            return f"weight of {e!r} must be a positive integer"
    rows = [list(multicurve.class_of(e).coords) for e in weights]
    if matrix_rank(rows) != len(weights):
        return "support classes are dependent"
    total = sum((k * multicurve.class_of(e) for e, k in weights.items()), ZERO)
    if total != target:
        return "weighted class sum misses the target"
    return None


def multicurve_problem_by_vertex_loop(graph, classes):
    """The message of the first check of ``LabeledMulticurve.__init__``
    that the labeling fails, or None: the edge set, then per vertex in
    ``vertex_ids`` order the ``HVector`` sum over every edge, then the
    rank."""
    classes = dict(classes)
    if set(classes) != set(graph.edge_ids):
        return "labeling does not match the edge set"
    for v in graph.vertex_ids:
        total = ZERO
        for e, t, h in graph.edges:
            if t == v:
                total = total + classes[e]
            if h == v:
                total = total - classes[e]
        if not total.is_zero():
            return f"boundary of vertex {v!r} is not null-homologous"
    want = len(graph.edges) - (len(graph.vertices) - 1)
    rows = [list(c.coords) for c in classes.values()]
    if matrix_rank(rows) != want:
        return f"classes span rank {matrix_rank(rows)}, expected {want}"
    return None


def contains_by_lists(u, v):
    """``SymplecticSubgroup.contains`` on lists, a row update per row."""
    coords = list(v.coords if isinstance(v, HVector) else v)
    for row in u.basis:
        j = next(i for i, x in enumerate(row) if x != 0)
        q, rem = divmod(coords[j], row[j])
        if rem:
            return False
        coords = [x - q * y for x, y in zip(coords, row)]
    return all(x == 0 for x in coords)


def is_loop(graph, e):
    t, h = graph.endpoints(e)
    return t == h


def is_admissible_by_vectors(cell, u):
    """``specseq._admissible`` with the class rank taken first and the
    pairings tested on ``HVector``s."""
    m = cell.multicurve
    class_rows = [list(m.class_of(e).coords) for e in m.edge_ids()]
    base_rank = matrix_rank(class_rows)
    u_rows = [list(v.coords) for v in u.vectors()]
    if any(g >= 1 for _, g in m.graph.vertices):
        if all(intersection(v, c) == 0 for v in u.vectors() for c in m.classes.values()):
            if matrix_rank(class_rows + u_rows) == base_rank + 2:
                return True
    loops = [e for e in m.edge_ids() if is_loop(m.graph, e)]
    for e in loops:
        cls = m.class_of(e)
        if not contains_by_lists(u, cls):
            continue
        rest = [list(m.class_of(f).coords) for f in m.edge_ids() if f != e]
        if any(
            intersection(v, m.class_of(f)) != 0
            for v in u.vectors()
            for f in m.edge_ids()
            if f != e
        ):
            continue
        rest_rank = matrix_rank(rest) if rest else 0
        if matrix_rank(rest + [list(cls.coords)]) == rest_rank:
            continue
        if matrix_rank(rest + u_rows) == rest_rank + 2:
            return True
    return False


def sclass_image_by_scan(splitting, src):
    """``sclasses.sclass_image_in_e2`` by the splitting's letter and a
    scan of the whole page basis for its labels."""
    key = splitting.unordered_key()
    stored = src.splitting_index.get(key)
    if stored is None:
        raise UsageError("splitting is not part of the truncation")
    letter, perm = splitting_type_wrt_x(src.trunc.x, stored)
    if letter != "c":
        raise UsageError("splitting must meet all three parts")
    stored_parts = [stored.parts[i] for i in perm]
    position = {p.key(): i for i, p in enumerate(stored_parts)}
    second, third = (position[p.key()] for p in splitting.parts[1:])
    labels = {
        orbit[2]: (orbit, tag.key())
        for orbit, tag in src.basis
        if orbit[0] == "c" and orbit[1] == key
    }
    return {labels[second]: 1, labels[third]: -1}


def splittings_by_plane_masks(subs):
    """``lattice._splittings_among(subs)`` as it was before it moved to
    row masks: the triangle scan on plane-indexed bitsets."""
    # A pairwise orthogonal triple of unimodular symplectic planes always
    # spans the whole lattice (a unimodular sublattice of full rank inside a
    # unimodular complement has index 1), so splittings within the bound are
    # exactly the triangles of the orthogonality graph on the plane list.
    n = len(subs)
    row_ids = {}
    for u in subs:
        for row in u.basis:
            row_ids.setdefault(row, len(row_ids))
    rows = [None] * len(row_ids)
    for row, idx in row_ids.items():
        rows[idx] = row
    subs_using = [0] * len(rows)
    sub_rows = []
    for i, u in enumerate(subs):
        ids = tuple(row_ids[row] for row in u.basis)
        sub_rows.append(ids)
        for rid in ids:
            subs_using[rid] |= 1 << i
    full_mask = (1 << n) - 1
    # bad[r]: planes with a basis row that pairs nonzero with row r; the
    # pairing is alternating, so each unordered pair of rows is tested once
    bad = [0] * len(rows)
    for r, f in enumerate(rows):
        for other in range(r + 1, len(rows)):
            if _pairing(f, rows[other]) != 0:
                bad[r] |= subs_using[other]
                bad[other] |= subs_using[r]
    # bit b of up[i]: plane i + 1 + b is orthogonal to plane i
    up = [
        (full_mask & ~(bad[ids[0]] | bad[ids[1]])) >> (i + 1)
        for i, ids in enumerate(sub_rows)
    ]

    found = []
    for i in range(n):
        m = up[i]
        while m:
            low = m & -m
            m ^= low
            b = low.bit_length()
            j = i + b
            common = (up[i] >> b) & up[j]
            while common:
                lowk = common & -common
                common ^= lowk
                k = j + lowk.bit_length()
                found.append(Splitting._trusted((subs[i], subs[j], subs[k])))
    # subs is sorted by key and i < j < k grow in that order, so each
    # splitting's parts and the list itself are already in ordered-key order
    return tuple(found)


def planes_by_hermite_shapes(height):
    """The keys of ``lattice.enumerate_symplectic_rank2(height)`` as it
    was before it walked row masks, in its order.

    The Hermite shape is enumerated directly: two pivot columns j1 < j2
    with positive pivots, the row-1 entry over the second pivot reduced,
    all other entries free in the box.  A candidate is kept iff the basis
    pairing is +-1."""
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
                                    found.append((tuple(row1), row2))
    if len(set(found)) != len(found):
        raise InternalInconsistencyError("Hermite-shape enumeration produced a plane twice")
    return sorted(found)


def graph_key(g):
    """Pieces and curves of a ``DecompGraph``, in order."""
    return g.vertices, g.edges


def multicurve_key(m):
    """The graph key, each curve's class, and x."""
    return graph_key(m.graph), {e: c.coords for e, c in m.classes.items()}, m.x.coords


def support_key(cell):
    """The sorted curve ids of a cell, as strings."""
    return tuple(sorted(str(e) for e in cell.multicurve.edge_ids()))


def faces_key(faces):
    """The (sign, multicurve key) of each face of a ``boundary_faces`` list."""
    return [(sign, multicurve_key(face.multicurve)) for sign, face in faces]


def column_support(mat, col):
    """The rows where column ``col`` of a ``SparseIntMatrix`` is nonzero."""
    return {r for (r, c) in mat.entries if c == col}


def transvection(c, v, power=1):
    """Image of v under the c-transvection, v + power * <v, c> c."""
    return v + (power * intersection(v, c)) * c


def smith_factors(rows, ncols):
    """The nonzero invariant factors of the rows, from sympy's Smith form."""
    rows = [list(r) for r in rows]
    if not rows or not ncols:
        return []
    diagonal = sympy_snf(sympy.Matrix(len(rows), ncols, sum(rows, []))).diagonal()
    return [abs(int(f)) for f in diagonal if f]


def identity_matrix(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def matrix_product(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def lantern_by_products(b1, b2, b3, b4, x, y, z):
    """``sclasses.lantern_check`` with both sides as dense 6x6 products."""
    if b1 + b2 + b3 != b4:
        raise UsageError(
            "boundary classes must satisfy [b1] + [b2] + [b3] = [b4]"
        )
    lhs = identity_matrix(6)
    for c in (x, y, z):
        lhs = matrix_product(lhs, transvection_matrix(c))
    rhs = identity_matrix(6)
    for c in (b1, b2, b3, b4):
        rhs = matrix_product(rhs, transvection_matrix(c))
    return [list(r) for r in lhs] == [list(r) for r in rhs]


def target_basis_21(trunc):
    """The (2, 1) basis: one conjugated twist class per orbit and k in [-K, K]."""
    basis = [
        (orbit, GeneratorTag.bp_twist(k))
        for orbit in trunc.orbits
        for k in range(-trunc.K, trunc.K + 1)
    ]
    return E1Truncation((2, 1), basis, trunc)


def target_basis_12(trunc):
    """The (1, 2) basis: one abelian cycle per ladder edge, sheet and
    subgroup."""
    basis = [
        ((edge, sheet), GeneratorTag.a2(u))
        for sheet in ("plain", "appended")
        for edge in trunc.ladder.edges()
        for u in trunc.subgroups
    ]
    return E1Truncation((1, 2), basis, trunc)


def target_basis_03(trunc):
    """The (0, 3) basis: one splitting tag per splitting."""
    basis = [(("vertex", s.unordered_key()), GeneratorTag.a3(s)) for s in trunc.splittings]
    return E1Truncation((0, 3), basis, trunc, {s.unordered_key(): s for s in trunc.splittings})
