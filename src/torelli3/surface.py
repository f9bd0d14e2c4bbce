"""Multicurves on a closed surface, recorded as labeled decomposition graphs.

Cutting the surface along a multicurve leaves a disjoint union of pieces.
We keep one vertex per piece, remembering its genus, and one edge per curve,
joining the pieces on its two sides (a loop when both sides meet the same
piece).  Euler characteristic bookkeeping on this graph drives everything
downstream: the bounding-pair count, the dimension of the associated cell,
the cohomological-dimension bound, and the genus-3 census of combinatorial
types.
"""

from functools import lru_cache
from itertools import permutations, product
from operator import add, sub

from .lattice import A1, A2, A3, ZERO, as_int, as_ints, matrix_rank
from .lattice import InternalInconsistencyError, UsageError

ISOTROPIC_BASIS = (A1, A2, A3)


class DecompGraph:
    """Genus-labeled multigraph describing the complement of a multicurve.

    ``vertices`` is a sequence of ``(id, genus)`` pairs and ``edges`` a
    sequence of ``(id, tail, head)`` triples; the tail/head order is the
    orientation of the curve.  Loops are allowed.  The graph must be
    connected and every vertex must have Euler characteristic at most -1,
    so no piece is a disk or an annulus.  ``vertex_ids`` and ``edge_ids``
    are the ids in the given order.
    """

    __slots__ = ("vertices", "edges", "vertex_ids", "edge_ids")

    def __init__(self, vertices, edges):
        vertices = tuple(vertices)
        ids = tuple(v for v, _ in vertices)
        vertices = tuple(zip(ids, as_ints((g for _, g in vertices), "vertex genera")))
        edges = tuple((e, t, h) for e, t, h in edges)
        if not vertices:
            raise UsageError("a decomposition graph needs at least one vertex")
        degree = dict.fromkeys(ids, 0)
        if len(degree) != len(ids):
            raise UsageError("duplicate vertex ids")
        eids = tuple(e for e, _, _ in edges)
        if len(set(eids)) != len(eids):
            raise UsageError("duplicate edge ids")
        for e, t, h in edges:
            if t not in degree or h not in degree:
                raise UsageError(f"edge {e!r} touches an unknown vertex")
            degree[t] += 1
            degree[h] += 1
        for v, g in vertices:
            if g < 0:
                raise UsageError(f"vertex {v!r} has negative genus")
        self.vertices = vertices
        self.edges = edges
        self.vertex_ids = ids
        self.edge_ids = eids
        if _merges(((t, h) for _, t, h in edges), ids) != len(ids) - 1:
            raise UsageError("graph is not connected")
        for v, g in vertices:
            if 2 - 2 * g - degree[v] > -1:
                raise UsageError(
                    f"vertex {v!r} would be a disk or annulus piece"
                )

    @classmethod
    def _trusted(cls, vertices, edges):
        """A graph from tuples of ``(id, genus)`` and ``(id, tail, head)``,
        with no checks run.

        ``cycles.append_loop`` builds each appended graph this way: a
        checked graph with a loop of a new id at a piece of positive
        genus, which gives up one genus.  That piece keeps its Euler
        characteristic, and a loop keeps the graph connected.  Every
        appended cell of random ladders equals the checked build of its
        multicurve in ``test_appended_sheet_matches_the_scan_oracle``.
        ``cycles._template`` builds each ladder template graph this way, by
        the argument of its docstring; every such graph passes __init__
        unchanged in ``test_ladder_cells_pass_the_checked_constructors``.
        """
        graph = object.__new__(cls)
        graph.vertices = vertices
        graph.edges = edges
        graph.vertex_ids = tuple(v for v, _ in vertices)
        graph.edge_ids = tuple(e for e, _, _ in edges)
        return graph

    def euler_char(self, v):
        degree = sum((t == v) + (h == v) for _, t, h in self.edges)
        return 2 - 2 * dict(self.vertices)[v] - degree

    def endpoints(self, e):
        for eid, t, h in self.edges:
            if eid == e:
                return t, h
        raise UsageError(f"unknown edge {e!r}")

    def genus_multiset(self):
        return tuple(sorted(g for _, g in self.vertices))

    def multiedge_profile(self):
        """Multiplicities (>= 2) of parallel edge bundles, largest first.

        Bundles are keyed by the unordered endpoint pair, so two loops at
        the same vertex count as a bundle of size 2.
        """
        bundles = {}
        for _, t, h in self.edges:
            key = (t, h) if str(t) <= str(h) else (h, t)
            bundles[key] = bundles.get(key, 0) + 1
        return tuple(sorted((m for m in bundles.values() if m >= 2), reverse=True))

    def reoriented(self, flips):
        """Copy of the graph with the edges in ``flips`` reversed."""
        flips = set(flips)
        edges = [
            (e, h, t) if e in flips else (e, t, h) for e, t, h in self.edges
        ]
        return DecompGraph(self.vertices, edges)

    def __repr__(self):
        return f"DecompGraph(vertices={list(self.vertices)!r}, edges={list(self.edges)!r})"


class LabeledMulticurve:
    """Decomposition graph with an integral homology class on every curve.

    ``classes`` maps edge id to the class of the curve, oriented by the
    edge's tail/head order; ``x`` is the ambient class the multicurve is
    meant to support.  At every vertex the outgoing-minus-incoming sum of
    incident classes must vanish (the boundary of a piece is
    null-homologous), and the classes must span a subgroup of rank
    ``|edges| - (|vertices| - 1)``.  One pass over the edges sums the
    boundaries, on coordinate tuples: each class is added at its tail
    and subtracted at its head; the per-vertex route it replaced is the
    test oracle ``tests/oracles.multicurve_problem_by_vertex_loop``.
    """

    __slots__ = ("graph", "classes", "x")

    def __init__(self, graph, classes, x):
        classes = dict(classes)
        if set(classes) != set(graph.edge_ids):
            raise UsageError("labeling does not match the edge set")
        boundary = dict.fromkeys(graph.vertex_ids, ZERO.coords)
        for e, t, h in graph.edges:
            c = classes[e].coords
            boundary[t] = tuple(map(add, boundary[t], c))
            boundary[h] = tuple(map(sub, boundary[h], c))
        for v in graph.vertex_ids:
            if any(boundary[v]):
                raise UsageError(
                    f"boundary of vertex {v!r} is not null-homologous"
                )
        want = len(graph.edges) - (len(graph.vertices) - 1)
        rows = [c.coords for c in classes.values()]
        if matrix_rank(rows) != want:
            raise UsageError(
                f"classes span rank {matrix_rank(rows)}, expected {want}"
            )
        self.graph = graph
        self.classes = classes
        self.x = x

    @classmethod
    def _trusted(cls, graph, classes, x):
        """A multicurve with no checks run.

        ``cycles.append_loop`` builds each appended multicurve this way:
        a checked multicurve with a loop of class a3, which adds +a3 and
        -a3 at its piece, so every boundary sum stays zero; it checks the
        rank of the classes itself.  Every appended cell of random
        ladders equals the checked build of its multicurve in
        ``test_appended_sheet_matches_the_scan_oracle``.
        ``cycles._template`` builds each ladder template multicurve this way,
        by the argument of its docstring; every such multicurve passes
        __init__ unchanged in
        ``test_ladder_cells_pass_the_checked_constructors``.
        """
        m = object.__new__(cls)
        m.graph = graph
        m.classes = classes
        m.x = x
        return m

    def class_of(self, e):
        return self.classes[e]

    def edge_ids(self):
        return self.graph.edge_ids

    def __repr__(self):
        return f"LabeledMulticurve(x={self.x!r}, edges={len(self.classes)})"


def ambient_genus(graph):
    """Genus of the closed surface the graph decomposes.

    The total Euler characteristic is 2|V| - 2 sum g - 2|E|, since the
    degrees sum to 2|E|, so it is always even.

    >>> ambient_genus(DecompGraph([(0, 3)], []))
    3
    """
    total = sum(graph.euler_char(v) for v in graph.vertex_ids)
    return (2 - total) // 2


def dimension(graph):
    """Dimension of the cell the multicurve spans: one less than the piece count."""
    return len(graph.vertices) - 1


def bp_count(m):
    """Number of curves minus the number of distinct homology classes."""
    values = {m.classes[e].coords for e in m.graph.edge_ids}
    return len(m.graph.edges) - len(values)


def positive_genus_count(m):
    return sum(1 for _, g in m.graph.vertices if g >= 1)


def cd_upper_bound(m):
    """Upper bound for the cohomological dimension of the stabilizer.

    Only the genus-3 ambient surface is supported; the bound is
    ``6 - P - |M| + BP`` with ``P`` the number of positive-genus pieces.
    """
    if ambient_genus(m.graph) != 3:
        raise UsageError("the bound is pinned to ambient genus 3")
    return 6 - positive_genus_count(m) - len(m.graph.edges) + bp_count(m)


def cd_arithmetic_line(m):
    """The bound spelled out, e.g. '6 − 1 − 3 + 0 = 2'."""
    p = positive_genus_count(m)
    e = len(m.graph.edges)
    bp = bp_count(m)
    return f"6 − {p} − {e} + {bp} = {cd_upper_bound(m)}"


# ---------------------------------------------------------------------------
# realizability


def _merges(pairs, ids):
    """Union-find over the edge pairs on the vertices ``ids``: the number
    of merges, which is ``len(ids)`` minus the number of components.  The
    breadth-first search it replaced is the test oracle ``tests/oracles.reachable``."""
    parent = {v: v for v in ids}
    merges = 0
    for a, b in pairs:
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a != b:
            parent[a] = b
            merges += 1
    return merges


def _strongly_connected(arcs, ids):
    """Whether every vertex of ``ids`` is reached from ``ids[0]`` along
    the (tail, head) arcs, and reaches it."""
    for pairs in (arcs, [(h, t) for t, h in arcs]):
        out = {v: [] for v in ids}
        for t, h in pairs:
            out[t].append(h)
        seen, frontier = {ids[0]}, [ids[0]]
        while frontier:
            for h in out[frontier.pop()]:
                if h not in seen:
                    seen.add(h)
                    frontier.append(h)
        if len(seen) != len(ids):
            return False
    return True


def _strong_orientation(graph):
    """Flips of the first strongly connected orientation in ``product``
    order over ``edge_ids``, or None; see ``realizability_check``."""
    edges, ids = graph.edges, graph.vertex_ids
    last = {}  # vertex -> index of its last non-loop curve
    for i, (_, t, h) in enumerate(edges):
        if t != h:
            last[t] = last[h] = i
    arcs, flips = [], []

    def search(i):
        if i == len(edges):
            return _strongly_connected(arcs, ids)
        _, t, h = edges[i]
        closed = [v for v in (t, h) if last.get(v) == i]
        for flip in (False, True):
            arcs.append((h, t) if flip else (t, h))
            flips.append(flip)
            tails, heads = {a for a, b in arcs if a != b}, {b for a, b in arcs if a != b}
            if all(v in tails and v in heads for v in closed) and search(i + 1):
                return True
            arcs.pop()
            flips.pop()
        return False

    return tuple(flips) if search(0) else None


def _cycle_rows(graph):
    """Fundamental-cycle coordinates of every edge, entries in {0, +-1}.

    Picks a spanning tree; each non-tree edge spawns one basis cycle.  The
    row of edge e gives the coefficients of e in those cycles, so a
    labeling is conservative exactly when class(e) = sum_i row[i] * h_i for
    free classes h_i attached to the non-tree edges.
    """
    tree = {}
    potential = {graph.vertices[0][0]: {}}
    changed = True
    while changed:
        changed = False
        for e, t, h in graph.edges:
            if t == h or e in tree:
                continue
            if t in potential and h not in potential:
                potential[h] = dict(potential[t])
                potential[h][e] = 1
                tree[e] = True
                changed = True
            elif h in potential and t not in potential:
                potential[t] = dict(potential[h])
                potential[t][e] = -1
                tree[e] = True
                changed = True
    if len(potential) != len(graph.vertices):
        missing = [v for v in graph.vertex_ids if v not in potential]
        raise InternalInconsistencyError(f"vertices {missing} are cut off in {graph!r}")
    chords = [e for e, _, _ in graph.edges if e not in tree]
    rows = {}
    for e, t, h in graph.edges:
        if e in tree:
            rows[e] = tuple(
                potential[graph.endpoints(c)[0]].get(e, 0)
                - potential[graph.endpoints(c)[1]].get(e, 0)
                for c in chords
            )
        else:
            rows[e] = tuple(1 if c == e else 0 for c in chords)
    return rows, chords


def realizability_check(graph):
    """Search for a homology labeling making the graph a genuine multicurve.

    Returns a witness ``LabeledMulticurve`` (classes inside the isotropic
    span of a1, a2, a3 and an ambient class carried by basic cycles through
    every curve), or ``None`` when no labeling exists, as for the empty
    multicurve.

    The first strongly connected orientation in ``product`` order over the
    edge ids, a True flip reversing its edge, gives the witness: each class
    is its edge's fundamental-cycle row (``_cycle_rows``) read in the basis
    a1, a2, a3, and x = sum_e rows[e].  Condition (i), that no nonnegative
    combination of the rows vanishes, is strong connectivity: such a
    combination is a nonnegative edge weighting orthogonal to every cycle,
    whose support holds a directed cut, and by Minty's painting lemma each
    edge lies on a directed cycle or a directed cut, never both.
    Condition (ii) then holds: the all-ones weights carry x, so every edge
    lies on a vertex of the bounded weight polytope, integral as the rows
    are totally unimodular.  By Robbins' theorem a connected graph has a
    strongly connected orientation exactly when it has no bridge.

    ``_strong_orientation`` orients the edges depth first, False before
    True, so it meets the complete orientations in product order, and
    ``_strongly_connected`` decides each.  It cuts a branch once a vertex
    has all its non-loop curves oriented but no arc in or no arc out: no
    strong orientation of two or more pieces has one, so the first found
    is that of the product loop, the oracle
    ``tests/oracles.first_strong_orientation_by_product``.  Over the 42
    census graphs it decides 14 orientations, not 606.

    The checked ``LabeledMulticurve`` constructor (null homology per
    piece, the rank test) is the internal check of the witness; a
    failure there, or in ``reoriented``, is an internal inconsistency.
    Isotropy needs no check: every class is an integer combination of
    a1, a2 and a3, which pair to 0 with one another, as
    ``test_census_witnesses_satisfy_invariants`` asserts.  The per-subset
    elimination it replaced, ``tests/oracles.scan_subsets``, checks the
    reachability test on random orientations, and the weight search
    before that is the test oracle ``tests/oracles.realizability_by_search``.
    """
    if not graph.edges:
        return None
    rank = len(graph.edges) - (len(graph.vertices) - 1)
    if rank < 1 or rank > len(ISOTROPIC_BASIS):
        return None
    flips = _strong_orientation(graph)
    if flips is None:
        return None
    try:
        candidate = graph.reoriented([e for e, f in zip(graph.edge_ids, flips) if f])
        rows, chords = _cycle_rows(candidate)
        if len(chords) != rank:
            raise InternalInconsistencyError(
                f"{len(chords)} chords, not the rank {rank}, in {candidate!r}"
            )
        basis = ISOTROPIC_BASIS[:rank]
        classes = {}
        for e in candidate.edge_ids:
            value = ZERO
            for coef, vec in zip(rows[e], basis):
                value = value + coef * vec
            classes[e] = value
        witness = LabeledMulticurve(candidate, classes, sum(classes.values(), ZERO))
    except UsageError as err:
        raise InternalInconsistencyError(f"census graph {graph!r}: {err}") from err
    return witness


# ---------------------------------------------------------------------------
# the census


class CensusEntry:
    """One combinatorial type: a representative graph plus a witness labeling."""

    __slots__ = ("witness",)

    def __init__(self, witness):
        self.witness = witness

    @property
    def graph(self):
        return self.witness.graph

    @property
    def fingerprint(self):
        g = self.graph
        return (
            len(g.vertices),
            len(g.edges),
            g.genus_multiset(),
            g.multiedge_profile(),
        )

    def to_dict(self):
        g = self.graph
        return {
            "vertices": len(g.vertices),
            "edges": len(g.edges),
            "genus_multiset": list(g.genus_multiset()),
            "multiedge_profile": list(g.multiedge_profile()),
            "bp": bp_count(self.witness),
            "p_count": positive_genus_count(self.witness),
            "cd_bound": cd_upper_bound(self.witness),
            "dim": dimension(g),
        }

    def __repr__(self):
        return f"CensusEntry{self.fingerprint!r}"


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _capped_multisets(nv, ne, cap, budget):
    """(multiset, least genera) for each multiset of ``ne`` pairs i <= j
    (loops included), in combinations_with_replacement order, with no
    degree above ``cap``, no isolated vertex when nv > 1, and least genera
    summing to at most ``budget``; a cut branch is named in ``_census``."""
    pairs = [(i, j) for i in range(nv) for j in range(i, nv)]
    degree, combo, out = [0] * nv, [], []
    cost = [max(0, (4 - d) // 2) for d in range(cap + 1)]  # least g with chi <= -1
    if nv > 1:
        cost[0] = budget + 1  # an isolated piece disconnects the graph

    def extend(start, done, spent):
        # vertices below ``done`` are finished; their costs sum to ``spent``
        if len(combo) == ne:
            least = [cost[d] for d in degree]
            if spent + sum(least[done:]) <= budget:
                out.append((tuple(combo), tuple(least)))
            return
        for k in range(start, len(pairs)):
            a, b = pairs[k]
            if a > done:  # the first pair past vertex done = a - 1
                spent += cost[degree[done]]
                if spent > budget:
                    return
                done = a
            if degree[a] < cap and degree[b] + (a == b) < cap:
                degree[a] += 1
                degree[b] += 1
                combo.append(pairs[k])
                extend(k, done, spent)
                combo.pop()
                degree[a] -= 1
                degree[b] -= 1

    extend(0, 0, 0)
    return out


@lru_cache(maxsize=None)
def _census(p):
    """The realizable types with p + 1 pieces, sorted by fingerprint.

    Each piece has chi <= -1 and the chis sum to -4, so a degree is at
    most 7 - |V|, and a piece of degree d needs genus at least
    ceil((3 - d) / 2).  The walk ``_capped_multisets`` takes pairs in
    order of their first vertex, so once it takes a pair starting at a,
    each v < a has its final degree.  It cuts a branch at a finished
    vertex that is isolated (nv > 1) or takes the least genera past the
    budget p + 3 - |E|: each completion would be disconnected or have
    negative spare genus.  It yields 306 multisets over p = 0..3, not
    913.  A connected one (``_merges``) takes the least genera plus each
    composition of the spare genus.  A form outside the seen set is a new
    type: the seen set takes all its relabelings (``_relabelings``), so
    each later isomorphic copy is skipped on its raw form, and the least
    of them is the graph checked, the key of the oracle
    ``tests/oracles.canonical_combo_all_perms``.  So 42 relabeling walks
    cover the 205 candidate forms over p = 0..3, and the 42 graphs checked
    are those of the unpruned oracle ``tests/oracles.census_by_filter``,
    in order.
    """
    nv = p + 1
    entries = []
    seen = set()  # (genera, pairs) of every labeling of the types found so far
    for ne in range(max(nv - 1, 0), p + 4):
        total_genus = p + 3 - ne
        for combo, least in _capped_multisets(nv, ne, 7 - nv, total_genus):
            if _merges(combo, range(nv)) != nv - 1:
                continue
            for extra in _compositions(total_genus - sum(least), nv):
                genera = tuple(map(add, least, extra))
                if (genera, combo) in seen:
                    continue
                forms = set(_relabelings(genera, combo))
                seen |= forms
                canon_genera, canon_pairs = min(forms)
                graph = DecompGraph(
                    [(v, g) for v, g in enumerate(canon_genera)],
                    [(i, a, b) for i, (a, b) in enumerate(canon_pairs)],
                )
                witness = realizability_check(graph)
                if witness is not None:
                    entries.append(CensusEntry(witness))
    entries.sort(key=lambda entry: entry.fingerprint)
    return tuple(entries)


@lru_cache(maxsize=None)
def _pair_tables(nv):
    """Per relabeling of ``nv`` pieces: the old vertex of each new label,
    and each pair, in either orientation, renamed and sorted."""
    pairs = list(product(range(nv), repeat=2))
    return tuple(
        (tuple(map(label.index, range(nv))),
         dict(zip(pairs, [(x, y) if x <= y else (y, x) for x, y in product(label, repeat=2)])))
        for label in permutations(range(nv))
    )


def _relabelings(genera, pairs):
    """Every (genera, pairs) form of one graph, vertex v renamed label[v]
    over all labels; the pairs are sorted as ``_capped_multisets`` gives
    them, so an isomorphic combo of the census is one of these forms.
    Pairs come in either orientation; each is one lookup in the table of
    its label (``_pair_tables``), and each form takes one sort."""
    return [
        (tuple(map(genera.__getitem__, old)), tuple(sorted(map(renamed.__getitem__, pairs))))
        for old, renamed in _pair_tables(len(genera))
    ]


def classify_types(g, p):
    """Census of combinatorial multicurve types with ``p + 1`` pieces.

    Enumerates connected genus-labeled multigraphs with the right total
    Euler characteristic, dedupes them up to isomorphism, and keeps the
    ones admitting a realizable labeling.  Types beyond the top dimension
    do not exist, so ``p > 3`` yields an empty list.
    """
    g, p = as_int(g, "the genus"), as_int(p, "the dimension")
    if g != 3:
        raise UsageError("only ambient genus 3 is supported")
    if p < 0:
        raise UsageError("dimension must be nonnegative")
    if p > 3:
        return []
    return list(_census(p))


def census_json(g=3):
    """Fingerprint records for every census type, ordered by dimension."""
    out = []
    for p in range(4):
        for entry in classify_types(g, p):
            out.append(entry.to_dict())
    return out
