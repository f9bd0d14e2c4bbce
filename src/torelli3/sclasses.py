"""Formal s-classes and their relation module.

Each ordered splitting carries a formal generator.  Swapping the last
two parts gives the same class; the three cyclic rotations sum to zero.
This file provides normal forms for that presentation, the rank-2
per-splitting quotient with its symmetric-group action, the evaluation
homomorphisms on symbolic twist generators, the determinant pairing on
abelian cycles, the homology-level lantern checker, and the map sending
an s-class into the kernel of the page differential.
"""

from .lattice import (
    BASIS,
    InternalInconsistencyError,
    SymplecticSubgroup,
    UsageError,
    _transvect,
    intersection,
    hermite_row_form,
    is_saturated,
    matrix_rank,
    orthogonal_complement,
    primitive_part,
)

_RANK = 6


class SClassElement:
    """Integer combination of ordered-splitting generators."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for key, coeff in (terms or {}).items():
            if not isinstance(coeff, int) or isinstance(coeff, bool):
                raise UsageError("coefficients must be integers")
            triple = tuple(key)
            if len(triple) != 3 or len(set(triple)) != 3:
                raise UsageError("term must name three distinct parts")
            if coeff:
                clean[triple] = clean.get(triple, 0) + coeff
        self.terms = {k: v for k, v in clean.items() if v}

    @classmethod
    def generator(cls, splitting):
        return cls({splitting.ordered_key(): 1})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        merged = dict(self.terms)
        for k, v in other.terms.items():
            merged[k] = merged.get(k, 0) + v
        return SClassElement(merged)

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, scalar):
        return SClassElement({k: scalar * v for k, v in self.terms.items()})

    def __repr__(self):
        return f"SClassElement({len(self.terms)} terms)"


def normal_form(e):
    """Project onto the two canonical generators per splitting.

    The tail of each term is sorted (the class does not see the order of
    the last two parts) and the generator led by the largest part key is
    rewritten as minus the sum of the other two.
    """
    out = {}

    def put(first, others, coeff):
        tail = tuple(sorted(others))
        key = (first, tail[0], tail[1])
        out[key] = out.get(key, 0) + coeff

    for (p, q, r), coeff in e.terms.items():
        ordered = sorted((p, q, r))
        if p == ordered[2]:
            put(ordered[0], (ordered[1], ordered[2]), -coeff)
            put(ordered[1], (ordered[0], ordered[2]), -coeff)
        else:
            put(p, (q, r), coeff)
    return SClassElement(out)


PERMUTATIONS = (
    (0, 1, 2),
    (0, 2, 1),
    (1, 0, 2),
    (1, 2, 0),
    (2, 0, 1),
    (2, 1, 0),
)


def relation_matrix():
    """Rows spanning the relations among the six ordered generators."""
    index = {p: i for i, p in enumerate(PERMUTATIONS)}
    rows = []
    for a in range(3):
        b, c = (i for i in range(3) if i != a)
        row = [0] * 6
        row[index[(a, b, c)]] = 1
        row[index[(a, c, b)]] = -1
        rows.append(row)
    for start in ((0, 1, 2), (0, 2, 1)):
        row = [0] * 6
        a, b, c = start
        for rotation in ((a, b, c), (b, c, a), (c, a, b)):
            row[index[rotation]] += 1
        rows.append(row)
    return rows


def relation_factors():
    """Nonzero invariant factors of ``relation_matrix()``; torsion in the
    quotient would be a bug.

    The quotient of Z^6 by the relation lattice R has torsion subgroup
    sat(R) / R, which has the order of the product of the nonzero
    factors.  So the quotient is torsion-free exactly when R is
    saturated, and then every nonzero factor is 1, one per unit of the
    rank of R."""
    rows = relation_matrix()
    if not is_saturated(rows, len(PERMUTATIONS)):
        raise InternalInconsistencyError("unexpected torsion in the relation quotient")
    return [1] * matrix_rank(rows)


def per_splitting_rank(factors=None):
    """Free rank of the quotient by the relations, read off ``factors``
    (default: ``relation_factors()``)."""
    if factors is None:
        factors = relation_factors()
    return len(PERMUTATIONS) - len(factors)


def o_module_reduce(coeffs):
    """Normal form of a triple modulo the all-ones relation."""
    l1, l2, l3 = coeffs
    for value in (l1, l2, l3):
        if not isinstance(value, int) or isinstance(value, bool):
            raise UsageError("coefficients must be integers")
    return (l1 - l3, l2 - l3)


def s3_equivariance_check():
    """The first-part map to the diagonal quotient commutes with S3."""

    def reduced_unit(i):
        v = [0, 0, 0]
        v[i] = 1
        return o_module_reduce(tuple(v))

    for h in PERMUTATIONS:
        for p in PERMUTATIONS:
            composed = tuple(h[p[i]] for i in range(3))
            v = [0, 0, 0]
            v[p[0]] = 1
            acted = [0, 0, 0]
            for i in range(3):
                acted[h[i]] = v[i]
            if reduced_unit(composed[0]) != o_module_reduce(tuple(acted)):
                return False
    for p in PERMUTATIONS:
        swapped = (p[0], p[2], p[1])
        if reduced_unit(p[0]) != reduced_unit(swapped[0]):
            return False
        total = [0, 0, 0]
        a, b, c = p
        for rotation in ((a, b, c), (b, c, a), (c, a, b)):
            total[rotation[0]] += 1
        if o_module_reduce(tuple(total)) != (0, 0):
            return False
    return True


def _mod_gamma_key(vectors, gamma):
    rows = [list(v.coords) for v in vectors] + [list(gamma.coords)]
    return hermite_row_form(rows)


class NuHomomorphism:
    """Evaluation data: a nonseparating class and a two-part splitting of
    the cut-open homology."""

    __slots__ = ("gamma", "parts")

    def __init__(self, gamma, parts):
        if gamma.is_zero() or primitive_part(gamma)[0] != 1:
            raise UsageError("the curve class must be primitive")
        w1, w2 = parts
        for v in tuple(w1.vectors()) + tuple(w2.vectors()):
            if intersection(gamma, v) != 0:
                raise UsageError("parts must pair to zero with the curve")
        for u in w1.vectors():
            for v in w2.vectors():
                if intersection(u, v) != 0:
                    raise UsageError("parts must be mutually orthogonal")
        span = [list(gamma.coords)]
        for v in tuple(w1.vectors()) + tuple(w2.vectors()):
            span.append(list(v.coords))
        if matrix_rank(span) != _RANK - 1:
            raise UsageError("parts must span the cut-open homology")
        self.gamma = gamma
        self.parts = (w1, w2)

    def side_keys(self):
        return frozenset(
            _mod_gamma_key(part.vectors(), self.gamma) for part in self.parts
        )

    def __repr__(self):
        return f"NuHomomorphism(gamma={self.gamma!r})"


class SeparatingTwist:
    """Twist about a curve cutting off the handle pair spanned by U."""

    __slots__ = ("subgroup",)

    def __init__(self, subgroup):
        if subgroup.rank != 2:
            raise UsageError("separating data must have rank 2")
        self.subgroup = subgroup

    def __repr__(self):
        return f"SeparatingTwist({self.subgroup!r})"


class BoundingPairTwist:
    """Opposite twists about two disjoint curves of one primitive class."""

    __slots__ = ("curve_class", "induced")

    def __init__(self, curve_class, induced):
        if curve_class.is_zero() or primitive_part(curve_class)[0] != 1:
            raise UsageError("bounding pair class must be primitive")
        self.curve_class = curve_class
        self.induced = tuple(induced)

    def __repr__(self):
        return f"BoundingPairTwist({self.curve_class!r})"


def nu_eval(generator, nu):
    """The three evaluation rules.

    A separating twist scores 1 exactly when the two sides it cuts out
    are the two parts of nu; the bounding pair through the curve itself
    scores -1 when it induces the same two parts; any other disjoint
    generator scores 0.
    """
    gamma = nu.gamma
    if isinstance(generator, SeparatingTwist):
        u = generator.subgroup
        if any(intersection(gamma, v) != 0 for v in u.vectors()):
            raise UsageError("twist data crosses the curve")
        near = _mod_gamma_key(u.vectors(), gamma)
        far_side = orthogonal_complement(
            SymplecticSubgroup.spanned_by(list(u.vectors()) + [gamma])
        )
        far = _mod_gamma_key(far_side.vectors(), gamma)
        if {near, far} == set(nu.side_keys()):
            return 1
        return 0
    if isinstance(generator, BoundingPairTwist):
        c = generator.curve_class
        if c == gamma or c == -gamma:
            induced = frozenset(
                _mod_gamma_key(part.vectors(), gamma)
                for part in generator.induced
            )
            return -1 if induced == nu.side_keys() else 0
        if intersection(c, gamma) != 0:
            raise UsageError("bounding pair crosses the curve")
        return 0
    raise UsageError(f"cannot evaluate {generator!r}")


def cup_det_pair(nu1, nu2, h1, h2):
    """Minus the determinant of the two-by-two evaluation matrix."""
    a = nu_eval(h1, nu1)
    b = nu_eval(h2, nu1)
    c = nu_eval(h1, nu2)
    d = nu_eval(h2, nu2)
    return -(a * d - b * c)


def _basis_images(classes):
    """The columns of T_{c1} ... T_{cn}: the factors act on the basis right to left."""
    images = [e.coords for e in BASIS]
    for c in reversed(classes):
        images = [_transvect(c.coords, v) for v in images]
    return images


def lantern_check(b1, b2, b3, b4, x, y, z):
    """Necessary homology-level check of the four-holed-sphere relation.

    The three interior twists must equal the four boundary twists as
    products of transvections; the oriented boundary classes must
    already satisfy their linear relation or the configuration is not a
    candidate at all.  Two matrices are equal exactly when their columns,
    the images of the basis, are, so the products are compared by those.
    """
    if b1 + b2 + b3 != b4:
        raise UsageError("boundary classes must satisfy [b1] + [b2] + [b3] = [b4]")
    return _basis_images((x, y, z)) == _basis_images((b1, b2, b3, b4))


def sclass_image_in_e2(splitting, src):
    """Send an ordered three-part splitting into the page kernel.

    The image is the difference of the two generators doubling the
    second and third listed parts, with the global sign fixed to plus.
    Returns a label-to-coefficient map over the basis of src, read off
    the page's ``type_c_labels``.
    """
    key = splitting.unordered_key()
    if key not in src.splitting_index:
        raise UsageError("splitting is not part of the truncation")
    labels = src.type_c_labels.get(key)
    if labels is None:
        raise UsageError("splitting must meet all three parts")
    # found by the argument's unordered part key, the index is keyed by the argument's parts
    second, third = (labels[p.key()] for p in splitting.parts[1:])
    return {second: 1, third: -1}
