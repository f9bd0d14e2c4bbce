import random
from itertools import permutations

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import column_support, lantern_by_products, sclass_image_by_scan, smith_factors
from torelli3 import cli
from torelli3.cli import plain_splitting_family
from torelli3.lattice import (
    A1,
    A2,
    A3,
    B1,
    B2,
    B3,
    BASIS,
    HVector,
    InternalInconsistencyError,
    STANDARD_SPLITTING,
    Splitting,
    SymplecticSubgroup,
    UsageError,
    apply_matrix,
    enumerate_splittings,
    intersection,
    matrix_rank,
    splitting_type_wrt_x,
    transform_splitting,
    transvection_matrix,
)
from torelli3.sclasses import (
    BoundingPairTwist,
    NuHomomorphism,
    SClassElement,
    SeparatingTwist,
    _basis_images,
    cup_det_pair,
    lantern_check,
    normal_form,
    nu_eval,
    o_module_reduce,
    per_splitting_rank,
    relation_factors,
    relation_matrix,
    s3_equivariance_check,
    sclass_image_in_e2,
)
from torelli3.specseq import Truncation, build_e1, d13_apply

U11 = SymplecticSubgroup.spanned_by([A1, B1])
U22 = SymplecticSubgroup.spanned_by([A2, B2])
U33 = SymplecticSubgroup.spanned_by([A3, B3])
ZERO = HVector((0, 0, 0, 0, 0, 0))


def rotations(s):
    p = s.parts
    return (
        Splitting([p[0], p[1], p[2]]),
        Splitting([p[1], p[2], p[0]]),
        Splitting([p[2], p[0], p[1]]),
    )


def type_c_family(count=3):
    """Distinct splittings meeting all three parts of the class a1."""
    found = []
    seen = set()
    for c in (B1 + A2 + A3, B1 + A2 - A3, B1 - A2 + A3, B1 + A2 + A3 + B2):
        s = transform_splitting(transvection_matrix(c), STANDARD_SPLITTING)
        letter, _ = splitting_type_wrt_x(A1, s)
        if letter == "c" and s.unordered_key() not in seen:
            seen.add(s.unordered_key())
            found.append(s)
    assert len(found) >= count
    return found[:count]


def test_normal_form_kills_cyclic_sum():
    total = sum(
        (SClassElement.generator(r) for r in rotations(STANDARD_SPLITTING)),
        SClassElement(),
    )
    assert normal_form(total).is_zero()


def test_normal_form_kills_tail_swap():
    p = STANDARD_SPLITTING.parts
    diff = SClassElement.generator(
        Splitting([p[0], p[1], p[2]])
    ) - SClassElement.generator(Splitting([p[0], p[2], p[1]]))
    assert normal_form(diff).is_zero()


def test_normal_form_keeps_single_generator():
    g = SClassElement.generator(STANDARD_SPLITTING)
    assert not normal_form(g).is_zero()


def test_normal_form_linear_and_idempotent():
    p = STANDARD_SPLITTING.parts
    a = SClassElement.generator(Splitting([p[1], p[0], p[2]]))
    b = SClassElement.generator(Splitting([p[2], p[1], p[0]]))
    combined = normal_form(a + 3 * b)
    assert combined.terms == (normal_form(a) + 3 * normal_form(b)).terms
    assert normal_form(combined).terms == combined.terms


def test_element_validation():
    with pytest.raises(ValueError):
        SClassElement({("x", "y", "y"): 1})
    with pytest.raises(ValueError):
        SClassElement({("x", "y", "z"): 1.5})
    assert SClassElement({("x", "y", "z"): 0}).is_zero()


def test_relation_matrix_snf():
    rows = relation_matrix()
    assert len(rows) == 5 and all(len(r) == 6 for r in rows)
    factors = smith_factors(rows, 6)
    assert tuple(factors) == (1, 1, 1, 1)
    assert relation_factors() == factors
    oracle = sympy.Matrix(rows).rank()
    assert oracle == 4


def test_per_splitting_rank():
    assert per_splitting_rank() == 2


def test_torsion_in_the_relation_quotient_is_an_internal_error(monkeypatch, capsys):
    from torelli3 import cli, sclasses

    torsion = [[2 * v for v in row] for row in relation_matrix()]
    assert smith_factors(torsion, 6) == [2] * 4
    monkeypatch.setattr(sclasses, "relation_matrix", lambda: torsion)
    with pytest.raises(InternalInconsistencyError, match="unexpected torsion"):
        per_splitting_rank()
    assert cli.main(["smodule"]) == cli.EXIT_INTERNAL == 3
    assert capsys.readouterr().err == "error: unexpected torsion in the relation quotient\n"


def test_s3_equivariance():
    assert s3_equivariance_check()


def test_o_module_reduce_values():
    assert o_module_reduce((1, 1, 1)) == (0, 0)
    assert o_module_reduce((1, 0, 0)) == (1, 0)
    assert o_module_reduce((4, 4, 4)) == (0, 0)
    assert o_module_reduce((0, 2, -1)) == (1, 3)
    with pytest.raises(ValueError):
        o_module_reduce((1, 1, 0.5))


def test_nu_matrix_realizes_displayed_values():
    nu1 = NuHomomorphism(A2, (U11, U33))
    nu2 = NuHomomorphism(A3, (U11, U22))
    h1 = BoundingPairTwist(A2, (U11, U33))
    h2 = SeparatingTwist(U11)
    values = [
        [nu_eval(h1, nu1), nu_eval(h2, nu1)],
        [nu_eval(h1, nu2), nu_eval(h2, nu2)],
    ]
    assert values == [[-1, 1], [0, 1]]
    assert cup_det_pair(nu1, nu2, h1, h2) == 1
    assert cup_det_pair(nu1, nu2, h2, h1) == -1
    other = BoundingPairTwist(A1, (U22, U33))
    assert cup_det_pair(nu1, nu2, other, h2) == 0


def test_nu_separating_rules():
    nu = NuHomomorphism(A2, (U11, U33))
    assert nu_eval(SeparatingTwist(U11), nu) == 1
    assert nu_eval(SeparatingTwist(U33), nu) == 1
    skew = SymplecticSubgroup.spanned_by([A1, B1 + A3])
    assert nu_eval(SeparatingTwist(skew), nu) == 0
    with pytest.raises(UsageError, match="twist data crosses the curve"):
        nu_eval(SeparatingTwist(U22), nu)


def test_nu_bounding_pair_rules():
    nu = NuHomomorphism(A2, (U11, U33))
    assert nu_eval(BoundingPairTwist(A2, (U33, U11)), nu) == -1
    mismatched = BoundingPairTwist(
        A2, (SymplecticSubgroup.spanned_by([A1, B1 + A3]), U33)
    )
    assert nu_eval(mismatched, nu) == 0
    assert nu_eval(BoundingPairTwist(-A2, (U11, U33)), nu) == -1
    assert nu_eval(BoundingPairTwist(A1, (U22, U33)), nu) == 0
    with pytest.raises(UsageError, match="bounding pair crosses the curve"):
        nu_eval(BoundingPairTwist(B2, (U11, U33)), nu)
    with pytest.raises(UsageError, match="cannot evaluate"):
        nu_eval("not a generator", nu)


def test_nu_validations():
    with pytest.raises(UsageError, match="the curve class must be primitive"):
        NuHomomorphism(2 * A2, (U11, U33))
    with pytest.raises(UsageError, match="the curve class must be primitive"):
        NuHomomorphism(ZERO, (U11, U33))
    with pytest.raises(UsageError, match="parts must pair to zero with the curve"):
        NuHomomorphism(A2, (U22, U33))
    with pytest.raises(UsageError, match="parts must be mutually orthogonal"):
        NuHomomorphism(A1, (U22, SymplecticSubgroup.spanned_by([A2, B2 + B3])))
    isotropic = SymplecticSubgroup.spanned_by([A1, A3])
    with pytest.raises(UsageError, match="parts must span the cut-open homology"):
        NuHomomorphism(A2, (isotropic, isotropic))
    with pytest.raises(UsageError, match="bounding pair class must be primitive"):
        BoundingPairTwist(2 * A1, (U22, U33))
    with pytest.raises(UsageError, match="separating data must have rank 2"):
        SeparatingTwist(SymplecticSubgroup.spanned_by([A1]))


def test_cup_alternating():
    nu1 = NuHomomorphism(A2, (U11, U33))
    nu2 = NuHomomorphism(A3, (U11, U22))
    h1 = BoundingPairTwist(A2, (U11, U33))
    h2 = SeparatingTwist(U11)
    assert cup_det_pair(nu1, nu2, h1, h2) == -cup_det_pair(nu2, nu1, h1, h2)
    assert cup_det_pair(nu1, nu2, h1, h2) == -cup_det_pair(nu1, nu2, h2, h1)


def test_detection_identity():
    classes = {1: A1, 2: A2, 3: A3}
    parts = {1: (U22, U33), 2: (U11, U33), 3: (U11, U22)}
    thetas = {
        (1, 2): SeparatingTwist(U33),
        (1, 3): SeparatingTwist(U22),
        (2, 3): SeparatingTwist(U11),
    }
    lam = (5, -2, 7)
    for (i, j), theta in thetas.items():
        total = sum(
            lam[k - 1]
            * cup_det_pair(
                NuHomomorphism(classes[i], parts[i]),
                NuHomomorphism(classes[j], parts[j]),
                BoundingPairTwist(classes[k], parts[k]),
                theta,
            )
            for k in (1, 2, 3)
        )
        assert total == lam[i - 1] - lam[j - 1]


LANTERN_CONFIGS = [
    (ZERO, ZERO, ZERO, ZERO, ZERO, ZERO, ZERO),
    (A2, -A2, ZERO, ZERO, ZERO, A2, A2),
    (A1, A2, A3, A1 + A2 + A3, A1 + A2, A2 + A3, A1 + A3),
    (A1, A2 + A3, A2 - A3, A1 + 2 * A2, A1 + A2 + A3, 2 * A2, A1 + A2 - A3),
    (A1, ZERO, A3, A1 + A3, A1, A3, A1 + A3),
]


@pytest.mark.parametrize("config", LANTERN_CONFIGS)
def test_lantern_suite(config):
    assert lantern_check(*config)


def sympy_transvection(c):
    J = sympy.zeros(6, 6)
    for i in range(3):
        J[2 * i, 2 * i + 1] = 1
        J[2 * i + 1, 2 * i] = -1
    v = sympy.Matrix(6, 1, list(c.coords))
    return sympy.eye(6) + v * (J * v).T


def test_lantern_matches_external_product_oracle():
    b1, b2, b3 = A1, A2 + A3, A2 - A3
    b4 = b1 + b2 + b3
    x, y, z = b1 + b2, b2 + b3, b1 + b3
    lhs = sympy_transvection(x) * sympy_transvection(y) * sympy_transvection(z)
    rhs = sympy.eye(6)
    for c in (b1, b2, b3, b4):
        rhs = rhs * sympy_transvection(c)
    assert lhs == rhs
    assert lantern_check(b1, b2, b3, b4, x, y, z)
    for c in (x, y, z, b1, b2, b3, b4):
        ours = transvection_matrix(c)
        assert sympy.Matrix([list(r) for r in ours]) == sympy_transvection(c)


def test_lantern_interior_perturbations_fail():
    b1, b2, b3 = A1, A2, A3
    b4 = b1 + b2 + b3
    x, y, z = b1 + b2, b2 + b3, b1 + b3
    assert lantern_check(b1, b2, b3, b4, x, y, z)
    assert not lantern_check(b1, b2, b3, b4, x + B2, y, z)
    assert not lantern_check(b1, b2, b3, b4, x, y + B1, z)
    assert not lantern_check(b1, b2, b3, b4, x, y, z + B3)


def test_lantern_boundary_perturbations_raise():
    b1, b2, b3 = A1, A2, A3
    b4 = b1 + b2 + b3
    x, y, z = b1 + b2, b2 + b3, b1 + b3
    for i in range(4):
        slots = [b1, b2, b3, b4]
        slots[i] = slots[i] + B1
        with pytest.raises(UsageError, match=r"boundary classes must satisfy \[b1\]"):
            lantern_check(*slots, x, y, z)


def test_lantern_balanced_boundary_perturbation_fails():
    b1, b2, b3 = A1, A2, A3
    x, y, z = b1 + b2, b2 + b3, b1 + b3
    assert not lantern_check(b1, b2 + B2, b3, b1 + b2 + B2 + b3, x, y, z)


CLASSES = st.lists(st.integers(-2, 2), min_size=6, max_size=6).map(HVector)


@settings(max_examples=200, deadline=None)
@given(st.lists(CLASSES, min_size=1, max_size=7))
def test_basis_images_are_the_columns_of_the_sympy_product(classes):
    # random classes pair to nonzero values, so their transvections do not
    # commute and a factor order other than right to left shows here
    product = sympy.eye(6)
    for c in classes:
        product = product * sympy_transvection(c)
    images = _basis_images(classes)
    assert [tuple(product[:, j]) for j in range(6)] == images


def _lantern_outcome(check, config):
    try:
        return check(*config)
    except UsageError as err:
        return str(err)


def _stock_translated_and_perturbed():
    stock = list(LANTERN_CONFIGS) + list(cli.LANTERN_CONFIGS)
    configs = list(stock)
    for seed in range(1, 21):
        rng = random.Random(seed)
        for base in stock:
            mat = transvection_matrix(rng.choice(cli.TRANSLATE_POOL), rng.choice((1, -1, 2)))
            configs.append(tuple(apply_matrix(mat, v) for v in base))
    for base in stock:
        for slot in range(7):
            for e in BASIS:
                perturbed = list(base)
                perturbed[slot] = perturbed[slot] + e
                configs.append(tuple(perturbed))
    return configs


def test_lantern_matches_the_product_oracle_on_stock_translated_and_perturbed():
    verdicts = []
    for config in _stock_translated_and_perturbed():
        got = _lantern_outcome(lantern_check, config)
        assert got == _lantern_outcome(lantern_by_products, config)
        verdicts.append(got)
    assert {True, False} <= set(verdicts)
    assert any(isinstance(v, str) for v in verdicts)


@settings(max_examples=200, deadline=None)
@given(st.lists(CLASSES, min_size=6, max_size=6), CLASSES, st.sampled_from((1, -1, 2)))
def test_lantern_matches_the_product_oracle_on_random_configurations(classes, c, power):
    b1, b2, b3, x, y, z = classes
    config = (b1, b2, b3, b1 + b2 + b3, x, y, z)
    assert lantern_check(*config) == lantern_by_products(*config)
    # both sides T_b1 T_b2 T_(b1+b2), and the interior read in reverse
    built = (b1, b2, -(b1 + b2), ZERO, b1, b2, b1 + b2)
    assert lantern_check(*built) and lantern_by_products(*built)
    flipped = built[:4] + (b1 + b2, b2, b1)
    assert lantern_check(*flipped) == lantern_by_products(*flipped)
    # a symplectic translate of a stock lantern is a lantern
    mat = transvection_matrix(c, power)
    for base in cli.LANTERN_CONFIGS:
        moved = tuple(apply_matrix(mat, v) for v in base)
        assert lantern_check(*moved) and lantern_by_products(*moved)


def test_lantern_keeps_each_side_in_its_factor_order():
    # with b3 = -(b1 + b2) and b4 = 0 both sides are T_b1 T_b2 T_(b1+b2),
    # so the check passes in the stated order; <a1, b1> = 1, so these
    # factors do not commute and either side read in reverse fails, which
    # no stock configuration shows (their classes pair to 0)
    b1, b2 = A1, B1
    config = (b1, b2, -(b1 + b2), ZERO, b1, b2, b1 + b2)
    assert lantern_check(*config) and lantern_by_products(*config)
    for flipped in (config[:4] + (b1 + b2, b2, b1), (-(b1 + b2), b2, b1) + config[3:]):
        assert not lantern_check(*flipped)
        assert not lantern_by_products(*flipped)


def test_lantern_sees_products_that_differ_in_one_column():
    # T_e for a basis vector e moves only the basis vector that pairs with
    # e, so against four trivial boundary twists the two sides differ in
    # one column, a different one for each e
    moved = set()
    for e in BASIS:
        config = (ZERO, ZERO, ZERO, ZERO, e, ZERO, ZERO)
        lhs, rhs = _basis_images(config[4:]), _basis_images(config[:4])
        differ = [j for j in range(6) if lhs[j] != rhs[j]]
        assert len(differ) == 1
        moved.update(differ)
        assert not lantern_check(*config)
        assert not lantern_by_products(*config)
    assert moved == set(range(6))


def page_source(splittings):
    return build_e1((1, 3), Truncation(splittings=splittings, x=A1))


def image_of(mat, src, combo):
    cols = {(orbit, tag.key()): (orbit, tag) for orbit, tag in src.basis}
    out = {}
    for label, coeff in combo.items():
        col = cols[label]
        for row in column_support(mat, col):
            out[row] = out.get(row, 0) + coeff * mat.entries[(row, col)]
    return {k: v for k, v in out.items() if v}


def test_sclass_image_lies_in_kernel():
    family = type_c_family()
    src = page_source(family)
    mat = d13_apply(src)
    for s in family:
        combo = sclass_image_in_e2(s, src)
        assert sorted(combo.values()) == [-1, 1]
        assert image_of(mat, src, combo) == {}


def test_sclass_cyclic_sum_telescopes():
    family = type_c_family()
    src = page_source(family)
    total = {}
    for rotated in rotations(family[0]):
        for label, coeff in sclass_image_in_e2(rotated, src).items():
            total[label] = total.get(label, 0) + coeff
    assert all(v == 0 for v in total.values())


def test_sclass_tail_swap_negates():
    family = type_c_family()
    src = page_source(family)
    p = family[0].parts
    forward = sclass_image_in_e2(Splitting([p[0], p[1], p[2]]), src)
    swapped = sclass_image_in_e2(Splitting([p[0], p[2], p[1]]), src)
    assert swapped == {k: -v for k, v in forward.items()}


def test_sclass_image_errors():
    family = type_c_family()
    src = page_source(family)
    with pytest.raises(UsageError, match="splitting is not part of the truncation"):
        sclass_image_in_e2(STANDARD_SPLITTING, src)
    plain = build_e1(
        (1, 3), Truncation(splittings=family + [STANDARD_SPLITTING], x=A1)
    )
    with pytest.raises(UsageError, match="splitting must meet all three parts"):
        sclass_image_in_e2(STANDARD_SPLITTING, plain)


def test_sclass_images_independent_across_splittings():
    family = type_c_family(3)
    src = page_source(family)
    order = [(orbit, tag.key()) for orbit, tag in src.basis]
    position = {label: i for i, label in enumerate(order)}
    vectors = []
    for s in family:
        parts = sorted(s.parts, key=lambda p: p.key())
        for first in parts[:2]:
            tail = sorted((p for p in s.parts if p is not first), key=lambda p: p.key())
            ordered = Splitting([first, tail[0], tail[1]])
            combo = sclass_image_in_e2(ordered, src)
            row = [0] * len(order)
            for label, coeff in combo.items():
                row[position[label]] = coeff
            vectors.append(row)
    assert len(vectors) == 6
    assert matrix_rank(vectors) == 6
    assert sympy.Matrix(vectors).rank() == 6


def images_agree_with_the_scan(splittings):
    """Every ordering of every type-(c) splitting of the page maps to the
    same combination by the page's label index and by the basis scan,
    and every other splitting is refused with the same message by both.
    Returns the number of type-(c) splittings."""
    src = page_source(splittings)
    type_c = 0
    for s in splittings:
        if splitting_type_wrt_x(A1, s)[0] != "c":
            for route in (sclass_image_in_e2, sclass_image_by_scan):
                with pytest.raises(UsageError, match="splitting must meet all three parts"):
                    route(s, src)
            continue
        type_c += 1
        for order in permutations(s.parts):
            ordered = Splitting(order)
            assert sclass_image_in_e2(ordered, src) == sclass_image_by_scan(ordered, src)
    return type_c


def test_sclass_image_index_matches_the_scan_on_the_default_family():
    assert images_agree_with_the_scan(list(plain_splitting_family())) == 1


def test_sclass_image_index_matches_the_scan_on_a_bound_1_sample():
    family = enumerate_splittings(1)
    sample = random.Random(15).sample(family, 400)
    assert images_agree_with_the_scan(sample) > 100
    keys = {s.unordered_key() for s in sample}
    outside = next(s for s in family if s.unordered_key() not in keys)
    src = page_source(sample)
    for route in (sclass_image_in_e2, sclass_image_by_scan):
        with pytest.raises(UsageError, match="splitting is not part of the truncation"):
            route(outside, src)
