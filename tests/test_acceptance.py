"""Acceptance gate: ten checks, one pass/fail line each.

Every verdict is exact integer arithmetic, so the pinned tolerances are
plain equalities; the only numeric budgets are wall-clock limits, listed
next to each check.  Run with ``pytest -v`` to see one line per
criterion.
"""

import time

import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from oracles import column_support
from torelli3.cli import (
    LANTERN_CONFIGS,
    plain_splitting_family,
    tilde_splitting_family,
)
from torelli3.cycles import build_ladder
from torelli3.lattice import (
    A1,
    A2,
    A3,
    B1,
    B2,
    B3,
    STANDARD_SPLITTING,
    Splitting,
    SymplecticSubgroup,
    UsageError,
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
    cup_det_pair,
    lantern_check,
    normal_form,
    nu_eval,
    o_module_reduce,
    per_splitting_rank,
    relation_matrix,
    s3_equivariance_check,
    sclass_image_in_e2,
)
from torelli3.specseq import (
    GeneratorTag,
    SparseIntMatrix,
    Truncation,
    build_e1,
    d13_apply,
    d22_apply,
    d31_apply,
    e2_13_kernel,
    e2_13_tilde_kernel,
    vanishing_census,
)
from torelli3.surface import cd_arithmetic_line, census_json, classify_types

U11 = SymplecticSubgroup.spanned_by([A1, B1])
U22 = SymplecticSubgroup.spanned_by([A2, B2])
U33 = SymplecticSubgroup.spanned_by([A3, B3])
U33_SKEW = SymplecticSubgroup.spanned_by([A3, B3 + A2])

LINE_DIM2 = "6 − 1 − 3 + 0 = 2"
LINE_DIM3 = "6 − 1 − 2 + 0 = 3"


def finish(number, started, budget, summary):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, (
        f"criterion {number} took {elapsed:.2f}s, budget {budget:.0f}s"
    )
    print(f"criterion {number}: PASS {summary} [{elapsed:.2f}s < {budget:.0f}s]")


def type_c_translates(count):
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


def letter_counts(family):
    counts = {"a": 0, "b": 0, "c": 0}
    for s in family:
        letter, _ = splitting_type_wrt_x(A1, s)
        counts[letter] += 1
    return counts


def test_criterion_01_type_census_counts():
    started = time.perf_counter()
    counts = [len(classify_types(3, p)) for p in range(4)]
    assert counts == [3, 6, 3, 2]
    assert len(census_json()) == 14
    finish(1, started, 10.0, f"type counts by dimension {tuple(counts)}")


def test_criterion_02_dimension_cd_consistency():
    started = time.perf_counter()
    records = census_json()
    assert all(r["dim"] + r["cd_bound"] <= 4 for r in records)
    lines = [
        cd_arithmetic_line(entry.witness)
        for p in range(4)
        for entry in classify_types(3, p)
    ]
    assert LINE_DIM2 in lines
    assert LINE_DIM3 in lines
    finish(2, started, 1.0, "dim + cd bound <= 4 on all 14 types, both lines exact")


def test_criterion_03_d31_injective_all_windows():
    started = time.perf_counter()
    fam3 = tuple(str(e.fingerprint) for e in classify_types(3, 3))
    fam2 = tuple(str(e.fingerprint) for e in classify_types(3, 2))
    assert len(fam3) == 2 and len(fam2) == 3
    checked = 0
    for K in range(1, 9):
        for orbits in (fam3, fam2, fam3 + fam2):
            src = build_e1((3, 1), Truncation(K=K, orbits=orbits))
            mat = d31_apply(src)
            assert mat.rank() == len(mat.cols)
            checked += 1
    finish(3, started, 30.0, f"rank = columns in {checked} truncations")


def test_criterion_04_d22_injective_with_geometry():
    started = time.perf_counter()
    subgroups = (U33, U33_SKEW)
    ladders = 0
    for m, n in ((1, 1), (1, 2), (2, 3)):
        for K in range(1, 7):
            ladder = build_ladder(m, n, K)
            assert ladder.check_rung_cofaces()
            psi = ladder.cell_psi
            top = psi[("R", 0) if ("R", 0) in psi else ladder.closing]
            assert top == m + n
            assert psi[("R", -1)] == 2 * m + n
            assert psi[("V", 0)] == m + 2 * n
            src = build_e1(
                (2, 2),
                Truncation(ladder=ladder, subgroups=subgroups, height=1),
            )
            mat = d22_apply(src, ladder)
            assert mat.kernel_vectors() == []
            for u in subgroups:
                gen = GeneratorTag.a2(u)
                entries = {
                    (r, c): v
                    for (r, c), v in mat.entries.items()
                    if c[1] == gen
                }
                assert all(r[1] == gen for (r, _) in entries)
                block = SparseIntMatrix(
                    sorted({r for (r, _) in entries}, key=str),
                    [c for c in mat.cols if c[1] == gen],
                    entries,
                )
                assert block.kernel_vectors() == []
            ladders += 1
    finish(
        4,
        started,
        60.0,
        f"trivial kernel, rung cofaces, and weight trio on {ladders} ladders",
    )


def test_criterion_05_e2_13_kernel_pattern():
    started = time.perf_counter()
    families = (
        plain_splitting_family(),
        tuple([STANDARD_SPLITTING] + type_c_translates(2)),
        (STANDARD_SPLITTING,),
    )
    for family in families:
        counts = letter_counts(family)
        src = build_e1((1, 3), Truncation(splittings=family, x=A1))
        result = e2_13_kernel(src)
        expected = counts["a"] + 2 * counts["b"] + 2 * counts["c"]
        assert result["rank"] == expected
        singles = [c for c in result["basis"] if len(c) == 1]
        doubles = [c for c in result["basis"] if len(c) == 2]
        assert len(singles) == counts["a"] + 2 * counts["b"]
        assert len(doubles) == 2 * counts["c"]
        for combo in doubles:
            assert sorted(combo.values()) == [-1, 1]
            assert {orbit[0] for orbit, _ in combo} == {"c"}
    finish(5, started, 30.0, f"rank and basis pattern on {len(families)} families")


def test_criterion_06_tilde_kernel_and_vanishing():
    started = time.perf_counter()
    family = tilde_splitting_family()
    for subset in (family, family[2:]):
        trunc = Truncation(splittings=subset, x=A1, y=A2 + A3)
        src = build_e1((1, 3), trunc)
        result = e2_13_tilde_kernel(src)
        assert result["rank"] == len(subset)
    assert vanishing_census()["tilde_0_4_zero"] is True
    finish(6, started, 30.0, "one kernel vector per splitting, corner page zero")


def test_criterion_07_s_module_structure():
    started = time.perf_counter()
    assert per_splitting_rank() == 2
    factors = sympy_snf(sympy.Matrix(relation_matrix())).diagonal()
    nonzero = [abs(int(f)) for f in factors if f]
    assert nonzero == [1, 1, 1, 1]
    assert s3_equivariance_check() is True
    parts = STANDARD_SPLITTING.parts
    orders = (
        (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0),
    )
    keys = []
    generators = []
    for order in orders:
        s = Splitting([parts[i] for i in order])
        keys.append(s.ordered_key())
        generators.append(SClassElement.generator(s))
    swap = generators[0] - generators[1]
    cyclic = generators[0] + generators[3] + generators[4]
    assert normal_form(swap).is_zero()
    assert normal_form(cyclic).is_zero()
    assert not normal_form(generators[0]).is_zero()
    images = [
        [normal_form(g).terms.get(key, 0) for key in keys] for g in generators
    ]
    assert matrix_rank(images) == 2
    finish(7, started, 1.0, "free rank 2, equivariant, relations span the kernel")


def test_criterion_08_pairing_values():
    started = time.perf_counter()
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
    assert cup_det_pair(nu1, nu2, BoundingPairTwist(A1, (U22, U33)), h2) == 0
    assert o_module_reduce((1, 1, 1)) == (0, 0)
    finish(8, started, 1.0, "pairing values (1, -1, 0), diagonal reduces to zero")


def test_criterion_09_lantern_suite_and_perturbations():
    started = time.perf_counter()
    assert len(LANTERN_CONFIGS) >= 5
    for config in LANTERN_CONFIGS:
        assert lantern_check(*config)
    base = LANTERN_CONFIGS[2]
    failures = 0
    for slot in range(7):
        perturbed = list(base)
        perturbed[slot] = perturbed[slot] + B1
        if slot < 4:
            with pytest.raises(UsageError, match=r"boundary classes must satisfy \[b1\]"):
                lantern_check(*perturbed)
        else:
            assert not lantern_check(*perturbed)
        failures += 1
    assert failures == 7
    finish(
        9,
        started,
        1.0,
        f"{len(LANTERN_CONFIGS)} configurations pass, 7/7 perturbations fail",
    )


def annihilated(mat, src, combo):
    columns = {(orbit, tag.key()): (orbit, tag) for orbit, tag in src.basis}
    out = {}
    for label, coeff in combo.items():
        col = columns[label]
        for row in column_support(mat, col):
            out[row] = out.get(row, 0) + coeff * mat.entries[(row, col)]
    return not any(out.values())


def test_criterion_10_cyclic_relation_emerges():
    started = time.perf_counter()
    family = type_c_translates(3)
    src = build_e1((1, 3), Truncation(splittings=tuple(family), x=A1))
    mat = d13_apply(src)
    for s in family:
        total = {}
        parts = s.parts
        for order in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            rotated = Splitting([parts[i] for i in order])
            for label, coeff in sclass_image_in_e2(rotated, src).items():
                total[label] = total.get(label, 0) + coeff
        assert all(v == 0 for v in total.values())
    order = [(orbit, tag.key()) for orbit, tag in src.basis]
    position = {label: i for i, label in enumerate(order)}
    vectors = []
    for s in family:
        parts = sorted(s.parts, key=lambda p: p.key())
        for first in parts[:2]:
            tail = sorted(
                (p for p in s.parts if p is not first), key=lambda p: p.key()
            )
            ordered = Splitting([first, tail[0], tail[1]])
            combo = sclass_image_in_e2(ordered, src)
            assert sorted(combo.values()) == [-1, 1]
            assert annihilated(mat, src, combo)
            row = [0] * len(order)
            for label, coeff in combo.items():
                row[position[label]] = coeff
            vectors.append(row)
    assert len(vectors) == 6
    assert matrix_rank(vectors) == 6
    finish(
        10,
        started,
        10.0,
        "cyclic images cancel, six generator images stay independent",
    )
