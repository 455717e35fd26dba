"""End-to-end acceptance checks.

Each test covers one advertised capability, computes its verdict, prints a
single PASS/FAIL line and then asserts.  Run with `pytest -v` (or `-s` to
see the lines directly); everything is seeded and exact, so the outcome is
reproducible bit for bit.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from affine_singular.category_o import classify_sp6
from affine_singular.determinants import (DeterminantSpec, beta_constant,
                                          det_entry_poly, determinant_vector,
                                          ep_mul, ep_pow, ep_state,
                                          lowering_factor_check,
                                          minor_entry_poly, verify_singular)
from affine_singular.liealg import build_algebra
from affine_singular.vacuum import (apply_generator, state_weight, straighten)
from affine_singular.weights import multiplicity, weyl_dim
from affine_singular.zhu import (verify_weyl_vanishing, verify_zhu_generator,
                                 weyl_image)
from oracles import coexisting_singulars, straighten_rightmost, uenv_normal_form

SEED = 20240817

C_GRID = [("C", 2, 1, 1), ("C", 2, 1, 2), ("C", 2, 2, 1), ("C", 2, 2, 2),
          ("C", 3, 1, 1), ("C", 3, 1, 2), ("C", 3, 2, 1), ("C", 3, 2, 2),
          ("C", 3, 3, 1), ("C", 3, 3, 2)]
A_GRID = [("A", 2, 1, 1), ("A", 2, 1, 2), ("A", 2, 1, 3),
          ("A", 4, 1, 1), ("A", 4, 1, 2), ("A", 4, 2, 1), ("A", 4, 2, 2)]


def record(name: str, ok: bool, witness=""):
    print("%s  %s" % ("PASS" if ok else "FAIL", name))
    assert ok, "%s: %s" % (name, witness)


def test_a1_determinant_vectors_are_singular_at_their_levels():
    failures = []
    for kind, rank, m, n in C_GRID + A_GRID:
        report = verify_singular(DeterminantSpec(kind, rank, m, n))
        if not report.verdict:
            failures.append((kind, rank, m, n, report.witness))
    record("determinant vectors annihilated at the distinguished level "
           "(%d cases)" % len(C_GRID + A_GRID), not failures, failures)


def test_a2_off_level_residual_is_the_predicted_multiple_of_the_minor():
    failures = []
    for kind, rank, m, n in C_GRID + A_GRID:
        spec = DeterminantSpec(kind, rank, m, n)
        table = spec.table()
        level = spec.level + 1
        state = determinant_vector(table, spec).specialize(level)
        # simple raising operators do not care about the level
        for x in table.simple_raising:
            if not apply_generator(table, x, 0, state).specialize(level).is_zero:
                failures.append((spec.label(), "raising operator acted", table.text(x)))
        residual = apply_generator(table, table.theta_lowering, 1, state).specialize(level)
        det = det_entry_poly(table, spec)
        predicted = ep_state(ep_mul(minor_entry_poly(table, spec, 1, 1),
                                    ep_pow(det, n - 1))) * (beta_constant(table) * n)
        if residual != predicted:
            failures.append((spec.label(), "residual mismatch"))
    record("one level above, the single failing operator leaves exactly "
           "beta*n*minor(1,1)*det^(n-1)", not failures, failures)


def test_a3_symbolic_lowering_factor_identity():
    failures = []
    for kind, rank, m, n in C_GRID + A_GRID:
        report = lowering_factor_check(DeterminantSpec(kind, rank, m, n))
        if not report.verdict:
            failures.append((kind, rank, m, n, report.witness))
    record("lowering-factor identity holds with the level symbolic",
           not failures, failures)


def test_a4_projection_hits_the_finite_determinant_power():
    failures = []
    for kind, rank, m, n in C_GRID + A_GRID:
        report = verify_zhu_generator(DeterminantSpec(kind, rank, m, n))
        if not report.verdict:
            failures.append((kind, rank, m, n, report.witness))
    record("enveloping-algebra projection sends each vector to det^n",
           not failures, failures)


def test_a5_oscillator_image_vanishes_exactly_for_m_at_least_2():
    failures = []
    for kind, rank, m, n in C_GRID + A_GRID:
        report = verify_weyl_vanishing(DeterminantSpec(kind, rank, m, n))
        if not report.verdict:
            failures.append((kind, rank, m, n, report.witness))
    record("oscillator image of det^n is zero iff the matrix size is >= 2",
           not failures, failures)


def test_a6_oscillator_image_is_multiplicative():
    failures = []
    for kind, rank in (("C", 2), ("C", 3), ("A", 2), ("A", 3)):
        table = build_algebra(kind, rank)
        for x, y in itertools.product(range(table.dimension), repeat=2):
            u = uenv_normal_form(table, [x, y])
            if weyl_image(table, u) != table.realizations[x] * table.realizations[y]:
                failures.append((kind, rank, table.text(x), table.text(y)))
    record("the realization map respects products through PBW straightening "
           "(all basis pairs, both kinds, ranks up to 3)", not failures, failures)


def test_a7_sp6_classification_matches_the_printed_locus():
    report = classify_sp6(seed=SEED, controls=25)
    details = report.details
    table = build_algebra("C", 3)
    oracle_ok = (details["module_dimension"] == weyl_dim(table, (2, 2, 2)) == 84
                 and details["zero_weight_dimension"]
                 == multiplicity(table, (2, 2, 2), (0, 0, 0)) == 4)
    record("sp_6 classification: dimensions match the weight oracles and the "
           "printed lines/points are exactly the zero locus",
           report.verdict and oracle_ok,
           (report.witness, details["subchecks"]))


def test_a8_two_singular_vectors_coexist_at_sp6_level_zero():
    found = coexisting_singulars("C", 3, 0)
    pairs = [(s.m, s.n) for s in found]
    ok = pairs == [(1, 1), (3, 2)]
    weights = []
    for spec in found:
        table = spec.table()
        ok = ok and verify_singular(spec, level=0).verdict
        weights.append(state_weight(table, determinant_vector(table, spec)))
    ok = ok and len(set(weights)) == len(found)
    record("level 0 for sp_6 carries two determinant vectors with distinct "
           "weights: (m,n) = (1,1) and (3,2)", ok, (pairs, weights))


def test_a9_structural_property_suites():
    rng = random.Random(SEED)
    failures = []
    for kind, rank in (("C", 2), ("A", 3)):
        table = build_algebra(kind, rank)
        dim = table.dimension
        # straightening is confluent across rewriting strategies
        for _ in range(40):
            word = [(rng.randint(-3, -1), rng.randrange(dim))
                    for _ in range(rng.randint(2, 5))]
            if straighten(table, word) != straighten_rightmost(table, word):
                failures.append((kind, "confluence", word))
        # antisymmetry + Jacobi + form invariance, exhaustively
        for a, b, c in itertools.product(range(dim), repeat=3):
            jac = {}
            for first, second, third in ((a, b, c), (b, c, a), (c, a, b)):
                for z, cz in table.bracket(first, second):
                    for w, cw in table.bracket(z, third):
                        jac[w] = jac.get(w, 0) + cz * cw
            if any(jac.values()):
                failures.append((kind, "jacobi", (a, b, c)))
            inv = sum((cz * table.form(z, c) for z, cz in table.bracket(a, b)), Fraction(0))
            inv += sum((cz * table.form(b, z) for z, cz in table.bracket(a, c)), Fraction(0))
            if inv:
                failures.append((kind, "invariance", (a, b, c)))
    record("property suites: straightening confluence, Jacobi identity, "
           "invariant form (seeded + exhaustive)", not failures, failures[:3])
