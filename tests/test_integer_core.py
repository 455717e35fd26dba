"""The integer inner loops against Fraction oracles that share no code with them.

SparseBasis, Freudenthal's recursion, uenv_mul and ad_action run on ints
over a common denominator; tests/oracles.py keeps Fraction versions of each.
Coefficients here are deliberately non-integral, so a lost denominator shows.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from affine_singular.determinants import (DeterminantSpec, det_entry_poly, ep_pow,
                                          ep_state, minor_entry_poly)
from affine_singular.linalg import SparseBasis
from affine_singular.liealg import build_algebra
from affine_singular.weights import weight_multiplicities
from affine_singular.zhu import UEnvElement, ad_action, finite_determinant, uenv_mul
from oracles import FractionBasis, freudenthal, uenv_ad, uenv_product

COEFFS = [Fraction(1, 3), Fraction(-5, 2), Fraction(2), Fraction(-1), Fraction(7, 6)]


def _random_vector(rng, keys):
    support = rng.sample(keys, rng.randint(1, 5))
    return {k: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 2, 3)))
            for k in support}


def _combination(rng, vectors):
    out = {}
    for vec in rng.sample(vectors, min(len(vectors), rng.randint(1, 3))):
        c = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
        for k, v in vec.items():
            out[k] = out.get(k, 0) + c * v
    return {k: v for k, v in out.items() if v}


def _assert_positive_multiple(ints: dict, exact: dict):
    assert set(ints) == set(exact)
    if exact:
        k = min(exact)
        ratio = Fraction(ints[k]) / exact[k]
        assert ratio > 0
        assert all(Fraction(v) == ratio * exact[key] for key, v in ints.items())


@pytest.mark.parametrize("seed", range(8))
def test_sparse_basis_matches_the_fraction_oracle(seed):
    rng = random.Random(seed)
    keys = list(range(9))
    basis, oracle = SparseBasis(), FractionBasis()
    seen = []
    for _ in range(40):
        roll = rng.random()
        if roll < 0.1:
            vec = {}
        elif roll < 0.25 and seen:
            vec = dict(rng.choice(seen))  # a repeat
        elif roll < 0.45 and seen:
            vec = _combination(rng, seen)  # dependent on what is stored
        else:
            vec = _random_vector(rng, keys)
        seen.append(vec)
        _assert_positive_multiple(basis.reduce(vec), oracle.reduce(vec))
        assert basis.insert(vec) == oracle.insert(vec)
        assert len(basis) == len(oracle)
        assert set(basis.rows) == set(oracle.rows)
        probe = _combination(rng, seen) if rng.random() < 0.5 else _random_vector(rng, keys)
        assert basis.contains(probe) == oracle.contains(probe)
        assert basis.contains({})


def test_sparse_basis_rows_are_primitive_with_positive_pivots():
    rng = random.Random(5)
    basis = SparseBasis()
    for _ in range(30):
        vec = _random_vector(rng, list(range(7)))
        vec[min(vec)] = -abs(vec[min(vec)])  # every lead negative
        basis.insert(vec)
    assert len(basis) == 7
    for pivot, row in basis.rows.items():
        assert pivot == min(row)
        assert all(type(v) is int for v in row.values())
        assert row[pivot] > 0
        assert math.gcd(*row.values()) == 1


def _fundamental_sums(table, coefficient_lists):
    weights = []
    for coeffs in coefficient_lists:
        lam = [Fraction(0)] * table.rank
        for j, c in enumerate(coeffs, start=1):
            lam = [a + c * b for a, b in zip(lam, table.fundamental_weight(j))]
        weights.append(tuple(lam))
    return weights


FREUDENTHAL_CASES = [
    ("C", 2, [(1, 0), (0, 1), (1, 1), (2, 1), (1, 3)]),
    ("C", 3, [(1, 0, 0), (0, 1, 1), (2, 0, 1)]),
    ("C", 4, [(0, 1, 0, 0), (1, 0, 0, 1)]),
    ("A", 2, [(1,), (3,)]),
    ("A", 3, [(1, 0), (1, 1), (2, 1), (0, 3)]),
    ("A", 4, [(1, 0, 0), (1, 0, 1), (0, 2, 0)]),
    ("A", 5, [(0, 0, 1, 0), (1, 0, 0, 1)]),
]


@pytest.mark.parametrize("kind, rank, coefficient_lists", FREUDENTHAL_CASES)
def test_weight_multiplicities_match_the_fraction_recursion(kind, rank, coefficient_lists):
    table = build_algebra(kind, rank)
    weights = _fundamental_sums(table, coefficient_lists)
    for lam in weights:
        mult = weight_multiplicities(table, lam)
        assert mult == freudenthal(table, lam)
        assert list(mult) == list(freudenthal(table, lam))
    if kind == "A":
        assert any(c.denominator > 1 for lam in weights for c in lam)


def test_non_integral_multiplicity_raises(table_c2):
    # sl_2 root data with rho = 3 in place of 1: the step below the highest
    # weight 1 gives 4/12, and the recursion would end there if rounded
    wrong_rho = SimpleNamespace(rho=lambda: (Fraction(3),), simple_roots=((Fraction(2),),),
                                positive_root_weights=((Fraction(2),),))
    with pytest.raises(ArithmeticError):
        freudenthal(wrong_rho, (1,))
    with pytest.raises(ArithmeticError):
        weight_multiplicities(wrong_rho, (1,))
    # (0, 1) is not dominant: the oracle's recursion meets a non-integral
    # quotient, and the library refuses the weight before it recurses
    with pytest.raises(ArithmeticError):
        freudenthal(table_c2, (0, 1))
    with pytest.raises(ValueError, match=r"\(0, 1\)"):
        weight_multiplicities(table_c2, (0, 1))


def _random_element(rng, table):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        word = tuple(sorted(rng.randrange(table.dimension) for _ in range(rng.randint(0, 3))))
        terms[word] = rng.choice(COEFFS)
    return UEnvElement(terms)


@pytest.mark.parametrize("kind, rank", [("C", 2), ("A", 3), ("C", 3)])
def test_uenv_mul_and_ad_action_match_fraction_sums(kind, rank):
    table = build_algebra(kind, rank)
    rng = random.Random(rank)
    for _ in range(6):
        u, v = _random_element(rng, table), _random_element(rng, table)
        assert uenv_mul(table, u, v) == uenv_product(table, u, v)
        g = rng.randrange(table.dimension)
        assert ad_action(table, g, u) == uenv_ad(table, g, u)


def test_commuting_products_keep_both_denominators(table_c2):
    spec = DeterminantSpec("C", 2, 2, 1)
    det = finite_determinant(table_c2, spec)
    u, v = det.scale(Fraction(1, 3)), det.scale(Fraction(-5, 2))
    assert uenv_mul(table_c2, u, v) == uenv_product(table_c2, u, v)
    assert uenv_mul(table_c2, u, v) == uenv_mul(table_c2, det, det).scale(Fraction(-5, 6))
    lowering = table_c2.simple_lowering[-1]
    assert ad_action(table_c2, lowering, u) == uenv_ad(table_c2, lowering, u)


def test_integer_core_keeps_rational_front_doors(table_c2):
    spec = DeterminantSpec("C", 2, 2, 2)
    det = det_entry_poly(table_c2, spec)
    assert all(type(c) is int for c in det.values())
    assert all(type(c) is int for c in ep_pow(det, 2).values())
    assert all(type(c) is int for c in minor_entry_poly(table_c2, spec, 1, 1).values())
    state = ep_state(ep_pow(det, 2))
    assert all(type(v) is Fraction for c in state.terms.values() for v in c.terms.values())
    finite = finite_determinant(table_c2, spec)
    square = uenv_mul(table_c2, finite, finite)
    image = ad_action(table_c2, table_c2.simple_lowering[-1], square)
    for element in (finite, square, image):
        assert element.terms
        assert all(type(c) is Fraction for c in element.terms.values())
    mult = weight_multiplicities(table_c2, (2, 2))
    assert all(type(c) is Fraction for w in mult for c in w)
    assert all(type(m) is int for m in mult.values())
