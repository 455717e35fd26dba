from __future__ import annotations

import random
from fractions import Fraction

import pytest

from affine_singular.linalg import SparseBasis
from oracles import det_dense, vec_sub_scaled


def test_vec_sub_scaled():
    u = {"a": Fraction(3), "b": Fraction(1)}
    v = {"a": Fraction(1), "c": Fraction(2)}
    out = vec_sub_scaled(u, v, Fraction(3))
    assert out == {"b": Fraction(1), "c": Fraction(-6)}


def test_sparse_basis_membership():
    basis = SparseBasis()
    assert basis.insert({1: Fraction(2), 2: Fraction(2)})
    assert basis.insert({2: Fraction(1), 3: Fraction(1)})
    # dependent on the first two
    assert not basis.insert({1: Fraction(1), 3: Fraction(-1)})
    assert len(basis) == 2
    assert basis.contains({1: Fraction(5), 2: Fraction(5)})
    assert not basis.contains({3: Fraction(1)})
    assert basis.contains({})


def test_sparse_basis_interleaved_pivots():
    """Insertions whose elimination reveals later pivots out of order."""
    basis = SparseBasis()
    basis.insert({1: Fraction(1), 4: Fraction(1)})
    basis.insert({2: Fraction(1), 4: Fraction(2)})
    basis.insert({1: Fraction(1), 2: Fraction(1), 3: Fraction(1)})
    assert len(basis) == 3
    # third stored row reduces to e3 - 3 e4
    assert basis.contains({3: Fraction(1), 4: Fraction(-3)})
    assert not basis.contains({3: Fraction(1), 4: Fraction(3)})


def test_sparse_basis_random_rank(seed=13):
    rng = random.Random(seed)
    for _ in range(10):
        dim = 6
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(dim)] for _ in range(dim)]
        basis = SparseBasis()
        inserted = 0
        for row in rows:
            vec = {i: c for i, c in enumerate(row) if c}
            if basis.insert(vec):
                inserted += 1
        # rank from the dense determinant pipeline: full rank iff det != 0
        if det_dense(rows) != 0:
            assert inserted == dim
        else:
            assert inserted < dim


@pytest.mark.parametrize("scalar", [int, lambda c: Fraction(c, 6)], ids=["int", "Fraction"])
def test_reduce_and_insert_leave_the_callers_vector_alone(scalar):
    """reduce builds its remainder as a new map: neither it nor insert
    scales, clears or stores the vector it was handed."""
    vectors = [{1: 2, 2: 4, 5: 0}, {2: 3, 3: -1}, {1: 1, 2: 5, 3: -1, 4: 7}, {1: 3, 2: 6}]
    vectors = [{k: scalar(c) for k, c in vec.items()} for vec in vectors]
    copies = [dict(vec) for vec in vectors]
    basis = SparseBasis()
    assert [basis.insert(vec) for vec in vectors] == [True, True, True, False]
    for vec in vectors:
        basis.reduce(vec)
    assert vectors == copies
    assert all(type(c) is type(scalar(1)) for vec in vectors for c in vec.values())
    assert all(row is not vec for row in basis.rows.values() for vec in vectors)
    rows = {k: dict(row) for k, row in basis.rows.items()}
    for vec in vectors:
        vec.clear()
    assert basis.rows == rows


def test_det_dense():
    assert det_dense([[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]]) == -2
    assert det_dense([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]) == -1
    assert det_dense([[Fraction(2)]]) == 2
    singular = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert det_dense(singular) == 0
