from __future__ import annotations

import random
from fractions import Fraction

import pytest

from affine_singular.scalars import HPoly, UniPoly, format_rational, parse_rational
from affine_singular.vacuum import VacuumState
from affine_singular.weyl import WeylElement
from affine_singular.zhu import UEnvElement
from oracles import constant_value, level_var, total_degree


def test_rational_text_round_trip():
    for text in ["0", "7", "-3", "1/2", "-5/4", "12/8"]:
        value = parse_rational(text)
        assert parse_rational(format_rational(value)) == value
    assert format_rational(Fraction(12, 8)) == "3/2"
    assert format_rational(Fraction(-4, 2)) == "-2"


def test_unipoly_basic_arithmetic():
    k = level_var()
    p = 2 * k + 3
    q = k - 1
    assert (p + q).terms == {1: Fraction(3), 0: Fraction(2)}
    assert (p * q).terms == {2: Fraction(2), 1: Fraction(1), 0: Fraction(-3)}
    assert (p - p).is_zero
    assert (k * k * k).terms == {3: Fraction(1)}
    assert p(Fraction(1, 2)) == Fraction(4)


def test_unipoly_eval_matches_horner():
    rng = random.Random(11)
    for _ in range(30):
        coeffs = {d: Fraction(rng.randint(-5, 5)) for d in range(rng.randint(1, 5))}
        p = UniPoly(coeffs)
        at = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        # plain power-sum oracle, written independently of __call__
        expected = sum((c * at**d for d, c in coeffs.items()), Fraction(0))
        assert p(at) == expected


def test_unipoly_zero_convention():
    zero = UniPoly({})
    assert zero.is_zero
    assert zero.degree == -1
    assert constant_value(zero) == 0
    assert (UniPoly({2: 1}) - UniPoly({2: 1})).degree == -1


def test_unipoly_variable_mixing_guard():
    k = UniPoly.variable("k")
    x = UniPoly.variable("x")
    with pytest.raises(ValueError):
        _ = k + x


def test_unipoly_repr():
    k = level_var()
    assert repr(2 * k - 1) == "2*k - 1"
    assert repr(k * k) == "k^2"
    assert repr(UniPoly({})) == "0"


def test_hpoly_arithmetic_and_eval():
    h1 = HPoly.coordinate(2, 1)
    h2 = HPoly.coordinate(2, 2)
    p = (h1 + 1) * (h2 - 2)
    assert p.evaluate([3, 5]) == Fraction(12)
    assert p.evaluate([-1, 7]) == 0
    assert (p - p).is_zero
    assert total_degree(p) == 2


def test_hpoly_variable_count_guard():
    h1 = HPoly.coordinate(2, 1)
    g1 = HPoly.coordinate(3, 1)
    with pytest.raises(ValueError):
        _ = h1 + g1
    with pytest.raises(ValueError):
        _ = h1 * g1
    assert h1 != g1
    with pytest.raises(ValueError):
        HPoly(2, {(1, 0, 0): 1})


def test_hpoly_repr():
    h1 = HPoly.coordinate(3, 1)
    h3 = HPoly.coordinate(3, 3)
    assert repr(h1 * h1 - h3) == "h1^2 - h3"
    assert repr(HPoly.constant(3, 0)) == "0"


def test_term_maps_render_in_key_order(table_c2):
    t = table_c2
    assert VacuumState.zero().text(t) == "0"
    assert VacuumState.vacuum().text(t) == "(1) |0>"
    assert UEnvElement().text(t) == "0"
    assert UEnvElement.one().text(t) == "(1) 1"
    assert repr(WeylElement(2)) == "0"
    assert repr(WeylElement.constant(2, 3)) == "(3) 1"
    word = (t.idx("X[-2e1]"), t.idx("X[-2e2]"))
    assert UEnvElement({word: Fraction(-3, 2)}).text(t) == "(-3/2) X[-2e1] X[-2e2]"
    state = VacuumState({((-2, t.idx("X[2e1]")), (-1, t.idx("X[2e2]"))): Fraction(-3, 2)})
    assert state.text(t) == "(-3/2) X[2e1](-2) X[2e2](-1) |0>"
    mixed = WeylElement(2, {((1, 0), (0, 2)): Fraction(-3, 2), ((0, 0), (0, 0)): 5})
    assert repr(mixed) == "(5) 1 + (-3/2) a1 a*2^2"
