from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from affine_singular.scalars import Poly, format_rational, parse_rational
from affine_singular.vacuum import VacuumState
from affine_singular.weyl import WeylElement
from affine_singular.zhu import UEnvElement
from oracles import K, constant_value, level_var

H3 = ("h1", "h2", "h3")


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
    assert (p + q).terms == {(1,): Fraction(3), (0,): Fraction(2)}
    assert (p * q).terms == {(2,): Fraction(2), (1,): Fraction(1), (0,): Fraction(-3)}
    assert (p - p).is_zero
    assert (k * k * k).terms == {(3,): Fraction(1)}
    assert p.evaluate((Fraction(1, 2),)) == Fraction(4)


def test_unipoly_eval_matches_horner():
    rng = random.Random(11)
    for _ in range(30):
        coeffs = {d: Fraction(rng.randint(-5, 5)) for d in range(rng.randint(1, 5))}
        p = Poly(K, {(d,): c for d, c in coeffs.items()})
        at = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        # plain power-sum oracle, written independently of evaluate
        expected = sum((c * at**d for d, c in coeffs.items()), Fraction(0))
        assert p.evaluate((at,)) == expected


def test_unipoly_zero_convention():
    zero = Poly(K)
    assert zero.is_zero
    assert zero.degree == -1
    assert constant_value(zero) == 0
    assert (Poly(K, {(2,): 1}) - Poly(K, {(2,): 1})).degree == -1
    assert Poly.constant(K, 5).degree == 0


def test_unipoly_variable_mixing_guard():
    k = Poly.variable(("k",))
    x = Poly.variable(("x",))
    with pytest.raises(ValueError):
        _ = k + x


def test_unipoly_repr():
    k = level_var()
    assert repr(2 * k - 1) == "2*k - 1"
    assert repr(k * k) == "k^2"
    assert repr(Poly(K)) == "0"


def test_hpoly_arithmetic_and_eval():
    h1, h2 = (Poly.variable(("h1", "h2"), i) for i in range(2))
    p = (h1 + 1) * (h2 - 2)
    assert p.evaluate([3, 5]) == Fraction(12)
    assert p.evaluate([-1, 7]) == 0
    assert (p - p).is_zero
    assert p.degree == 2


def test_hpoly_variable_count_guard():
    h1 = Poly.variable(("h1", "h2"), 0)
    g1 = Poly.variable(("h1", "h2", "h3"), 0)
    with pytest.raises(ValueError):
        _ = h1 + g1
    with pytest.raises(ValueError):
        _ = h1 * g1
    assert h1 != g1
    with pytest.raises(ValueError):
        Poly(("h1", "h2"), {(1, 0, 0): 1})
    with pytest.raises(ValueError):
        Poly.variable(("h1", "h2"), 2)


def test_hpoly_repr():
    h1, _, h3 = (Poly.variable(H3, i) for i in range(3))
    assert repr(h1 * h1 - h3) == "h1^2 - h3"
    assert repr(Poly.constant(H3, 0)) == "0"


def _printed(names, terms) -> str:
    """The text of a polynomial written out by hand: terms of higher total
    degree first, and within one degree the larger exponent tuple first;
    each term as sign, then |c|*body, body when |c| = 1, or |c| alone for
    the constant; "0" when nothing is left."""
    text = ""
    top = max((sum(e) for e, c in terms.items() if c), default=0)
    for degree in range(top, -1, -1):
        # descending lexicographic order over the tuples of this degree
        for expo in itertools.product(range(degree, -1, -1), repeat=len(names)):
            c = terms.get(expo, 0)
            if sum(expo) != degree or not c:
                continue
            factors = []
            for name, e in zip(names, expo):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(name + "^" + str(e))
            body = "*".join(factors)
            size = str(abs(c))
            piece = size if not body else body if abs(c) == 1 else size + "*" + body
            if not text:
                text = "-" + piece if c < 0 else piece
            else:
                text += (" - " if c < 0 else " + ") + piece
    return text or "0"


@pytest.mark.parametrize("names", [("k",), ("x",), H3], ids=["k", "x", "h1-h3"])
def test_poly_repr_matches_a_written_out_printer(names):
    rng = random.Random(len(names) * 31 + ord(names[0][0]))
    top = 5 if len(names) == 1 else 2
    for _ in range(200):
        terms = {}
        for _ in range(rng.randint(0, 6)):
            expo = tuple(rng.randint(0, top) for _ in names)
            terms[expo] = rng.choice([1, -1, Fraction(1, 2), Fraction(-1, 2), rng.randint(-9, 9)])
        assert repr(Poly(names, terms)) == _printed(names, terms), terms


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
