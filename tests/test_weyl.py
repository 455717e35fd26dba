from __future__ import annotations

import random
from fractions import Fraction

import pytest

from affine_singular.weyl import (WeylElement, _accumulate_product, annihilation, creation,
                                  monomial_text)
from oracles import normal_ordered


def naive_product(nvars, word):
    """Normalise a word of generators by adjacent swaps only.

    word is a sequence of ("c", i) / ("n", i) letters read left to right.
    The single rewrite a*_i a_j -> a_j a*_i - delta_ij is applied until no
    annihilation letter stands before a creation letter; this is a slow but
    independent oracle for the closed normal-ordering formula.
    """
    out = {}
    work = [(Fraction(1), tuple(word))]
    while work:
        c, w = work.pop()
        pos = None
        for t in range(len(w) - 1):
            if w[t][0] == "n" and w[t + 1][0] == "c":
                pos = t
                break
        if pos is None:
            alpha = [0] * nvars
            beta = [0] * nvars
            for species, i in w:
                (alpha if species == "c" else beta)[i - 1] += 1
            key = (tuple(alpha), tuple(beta))
            out[key] = out.get(key, Fraction(0)) + c
            if not out[key]:
                del out[key]
            continue
        (_, i), (_, j) = w[pos], w[pos + 1]
        work.append((c, w[:pos] + (w[pos + 1], w[pos]) + w[pos + 2:]))
        if i == j:
            work.append((-c, w[:pos] + w[pos + 2:]))
    return out


def letter(nvars, species, i):
    return creation(nvars, i) if species == "c" else annihilation(nvars, i)


def test_single_relation():
    a = creation(1, 1)
    s = annihilation(1, 1)
    # a*_1 a_1 = a_1 a*_1 - 1
    assert s * a == a * s - 1
    assert a * s - s * a == WeylElement.constant(1, 1)
    # distinct indices commute
    a1, s2 = creation(2, 1), annihilation(2, 2)
    assert s2 * a1 == a1 * s2


def test_square_commutator():
    a = creation(1, 1)
    s = annihilation(1, 1)
    lhs = (a * a) * (s * s) - (s * s) * (a * a)
    assert lhs == 4 * (a * s) - 2


def test_symmetrised_product():
    a = creation(1, 1)
    s = annihilation(1, 1)
    assert normal_ordered(a, s) == a * s - Fraction(1, 2)
    assert normal_ordered(s, a) == normal_ordered(a, s)
    with pytest.raises(ValueError):
        normal_ordered(a * a, s)


def test_powers_against_naive_oracle():
    for b in range(4):
        for c in range(4):
            word = [("n", 1)] * b + [("c", 1)] * c
            product = WeylElement.constant(1, 1)
            for sp, i in word:
                product = product * letter(1, sp, i)
            assert product.terms == naive_product(1, word)


def test_random_words_against_naive_oracle():
    rng = random.Random(23)
    for nvars in (1, 2, 3):
        for _ in range(40):
            word = [(rng.choice("cn"), rng.randint(1, nvars))
                    for _ in range(rng.randint(0, 6))]
            product = WeylElement.constant(nvars, 1)
            for sp, i in word:
                product = product * letter(nvars, sp, i)
            assert product.terms == naive_product(nvars, word)


def _word(mono):
    """The letters of a normally ordered monomial, creations first."""
    alpha, beta = mono
    return ([("c", i + 1) for i, e in enumerate(alpha) for _ in range(e)]
            + [("n", i + 1) for i, e in enumerate(beta) for _ in range(e)])


NONE = ((0, 0, 0), (0, 0, 0))
MONOMIAL_PAIRS = [
    (NONE, ((1, 2, 0), (0, 1, 3))),  # a constant on the left
    (((1, 0, 2), (0, 3, 0)), NONE),  # and on the right
    (NONE, NONE),
    (((1, 0, 0), (0, 2, 0)), ((0, 0, 1), (1, 0, 0))),  # index sets disjoint
    (((0, 0, 0), (2, 0, 1)), ((0, 1, 0), (0, 3, 0))),  # a* on 1 and 3, a on 2 only
    (((2, 2, 2), (0, 0, 0)), ((3, 1, 0), (1, 1, 1))),  # no a* on the left: nothing contracts
    (((0, 0, 0), (1, 0, 0)), ((1, 0, 0), (0, 0, 0))),  # a*_1 a_1
    (((0, 1, 0), (2, 0, 1)), ((3, 0, 2), (0, 1, 0))),  # two contracting indices
    (((1, 1, 1), (3, 2, 1)), ((2, 3, 1), (1, 1, 1))),  # three, of several orders
]


def test_monomial_products_against_naive_oracle():
    """Contracting pairs, disjoint pairs and constants, as Fraction elements
    and through the int term dicts that the oscillator image folds on."""
    rng = random.Random(31)
    pairs = list(MONOMIAL_PAIRS)
    for _ in range(40):
        pairs.append(tuple((tuple(rng.randint(0, 2) for _ in range(3)),
                            tuple(rng.randint(0, 2) for _ in range(3))) for _ in range(2)))
    contracting = 0
    for m1, m2 in pairs:
        expected = naive_product(3, _word(m1) + _word(m2))
        disjoint = not any(b and a for b, a in zip(m1[1], m2[0]))
        contracting += not disjoint
        if disjoint:  # the t = 0 term alone
            assert list(expected) == [tuple(tuple(map(sum, zip(*p))) for p in zip(m1, m2))]
        x = WeylElement(3, {m1: Fraction(-5, 2)})
        y = WeylElement(3, {m2: Fraction(1, 3)})
        assert (x * y).terms == {key: Fraction(-5, 6) * c for key, c in expected.items()}
        out = {}
        _accumulate_product(*m1, *m2, 7, out)
        assert out == {key: 7 * c for key, c in expected.items()}
        assert all(type(c) is int for c in out.values())
    assert contracting >= 6


def test_sums_of_monomials_multiply_term_by_term():
    rng = random.Random(47)
    for _ in range(20):
        x, y = (WeylElement(3, {(tuple(rng.randint(0, 2) for _ in range(3)),
                                 tuple(rng.randint(0, 2) for _ in range(3))):
                                rng.choice([Fraction(1, 3), Fraction(-5, 2), 2, -1])
                                for _ in range(3)}) for _ in range(2))
        expected = {}
        for m1, c1 in x.terms.items():
            for m2, c2 in y.terms.items():
                for key, c in naive_product(3, _word(m1) + _word(m2)).items():
                    expected[key] = expected.get(key, 0) + c1 * c2 * c
        assert (x * y).terms == {key: c for key, c in expected.items() if c}


def test_associativity_spot_checks():
    rng = random.Random(7)
    for _ in range(15):
        elems = []
        for _ in range(3):
            z = WeylElement(2)
            for _ in range(rng.randint(1, 3)):
                sp, i = rng.choice("cn"), rng.randint(1, 2)
                z = z + letter(2, sp, i) * Fraction(rng.randint(-2, 2))
            elems.append(z)
        x, y, z = elems
        assert (x * y) * z == x * (y * z)


def test_degree1_action_stays_linear():
    a1, a2, s1 = creation(2, 1), creation(2, 2), annihilation(2, 1)
    q = normal_ordered(a1, a2)
    # [a_1 a_2, a*_1] = a_2 and [a_1 a_2, a_1] = 0
    assert q * s1 - s1 * q == a2 and (q * a1 - a1 * q).is_zero


def test_monomial_text():
    a = creation(2, 1)
    s = annihilation(2, 2)
    z = (a * a) * s
    (mono,) = z.terms
    assert monomial_text(mono) == "a1^2 a*2"
