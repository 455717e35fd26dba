from __future__ import annotations

import random
from fractions import Fraction

import pytest

from affine_singular.determinants import DeterminantSpec, determinant_vector
from affine_singular.scalars import Poly, over_common_denominator
from affine_singular.vacuum import (VacuumState, _keys_text,
                                    annihilation_operators, apply_generator,
                                    monomial_text, singular_check,
                                    state_weight, straighten)
from oracles import (K, differential_ints, from_keys, level_var, mode_degree,
                     straighten_rightmost)
from test_acceptance import A_GRID, C_GRID


def random_word(rng, table, length, low=-3):
    return [(rng.randint(low, -1), rng.randrange(table.dimension))
            for _ in range(length)]


def test_vacuum_and_zero():
    v = VacuumState.vacuum()
    assert not v.is_zero
    assert mode_degree(v) == 0
    assert (v - v).is_zero
    assert VacuumState.zero().is_zero


def test_canonical_words_pass_through(table_c2):
    word = [(-3, 0), (-1, 2), (-1, 5)]
    state = straighten(table_c2, word)
    assert state.terms == {tuple(word): Poly.constant(K, 1)}
    # straightening an already canonical state changes nothing
    assert straighten(table_c2, next(iter(state.terms))) == state


def test_mode_guard(table_c2):
    with pytest.raises(ValueError):
        straighten(table_c2, [(0, "X[2e1]")])
    with pytest.raises(ValueError):
        straighten(table_c2, [(2, "X[2e1]")])


def test_swap_produces_bracket_term(table_a2):
    t = table_a2
    e, f = "X[e1-e2]", "X[e2-e1]"
    ef = straighten(t, [(-1, e), (-1, f)])
    fe = straighten(t, [(-1, f), (-1, e)])
    h = t.idx("h1-h2")
    diff = ef - fe
    assert diff.terms == {((-2, h),): Poly.constant(K, 1)}
    assert fe.terms == {((-1, t.idx(f)), (-1, t.idx(e))): Poly.constant(K, 1)}


def test_central_term_symbolic(table_c2):
    """x(n) y(-n) |0> = n (x, y) k |0> for basis elements, all n >= 1."""
    t = table_c2
    k = level_var()
    for n in (1, 2, 3):
        for x in range(t.dimension):
            for y in range(t.dimension):
                state = apply_generator(t, x, n, straighten(t, [(-n, y)]))
                expected = VacuumState.vacuum() * (k * (n * t.form(x, y)))
                assert state == expected, (n, t.text(x), t.text(y))


def test_frozen_level_action(table_c2):
    # X[-2e1](1) X[2e1](-1) |0> = -4 k |0>
    t = table_c2
    state = apply_generator(t, "X[-2e1]", 1, straighten(t, [(-1, "X[2e1]")]))
    assert state == VacuumState.vacuum() * (level_var() * (-4))
    assert state.specialize(Fraction(1, 2)).terms == {(): Poly.constant(K, -2)}


def test_specialize_keeps_constants_and_evaluates_the_rest():
    k = level_var()
    half, seven = Poly.constant(K, Fraction(1, 2)), Poly.constant(K, 7)
    state = VacuumState({((-1, 0),): half, ((-1, 1),): seven,
                         ((-1, 2),): k * 3 - 2,  # k-linear with a constant term
                         ((-2, 0),): k * Fraction(-4, 3),  # k-linear without one
                         ((-1, 3),): k + 1,  # zero at k = -1
                         ((-1, 0), (-1, 1)): k * k - 4})
    assert state.specialize(-1).terms == {((-1, 0),): half, ((-1, 1),): seven,
                                          ((-1, 2),): Poly.constant(K, -5),
                                          ((-2, 0),): Poly.constant(K, Fraction(4, 3)),
                                          ((-1, 0), (-1, 1)): Poly.constant(K, -3)}
    assert ((-1, 2),) not in state.specialize(Fraction(2, 3)).terms  # 3k - 2 vanishes there


def test_specialize_evaluates_a_k_linear_residual_exactly():
    """x(1) det|0> = beta (k - level) minor(1,1)|0>: zero at the level, the
    minor times beta/3 a third above it."""
    spec = DeterminantSpec("C", 3, 2, 1)
    t = spec.table()
    residual = apply_generator(t, t.theta_lowering, 1, determinant_vector(t, spec))
    assert residual.terms and all(c.degree == 1 for c in residual.terms.values())
    assert residual.specialize(spec.level).is_zero
    third = spec.level + Fraction(1, 3)
    got = residual.specialize(third)
    assert got.terms == {mono: Poly.constant(K, c.evaluate((third,))) for mono, c in residual.terms.items()}
    beta = t.form(t.theta_lowering, t.theta_raising)
    minor = straighten(t, [(-1, "X[2e2]")])
    assert got == minor * Fraction(beta, 3)


def test_commutation_contract_random(table_c2, table_a3):
    """x(p) y(q) w - y(q) x(p) w = [x, y](p+q) w for negative modes.

    With p, q <= -1 the central delta never fires, so the bracket term is
    the whole commutator; this exercises straightening against the table.
    """
    rng = random.Random(41)
    for table in (table_c2, table_a3):
        for _ in range(25):
            x = rng.randrange(table.dimension)
            y = rng.randrange(table.dimension)
            p = rng.randint(-2, -1)
            q = rng.randint(-2, -1)
            w = straighten(table, random_word(rng, table, rng.randint(0, 2)))
            left = apply_generator(table, x, p, apply_generator(table, y, q, w))
            right = apply_generator(table, y, q, apply_generator(table, x, p, w))
            bracket = VacuumState.zero()
            for z, cz in table.bracket(x, y):
                bracket = bracket + apply_generator(table, z, p + q, w) * cz
            assert left - right == bracket, (table.kind, x, y, p, q)


def folded(table, x, state):
    """x(1) on a state of mode -1 letters with constant coefficients,
    through the kernel; None when the kernel refuses the letters."""
    assert all(mode == -1 for mono in state.terms for mode, _ in mono)
    assert all(c.degree == 0 for c in state.terms.values())
    ints, den = over_common_denominator(
        {tuple(y for _, y in mono): c.terms[0,] for mono, c in state.terms.items()})
    try:
        out = differential_ints(table, table.idx(x), ints)
    except RuntimeError:
        return None
    return from_keys({slot: Fraction(v, den) for slot, v in out.items()})


def test_differential_action_matches_straightening():
    """The lowest root vector at mode 1 on det^n |0> agrees with the
    straightener, and so does it on the residual specialised at the
    distinguished level and at an off level a third away, which gives it
    fractional coefficients.  C4 m=4 n=3 has every entry repeated in most
    monomials.
    """
    for kind, rank, m, n in C_GRID + A_GRID + [("C", 4, 4, 3)]:
        spec = DeterminantSpec(kind, rank, m, n)
        table = spec.table()
        x = table.theta_lowering
        state = determinant_vector(table, spec)
        residual = apply_generator(table, x, 1, state)
        inputs = [state] + [residual.specialize(level) for level in (spec.level, spec.level + Fraction(1, 3))]
        for v in inputs:
            image = folded(table, x, v)
            assert image is not None, spec.label()
            assert image == apply_generator(table, x, 1, v), spec.label()


@pytest.mark.parametrize("kind, rank", [("C", 3), ("A", 4)])
def test_every_generator_on_det_matches_straightening(kind, rank):
    """x(1) for every basis element x, not only the lowest root vector, on
    det|0> and det^2|0>: the kernel differentiates only the letters x
    moves, and every other letter must come out unchanged."""
    for n in (1, 2):
        spec = DeterminantSpec(kind, rank, 2, n)
        table = spec.table()
        state = determinant_vector(table, spec)
        for x in range(table.dimension):
            image = folded(table, x, state)
            assert image is not None, (spec.label(), table.text(x))
            assert image == apply_generator(table, x, 1, state), (spec.label(), table.text(x))


def test_central_only_letters_are_moved(table_c2):
    """On Cartan letters x(1) acts through the central term alone: for x and
    Y in the Cartan, [x, Y] = 0 but (x, Y) != 0, so Y is still moved."""
    t = table_c2
    h1, h2 = t.idx("h1"), t.idx("h2")
    states = [
        VacuumState({((-1, h1), (-1, h1)): 1}),
        VacuumState({((-1, h1), (-1, h2), (-1, h2)): Fraction(2, 3)}),
    ]
    for state in states:
        for x in range(t.dimension):
            image = folded(t, x, state)
            assert image is None or image == apply_generator(t, x, 1, state), t.text(x)
        for x in t.cartan_indices:
            image = folded(t, x, state)
            assert image is not None
            assert image == apply_generator(t, x, 1, state)
    assert folded(t, h1, states[0]) == VacuumState(
        {((-1, h1),): level_var() * (2 * t.form(h1, h1))})


def test_differential_action_falls_back(table_c2):
    """The kernel raises on letters that do not commute, or that x(1) turns
    into letters that do not."""
    t = table_c2

    def mono(*labels):
        return {tuple(sorted(t.idx(y) for y in labels)): 1}

    for refused in (mono("X[-2e1]", "X[2e1]"), mono("h1", "X[2e1]")):  # the letters do not commute
        for x in range(t.dimension):
            with pytest.raises(RuntimeError, match=r"\(1\) acts on letters that do not commute"):
                differential_ints(t, x, refused)
    # h1 commutes with itself, but the pair term [[X[-2e1], h1], h1] is a
    # multiple of X[-2e1], which does not
    with pytest.raises(RuntimeError, match=r"^X\[-2e1\]\(1\) acts on letters that do not commute$"):
        differential_ints(t, t.idx("X[-2e1]"), mono("h1", "h1"))


def test_confluence_of_strategies(table_c2, table_a3):
    rng = random.Random(17)
    for table in (table_c2, table_a3):
        for _ in range(60):
            word = random_word(rng, table, rng.randint(2, 5))
            assert straighten(table, word) == straighten_rightmost(table, word), word


def test_state_weight(table_c2):
    t = table_c2
    state = straighten(t, [(-2, "X[e1+e2]"), (-1, "X[2e1]")])
    assert state_weight(t, state) == (3, 1)
    mixed = straighten(t, [(-1, "X[2e1]")]) + straighten(t, [(-1, "X[2e2]")])
    with pytest.raises(ValueError, match="not weight homogeneous"):
        state_weight(t, mixed)
    with pytest.raises(ValueError):
        state_weight(t, VacuumState.zero())


def test_mode_degree_mixed(table_c2):
    state = straighten(table_c2, [(-1, 0)]) + straighten(table_c2, [(-2, 0)])
    with pytest.raises(ValueError):
        mode_degree(state)
    assert mode_degree(straighten(table_c2, [(-2, 0), (-1, 1)])) == -3


def test_annihilation_operators(table_c2, table_a4):
    ops = annihilation_operators(table_c2)
    labels = [(table_c2.text(x), n) for x, n in ops]
    assert labels == [("X[e1-e2]", 0), ("X[2e2]", 0), ("X[-2e1]", 1)]
    ops = annihilation_operators(table_a4)
    labels = [(table_a4.text(x), n) for x, n in ops]
    assert labels == [("X[e1-e2]", 0), ("X[e2-e3]", 0), ("X[e3-e4]", 0), ("X[e4-e1]", 1)]


def test_singular_check_sl2_pattern(table_a2):
    """e(-1)^n |0> is singular exactly at level n - 1 (classic sl_2 fact)."""
    t = table_a2
    for n in (1, 2, 3):
        state = straighten(t, [(-1, "X[e1-e2]")] * n)
        good = singular_check(t, state, level=n - 1)
        assert good.verdict, good.witness
        bad = singular_check(t, state, level=n)
        assert not bad.verdict
        assert bad.witness["operator"] == "X[e2-e1](1)"


def test_singular_check_witness_text(table_c2):
    t = table_c2
    state = straighten(t, [(-1, "X[2e1]")])
    report = singular_check(t, state, level=1)
    assert not report.verdict
    assert report.witness["operator"] == "X[-2e1](1)"
    assert report.witness["residual"] == "(-4) |0>"
    report0 = singular_check(t, state, level=0)
    assert report0.verdict


def test_monomial_text(table_c2):
    t = table_c2
    assert monomial_text(t, ()) == "|0>"
    assert monomial_text(t, ((-2, t.idx("X[2e1]")), (-1, t.idx("h1")))) == "X[2e1](-2) h1(-1) |0>"


@pytest.mark.parametrize("seed", range(4))
def test_keys_text_is_the_states_text(table_a4, seed):
    """_keys_text writes the witness text straight from its coefficient map,
    rendering each letter and coefficient once; VacuumState.text of the same
    state is its oracle, on random maps with repeated coefficients, both
    k-degrees, the empty key and the empty map."""
    rng = random.Random(seed)
    t = table_a4
    values = [Fraction(1), Fraction(-1), Fraction(3, 2), Fraction(-6), Fraction(2)]
    terms = {}
    for _ in range(rng.randint(0, 40)):
        key = tuple(sorted(rng.randrange(t.dimension) for _ in range(rng.randint(0, 4))))
        terms[rng.randint(0, 1), key] = rng.choice(values)
    assert _keys_text(t, terms) == from_keys(terms).text(t)
    assert _keys_text(t, {}) == from_keys({}).text(t) == "0"
