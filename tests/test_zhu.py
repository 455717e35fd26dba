from __future__ import annotations

import copy
import itertools
import operator
import random
from fractions import Fraction

import pytest

from affine_singular import determinants, zhu
from affine_singular.cli import main
from affine_singular.determinants import (DeterminantSpec, build_matrix, det_entry_poly,
                                          determinant_vector, entry_element, ep_pow, ep_state)
from affine_singular.liealg import MAX_DIMENSION, build_algebra, element_weight
from affine_singular.scalars import over_common_denominator
from affine_singular.vacuum import VacuumState, straighten
from affine_singular.weyl import WeylElement, annihilation, creation
from affine_singular.zhu import (UEnvElement, ad_action, finite_determinant,
                                 uenv_mul, uenv_pow, verify_weyl_vanishing,
                                 verify_zhu_generator, weyl_image, zhu_project)
from oracles import accepted_sizes, constant_value, uenv_normal_form, uenv_product, uenv_sum
from test_acceptance import A_GRID, C_GRID
from test_determinants import ORACLE_TABLES, oracle_sizes

GRID = C_GRID + A_GRID + [("C", 4, 4, 3)]


def test_projection_sign_law(table_c2):
    t = table_c2
    x = t.idx("X[2e1]")
    # x(-1)|0> -> x,  x(-2)|0> -> -x,  x(-3)|0> -> x
    for mode, sign in ((-1, 1), (-2, -1), (-3, 1)):
        state = straighten(t, [(mode, x)]).specialize(0)
        assert zhu_project(t, state) == UEnvElement({(x,): sign})
    # a product reverses its factors
    y = t.idx("X[2e2]")
    state = straighten(t, [(-2, x), (-1, y)]).specialize(0)
    assert zhu_project(t, state) == UEnvElement({(y, x): -1})


def test_projection_needs_numeric_level(table_c2):
    t = table_c2
    symbolic = determinant_vector(t, DeterminantSpec("C", 2, 2, 1))
    # this particular state has constant coefficients, so it projects fine
    assert not zhu_project(t, symbolic).is_zero
    from affine_singular.vacuum import apply_generator
    k_state = apply_generator(t, "X[-2e1]", 1, straighten(t, [(-1, "X[2e1]")]))
    with pytest.raises(ValueError, match="numeric level"):
        zhu_project(t, k_state)


def test_uenv_normal_form_frozen(table_a2):
    t = table_a2
    e, f, h = t.idx("X[e1-e2]"), t.idx("X[e2-e1]"), t.idx("h1-h2")
    assert uenv_normal_form(t, [e, f]) == UEnvElement({(f, e): 1, (h,): 1})
    assert uenv_normal_form(t, [f, e]) == UEnvElement({(f, e): 1})
    assert uenv_normal_form(t, [e, f]).text(t) == "(1) X[e2-e1] X[e1-e2] + (1) h1-h2"


def test_uenv_mul_associative(table_c2):
    t = table_c2
    elems = [UEnvElement({(t.idx("X[2e1]"),): 1, (): Fraction(1, 2)}),
             UEnvElement({(t.idx("X[-2e1]"),): 1}),
             UEnvElement({(t.idx("h1"), t.idx("h2")): Fraction(2)})]
    x, y, z = elems
    left = uenv_mul(t, uenv_mul(t, x, y), z)
    right = uenv_mul(t, x, uenv_mul(t, y, z))
    assert left == right


def test_uenv_pow(table_c2):
    t = table_c2
    u = UEnvElement({(t.idx("X[2e1]"),): 1, (): 1})
    assert uenv_pow(t, u, 0) == UEnvElement.one()
    assert uenv_pow(t, u, 2) == uenv_mul(t, u, u)


def test_ad_action_is_weight_shift(table_c2):
    t = table_c2
    u = uenv_normal_form(t, [t.idx("X[2e1]"), t.idx("X[2e2]")])
    image = ad_action(t, "h1", u)
    # [h1, X[2e1] X[2e2]] = 2 X[2e1] X[2e2]
    assert image == u + u
    # ad is a derivation: ad(g)(uv) = ad(g)u v + u ad(g)v
    v = UEnvElement({(t.idx("X[e1+e2]"),): 1})
    g = t.idx("X[e2-e1]")
    lhs = ad_action(t, g, uenv_mul(t, u, v))
    rhs = uenv_mul(t, ad_action(t, g, u), v) + uenv_mul(t, u, ad_action(t, g, v))
    assert lhs == rhs


def test_pbw_order_blocks(table_c2):
    """Straightened words are ascending, so negative block indices come
    first and positive block indices last; a positive factor always ends
    the word, which is what the highest weight projection relies on."""
    t = table_c2
    u = uenv_normal_form(t, [t.idx("X[2e1]"), t.idx("X[-2e1]"), t.idx("h1")])
    for word in u.terms:
        assert list(word) == sorted(word)
        kinds = [t.blocks[x] for x in word]
        assert kinds == sorted(kinds, key=("lower", "cartan", "raise").index)


def test_finite_determinant_frozen(table_c2):
    t = table_c2
    det = finite_determinant(t, DeterminantSpec("C", 2, 2, 1))
    a, b, c = t.idx("X[2e1]"), t.idx("X[e1+e2]"), t.idx("X[2e2]")
    assert det == UEnvElement({tuple(sorted((a, c))): 1, (b, b): -1})


def test_zhu_generator_grid():
    cases = [
        ("C", 2, 1, 1), ("C", 2, 1, 2), ("C", 2, 2, 1), ("C", 2, 2, 2),
        ("C", 3, 3, 1), ("A", 2, 1, 2), ("A", 4, 2, 1), ("A", 4, 2, 2),
    ]
    for kind, rank, m, n in cases:
        report = verify_zhu_generator(DeterminantSpec(kind, rank, m, n))
        assert report.verdict, (kind, rank, m, n, report.witness)


def test_weyl_image_is_multiplicative(table_c2, table_a3):
    """The oscillator image of a straightened product equals the product of
    the realizations, pair by pair over the whole basis."""
    for t in (table_c2, table_a3):
        for x, y in itertools.product(range(t.dimension), repeat=2):
            u = uenv_normal_form(t, [x, y])
            direct = t.realizations[x] * t.realizations[y]
            assert weyl_image(t, u) == direct, (t.kind, t.text(x), t.text(y))


def test_weyl_image_triples(table_c2):
    t = table_c2
    triples = [(9, 0, 4), (0, 9, 9), (4, 5, 9), (2, 7, 3)]
    for x, y, z in triples:
        u = uenv_normal_form(t, [x, y, z])
        direct = t.realizations[x] * t.realizations[y] * t.realizations[z]
        assert weyl_image(t, u) == direct


def test_weyl_vanishing_for_larger_matrices():
    for kind, rank, m, n in (("C", 2, 2, 1), ("C", 2, 2, 2), ("C", 3, 2, 1),
                             ("C", 3, 3, 1), ("A", 4, 2, 1), ("A", 4, 2, 2)):
        report = verify_weyl_vanishing(DeterminantSpec(kind, rank, m, n))
        assert report.verdict, (kind, rank, m, n)


def test_weyl_survival_for_size_one(table_c2, table_a4):
    report = verify_weyl_vanishing(DeterminantSpec("C", 2, 1, 2))
    assert report.verdict
    assert report.details["image"] == "(1) a1^4"
    report = verify_weyl_vanishing(DeterminantSpec("A", 4, 1, 1))
    assert report.verdict
    assert report.details["image"] == "(1) a1 a*4"
    # and directly: the image of X[2e1]^2 is the creation quartic
    det = finite_determinant(table_c2, DeterminantSpec("C", 2, 1, 1))
    image = weyl_image(table_c2, uenv_pow(table_c2, det, 2))
    a1 = creation(2, 1)
    assert image == a1 * a1 * a1 * a1



# -- the rank-one certificate against the fold ----------------------------


@pytest.mark.parametrize("kind, rank", ORACLE_TABLES, ids=["%s%d" % table for table in ORACLE_TABLES])
def test_rank_one_gives_the_folds_verdict(kind, rank):
    """The fold, phi(det)^n with phi(det) the image of the expanded finite
    determinant, is the oracle: zero for m >= 2, and at m = 1 the power of
    one monomial that the check reads off R_11."""
    table = build_algebra(kind, rank)
    for m in oracle_sizes(kind, rank):
        spec = DeterminantSpec(kind, rank, m, 1)
        assert zhu._images_have_rank_one(table, spec), m
        folded = weyl_image(table, finite_determinant(table, spec))
        if m >= 2:
            assert folded.is_zero, m
            continue
        power = folded
        for n in (1, 2, 3):
            assert not power.is_zero
            report = verify_weyl_vanishing(DeterminantSpec(kind, rank, 1, n))
            assert report.verdict and report.details == {"image": repr(power)}, n
            power = power * folded


def _unit(rank, i):
    return tuple(int(t == i) for t in range(1, rank + 1))


def _halve(table, matrix):
    return {matrix[0][0]: table.realizations[matrix[0][0]] * Fraction(1, 2)}


def _second_monomial(table, matrix):
    return {matrix[0][0]: table.realizations[matrix[0][0]] + table.realizations[matrix[1][1]]}


def _contract(table, matrix):
    # column 2 becomes a1 a*1 and a2 a*1: still an outer product of
    # monomials, but a*1 meets the a1 of column 1
    rank = table.rank
    return {matrix[i][1]: WeylElement(rank, {(_unit(rank, i + 1), _unit(rank, 1)): 1}) for i in (0, 1)}


def _assert_no_certificate_applies(capsys, spec):
    message = ("no certificate applies: the oscillator images of the entries of %s are not a rank-one "
               "matrix of monomials that do not contract" % spec.label())
    with pytest.raises(RuntimeError, match="^%s$" % message):
        verify_weyl_vanishing(spec)
    assert main(["zhu", "phi", "--type", spec.kind, "--rank", str(spec.rank), "-m", str(spec.m),
                 "-n", str(spec.n)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: %s\n" % message


@pytest.mark.parametrize("kind, rank, change", [
    ("C", 2, _halve), ("C", 2, _second_monomial),
    ("A", 4, _halve), ("A", 4, _second_monomial), ("A", 4, _contract),
], ids=["C2-halve", "C2-second-monomial", "A4-halve", "A4-second-monomial", "A4-contract"])
def test_rank_one_refuses_a_changed_image_and_the_check_raises(monkeypatch, capsys, kind, rank, change):
    """On a copied table with one entry's realization changed, the
    certificate must refuse, and the check must raise "no certificate
    applies", an exit 2 from zhu phi, whatever the fold would give."""
    table = copy.copy(build_algebra(kind, rank))
    realizations = list(table.realizations)
    for y, image in change(table, build_matrix(table, DeterminantSpec(kind, rank, 2, 1))).items():
        realizations[y] = image
    table.realizations = tuple(realizations)
    monkeypatch.setattr(DeterminantSpec, "table", lambda self: table)
    for n in (1, 2):
        spec = DeterminantSpec(kind, rank, 2, n)
        assert not zhu._images_have_rank_one(table, spec)
        _assert_no_certificate_applies(capsys, spec)


@pytest.mark.parametrize("kind, rank, text", [("C", 2, "(1/8) a1^6"), ("A", 4, "(1/8) a1^3 a*4^3")], ids=["C2", "A4"])
def test_the_size_one_image_is_the_power_of_a_scaled_monomial(monkeypatch, kind, rank, text):
    """Every accepted R_11 has coefficient 1; on a copied table where it is
    halved, still one monomial, the m = 1 image must carry (1/2)^n, as the
    fold gives."""
    table = copy.copy(build_algebra(kind, rank))
    realizations = list(table.realizations)
    for y, image in _halve(table, build_matrix(table, DeterminantSpec(kind, rank, 1, 1))).items():
        realizations[y] = image
    table.realizations = tuple(realizations)
    monkeypatch.setattr(DeterminantSpec, "table", lambda self: table)
    folded = weyl_image(table, finite_determinant(table, DeterminantSpec(kind, rank, 1, 1)))
    power = folded
    for n in (1, 2, 3):
        spec = DeterminantSpec(kind, rank, 1, n)
        assert zhu._images_have_rank_one(table, spec)
        report = verify_weyl_vanishing(spec)
        assert report.details == {"image": repr(power)}, n
        power = power * folded
    assert report.details == {"image": text}


@pytest.mark.parametrize("kind, rank", [("C", 3), ("A", 6)])
def test_rank_one_refuses_a_change_off_the_first_row_and_column(monkeypatch, capsys, kind, rank):
    """The certificate compares R_ij R_11 with R_i1 R_1j; at m = 3, doubling
    the image of Y_23 alone, which is in neither row 1 nor column 1, must
    still be refused, and the check must raise.  On kind C the letter sits
    at (2, 3) and (3, 2), and the fold's image survives; on kind A only
    (2, 3) changes, a rank-two matrix of size 3, and the fold gives zero:
    the check raises on both, since no certificate covers either."""
    table = copy.copy(build_algebra(kind, rank))
    realizations = list(table.realizations)
    y = build_matrix(table, DeterminantSpec(kind, rank, 3, 1))[1][2]
    realizations[y] = realizations[y] * Fraction(2)
    table.realizations = tuple(realizations)
    monkeypatch.setattr(DeterminantSpec, "table", lambda self: table)
    for n in (1, 2):
        spec = DeterminantSpec(kind, rank, 3, n)
        assert not zhu._images_have_rank_one(table, spec)
        image = weyl_image(table, finite_determinant(table, spec))
        power = image * image if n == 2 else image
        assert power.is_zero == (kind == "A")
        _assert_no_certificate_applies(capsys, spec)


@pytest.mark.parametrize("case, image", [
    (("C", 8, 8, 1), None), (("A", 16, 8, 1), None), (("C", 18, 18, 2), None), (("A", 26, 13, 1), None),
    (("C", 2, 1, 3), "(1) a1^6"), (("A", 4, 1, 2), "(1) a1^2 a*4^2"),
], ids=["C8-8-1", "A16-8-1", "C18-18-2", "A26-13-1", "C2-1-3", "A4-1-2"])
def test_the_frontier_image_needs_no_expansion(monkeypatch, case, image):
    def fail(*args, **kwargs):
        raise AssertionError("the determinant was expanded or folded")

    for module in (zhu, determinants):
        monkeypatch.setattr(module, "det_entry_poly", fail)
    monkeypatch.setattr(zhu, "weyl_image", fail)
    monkeypatch.setattr(WeylElement, "__mul__", fail)
    report = verify_weyl_vanishing(DeterminantSpec(*case))
    assert report.verdict and report.witness is None
    assert report.details == (None if image is None else {"image": image})

# -- the sorted-word rule against the general rewriter --------------------


def _oracle_project(t, state):
    return uenv_sum(t, (((-1) ** sum(-n - 1 for n, _ in mono) * constant_value(c),
                         tuple(x for _, x in reversed(mono)))
                        for mono, c in state.terms.items()))


@pytest.mark.parametrize("kind, rank, m, n", GRID)
def test_commuting_products_match_the_rewriter(kind, rank, m, n):
    spec = DeterminantSpec(kind, rank, m, n)
    t = spec.table()
    det = finite_determinant(t, spec)
    state = determinant_vector(t, spec).specialize(spec.level)
    power = uenv_product(t, UEnvElement.one(), det)
    for _ in range(n - 1):
        power = uenv_product(t, power, det)
    square = uenv_product(t, det, det)
    projected = _oracle_project(t, state)
    assert uenv_mul(t, det, det) == square
    assert uenv_pow(t, det, n) == power
    assert zhu_project(t, state) == projected
    assert projected == power
    assert all(list(word) == sorted(word) for word in power.terms)


def test_noncommuting_letters_keep_the_cartan_term(table_a2, table_a3):
    t = table_a2
    e, f, h = t.idx("X[e1-e2]"), t.idx("X[e2-e1]"), t.idx("h1-h2")
    expected = UEnvElement({(f, e): 1, (h,): 1})
    x, y = UEnvElement({(e,): 1}), UEnvElement({(f,): 1})
    assert uenv_mul(t, x, y) == expected
    assert uenv_mul(t, y, x) == UEnvElement({(f, e): 1})
    # e(-1) f(-1)|0> in canonical order projects onto the reversed word e f
    state = VacuumState({((-1, f), (-1, e)): 1})
    assert zhu_project(t, state) == expected
    assert zhu_project(t, state) == _oracle_project(t, state)
    # in sl_3, X[e1-e2] and X[e1-e3] commute, but neither commutes with X[e2-e1]
    t = table_a3
    u = UEnvElement({(t.idx("X[e1-e2]"),): 1, (t.idx("X[e2-e1]"),): 1,
                     (t.idx("X[e1-e3]"), t.idx("X[e1-e3]")): 1})
    assert uenv_pow(t, u, 3) == uenv_product(t, uenv_product(t, u, u), u)


@pytest.mark.parametrize("kind, rank, m, n", GRID)
def test_weyl_image_of_a_power_is_the_power_of_the_image(kind, rank, m, n):
    spec = DeterminantSpec(kind, rank, m, n)
    t = spec.table()
    det = finite_determinant(t, spec)
    base = weyl_image(t, det)
    power = WeylElement.constant(t.rank, 1)
    for _ in range(n):
        power = power * base
    assert power == weyl_image(t, uenv_pow(t, det, n))
    assert power.is_zero == (m >= 2)


# -- the oscillator image against values that need no fold ----------------


@pytest.mark.parametrize("kind, rank, m, n", GRID)
def test_weyl_image_matches_the_product_fold(kind, rank, m, n):
    """The image of det and of det^n: for m = 1 the power of the single
    entry's realization, multiplied out directly, and zero for m >= 2."""
    spec = DeterminantSpec(kind, rank, m, n)
    t = spec.table()
    det = finite_determinant(t, spec)
    entry = t.realizations[build_matrix(t, spec)[0][0]]
    for u, power in ((det, 1), (uenv_pow(t, det, n), n)):
        image = weyl_image(t, u)
        expected = WeylElement(t.rank)
        if m == 1:
            expected = WeylElement.constant(t.rank, 1)
            for _ in range(power):
                expected = expected * entry
        assert image == expected
        assert all(type(c) is Fraction for c in image.terms.values())


def _random_element(rng, t, coefficients):
    """Words of 0 to 4 random letters; every third word also starts with a
    Cartan letter."""
    cartan = [x for x in range(t.dimension) if t.basis[x].kind == "cartan"]
    terms = {}
    for count in range(6):
        word = [rng.randrange(t.dimension) for _ in range(rng.randint(0, 4))]
        if count % 3 == 0:
            word.insert(0, rng.choice(cartan))
        terms[tuple(word)] = rng.choice(coefficients)
    return UEnvElement(terms)


@pytest.mark.parametrize("kind, rank", [("C", 2), ("C", 3), ("A", 3), ("A", 4)])
def test_weyl_image_of_random_words(kind, rank):
    """The image is an algebra homomorphism: the image of the PBW product,
    straightened by uenv_mul through brackets, is the product of the images."""
    t = build_algebra(kind, rank)
    coefficients = [Fraction(1, 3), Fraction(-5, 2), 1, -2]
    rng = random.Random(rank * 10 + len(kind))
    for _ in range(6):
        u, v = _random_element(rng, t, coefficients), _random_element(rng, t, coefficients)
        assert weyl_image(t, uenv_mul(t, u, v)) == weyl_image(t, u) * weyl_image(t, v)


def test_weyl_image_of_contracting_sl3_words(table_a3):
    t = table_a3
    e12, e21 = t.idx("X[e1-e2]"), t.idx("X[e2-e1]")
    # X[e1-e2] X[e2-e1] -> a1 a*2 . a2 a*1 = a1 a2 a*1 a*2 - a1 a*1: the
    # contraction at index 2 leaves a degree-2 term
    image = weyl_image(t, UEnvElement({(e12, e21): 1}))
    assert {sum(a) + sum(b) for a, b in image.terms} == {2, 4}


def test_kind_c_cartan_realizations_carry_a_half(table_c2, table_a3):
    for t, den in ((table_c2, 2), (table_a3, 1)):
        for x in range(t.dimension):
            if t.basis[x].kind == "cartan":
                assert over_common_denominator(t.realizations[x].terms)[1] == den


# -- the shortcuts of verify_zhu_generator and zhu_project -----------------


@pytest.mark.parametrize("kind, rank, m, n", [("C", 4, 4, 3), ("C", 5, 5, 2), ("A", 8, 4, 2),
                                              ("C", 6, 6, 1), ("C", 3, 3, 2)])
def test_entry_ring_power_is_the_pbw_power(kind, rank, m, n):
    spec = DeterminantSpec(kind, rank, m, n)
    t = spec.table()
    det = det_entry_poly(t, spec)
    assert t.commute({x for word in det for x in word})
    assert UEnvElement(ep_pow(det, n)) == uenv_pow(t, UEnvElement(det), n)


def test_projection_sign_by_parity(table_c2):
    t = table_c2
    x, y, f = t.idx("X[2e1]"), t.idx("X[2e2]"), t.idx("X[-2e1]")
    state = VacuumState.zero()
    for word in ([(-3, x), (-2, y), (-1, x)], [(-2, x), (-2, y)], [(-3, y)],
                 [(-2, f), (-3, x), (-1, y)], [(-3, x), (-3, f), (-2, f)]):
        state = state + straighten(t, word)
    state = state.specialize(Fraction(-1, 2))
    assert {sum(n for n, _ in mono) % 2 for mono in state.terms} == {0, 1}
    assert {n for mono in state.terms for n, _ in mono} >= {-3, -2}
    assert zhu_project(t, state) == _oracle_project(t, state)


# -- verify_zhu_generator's certificate and its oracle ----------------------

# the acceptance grid, the benchmark's four specs and one m = 8 spec
ORACLE_SPECS = C_GRID + A_GRID + [("C", 4, 4, 3), ("C", 5, 5, 2), ("A", 8, 4, 2), ("C", 6, 6, 1),
                                  ("C", 8, 8, 1)]


def _projected_power(spec):
    """zhu_project of det^n|0> at the level, and det^n as an entry
    polynomial: the identity that verify_zhu_generator certifies, computed."""
    t = spec.table()
    power = ep_pow(det_entry_poly(t, spec), spec.n)
    return zhu.zhu_project(t, ep_state(power).specialize(spec.level)), power


@pytest.mark.parametrize("kind, rank, m, n", ORACLE_SPECS)
def test_the_projection_of_the_det_power_is_the_det_power(kind, rank, m, n):
    spec = DeterminantSpec(kind, rank, m, n)
    projected, power = _projected_power(spec)
    assert projected.terms == power
    assert verify_zhu_generator(spec).verdict


# witness texts pinned from the check that compared UEnvElements, when it
# still expanded det^n and projected it
DROPPED_TERM_WITNESSES = {
    ("C", 2, 2, 1): "(1) X[e1+e2] X[e1+e2]",
    ("C", 3, 3, 2): "(-1) X[2e2] X[2e2] X[e1+e3] X[e1+e3] X[e1+e3] X[e1+e3]",
    ("A", 4, 2, 1): "(1) X[e2-e4] X[e1-e3]",
}


@pytest.mark.parametrize("case", sorted(DROPPED_TERM_WITNESSES))
def test_a_dropped_term_fails_the_oracle_with_the_same_witness(case, monkeypatch):
    project = zhu.zhu_project

    def dropped(table, state):
        terms = dict(project(table, state).terms)
        del terms[max(terms)]
        return UEnvElement._wrap(terms)

    monkeypatch.setattr(zhu, "zhu_project", dropped)
    with pytest.raises(AssertionError):
        test_the_projection_of_the_det_power_is_the_det_power(*case)
    spec = DeterminantSpec(*case)
    projected, power = _projected_power(spec)
    assert (projected - UEnvElement(power)).text(spec.table()) == DROPPED_TERM_WITNESSES[case]
    assert verify_zhu_generator(spec).verdict  # the certificate never projects


def _is_root(kind, weight):
    nonzero = sorted(c for c in weight if c)
    if kind == "A":
        return nonzero == [-1, 1]
    return nonzero in ([-1, -1], [-1, 1], [1, 1], [-2], [2])


def _dimension(kind, rank):
    return rank * (2 * rank + 1) if kind == "C" else rank * rank - 1


def _accepted_ranks(kind):
    ranks = list(itertools.takewhile(lambda r: _dimension(kind, r) <= MAX_DIMENSION, itertools.count(2)))
    with pytest.raises(ValueError, match="above the limit"):
        build_algebra(kind, ranks[-1] + 1)
    return ranks


def test_no_two_entries_have_roots_summing_to_a_root():
    """On every spec the CLI accepts (C2-C18, A2-A26, every allowed m),
    each entry is a positive root vector and no two entries' roots sum to a
    root, so [Y_ij, Y_kl] lies in the zero root space and the entries
    commute: verify_zhu_generator cannot fail on accepted input.  Root
    arithmetic only; no table is built."""
    assert _accepted_ranks("C") == list(range(2, 19)) and _accepted_ranks("A") == list(range(2, 27))
    # _is_root sees a root sum: (e1 - e2) + (e2 - e3), and (e1 - e2) + 2e2 on kind C
    assert _is_root("A", (1, 0, -1)) and _is_root("C", (1, 1, 0))
    scanned = 0
    for kind in ("C", "A"):
        for rank in _accepted_ranks(kind):
            roots = set()  # of the m x m matrix, grown by its last row and column
            for m in accepted_sizes(kind, rank):
                border = [(m, j) for j in range(1, m + 1)] + [(i, m) for i in range(1, m)]
                new = {element_weight(entry_element(kind, rank, i, j), rank) for i, j in border}
                roots |= new
                assert all(_is_root(kind, r) and next(c for c in r if c) > 0 for r in new)
                for a, b in itertools.product(new, roots):
                    total = tuple(map(operator.add, a, b))
                    assert any(total) and not _is_root(kind, total), (kind, rank, m, a, b)
                scanned += 1
    # C: m <= rank, 2 + 3 + ... + 18 specs; A: 2m <= rank, 1 + 1 + 2 + 2 + ... + 12 + 12 + 13
    assert scanned == 170 + 169


@pytest.mark.parametrize("kind, rank", [(kind, rank) for kind in ("C", "A") for rank in range(2, 9)])
def test_the_matrix_letters_commute_in_the_table(kind, rank):
    table = build_algebra(kind, rank)
    assert table.dimension == _dimension(kind, rank)
    for m in accepted_sizes(kind, rank):
        assert table.commute(y for row in build_matrix(table, DeterminantSpec(kind, rank, m, 1)) for y in row)


def test_a_non_commuting_pair_of_entries_fails_the_check(monkeypatch):
    """On a copied table where [Y11, Y22] = h1, the check fails and names
    that pair, the first in row-major order that does not commute."""
    spec = DeterminantSpec("C", 2, 2, 1)
    table = copy.copy(spec.table())
    (y11, y12), (_, y22) = build_matrix(table, spec)
    h = table.idx("h1")
    rows = [dict(table.rows[x]) for x in range(table.dimension)]
    rows[y11][y22], rows[y22][y11] = ((h, 1),), ((h, -1),)
    table.rows = tuple(rows)
    monkeypatch.setattr(DeterminantSpec, "table", lambda self: table)
    for n in (1, 2):
        report = verify_zhu_generator(DeterminantSpec("C", 2, 2, n))
        assert not report.verdict
        assert report.witness == {"entries": "X[2e1], X[2e2]", "bracket": "(1) h1"}
    # a second pair, [Y11, Y12] = 2 h1, comes first in row-major order
    rows[y11][y12], rows[y12][y11] = ((h, 2),), ((h, -2),)
    assert verify_zhu_generator(spec).witness == {"entries": "X[2e1], X[e1+e2]", "bracket": "(2) h1"}


def test_the_check_expands_nothing(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the Zhu check expanded or projected det^n")

    for module in (zhu, determinants):
        monkeypatch.setattr(module, "det_entry_poly", fail)
    for name in ("ep_pow", "ep_state"):
        monkeypatch.setattr(determinants, name, fail)
    monkeypatch.setattr(zhu, "zhu_project", fail)
    monkeypatch.setattr(VacuumState, "specialize", fail)
    for case in ORACLE_SPECS + [("C", 2, 1, 10 ** 9), ("A", 16, 8, 2)]:
        report = verify_zhu_generator(DeterminantSpec(*case))
        assert report.verdict and report.witness is None, case
