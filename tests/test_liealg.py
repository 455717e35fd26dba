from __future__ import annotations

import copy
import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from affine_singular import liealg, weyl
from affine_singular.cli import main
from affine_singular.liealg import BasisElement, build_algebra, element_weight, parse_element
from affine_singular.scalars import add_term
from oracles import (coroot_pairing, det_dense, generator_matrices, matrix_brackets, realize,
                     structure_table)


def combo_bracket(table, u: dict, v: dict) -> dict:
    """Bracket of two linear combinations, via the structure table."""
    out = {}
    for x, cx in u.items():
        for y, cy in v.items():
            for z, cz in table.bracket(x, y):
                out[z] = out.get(z, 0) + cx * cy * cz
    return {z: c for z, c in out.items() if c}


def test_dimensions_and_blocks(table_c2, table_c3, table_a3, table_a4):
    assert table_c2.dimension == 10
    assert table_c3.dimension == 21
    assert table_a3.dimension == 8
    assert table_a4.dimension == 15
    for table in (table_c2, table_c3, table_a3, table_a4):
        blocks = table.blocks
        lowers = blocks.count("lower")
        raisers = blocks.count("raise")
        assert lowers == raisers
        assert blocks == ("lower",) * lowers + ("cartan",) * len(table.cartan_indices) + ("raise",) * raisers
        # lowering block really carries the negative weights
        for n, block in enumerate(blocks):
            w = table.weights[n]
            if block == "cartan":
                assert all(c == 0 for c in w)
            else:
                nonzero = [c for c in w if c]
                assert (nonzero[0] < 0) == (block == "lower")


def test_parse_element_round_trip(table_c3, table_a3):
    for table in (table_c3, table_a3):
        for n in range(table.dimension):
            text = table.text(n)
            assert table.idx(parse_element(text)) == n
            assert table.idx(text) == n
    with pytest.raises(ValueError):
        parse_element("X[e1*e2]")
    with pytest.raises(ValueError):
        table_a3.idx("X[2e1]")  # not an sl_3 element
    with pytest.raises(ValueError):
        table_c3.idx("h4")


def test_idx_takes_only_the_tables_own_cartan_labels(table_c3, table_a4):
    assert table_c3.idx("h1") == table_c3.idx(BasisElement("cartan", 1))
    assert table_a4.idx("h1-h2") == table_a4.idx(BasisElement("cartan", 1))
    assert table_a4.idx("h3-h4") == table_a4.idx(BasisElement("cartan", 3))
    with pytest.raises(ValueError, match="not a Cartan label of C_3"):
        table_c3.idx("h1-h2")  # used to give h1
    with pytest.raises(ValueError, match="not a Cartan label of A_4"):
        table_a4.idx("h1-h4")  # used to give h1-h2
    with pytest.raises(ValueError, match="not a Cartan label of A_4"):
        table_a4.idx("h2")  # used to give h2-h3


def test_element_weights():
    assert element_weight(BasisElement("plus", 1, 2), 3) == (1, 1, 0)
    assert element_weight(BasisElement("minus", 2, 2), 3) == (0, -2, 0)
    assert element_weight(BasisElement("mixed", 3, 1), 3) == (-1, 0, 1)
    assert element_weight(BasisElement("cartan", 2), 3) == (0, 0, 0)


@pytest.mark.parametrize("kind, rank", [("C", 6), ("A", 8)])
def test_the_build_computes_each_weight_once(monkeypatch, kind, rank):
    calls = []
    weight = liealg.element_weight

    def counted(elem, rank):
        calls.append(elem)
        return weight(elem, rank)

    monkeypatch.setattr(liealg, "element_weight", counted)
    table = build_algebra.__wrapped__(kind, rank)
    assert len(calls) == table.dimension and set(calls) == set(table.basis)
    assert table.weights == tuple(weight(e, rank) for e in table.basis)


def test_frozen_brackets_c2(table_c2):
    t = table_c2
    # [X[2e1], X[-2e1]] = -4 h1
    assert t.bracket("X[2e1]", "X[-2e1]") == ((t.idx("h1"), Fraction(-4)),)
    # [h1, X[2e1]] = 2 X[2e1]
    assert t.bracket("h1", "X[2e1]") == ((t.idx("X[2e1]"), Fraction(2)),)
    # [X[e1-e2], X[e2-e1]] = h1 - h2
    assert dict(t.bracket("X[e1-e2]", "X[e2-e1]")) == {t.idx("h1"): Fraction(1),
                                                       t.idx("h2"): Fraction(-1)}
    # [X[2e1], X[e2-e1]] = 2 X[e1+e2]
    assert t.bracket("X[2e1]", "X[e2-e1]") == ((t.idx("X[e1+e2]"), Fraction(2)),)
    assert t.bracket("X[2e1]", "X[2e2]") == ()


def test_frozen_brackets_a3(table_a3):
    t = table_a3
    assert dict(t.bracket("X[e1-e2]", "X[e2-e1]")) == {t.idx("h1-h2"): Fraction(1)}
    # with these oscillator conventions [X[e1-e2], X[e2-e3]] = -X[e1-e3]
    assert t.bracket("X[e1-e2]", "X[e2-e3]") == ((t.idx("X[e1-e3]"),
                                                  Fraction(-1)),)
    assert t.bracket("X[e1-e2]", "X[e1-e3]") == ()


def test_frozen_form_values(table_c2, table_c3, table_a3):
    assert table_c2.form("X[2e1]", "X[-2e1]") == -4
    assert table_c2.form("h1", "h1") == 2
    assert table_c2.form("h1", "h2") == 0
    assert table_c2.form("X[e1+e2]", "X[-e1-e2]") == -2
    assert table_c2.form("X[e1-e2]", "X[e2-e1]") == 2
    assert table_c3.form("X[2e1]", "X[-2e1]") == -4
    assert table_a3.form("X[e1-e3]", "X[e3-e1]") == 1
    assert table_a3.form("h1-h2", "h1-h2") == 2
    assert table_a3.form("h1-h2", "h2-h3") == -1
    # the form pairs opposite weights only
    for t in (table_c2, table_a3):
        for a in range(t.dimension):
            for b in range(t.dimension):
                wa, wb = t.weights[a], t.weights[b]
                if any(x + y for x, y in zip(wa, wb)):
                    assert t.form(a, b) == 0


def test_brackets_match_oscillator_commutators(table_c2, table_a3):
    """Re-expand every claimed bracket and compare with the raw commutator."""
    for t in (table_c2, table_a3, build_algebra("C", 4), build_algebra("A", 5)):
        for a in range(t.dimension):
            for b in range(t.dimension):
                ra, rb = t.realizations[a], t.realizations[b]
                direct = ra * rb - rb * ra
                claimed = sum((t.realizations[z].scale(c) for z, c in t.bracket(a, b)),
                              ra - ra)
                assert direct == claimed, (t.text(a), t.text(b))


def test_antisymmetry_and_jacobi(table_c2, table_a3):
    for t in (table_c2, table_a3):
        dim = t.dimension
        for a in range(dim):
            for b in range(dim):
                left = dict(t.bracket(a, b))
                right = {z: -c for z, c in t.bracket(b, a)}
                assert left == right
        for a, b, c in itertools.product(range(dim), repeat=3):
            total = combo_bracket(t, combo_bracket(t, {a: 1}, {b: 1}), {c: 1})
            for z, cz in combo_bracket(t, combo_bracket(t, {b: 1}, {c: 1}), {a: 1}).items():
                total[z] = total.get(z, 0) + cz
            for z, cz in combo_bracket(t, combo_bracket(t, {c: 1}, {a: 1}), {b: 1}).items():
                total[z] = total.get(z, 0) + cz
            assert not any(total.values()), (a, b, c)


def test_form_invariance(table_c2, table_a3):
    """([x, y], z) + (y, [x, z]) = 0 for all basis triples."""
    for t in (table_c2, table_a3):
        dim = t.dimension
        for x, y, z in itertools.product(range(dim), repeat=3):
            first = sum((c * t.form(w, z) for w, c in t.bracket(x, y)), Fraction(0))
            second = sum((c * t.form(y, w) for w, c in t.bracket(x, z)), Fraction(0))
            assert first + second == 0, (x, y, z)


def test_form_nondegenerate(table_c2, table_c3, table_a3):
    for t in (table_c2, table_c3, table_a3):
        gram = [[t.form(a, b) for b in range(t.dimension)] for a in range(t.dimension)]
        assert det_dense(gram) != 0


def test_root_space_property(table_c3, table_a4):
    """[h, x] is x scaled by the weight coordinate h reads off."""
    for t in (table_c3, table_a4):
        for h in t.cartan_indices:
            elem = t.basis[h]
            for n in range(t.dimension):
                w = t.weights[n]
                if t.kind == "C":
                    expected = w[elem.i - 1]
                else:
                    expected = w[elem.i - 1] - w[elem.i]
                terms = t.bracket(h, n)
                if expected == 0:
                    assert terms == ()
                else:
                    assert terms == ((n, Fraction(expected)),)


def test_chevalley_data(table_c2, table_c3, table_a4):
    t = table_c2
    assert [t.text(n) for n in t.simple_raising] == ["X[e1-e2]", "X[2e2]"]
    assert [t.text(n) for n in t.simple_lowering] == ["X[e2-e1]", "X[-2e2]"]
    assert t.text(t.theta_raising) == "X[2e1]"
    assert t.text(t.theta_lowering) == "X[-2e1]"
    assert t.theta == (2, 0)
    t = table_a4
    assert t.text(t.theta_raising) == "X[e1-e4]"
    assert t.text(t.theta_lowering) == "X[e4-e1]"
    assert t.theta == (1, 0, 0, -1)
    assert table_c3.theta == (2, 0, 0)
    # theta dominates: theta - alpha has nonnegative partial sums, which is
    # exactly membership in the nonnegative span of the simple roots here
    for t in (table_c2, table_c3, table_a4):
        for w in t.positive_root_weights:
            diff = tuple(a - b for a, b in zip(t.theta, w))
            partial = 0
            for c in diff:
                partial += c
                assert partial >= 0


def test_fundamental_weights_dual_to_simple_coroots(table_c2, table_c3, table_a3, table_a4):
    for t in (table_c2, table_c3, table_a3, table_a4):
        count = t.rank if t.kind == "C" else t.rank - 1
        for m in range(1, count + 1):
            omega = t.fundamental_weight(m)
            for i, alpha in enumerate(t.simple_roots):
                expected = 1 if i == m - 1 else 0
                assert coroot_pairing(omega, alpha) == expected
        with pytest.raises(ValueError):
            t.fundamental_weight(count + 1)


def test_rho(table_c2, table_c3, table_a3):
    assert table_c2.rho() == (2, 1)
    assert table_c3.rho() == (3, 2, 1)
    assert table_a3.rho() == (1, 0, -1)
    # half the sum of the positive roots is the sum of the fundamental weights
    for kind, ranks in (("C", range(2, 9)), ("A", range(2, 13))):
        for rank in ranks:
            t = build_algebra(kind, rank)
            count = rank if kind == "C" else rank - 1
            total = [sum(column) for column in zip(*(t.fundamental_weight(m) for m in range(1, count + 1)))]
            assert t.rho() == tuple(total), (kind, rank)


def test_cartan_hpoly(table_c2, table_a3):
    assert repr(table_c2.cartan_hpoly("h1")) == "h1"
    assert repr(table_a3.cartan_hpoly("h1-h2")) == "h1 - h2"
    with pytest.raises(ValueError):
        table_c2.cartan_hpoly("X[2e1]")


def test_build_algebra_guards():
    with pytest.raises(ValueError):
        build_algebra("B", 2)
    with pytest.raises(ValueError):
        build_algebra("C", 1)
    # cached: same object on repeat calls
    assert build_algebra("C", 2) is build_algebra("C", 2)


@pytest.mark.parametrize("kind, rank", [("C", r) for r in range(2, 8)] + [("A", r) for r in range(2, 11)])
def test_integer_build_matches_the_fraction_oracle(kind, rank):
    table = build_algebra(kind, rank)
    oracle = structure_table(kind, rank)
    assert table.basis == oracle.basis
    assert table.blocks == oracle.blocks
    assert table.realizations == oracle.realizations
    # the oracle computes every bracket, and both keep the nonzero ones
    every = range(table.dimension)
    assert [table.rows[x] for x in every] == oracle.rows
    assert [table._form[x] for x in every] == oracle._form
    # equal values could still differ in type: 1 == Fraction(1)
    constants = [c for row in table.rows.values() for terms in row.values() for _, c in terms]
    constants += [c for row in table._form.values() for c in row.values()]
    constants += [c for w in table.weights for c in w]
    assert {type(c) for c in constants} == {int}
    assert {type(c) for z in table.realizations for c in z.terms.values()} == {Fraction}


ALL_TABLES = [("C", r) for r in range(2, 19)] + [("A", r) for r in range(2, 27)]


def test_every_bracket_row_matches_the_matrix_commutators():
    # the 42 tables C2-C18 and A2-A26, every row: [x, y] from Wick's rule on
    # the labels, as a matrix on the generator span, against M_x M_y - M_y M_x
    # of the matrices taken from oscillator products
    for kind, rank in ALL_TABLES:
        table = build_algebra(kind, rank)
        matrices = generator_matrices(table.realizations, rank)
        for x, commutators in enumerate(matrix_brackets(matrices)):
            claimed = {}
            for y, terms in table.rows[x].items():
                claimed[y] = {}
                for z, c in terms:
                    for entry, d in matrices[z].items():
                        add_term(claimed[y], entry, c * d)
            assert claimed == commutators, (kind, rank, table.text(x))


def test_realizations_read_off_the_labels_match_the_oscillator_products():
    # 42 tables, C2-C18 and A2-A26; key order matters, as the Weyl-image
    # dicts are built in it
    for kind, rank in ALL_TABLES:
        table = build_algebra(kind, rank)
        for elem, z in zip(table.basis, table.realizations):
            expected = realize(kind, rank, elem)
            assert z.nvars == expected.nvars == rank
            assert list(z.terms.items()) == list(expected.terms.items()), (kind, rank, elem)
            assert all(type(c) is Fraction for c in z.terms.values())


def test_the_form_is_invariant_under_the_simple_root_vectors():
    """([x, y], z) + (y, [x, z]) = 0 on all 42 tables, for each simple
    raising and lowering x and all y and z: these generate g, so the form is
    invariant under g.  The sums are read sparsely, from rows[x] and the
    form rows, with (y, w) = (w, y) checked first."""
    generators = 0
    for kind, rank in ALL_TABLES:
        table = build_algebra(kind, rank)
        form = table._form
        for x in range(table.dimension):
            assert all(form[y].get(x) == value for y, value in form[x].items()), (kind, rank, x)
        for x in table.simple_raising + table.simple_lowering:
            sums = {}
            for y, terms in table.rows[x].items():
                for w, c in terms:
                    for z, value in form[w].items():
                        # c (w, z) is in ([x, y], z), and c (z, w) in (z, [x, y])
                        add_term(sums, (y, z), c * value)
                        add_term(sums, (z, y), c * value)
            assert sums == {}, (kind, rank, table.text(x))
            generators += 1
    assert generators == 990


@pytest.mark.parametrize("kind, rank", [("C", 6), ("A", 8)])
def test_a_form_row_reads_no_bracket_row(kind, rank):
    table = build_algebra.__wrapped__(kind, rank)
    for x in range(table.dimension):
        assert table._form[x], table.text(x)
    assert len(table.rows) == 0


@pytest.mark.parametrize("kind, rank", [("C", 18), ("A", 26)])
def test_the_set_up_does_no_oscillator_arithmetic(monkeypatch, kind, rank):
    def refuse(*args, **kwargs):
        raise AssertionError("oscillator arithmetic during the set-up or a row read")

    # neither the set-up nor a full read of every bracket row and form row
    with monkeypatch.context() as patch:
        patch.setattr(weyl.WeylElement, "__mul__", refuse)
        patch.setattr(weyl.WeylElement, "__rmul__", refuse)
        patch.setattr(weyl, "_accumulate_product", refuse)
        table = build_algebra.__wrapped__(kind, rank)
        every = range(table.dimension)
        rows = [table.rows[x] for x in every]
        forms = [table._form[x] for x in every]
    assert "realizations" not in vars(table)  # made on first read only
    cached = build_algebra(kind, rank)
    assert table.realizations == cached.realizations
    assert rows == [cached.rows[x] for x in every]
    assert forms == [cached._form[x] for x in every]


def test_oversized_algebras_are_refused_before_any_work():
    # C18 (dimension 666) and A26 (675) are the largest algebras still built
    assert liealg.MAX_DIMENSION == 700
    with pytest.raises(ValueError, match=r"^C_19 has dimension 741, above the limit of 700 basis elements$"):
        build_algebra("C", 19)
    with pytest.raises(ValueError, match=r"^A_27 has dimension 728, above the limit"):
        build_algebra("A", 27)


def test_basis_elements_are_frozen_values():
    elem = BasisElement("plus", 1, 2)
    assert elem == BasisElement("plus", 1, 2) != BasisElement("plus", 2, 1)
    assert elem != ("plus", 1, 2)
    assert hash(elem) == hash(BasisElement("plus", 1, 2))
    assert BasisElement("cartan", 3) == BasisElement("cartan", 3, 0)
    assert repr(elem) == "BasisElement(kind='plus', i=1, j=2)"
    with pytest.raises(AttributeError):
        elem.i = 3
    with pytest.raises(AttributeError):
        del elem.kind
    assert copy.deepcopy(elem) == elem


def test_info_lines(table_c2):
    lines = list(table_c2.info_lines())
    assert lines[0] == "algebra C_2  dimension 10"
    assert any("[X[-2e1], X[2e1]] = (4) h1" in line for line in lines)
    assert any("(h1, h1) = 2" in line for line in lines)


def _index_sets(z):
    """The indices that z's a factors use and those that its a* factors use."""
    return ({i for alpha, _ in z.terms for i, e in enumerate(alpha) if e},
            {i for _, beta in z.terms for i, e in enumerate(beta) if e})


@pytest.mark.parametrize("kind, rank, skipped", [("C", 4, 390), ("A", 6, 366)])
def test_pairs_that_cannot_contract_commute(kind, rank, skipped):
    # the build stores () for these pairs without a commutator; here each one
    # is multiplied out both ways
    table = build_algebra(kind, rank)
    uses = [_index_sets(z) for z in table.realizations]
    seen = 0
    for x, y in itertools.combinations(range(table.dimension), 2):
        (ax, bx), (ay, by) = uses[x], uses[y]
        if bx & ay or by & ax:
            continue
        seen += 1
        zx, zy = table.realizations[x], table.realizations[y]
        assert (zx * zy - zy * zx).is_zero
        assert table.bracket(x, y) == ()
    assert seen == skipped


@pytest.mark.parametrize("kind, rank", [("C", 4), ("A", 6)])
def test_commute_is_the_pairwise_bracket_scan(kind, rank):
    table = build_algebra(kind, rank)
    rng = random.Random(43)
    answers = set()
    for _ in range(400):
        letters = [rng.randrange(table.dimension) for _ in range(rng.randint(1, 4))]
        scan = not any(table.bracket(a, b) for a in letters for b in letters)
        assert table.commute(letters) == scan, letters
        answers.add(scan)
    assert answers == {True, False}


@pytest.mark.parametrize("kind, rank, brackets", [("C", 6, 828), ("A", 8, 552)])
def test_build_computes_only_commutators_that_can_contract(monkeypatch, kind, rank, brackets):
    calls = []
    wick = liealg._wick

    def counted(xs, ys):
        calls.append(None)
        return wick(xs, ys)

    monkeypatch.setattr(liealg, "_wick", counted)
    # the undecorated build, so the cached tables are left as they are
    table = build_algebra.__wrapped__(kind, rank)
    assert calls == []
    # a full read applies Wick's rule once per pair that can contract, not
    # once per each of the dim (dim - 1) / 2 pairs: the second row of a
    # pair takes the first row's bracket
    every = range(table.dimension)
    rows = [table.rows[x] for x in every]
    assert len(calls) == brackets
    assert rows == [build_algebra(kind, rank).rows[x] for x in every]


@pytest.mark.parametrize("kind, rank", [("C", r) for r in range(2, 11)] + [("A", r) for r in range(3, 13)])
def test_rows_read_in_either_order_agree(kind, rank):
    """Rows read in descending order take [x, y] = -[y, x] from the rows
    above them, rows read in ascending order from the rows below; both give
    the same entries in the same ascending order, and so do the form rows."""
    up, down = build_algebra.__wrapped__(kind, rank), build_algebra.__wrapped__(kind, rank)
    ascending = range(up.dimension)
    descending = ascending[::-1]
    for table, order in ((up, ascending), (down, descending)):
        for x in order:
            table.rows[x]
        for x in order:
            table._form[x]
    for x in ascending:
        assert list(up.rows[x].items()) == list(down.rows[x].items())
        assert list(up._form[x].items()) == list(down._form[x].items())
    assert list(up.nonzero_brackets()) == list(down.nonzero_brackets())
    assert list(up.nonzero_form()) == list(down.nonzero_form())


def _closed_form(kind, a, b) -> int:
    """(a, b) for basis labels a and b, from the closed form in this basis."""
    if a.kind == b.kind == "cartan":
        if kind == "C":
            return 2 if a.i == b.i else 0
        return {0: 2, 1: -1}.get(abs(a.i - b.i), 0)
    if a.kind == b.kind == "mixed" and (a.i, a.j) == (b.j, b.i):
        return 2 if kind == "C" else 1
    if {a.kind, b.kind} == {"plus", "minus"} and (a.i, a.j) == (b.i, b.j):
        return -4 if a.i == a.j else -2
    return 0


@pytest.mark.parametrize("kind, rank, digest", [
    ("C", 18, "f6611449b32792fd8cb02215f8f16a6e8967b3ad801ad35c7c45825b2a0b2b27"),
    ("A", 26, "bbba81540669e2466fc22b5dbabd7e39db7cbfbf7cc180db79035fe55248b1c8"),
])
def test_the_largest_tables_are_pinned(monkeypatch, capsys, kind, rank, digest):
    # the largest algebras MAX_DIMENSION admits, on a table whose rows and
    # form rows were all read in descending order before alg info reads them
    # in ascending order: test_cli pins the same bytes on the cached table
    t = build_algebra.__wrapped__(kind, rank)
    for filled in (t.rows, t._form):
        for x in reversed(range(t.dimension)):
            filled[x]
    monkeypatch.setattr(liealg, "build_algebra", lambda kind, rank: t)
    assert main(["alg", "info", "--type", kind, "--rank", str(rank), "--json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
    wrong = [(t.text(x), t.text(y)) for x, a in enumerate(t.basis) for y, b in enumerate(t.basis)
             if t.form(x, y) != _closed_form(kind, a, b)]
    assert wrong == []
