from __future__ import annotations

import copy
import math
import re
from fractions import Fraction

import pytest

from affine_singular import determinants
from affine_singular import spec as spec_module
from affine_singular import vacuum
from affine_singular.cli import main
from affine_singular.determinants import (DeterminantSpec, beta_constant,
                                          build_matrix, det_entry_poly,
                                          determinant_vector, entry_element,
                                          ep_mul, ep_pow, ep_state,
                                          lowering_factor_check,
                                          minor_entry_poly, verify_singular)
from affine_singular.liealg import build_algebra
from affine_singular.scalars import Poly, add_term, format_rational
from affine_singular.vacuum import VacuumState, state_weight, straighten
from affine_singular.zhu import verify_zhu_generator
from oracles import (K, casimir_level, coexisting_singulars, derivation_form_dense, derivation_image,
                     differential_ints, entries_commute_check, ep_apply, expand_residual, kernel_residual,
                     leibniz_entry_poly, minor_vector)
from test_acceptance import A_GRID, C_GRID
from test_report_digests import BENCHMARK_SPECS


def test_spec_validation():
    with pytest.raises(ValueError):
        DeterminantSpec("B", 2, 1, 1)
    with pytest.raises(ValueError):
        DeterminantSpec("C", 2, 3, 1)  # size exceeds rank
    with pytest.raises(ValueError):
        DeterminantSpec("A", 3, 2, 1)  # needs 2m <= rank
    with pytest.raises(ValueError):
        DeterminantSpec("C", 2, 1, 0)
    with pytest.raises(ValueError):
        DeterminantSpec("C", 2, 0, 1)
    assert DeterminantSpec("C", 8, 8, 1).m == spec_module.MAX_SIZE == 8
    with pytest.raises(ValueError, match="size 9 is above the limit of 8"):
        DeterminantSpec("C", 9, 9, 1)
    with pytest.raises(ValueError, match="size 9 is above the limit of 8"):
        DeterminantSpec("A", 18, 9, 1)


def test_spec_is_a_frozen_value():
    assert DeterminantSpec is spec_module.DeterminantSpec
    spec = DeterminantSpec("C", 4, 3, 2)
    assert spec == DeterminantSpec("C", 4, 3, 2) != DeterminantSpec("C", 4, 3, 1)
    assert len({spec, DeterminantSpec("C", 4, 3, 2)}) == 1
    assert repr(spec) == "DeterminantSpec(kind='C', rank=4, m=3, n=2)"
    with pytest.raises(AttributeError):
        spec.n = 1
    assert copy.deepcopy(spec) == spec
    assert spec.table() is build_algebra("C", 4)


def test_distinguished_levels():
    assert DeterminantSpec("C", 2, 1, 1).level == 0
    assert DeterminantSpec("C", 2, 2, 1).level == Fraction(-1, 2)
    assert DeterminantSpec("C", 2, 2, 2).level == Fraction(1, 2)
    assert DeterminantSpec("C", 3, 3, 1).level == -1
    assert DeterminantSpec("A", 4, 2, 1).level == -1
    assert DeterminantSpec("A", 4, 2, 2).level == 0
    assert DeterminantSpec("A", 2, 1, 3).level == 2


def test_levels_match_the_casimir_oracle():
    shapes = [("C", l, m) for l in range(2, 9) for m in range(1, min(l, 8) + 1)]
    shapes += [("A", l, m) for l in range(2, 13) for m in range(1, l // 2 + 1)]
    specs = [DeterminantSpec(kind, l, m, n) for kind, l, m in shapes for n in (1, 2, 3, 5)]
    assert len(specs) == 284
    for spec in specs:
        assert spec.level == casimir_level(spec.kind, spec.rank, spec.m, spec.n), spec


def test_entry_elements(table_c2, table_a4):
    assert entry_element("C", 2, 1, 1).text() == "X[2e1]"
    assert entry_element("C", 2, 1, 2).text() == "X[e1+e2]"
    assert entry_element("C", 2, 2, 1).text() == "X[e1+e2]"
    assert entry_element("A", 4, 1, 1).text() == "X[e1-e4]"
    assert entry_element("A", 4, 2, 1).text() == "X[e2-e4]"
    assert entry_element("A", 4, 1, 2).text() == "X[e1-e3]"
    with pytest.raises(ValueError):
        entry_element("A", 3, 2, 2)  # e2 - e2 is not a root


def test_build_matrix_display(table_c2, table_a4):
    spec = DeterminantSpec("C", 2, 2, 1)
    mat = build_matrix(table_c2, spec)
    texts = [[table_c2.text(x) for x in row] for row in mat]
    assert texts == [["X[2e1]", "X[e1+e2]"], ["X[e1+e2]", "X[2e2]"]]
    spec = DeterminantSpec("A", 4, 2, 1)
    mat = build_matrix(table_a4, spec)
    texts = [[table_a4.text(x) for x in row] for row in mat]
    assert texts == [["X[e1-e4]", "X[e1-e3]"], ["X[e2-e4]", "X[e2-e3]"]]


def test_entries_commute(table_c3):
    assert entries_commute_check("C", 3, 3).verdict
    assert entries_commute_check("A", 4, 2).verdict
    report = entries_commute_check("A", 3, 2)  # oversized on purpose
    assert not report.verdict
    assert report.witness is not None


def test_determinant_c2_frozen(table_c2):
    t = table_c2
    spec = DeterminantSpec("C", 2, 2, 1)
    state = determinant_vector(t, spec)
    expected = (straighten(t, [(-1, "X[2e1]"), (-1, "X[2e2]")])
                - straighten(t, [(-1, "X[e1+e2]"), (-1, "X[e1+e2]")]))
    assert state == expected
    assert state.text(t) == ("(1) X[2e2](-1) X[2e1](-1) |0> + "
                             "(-1) X[e1+e2](-1) X[e1+e2](-1) |0>")
    assert state_weight(t, state) == (2, 2)


def test_determinant_weights(table_c3, table_a4):
    spec = DeterminantSpec("C", 3, 3, 2)
    assert state_weight(table_c3, determinant_vector(table_c3, spec)) == (4, 4, 4)
    spec = DeterminantSpec("A", 4, 2, 1)
    assert state_weight(table_a4, determinant_vector(table_a4, spec)) == (1, 1, -1, -1)


def test_leibniz_matches_cofactor_expansion(table_c3, table_a4):
    """det = sum_j (-1)^(1+j) entry(1, j) minor(1, j), checked exactly."""
    for kind, rank, m in (("C", 3, 3), ("C", 2, 2), ("A", 4, 2)):
        spec = DeterminantSpec(kind, rank, m, 1)
        table = spec.table()
        full = det_entry_poly(table, spec)
        cofactor = {}
        for j in range(1, m + 1):
            entry = {(table.idx(entry_element(kind, rank, 1, j)),): Fraction(1)}
            piece = ep_mul(entry, minor_entry_poly(table, spec, 1, j))
            for key, c in piece.items():
                sign = Fraction(-1) ** (1 + j)
                cofactor[key] = cofactor.get(key, Fraction(0)) + sign * c
        cofactor = {key: c for key, c in cofactor.items() if c}
        assert full == cofactor, (kind, rank, m)


@pytest.mark.parametrize("kind, rank", [("C", r) for r in range(2, 7)] + [("A", r) for r in range(4, 9)])
def test_det_entry_poly_matches_the_leibniz_oracle(kind, rank):
    m = rank if kind == "C" else rank // 2
    spec = DeterminantSpec(kind, rank, m, 1)
    table = spec.table()
    every = list(range(1, m + 1))
    # equal term by term and in key order
    assert list(det_entry_poly(table, spec).items()) == list(
        leibniz_entry_poly(table, spec, every, every).items())
    for i in every:
        for j in every:
            rows = [r for r in every if r != i]
            cols = [c for c in every if c != j]
            assert list(minor_entry_poly(table, spec, i, j).items()) == list(
                leibniz_entry_poly(table, spec, rows, cols).items()), (i, j)


def test_power_is_iterated_product(table_c2):
    spec = DeterminantSpec("C", 2, 2, 3)
    det = det_entry_poly(table_c2, spec)
    assert ep_pow(det, 3) == ep_mul(det, ep_mul(det, det))
    assert ep_pow(det, 0) == {(): Fraction(1)}


def test_ep_mul_refuses_a_product_above_the_letter_limit(monkeypatch):
    spec = DeterminantSpec("C", 3, 3, 1)
    det = det_entry_poly(spec.table(), spec)  # 5 terms of 3 letters
    square = ep_mul(det, det)
    assert len(square) == 15
    monkeypatch.setattr(determinants, "MAX_MUL_LETTERS", 150)  # 5 x 5 pairs of 6 letters
    assert ep_mul(det, det) == square
    monkeypatch.setattr(determinants, "MAX_MUL_LETTERS", 149)
    with pytest.raises(ValueError, match="^a product of 5 by 5 terms sorts 150 letters, above the limit of 149$"):
        ep_mul(det, det)
    assert ep_mul(det, {(): 1}) == det  # 5 x 1 pairs of 3 letters


def test_ep_pow_charges_all_its_products_to_one_letter_limit(monkeypatch):
    spec = DeterminantSpec("C", 3, 3, 1)
    det = det_entry_poly(spec.table(), spec)  # 5 terms of 3 letters
    square = ep_mul(det, det)
    # 1 x 5 pairs of 3 letters, then 5 x 5 pairs of 6: 165 letters in all
    monkeypatch.setattr(determinants, "MAX_MUL_LETTERS", 165)
    assert ep_pow(det, 2) == square
    monkeypatch.setattr(determinants, "MAX_MUL_LETTERS", 164)
    assert ep_mul(det, det) == square  # the last product alone is under the limit
    with pytest.raises(ValueError, match="^power 2 of a 5-term polynomial sorts 165 letters, above the limit of 164$"):
        ep_pow(det, 2)
    # one letter: power t sorts 1 + 2 + ... + t letters in all
    monkeypatch.setattr(determinants, "MAX_MUL_LETTERS", 10)
    assert ep_pow({(7,): 1}, 4) == {(7, 7, 7, 7): 1}
    with pytest.raises(ValueError, match="^power 5 of a 1-term polynomial sorts 15 letters, above the limit of 10$"):
        ep_pow({(7,): 1}, 5)


def test_the_three_power_checks_share_one_letter_limit():
    # det = X[2e1] has one term, so det^n sorts 1 + 2 + ... + n letters:
    # 3,997,378 at n = 2827 and 4,000,206 at n = 2828.  No check expands a
    # power for its verdict, so all three pass on both sides of the limit;
    # a failing verify_singular expands its witness, minor(1,1) det^(n-1)
    # with minor(1,1) = 1 at m = 1, while det^(n-1) is within the limit, and
    # above it states the witness factored
    below, above = DeterminantSpec("C", 2, 1, 2828), DeterminantSpec("C", 2, 1, 2829)
    for spec in (below, above):
        for check in (verify_singular, lowering_factor_check, verify_zhu_generator):
            assert check(spec).verdict
    residual = verify_singular(below, below.level + 1).witness["residual"]
    assert residual == "(-11312) " + "X[2e1](-1) " * 2827 + "|0>"
    residual = verify_singular(above, above.level + 1).witness["residual"]
    assert residual == "(-11316) minor(1,1) det^2828 |0>"


def test_ep_apply_matches_ep_state(table_c2):
    spec = DeterminantSpec("C", 2, 2, 2)
    det = det_entry_poly(table_c2, spec)
    assert ep_apply(table_c2, det, ep_state(det)) == ep_state(ep_pow(det, 2))
    assert ep_apply(table_c2, det, VacuumState.vacuum()) == ep_state(det)


def test_minor_of_1x1(table_c2):
    spec = DeterminantSpec("C", 2, 1, 1)
    assert minor_entry_poly(table_c2, spec, 1, 1) == {(): Fraction(1)}
    assert minor_vector(table_c2, spec, 1, 1) == VacuumState.vacuum()
    with pytest.raises(ValueError):
        minor_entry_poly(table_c2, spec, 2, 1)
    with pytest.raises(ValueError, match="out of range"):
        det_entry_poly(table_c2, spec, [2], [1])


def test_verify_singular_grid():
    cases = [
        ("C", 2, 1, 1), ("C", 2, 1, 2), ("C", 2, 2, 1), ("C", 2, 2, 2),
        ("C", 3, 2, 1), ("C", 3, 3, 1),
        ("A", 2, 1, 1), ("A", 2, 1, 2), ("A", 4, 2, 1), ("A", 4, 2, 2),
    ]
    for kind, rank, m, n in cases:
        report = verify_singular(DeterminantSpec(kind, rank, m, n))
        assert report.verdict, (kind, rank, m, n, report.witness)


def test_verify_singular_fails_off_level():
    spec = DeterminantSpec("C", 2, 2, 1)
    report = verify_singular(spec, level=spec.level + 1)
    assert not report.verdict
    assert report.witness["operator"] == "X[-2e1](1)"
    # residual = beta * n * (k - level) minor(1,1) |0> at k = level + 1
    assert report.witness["residual"] == "(-4) X[2e2](-1) |0>"
    # symbolic check also fails, keeping the level factor visible
    symbolic = verify_singular(spec, level=None)
    assert not symbolic.verdict
    assert symbolic.witness["residual"] == "(-4*k - 2) X[2e2](-1) |0>"


@pytest.mark.parametrize("case", C_GRID + A_GRID + [("C", 4, 4, 3)], ids=lambda case: "%s%d-%d-%d" % case)
def test_verify_singular_matches_the_state_check(case):
    """verify_singular decides every operator on the matrix and builds its
    witness from the cofactor coefficients; the state check straightens
    every operator on det^n|0> at the symbolic level and specializes.  The
    two reports must be equal once a factored witness (C4 m=4 n=3 off the
    level) is expanded."""
    spec = DeterminantSpec(*case)
    table = spec.table()
    state = determinant_vector(table, spec)
    for level in (spec.level, spec.level + 1, spec.level + Fraction(1, 3), None):
        report = verify_singular(spec, level)
        if report.witness:
            report.witness["residual"] = expand_residual(table, spec, report.witness["residual"])
        expected = vacuum.singular_check(table, state, level, report.claim)
        expected.parameters.update(m=spec.m, n=spec.n, distinguished_level=format_rational(spec.level))
        report.timing_ms = expected.timing_ms = 0
        assert report.to_obj() == expected.to_obj(), (case, level)


@pytest.mark.parametrize("n", [1, 2])
def test_an_operator_with_no_form_has_no_certificate(monkeypatch, capsys, n):
    # On the 1 x 1 matrix (X[2e2]), X[e1-e2] sends the entry to X[e1+e2],
    # outside the matrix: no AY + YB form exists, so no certificate applies,
    # and the check refuses at every level, and the command line exits 2.
    spec = DeterminantSpec("C", 2, 1, n)
    table = spec.table()
    entry = table.idx("X[2e2]")
    monkeypatch.setattr(determinants, "build_matrix", lambda table, spec: ((entry,),))
    assert determinants._derivation_trace(table, spec, table.idx("X[e1-e2]")) is None
    message = r"^no certificate applies: X\[e1-e2\]\(0\) on C2 m=1 n=%d has no AY \+ YB form on the matrix$" % n
    for level in (spec.level, spec.level + 1, None):
        with pytest.raises(RuntimeError, match=message):
            verify_singular(spec, level)
    for rest in ([], ["--symbolic"]):
        argv = ["singular", "verify", "--type", "C", "--rank", "2", "-m", "1", "-n", str(n), "--no-cache"]
        assert main(argv + rest) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: no certificate applies: X[e1-e2](0)")


@pytest.mark.parametrize("kind, rank, m, cartan", [("C", 2, 2, "h1"), ("A", 4, 2, "h2-h3")])
def test_a_nonzero_trace_fails_with_the_state_checks_report(monkeypatch, kind, rank, m, cartan):
    """On a copied table whose simple raising operators include a Cartan
    letter h, the trace t of h is nonzero and verify_singular fails with the
    residual n t det^n|0>, built with no kernel; the state check, which only
    straightens, must give the same report."""
    table = copy.copy(build_algebra(kind, rank))
    h = table.idx(cartan)
    table.simple_raising = table.simple_raising[:1] + (h,) + table.simple_raising[1:]
    monkeypatch.setattr(DeterminantSpec, "table", lambda self: table)
    for n in (1, 2):
        spec = DeterminantSpec(kind, rank, m, n)
        assert determinants._derivation_trace(table, spec, h)
        state = determinant_vector(table, spec)
        for level in (spec.level, spec.level + 1, None):
            report = verify_singular(spec, level)
            expected = vacuum.singular_check(table, state, level, report.claim)
            expected.parameters.update(m=m, n=n, distinguished_level=format_rational(spec.level))
            assert not report.verdict and report.witness["operator"] == "%s(0)" % table.text(h)
            report.timing_ms = expected.timing_ms = 0
            assert report.to_obj() == expected.to_obj(), (spec.label(), level)


def test_mode_0_operators_that_kill_det_skip_the_power(monkeypatch):
    spec = DeterminantSpec("C", 3, 3, 2)
    calls = []
    power = determinants.ep_pow

    def recorded(p, n):
        calls.append(n)
        return power(p, n)

    def unused(*args, **kwargs):
        raise AssertionError("verify_singular built a vacuum state")

    monkeypatch.setattr(determinants, "ep_pow", recorded)
    with monkeypatch.context() as no_state:
        for name in ("apply_generator", "straighten"):
            no_state.setattr(vacuum, name, unused)
        no_state.setattr(determinants, "ep_state", unused)
        no_state.setattr(VacuumState, "__init__", unused)
        no_state.setattr(VacuumState, "_wrap", classmethod(unused))
        assert verify_singular(spec).verdict
    # the three simple raising operators and x(1) are certified on the
    # matrix, so no power is expanded at the level; at L + 1 the witness
    # minor(1,1) det^(n-1) expands det^1, never det^2
    assert calls == []
    assert not verify_singular(spec, spec.level + 1).verdict
    assert calls == [1]


# C2-C8 and A4-A16, every allowed m up to 7: at m = 8 det has 40,320
# terms, and the oracle's derivation walks all of them for each letter
ORACLE_TABLES = [("C", rank) for rank in range(2, 9)] + [("A", rank) for rank in range(4, 17)]


def oracle_sizes(kind, rank, top=7):
    return range(1, min(rank if kind == "C" else rank // 2, top) + 1)


@pytest.mark.parametrize("kind, rank", ORACLE_TABLES, ids=["%s%d" % table for table in ORACLE_TABLES])
def test_the_derivation_trace_is_the_kernels_eigenvalue(kind, rank):
    """Whenever _derivation_trace gives t, x(0) on det|0>, taken as the
    derivation of the entry ring in oracles, is t times det, for the simple
    raising, simple lowering and Cartan letters."""
    table = build_algebra(kind, rank)
    for m in oracle_sizes(kind, rank):
        spec = DeterminantSpec(kind, rank, m, 1)
        det = det_entry_poly(table, spec)
        traces = {}
        for x in table.simple_raising + table.simple_lowering + table.cartan_indices:
            t = traces[x] = determinants._derivation_trace(table, spec, x)
            if t is not None:
                image = derivation_image(table, x, det)
                assert image == {key: t * c for key, c in det.items() if t}, (m, table.text(x))
        assert {traces[x] for x in table.simple_raising} == {0}, m
        # a lowering operator sends some entry outside the matrix
        assert any(traces[x] is None for x in table.simple_lowering), m
        # a Cartan letter acts diagonally, so it has the form, and its trace
        # is its pairing with det's weight: nonzero for at least one
        cartan = [traces[h] for h in table.cartan_indices]
        assert None not in cartan and any(cartan), m


def test_every_accepted_spec_has_the_mode_0_certificate():
    """Every simple raising operator of every spec the command line accepts
    (C2-C18 and A2-A26, every allowed m) has trace 0, so verify_singular
    never raises "no certificate applies" on accepted input.  That these
    are all the accepted ranks is checked in test_zhu."""
    scanned = 0
    for kind, ranks in (("C", range(2, 19)), ("A", range(2, 27))):
        for rank in ranks:
            table = build_algebra(kind, rank)
            for m in oracle_sizes(kind, rank, spec_module.MAX_SIZE):
                spec = DeterminantSpec(kind, rank, m, 1)
                for x in table.simple_raising:
                    assert determinants._derivation_trace(table, spec, x) == 0, (spec.label(), table.text(x))
                    scanned += 1
    assert scanned == 3575


def test_the_sparse_form_is_the_dense_reading():
    """_derivation_form builds [z, Y] and AY + YB only where they are
    nonzero; oracles.derivation_form_dense reads and checks every entry.
    They give the same (A, B), or None, for every simple raising and simple
    lowering operator (a lowering operator sends some entry outside the
    matrix) and every z = [x, a] of _mode_1_core, on every accepted spec."""
    forms = refused = 0
    for kind, ranks in (("C", range(2, 19)), ("A", range(2, 27))):
        for rank in ranks:
            table = build_algebra(kind, rank)
            x = table.theta_lowering
            for m in oracle_sizes(kind, rank, spec_module.MAX_SIZE):
                matrix = build_matrix(table, DeterminantSpec(kind, rank, m, 1))
                zs = [((y, 1),) for y in table.simple_raising + table.simple_lowering]
                zs += [z for a in sorted({a for entries in matrix for a in entries}) if (z := table.rows[x].get(a))]
                for z in zs:
                    form = determinants._derivation_form(table, matrix, z)
                    assert form == derivation_form_dense(table, matrix, z), (kind, rank, m, z)
                    forms += form is not None
                    refused += form is None
    assert (forms, refused) == (8218, 395)
    # X[e1-e2] sends the entry of the 1 x 1 matrix (X[2e2]) of C2 to
    # X[e1+e2], a letter with no place in the matrix
    table = build_algebra("C", 2)
    matrix, z = ((table.idx("X[2e2]"),),), ((table.idx("X[e1-e2]"), 1),)
    assert determinants._derivation_form(table, matrix, z) is derivation_form_dense(table, matrix, z) is None


@pytest.mark.parametrize("case", [("C", 6, 6, 1), ("A", 16, 8, 1)], ids=["C6-6-1", "A16-8-1"])
def test_a_passing_check_does_little_dict_work(monkeypatch, case):
    """With the rows already filled, one passing verify_singular and one
    passing lowering_factor_check each make at most 1,000 (C6 m=6 n=1) or
    2,000 (A16 m=8 n=1) determinants.add_term calls.  The AY + YB check
    follows the nonzero entries: 307 and 192 on C6, 807 and 583 on A16 when
    this was written, where the dense reading, 2m terms at each of the m^2
    entries, made 5,305 and 2,658, 31,183 and 15,711.  A count of calls
    does not depend on the machine."""
    spec = DeterminantSpec(*case)
    ceiling = 1000 if spec.m == 6 else 2000
    add = determinants.add_term
    for check in (verify_singular, lowering_factor_check):
        assert check(spec).verdict  # fills the rows the check reads
        calls = []
        monkeypatch.setattr(determinants, "add_term", lambda *args: calls.append(None) or add(*args))
        assert check(spec).verdict
        monkeypatch.setattr(determinants, "add_term", add)
        assert 0 < len(calls) <= ceiling, (check.__name__, len(calls))


@pytest.mark.parametrize("kind, rank", [("C", 18), ("A", 26)])
def test_a_passing_check_fills_few_rows(monkeypatch, kind, rank):
    """verify_singular on m=8 n=1 of the largest algebras reads the rows of
    the letters it meets, not the whole table: 63 of C18's 666 rows and 129
    of A26's 675 when this was written."""
    table = build_algebra.__wrapped__(kind, rank)
    monkeypatch.setattr(DeterminantSpec, "table", lambda self: table)
    spec = DeterminantSpec(kind, rank, 8, 1)
    assert verify_singular(spec, spec.level).verdict
    assert 0 < 5 * len(table.rows) < table.dimension
    assert 5 * len(table._form) < table.dimension


@pytest.mark.parametrize("case", [("C", 8, 8, 1), ("A", 16, 8, 1)], ids=["C8-8-1", "A16-8-1"])
def test_the_frontier_runs_no_kernel(monkeypatch, case):
    # minor(1,1) has 7! = 5,040 > WITNESS_TERMS terms, so even the failing
    # check expands nothing and states its witness factored
    def fail(*args, **kwargs):
        raise AssertionError("the check expanded a determinant")

    for name in ("det_entry_poly", "minor_entry_poly", "ep_pow", "ep_mul"):
        monkeypatch.setattr(determinants, name, fail)
    spec = DeterminantSpec(*case)
    assert verify_singular(spec).verdict
    assert lowering_factor_check(spec).verdict
    report = verify_singular(spec, spec.level + 1)
    beta = beta_constant(spec.table())
    assert report.witness["residual"] == "(%s) minor(1,1) |0>" % format_rational(beta)


# -- the mode-1 certificate against the kernel -----------------------------


def _cofactor_poly(table, spec, matrix):
    """sum_ij M_ij adj(Y)_ji, with adj(Y)_ji = (-1)^(i+j) minor(i, j)."""
    out = {}
    for i, row in enumerate(matrix, 1):
        for j, c in enumerate(row, 1):
            if c:
                for key, v in minor_entry_poly(table, spec, i, j).items():
                    add_term(out, key, (-1) ** (i + j) * c * v)
    return out


def _assert_the_kernel_agrees(table, spec, powers):
    """The kernel's x(1) on det^n|0>, for n in powers, is
    n det^(n-1) (Q + k K + (n - 1) T) from _mode_1_core's matrices."""
    q, k, t = determinants._mode_1_core(table, spec)
    det = det_entry_poly(table, spec)
    lower = {(): 1}
    for n in powers:
        power = ep_mul(lower, det)
        core = [[cq + (n - 1) * ct for cq, ct in zip(*rows)] for rows in zip(q, t)]
        expected = {}
        for degree, matrix in ((0, core), (1, k)):
            for key, c in ep_mul(lower, _cofactor_poly(table, spec, matrix)).items():
                add_term(expected, (degree, key), n * c)
        image = differential_ints(table, table.theta_lowering, power)
        assert {slot: 2 * c for slot, c in image.items()} == expected, (spec.label(), n)
        lower = power


@pytest.mark.parametrize("kind, rank", ORACLE_TABLES, ids=["%s%d" % table for table in ORACLE_TABLES])
def test_the_mode_1_certificate_is_the_kernels_image(kind, rank):
    """The kernel on det|0> and det^2|0> is the certificate's oracle; det^2
    at m = 6 would pass the letter limit, so it stops at m = 5."""
    table = build_algebra(kind, rank)
    for m in oracle_sizes(kind, rank):
        _assert_the_kernel_agrees(table, DeterminantSpec(kind, rank, m, 1), (1, 2) if m <= 5 else (1,))


@pytest.mark.parametrize("case", [("C", 8, 8, 1), ("A", 16, 8, 1)], ids=["C8-8-1", "A16-8-1"])
def test_the_mode_1_certificate_is_the_kernels_image_at_the_frontier(case):
    spec = DeterminantSpec(*case)
    _assert_the_kernel_agrees(spec.table(), spec, (1,))


@pytest.mark.parametrize("kind, rank", [("C", 3), ("C", 4), ("A", 6)])
def test_the_mode_1_certificate_holds_for_every_lowering_operator(kind, rank):
    """The cofactor calculus does not need the lowest root vector: with x
    any negative root vector, the matrices still give the kernel's image,
    now with cofactors off the diagonal, and every [x, a] has an AY + YB
    form on C3, C4 and A6 at m = 3.  On kind C each matrix holds one
    coefficient per distinct cofactor, so nothing below the diagonal."""
    base = build_algebra(kind, rank)
    spec = DeterminantSpec(kind, rank, 3, 1)
    for x in (x for x, block in enumerate(base.blocks) if block == "lower"):
        table = copy.copy(base)
        table.theta_lowering = x
        core = determinants._mode_1_core(table, spec)
        assert core is not None, table.text(x)  # every [x, a] has the form
        _assert_the_kernel_agrees(table, spec, (1, 2))
        if kind == "C":
            assert all(matrix[i][j] == 0 for matrix in core for i in range(3) for j in range(i)), table.text(x)


def test_every_accepted_spec_has_the_mode_1_certificate():
    """On C2-C18 and A4-A26, every allowed m, K = beta E_11 and, for n in
    {1, 2, 5}, Q + (n - 1) T = -beta L E_11 with the level L derived from
    the matrices equal to spec.level: verify_singular at the level never
    runs the kernel on these specs."""
    scanned = 0
    for kind, ranks in (("C", range(2, 19)), ("A", range(4, 27))):
        for rank in ranks:
            table = build_algebra(kind, rank)
            beta = beta_constant(table)
            for m in oracle_sizes(kind, rank, spec_module.MAX_SIZE):
                q, k, t = determinants._mode_1_core(table, DeterminantSpec(kind, rank, m, 1))
                e11 = [[int(i == j == 0) for j in range(m)] for i in range(m)]
                assert k == [[2 * beta * e for e in row] for row in e11], (kind, rank, m)
                for n in (1, 2, 5):
                    spec = DeterminantSpec(kind, rank, m, n)
                    core = [[cq + (n - 1) * ct for cq, ct in zip(*rows)] for rows in zip(q, t)]
                    level = Fraction(-core[0][0], k[0][0])
                    assert level == spec.level, spec.label()
                    assert core == [[core[0][0] * e for e in row] for row in e11], spec.label()
                    scanned += 1
    assert scanned == 771


@pytest.mark.parametrize("case", [("C", 5, 5, 3), ("C", 6, 6, 2)], ids=["C5-5-3", "C6-6-2"])
def test_a_passing_check_expands_nothing(monkeypatch, case):
    def fail(*args, **kwargs):
        raise AssertionError("verify_singular expanded the determinant or ran the kernel")

    for name in ("det_entry_poly", "ep_pow"):
        monkeypatch.setattr(determinants, name, fail)
    for check in (verify_singular, lowering_factor_check):
        report = check(DeterminantSpec(*case))
        assert report.verdict and report.witness is None


@pytest.mark.parametrize("kind, rank", [("C", 3), ("A", 6)])
def test_a_bracket_that_breaks_the_form_has_no_certificate(monkeypatch, capsys, kind, rank):
    """On a fresh table where [z, Y_12], z = [x, Y_11] or [x, Y_12] for the
    lowest root vector x, gains a term Y_33, no AY + YB form exists, so no
    certificate applies: both checks refuse at every level, and the command
    line exits 2, as for a mode 0 operator with no form."""
    table = build_algebra.__wrapped__(kind, rank)
    monkeypatch.setattr(DeterminantSpec, "table", lambda self: table)
    spec = DeterminantSpec(kind, rank, 3, 2)
    matrix = build_matrix(table, spec)
    a, b = sorted((matrix[0][0], matrix[0][1]))  # the kernel reads [[x, a], b] for a <= b
    ((w, _),) = table.rows[table.theta_lowering][a]  # z = [x, a] is one basis element
    table.rows[w][b] = table.rows[w].get(b, ()) + ((matrix[2][2], 1),)
    z = table.rows[table.theta_lowering][a]
    assert determinants._derivation_form(table, matrix, z) is derivation_form_dense(table, matrix, z) is None
    assert determinants._mode_1_core(table, spec) is None
    message = r"^no certificate applies: %s\(1\) on %s has no cofactor form on the matrix$" % (
        re.escape(table.text(table.theta_lowering)), spec.label())
    for run in (lambda: verify_singular(spec), lambda: verify_singular(spec, spec.level + 1),
                lambda: verify_singular(spec, None), lambda: lowering_factor_check(spec)):
        with pytest.raises(RuntimeError, match=message):
            run()
    for command in (["verify"], ["verify", "--symbolic"], ["factor"]):
        assert main(["singular", *command, "--type", kind, "--rank", str(rank), "-m", "3", "-n", "2",
                     "--no-cache"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: no certificate applies: ")


WITNESS_CASES = C_GRID + A_GRID + [(s.kind, s.rank, s.m, s.n) for s in BENCHMARK_SPECS]


@pytest.mark.parametrize("case", WITNESS_CASES, ids=lambda case: "%s%d-%d-%d" % case)
def test_every_witness_expanded_is_the_kernels_image(case):
    """The residual that verify_singular builds from the cofactor
    coefficients, expanded when it is stated factored, is the image of x(1)
    on det^n|0> under the differential operator of oracles, at L + 1, at
    L + 1/3 and with k symbolic."""
    spec = DeterminantSpec(*case)
    table = spec.table()
    for level in (spec.level + 1, spec.level + Fraction(1, 3), None):
        witness = verify_singular(spec, level).witness
        assert witness["operator"] == "%s(1)" % table.text(table.theta_lowering)
        # stated factored exactly when (m-1)! (m!)^(n-1) passes the bound
        terms = math.factorial(spec.m - 1) * math.factorial(spec.m) ** (spec.n - 1)
        assert ("minor(" in witness["residual"]) == (terms > determinants.WITNESS_TERMS), (case, level)
        expected = kernel_residual(table, spec, level).text(table)
        assert expand_residual(table, spec, witness["residual"]) == expected, (case, level)


def test_the_frontier_witness_expanded_is_the_kernels_image():
    spec = DeterminantSpec("C", 8, 8, 1)
    table = spec.table()
    residual = verify_singular(spec, spec.level + 1).witness["residual"]
    assert residual == "(-4) minor(1,1) |0>"
    assert expand_residual(table, spec, residual) == kernel_residual(table, spec, spec.level + 1).text(table)


LOWERING_FACTOR_GRID = [("C", 2, 1, 3), ("C", 2, 2, 1), ("C", 2, 2, 2), ("C", 3, 2, 1), ("C", 3, 3, 1),
                        ("A", 2, 1, 1), ("A", 4, 2, 1), ("A", 4, 2, 2)]


@pytest.mark.parametrize("case", LOWERING_FACTOR_GRID, ids=lambda case: "%s%d-%d-%d" % case)
def test_the_factor_check_agrees_with_the_kernel(monkeypatch, case):
    """lowering_factor_check, decided on the cofactor matrices, gives the
    verdict of comparing the kernel's x(1) det^n|0> with
    beta n (k - L) minor(1,1) det^(n-1)|0>, and on a failure the kernel's
    lhs and difference, with the true beta and level and with either one
    moved."""
    spec = DeterminantSpec(*case)
    table = spec.table()
    lhs = kernel_residual(table, spec)
    minor = ep_state(ep_mul(minor_entry_poly(table, spec, 1, 1), ep_pow(det_entry_poly(table, spec), spec.n - 1)))
    true_beta, true_level = beta_constant(table), spec.level
    for beta, level in ((true_beta, true_level), (true_beta + 1, true_level),
                        (true_beta, true_level + Fraction(1, 3))):
        difference = lhs - minor * Poly(K, {(1,): beta * spec.n, (0,): -beta * spec.n * level})
        monkeypatch.setattr(determinants, "beta_constant", lambda table: beta)
        monkeypatch.setattr(DeterminantSpec, "level", property(lambda self: level))
        report = lowering_factor_check(spec)
        monkeypatch.undo()
        assert report.verdict == difference.is_zero, (case, beta, level)
        if not report.verdict:
            assert {key: expand_residual(table, spec, text) for key, text in report.witness.items()} == {
                "difference": difference.text(table), "lhs": lhs.text(table)}


def test_beta_constants(table_c2, table_c3, table_a4):
    assert beta_constant(table_c2) == -4
    assert beta_constant(table_c3) == -4
    assert beta_constant(table_a4) == 1


def test_lowering_factor_c_type(table_c2):
    t = table_c2
    spec = DeterminantSpec("C", 2, 1, 1)
    # x_-theta(1) X[2e1](-1) |0> = -4 k |0>
    from affine_singular.vacuum import apply_generator
    lhs = apply_generator(t, t.theta_lowering, 1, determinant_vector(t, spec))
    assert lhs == VacuumState.vacuum() * Poly(K, {(1,): Fraction(-4)})
    report = lowering_factor_check(spec)
    assert report.verdict


def test_lowering_factor_a_type(table_a2):
    t = table_a2
    spec = DeterminantSpec("A", 2, 1, 2)
    # f(1) e(-1)^2 |0> = 2 (k - 1) e(-1) |0>
    from affine_singular.vacuum import apply_generator
    lhs = apply_generator(t, t.theta_lowering, 1, determinant_vector(t, spec))
    expected = straighten(t, [(-1, "X[e1-e2]")]) * Poly(K, {(1,): Fraction(2), (0,): Fraction(-2)})
    assert lhs == expected
    report = lowering_factor_check(spec)
    assert report.verdict
    assert any("derived" in note for note in report.notes)


def test_lowering_factor_grid():
    for kind, rank, m, n in LOWERING_FACTOR_GRID:
        report = lowering_factor_check(DeterminantSpec(kind, rank, m, n))
        assert report.verdict, (kind, rank, m, n, report.witness)


@pytest.mark.parametrize("kind, rank, m, n", [("C", 2, 2, 2), ("C", 3, 3, 2), ("A", 4, 2, 3)],
                         ids=["level-1_2", "level-0", "level-1"])
@pytest.mark.parametrize("wrong", ["beta", "level"])
def test_a_failing_lowering_factor_reports_the_symbolic_difference(monkeypatch, kind, rank, m, n, wrong):
    """The identity is compared in ints; a failure must still report the
    difference and lhs that the Fraction/Poly computation gives."""
    spec = DeterminantSpec(kind, rank, m, n)
    table = spec.table()
    level = spec.level + (Fraction(1, 3) if wrong == "level" else 0)
    beta = beta_constant(table) + (1 if wrong == "beta" else 0)
    lhs = vacuum.apply_generator(table, table.theta_lowering, 1, determinant_vector(table, spec))
    lower = ep_pow(det_entry_poly(table, spec), n - 1)
    minor = ep_state(ep_mul(minor_entry_poly(table, spec, 1, 1), lower))
    difference = lhs - minor * Poly(K, {(1,): beta * n, (0,): -beta * n * level})
    monkeypatch.setattr(determinants, "beta_constant", lambda table: beta)
    monkeypatch.setattr(DeterminantSpec, "level", property(lambda self: level))
    report = lowering_factor_check(spec)
    assert not report.verdict
    assert report.witness == {"difference": difference.text(table), "lhs": lhs.text(table)}


def test_coexisting_singulars():
    found = coexisting_singulars("C", 3, 0)
    assert [(s.m, s.n) for s in found] == [(1, 1), (3, 2)]
    # both really are singular at level 0 and carry different weights
    weights = set()
    for spec in found:
        table = spec.table()
        assert verify_singular(spec, level=0).verdict
        weights.add(state_weight(table, determinant_vector(table, spec)))
    assert len(weights) == 2
    assert coexisting_singulars("C", 2, Fraction(-1, 2)) == [DeterminantSpec("C", 2, 2, 1)]
    assert coexisting_singulars("A", 4, -1) == [DeterminantSpec("A", 4, 2, 1)]
    assert coexisting_singulars("A", 4, Fraction(-1, 2)) == []
