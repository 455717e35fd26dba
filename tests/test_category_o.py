from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from affine_singular import category_o
from affine_singular.category_o import (SP6_LINES, SP6_POINTS,
                                        adjoint_orbit_top, classify_sp6,
                                        determinant_top_module, hc_projection,
                                        sp6_printed_polynomials, uelem_weight,
                                        vanishes_on_line, weight_convert,
                                        zero_weight_subspace)
from affine_singular.determinants import DeterminantSpec
from affine_singular.liealg import StructureTable, build_algebra
from affine_singular.linalg import SparseBasis
from affine_singular.scalars import Poly
from affine_singular.weights import multiplicity, weyl_dim
from affine_singular.zhu import UEnvElement, ad_action, finite_determinant, uenv_pow
from oracles import adjoint_closure_scan, uenv_normal_form


def test_uelem_weight(table_c2):
    t = table_c2
    u = uenv_normal_form(t, [t.idx("X[2e1]"), t.idx("X[e1+e2]")])
    assert uelem_weight(t, u) == (3, 1)
    mixed = UEnvElement({(t.idx("X[2e1]"),): 1, (t.idx("X[2e2]"),): 1})
    with pytest.raises(ValueError):
        uelem_weight(t, mixed)


def test_c2_determinant_module(table_c2):
    spec = DeterminantSpec("C", 2, 2, 1)
    module = determinant_top_module(spec)
    assert module.highest_weight == (2, 2)
    assert module.dimension == weyl_dim(table_c2, (2, 2)) == 14
    assert module.raising_closed
    zero = zero_weight_subspace(module)
    assert len(zero) == multiplicity(table_c2, (2, 2), (0, 0)) == 2
    # every element is weight homogeneous by construction
    for u, w in zip(module.elements, module.element_weights):
        assert uelem_weight(module.table, u) == w


def test_a4_determinant_module(table_a4):
    spec = DeterminantSpec("A", 4, 2, 1)
    module = determinant_top_module(spec)
    assert module.highest_weight == (1, 1, -1, -1)
    assert module.dimension == weyl_dim(table_a4, (1, 1, -1, -1)) == 20
    assert module.raising_closed


def test_dim_cap(monkeypatch):
    monkeypatch.setattr(category_o, "DIM_CAP", 5)
    with pytest.raises(RuntimeError, match="cap of 5"):
        determinant_top_module(DeterminantSpec("C", 2, 2, 1))


def test_too_many_controls_are_refused_before_any_work(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("classify_sp6 started work")

    monkeypatch.setattr(category_o, "determinant_top_module", fail)
    with pytest.raises(ValueError, match="controls must be at most 10000, got 10001"):
        classify_sp6(controls=category_o.MAX_CONTROLS + 1)


def test_adjoint_orbit_of_highest_root_is_adjoint_rep(table_c2):
    t = table_c2
    gen = UEnvElement({(t.theta_raising,): 1})
    module = adjoint_orbit_top(t, gen)
    assert module.dimension == t.dimension == 10
    assert module.raising_closed


def test_hc_projection_c2(table_c2):
    t = table_c2
    # e f with [e, f] = -4 h1: only the bracket part survives on v_lambda
    u = uenv_normal_form(t, [t.idx("X[2e1]"), t.idx("X[-2e1]")])
    poly = hc_projection(t, u)
    assert repr(poly) == "-4*h1"
    # a pure Cartan word keeps its product
    u = uenv_normal_form(t, [t.idx("h1"), t.idx("h2")])
    assert repr(hc_projection(t, u)) == "h1*h2"
    # the lowering-then-raising word ends in a positive factor: no Cartan part
    u = uenv_normal_form(t, [t.idx("X[-2e1]"), t.idx("X[2e1]")])
    assert repr(hc_projection(t, u)) == "0"


def test_weight_convert(table_c3):
    t = table_c3
    # -2 L0 + L2 has level -1 and finite part omega_2
    assert weight_convert(t, [-2, 0, 1, 0]) == (-1, (1, 1, 0))
    # the line (-x-1) L0 + x L1 is -L0 + x (L1 - L0)
    line = SP6_LINES[0]
    assert weight_convert(t, line["base"]) == (-1, (0, 0, 0))
    assert weight_convert(t, line["direction"]) == (0, (1, 0, 0))
    with pytest.raises(ValueError):
        weight_convert(t, [1, 2, 3])


@pytest.mark.parametrize("rank", [3, 4])
def test_weight_convert_on_kind_a(rank):
    # A_(l-1)^(1) has Lambda_0..Lambda_(l-1), all of comark 1
    t = build_algebra("A", rank)
    unit = lambda j: [int(i == j) for i in range(rank)]
    assert weight_convert(t, unit(0)) == (1, (0,) * rank)
    assert weight_convert(t, unit(1)) == (1, t.fundamental_weight(1))
    for length in (rank - 1, rank + 1):
        with pytest.raises(ValueError, match="expected %d coefficients" % rank):
            weight_convert(t, [0] * length)


def test_sp6_printed_polynomials_vanish_on_printed_locus(table_c3):
    polys = sp6_printed_polynomials()
    assert len(polys) == 4
    for entry in SP6_LINES:
        pairs = list(zip(weight_convert(table_c3, entry["base"])[1],
                         weight_convert(table_c3, entry["direction"])[1]))
        for p in polys:
            assert vanishes_on_line(p, pairs), entry["label"]
    # point -2L0 + L2 -> (1, 1, 0)
    for p in polys:
        assert p.evaluate((1, 1, 0)) == 0
    # a generic point misses the locus
    assert any(p.evaluate((2, 2, 2)) != 0 for p in polys)


def _restrict(p: Poly, pairs) -> Poly:
    """p(b + x*d), one (b, d) per coordinate, expanded as a polynomial in x."""
    total = Poly(("x",))
    for expo, c in p.terms.items():
        term = Poly.constant(("x",), c)
        for (b, d), e in zip(pairs, expo):
            for _ in range(e):
                term = term * Poly(("x",), {(0,): b, (1,): d})
        total = total + term
    return total


def test_line_check_evaluates_at_one_point_past_the_degree():
    # h1 (h1 - 1)(h1 - 2) on the line h1 = x vanishes at x = 0, 1, 2 only
    h1 = Poly.variable(("h1", "h2", "h3"), 0)
    cubic = h1 * (h1 - 1) * (h1 - 2)
    line = [(0, 1), (0, 0), (0, 0)]
    assert all(cubic.evaluate((x, 0, 0)) == 0 for x in range(3))
    assert not vanishes_on_line(cubic, line)
    assert vanishes_on_line(cubic * Poly.variable(("h1", "h2", "h3"), 1), line)
    assert vanishes_on_line(Poly.constant(("h1", "h2", "h3"), 0), line)
    assert not vanishes_on_line(Poly.constant(("h1", "h2", "h3"), 1), line)

    # the verdict agrees with expanding the substitution, on random lines and
    # on polynomials made to vanish on them by a linear factor
    g1, g2 = Poly.variable(("h1", "h2"), 0), Poly.variable(("h1", "h2"), 1)
    rng = random.Random(5)
    for trial in range(40):
        q = Poly(("h1", "h2"), {(rng.randint(0, 2), rng.randint(0, 2)): Fraction(rng.randint(-3, 3))
                                for _ in range(3)})
        pairs = [tuple(Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in "bd") for _ in range(2)]
        if trial % 2:
            (b1, d1), (b2, d2) = pairs
            q = q * (d2 * (g1 - b1) - d1 * (g2 - b2))  # zero on the line
        restricted = _restrict(q, pairs)
        for x in range(max(map(sum, q.terms), default=0) + 1):
            assert restricted.evaluate((x,)) == q.evaluate([b + x * d for b, d in pairs])
        assert vanishes_on_line(q, pairs) == restricted.is_zero


def test_sp6_printed_data_shapes(table_c3):
    assert len(SP6_LINES) == 3
    assert len(SP6_POINTS) == 6
    for entry in SP6_LINES:
        assert weight_convert(table_c3, entry["base"])[0] == -1
        assert weight_convert(table_c3, entry["direction"])[0] == 0
    for entry in SP6_POINTS:
        level, _ = weight_convert(table_c3, entry["coefficients"])
        assert level == -1


def test_on_line_matches_the_hand_written_line_conditions(table_c3):
    lines = []
    for entry in SP6_LINES:
        _, base = weight_convert(table_c3, entry["base"])
        _, direction = weight_convert(table_c3, entry["direction"])
        lines.append(list(zip(base, direction)))
    values = sorted({Fraction(a, b) for a in range(-3, 4) for b in (1, 2)})
    hits = 0
    for point in itertools.product(values, repeat=3):
        h1, h2, h3 = point
        expected = (h2 == h3 == 0) or (h1 == -1 and h3 == 0) or (h1 == h2 == -1)
        assert any(category_o._on_line(point, pairs) for pairs in lines) == expected, point
        hits += expected
    assert hits == 3 * len(values) - 2


def test_a_wrong_printed_line_fails_the_classification(monkeypatch):
    wrong = dict(SP6_LINES[0], direction=[-1, 1, 1, -1])
    monkeypatch.setattr(category_o, "SP6_LINES", [wrong] + SP6_LINES[1:])
    report = classify_sp6(seed=0, controls=4)
    assert not report.verdict
    assert "lines_vanish" in report.witness["subchecks"]
    assert not report.details["lines"][0]["all_polynomials_vanish"]


def test_sp6_zero_weight_projections_match_printed(table_c3):
    spec = DeterminantSpec("C", 3, 3, 1)
    module = determinant_top_module(spec)
    zero = zero_weight_subspace(module)
    span = SparseBasis()
    for u in zero:
        span.insert(hc_projection(table_c3, u).terms)
    assert len(span) == 4
    for p in sp6_printed_polynomials():
        assert span.contains(p.terms)


def test_classify_sp6_report():
    report = classify_sp6(seed=0, controls=10)
    assert report.verdict, report.witness
    details = report.details
    assert details["module_dimension"] == 84
    assert details["zero_weight_dimension"] == 4
    assert len(details["polynomials"]) == 4
    assert all(r["all_polynomials_vanish"] for r in details["lines"])
    assert all(r["all_polynomials_vanish"] for r in details["points"])
    assert all(r["violates"] is not None for r in details["negative_controls"])
    assert all(v for v in details["subchecks"].values())
    assert report.seed == 0


def test_classify_sp6_seed_determinism():
    first = classify_sp6(seed=5, controls=4)
    second = classify_sp6(seed=5, controls=4)
    assert ([c["weight"] for c in first.details["negative_controls"]]
            == [c["weight"] for c in second.details["negative_controls"]])


def _certificate_generators():
    """The determinant for C2, C3, A4 and C3 m=2, one and two nonzero
    lowerings of each (not highest weight, so not raising closed), and
    every single basis element of C3."""
    cases = []
    for spec in (DeterminantSpec("C", 2, 2, 1), DeterminantSpec("C", 3, 3, 1),
                 DeterminantSpec("A", 4, 2, 1), DeterminantSpec("C", 3, 2, 1)):
        table = spec.table()
        u = finite_determinant(table, spec)
        cases.append((table, u))
        for _ in range(2):
            u = next(image for image in (ad_action(table, f, u) for f in table.simple_lowering)
                     if not image.is_zero)
            cases.append((table, u))
    c3 = build_algebra("C", 3)
    cases += [(c3, UEnvElement({(x,): 1})) for x in range(c3.dimension)]
    return cases


def test_raising_certificate_matches_the_full_scan():
    cases = _certificate_generators()
    assert len(cases) == 33
    verdicts = []
    for table, generator in cases:
        module = adjoint_orbit_top(table, generator)
        assert (module.dimension, module.raising_closed) == adjoint_closure_scan(table, generator)
        verdicts.append(module.raising_closed)
    assert True in verdicts and False in verdicts


def _mutated(table, changes):
    """A copy of table with the brackets in changes replaced."""
    rows = [dict(table.rows[x]) for x in range(table.dimension)]
    for (x, y), terms in changes.items():
        rows[x][y] = terms
    return StructureTable(table.kind, table.rank, table.basis, table.weights, rows, table._form, table.blocks)


def test_raising_certificate_needs_the_chevalley_relations(table_c2):
    t = table_c2
    (e1, e2), (f1, f2) = t.simple_raising, t.simple_lowering
    h1 = t.cartan_indices[0]
    generator = UEnvElement({(t.theta_raising,): 1})
    assert adjoint_orbit_top(t, generator).raising_closed
    assert t.bracket(e1, f2) == ()
    off_diagonal = {(e1, f2): ((h1, Fraction(1)),), (f2, e1): ((h1, Fraction(-1)),)}
    assert not adjoint_orbit_top(_mutated(t, off_diagonal), generator).raising_closed
    non_cartan = {(e1, f1): t.bracket(e1, f1) + ((e2, Fraction(1)),),
                  (f1, e1): t.bracket(f1, e1) + ((e2, Fraction(-1)),)}
    assert not adjoint_orbit_top(_mutated(t, non_cartan), generator).raising_closed


def test_closure_applies_each_raising_operator_once(monkeypatch):
    spec = DeterminantSpec("C", 3, 3, 1)
    table = spec.table()
    generator = uenv_pow(table, finite_determinant(table, spec), 1)
    calls = []
    core = category_o._ad_ints

    def counted(table, g, u):
        calls.append(g)
        return core(table, g, u)

    monkeypatch.setattr(category_o, "_ad_ints", counted)
    module = adjoint_orbit_top(table, generator)
    assert module.dimension == 84 and module.raising_closed
    assert len(calls) == 84 * len(table.simple_lowering) + len(table.simple_raising) == 255
    assert calls[-3:] == list(table.simple_raising)


@pytest.mark.parametrize("factor", [Fraction(1, 3), Fraction(-5, 2)])
def test_closure_of_a_scaled_generator_scales_every_element(factor):
    spec = DeterminantSpec("C", 3, 3, 1)
    table = spec.table()
    det = finite_determinant(table, spec)
    plain = adjoint_orbit_top(table, det)
    scaled = adjoint_orbit_top(table, det.scale(factor))
    assert scaled.dimension == plain.dimension == 84 and scaled.raising_closed
    assert scaled.highest_weight == plain.highest_weight
    assert scaled.element_weights == plain.element_weights
    assert scaled.elements == [u.scale(factor) for u in plain.elements]
    assert all(type(c) is Fraction for u in scaled.elements for c in u.terms.values())


# SHA-256 of every element and weight of each module, in discovery order,
# pinned from the closure that ran on UEnvElements
MODULE_DIGESTS = {
    ("C", 3, 3, 1): (84, "adb226a38970a02671eabe89c3b6b1d97963786ffc9184d6f2854fa478794ab5"),
    ("C", 3, 2, 1): (90, "bf02d8ee8753ea84b94f3c8917981c68e89d6032cfdd47cf5a2e2374c64dbd30"),
    ("A", 4, 2, 1): (20, "ddf7da4ffb83251e7badf1ce3e1879ab80f966278583e049c45c7dbdbf143154"),
}


@pytest.mark.parametrize("case", sorted(MODULE_DIGESTS))
def test_module_elements_and_weights_are_pinned(case):
    module = determinant_top_module(DeterminantSpec(*case))
    payload = [[sorted((list(word), str(c)) for word, c in u.terms.items()), list(w)]
               for u, w in zip(module.elements, module.element_weights)]
    payload += [list(module.highest_weight), module.raising_closed]
    digest = hashlib.sha256(json.dumps(payload).encode()).hexdigest()
    assert (module.dimension, digest) == MODULE_DIGESTS[case]
