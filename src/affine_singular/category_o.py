"""The top-level module of a determinant ideal and its highest weight lab.

The image of the determinant power generates a finite-dimensional module
under the adjoint action; its zero-weight vectors act on a highest weight
vector v_lambda through their pure-Cartan parts, giving one polynomial
p_u(h_1..h_l) per basis vector u (a Poly in the names h1..hl).  An
irreducible highest weight module is killed by the whole ideal exactly when
all the p_u vanish at its weight, so the common zero locus is a complete
classification of the surviving simple modules.  For sp_6 with the 3 x 3
determinant this locus is three parameter lines plus six isolated weights,
all of level -1, stated once as exact affine data (SP6_LINES as base +
x*direction, SP6_POINTS).  classify_sp6 recomputes everything, checks that
data against it, and reads the same data to keep its seeded controls off
the locus.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import weights as weight_util
from .linalg import SparseBasis
from .report import VerificationReport, timed
from .scalars import ZERO, Poly, coerce_rational, format_rational, over_common_denominator
from .spec import DeterminantSpec
from .zhu import UEnvElement, _ad_ints, _fractions, finite_determinant, uenv_pow

DIM_CAP = 2000  # adjoint closures larger than this stop with a RuntimeError
MAX_CONTROLS = 10_000  # seeded off-locus controls per classify_sp6 call


def uelem_weight(table, u: UEnvElement):
    """Common adjoint weight of all words of u; raises when mixed."""
    if u.is_zero:
        raise ValueError("the zero element has no weight")
    found = None
    for word in sorted(u.terms):
        w = tuple(sum(col) for col in zip(*(table.weights[x] for x in word))) if word else (0,) * table.rank
        if found is None:
            found = w
        elif w != found:
            raise ValueError("element mixes weights %s and %s" % (found, w))
    return found


class TopLevelModule:
    """Adjoint closure of a generator inside U(g), graded by weight.

    elements are UEnvElements in discovery order, element_weights their weights.
    """

    def __init__(self, table, highest_weight: tuple, elements: list, element_weights: list,
                 raising_closed: bool):
        self.table = table
        self.highest_weight = highest_weight
        self.elements = elements
        self.element_weights = element_weights
        self.raising_closed = raising_closed

    @property
    def dimension(self) -> int:
        return len(self.elements)


def adjoint_orbit_top(table, generator: UEnvElement) -> TopLevelModule:
    """Close the generator under the adjoint lowering operators.

    Elements are kept weight-homogeneous; independence is tested with exact
    row reduction inside each weight space.  Closure of the span V under the
    simple raising operators e_i is then certified and recorded, so V is a
    module over the whole algebra, without applying every e_i to every
    element.  The certificate has two parts:

    1. the table's Chevalley relations: [e_i, f_j] = 0 for i != j and
       [e_i, f_i] has only Cartan terms;
    2. ad(e_i)(generator) lies in V, for each i.

    The rest is induction along the discovery order.  Every later element
    is u = ad(f_j)(u') for an earlier u', and
    ad(e_i)(u) = ad([e_i, f_j])(u') + ad(f_j)(ad(e_i)(u')).  The first term
    is 0 or a Cartan element acting on the weight vector u', so a multiple
    of u'; the second is in V because ad(e_i)(u') is (induction) and V is
    closed under every ad(f_j) by construction.  Conversely, if V is closed
    then part 2 holds, so on any table that passes part 1 the verdict is
    that of applying every e_i to every element.  A table that fails part 1
    is not certified: raising_closed is False.

    The closure and the raising check run on int maps over the generator's
    common denominator; each element becomes a UEnvElement once, on return.
    """
    top = uelem_weight(table, generator)
    gen, den = over_common_denominator(generator.terms)
    spaces: dict = {top: SparseBasis()}
    spaces[top].insert(gen)
    elements = [gen]
    element_weights = [top]
    queue = [0]
    while queue:
        at = queue.pop(0)
        u = elements[at]
        uw = element_weights[at]
        for g in table.simple_lowering:
            image = _ad_ints(table, g, u)
            if not image:
                continue
            w = tuple(a + b for a, b in zip(uw, table.weights[g]))
            space = spaces.setdefault(w, SparseBasis())
            if space.insert(image):
                elements.append(image)
                element_weights.append(w)
                queue.append(len(elements) - 1)
                if len(elements) > DIM_CAP:
                    raise RuntimeError("adjoint closure exceeded the cap of %d" % DIM_CAP)
    raising_closed = _chevalley_relations_hold(table)
    for g in table.simple_raising:
        image = _ad_ints(table, g, gen)
        space = spaces.get(tuple(a + b for a, b in zip(top, table.weights[g])))
        if image and (space is None or not space.contains(image)):
            raising_closed = False
    return TopLevelModule(table, top, [_fractions(e, den) for e in elements], element_weights,
                          raising_closed)


def _chevalley_relations_hold(table) -> bool:
    """[e_i, f_j] = 0 for i != j and [e_i, f_i] lies in the Cartan subalgebra."""
    cartan = set(table.cartan_indices)
    for i, e in enumerate(table.simple_raising):
        for j, f in enumerate(table.simple_lowering):
            allowed = cartan if i == j else ()
            if any(z not in allowed for z, _ in table.bracket(e, f)):
                return False
    return True


def determinant_top_module(spec: DeterminantSpec) -> TopLevelModule:
    table = spec.table()
    gen = uenv_pow(table, finite_determinant(table, spec), spec.n)
    return adjoint_orbit_top(table, gen)


def zero_weight_subspace(module: TopLevelModule) -> list:
    zero = (0,) * module.table.rank
    return [u for u, w in zip(module.elements, module.element_weights) if w == zero]


def hc_projection(table, u: UEnvElement) -> Poly:
    """Keep the pure-Cartan monomials of a PBW normal form as a polynomial.

    Every discarded monomial carries a positive factor on the right (the
    block order guarantees it), so this is exactly the action on a highest
    weight vector.
    """
    cartan = set(table.cartan_indices)
    names = tuple("h%d" % t for t in range(1, table.rank + 1))
    total = Poly(names)
    for word, c in u.terms.items():
        if all(x in cartan for x in word):
            piece = Poly.constant(names, c)
            for x in word:
                piece = piece * table.cartan_hpoly(x)
            total = total + piece
    return total


def weight_convert(table, coefficients):
    """Level and finite weight of an affine weight sum(c_j Lambda_j).

    coefficients has one rational entry per fundamental weight of the affine
    algebra: Lambda_0..Lambda_l for C_l^(1) (rank+1 entries) and
    Lambda_0..Lambda_(l-1) for A_(l-1)^(1), whose finite part sl_l has l-1
    fundamental weights (rank entries).  Every comark is 1 in both kinds, so
    the level is the sum of the entries; the finite part is the combination
    of the finite fundamental weights, in epsilon coordinates.
    """
    coeffs = [coerce_rational(c) for c in coefficients]
    top = table.rank if table.kind == "C" else table.rank - 1
    if len(coeffs) != top + 1:
        raise ValueError("expected %d coefficients" % (top + 1))
    finite = [ZERO] * table.rank
    for j in range(1, top + 1):
        finite = [f + coeffs[j] * w for f, w in zip(finite, table.fundamental_weight(j))]
    return sum(coeffs, ZERO), tuple(finite)


# printed classification data for the sp_6 check, all of level -1: three
# lines of affine weights base + x*direction, with base and direction given
# as coefficients of L0..L3 ((-x-1)L0 + xL1 = -L0 + x(L1 - L0)), and six
# isolated weights
SP6_LINES = [
    {"label": "(-x-1)L0 + xL1", "base": [-1, 0, 0, 0], "direction": [-1, 1, 0, 0]},
    {"label": "(-x-1)L1 + xL2", "base": [0, -1, 0, 0], "direction": [0, -1, 1, 0]},
    {"label": "(-x-1)L2 + xL3", "base": [0, 0, -1, 0], "direction": [0, 0, -1, 1]},
]

SP6_POINTS = [
    {"label": "-2L0 + L2", "coefficients": [-2, 0, 1, 0]},
    {"label": "L1 - 2L3", "coefficients": [0, 1, 0, -2]},
    {"label": "-1/2L0 - 1/2L3", "coefficients": [Fraction(-1, 2), 0, 0, Fraction(-1, 2)]},
    {"label": "-1/2L0 + L2 - 3/2L3", "coefficients": [Fraction(-1, 2), 0, 1, Fraction(-3, 2)]},
    {"label": "-3/2L0 + L1 - 1/2L3", "coefficients": [Fraction(-3, 2), 1, 0, Fraction(-1, 2)]},
    {"label": "-3/2L0 + L1 + L2 - 3/2L3", "coefficients": [Fraction(-3, 2), 1, 1, Fraction(-3, 2)]},
]


def sp6_printed_polynomials() -> list:
    """The four classification polynomials in the printed factored shapes."""
    h1, h2, h3 = (Poly.variable(("h1", "h2", "h3"), i) for i in range(3))
    half = Fraction(1, 2)
    p1 = (h1 + 1) * (h2 + half) * h3
    p2 = (h1 + 1) * (4 * h3 + (h2 + h3) * (h2 + h3 - 1))
    p3 = h3 * (4 * (h2 + 1) + (h1 + h2 + 2) * (h1 + h2 - 1))
    p4 = 4 * h3 * (h2 + 1) + (h1 + h3 - 1) * (h2 + h3 + h2 * (h1 + h3))
    return [p1, p2, p3, p4]


def vanishes_on_line(p: Poly, pairs) -> bool:
    """Whether p vanishes on the whole line b + x*d, one (b, d) per coordinate.

    p(b + x*d) is a polynomial in x of degree at most D, the total degree of
    p, so it is zero exactly when it vanishes at the D + 1 points x = 0..D.
    """
    return all(p.evaluate([b + x * d for b, d in pairs]) == 0 for x in range(p.degree + 1))


def _on_line(point, pairs) -> bool:
    """Whether point is b + x*d for some rational x, one (b, d) per coordinate."""
    if any(p != b for p, (b, d) in zip(point, pairs) if not d):
        return False  # cheap rejection before any Fraction arithmetic
    x = next(((p - b) / d for p, (b, d) in zip(point, pairs) if d), ZERO)
    return all(p == b + x * d for p, (b, d) in zip(point, pairs))


@timed
def classify_sp6(seed: int = 0, controls: int = 20) -> VerificationReport:
    """Recompute the sp_6 top-level classification and check the printed answer.

    Subchecks: module dimensions against the weight-formula oracles, the four
    printed polynomials against the computed zero-weight span, identical
    vanishing along the three printed lines and six printed weights, and
    seeded off-locus controls that must each violate some polynomial, at
    most MAX_CONTROLS of them.
    """
    if controls < 0:
        raise ValueError("controls must be nonnegative, got %d" % controls)
    if controls > MAX_CONTROLS:
        raise ValueError("controls must be at most %d, got %d" % (MAX_CONTROLS, controls))
    spec = DeterminantSpec("C", 3, 3, 1)
    table = spec.table()
    notes = []
    subchecks = {}

    module = determinant_top_module(spec)
    lam = module.highest_weight
    dim_expected = weight_util.weyl_dim(table, lam)
    zero_basis = zero_weight_subspace(module)
    zero_expected = weight_util.multiplicity(table, lam, (0, 0, 0))
    subchecks["highest_weight"] = lam == (2, 2, 2)
    subchecks["module_dimension"] = module.dimension == dim_expected
    subchecks["raising_closed"] = module.raising_closed
    subchecks["zero_weight_dimension"] = len(zero_basis) == zero_expected == 4

    computed = [hc_projection(table, u) for u in zero_basis]
    span = SparseBasis()
    for p in computed:
        span.insert(p.terms)
    subchecks["projection_span_rank"] = len(span) == 4

    printed = sp6_printed_polynomials()
    in_span = [span.contains(p.terms) for p in printed]
    subchecks["printed_polynomials_in_span"] = all(in_span)
    if not all(in_span):
        notes.append("printed polynomial(s) outside the computed span: "
                     + ", ".join(str(t + 1) for t, ok in enumerate(in_span) if not ok))

    line_results = []
    line_pairs = []
    for entry in SP6_LINES:
        level, base = weight_convert(table, entry["base"])
        slope, direction = weight_convert(table, entry["direction"])
        pairs = list(zip(base, direction))
        line_pairs.append(pairs)
        line_results.append({
            "line": entry["label"],
            "finite_weight": [str(Poly(("x",), {(0,): b, (1,): d})) for b, d in pairs],
            "level_matches": level == spec.level and slope == 0,
            "all_polynomials_vanish": all(vanishes_on_line(p, pairs) for p in computed),
        })
    subchecks["lines_vanish"] = all(r["level_matches"] and r["all_polynomials_vanish"] for r in line_results)

    point_results = []
    printed_points = []
    for entry in SP6_POINTS:
        level, coords = weight_convert(table, entry["coefficients"])
        printed_points.append(coords)
        point_results.append({
            "weight": entry["label"],
            "finite_weight": [format_rational(c) for c in coords],
            "level_matches": level == spec.level,
            "all_polynomials_vanish": all(p.evaluate(coords) == 0 for p in computed),
        })
    subchecks["points_vanish"] = all(r["level_matches"] and r["all_polynomials_vanish"] for r in point_results)

    rng = random.Random(seed)
    control_results = []
    rejected = 0
    while len(control_results) < controls:
        point = tuple(Fraction(rng.randint(-12, 12), rng.choice([1, 2, 3, 4])) for _ in range(3))
        if point in printed_points or any(_on_line(point, pairs) for pairs in line_pairs):
            rejected += 1
            continue
        violated = None
        for t, p in enumerate(computed):
            value = p.evaluate(point)
            if value != 0:
                violated = {"polynomial": t, "value": format_rational(value)}
                break
        control_results.append({
            "weight": [format_rational(c) for c in point],
            "violates": violated,
        })
    subchecks["controls_violate"] = all(r["violates"] is not None for r in control_results)

    verdict = all(subchecks.values())
    return VerificationReport(
        claim="category O classification for the sp_6 top level",
        verdict=verdict,
        parameters={"algebra": "C_3", "m": 3, "n": 1, "level": format_rational(spec.level),
                    "controls": controls, "dim_cap": DIM_CAP},
        witness=None if verdict else {"subchecks": {k: v for k, v in subchecks.items() if not v}},
        seed=seed,
        notes=notes,
        details={
            "module_dimension": module.dimension,
            "zero_weight_dimension": len(zero_basis),
            "polynomials": [repr(p) for p in computed],
            "subchecks": subchecks,
            "lines": line_results,
            "points": point_results,
            "negative_controls": control_results,
            "controls_rejected_on_locus": rejected,
        },
    )
