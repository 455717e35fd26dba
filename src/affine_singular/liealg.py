"""Symplectic and special linear Lie algebras realised inside the oscillator algebra.

Kind "C" is sp_2l: the span of all normal-ordered quadratics on l oscillator
pairs.  Kind "A" is the sl_l subalgebra spanned by the mixed quadratics
a_i a*_j (i != j) and the traceless Cartan differences.  Root vectors carry
the labels

    X[ei+ej] = :a_i a_j:    X[-ei-ej] = :a*_i a*_j:    X[ei-ej] = :a_i a*_j:

and the Cartan elements are h_i = -:a_i a*_i: (differences h_i - h_(i+1)
for kind "A").  For letters u and v, :uv: = (uv + vu)/2 is the normally
ordered monomial uv less [u, v]/2, so only :a_i a*_i: = a_i a*_i - 1/2 has
a constant; each realization is read off its label this way.

No structure constant is entered by hand.  A bracket follows from the
letters of the two labels (_letters) by Wick's rule, as the commutator of
two letters is a scalar:

    [:pq:, :rs:] = [p,r] :qs: + [p,s] :qr: + [q,r] :ps: + [q,s] :pr:,

with no constant left over.  Each :uv: it gives is one root vector, or
:a_i a*_i: = -h_i.  On kind "A" the h_i are not basis elements, but a
bracket is traceless, so the sum of c_i :a_i a*_i: it gives is the sum over
t < l of -(c_1 + ... + c_t)(h_t - h_(t+1)), the prefix sums of the c_i.  So a
bracket is computed only for the pairs where a letter of one meets its
partner (a_i with a*_i) in the other (828 of the 3,003 pairs of C_6), and
every other bracket is exactly zero.  The table stores only the nonzero
brackets, one row {y: [x, y]} per x; bracket gives () for any other pair.
A row is filled on its first read, and a row y filled before row x gives
[x, y] = -[y, x], so each bracket is computed at most once and a check pays
only for the rows it reads.

The invariant form is read off the letters the same way, as the double
contraction of the two labels' quadratics:

    (:pq:, :rs:) = -h ([p,r][q,s] + [p,s][q,r]),    h = 2 on "C", 1 on "A".

On the letter span, ad :pq: sends u to p[q,u] + [p,u]q, so the trace of
ad :pq: ad :rs: there is -2([p,r][q,s] + [p,s][q,r]).  That span is the
natural module of sp_2l, and two copies (W + W*) of that of sl_l, hence
h = 1 on "A": (x, y) is the natural module's trace form (Kac, Infinite
Dimensional Lie Algebras, ch. 6), with (theta, theta) = 2 as the affine
central terms need.  Only pairs of opposite weight contract, so only a
root vector with its negative, and Cartan with Cartan, are paired.  The
form is stored like the brackets, one row {y: (x, y)} per x, filled on
its first read from the letters alone, with no bracket row read.

Every structure constant, form entry and weight coordinate is an integer in
this basis, as in a Chevalley basis, and the table holds them as ints.
Divide one with Fraction(c, d), never c / d, which gives a float.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property, lru_cache

from . import weyl
from .scalars import ONE, ZERO, Poly, add_term
from .spec import FrozenValue

Weight = tuple

# build_algebra refuses larger algebras, since a full read of a table (alg
# info, or a walk over every pair) fills all dim rows and computes every
# contracting bracket (C18 has dimension 666 and A26 has 675)
MAX_DIMENSION = 700


class BasisElement(FrozenValue):
    """A label for one basis vector: a root vector or a Cartan element.

    kind "plus" is X[ei+ej] (i <= j, with i == j giving X[2ei]), "minus" is
    its opposite, "mixed" is X[ei-ej] (i != j), and "cartan" is the i-th
    Cartan basis element.  A FrozenValue on (kind, i, j).
    """

    __slots__ = ("kind", "i", "j")

    def __init__(self, kind: str, i: int, j: int = 0):
        self._set(kind, i, j)

    def text(self, algebra_kind: str = "C") -> str:
        if self.kind == "cartan":
            if algebra_kind == "A":
                return "h%d-h%d" % (self.i, self.i + 1)
            return "h%d" % self.i
        if self.kind == "plus":
            if self.i == self.j:
                return "X[2e%d]" % self.i
            return "X[e%d+e%d]" % (self.i, self.j)
        if self.kind == "minus":
            if self.i == self.j:
                return "X[-2e%d]" % self.i
            return "X[-e%d-e%d]" % (self.i, self.j)
        return "X[e%d-e%d]" % (self.i, self.j)


# compiled by re on first use, not at import
_ELEMENT_PATTERNS = [
    (r"^X\[2e(\d+)\]$", lambda m: BasisElement("plus", int(m.group(1)), int(m.group(1)))),
    (r"^X\[-2e(\d+)\]$", lambda m: BasisElement("minus", int(m.group(1)), int(m.group(1)))),
    (r"^X\[e(\d+)\+e(\d+)\]$", lambda m: BasisElement("plus", *sorted((int(m.group(1)), int(m.group(2)))))),
    (r"^X\[-e(\d+)-e(\d+)\]$", lambda m: BasisElement("minus", *sorted((int(m.group(1)), int(m.group(2)))))),
    (r"^X\[e(\d+)-e(\d+)\]$", lambda m: BasisElement("mixed", int(m.group(1)), int(m.group(2)))),
    (r"^h(\d+)-h(\d+)$", lambda m: BasisElement("cartan", int(m.group(1)))),
    (r"^h(\d+)$", lambda m: BasisElement("cartan", int(m.group(1)))),
]


def parse_element(text: str) -> BasisElement:
    text = text.strip()
    for pattern, make in _ELEMENT_PATTERNS:
        m = re.match(pattern, text)
        if m:
            return make(m)
    raise ValueError("cannot parse basis element %r" % text)


def element_weight(elem: BasisElement, rank: int) -> Weight:
    w = [0] * rank
    if elem.kind == "plus":
        w[elem.i - 1] += 1
        w[elem.j - 1] += 1
    elif elem.kind == "minus":
        w[elem.i - 1] -= 1
        w[elem.j - 1] -= 1
    elif elem.kind == "mixed":
        w[elem.i - 1] += 1
        w[elem.j - 1] -= 1
    return tuple(w)


class StructureTable:
    """Bracket/form/weight data for one algebra; a filled row never changes.

    Basis order is negative root vectors, then Cartan elements, then positive
    root vectors (each block in a fixed deterministic order); this is also the
    tie-break order used by the straightening routines.
    """

    def __init__(self, kind, rank, basis, weights, rows, form, blocks):
        self.kind = kind
        self.rank = rank
        self.basis = tuple(basis)
        self.weights = tuple(weights)
        self._index = {elem: n for n, elem in enumerate(self.basis)}
        # rows[x] = {y: [x, y]} and _form[x] = {y: (x, y)}, nonzero entries
        # only, indexed by basis index (build_algebra fills each on first read)
        self.rows = rows
        self._form = form
        self.blocks = tuple(blocks)
        self.dimension = len(self.basis)
        self.cartan_indices = tuple(n for n, e in enumerate(self.basis) if e.kind == "cartan")
        self._chevalley()

    @cached_property
    def realizations(self) -> tuple:
        """Each basis element's WeylElement, read off its label on first
        read; only the oscillator image and alg info read them."""
        return tuple(_realize(self.kind, self.rank, e) for e in self.basis)

    # -- lookup ---------------------------------------------------------

    def idx(self, spec) -> int:
        """Resolve a basis index from an index, a BasisElement or its text form.

        A Cartan label must be this table's: hI on kind "C", hI-h(I+1) on
        kind "A".
        """
        if isinstance(spec, int):
            if not 0 <= spec < self.dimension:
                raise ValueError("basis index out of range")
            return spec
        if isinstance(spec, str):
            text = spec.strip()
            spec = parse_element(text)
            if spec.kind == "cartan" and spec.text(self.kind) != text:
                raise ValueError("%s is not a Cartan label of %s_%d" % (text, self.kind, self.rank))
        try:
            return self._index[spec]
        except KeyError:
            raise ValueError("%s is not a basis element of %s_%d" % (spec, self.kind, self.rank)) from None

    def text(self, n: int) -> str:
        return self.basis[n].text(self.kind)

    # -- structure ------------------------------------------------------

    def bracket(self, x, y):
        """[x, y] as a tuple of (basis index, int coefficient) pairs; () when zero."""
        return self.rows[self.idx(x)].get(self.idx(y), ())

    def form(self, x, y) -> int:
        """The invariant form (x, y), an int; divide it with Fraction(c, d)."""
        return self._form[self.idx(x)].get(self.idx(y), 0)

    def nonzero_brackets(self):
        """(x, y, [x, y]) for each x < y in basis order with [x, y] != 0."""
        for x in range(self.dimension):
            row = self.rows[x]
            for y in sorted(y for y in row if y > x):
                yield x, y, row[y]

    def nonzero_form(self):
        """(x, y, (x, y)) for each x <= y in basis order with (x, y) != 0."""
        for x in range(self.dimension):
            row = self._form[x]
            for y in sorted(y for y in row if y >= x):
                yield x, y, row[y]

    def commute(self, letters) -> bool:
        """True when the given basis indices pairwise commute: no letter's
        row of nonzero brackets names another."""
        letters = set(letters)
        return all(self.rows[a].keys().isdisjoint(letters) for a in letters)

    def _chevalley(self):
        rank = self.rank
        if self.kind == "C":
            raising = [BasisElement("mixed", i, i + 1) for i in range(1, rank)] + [BasisElement("plus", rank, rank)]
            lowering = [BasisElement("mixed", i + 1, i) for i in range(1, rank)] + [BasisElement("minus", rank, rank)]
            self.theta_raising = self.idx(BasisElement("plus", 1, 1))
            self.theta_lowering = self.idx(BasisElement("minus", 1, 1))
        else:
            raising = [BasisElement("mixed", i, i + 1) for i in range(1, rank)]
            lowering = [BasisElement("mixed", i + 1, i) for i in range(1, rank)]
            self.theta_raising = self.idx(BasisElement("mixed", 1, rank))
            self.theta_lowering = self.idx(BasisElement("mixed", rank, 1))
        self.simple_raising = tuple(self.idx(e) for e in raising)
        self.simple_lowering = tuple(self.idx(e) for e in lowering)
        self.simple_roots = tuple(self.weights[n] for n in self.simple_raising)
        self.theta = self.weights[self.theta_raising]
        self.positive_root_weights = tuple(
            self.weights[n] for n, block in enumerate(self.blocks) if block == "raise"
        )

    def fundamental_weight(self, m: int) -> Weight:
        if self.kind == "C":
            if not 1 <= m <= self.rank:
                raise ValueError("fundamental weight index out of range")
            return tuple(ONE if t < m else ZERO for t in range(self.rank))
        if not 1 <= m <= self.rank - 1:
            raise ValueError("fundamental weight index out of range")
        shift = Fraction(m, self.rank)
        return tuple((ONE if t < m else ZERO) - shift for t in range(self.rank))

    def rho(self) -> Weight:
        """Half the sum of the positive roots."""
        return tuple(Fraction(sum(column), 2) for column in zip(*self.positive_root_weights))

    def cartan_hpoly(self, spec) -> Poly:
        """A Cartan basis element as a polynomial in the coordinates h_1..h_l."""
        elem = self.basis[self.idx(spec)]
        if elem.kind != "cartan":
            raise ValueError("not a Cartan element")
        names = tuple("h%d" % t for t in range(1, self.rank + 1))
        if self.kind == "C":
            return Poly.variable(names, elem.i - 1)
        return Poly.variable(names, elem.i - 1) - Poly.variable(names, elem.i)

    # -- reporting ------------------------------------------------------

    def info_lines(self):
        yield "algebra %s_%d  dimension %d" % (self.kind, self.rank, self.dimension)
        yield "basis (negative block, Cartan block, positive block):"
        for n, elem in enumerate(self.basis):
            yield "  %2d  %-12s weight %s  realization %s" % (
                n, self.text(n), self.weights[n], self.realizations[n])
        yield "brackets (nonzero, upper triangle):"
        for a, b, terms in self.nonzero_brackets():
            body = " + ".join(
                "(%s) %s" % (c, self.text(z)) if c != 1 else self.text(z) for z, c in terms)
            yield "  [%s, %s] = %s" % (self.text(a), self.text(b), body)
        yield "invariant form (nonzero pairs):"
        for a, b, value in self.nonzero_form():
            yield "  (%s, %s) = %s" % (self.text(a), self.text(b), value)


def _letters(kind: str, elem: BasisElement) -> list:
    """elem as [(c, u, v)], the sum of c :uv: over its quadratics, with the
    letter (0, i) for a_i and (1, i) for a*_i, u <= v."""
    if elem.kind == "plus":
        return [(1, (0, elem.i), (0, elem.j))]
    if elem.kind == "minus":
        return [(1, (1, elem.i), (1, elem.j))]
    if elem.kind == "mixed":
        return [(1, (0, elem.i), (1, elem.j))]
    h = [(-1, (0, elem.i), (1, elem.i))]
    return h if kind == "C" else h + [(1, (0, elem.i + 1), (1, elem.i + 1))]


def _wick(xs, ys) -> dict:
    """[x, y] as {(u, v): int} over the quadratics :uv: (u <= v), for x and y
    given by their letters, by Wick's rule (see the module docstring); the
    letters u and v contract to [u, v] = v[0] - u[0] when both index i."""
    out = {}
    for c, p, q in xs:
        for d, r, s in ys:
            for u, v, w, z in ((p, r, q, s), (p, s, q, r), (q, r, p, s), (q, s, p, r)):
                if u[1] == v[1] and u[0] != v[0]:
                    add_term(out, (w, z) if w <= z else (z, w), c * d * (v[0] - u[0]))
    return out


def _contract(kind: str, xs, ys) -> int:
    """(x, y) for x and y given by their letters, by the double contraction
    of the module docstring, with [u, v] as in _wick."""
    total = 0
    for c, p, q in xs:
        for d, r, s in ys:
            for u, v, w, z in ((p, r, q, s), (p, s, q, r)):
                if u[1] == v[1] and w[1] == z[1]:
                    total -= c * d * (v[0] - u[0]) * (z[0] - w[0])
    return 2 * total if kind == "C" else total


def _realize(kind: str, rank: int, elem: BasisElement) -> weyl.WeylElement:
    """The realization of one basis element, read off its letters with
    Fraction coefficients: :uv: is the bare monomial uv, less 1/2 when
    u = a_i and v = a*_i, as [a_i, a*_i] = 1."""
    zero = (0,) * rank
    terms = {}
    for c, u, v in _letters(kind, elem):
        exponents = ([0] * rank, [0] * rank)
        for k, i in (u, v):
            exponents[k][i - 1] += 1
        add_term(terms, tuple(map(tuple, exponents)), Fraction(c))
        if u[0] < v[0] and u[1] == v[1]:
            add_term(terms, (zero, zero), Fraction(-c, 2))
    return weyl.WeylElement._wrap(terms, rank)


class _FilledOnRead(dict):
    """{x: fill(x)} for the basis indices 0 <= x < size, each row made on its
    first read; a read of a filled row is a plain dict lookup."""

    __slots__ = ("_size", "_fill")

    def __init__(self, size, fill):
        super().__init__()
        self._size = size
        self._fill = fill

    def __missing__(self, x):
        if not 0 <= x < self._size:
            raise KeyError(x)
        row = self[x] = self._fill(x)
        return row


@lru_cache(maxsize=None)
def build_algebra(kind: str, rank: int) -> StructureTable:
    """The structure table for sp_2l (kind "C") or sl_l (kind "A").

    Only the basis, the letters and two maps read off the letters are built
    here, in O(dim) with no oscillator arithmetic.  Each bracket row and
    form row is filled on its first read, and the realizations on theirs.
    A bracket is Wick's rule on the two labels' letters (_wick), each
    quadratic read off as ints in the basis, so no bracket can leave the
    span; a form entry is their double contraction (_contract).
    """
    if kind not in ("C", "A"):
        raise ValueError("kind must be 'C' or 'A'")
    if rank < 2:
        raise ValueError("rank must be at least 2")
    expected = rank * (2 * rank + 1) if kind == "C" else rank * rank - 1
    if expected > MAX_DIMENSION:
        raise ValueError("%s_%d has dimension %d, above the limit of %d basis elements"
                         % (kind, rank, expected, MAX_DIMENSION))

    if kind == "C":
        lower = [BasisElement("minus", i, j) for i in range(1, rank + 1) for j in range(i, rank + 1)]
        lower += [BasisElement("mixed", i, j) for i in range(1, rank + 1) for j in range(1, rank + 1) if i > j]
        upper = [BasisElement("plus", i, j) for i in range(1, rank + 1) for j in range(i, rank + 1)]
        upper += [BasisElement("mixed", i, j) for i in range(1, rank + 1) for j in range(1, rank + 1) if i < j]
        cartan_count = rank
    else:
        lower = [BasisElement("mixed", i, j) for i in range(1, rank + 1) for j in range(1, rank + 1) if i > j]
        upper = [BasisElement("mixed", i, j) for i in range(1, rank + 1) for j in range(1, rank + 1) if i < j]
        cartan_count = rank - 1

    cartans = [BasisElement("cartan", i) for i in range(1, cartan_count + 1)]
    weight = {e: element_weight(e, rank) for e in lower + cartans + upper}
    lower.sort(key=weight.__getitem__)
    upper.sort(key=weight.__getitem__)
    basis = lower + cartans + upper
    blocks = ["lower"] * len(lower) + ["cartan"] * len(cartans) + ["raise"] * len(upper)
    if len(basis) != expected:
        raise AssertionError("basis size %d != %d" % (len(basis), expected))

    dim = len(basis)
    letters = [_letters(kind, e) for e in basis]
    cartan_indices = [n for n in range(dim) if basis[n].kind == "cartan"]
    # each quadratic :uv: in the basis: a root vector, or :a_i a*_i: = -h_i,
    # on kind "A" -(h_i - h_l), whose sum over a traceless bracket gives the
    # prefix sums of the module docstring
    expansion = {(u, v): ((n, 1),) for n in range(dim) if basis[n].kind != "cartan"
                 for _, u, v in letters[n]}
    for i in range(1, rank + 1):
        diagonal = cartan_indices[i - 1:i] if kind == "C" else cartan_indices[i - 1:]
        expansion[(0, i), (1, i)] = tuple((n, -1) for n in diagonal)
    # the basis elements holding each letter: a pair can contract only where
    # a letter of one meets its partner, (0, i) with (1, i), in the other
    holders = {}
    for n, terms in enumerate(letters):
        for _, u, v in terms:
            holders.setdefault(u, set()).add(n)
            holders.setdefault(v, set()).add(n)

    def bracket_row(x):
        """{y: [x, y]} over the y with [x, y] != 0, ascending; a filled row y
        gives [x, y] = -[y, x], so a bracket is computed once per pair."""
        partners = set().union(*(holders.get((1 - k, i), ()) for _, u, v in letters[x] for k, i in (u, v)))
        partners.discard(x)
        row = {}
        for y in sorted(partners):
            filled = rows.get(y)
            if filled is None:
                coeffs = {}
                for uv, c in _wick(letters[x], letters[y]).items():
                    for z, e in expansion[uv]:
                        add_term(coeffs, z, c * e)
                terms = tuple(sorted(coeffs.items()))
            else:
                terms = tuple((z, -q) for z, q in filled.get(x, ()))
            if terms:
                row[y] = terms
        return row

    def form_row(x):
        """{y: (x, y)} over the y with (x, y) != 0: both root blocks are
        sorted by weight, so the root vector of weight -w(x) is the one at
        dim - 1 - x, and Cartans pair with Cartans."""
        partners = cartan_indices if basis[x].kind == "cartan" else (dim - 1 - x,)
        values = ((y, _contract(kind, letters[x], letters[y])) for y in partners)
        return {y: value for y, value in values if value}

    rows = _FilledOnRead(dim, bracket_row)
    form = _FilledOnRead(dim, form_row)
    return StructureTable(kind, rank, basis, [weight[e] for e in basis], rows, form, blocks)
