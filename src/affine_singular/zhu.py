"""Projection of the vacuum module onto the universal enveloping algebra.

Degree-zero machinery: the vacuum module at a numeric level maps onto U(g)
by dropping modes with an alternating sign and reversing the factors,

    x_1(-i_1 - 1) ... x_r(-i_r - 1) |0>  ->  (-1)^(i_1 + ... + i_r) x_r ... x_1,

and U(g) itself maps into the oscillator algebra by multiplying out the
quadratic realizations of the basis.  Enveloping elements are kept in PBW
normal form for the block order

    negative root vectors < Cartan elements < positive root vectors,

so a monomial acting on a highest weight vector dies as soon as it contains
a positive factor.  The determinant vector projects onto the power of the
plain finite determinant, the generator identity of Zhu's algebra, which
verify_zhu_generator certifies on the m x m matrix Y of entries.  det^n|0>
is P(Y(-1))|0> with P = det^n, int coefficients and every letter at mode -1,
so the projection keeps each coefficient and reverses each word
(Frenkel-Zhu, Duke Math. J. 66 (1992), section 3; Zhu, J. AMS 9 (1996)).
When the entries pairwise commute (table.commute), reversal and PBW sorting
agree, and the image is P(Y) with sorted words: det^n in U(g).  On det^n,
zhu_project is the tests' oracle for this certificate.

uenv_mul, ad_action and zhu_project straighten every word they make with
_uenv_reduce, which reads the table's rows of nonzero brackets; a word of
commuting letters is only swapped into sorted order.

Elements carry Fraction coefficients, but uenv_mul, ad_action and
zhu_project add Python ints: their inputs are scaled to one common
denominator, the table's brackets are ints (see liealg), and each output
coefficient is divided once at the end, with Fraction(c, den).  The
adjoint closure in category_o runs on _ad_ints, the {word: int} core of
ad_action, and makes each element's Fractions once.

The realization extends to an algebra homomorphism U(g) -> Weyl, because
it respects every bracket of the table (build_algebra reads each bracket
off the two labels by Wick's rule, the commutator of their quadratics).  So
the image of det^n is the n-th power of the image of det, and the
oscillator check never builds the PBW power.

The oscillator check decides on the m x m matrix of images R_ij =
phi(Y_ij), with no det expansion.  Suppose each R_ij is a single monomial
and no two of them contract: no index carries an a* in one entry's
monomial and an a in another's (or the same).  Then the images, and all
their products, commute and multiply by adding exponents, so phi(det) =
det(R) in that commutative ring.  If moreover every 2 x 2 minor R_ij R_kl
- R_il R_kj vanishes, Laplace expansion along the first two rows writes
det(R) as a sum of such minors times complementary minors, so phi(det) = 0
and phi(det^n) = 0 for every n.  The entries of both kinds pass (R_ij =
a_i a_j on kind C, a_i a*_(l-j+1) on kind A: an outer product).  For m = 1 the minor test is empty, and the
image of det^n = Y_11^n is c^n a^(n alpha) (a*)^(n beta) when R_11 is
c a^alpha (a*)^beta: the power of one monomial that does not contract with
itself.  When the certificate does not apply, the check raises
RuntimeError ("no certificate applies"), an exit 2 on the command line; no
accepted spec reaches that branch.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction

from . import weyl
from .determinants import DeterminantSpec, build_matrix, det_entry_poly
from .liealg import StructureTable
from .report import VerificationReport, timed
from .scalars import ONE, TermMap, add_term, coerce_rational, format_rational, over_common_denominator
from .vacuum import VacuumState

Word = tuple  # tuple of basis indices


class UEnvElement(TermMap):
    """An element of U(g) as a Q-combination of PBW-ordered words."""

    __slots__ = ()

    def __init__(self, terms=None):
        self.terms = {}
        for word, c in (terms or {}).items():
            add_term(self.terms, tuple(int(x) for x in word), coerce_rational(c))

    @classmethod
    def one(cls) -> "UEnvElement":
        return cls({(): ONE})

    def text(self, table: StructureTable) -> str:
        return self.render(lambda word: " ".join(map(table.text, word)) or "1")

    def __repr__(self) -> str:
        return "UEnvElement(%d terms)" % len(self.terms)


def _uenv_reduce(rows, work: list) -> dict:
    """The sum of the (int coefficient, word) pairs of work, straightened
    into PBW order, as {word: int} (zero sums kept); work is used up.

    rows are the table's rows {y: [x, y]} of nonzero brackets.  Their
    constants are ints, so a bracket step stays in the integers and needs
    no division.
    """
    out: dict[Word, int] = {}
    while work:
        c, w = work.pop()
        for i in range(len(w) - 1):
            if w[i] > w[i + 1]:
                break
        else:
            out[w] = out.get(w, 0) + c
            continue
        x, y = w[i], w[i + 1]
        head, tail = w[:i], w[i + 2:]
        work.append((c, head + (y, x) + tail))
        for z, cz in rows[x].get(y, ()):
            work.append((c * cz, head + (z,) + tail))
    return out


def _fractions(acc: dict, den: int) -> UEnvElement:
    """The element with coefficients acc[word] / den, zeros dropped; equal
    coefficients share one Fraction."""
    made: dict[int, Fraction] = {}
    return UEnvElement._wrap({word: made.get(c) or made.setdefault(c, Fraction(c, den))
                              for word, c in acc.items() if c})


def uenv_mul(table: StructureTable, u: UEnvElement, v: UEnvElement) -> UEnvElement:
    us, u_den = over_common_denominator(u.terms)
    vs, v_den = over_common_denominator(v.terms)
    products = [(c1 * c2, w1 + w2) for w1, c1 in us.items() for w2, c2 in vs.items()]
    return _fractions(_uenv_reduce(table.rows, products), u_den * v_den)


def uenv_pow(table: StructureTable, u: UEnvElement, n: int) -> UEnvElement:
    out = UEnvElement.one()
    for _ in range(n):
        out = uenv_mul(table, out, u)
    return out


def ad_action(table: StructureTable, g, u: UEnvElement) -> UEnvElement:
    """The adjoint action of a basis element, as a derivation on words."""
    us, u_den = over_common_denominator(u.terms)
    return _fractions(_ad_ints(table, table.idx(g), us), u_den)


def _ad_ints(table: StructureTable, g: int, us: dict) -> dict:
    """ad(g) on an int map {word: c}, as an int map with no zero entries."""
    row = table.rows[g]
    terms = [(c * cz, word[:t] + (z,) + word[t + 1:])
             for word, c in us.items() for t, x in enumerate(word) for z, cz in row.get(x, ())]
    return {word: c for word, c in _uenv_reduce(table.rows, terms).items() if c}


def zhu_project(table: StructureTable, state: VacuumState) -> UEnvElement:
    """Drop modes with the alternating sign and reverse each monomial.

    The coefficients must be numeric: specialise the level first.
    """
    values = {}  # position in state.terms -> constant coefficient
    for pos, c in enumerate(state.terms.values()):
        if len(c.terms) != 1 or (0,) not in c.terms:
            raise ValueError("projection needs a numeric level; specialize the state first")
        values[pos] = c.terms[0,]
    scaled, scale = over_common_denominator(values)
    # the sign (-1)^sum(-n - 1) has the parity of len(mono) + sum(n)
    products = [(-c if (len(mono) + sum(n for n, _ in mono)) & 1 else c, tuple(x for _, x in reversed(mono)))
                for mono, c in zip(state.terms, scaled.values())]
    return _fractions(_uenv_reduce(table.rows, products), scale)


def finite_determinant(table: StructureTable, spec: DeterminantSpec) -> UEnvElement:
    """The plain determinant of the entry matrix inside U(g); the sorted
    words of its entry polynomial are PBW words."""
    return UEnvElement._wrap({word: Fraction(c) for word, c in det_entry_poly(table, spec).items()})


def weyl_image(table: StructureTable, u: UEnvElement) -> weyl.WeylElement:
    """Multiplicative extension of the quadratic realization to U(g): the sum
    over the words of u of their coefficients times the products of their
    letters' realizations."""
    total = weyl.WeylElement(table.rank)
    for word, c in u.terms.items():
        piece = weyl.WeylElement.constant(table.rank, c)
        for x in word:
            piece = piece * table.realizations[x]
        total = total + piece
    return total


@timed
def verify_zhu_generator(spec: DeterminantSpec) -> VerificationReport:
    """The determinant vector at its distinguished level projects onto the
    n-th power of the finite determinant.

    Certified on the entry matrix, for every n (see the module docstring):
    the check passes when the entries pairwise commute, and otherwise fails
    with the first two entries, in row-major order, whose bracket is nonzero.
    """
    table = spec.table()
    letters = [y for row in build_matrix(table, spec) for y in row]
    witness = None
    if not table.commute(letters):
        x, y = next((x, y) for x, y in itertools.combinations(letters, 2) if y in table.rows[x])
        witness = {"entries": "%s, %s" % (table.text(x), table.text(y)),
                   "bracket": UEnvElement({(z,): c for z, c in table.rows[x][y]}).text(table)}
    return VerificationReport(
        claim="projection sends det vector to det power: %s" % spec.label(),
        verdict=witness is None,
        parameters={
            "algebra": "%s_%d" % (spec.kind, spec.rank),
            "m": spec.m, "n": spec.n,
            "level": format_rational(spec.level),
        },
        witness=witness,
    )


def _images_have_rank_one(table: StructureTable, spec: DeterminantSpec) -> bool:
    """True when the entries' images are single monomials, no two contract,
    and every 2 x 2 minor of their matrix vanishes; then phi(det) = 0 for
    m >= 2, and for m = 1 the image is one monomial that does not contract
    with itself (see the module docstring).

    The minors are checked in O(m^2) products, R_ij R_11 = R_i1 R_1j for
    every i and j.  That is exact: the images multiply as monomials with
    nonzero coefficients, in a ring with no zero divisors, so R_11 cancels,
    R_ij = R_i1 R_1j / R_11, and then every minor R_ij R_kl - R_il R_kj is
    (R_i1 R_1j R_k1 R_1l - R_i1 R_1l R_k1 R_1j) / R_11^2 = 0.
    """
    image = []  # rows of ((alpha, beta), c): c a^alpha (a*)^beta
    for row in build_matrix(table, spec):
        terms = [table.realizations[y].terms for y in row]
        if any(len(t) != 1 for t in terms):
            return False
        image.append([next(iter(t.items())) for t in terms])
    a_indices = {i for row in image for (alpha, _), _ in row for i, e in enumerate(alpha) if e}
    a_star_indices = {i for row in image for (_, beta), _ in row for i, e in enumerate(beta) if e}
    if not a_indices.isdisjoint(a_star_indices):
        return False

    def product(i, j, k, l):
        (a1, b1), c1 = image[i][j]
        (a2, b2), c2 = image[k][l]
        return c1 * c2, tuple(map(operator.add, a1, a2)), tuple(map(operator.add, b1, b2))

    return all(product(i, j, 0, 0) == product(i, 0, 0, j) for i in range(1, spec.m) for j in range(1, spec.m))


@timed
def verify_weyl_vanishing(spec: DeterminantSpec) -> VerificationReport:
    """The oscillator image of the finite determinant power; zero once m >= 2.

    Decided on the matrix of the entries' images by _images_have_rank_one:
    for m >= 2 the image is zero, and for m = 1 it is the n-th power of the
    single monomial R_11.  Raises RuntimeError when the certificate does
    not apply.
    """
    table = spec.table()
    if not _images_have_rank_one(table, spec):
        raise RuntimeError("no certificate applies: the oscillator images of the entries of %s are not "
                           "a rank-one matrix of monomials that do not contract" % spec.label())
    details = None
    if spec.m == 1:  # R_11^n = c^n a^(n alpha) (a*)^(n beta)
        ((alpha, beta), c), = table.realizations[build_matrix(table, spec)[0][0]].terms.items()
        power = tuple(spec.n * e for e in alpha), tuple(spec.n * e for e in beta)
        details = {"image": repr(weyl.WeylElement._wrap({power: c ** spec.n}, table.rank))}
    return VerificationReport(
        claim="oscillator image of det power %s: %s" % ("survives" if details else "vanishes", spec.label()),
        verdict=True,
        parameters={"algebra": "%s_%d" % (spec.kind, spec.rank), "m": spec.m, "n": spec.n},
        details=details,
    )
