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
plain finite determinant, which is the generator identity checked here.

When all the letters of a product or a projected state pairwise commute,
which holds for the determinant entries, their PBW normal form is just the
sorted word, and uenv_mul and zhu_project sort instead of rewriting.  The
check is made once per call on the set of letters; any non-commuting pair
sends the whole call through the general straightening.

The realization extends to an algebra homomorphism U(g) -> Weyl, because
it respects every bracket of the table (build_algebra computes each bracket
in the oscillator algebra).  So the image of det^n is the n-th power of the
image of det, and the oscillator check never builds the PBW power.
"""

from __future__ import annotations

import time
from fractions import Fraction

from . import weyl
from .determinants import DeterminantSpec, det_entry_poly, determinant_vector
from .liealg import StructureTable
from .report import VerificationReport
from .scalars import ONE, TermMap, add_term, coerce_rational, format_rational
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

    @classmethod
    def generator(cls, table: StructureTable, x) -> "UEnvElement":
        return cls({(table.idx(x),): ONE})

    def text(self, table: StructureTable) -> str:
        if not self.terms:
            return "0"
        parts = []
        for word in sorted(self.terms):
            body = " ".join(table.text(x) for x in word) or "1"
            parts.append("(%s) %s" % (format_rational(self.terms[word]), body))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return "UEnvElement(%d terms)" % len(self.terms)


def _uenv_reduce(table: StructureTable, coeff: Fraction, word: Word, out: dict):
    """Straighten one word into PBW order, accumulating into out."""
    work = [(coeff, word)]
    while work:
        c, w = work.pop()
        i = None
        for t in range(len(w) - 1):
            if w[t] > w[t + 1]:
                i = t
                break
        if i is None:
            add_term(out, w, c)
            continue
        x, y = w[i], w[i + 1]
        head, tail = w[:i], w[i + 2:]
        work.append((c, head + (y, x) + tail))
        for z, cz in table.bracket(x, y):
            work.append((c * cz, head + (z,) + tail))


def uenv_normal_form(table: StructureTable, word, coeff=1) -> UEnvElement:
    """PBW normal form of an ordered product of basis elements."""
    letters = tuple(table.idx(x) for x in word)
    out: dict[Word, Fraction] = {}
    _uenv_reduce(table, coerce_rational(coeff), letters, out)
    return UEnvElement._wrap(out)


def uenv_mul(table: StructureTable, u: UEnvElement, v: UEnvElement) -> UEnvElement:
    out: dict[Word, Fraction] = {}
    commuting = table.commute({x for word in (*u.terms, *v.terms) for x in word})
    for w1, c1 in u.terms.items():
        for w2, c2 in v.terms.items():
            if commuting:
                add_term(out, tuple(sorted(w1 + w2)), c1 * c2)
            else:
                _uenv_reduce(table, c1 * c2, w1 + w2, out)
    return UEnvElement._wrap(out)


def uenv_pow(table: StructureTable, u: UEnvElement, n: int) -> UEnvElement:
    out = UEnvElement.one()
    for _ in range(n):
        out = uenv_mul(table, out, u)
    return out


def ad_action(table: StructureTable, g, u: UEnvElement) -> UEnvElement:
    """The adjoint action of a basis element, as a derivation on words."""
    gi = table.idx(g)
    out: dict[Word, Fraction] = {}
    for word, c in u.terms.items():
        for t in range(len(word)):
            for z, cz in table.bracket(gi, word[t]):
                _uenv_reduce(table, c * cz, word[:t] + (z,) + word[t + 1:], out)
    return UEnvElement._wrap(out)


def zhu_project(table: StructureTable, state: VacuumState) -> UEnvElement:
    """Drop modes with the alternating sign and reverse each monomial.

    The coefficients must be numeric: specialise the level first.
    """
    out: dict[Word, Fraction] = {}
    commuting = table.commute({x for mono in state.terms for _, x in mono})
    for mono, c in state.terms.items():
        if c.degree > 0:
            raise ValueError("projection needs a numeric level; specialize the state first")
        sign = (-1) ** sum(-n - 1 for n, _ in mono)
        word = tuple(x for _, x in reversed(mono))
        if commuting:
            add_term(out, tuple(sorted(word)), sign * c.constant_value())
        else:
            _uenv_reduce(table, sign * c.constant_value(), word, out)
    return UEnvElement._wrap(out)


def finite_determinant(table: StructureTable, spec: DeterminantSpec) -> UEnvElement:
    """The plain determinant of the entry matrix inside U(g)."""
    return UEnvElement._wrap(det_entry_poly(table, spec))


def weyl_image(table: StructureTable, u: UEnvElement) -> weyl.WeylElement:
    """Multiplicative extension of the quadratic realization to U(g)."""
    total = weyl.WeylElement(table.rank)
    for word, c in u.terms.items():
        piece = weyl.WeylElement.constant(table.rank, c)
        for x in word:
            piece = piece * table.realizations[x]
        total = total + piece
    return total


def verify_zhu_generator(spec: DeterminantSpec) -> VerificationReport:
    """The determinant vector at its distinguished level projects onto the
    n-th power of the finite determinant."""
    start = time.perf_counter()
    table = spec.table()
    state = determinant_vector(table, spec).specialize(spec.level)
    projected = zhu_project(table, state)
    expected = uenv_pow(table, finite_determinant(table, spec), spec.n)
    diff = projected - expected
    witness = None
    if not diff.is_zero:
        witness = {"difference": diff.text(table)}
    ms = int((time.perf_counter() - start) * 1000)
    return VerificationReport(
        claim="projection sends det vector to det power: %s" % spec.label(),
        verdict=witness is None,
        parameters={
            "algebra": "%s_%d" % (spec.kind, spec.rank),
            "m": spec.m, "n": spec.n,
            "level": format_rational(spec.level),
        },
        witness=witness,
        timing_ms=ms,
    )


def verify_weyl_vanishing(spec: DeterminantSpec) -> VerificationReport:
    """The oscillator image of the finite determinant power; zero once m >= 2.

    The image is taken as phi(det)^n in the oscillator algebra, which equals
    phi(det^n) because phi is an algebra homomorphism.
    """
    start = time.perf_counter()
    table = spec.table()
    base = weyl_image(table, finite_determinant(table, spec))
    image = weyl.WeylElement.constant(table.rank, ONE)
    for _ in range(spec.n):
        image = image * base
    expect_zero = spec.m >= 2
    ok = image.is_zero == expect_zero
    witness = None
    if not ok:
        witness = {"image": repr(image)}
    ms = int((time.perf_counter() - start) * 1000)
    report = VerificationReport(
        claim="oscillator image of det power %s: %s" % (
            "vanishes" if expect_zero else "survives", spec.label()),
        verdict=ok,
        parameters={"algebra": "%s_%d" % (spec.kind, spec.rank), "m": spec.m, "n": spec.n},
        witness=witness,
        timing_ms=ms,
    )
    if ok and not expect_zero:
        report.details = {"image": repr(image)}
    return report
