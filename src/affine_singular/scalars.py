"""Exact scalar arithmetic: rationals and sparse polynomials over them.

Every coefficient in the package lives in Q, in Q[k] (k the formal level,
kept symbolic so identities can be checked as polynomial statements and
specialised afterwards), or in Q[h_1..h_l] (Cartan coordinates); both
polynomial rings are Poly, told apart by their variable names.  Every
linear combination the package builds (these polynomials, vacuum states,
enveloping and oscillator elements) is a TermMap: zero coefficients are
deleted eagerly, so structural equality of term maps is semantic equality.

Rationals are what every public function takes and returns.  The inner
loops that add many products (PBW straightening, the adjoint action and
the projection onto U(g), row reduction, Freudenthal's recursion, the
evaluation of a Poly) run on Python ints instead: over_common_denominator
scales a map of rationals to integers over one common denominator, the
loop adds integers, and each output term is divided once at the end.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .spec import format_rational, parse_rational  # re-exported

ZERO = Fraction(0)
ONE = Fraction(1)


def coerce_rational(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError("expected an exact rational or integer, got %r" % (value,))


def over_common_denominator(terms: dict) -> tuple[dict, int]:
    """(ints, den) with terms[key] == ints[key] / den for every key, den > 0
    the least common denominator of the values (rationals or ints)."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    if den == 1:
        return {key: c.numerator for key, c in terms.items()}, 1
    return {key: c.numerator * (den // c.denominator) for key, c in terms.items()}, den


def add_term(terms: dict, key, coeff) -> None:
    """terms[key] += coeff, deleting the key when the sum is zero."""
    if key in terms:
        coeff = terms[key] + coeff
        if coeff:
            terms[key] = coeff
        else:
            del terms[key]
    elif coeff:
        terms[key] = coeff


class TermMap:
    """A sparse linear combination: terms maps each key to a nonzero coefficient.

    The coefficients are rationals, or polynomials in k for vacuum states.
    A subclass may carry one context value (the variable names, a number
    of variables) in the slot named by _context; results of arithmetic
    carry it on.  A subclass keeps to itself its validating __init__ and its product,
    and gives render the text of one key.  Arithmetic wraps its results with
    the trusted _wrap, which neither copies nor checks.
    """

    __slots__ = ("terms",)
    _context = ""

    @classmethod
    def _wrap(cls, terms: dict, context=None):
        """Trusted constructor for a dict that already holds nonzero coefficients."""
        out = object.__new__(cls)
        out.terms = terms
        if cls._context:
            setattr(out, cls._context, context)
        return out

    def _own_context(self):
        return getattr(self, self._context) if self._context else None

    def _lift(self, other):
        """other as a term map of this class, or NotImplemented; classes
        with a constant term also lift rationals."""
        return other if type(other) is type(self) else NotImplemented

    def _join(self, other):
        """The context of a result built from self and other."""
        mine, theirs = self._own_context(), other._own_context()
        if mine != theirs:
            raise ValueError("mismatched %s: %r and %r" % (self._context, mine, theirs))
        return mine

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        # nonzero, as for a rational, so add_term and scale take polynomial
        # coefficients too
        return bool(self.terms)

    def _sum(self, other, sign: int):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        context = self._join(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            add_term(terms, key, c if sign > 0 else -c)
        return self._wrap(terms, context)

    def __add__(self, other):
        return self._sum(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return self._wrap({key: -c for key, c in self.terms.items()}, self._own_context())

    def scale(self, value):
        """Every coefficient times value: a rational, or a polynomial in k
        when the coefficients are polynomials in k."""
        if not isinstance(value, Poly):
            value = coerce_rational(value)
        terms = {key: c * value for key, c in self.terms.items()} if value else {}
        return self._wrap(terms, self._own_context())

    def render(self, body) -> str:
        """The terms as "(c) body(key)" in key order, joined by " + "; "0" when empty."""
        return " + ".join("(%s) %s" % (self.terms[key], body(key)) for key in sorted(self.terms)) or "0"

    def __eq__(self, other) -> bool:
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self._own_context() == other._own_context() and self.terms == other.terms

    __hash__ = None


class Poly(TermMap):
    """Sparse polynomial over Q in the variables names: terms maps exponent
    tuples, one exponent per name, to coefficients.

    The names are ("k",) for the formal level, ("h1", .., "hl") for the
    Cartan coordinates, and ("x",) for the parameter of an sp_6 line, which
    only changes the text.  Both operands of an arithmetic expression must
    have the same names, constants included.
    """

    __slots__ = ("names",)
    _context = "names"

    def __init__(self, names, terms=None):
        self.terms = {}
        self.names = names = tuple(names)
        for expo, c in (terms or {}).items():
            expo = tuple(map(int, expo))
            if len(expo) != len(names) or min(expo, default=0) < 0:
                raise ValueError("bad exponent vector %r" % (expo,))
            add_term(self.terms, expo, coerce_rational(c))

    @classmethod
    def constant(cls, names, value) -> "Poly":
        return cls(names, {(0,) * len(names): value})

    @classmethod
    def variable(cls, names, i: int = 0) -> "Poly":
        """The variable names[i], 0-based."""
        if not 0 <= i < len(names):
            raise ValueError("variable index out of range")
        return cls(names, {tuple(int(t == i) for t in range(len(names))): ONE})

    @property
    def degree(self) -> int:
        """Total degree, with the convention that the zero polynomial has degree -1."""
        return max(map(sum, self.terms), default=-1)

    def _lift(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly.constant(self.names, other)
        return super()._lift(other)

    def __mul__(self, other) -> "Poly":
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        names = self._join(other)
        out: dict[tuple, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                add_term(out, tuple(map(operator.add, e1, e2)), c1 * c2)
        return Poly._wrap(out, names)

    __rmul__ = __mul__

    def evaluate(self, point) -> Fraction:
        """The value at a rational point y / q, one coordinate per name,
        summed in ints as q^D times the value (D the total degree) with the
        coefficients over their common denominator, and divided once."""
        ys, q = over_common_denominator(dict(enumerate(map(coerce_rational, point))))
        if len(ys) != len(self.names):
            raise ValueError("point has wrong length")
        ints, den = over_common_denominator(self.terms)
        top = max(self.degree, 0)
        total = sum(c * math.prod(map(pow, ys.values(), expo)) * q ** (top - sum(expo))
                    for expo, c in ints.items())
        return Fraction(total, den * q**top)

    def __repr__(self) -> str:
        """The terms by descending (total degree, exponents), each as c*body,
        body, -body or c, body the product of name^e (name alone for e = 1)."""
        parts = []
        terms = self.terms.items()
        if len(terms) > 1:  # most are one constant, which needs no sort
            terms = sorted(terms, key=lambda t: (sum(t[0]), t[0]), reverse=True)
        for expo, c in terms:
            body = power_text(self.names, expo, "*") if any(expo) else ""
            if not body:
                parts.append(format_rational(c))
            elif c == 1 or c == -1:
                parts.append(body if c == 1 else "-" + body)
            else:
                parts.append("%s*%s" % (format_rational(c), body))
        return " + ".join(parts).replace(" + -", " - ") or "0"


def power_text(names, expo, sep: str) -> str:
    """The product of name^e over the nonzero exponents, joined by sep; a
    bare name for e = 1 and "" when every exponent is zero."""
    return sep.join(v if e == 1 else "%s^%d" % (v, e) for v, e in zip(names, expo) if e)
