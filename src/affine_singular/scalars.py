"""Exact scalar arithmetic: rationals and sparse polynomials over them.

Every coefficient in the package lives in Q, in Q[k] (k the formal level,
kept symbolic so identities can be checked as polynomial statements and
specialised afterwards), or in Q[h_1..h_l] (Cartan coordinates).  Every
linear combination the package builds (these polynomials, vacuum states,
enveloping and oscillator elements) is a TermMap: zero coefficients are
deleted eagerly, so structural equality of term maps is semantic equality.

Rationals are what every public function takes and returns.  The inner
loops that add many products (the differential operators on the vacuum
module, PBW straightening, row reduction, Freudenthal's recursion) run on
Python ints instead: over_common_denominator scales a map of rationals to
integers over one common denominator, the loop adds integers, and each
output term is divided once at the end.
"""

from __future__ import annotations

import math
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


def _format_term(coeff: Fraction, body: str) -> str:
    if not body:
        return format_rational(coeff)
    if coeff == 1:
        return body
    if coeff == -1:
        return "-" + body
    return "%s*%s" % (format_rational(coeff), body)


def _join_terms(parts: list[str]) -> str:
    if not parts:
        return "0"
    text = parts[0]
    for part in parts[1:]:
        if part.startswith("-"):
            text += " - " + part[1:]
        else:
            text += " + " + part
    return text


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
    A subclass may carry one context value (a variable name, a number of
    variables) in the slot named by _context; results of arithmetic carry it
    on.  A subclass keeps to itself its validating __init__ and its product,
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
        if not isinstance(value, UniPoly):
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


class UniPoly(TermMap):
    """Sparse univariate polynomial over Q: terms maps degrees to coefficients.

    The default variable is the formal level k; another name only changes
    the text (classify_sp6 prints its lines in x).  Both operands of an
    arithmetic expression must have the same variable, constants included.
    """

    __slots__ = ("var",)
    _context = "var"

    def __init__(self, terms=None, var: str = "k"):
        self.terms = {}
        self.var = var
        for deg, c in (terms or {}).items():
            c = coerce_rational(c)
            if c:
                if deg < 0:
                    raise ValueError("negative exponent in polynomial")
                self.terms[int(deg)] = c

    @classmethod
    def constant(cls, value, var: str = "k") -> "UniPoly":
        return cls({0: value}, var)

    @classmethod
    def variable(cls, var: str = "k") -> "UniPoly":
        return cls({1: ONE}, var)

    @property
    def degree(self) -> int:
        """Degree, with the convention that the zero polynomial has degree -1."""
        return max(self.terms, default=-1)

    def _lift(self, other):
        if isinstance(other, (int, Fraction)):
            return UniPoly.constant(other, self.var)
        return super()._lift(other)

    def __mul__(self, other) -> "UniPoly":
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        var = self._join(other)
        out: dict[int, Fraction] = {}
        for d1, c1 in self.terms.items():
            for d2, c2 in other.terms.items():
                add_term(out, d1 + d2, c1 * c2)
        return UniPoly._wrap(out, var)

    __rmul__ = __mul__

    def __call__(self, point) -> Fraction:
        point = coerce_rational(point)
        total = ZERO
        for deg, c in self.terms.items():
            total += c * point**deg
        return total

    def __repr__(self) -> str:
        parts = []
        for deg in sorted(self.terms, reverse=True):
            c = self.terms[deg]
            if deg == 0:
                body = ""
            elif deg == 1:
                body = self.var
            else:
                body = "%s^%d" % (self.var, deg)
            parts.append(_format_term(c, body))
        return _join_terms(parts)


class HPoly(TermMap):
    """Sparse polynomial in the Cartan coordinates h_1..h_n over Q."""

    __slots__ = ("nvars",)
    _context = "nvars"

    def __init__(self, nvars: int, terms=None):
        self.terms = {}
        self.nvars = nvars
        for expo, c in (terms or {}).items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != nvars or any(e < 0 for e in expo):
                raise ValueError("bad exponent vector %r" % (expo,))
            add_term(self.terms, expo, coerce_rational(c))

    @classmethod
    def constant(cls, nvars: int, value) -> "HPoly":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def coordinate(cls, nvars: int, i: int) -> "HPoly":
        """The coordinate function h_i, 1-based."""
        if not 1 <= i <= nvars:
            raise ValueError("coordinate index out of range")
        expo = tuple(1 if t == i - 1 else 0 for t in range(nvars))
        return cls(nvars, {expo: ONE})

    def _lift(self, other):
        if isinstance(other, (int, Fraction)):
            return HPoly.constant(self.nvars, other)
        return super()._lift(other)

    def __mul__(self, other) -> "HPoly":
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        nvars = self._join(other)
        out: dict[tuple, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                add_term(out, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
        return HPoly._wrap(out, nvars)

    __rmul__ = __mul__

    def evaluate(self, point) -> Fraction:
        """The value at a rational point y / q, summed in ints as q^D times
        the value (D the total degree) with the coefficients over their
        common denominator, and divided once."""
        ys, q = over_common_denominator(dict(enumerate(map(coerce_rational, point))))
        if len(ys) != self.nvars:
            raise ValueError("point has wrong length")
        ints, den = over_common_denominator(self.terms)
        top = max(map(sum, ints), default=0)
        total = sum(c * math.prod(map(pow, ys.values(), expo)) * q ** (top - sum(expo))
                    for expo, c in ints.items())
        return Fraction(total, den * q**top)

    def __repr__(self) -> str:
        parts = []
        for expo in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            pieces = []
            for t, e in enumerate(expo):
                if e == 1:
                    pieces.append("h%d" % (t + 1))
                elif e > 1:
                    pieces.append("h%d^%d" % (t + 1, e))
            parts.append(_format_term(self.terms[expo], "*".join(pieces)))
        return _join_terms(parts)
