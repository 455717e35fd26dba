"""The frozen value type, one determinant vector's parameters, rationals as text.

This module imports only fractions, operator and re, so a command that only
reads a cached report can name its input and parse its level without loading
the algebra.  determinants re-exports DeterminantSpec, and scalars re-exports
parse_rational and format_rational.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import attrgetter


def parse_rational(text: str) -> Fraction:
    """Parse "[-]p" or "[-]p/q" text in decimal digits into an exact rational."""
    text = text.strip()
    if not re.fullmatch(r"-?[0-9]+(/[0-9]+)?", text):
        raise ValueError("not a rational p/q: %r" % text)
    return Fraction(text)


def format_rational(value) -> str:
    """Render an exact rational as "p/q", or "p" when the denominator is 1."""
    return str(Fraction(value))


class FrozenValue:
    """An immutable value whose fields are its __slots__, set once by _set.

    It equals only an instance of its own class with equal fields, hashes as
    the tuple of its fields, and pickles and copies through its constructor.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # the field tuple, read in C; attrgetter of one name would give a bare value
        assert len(cls.__slots__) > 1, "a FrozenValue has two fields or more"
        cls._fields = property(attrgetter(*cls.__slots__))

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError("cannot assign to field %r" % name)

    __delattr__ = __setattr__

    def __reduce__(self):
        return self.__class__, self._fields

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self) -> int:
        return hash(self._fields)

    def __repr__(self) -> str:
        pairs = ("%s=%r" % item for item in zip(self.__slots__, self._fields))
        return "%s(%s)" % (self.__class__.__name__, ", ".join(pairs))


class DeterminantSpec(FrozenValue):
    """Size and power of one determinant vector, with its distinguished level."""

    __slots__ = ("kind", "rank", "m", "n")

    def __init__(self, kind: str, rank: int, m: int, n: int):
        if kind not in ("C", "A"):
            raise ValueError("kind must be 'C' or 'A'")
        if rank < 2:
            raise ValueError("rank must be at least 2")
        if n < 1:
            raise ValueError("power must be at least 1")
        if m < 1:
            raise ValueError("size must be at least 1")
        if kind == "C" and m > rank:
            raise ValueError("size %d exceeds rank %d" % (m, rank))
        if kind == "A" and 2 * m > rank:
            raise ValueError("size %d needs 2m <= rank %d" % (m, rank))
        self._set(kind, rank, m, n)

    @property
    def level(self) -> Fraction:
        """The level at which the vector becomes singular."""
        if self.kind == "C":
            return Fraction(self.n) - Fraction(self.m + 1, 2)
        return Fraction(self.n - self.m)

    def table(self):
        """The structure table of the algebra, built on first use."""
        from .liealg import build_algebra

        return build_algebra(self.kind, self.rank)

    def label(self) -> str:
        return "%s%d m=%d n=%d" % (self.kind, self.rank, self.m, self.n)
