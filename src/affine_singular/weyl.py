"""The oscillator algebra on l creation/annihilation pairs.

Elements are finite Q-linear combinations of normal-ordered monomials
a^alpha (a*)^beta (creations to the left).  The defining relations are

    [a_i, a_j] = [a*_i, a*_j] = 0,      [a_i, a*_j] = delta_ij,

so a product is normalised pair by pair with the closed formula

    (a*)^b a^c = sum_t (-1)^t C(b,t) C(c,t) t!  a^(c-t) (a*)^(b-t).

Distinct indices commute, so a^a1 (a*)^b1 . a^a2 (a*)^b2 is the t = 0 term
a^(a1+a2) (a*)^(b1+b2) plus contraction terms with t_i >= 1 only at indices
where b1_i and a2_i are both nonzero.  The same routine adds Fraction and
int coefficients alike.

The library multiplies here only for the oscillator image in zhu.
Structure constants never come from a product: liealg reads each bracket
off the two basis labels by Wick's rule.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .scalars import ONE, TermMap, add_term, coerce_rational, power_text

Monomial = tuple[tuple[int, ...], tuple[int, ...]]  # (creation, annihilation) exponents


class WeylElement(TermMap):
    """A normally ordered element of the oscillator algebra."""

    __slots__ = ("nvars",)
    _context = "nvars"

    def __init__(self, nvars: int, terms=None):
        self.terms = {}
        self.nvars = nvars
        for (alpha, beta), c in (terms or {}).items():
            alpha = tuple(int(e) for e in alpha)
            beta = tuple(int(e) for e in beta)
            if len(alpha) != nvars or len(beta) != nvars:
                raise ValueError("monomial has wrong arity")
            if any(e < 0 for e in alpha + beta):
                raise ValueError("negative exponent")
            add_term(self.terms, (alpha, beta), coerce_rational(c))

    @classmethod
    def constant(cls, nvars: int, value) -> "WeylElement":
        zero = (0,) * nvars
        return cls(nvars, {(zero, zero): value})

    def _lift(self, other):
        if isinstance(other, (int, Fraction)):
            return WeylElement.constant(self.nvars, other)
        return super()._lift(other)

    def __mul__(self, other) -> "WeylElement":
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        nvars = self._join(other)
        out: dict[Monomial, Fraction] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                _accumulate_product(a1, b1, a2, b2, c1 * c2, out)
        return WeylElement._wrap(out, nvars)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return self.render(lambda mono: monomial_text(mono) or "1")


def _accumulate_product(a1, b1, a2, b2, coeff, out):
    """Add coeff * a^a1 (a*)^b1 a^a2 (a*)^b2, normally ordered, into out: the
    t = 0 term, then the terms with at least one contraction, at the indices
    where b1_i a2_i != 0."""
    add_term(out, (tuple(map(operator.add, a1, a2)), tuple(map(operator.add, b1, b2))), coeff)
    shared = [i for i, (b, a) in enumerate(zip(b1, a2)) if b and a]
    ranges = [range(min(b1[i], a2[i]) + 1) for i in shared]
    for ts in itertools.islice(itertools.product(*ranges), 1, None):
        c = coeff
        alpha = list(a1)
        beta = list(b1)
        for i, t in zip(shared, ts):
            if t:
                c *= (-1) ** t * math.comb(b1[i], t) * math.comb(a2[i], t) * math.factorial(t)
                alpha[i] -= t
                beta[i] -= t
        alpha = tuple(map(operator.add, alpha, a2))
        beta = tuple(map(operator.add, beta, b2))
        add_term(out, (alpha, beta), c)


def monomial_text(mono: Monomial) -> str:
    """a1..al then a*1..a*l, each as name^e (name alone for e = 1), space-separated."""
    alpha, beta = mono
    names = ["a%d" % i for i in range(1, len(alpha) + 1)]
    return power_text(names + ["a*" + v[1:] for v in names], alpha + beta, " ")


def creation(nvars: int, i: int) -> WeylElement:
    """The generator a_i, 1-based."""
    if not 1 <= i <= nvars:
        raise ValueError("oscillator index out of range")
    alpha = tuple(1 if t == i - 1 else 0 for t in range(nvars))
    return WeylElement(nvars, {(alpha, (0,) * nvars): ONE})


def annihilation(nvars: int, i: int) -> WeylElement:
    """The generator a*_i, 1-based."""
    if not 1 <= i <= nvars:
        raise ValueError("oscillator index out of range")
    beta = tuple(1 if t == i - 1 else 0 for t in range(nvars))
    return WeylElement(nvars, {((0,) * nvars, beta): ONE})
