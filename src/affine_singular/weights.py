"""Weight-lattice utilities: the pairing, the Weyl dimension formula, and
Freudenthal's multiplicity recursion.

These rely only on root data, never on enveloping-algebra computations, so
they serve as independent cross-checks for the module-theoretic results.
Weights are tuples of rationals in the epsilon basis at every entry point;
Freudenthal's recursion runs inside on integer coordinates over one common
denominator.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .scalars import ZERO, coerce_rational


def dot(u, v) -> Fraction:
    """Euclidean pairing of weights written in the epsilon basis."""
    return sum((coerce_rational(a) * coerce_rational(b) for a, b in zip(u, v)), ZERO)


def _idot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def _add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _dominant_integral(table, lam) -> tuple:
    """lam as rationals; ValueError unless <lam, alpha^vee> is in N for each simple alpha."""
    lam = tuple(coerce_rational(c) for c in lam)
    for alpha in table.simple_roots:
        pairing = 2 * dot(lam, alpha) / dot(alpha, alpha)
        if pairing.denominator != 1 or pairing < 0:
            raise ValueError("highest weight (%s) is not dominant integral"
                             % ", ".join(map(str, lam)))
    return lam


def weyl_dim(table, lam) -> int:
    """Dimension of the irreducible with dominant integral highest weight lam."""
    lam = _dominant_integral(table, lam)
    rho = table.rho()
    num = Fraction(1)
    for alpha in table.positive_root_weights:
        num *= dot(_add(lam, rho), alpha) / dot(rho, alpha)
    if num.denominator != 1:
        raise ArithmeticError("Weyl dimension came out non-integral: %s" % num)
    return int(num)


def weight_multiplicities(table, lam) -> dict:
    """All weights of the irreducible with highest weight lam, with multiplicities.

    Freudenthal's recursion, processed level by level so the higher weights a
    step needs are always known already.  Correctness of the traversal rests
    on two standard facts: every weight below lam is reachable from lam by
    subtracting one simple root at a time through weights, and the weights on
    an alpha-string through a weight are contiguous, so the string sum can
    stop at the first multiplicity-zero point.

    The recursion runs on integer coordinates: lam, rho and the roots are
    scaled by the lcm of their denominators, which scales both sides of every
    quotient by the same square.  The keys of the result are rational weights
    again, and the multiplicities ints.

    lam must be dominant integral: <lam, alpha^vee> a nonnegative integer for
    every simple root.  Any other lam raises ValueError at once, since the
    recursion would never end or would fail at a weight below lam.
    """
    lam = _dominant_integral(table, lam)
    rho = table.rho()
    positive = table.positive_root_weights
    scale = math.lcm(*(c.denominator for w in (lam, rho, *positive) for c in w))

    def scaled(w):
        return tuple(int(c * scale) for c in w)

    top, rho = scaled(lam), scaled(rho)
    simple = [scaled(alpha) for alpha in table.simple_roots]
    roots = [(alpha, _idot(alpha, alpha)) for alpha in map(scaled, positive)]
    c2 = _idot(_add(top, rho), _add(top, rho))

    mult = {top: 1}
    frontier = [top]
    while frontier:
        candidates = set()
        for mu in frontier:
            for alpha in simple:
                candidates.add(_sub(mu, alpha))
        frontier = []
        for mu in sorted(candidates):
            if mu in mult:
                continue
            total = 0
            for alpha, norm in roots:
                nu = _add(mu, alpha)
                pairing = _idot(nu, alpha)  # (mu + j alpha, alpha), from j = 1
                while True:
                    m_nu = mult.get(nu, 0)
                    if m_nu == 0:
                        break
                    total += 2 * m_nu * pairing
                    nu = _add(nu, alpha)
                    pairing += norm
            denom = c2 - _idot(_add(mu, rho), _add(mu, rho))
            if denom == 0:
                # only Weyl reflections of lam itself pump the denominator to
                # zero and those are never weights below lam
                continue
            value, rest = divmod(total, denom)
            if rest:
                raise ArithmeticError("non-integral multiplicity at %s"
                                      % (tuple(Fraction(c, scale) for c in mu),))
            if value > 0:
                mult[mu] = value
                frontier.append(mu)
    return {tuple(Fraction(c, scale) for c in mu): m for mu, m in mult.items()}


def multiplicity(table, lam, mu) -> int:
    mu = tuple(coerce_rational(c) for c in mu)
    return weight_multiplicities(table, lam).get(mu, 0)
