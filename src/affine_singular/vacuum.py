"""The vacuum module at a symbolic level over an affine Lie algebra.

States are finite sums of ordered monomials

    x_1(n_1) x_2(n_2) ... x_r(n_r) |0>,   n_1 <= n_2 <= ... <= n_r <= -1,

with ties between equal modes broken by the basis order of the structure
table.  Coefficients are polynomials in the formal level k (a Poly in the
one name k, LEVEL), so the central element can act symbolically.  The commutation rule is

    [x(n), y(m)] = [x,y](n+m) + n (x,y) delta_(n+m,0) k,

and any factor of nonnegative mode adjacent to the vacuum kills the term.
Straightening rewrites an arbitrary word to this normal form; it terminates
because a swap lowers the inversion count and every bracket or central
correction shortens the word.

The determinant checks act on no state: they decide every operator on
the entry matrix and write a failing witness from its coefficients (see
determinants), so singular_check, which straightens, is their oracle.
"""

from __future__ import annotations

from fractions import Fraction

from .report import VerificationReport, timed
from .scalars import ONE, Poly, TermMap, add_term, coerce_rational, format_rational

Monomial = tuple  # tuple of (mode, basis index) letters, canonically ordered

LEVEL = Poly.variable(("k",))  # a coefficient is a Poly in the names LEVEL.names


def _coerce_poly(value) -> Poly:
    if isinstance(value, Poly):
        return value
    return Poly.constant(LEVEL.names, coerce_rational(value))


class VacuumState(TermMap):
    """A finite sum of canonical monomials applied to the vacuum."""

    __slots__ = ()

    def __init__(self, terms=None):
        self.terms = {}
        for mono, c in (terms or {}).items():
            add_term(self.terms, tuple((int(n), int(x)) for n, x in mono), _coerce_poly(c))

    @classmethod
    def vacuum(cls) -> "VacuumState":
        return cls({(): ONE})

    @classmethod
    def zero(cls) -> "VacuumState":
        return cls()

    __mul__ = __rmul__ = TermMap.scale

    def specialize(self, level) -> "VacuumState":
        """Evaluate every coefficient at a numeric level; a monomial whose
        value is zero is dropped."""
        level = coerce_rational(level)
        out = {}
        for mono, c in self.terms.items():
            value = c.evaluate((level,))
            if value:
                out[mono] = Poly._wrap({(0,): value}, LEVEL.names)
        return VacuumState._wrap(out)

    def text(self, table) -> str:
        return self.render(lambda mono: monomial_text(table, mono))

    def __repr__(self) -> str:
        return "VacuumState(%d terms)" % len(self.terms)


def monomial_text(table, mono: Monomial) -> str:
    if not mono:
        return "|0>"
    return " ".join("%s(%d)" % (table.text(x), n) for n, x in mono) + " |0>"


def _reduce_into(table, coeff: Poly, word, out: dict):
    """Accumulate the canonical form of coeff * word |0> into out, always
    rewriting the leftmost inversion first."""
    work = [(coeff, tuple(word))]
    while work:
        c, w = work.pop()
        if w and w[-1][0] >= 0:
            continue  # annihilates the vacuum
        i = next((i for i in range(len(w) - 1) if w[i] > w[i + 1]), None)
        if i is None:
            add_term(out, w, c)
            continue
        (p, x), (q, y) = w[i], w[i + 1]
        head, tail = w[:i], w[i + 2:]
        work.append((c, head + ((q, y), (p, x)) + tail))
        for z, cz in table.bracket(x, y):
            work.append((c * cz, head + ((p + q, z),) + tail))
        if p + q == 0:
            g = table.form(x, y)
            if g:
                work.append((c * (p * g) * LEVEL, head + tail))


def straighten(table, word) -> VacuumState:
    """Canonical form of an ordered product of negative-mode generators.

    word is a sequence of (mode, element) pairs; elements may be given as
    indices, labels or BasisElement values.  All modes must be <= -1.
    """
    letters = []
    for mode, x in word:
        mode = int(mode)
        if mode > -1:
            raise ValueError("straighten expects modes <= -1, got %d" % mode)
        letters.append((mode, table.idx(x)))
    out: dict[Monomial, Poly] = {}
    _reduce_into(table, Poly.constant(LEVEL.names, ONE), tuple(letters), out)
    return VacuumState._wrap(out)


def apply_generator(table, x, n: int, state: VacuumState) -> VacuumState:
    """Act with x(n) on a state, for any integer mode n, at the symbolic
    level, by straightening x(n) in front of each monomial."""
    xi = table.idx(x)
    n = int(n)
    out: dict[Monomial, Poly] = {}
    for mono, c in state.terms.items():
        _reduce_into(table, c, ((n, xi),) + mono, out)
    return VacuumState._wrap(out)


def _keys_text(table, terms: dict) -> str:
    """The text of the state {(k-degree, sorted letter key): rational}, every
    letter at mode -1, as VacuumState.text writes it, with each distinct
    letter and coefficient rendered once."""
    coeffs: dict = {}  # letter key -> {(k-degree,): rational}
    for (d, key), v in terms.items():
        coeffs.setdefault(key, {})[d,] = v
    letter = {y: "%s(-1) " % table.text(y) for y in set().union(*coeffs)}.__getitem__
    rendered: dict = {}  # the items of a coefficient -> its text
    parts = []
    for key in sorted(coeffs):
        c = coeffs[key]
        ident = frozenset(c.items())
        if ident not in rendered:
            rendered[ident] = repr(Poly._wrap({d: Fraction(v) for d, v in c.items()}, LEVEL.names))
        parts.append("(%s) %s|0>" % (rendered[ident], "".join(map(letter, key))))
    return " + ".join(parts) or "0"


def _monomial_weight(table, mono: Monomial) -> tuple:
    return tuple(map(sum, zip(*(table.weights[x] for _, x in mono)))) if mono else (0,) * table.rank


def state_weight(table, state: VacuumState):
    """The common weight of all monomials; raises with a witness pair if mixed."""
    if state.is_zero:
        raise ValueError("the zero state has no weight")
    monos = sorted(state.terms)  # the witness pair is the first mismatch in order
    seen_mono = monos[0]
    seen = _monomial_weight(table, seen_mono)
    for mono in monos[1:]:
        w = _monomial_weight(table, mono)
        if w != seen:
            raise ValueError(
                "state is not weight homogeneous: %s has %s, %s has %s"
                % (monomial_text(table, seen_mono), seen, monomial_text(table, mono), w))
    return seen


def annihilation_operators(table):
    """The generators whose vanishing action defines a singular vector:
    the simple raising operators at mode 0 and the lowest root vector at mode 1."""
    ops = [(e, 0) for e in table.simple_raising]
    ops.append((table.theta_lowering, 1))
    return ops


@timed
def singular_check(table, state: VacuumState, level=None, claim: str = "") -> VerificationReport:
    """Check that every defining annihilation operator kills the state.

    Each operator of annihilation_operators(table) acts at the symbolic
    level; a numeric level then specializes the residual.  With level=None
    the check passes only if each residual vanishes identically in k.  The
    first nonvanishing residual is returned as the witness.
    """
    if state.is_zero:
        raise ValueError("singular_check expects a nonzero state")
    state_weight(table, state)  # reject inhomogeneous input
    params = {
        "algebra": "%s_%d" % (table.kind, table.rank),
        "level": "symbolic" if level is None else format_rational(level),
    }
    witness = None
    for x, n in annihilation_operators(table):
        residual = apply_generator(table, x, n, state)
        if level is not None:
            residual = residual.specialize(level)
        if not residual.is_zero:
            witness = {
                "operator": "%s(%d)" % (table.text(x), n),
                "residual": residual.text(table),
            }
            break
    return VerificationReport(
        claim=claim or "singular vector check",
        verdict=witness is None,
        parameters=params,
        witness=witness,
    )
