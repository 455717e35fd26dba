"""Determinant vectors in the vacuum module and their annihilation identities.

For kind "C" the m x m matrix has entries X[ei+ej] (1 <= i, j <= m); for
kind "A" the entry at (i, j) is X[ei-e(l-j+1)], which needs 2m <= l to keep
the index sets disjoint.  All entries commute pairwise, so the Leibniz
expansion of det at mode -1, raised to a power, is already in canonical
order after sorting its factors.  Their coefficients are ints: the
Leibniz terms are +-1, and sums and products of ints stay integral.

The two mechanical facts checked here: the n-th power of the determinant
applied to the vacuum is annihilated by the simple raising operators at
mode 0 and, exactly at one level depending on (m, n), by the lowest root
vector at mode 1; and away from that level the failure is a single minor
times the lower power, with a factor linear in the level.

The mode 0 half is certified on det|0> alone, for every n and level.  Let
D be det at mode -1 and x a simple raising operator.  The vacuum module is
free over U(t^-1 g[t^-1]) (PBW; Frenkel-Zhu, Duke Math. J. 66 (1992)), and
[x(0), D] lies in that algebra with no central term, since its modes sum
to -1.  So x(0)D|0> = tD|0> means [x(0), D] = tD as an operator, and then
x(0)D^n|0> = sum_j D^j [x(0), D] D^(n-1-j)|0> = n t D^n|0>: zero for
t = 0, and otherwise an exact residual that needs no expansion of x(0).

That x(0) kills det|0> is read off the m x m matrix Y of entries, not the
m! terms of det (Jacobi's formula; Howe-Umeda, Math. Ann. 290 (1991),
Caracciolo-Sokal-Sportiello, Adv. Appl. Math. 50 (2013)).  Since
[x(0), Y(-1)] = [x, Y](-1) and x(0)|0> = 0, x(0) acts on P(Y(-1))|0> as
the derivation d = sum_Y [x, Y] dP/dY when each [x, Y] commutes with the
entries.  Suppose [x, Y] = AY + YB entrywise, with A and B scalar m x m
matrices; then [x, Y] lies in the span of the entries.  A
derivation of the commutative ring of the entries satisfies
d det Y = tr(adj(Y) dY), by the product rule on each Leibniz term, so with
adj(Y) Y = Y adj(Y) = det(Y) I it gives

    x(0) det|0> = tr(adj(Y) (AY + YB))|0> = tr(A + B) det|0>.

The argument never asks for the entries to be distinct letters, so it
holds for the symmetric kind-C matrix too; there, within a row and within a
column the letters are distinct, so A and B can be read off single
coefficients.  _derivation_trace reads A and B from the brackets, checks
AY + YB = [x, Y] exactly on every entry, and returns tr(A + B); it returns
None when no such A and B exist, as when x sends an entry outside the
matrix.  verify_singular decides each simple raising operator by that
trace alone: 0 certifies it, a nonzero t fails it with the residual
n t det^n|0>, and no form raises RuntimeError ("no certificate applies"),
an exit 2 on the command line.  A root vector x shifts weights, so A and B
have a zero diagonal and the trace is 0 whenever the form holds; a nonzero
trace comes only from a weight-zero letter, such as a Cartan element.  No
simple raising operator of an accepted spec lacks the form.

The mode 1 half is certified on the matrix too, for every n.  Let x be the
lowest root vector and D = det Y.  On P(Y(-1))|0> with commuting entries,
x(1) is 1/2 sum_(a, b) [[x, a], b] d^2P/da db + k sum_a (x, a) dP/da:
moving x(1) to the vacuum past a(-1) leaves [x, a](0) and k (x, a), and
[x, a](0) past b(-1) leaves [[x, a], b](-1), a sum symmetric in a and b by
the Jacobi identity since [a, b] = 0 (tests/oracles.py applies this
operator term by term, as the certificate's oracle).  sum_b [z, b] d/db is
the derivation d_z of the entry ring, so the product rule on D^n gives

    x(1) D^n|0> = n D^(n-1) (Q + k K + (n - 1) T)|0>,
    Q = 1/2 sum_a d_[x,a](dD/da),  K = sum_a (x, a) dD/da,
    T = 1/2 sum_a t_a dD/da,

with t_a = tr(A + B) for z = [x, a] (d_z D = t_a D, as at mode 0).  By
Jacobi's formula dD/da is the sum of adj(Y)_ji over the places (i, j) of
a, and differentiating adj(Y) Y = D I gives d_z adj(Y) = tr(A + B) adj(Y)
- adj(Y) A - B adj(Y).  So Q, K and T are m x m matrices of cofactor
coefficients, built from the letters a with [x, a] != 0, each in
O(m^2 + (nnz A + nnz B) m) work past a walk of the bracket rows of [x, a]
(_mode_1_core; the Cayley identities of the papers above rest on the same
calculus).  The cofactors of the generic matrix, and the distinct ones of
the generic symmetric matrix of kind C, are linearly independent, and the
vacuum module is free, so x(1) D^n|0> = 0 at the level k0 exactly when
Q + k0 K + (n - 1) T = 0.  On every accepted spec K = beta E_11 and
Q + (n - 1) T = -beta L E_11, E_11 picking minor(1, 1), with L the
distinguished level; lowering_factor_check compares exactly these
matrices, and verify_singular raises RuntimeError ("no certificate
applies") when _mode_1_core finds no cofactor form.

So no check expands det^n or acts on a state to reach its verdict.  A
failing check states its residual from the same coefficients: n t det^n|0>
at mode 0 and sum_ij c_ij minor(i, j) det^(n-1)|0> at mode 1, with c_ij =
n (-1)^(i+j) (Q + k K + (n - 1) T)_ij, at the given level or with k
symbolic.  The residual is expanded into vacuum monomials only while the
Leibniz terms it multiplies out, (m!)^n or (m-1)! (m!)^(n-1), are at most
WITNESS_TERMS and its power of det sorts at most MAX_MUL_LETTERS letters;
above that it is stated factored, as "(-8) minor(1,1) det^1 |0>" or "(6)
det^2 |0>", each coefficient printed as in an expanded state.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache

from . import vacuum
from .liealg import BasisElement, StructureTable
from .report import VerificationReport, timed
from .scalars import Poly, TermMap, add_term, coerce_rational, format_rational
from .spec import DeterminantSpec
from .vacuum import VacuumState

EntryPoly = dict  # sorted index tuple -> int, a polynomial in commuting entries

# The one limit on an expansion, in letters sorted: ep_mul sorts one key per
# pair of terms, ep_pow charges all its products to one budget, and
# det_entry_poly its m! keys of m letters.  det^3 for C5 m=5 sorts 2.27
# million (2.21 million in its last product, 2,021 x 73 pairs of 15 letters),
# det^2 for C6 m=6 1.81 million (388 x 388 pairs of 12).
MAX_MUL_LETTERS = 4_000_000

# A failing check expands its residual only while the Leibniz terms it
# multiplies out, (m!)^n at mode 0 and (m-1)! (m!)^(n-1) at mode 1, are at
# most this many, and its power of det within MAX_MUL_LETTERS; otherwise it
# states the residual factored.
WITNESS_TERMS = 1000


def entry_element(kind: str, rank: int, i: int, j: int) -> BasisElement:
    """The (i, j) matrix entry; raises when the label is not a root."""
    if kind == "C":
        return BasisElement("plus", min(i, j), max(i, j))
    col = rank - j + 1
    if i == col:
        raise ValueError("entry (%d, %d) collides: e%d - e%d is not a root" % (i, j, i, col))
    return BasisElement("mixed", i, col)


def build_matrix(table: StructureTable, spec: DeterminantSpec) -> tuple:
    """The m x m matrix of basis indices, as a tuple of rows."""
    return _index_matrix(table, spec.m)


@lru_cache(maxsize=None)
def _index_matrix(table: StructureTable, m: int) -> tuple:
    """build_matrix, built once per table and size: once per (kind, rank, m),
    since build_algebra makes one table per (kind, rank)."""
    return tuple(tuple(table.idx(entry_element(table.kind, table.rank, i, j)) for j in range(1, m + 1))
                 for i in range(1, m + 1))


def _derivation_trace(table: StructureTable, spec: DeterminantSpec, x: int):
    """tr(A + B) when [x, Y] = AY + YB on every entry of the matrix Y, for
    scalar m x m matrices A and B; None when there are none.  Then
    x(0) det|0> = tr(A + B) det|0> (see the module docstring)."""
    form = _derivation_form(table, build_matrix(table, spec), ((x, 1),))
    return None if form is None else _trace(*form)


def _trace(a, b) -> int:
    return sum(a[i][i] + b[i][i] for i in range(len(a)))


def _derivation_form(table: StructureTable, matrix: tuple, z) -> tuple | None:
    """(A, B), scalar m x m int matrices with [z, Y] = AY + YB on every
    entry of the matrix Y, for z the combination of basis elements given by
    its (index, int coefficient) pairs; None when there are none.

    With i != j the letters of row i and column j are distinct, and Y_kj
    (k != i) and Y_il (l != j) are different letters, so the coefficient of
    Y_kj in [z, Y_ij] is A_ik and that of Y_il is B_lj; that of Y_ij itself
    is A_ii + B_jj (for i = j too), which fixes A and B up to A + c I,
    B - c I (B_11 = 0 here).  The identity is then checked exactly on every
    entry, so a wrong reading can only give None.  The work follows the
    nonzeros: the image only where [z, Y_ij] != 0, read off the bracket rows
    of z's letters, and AY + YB from the nonzero A_ik and B_kj, in
    (nnz A + nnz B) m terms.  The two maps must be equal, so an image entry
    or a letter that AY + YB does not reach fails.
    """
    m = len(matrix)
    places = _places(matrix)
    image: dict = {}  # (i, j) -> [z, Y_ij] as {letter: c}, where nonzero
    for w, c in z:
        for y, terms in table.rows[w].items():
            for ij in places.get(y, ()):
                entry = image.setdefault(ij, {})
                for u, cu in terms:
                    add_term(entry, u, c * cu)
    image = {ij: entry for ij, entry in image.items() if entry}
    a, b = ([[0] * m for _ in range(m)] for _ in range(2))
    for i in range(m):
        a[i][i] = image.get((i, 0), {}).get(matrix[i][0], 0)
        b[i][i] = image.get((0, i), {}).get(matrix[0][i], 0) - a[0][0]
        off = 1 if i == 0 else 0  # a column (or row) index other than i
        # A_ik: the coefficient of Y_k,off in [z, Y_i,off]; B_ki: that of Y_off,k in [z, Y_off,i]
        for u, c in image.get((i, off), {}).items():
            for k, l in places.get(u, ()):
                if l == off and k != i:
                    a[i][k] = c
        for u, c in image.get((off, i), {}).items():
            for l, k in places.get(u, ()):
                if l == off and k != i:
                    b[k][i] = c
    expected: dict = {}  # AY + YB, from the nonzero A_ik and B_ik
    for i, k in itertools.product(range(m), repeat=2):
        if a[i][k]:  # A_ik Y_kj at (i, j)
            for j in range(m):
                add_term(expected.setdefault((i, j), {}), matrix[k][j], a[i][k])
        if b[i][k]:  # Y_ji B_ik at (j, k)
            for j in range(m):
                add_term(expected.setdefault((j, k), {}), matrix[j][i], b[i][k])
    return (a, b) if {ij: e for ij, e in expected.items() if e} == image else None


@lru_cache(maxsize=None)
def _places(matrix: tuple) -> dict:
    """{letter: [(i, j), ...]}, the places of each letter of the matrix in
    row-major order; built once per matrix."""
    places: dict = {}
    for i, entries in enumerate(matrix):
        for j, a in enumerate(entries):
            places.setdefault(a, []).append((i, j))
    return places


def _mode_1_core(table: StructureTable, spec: DeterminantSpec) -> tuple | None:
    """(2Q, 2K, 2T) as m x m int matrices of cofactor coefficients, with

        x(1) det^n|0> = n det^(n-1) (Q + k K + (n - 1) T)|0>

    for the lowest root vector x (see the module docstring); None when the
    entries do not commute or some nonzero [x, a] has no AY + YB form.

    A matrix M stands for tr(M adj(Y)) = sum_ij M_ij adj(Y)_ji.  On kind C,
    where adj(Y) is symmetric, M_ji is folded into M_ij for i < j, so each
    entry is the coefficient of one distinct cofactor.  The cofactors of a
    generic matrix, and the distinct ones of a generic symmetric matrix, are
    linearly independent, so the polynomial is zero exactly when its matrix
    is; then also the level is L = -(Q + (n - 1) T)_11 / K_11.
    """
    matrix = build_matrix(table, spec)
    if not table.commute(y for entries in matrix for y in entries):
        return None
    m = spec.m
    x = table.theta_lowering
    q, k, t = ([[0] * m for _ in range(m)] for _ in range(3))
    for a, spots in _places(matrix).items():
        for i, j in spots:
            k[i][j] += 2 * table.form(x, a)
        z = table.rows[x].get(a)
        if not z:
            continue
        form = _derivation_form(table, matrix, z)
        if form is None:
            return None
        a_mat, b_mat = form
        trace = _trace(a_mat, b_mat)
        # da = sum of the cofactors at a's places, tr(W adj) with W their
        # 0/1 matrix; d_z tr(W adj) = tr((trace W - AW - WB) adj)
        for i, j in spots:
            t[i][j] += trace
            q[i][j] += trace
            for p in range(m):
                q[p][j] -= a_mat[p][i]
                q[i][p] -= b_mat[j][p]
    if spec.kind == "C":
        for mat in (q, k, t):
            for i in range(m):
                for j in range(i + 1, m):
                    mat[i][j] += mat[j][i]
                    mat[j][i] = 0
    return q, k, t


def _mode_1_residual(table: StructureTable, spec: DeterminantSpec, level) -> TermMap:
    """x(1) det^n|0> for the lowest root vector x, as the TermMap
    {(i, j): c_ij} of sum_ij c_ij minor(i, j) det^(n-1)|0>, each c_ij a
    Poly in k, or its value when level is a rational.  With adj(Y)_ji =
    (-1)^(i+j) minor(i, j), c_ij = n (-1)^(i+j) (Q + k K + (n - 1) T)_ij
    from _mode_1_core; raises RuntimeError when no certificate applies."""
    core = _mode_1_core(table, spec)
    if core is None:
        raise RuntimeError("no certificate applies: %s(1) on %s has no cofactor form on the matrix"
                           % (table.text(table.theta_lowering), spec.label()))
    n = spec.n
    out = {}
    for i, rows in enumerate(zip(*core), 1):
        for j, (cq, ck, ct) in enumerate(zip(*rows), 1):
            c0, c1 = cq + (n - 1) * ct, ck  # twice the k-degree 0 and 1 coefficients
            if level is not None and c1:
                c0, c1 = c0 + level * c1, 0
            if c0 or c1:
                half = Fraction(n * (-1) ** (i + j), 2)
                out[i, j] = Poly._wrap({(d,): half * c for d, c in enumerate((c0, c1)) if c},
                                       vacuum.LEVEL.names)
    return TermMap._wrap(out)


def _expands(first: int, m: int, power: int) -> bool:
    """True when a residual with a first x first minor times det^power is
    expanded: its first! (m!)^power Leibniz terms are at most WITNESS_TERMS,
    and the letters that ep_pow(det, power) sorts are at most
    MAX_MUL_LETTERS.  Its t-th product sorts at most m t (m!)^t letters,
    exactly t at m = 1.  m! >= 2 for m >= 2, so the power can be capped at
    WITNESS_TERMS in the first test, and the second sums at most 9 terms."""
    f = math.factorial(m)
    if math.factorial(first) * f ** min(power, WITNESS_TERMS) > WITNESS_TERMS:
        return False
    if f == 1:
        return power * (power + 1) // 2 <= MAX_MUL_LETTERS
    return m * sum(t * f ** t for t in range(1, power + 1)) <= MAX_MUL_LETTERS


def _cofactor_text(table: StructureTable, spec: DeterminantSpec, residual: TermMap) -> str:
    """The text of sum_ij c_ij minor(i, j) det^(n-1)|0> for the residual
    {(i, j): c_ij}: expanded into monomials while _expands allows the
    minors times det^(n-1), and otherwise factored, one term per cofactor."""
    m, power = spec.m, spec.n - 1
    if not _expands(m - 1, m, power):
        det = " det^%d" % power if power else ""
        return residual.render(lambda ij: "minor(%d,%d)%s |0>" % (ij[0], ij[1], det))
    lower = ep_pow(det_entry_poly(table, spec), power) if power else {(): 1}
    terms: dict = {}
    for (i, j), c in residual.terms.items():
        for key, v in ep_mul(minor_entry_poly(table, spec, i, j), lower).items():
            for (d,), cd in c.terms.items():
                add_term(terms, (d, key), cd * v)
    return vacuum._keys_text(table, terms)


def _det_power_text(table: StructureTable, spec: DeterminantSpec, c: int) -> str:
    """The text of c det^n|0>: expanded while _expands allows det^n, and
    otherwise factored."""
    if not _expands(0, spec.m, spec.n):
        return "(%d) det^%d |0>" % (c, spec.n)
    power = ep_pow(det_entry_poly(table, spec), spec.n)
    return vacuum._keys_text(table, {(0, key): c * v for key, v in power.items()})


# -- polynomials in the commuting entries -------------------------------


def ep_mul(p: EntryPoly, q: EntryPoly) -> EntryPoly:
    """The product; raises ValueError, before any work, when it would sort
    more than MAX_MUL_LETTERS letters."""
    _charge(_mul_letters(p, q), "a product of %d by %d terms" % (len(p), len(q)))
    out: EntryPoly = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            add_term(out, tuple(sorted(k1 + k2)), c1 * c2)
    return out


def ep_pow(p: EntryPoly, n: int) -> EntryPoly:
    """The n-th power; its products share one budget of MAX_MUL_LETTERS, so
    a power of a small polynomial cannot run n products of growing keys.
    Raises ValueError before the product that would pass the budget."""
    out: EntryPoly = {(): 1}
    letters = 0
    for t in range(1, n + 1):
        letters += _mul_letters(out, p)
        _charge(letters, "power %d of a %d-term polynomial" % (t, len(p)))
        out = ep_mul(out, p)
    return out


def _charge(letters: int, what: str) -> None:
    """Refuse an expansion that would sort more than MAX_MUL_LETTERS letters."""
    if letters > MAX_MUL_LETTERS:
        raise ValueError("%s sorts %d letters, above the limit of %d" % (what, letters, MAX_MUL_LETTERS))


def _mul_letters(p: EntryPoly, q: EntryPoly) -> int:
    """The letters that the product of p and q sorts: one key per pair."""
    return len(q) * sum(map(len, p)) + len(p) * sum(map(len, q))


def det_entry_poly(table: StructureTable, spec: DeterminantSpec, rows=None, cols=None) -> EntryPoly:
    """Leibniz expansion of the determinant over the given rows and columns.

    itertools.permutations yields the permutations in lexicographic order,
    and itertools.product their Lehmer codes in the same order: row t takes
    the column at position p_t among those still free, which inverts p_t
    pairs, so the sign is (-1)**sum(p_t).  The walk is charged before it
    starts: size 9 is expanded, size 10 raises ValueError.
    """
    rows = list(rows) if rows is not None else list(range(1, spec.m + 1))
    cols = list(cols) if cols is not None else list(range(1, spec.m + 1))
    if len(rows) != len(cols):
        raise ValueError("determinant needs a square index set")
    if not all(1 <= r <= spec.m for r in rows + cols):
        raise ValueError("row or column index out of range")
    size = len(rows)
    _charge(math.factorial(size) * size, "a determinant of size %d" % size)
    matrix = build_matrix(table, spec)
    entries = [[matrix[r - 1][c - 1] for c in cols] for r in rows]
    out: EntryPoly = {}
    codes = itertools.product(*(range(size - t) for t in range(size)))
    for code, perm in zip(codes, itertools.permutations(range(size))):
        add_term(out, tuple(sorted(map(operator.getitem, entries, perm))), -1 if sum(code) & 1 else 1)
    return out


def minor_entry_poly(table: StructureTable, spec: DeterminantSpec, i: int, j: int) -> EntryPoly:
    """The minor with row i and column j removed; the 1 x 1 case gives the scalar 1."""
    if not (1 <= i <= spec.m and 1 <= j <= spec.m):
        raise ValueError("minor index out of range")
    rows = [r for r in range(1, spec.m + 1) if r != i]
    cols = [c for c in range(1, spec.m + 1) if c != j]
    return det_entry_poly(table, spec, rows, cols)


def ep_state(poly: EntryPoly) -> VacuumState:
    """Place every entry at mode -1 and apply to the vacuum."""
    return VacuumState({tuple((-1, x) for x in key): c for key, c in poly.items()})


def determinant_vector(table: StructureTable, spec: DeterminantSpec) -> VacuumState:
    """The n-th power of the mode -1 determinant applied to the vacuum."""
    return ep_state(ep_pow(det_entry_poly(table, spec), spec.n))


# -- the two verifications ---------------------------------------------


@timed
def verify_singular(spec: DeterminantSpec, level="auto") -> VerificationReport:
    """Annihilation check for the determinant vector.

    level "auto" uses spec.level, the distinguished level; None keeps the
    level symbolic; any rational overrides it (the negative-control path).

    Every operator is decided on the m x m matrix (see the module
    docstring).  Each simple raising operator by _derivation_trace: trace 0
    passes, a nonzero trace t fails with the residual n t det^n|0>, and no
    AY + YB form raises RuntimeError.  The lowest root vector at mode 1 by
    _mode_1_residual, whose cofactor coefficients give the residual; no
    cofactor form raises RuntimeError.  A passing check expands nothing, and
    a failing one expands its residual only while it is small.
    """
    table = spec.table()
    if level == "auto":
        level = spec.level
    elif level is not None:
        level = coerce_rational(level)
    witness = None
    for x in table.simple_raising:
        trace = _derivation_trace(table, spec, x)
        if trace is None:
            raise RuntimeError("no certificate applies: %s(0) on %s has no AY + YB form on the matrix"
                               % (table.text(x), spec.label()))
        if trace:
            witness = {"operator": "%s(0)" % table.text(x),
                       "residual": _det_power_text(table, spec, spec.n * trace)}
            break
    else:
        residual = _mode_1_residual(table, spec, level)
        if residual:
            witness = {"operator": "%s(1)" % table.text(table.theta_lowering),
                       "residual": _cofactor_text(table, spec, residual)}
    level_text = "symbolic" if level is None else format_rational(level)
    return VerificationReport(
        claim="determinant vector singular: %s level=%s" % (spec.label(), level_text),
        verdict=witness is None,
        parameters={"algebra": "%s_%d" % (spec.kind, spec.rank), "level": level_text,
                    "m": spec.m, "n": spec.n, "distinguished_level": format_rational(spec.level)},
        witness=witness,
    )


def beta_constant(table: StructureTable) -> Fraction:
    """The pairing of the lowest and highest root vectors; it scales the
    residual of the mode 1 annihilation away from the distinguished level."""
    return table.form(table.theta_lowering, table.theta_raising)


@timed
def lowering_factor_check(spec: DeterminantSpec) -> VerificationReport:
    """Identity for the lowest root vector at mode 1, at the symbolic level:

        x(1) det^n |0> = beta n (k - level) minor(1,1) det^(n-1) |0>

    with beta the form pairing of the two extreme root vectors.  Both sides
    are compared as cofactor coefficients (_mode_1_residual), so the check
    holds exactly when K = beta E_11 and Q + (n - 1) T = -beta level E_11,
    and a passing check expands nothing.
    """
    table = spec.table()
    beta = beta_constant(table)
    lhs = _mode_1_residual(table, spec, None)
    difference = lhs - TermMap._wrap({(1, 1): (vacuum.LEVEL - spec.level) * (beta * spec.n)})
    witness = None
    if difference:
        witness = {"difference": _cofactor_text(table, spec, difference),
                   "lhs": _cofactor_text(table, spec, lhs)}
    notes = ["beta = (x_-theta, x_theta) = %s from the trace form" % format_rational(beta)]
    if spec.kind == "A":
        notes.append("beta for kind A is derived from the invariant form, not imposed")
    return VerificationReport(
        claim="lowering factor identity: %s" % spec.label(),
        verdict=witness is None,
        parameters={
            "algebra": "%s_%d" % (spec.kind, spec.rank),
            "m": spec.m, "n": spec.n,
            "beta": format_rational(beta),
            "level": "symbolic",
            "distinguished_level": format_rational(spec.level),
        },
        witness=witness,
        notes=notes,
    )
