"""Reference implementations and helpers that only the tests use.

Each reference implementation computes something the library computes by
other means, so a test can compare the two.  The helpers at the end state
facts the library never needs to ask (a state's mode degree, which specs
share a level), so they live here rather than in the library.
"""

from __future__ import annotations

import bisect
import itertools
import re
from collections import defaultdict
from fractions import Fraction

from affine_singular import weyl
from affine_singular.determinants import (DeterminantSpec, build_matrix, det_entry_poly,
                                          ep_mul, ep_pow, ep_state, entry_element,
                                          minor_entry_poly)
from affine_singular import liealg
from affine_singular.liealg import build_algebra
from affine_singular.linalg import SparseBasis
from affine_singular.report import VerificationReport
from affine_singular.scalars import ZERO, Poly, add_term, coerce_rational
from affine_singular.vacuum import VacuumState, apply_generator
from affine_singular.zhu import UEnvElement


def straighten_rightmost(table, word, coeff=1) -> VacuumState:
    """Straighten a word of negative modes, always rewriting the rightmost
    inversion first; vacuum.straighten rewrites the leftmost first, so equal
    results show that the rewriting is confluent."""
    k = level_var()
    out = {}
    work = [(Poly.constant(K, coeff), tuple((int(n), table.idx(x)) for n, x in word))]
    while work:
        c, w = work.pop()
        if w and w[-1][0] >= 0:
            continue
        inversions = [i for i in range(len(w) - 1) if w[i] > w[i + 1]]
        if not inversions:
            out[w] = out[w] + c if w in out else c
            continue
        i = inversions[-1]
        (p, x), (q, y) = w[i], w[i + 1]
        head, tail = w[:i], w[i + 2:]
        work.append((c, head + ((q, y), (p, x)) + tail))
        for z, cz in table.bracket(x, y):
            work.append((c * cz, head + ((p + q, z),) + tail))
        if p + q == 0 and table.form(x, y):
            work.append((c * (p * table.form(x, y)) * k, head + tail))
    return VacuumState(out)


def ep_apply(table, poly, state: VacuumState) -> VacuumState:
    """Left-multiply a state by a mode -1 entry polynomial, one generator at a time."""
    out = VacuumState.zero()
    for key, c in poly.items():
        piece = state * c
        for x in reversed(key):
            piece = apply_generator(table, x, -1, piece)
        out = out + piece
    return out


def derivation_image(table, x, poly) -> dict:
    """x(0) on poly(Y(-1))|0> as the derivation sum_Y [x, Y] dP/dY of the
    entry ring: each letter in turn is replaced by each term of [x, Y] and
    the key sorted again.  Sorting is right only while the new letters
    commute with the rest, as they do when [x, Y] stays in the matrix."""
    out = {}
    for key, c in poly.items():
        for i, y in enumerate(key):
            for z, cz in table.bracket(x, y):
                add_term(out, tuple(sorted(key[:i] + (z,) + key[i + 1:])), c * cz)
    return out


def derivation_form_dense(table, matrix: tuple, z) -> tuple | None:
    """determinants._derivation_form read densely: [z, Y_ij] built at every
    entry, A and B read from single coefficients, and AY + YB built with 2m
    terms at each of the m^2 entries and compared with the image there."""
    m = len(matrix)
    rows = [(table.rows[w], c) for w, c in z]
    image = []  # image[i][j] = [z, Y_ij] as {letter: c}
    for entries in matrix:
        line = []
        for y in entries:
            terms: dict = {}
            for row, c in rows:
                for w, cw in row.get(y, ()):
                    add_term(terms, w, c * cw)
            line.append(terms)
        image.append(line)
    off = [1 if i == 0 else 0 for i in range(m)]  # a column (or row) index other than i
    coeff = lambda i, j, k, l: image[i][j].get(matrix[k][l], 0)  # of Y_kl in [z, Y_ij]
    a = [[coeff(i, 0, i, 0) if k == i else coeff(i, off[i], k, off[i]) for k in range(m)]
         for i in range(m)]
    b = [[coeff(0, j, 0, j) - a[0][0] if l == j else coeff(off[j], j, off[j], l) for j in range(m)]
         for l in range(m)]
    for i in range(m):
        for j in range(m):
            expected: dict = {}
            for k in range(m):
                add_term(expected, matrix[k][j], a[i][k])
                add_term(expected, matrix[i][k], b[k][j])
            if expected != image[i][j]:
                return None
    return a, b


def differential_ints(table, x: int, poly: dict) -> dict:
    """x(1) at the symbolic level on poly(Y(-1))|0>, for an int map poly
    {sorted letter key: c}: the image {(k-degree, key): c}, with no zero
    entries, k-degree 1 for the central term and 0 for the pair term.
    Raises RuntimeError unless the letters, together with every letter the
    operator produces, pairwise commute.

    On such a state x(1) acts as a second-order differential operator on P:

        x(1) P = 1/2 sum_(Y, Y') [[x, Y], Y'] d^2P/dYdY' + k sum_Y (x, Y) dP/dY,

    with the new letters put back in sorted order; the double sum is
    symmetric by the Jacobi identity, since [Y, Y'] = 0.  The library
    decides x(1) on det^n|0> by the cofactor matrices instead
    (determinants._mode_1_core), so this operator is their oracle, and
    vacuum.singular_check, which only straightens, is this one's.

    Only the letters that x moves contribute: those Y with [x, Y] != 0 or
    (x, Y) != 0.  The same Jacobi identity gives [[x, Y], Y'] =
    [[x, Y'], Y], so a pair term vanishes unless [x, Y] and [x, Y'] are
    both nonzero, and a monomial's moved letters are found by one set
    intersection with its key.
    """
    letters = set().union(*poly)
    first = {y: terms for y in letters if (terms := table.bracket(x, y))}  # y -> [x, y]
    central = {a: pairing for a in letters if (pairing := table.form(x, a))}
    replace = {}  # (a, b) with a <= b -> [[x, a], b], when nonzero
    for a in first:
        for b in first:
            if a <= b:
                nested: dict[int, int] = {}
                for z, cz in first[a]:
                    for w, cw in table.bracket(z, b):
                        nested[w] = nested.get(w, 0) + cz * cw
                terms = [(w, c) for w, c in nested.items() if c]
                if terms:
                    replace[a, b] = terms
    span = letters.union(*({w for w, _ in terms} for terms in replace.values()))
    if not table.commute(span):
        raise RuntimeError("%s(1) acts on letters that do not commute" % table.text(x))
    moved = first.keys() | central.keys()

    acc: dict[tuple, int] = {}
    for key, v in poly.items():
        present = moved.intersection(key)
        if not present:
            continue
        groups = [(a, key.index(a), key.count(a)) for a in sorted(present)]  # in key order
        for g, (a, ia, ea) in enumerate(groups):
            rest = key[:ia] + key[ia + 1:]
            if a in central:
                slot = (1, rest)
                acc[slot] = acc.get(slot, 0) + v * ea * central[a]
            for b, ib, eb in groups[g:]:
                terms = replace.get((a, b))
                pairs = ea * (ea - 1) // 2 if b == a else ea * eb
                if not (terms and pairs):
                    continue
                pair_rest = rest[:ia] + rest[ia + 1:] if b == a else rest[:ib - 1] + rest[ib:]
                for w, cw in terms:
                    slot = (0, _insert(pair_rest, w))
                    acc[slot] = acc.get(slot, 0) + v * pairs * cw
    return {slot: v for slot, v in acc.items() if v}


def _insert(key: tuple, y: int) -> tuple:
    """The sorted tuple key with one more y."""
    t = bisect.bisect(key, y)
    return key[:t] + (y,) + key[t:]


def kernel_residual(table, spec: DeterminantSpec, level=None) -> VacuumState:
    """x(1) det^n|0> for the lowest root vector x, by differential_ints on
    det^n's int map, with k symbolic or specialized at the level."""
    image = differential_ints(table, table.theta_lowering, ep_pow(det_entry_poly(table, spec), spec.n))
    terms = {}
    for (d, key), c in image.items():
        mono = tuple((-1, y) for y in key)
        terms[mono] = terms.get(mono, Poly.constant(K, 0)) + Poly(K, {(d,): c})
    state = VacuumState(terms)
    return state if level is None else state.specialize(level)


def from_keys(terms: dict) -> VacuumState:
    """The state of a map {(k-degree, sorted letter key): rational}, every
    letter at mode -1; its text is vacuum._keys_text's oracle."""
    out: dict = {}
    for (d, key), v in terms.items():
        mono = tuple((-1, y) for y in key)
        out[mono] = out.get(mono, Poly.constant(K, 0)) + Poly(K, {(d,): v})
    return VacuumState(out)


_FACTORED = re.compile(r"\(([^()]*)\) (?:minor\((\d+),(\d+)\) )?(?:det\^(\d+) )?\|0>")


def expand_residual(table, spec: DeterminantSpec, text: str) -> str:
    """A witness residual as vacuum monomials: a factored text, terms
    "(c) minor(i,j) det^p |0>" or "(c) det^p |0>" with c a polynomial in k,
    expanded term by term; an expanded text as it is."""
    terms = re.split(r" \+ (?=\()", text)
    matches = [_FACTORED.fullmatch(term) for term in terms]
    if not all(matches):
        return text
    det = det_entry_poly(table, spec)
    state = VacuumState.zero()
    for match in matches:
        coeff, i, j, power = match.groups()
        poly = ep_pow(det, int(power or 0))
        if i:
            poly = ep_mul(minor_entry_poly(table, spec, int(i), int(j)), poly)
        state = state + ep_state(poly) * level_poly(coeff)
    return state.text(table)


def level_poly(text: str) -> Poly:
    """The polynomial in k that Poly prints as text, e.g. "-12*k + 6"."""
    out = Poly.constant(K, 0)
    for part in text.replace(" - ", " + -").split(" + "):
        if part.endswith("k"):
            c = part[:-1].rstrip("*")
            out = out + level_var() * Fraction({"": 1, "-": -1}.get(c, c))
        else:
            out = out + Fraction(part)
    return out


def det_dense(matrix) -> Fraction:
    """Determinant of a dense square matrix of Fractions by elimination."""
    n = len(matrix)
    rows = [list(row) for row in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot_row = None
        for r in range(col, n):
            if rows[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            return ZERO
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            det = -det
        lead = rows[col][col]
        det *= lead
        for r in range(col + 1, n):
            if rows[r][col]:
                factor = rows[r][col] / lead
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return det


def perm_sign(perm) -> int:
    """(-1) to the number of inverted pairs, counted pair by pair."""
    sign = 1
    for a, b in itertools.combinations(range(len(perm)), 2):
        if perm[a] > perm[b]:
            sign = -sign
    return sign


def leibniz_entry_poly(table, spec: DeterminantSpec, rows, cols) -> dict:
    """The Leibniz expansion over itertools.permutations, each sign counted
    afresh; keys in lexicographic order of the permutations."""
    matrix = build_matrix(table, spec)
    entries = [[matrix[r - 1][c - 1] for c in cols] for r in rows]
    out = {}
    for perm in itertools.permutations(range(len(rows))):
        key = tuple(sorted(entries[t][perm[t]] for t in range(len(rows))))
        add_term(out, key, perm_sign(perm))
    return out


def adjoint_closure_scan(table, generator) -> tuple[int, bool]:
    """(dimension, raising_closed) of the adjoint closure of generator under
    the simple lowering operators, with raising closure checked by applying
    every simple raising operator to every element."""
    def weight(u):
        word = next(iter(u.terms))
        return tuple(sum((table.weights[x][t] for x in word), ZERO) for t in range(table.rank))

    def shifted(w, g):
        return tuple(a + b for a, b in zip(w, table.weights[g]))

    top = weight(generator)
    spaces = {top: SparseBasis()}
    spaces[top].insert(generator.terms)
    elements = [(generator, top)]
    at = 0
    while at < len(elements):
        u, uw = elements[at]
        at += 1
        for g in table.simple_lowering:
            image = uenv_ad(table, g, u)
            if not image.is_zero and spaces.setdefault(shifted(uw, g), SparseBasis()).insert(image.terms):
                elements.append((image, shifted(uw, g)))
    closed = True
    for u, uw in elements:
        for g in table.simple_raising:
            image = uenv_ad(table, g, u)
            space = spaces.get(shifted(uw, g))
            if not image.is_zero and (space is None or not space.contains(image.terms)):
                closed = False
    return len(elements), closed


def uenv_normal_form(table, word, coeff=1) -> UEnvElement:
    """PBW normal form of an ordered product of basis elements, straightened
    one swap at a time in Fraction arithmetic."""
    out = {}
    work = [(coerce_rational(coeff), tuple(table.idx(x) for x in word))]
    while work:
        c, w = work.pop()
        i = next((i for i in range(len(w) - 1) if w[i] > w[i + 1]), None)
        if i is None:
            out[w] = out.get(w, 0) + c
            continue
        x, y = w[i], w[i + 1]
        head, tail = w[:i], w[i + 2:]
        work.append((c, head + (y, x) + tail))
        for z, cz in table.bracket(x, y):
            work.append((c * cz, head + (z,) + tail))
    return UEnvElement(out)


def uenv_sum(table, products) -> UEnvElement:
    """The sum of c times the PBW normal form of word over (c, word) pairs."""
    out = {}
    for c, word in products:
        for w, cw in uenv_normal_form(table, word, c).terms.items():
            out[w] = out.get(w, 0) + cw
    return UEnvElement(out)


def uenv_product(table, u, v) -> UEnvElement:
    """u v, straightened term by term."""
    return uenv_sum(table, ((c1 * c2, w1 + w2) for w1, c1 in u.terms.items()
                            for w2, c2 in v.terms.items()))


def uenv_ad(table, g, u) -> UEnvElement:
    """ad(g) u, each word's derivation terms straightened on its own."""
    return uenv_sum(table, ((c * cz, word[:t] + (z,) + word[t + 1:])
                            for word, c in u.terms.items() for t, x in enumerate(word)
                            for z, cz in table.bracket(g, x)))


def vec_sub_scaled(u: dict, v: dict, c: Fraction) -> dict:
    """u - c*v with eager zero deletion."""
    out = dict(u)
    for key, value in v.items():
        value = out.get(key, 0) - c * value
        if value:
            out[key] = value
        else:
            out.pop(key, None)
    return out


class FractionBasis:
    """Row reduction over Q: each stored row has a distinct pivot (its
    smallest key) normalised to coefficient 1."""

    def __init__(self):
        self.rows: dict = {}

    def __len__(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> dict:
        rem = {k: Fraction(v) for k, v in vec.items() if v}
        while True:
            hits = [k for k in rem if k in self.rows]
            if not hits:
                return rem
            k = min(hits)
            rem = vec_sub_scaled(rem, self.rows[k], rem[k])

    def insert(self, vec: dict) -> bool:
        rem = self.reduce(vec)
        if not rem:
            return False
        pivot = min(rem)
        lead = rem[pivot]
        self.rows[pivot] = {k: v / lead for k, v in rem.items()}
        return True

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)


def _dot(u, v) -> Fraction:
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), ZERO)


def coroot_pairing(lam, alpha) -> Fraction:
    """<lam, alpha^vee> = 2 (lam, alpha) / (alpha, alpha)."""
    return 2 * _dot(lam, alpha) / _dot(alpha, alpha)


def freudenthal(table, lam) -> dict:
    """Weights of the irreducible with highest weight lam and their
    multiplicities, by Freudenthal's recursion in Fraction arithmetic,
    processed level by level from lam down."""
    lam = tuple(Fraction(c) for c in lam)
    rho = table.rho()
    shifted = lambda mu: tuple(a + b for a, b in zip(mu, rho))
    c2 = _dot(shifted(lam), shifted(lam))
    mult = {lam: 1}
    frontier = [lam]
    while frontier:
        candidates = {tuple(m - a for m, a in zip(mu, alpha))
                      for mu in frontier for alpha in table.simple_roots}
        frontier = []
        for mu in sorted(candidates):
            if mu in mult:
                continue
            total = ZERO
            for alpha in table.positive_root_weights:
                j = 1
                while True:
                    nu = tuple(m + j * a for m, a in zip(mu, alpha))
                    m_nu = mult.get(nu, 0)
                    if m_nu == 0:
                        break
                    total += 2 * m_nu * _dot(nu, alpha)
                    j += 1
            denom = c2 - _dot(shifted(mu), shifted(mu))
            if denom == 0:
                continue
            value = total / denom
            if value.denominator != 1:
                raise ArithmeticError("non-integral multiplicity at %s" % (mu,))
            if value > 0:
                mult[mu] = int(value)
                frontier.append(mu)
    return mult


def is_linear(z: weyl.WeylElement) -> bool:
    """True when every monomial of z has total degree exactly 1."""
    return bool(z.terms) and all(sum(a) + sum(b) == 1 for a, b in z.terms)


def normal_ordered(x: weyl.WeylElement, y: weyl.WeylElement) -> weyl.WeylElement:
    """The symmetrised product (xy + yx)/2 of two linear elements, from two
    full oscillator products."""
    if not (is_linear(x) and is_linear(y)):
        raise ValueError("normal_ordered expects linear arguments")
    return (x * y + y * x).scale(Fraction(1, 2))


def realize(kind: str, rank: int, elem) -> weyl.WeylElement:
    """The oscillator realization of a basis element as symmetrised products
    of generators, not read off its label as liealg._realize does."""
    a = lambda i: weyl.creation(rank, i)
    s = lambda i: weyl.annihilation(rank, i)
    if elem.kind == "plus":
        return normal_ordered(a(elem.i), a(elem.j))
    if elem.kind == "minus":
        return normal_ordered(s(elem.i), s(elem.j))
    if elem.kind == "mixed":
        return normal_ordered(a(elem.i), s(elem.j))
    if kind == "C":
        return -normal_ordered(a(elem.i), s(elem.i))
    return -normal_ordered(a(elem.i), s(elem.i)) + normal_ordered(a(elem.i + 1), s(elem.i + 1))


def _pivot(elem, rank: int):
    """A monomial held by this realization and by no later one in elimination
    order, with its coefficient there."""
    unit = lambda *idxs: tuple(sum(1 for t in idxs if t == p + 1) for p in range(rank))
    zero = (0,) * rank
    if elem.kind == "plus":
        return (unit(elem.i, elem.j), zero), 1
    if elem.kind == "minus":
        return (zero, unit(elem.i, elem.j)), 1
    if elem.kind == "mixed":
        return (unit(elem.i), unit(elem.j)), 1
    return (unit(elem.i), unit(elem.i)), -1


def structure_table(kind: str, rank: int) -> liealg.StructureTable:
    """The structure table in Fraction arithmetic, uncached.  The
    realizations are symmetrised oscillator products (realize).  Each bracket
    is xy - yx from full oscillator products, not Wick's rule on the labels,
    and is expanded on pivots listed per label.  Each form entry is the
    trace form of the action on the 2l-dimensional generator span
    (generator_matrices), halved for kind "A", not a Killing form.  Every
    bracket and form entry is computed, and the rows keep the nonzero ones,
    as a StructureTable's rows do."""
    if kind == "C":
        lower = [liealg.BasisElement("minus", i, j) for i in range(1, rank + 1) for j in range(i, rank + 1)]
        lower += [liealg.BasisElement("mixed", i, j) for i in range(1, rank + 1) for j in range(1, i)]
        upper = [liealg.BasisElement("plus", i, j) for i in range(1, rank + 1) for j in range(i, rank + 1)]
        upper += [liealg.BasisElement("mixed", i, j) for i in range(1, rank + 1) for j in range(i + 1, rank + 1)]
        cartans = [liealg.BasisElement("cartan", i) for i in range(1, rank + 1)]
    else:
        lower = [liealg.BasisElement("mixed", i, j) for i in range(1, rank + 1) for j in range(1, i)]
        upper = [liealg.BasisElement("mixed", i, j) for i in range(1, rank + 1) for j in range(i + 1, rank + 1)]
        cartans = [liealg.BasisElement("cartan", i) for i in range(1, rank)]
    lower.sort(key=lambda e: liealg.element_weight(e, rank))
    upper.sort(key=lambda e: liealg.element_weight(e, rank))
    basis = lower + cartans + upper
    blocks = ["lower"] * len(lower) + ["cartan"] * len(cartans) + ["raise"] * len(upper)
    realizations = [realize(kind, rank, e) for e in basis]
    dim = len(basis)
    pivots = [_pivot(e, rank) for e in basis]
    root_at = {pivots[n][0]: n for n in range(dim) if basis[n].kind != "cartan"}

    def to_basis(z: weyl.WeylElement) -> dict:
        coeffs = {}
        rem = dict(z.terms)
        order = [root_at[mono] for mono in z.terms if mono in root_at]
        for n in order + [n for n in range(dim) if basis[n].kind == "cartan"]:
            mono, lead = pivots[n]
            c = rem.get(mono)
            if c:
                coeffs[n] = c = c / lead
                for m, r in realizations[n].terms.items():
                    rem[m] = rem.get(m, ZERO) - c * r
                    if not rem[m]:
                        del rem[m]
        assert not rem, "element %r is outside the basis span" % z
        return coeffs

    # every bracket is computed; the rows keep the nonzero ones
    rows = [{} for _ in range(dim)]
    for x in range(dim):
        for y in range(x + 1, dim):
            rx, ry = realizations[x], realizations[y]
            terms = tuple(sorted(to_basis(rx * ry - ry * rx).items()))
            if terms:
                rows[x][y] = terms
                rows[y][x] = tuple((z, -c) for z, c in terms)

    matrices = generator_matrices(realizations, rank)
    scale = Fraction(1) if kind == "C" else Fraction(1, 2)
    form = [{y: scale * sum((c * matrices[y].get((t, r), ZERO) for (r, t), c in matrices[x].items()), ZERO)
             for y in range(dim)}
            for x in range(dim)]
    form = [{y: value for y, value in row.items() if value} for row in form]
    weights = [liealg.element_weight(e, rank) for e in basis]
    table = liealg.StructureTable(kind, rank, basis, weights, rows, form, blocks)
    table.realizations = tuple(realizations)  # this build's own, not the table's
    return table


def generator_matrices(realizations, rank: int) -> list[dict]:
    """The action of each realization r on the generator span a_1..a_l,
    a*_1..a*_l (indices 0..2l-1) as a sparse matrix {(row, column): c}, each
    column g the product commutator r g - g r.  A monomial commutes with a_j
    unless it holds a*_j, and with a*_j unless it holds a_j, so only the
    columns of those generators are multiplied out; the rest are zero.  The
    entries are integers and are kept as ints."""
    gens = [weyl.creation(rank, i) for i in range(1, rank + 1)]
    gens += [weyl.annihilation(rank, i) for i in range(1, rank + 1)]
    gen_index = {next(iter(gen.terms)): g for g, gen in enumerate(gens)}
    matrices = []
    for r in realizations:
        columns = {rank + i for alpha, _ in r.terms for i, e in enumerate(alpha) if e}
        columns |= {i for _, beta in r.terms for i, e in enumerate(beta) if e}
        mat = {}
        for g in sorted(columns):
            for mono, c in (r * gens[g] - gens[g] * r).terms.items():
                assert c.denominator == 1, "a generator-span entry %s is not an integer" % c
                mat[gen_index[mono], g] = c.numerator
        matrices.append(mat)
    return matrices


def matrix_brackets(matrices) -> list[dict]:
    """{y: M_x M_y - M_y M_x} for each x, over the y whose commutator is
    nonzero, from sparse products of the matrices (generator_matrices).
    The action on the generator span is faithful, so these are the nonzero
    brackets [x, y] as matrices."""
    starting = defaultdict(list)  # t: (y, s, c) for each entry c = M_y[t, s]
    ending = defaultdict(list)  # t: (y, r, c) for each entry c = M_y[r, t]
    for y, mat in enumerate(matrices):
        for (r, s), c in mat.items():
            starting[r].append((y, s, c))
            ending[s].append((y, r, c))
    out = []
    for mat in matrices:
        row = defaultdict(dict)
        for (r, t), c in mat.items():
            for y, s, d in starting[t]:
                entries = row[y]
                entries[r, s] = entries.get((r, s), 0) + c * d
            for y, q, d in ending[r]:
                entries = row[y]
                entries[q, t] = entries.get((q, t), 0) - d * c
        row = {y: {e: c for e, c in entries.items() if c} for y, entries in row.items()}
        out.append({y: entries for y, entries in row.items() if entries})
    return out


def casimir_level(kind: str, rank: int, m: int, n: int) -> Fraction:
    """The level of the (kind, rank, m, n) determinant vector, from root data
    alone.  det^n has weight mu and degree mn, and a singular vector there
    needs the Sugawara L_0 to act on it by mn:

        (mu, mu + 2 rho) = 2 m n (k + h^v),

    with the form normalised so that long roots have (theta, theta) = 2
    (Kac, Infinite Dimensional Lie Algebras, ch. 12).  Coordinates are
    e_1..e_l for l = rank.
    """
    l = rank
    if kind == "C":
        mu = [2 * n] * m + [0] * (l - m)
        rho = [l - i + 1 for i in range(1, l + 1)]
        scale, dual_coxeter = Fraction(1, 2), l + 1
    else:
        mu = [n] * m + [0] * (l - 2 * m) + [-n] * m
        rho = [Fraction(l + 1, 2) - i for i in range(1, l + 1)]
        scale, dual_coxeter = Fraction(1), l
    casimir = scale * sum(a * (a + 2 * r) for a, r in zip(mu, rho))
    return casimir / (2 * m * n) - dual_coxeter


# -- helpers ------------------------------------------------------------


K = ("k",)  # the names of a polynomial in the level


def level_var() -> Poly:
    """The formal level as a polynomial."""
    return Poly.variable(K)


def constant_value(poly: Poly) -> Fraction:
    """The value of a constant polynomial; raises if it has positive degree."""
    if poly.degree > 0:
        raise ValueError("polynomial %s is not constant" % (poly,))
    return poly.terms.get((0,), ZERO)


def minor_vector(table, spec: DeterminantSpec, i: int, j: int) -> VacuumState:
    return ep_state(minor_entry_poly(table, spec, i, j))


def mode_degree(state: VacuumState) -> int:
    """Total mode of a state; raises if it is mixed."""
    degrees = {sum(n for n, _ in mono) for mono in state.terms}
    if not degrees:
        return 0
    if len(degrees) > 1:
        raise ValueError("state mixes mode degrees %s" % sorted(degrees))
    return degrees.pop()


def coexisting_singulars(kind: str, rank: int, level) -> list[DeterminantSpec]:
    """All determinant vectors that become singular at the given level."""
    level = coerce_rational(level)
    found = []
    top = rank if kind == "C" else rank // 2
    for m in range(1, top + 1):
        n = level + (Fraction(m + 1, 2) if kind == "C" else Fraction(m))
        if n.denominator == 1 and n >= 1:
            found.append(DeterminantSpec(kind, rank, m, int(n)))
    return found


def entries_commute_check(kind: str, rank: int, m: int) -> VerificationReport:
    """Pairwise-commutation scan over the would-be matrix entries.

    Deliberately does not enforce the size guard, so it can demonstrate what
    goes wrong for oversized "A" matrices: overlapping indices give entries
    with nonzero brackets (and possibly ill-formed diagonal labels).
    """
    table = build_algebra(kind, rank)
    entries = []
    bad_labels = []
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            try:
                entries.append(((i, j), table.idx(entry_element(kind, rank, i, j))))
            except ValueError:
                bad_labels.append("(%d,%d)" % (i, j))
    witness = None
    for ((pi, pj), x), ((qi, qj), y) in itertools.combinations(entries, 2):
        terms = table.bracket(x, y)
        if terms:
            body = " + ".join("(%s) %s" % (c, table.text(z)) for z, c in terms)
            witness = {
                "pair": ["entry(%d,%d) = %s" % (pi, pj, table.text(x)),
                         "entry(%d,%d) = %s" % (qi, qj, table.text(y))],
                "bracket": body,
            }
            break
    if witness is None and bad_labels:
        witness = {"undefined_entries": bad_labels}
    return VerificationReport(
        claim="matrix entries commute %s%d m=%d" % (kind, rank, m),
        verdict=witness is None,
        parameters={"algebra": "%s_%d" % (kind, rank), "m": m},
        witness=witness,
    )
