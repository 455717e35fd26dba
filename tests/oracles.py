"""Reference implementations that only the tests use.

Each one computes something the library computes by other means, so a test
can compare the two.
"""

from __future__ import annotations

from fractions import Fraction

from affine_singular.scalars import ZERO, UniPoly, level_var
from affine_singular.vacuum import VacuumState, apply_generator


def straighten_rightmost(table, word, coeff=1) -> VacuumState:
    """Straighten a word of negative modes, always rewriting the rightmost
    inversion first; vacuum.straighten rewrites the leftmost first, so equal
    results show that the rewriting is confluent."""
    k = level_var()
    out = {}
    work = [(UniPoly.constant(coeff), tuple((int(n), table.idx(x)) for n, x in word))]
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
