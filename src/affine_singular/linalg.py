"""Minimal exact sparse linear algebra over Q.

Vectors are dicts from orderable keys to Fraction.  A SparseBasis keeps a
row-reduced family: each stored row has a distinct pivot (its smallest key)
normalised to coefficient 1, which makes membership testing a single
reduction pass.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import add_term


def vec_sub_scaled(u: dict, v: dict, c: Fraction) -> dict:
    """u - c*v with eager zero deletion."""
    out = dict(u)
    for key, value in v.items():
        add_term(out, key, -c * value)
    return out


class SparseBasis:
    """A growing row-reduced basis supporting reduce/insert."""

    def __init__(self):
        self.rows: dict = {}  # pivot key -> normalised row

    def __len__(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> dict:
        """The remainder of vec after eliminating all known pivots.

        Eliminating the smallest matching pivot never reintroduces smaller
        keys (a pivot is the minimum of its row), so the loop terminates in
        at most one pass per stored row.
        """
        rem = dict(vec)
        while True:
            hits = [k for k in rem if k in self.rows]
            if not hits:
                return rem
            k = min(hits)
            rem = vec_sub_scaled(rem, self.rows[k], rem[k])

    def insert(self, vec: dict) -> bool:
        """Add vec if independent of the current rows; returns True if added."""
        rem = self.reduce(vec)
        if not rem:
            return False
        pivot = min(rem)
        lead = rem[pivot]
        self.rows[pivot] = {k: v / lead for k, v in rem.items()}
        return True

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

