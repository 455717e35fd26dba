"""Minimal exact sparse linear algebra over Q, run fraction-free.

Vectors come in as dicts from orderable keys to rationals (or ints).  A
SparseBasis keeps a row-reduced family: each stored row has a distinct pivot
(its smallest key) and is a primitive integer vector (its entries have gcd
1) with a positive entry at the pivot.  Rows and remainders are only ever
scaled by nonzero integers, so the pivots, the rank and every membership
answer are those of elimination over Q; this is the integer-preserving
elimination of Bareiss (Math. Comp. 22, 1968), with the content divided out
instead of the previous pivot because the rows are sparse and kept one at a
time.
"""

from __future__ import annotations

import math


class SparseBasis:
    """A growing row-reduced basis supporting reduce/insert."""

    def __init__(self):
        self.rows: dict = {}  # pivot key -> primitive int row, positive at the pivot

    def __len__(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict) -> dict:
        """The remainder of vec after eliminating all known pivots, as a
        primitive integer vector: a positive multiple of the remainder over Q.

        Eliminating the smallest matching pivot never reintroduces smaller
        keys (a pivot is the minimum of its row), so the loop terminates in
        at most one pass per stored row.
        """
        den = math.lcm(*(v.denominator for v in vec.values()))
        rem = {k: v.numerator * (den // v.denominator) for k, v in vec.items() if v}  # vec is left as it is
        while True:
            hits = [k for k in rem if k in self.rows]
            if not hits:
                break
            k = min(hits)
            row = self.rows[k]
            g = math.gcd(rem[k], row[k])
            keep, take = row[k] // g, rem[k] // g  # rem * keep - row * take clears k
            if keep != 1:
                rem = {key: v * keep for key, v in rem.items()}
            for key, v in row.items():
                value = rem.get(key, 0) - take * v
                if value:
                    rem[key] = value
                else:
                    del rem[key]
        content = math.gcd(*rem.values())
        return {key: v // content for key, v in rem.items()} if content > 1 else rem

    def insert(self, vec: dict) -> bool:
        """Add vec if independent of the current rows; returns True if added."""
        rem = self.reduce(vec)
        if not rem:
            return False
        pivot = min(rem)
        if rem[pivot] < 0:
            rem = {k: -v for k, v in rem.items()}
        self.rows[pivot] = rem
        return True

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)
