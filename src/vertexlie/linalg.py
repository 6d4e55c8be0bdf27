"""Exact span-membership tests over the rationals.

Rows are sparse mappings key -> Fraction.  Incoming rows are cleared to
integers and reduced fraction-free (cross-multiplication plus a gcd
normalization), so every intermediate stays an exact integer.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping


def _integer_row(row: Mapping) -> dict:
    """Scale a rational sparse row to coprime integers."""
    items = {k: Fraction(c) for k, c in row.items() if c}
    if not items:
        return {}
    denom = lcm(*(c.denominator for c in items.values()))
    ints = {k: c.numerator * (denom // c.denominator) for k, c in items.items()}
    g = gcd(*ints.values())
    return {k: c // g for k, c in ints.items()}


class RowSpace:
    """Growing row space over Q with exact membership queries."""

    def __init__(self, rows: Iterable[Mapping] = ()):
        self._rows: dict = {}  # pivot key -> integer row
        for row in rows:
            self.add(row)

    def _reduce(self, row: dict) -> dict:
        for pivot in sorted(self._rows):
            coeff = row.get(pivot)
            if not coeff:
                continue
            base = self._rows[pivot]
            p = base[pivot]
            out: dict = {}
            for k in row.keys() | base.keys():
                val = row.get(k, 0) * p - base.get(k, 0) * coeff
                if val:
                    out[k] = val
            row = out
        if not row:
            return row
        g = gcd(*row.values())
        return {k: c // g for k, c in row.items()}

    def add(self, row: Mapping) -> bool:
        """Insert a row; returns True when it enlarged the space."""
        reduced = self._reduce(_integer_row(row))
        if not reduced:
            return False
        pivot = min(reduced)
        self._rows[pivot] = reduced
        return True

    def contains(self, row: Mapping) -> bool:
        return not self._reduce(_integer_row(row))

    @property
    def rank(self) -> int:
        return len(self._rows)
