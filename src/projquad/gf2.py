"""Dense GF(2) linear algebra on bit-packed rows.

A matrix is a list of Python ints, one per row; column j is bit j, so adding
two rows is one word-parallel XOR.  Rank and `Gf2Solver` share one
elimination: each row is reduced against a dict of pivot rows keyed by the
position of their lowest set bit, the scheme of persistent-homology codes such
as PHAT (Bauer, Kerber, Reininghaus & Wagner 2017).  A row thus costs one
dict lookup per reduction step, with no search over the other rows.
`HomologyCalculator` reads the pivot keys of that elimination to clear rows.
"""

from __future__ import annotations

from typing import Iterable, Optional


def _eliminate(rows: Iterable[int], track: bool = False) -> tuple[dict[int, int], dict[int, int]]:
    """Reduce the rows in order against a table of pivot rows.

    The table maps the position of a pivot row's lowest set bit, counted
    from 1 as `(r & -r).bit_length()`, to that row; keying by the position
    rather than by the power of two keeps the hashed keys small.  A row is
    XORed with the pivot at its lowest bit until it either finds a free slot
    and becomes a pivot or reaches zero.  With `track`, the second dict gives
    each pivot's combination of the input rows (a bitmask over row indices);
    otherwise it is empty.
    """
    pivots: dict[int, int] = {}
    combos: dict[int, int] = {}
    for i, r in enumerate(rows):
        x = 1 << i if track else 0
        while r:
            c = (r & -r).bit_length()
            p = pivots.get(c)
            if p is None:
                pivots[c] = r
                if track:
                    combos[c] = x
                break
            r ^= p
            if track:
                x ^= combos[c]
    return pivots, combos


def rank_gf2(rows: Iterable[int]) -> int:
    """Rank over GF(2) of the rows: the number of pivots of the elimination."""
    return len(_eliminate(rows)[0])


class Gf2Solver:
    """Eliminate the rows of A once, then answer `solve(b)` queries for x
    with x·A = b.

    The rows of A are the generating set.  The elimination keeps each pivot
    row together with its combination of the rows of A, so a query XORs the
    pivot at b's lowest set bit into b until b is zero, or fails when no
    pivot has that lowest bit.  The witness is one fixed solution among
    possibly many, determined by A and b alone.
    """

    def __init__(self, rows: Iterable[int]) -> None:
        self._pivots, self._combos = _eliminate(rows, track=True)
        self.rank = len(self._pivots)

    def solve(self, b: int) -> Optional[int]:
        """Return x (bitmask over the rows of A) with x·A = b, or None."""
        x = 0
        while b:
            c = (b & -b).bit_length()
            p = self._pivots.get(c)
            if p is None:
                return None
            b ^= p
            x ^= self._combos[c]
        return x
