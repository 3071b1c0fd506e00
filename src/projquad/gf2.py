"""Dense GF(2) linear algebra on bit-packed rows.

Each row of a matrix is one Python int; column j is bit j, so adding two rows
is one word-parallel XOR.  Rank, `Gf2Solver` and `kernel_basis` share one
elimination: each row is reduced against a dict of pivot rows keyed by the
position of their lowest set bit, the scheme of persistent-homology codes such
as PHAT (Bauer, Kerber, Reininghaus & Wagner 2017).  A row thus costs one
dict lookup per reduction step, with no search over the other rows.
`HomologyCalculator` reads the pivot keys of that elimination to clear rows.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence


class BitMatrix:
    """rows x cols matrix over GF(2); row i is the int `data[i]`."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Optional[Sequence[int]] = None) -> None:
        self.rows = rows
        self.cols = cols
        self.data: list[int] = list(data) if data is not None else [0] * rows
        if len(self.data) != rows:
            raise ValueError(f"expected {rows} rows, got {len(self.data)}")

    def get(self, i: int, j: int) -> int:
        return (self.data[i] >> j) & 1

    def transpose(self) -> "BitMatrix":
        out = [0] * self.cols
        for i, r in enumerate(self.data):
            bit = 1 << i
            while r:
                j = (r & -r).bit_length() - 1
                out[j] |= bit
                r &= r - 1
        return BitMatrix(self.cols, self.rows, out)

    def to_lists(self) -> list[list[int]]:
        return [[(r >> j) & 1 for j in range(self.cols)] for r in self.data]

    @classmethod
    def from_lists(cls, rows: Iterable[Iterable[int]], cols: Optional[int] = None) -> "BitMatrix":
        data = []
        width = 0
        for row in rows:
            acc = 0
            n = 0
            for j, x in enumerate(row):
                if x & 1:
                    acc |= 1 << j
                n = j + 1
            width = max(width, n)
            data.append(acc)
        return cls(len(data), cols if cols is not None else width, data)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self.data == other.data

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols})"


def _eliminate(rows: Iterable[int], track: bool = False) -> tuple[dict[int, int], dict[int, int], list[int]]:
    """Reduce the rows in order against a table of pivot rows.

    The table maps the position of a pivot row's lowest set bit, counted
    from 1 as `(r & -r).bit_length()`, to that row; keying by the position
    rather than by the power of two keeps the hashed keys small.  A row is
    XORed with the pivot at its lowest bit until it either finds a free slot
    and becomes a pivot or reaches zero.  With `track`, the second dict gives
    each pivot's combination of the input rows (a bitmask over row indices)
    and the list holds the combinations of the rows that reached zero;
    otherwise both are empty.
    """
    pivots: dict[int, int] = {}
    combos: dict[int, int] = {}
    zeros: list[int] = []
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
        else:
            if track:
                zeros.append(x)
    return pivots, combos, zeros


def rank_gf2(matrix: BitMatrix) -> int:
    """Rank over GF(2): the number of pivots of the elimination."""
    return len(_eliminate(matrix.data)[0])


class Gf2Solver:
    """Eliminate A once, then answer `solve(b)` queries for x with x·A = b.

    The rows of A are the generating set.  The elimination keeps each pivot
    row together with its combination of the rows of A, so a query XORs the
    pivot at b's lowest set bit into b until b is zero, or fails when no
    pivot has that lowest bit.  The witness is one fixed solution among
    possibly many, determined by A and b alone.
    """

    def __init__(self, matrix: BitMatrix) -> None:
        self.matrix = matrix
        self._pivots, self._combos, _ = _eliminate(matrix.data, track=True)
        self.rank = len(self._pivots)

    def solve(self, b: int) -> Optional[int]:
        """Return x (bitmask over matrix rows) with x·A = b, or None."""
        x = 0
        while b:
            c = (b & -b).bit_length()
            p = self._pivots.get(c)
            if p is None:
                return None
            b ^= p
            x ^= self._combos[c]
        return x


def kernel_basis(matrix: BitMatrix) -> list[int]:
    """Basis of {x : x·A = 0}, x as bitmasks over rows of A.

    One vector per row that the elimination reduces to zero, in row order.
    """
    return _eliminate(matrix.data, track=True)[2]
