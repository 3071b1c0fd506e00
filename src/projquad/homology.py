"""Mod-2 chain complexes, Betti numbers, and boundary-membership queries.

Ranks of boundary operators use clearing, the "twist" of Chen & Kerber
("Persistent homology computation with a twist", 2011), as in PHAT (Bauer,
Kerber, Reininghaus & Wagner 2017).  Eliminate the facet rows of d_{p+1}
((p+1)-cells as rows, p-cells as bits).  Each pivot row is a sum of rows, so
a p-boundary, and its lowest bit is a p-cell s.  When d_p o d_{p+1} = 0, the
d_p row of s is the sum of the d_p rows of the higher-indexed p-cells in that
boundary.  The pivot keys are distinct, so by downward induction over the
p-cells the rows of d_p that are not pivot keys of d_{p+1} span the same
space as all its rows.  The rows of the pivot keys can therefore be set to
zero before d_p is reduced, and the rank does not change; reduced, they would
only have reached zero, often after many XORs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .complexes import Cell, Complex
from .errors import BadDimension, DimensionMismatch, NotACycle
from .gf2 import BitMatrix, Gf2Solver, _eliminate


@dataclass(frozen=True)
class ChainZ2:
    """A mod-2 p-chain: the set of p-cell ids appearing with coefficient 1."""

    dim: int
    support: frozenset[int]

    def __xor__(self, other: "ChainZ2") -> "ChainZ2":
        if self.dim != other.dim:
            raise DimensionMismatch(f"chain dims {self.dim} != {other.dim}")
        return ChainZ2(self.dim, self.support ^ other.support)

    @property
    def is_zero(self) -> bool:
        return not self.support

    def to_mask(self) -> int:
        acc = 0
        for i in self.support:
            acc |= 1 << i
        return acc

    @classmethod
    def from_mask(cls, dim: int, mask: int) -> "ChainZ2":
        support = set()
        while mask:
            support.add((mask & -mask).bit_length() - 1)
            mask &= mask - 1
        return cls(dim, frozenset(support))


def _facet_rows(complex: Complex, p: int) -> list[int]:
    """Row i = bitmask of the facets of p-cell i over the (p-1)-cells."""
    rows = []
    for cell in complex.cells_of(p):
        acc = 0
        for f in cell.facets:
            acc ^= 1 << f
        rows.append(acc)
    return rows


def boundary_matrix(complex: Complex, p: int) -> BitMatrix:
    """The mod-2 boundary operator on p-chains, rows = (p-1)-cells, cols = p-cells.

    Entry (i, j) is 1 iff (p-1)-cell i appears in the facet list of p-cell j.
    """
    if not 1 <= p <= complex.dim:
        raise BadDimension(f"boundary matrix needs 1 <= p <= {complex.dim}, got {p}")
    by_cell = BitMatrix(complex.n_cells(p), complex.n_cells(p - 1), _facet_rows(complex, p))
    return by_cell.transpose()


def boundary_of(complex: Complex, chain: ChainZ2) -> ChainZ2:
    if chain.dim == 0:
        return ChainZ2(-1, frozenset())
    acc = 0
    for i in chain.support:
        for f in complex.cell(chain.dim, i).facets:
            acc ^= 1 << f
    return ChainZ2.from_mask(chain.dim - 1, acc)


class HomologyCalculator:
    """Ranks, d o d = 0 verdicts and boundary solvers of one complex.

    `_reduce` runs on first use, from the top dimension down.  For each p it
    checks d_{p-1} o d_p = 0 on the unreduced facet rows of the (p-1)-cells,
    sets to zero the rows of the p-cells that are pivot keys of the reduced
    d_{p+1} (see the module docstring for why the rank does not change), and
    eliminates once.  The lemma needs d_p o d_{p+1} = 0, which a valid
    complex need not satisfy (two faces of one 3-cell may name parallel
    1-cells), so dimension p is cleared only when `squares_to_zero(p + 1)`
    holds; when it fails every row is reduced.  Ranks thus equal the plain
    ranks on every input.  A cleared row keeps its index and never becomes a
    pivot, so `solver(p)` on the cleared matrix still answers with bitmasks
    over the original p-cell ids.
    """

    def __init__(self, complex: Complex) -> None:
        self.complex = complex
        self._square_zero: dict[int, bool] = {}
        self._rows: dict[int, BitMatrix] = {}
        self._ranks: Optional[dict[int, int]] = None
        self._solvers: dict[int, Gf2Solver] = {}

    def _reduce(self) -> dict[int, int]:
        """The rank of d_p for p = dim..1; fills the d o d = 0 verdicts and
        the cleared facet-row matrices on the way, once per calculator."""
        if self._ranks is None:
            complex = self.complex
            self._ranks = {}
            keys: list[int] = []  # pivot keys of d_{p+1}: key c is the p-cell c - 1
            rows = _facet_rows(complex, complex.dim) if complex.dim >= 1 else []
            for p in range(complex.dim, 0, -1):
                below = _facet_rows(complex, p - 1) if p >= 2 else []
                if p >= 2:
                    self._square_zero[p] = _squares_to_zero(complex.cells_of(p), below)
                if self._square_zero.get(p + 1, True):
                    for c in keys:
                        rows[c - 1] = 0
                self._rows[p] = BitMatrix(complex.n_cells(p), complex.n_cells(p - 1), rows)
                keys = list(_eliminate(rows)[0])
                self._ranks[p] = len(keys)
                rows = below
        return self._ranks

    def squares_to_zero(self, p: int) -> bool:
        """Whether d_{p-1} o d_p = 0 (true outside 2..dim); the
        boundary-operator audit and the clearing of dimension p - 1 both
        read the one verdict."""
        self._reduce()
        return self._square_zero.get(p, True)

    def rank(self, p: int) -> int:
        """Rank of the boundary operator on p-chains (0 outside 1..dim)."""
        return self._reduce().get(p, 0)

    def solver(self, p: int) -> Gf2Solver:
        """Solver for x·F = b where rows of F are boundaries of p-cells
        (p-cells as rows, (p-1)-cells as columns, cleared rows zero)."""
        if p not in self._solvers:
            self._reduce()
            n = self.complex.n_cells
            self._solvers[p] = Gf2Solver(self._rows[p] if p in self._rows else BitMatrix(n(p), n(p - 1)))
        return self._solvers[p]

    def betti(self, p: int) -> int:
        if not 0 <= p <= self.complex.dim:
            raise BadDimension(f"no {p}-chains in a dim-{self.complex.dim} complex")
        dim_cycles = self.complex.n_cells(p) - self.rank(p)
        dim_boundaries = self.rank(p + 1)
        return dim_cycles - dim_boundaries

    def all_betti(self) -> tuple[int, ...]:
        return tuple(self.betti(p) for p in range(self.complex.dim + 1))

    def is_cycle(self, chain: ChainZ2) -> bool:
        return boundary_of(self.complex, chain).is_zero

    def is_boundary(self, chain: ChainZ2) -> Optional[ChainZ2]:
        """A witness (p+1)-chain with boundary equal to the input cycle, or None.

        The zero chain always bounds (empty witness).  Raises NotACycle when
        the input has non-zero boundary.  When several (p+1)-chains bound the
        input, the witness is one of them, the same on every call for a given
        complex and chain.
        """
        if not self.is_cycle(chain):
            raise NotACycle(f"{chain.dim}-chain has non-zero boundary")
        p = chain.dim
        if chain.is_zero:
            return ChainZ2(p + 1, frozenset())
        if p >= self.complex.dim:
            return None
        x = self.solver(p + 1).solve(chain.to_mask())
        if x is None:
            return None
        return ChainZ2.from_mask(p + 1, x)

    def homologous(self, a: ChainZ2, b: ChainZ2) -> bool:
        if a.dim != b.dim:
            raise DimensionMismatch(f"chain dims {a.dim} != {b.dim}")
        for c in (a, b):
            if not self.is_cycle(c):
                raise NotACycle(f"{c.dim}-chain has non-zero boundary")
        return self.is_boundary(a ^ b) is not None


def betti_z2(complex: Complex, p: int) -> int:
    return HomologyCalculator(complex).betti(p)


def all_betti_z2(complex: Complex) -> tuple[int, ...]:
    return HomologyCalculator(complex).all_betti()


def is_boundary(complex: Complex, chain: ChainZ2) -> Optional[ChainZ2]:
    return HomologyCalculator(complex).is_boundary(chain)


def homologous(complex: Complex, c1: ChainZ2, c2: ChainZ2) -> bool:
    return HomologyCalculator(complex).homologous(c1, c2)


def _squares_to_zero(cells: Iterable[Cell], facet_masks: list[int]) -> bool:
    """For each cell, the masks of its facets XOR to zero."""
    for cell in cells:
        acc = 0
        for f in cell.facets:
            acc ^= facet_masks[f]
        if acc:
            return False
    return True


def boundary_squares_to_zero(complex: Complex, p: int) -> bool:
    """The composition of consecutive boundary operators is zero (mod 2).

    By parity: for each p-cell, the facet masks of its facets XOR to zero.
    """
    return not 2 <= p <= complex.dim or _squares_to_zero(complex.cells_of(p), _facet_rows(complex, p - 1))


def edge_chain(cell_ids: Iterable[int]) -> ChainZ2:
    """Mod-2 sum of the given 1-cells (repeated ids cancel)."""
    support: set[int] = set()
    for i in cell_ids:
        support ^= {i}
    return ChainZ2(1, frozenset(support))
