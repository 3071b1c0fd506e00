"""Mod-2 chain complexes, Betti numbers, and boundary-membership queries."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .complexes import Complex
from .errors import BadDimension, DimensionMismatch, NotACycle
from .gf2 import BitMatrix, Gf2Solver, rank_gf2


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
    """Caches facet-row matrices, ranks, and solvers for one complex."""

    def __init__(self, complex: Complex) -> None:
        self.complex = complex
        self._rows: dict[int, BitMatrix] = {}
        self._ranks: dict[int, int] = {}
        self._solvers: dict[int, Gf2Solver] = {}

    def _facet_matrix(self, p: int) -> BitMatrix:
        """Rows = p-cells, columns = (p-1)-cells (transpose of boundary_matrix)."""
        if p not in self._rows:
            if 1 <= p <= self.complex.dim:
                self._rows[p] = BitMatrix(
                    self.complex.n_cells(p), self.complex.n_cells(p - 1), _facet_rows(self.complex, p)
                )
            else:
                rows = self.complex.n_cells(p) if 0 <= p <= self.complex.dim else 0
                cols = self.complex.n_cells(p - 1) if 1 <= p <= self.complex.dim + 1 else 0
                self._rows[p] = BitMatrix(rows, cols)
        return self._rows[p]

    def rank(self, p: int) -> int:
        """Rank of the boundary operator on p-chains (0 outside 1..dim)."""
        if p not in self._ranks:
            self._ranks[p] = rank_gf2(self._facet_matrix(p))
        return self._ranks[p]

    def solver(self, p: int) -> Gf2Solver:
        """Solver for x·F = b where rows of F are boundaries of p-cells."""
        if p not in self._solvers:
            self._solvers[p] = Gf2Solver(self._facet_matrix(p))
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


def boundary_squares_to_zero(complex: Complex, p: int) -> bool:
    """The composition of consecutive boundary operators is zero (mod 2).

    By parity: for each p-cell, the facet masks of its facets XOR to zero.
    """
    if p < 2 or p > complex.dim:
        return True
    facet_masks = _facet_rows(complex, p - 1)
    for cell in complex.cells_of(p):
        acc = 0
        for f in cell.facets:
            acc ^= facet_masks[f]
        if acc:
            return False
    return True


def edge_chain(cell_ids: Iterable[int]) -> ChainZ2:
    """Mod-2 sum of the given 1-cells (repeated ids cancel)."""
    support: set[int] = set()
    for i in cell_ids:
        support ^= {i}
    return ChainZ2(1, frozenset(support))
