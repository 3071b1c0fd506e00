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

from typing import Container, Iterable, Optional

from .complexes import Complex
from .errors import BadDimension, NotACycle
from .gf2 import Gf2Solver, _eliminate


def _facet_rows(complex: Complex, p: int, cleared: Container[int] = ()) -> list[int]:
    """Row i = bitmask of the facets of p-cell i over the (p-1)-cells; 0 for
    the cells in `cleared`."""
    rows = []
    for i, facets in enumerate(complex.facets_of(p)):
        acc = 0
        if i not in cleared:
            for f in facets:
                acc ^= 1 << f
        rows.append(acc)
    return rows


def boundary_of(complex: Complex, p: int, chain: int) -> int:
    """The boundary of a p-chain, both bitmasks over cell ids (0 for p = 0)."""
    acc = 0
    if p >= 1 and chain:
        facets = complex.facets_of(p)
        while chain:
            low = chain & -chain
            for f in facets[low.bit_length() - 1]:
                acc ^= 1 << f
            chain ^= low
    return acc


class HomologyCalculator:
    """Ranks, d o d = 0 verdicts and boundary solvers of one complex.

    `_reduce` runs on first use, from the top dimension down.  For each p it
    takes the verdict d_{p-1} o d_p = 0, sets to zero the rows of the
    p-cells that are pivot keys of the reduced d_{p+1} (see the module
    docstring for why the rank does not change), and eliminates once.  The
    lemma needs d_p o d_{p+1} = 0, which a valid complex need not satisfy
    (two faces of one 3-cell may name parallel 1-cells), so dimension p is
    cleared only when `squares_to_zero(p + 1)` holds; when it fails every
    row is reduced.  Ranks thus equal the plain ranks on every input.  A
    cleared row keeps its index and never becomes a pivot, so `solver(p)` on
    the cleared matrix still answers with bitmasks over the original p-cell
    ids.

    The verdict is a lemma when the complex's `validate()` report is
    already made and passes and its (p-2)-cells have pairwise distinct
    vertex tuples; layer 0 always has, since 0-cell i sits on vertex i.
    Proof: a lawful p-cell c has p+1 distinct vertices and p+1 distinct
    facets, whose vertex sets are exactly the one-vertex deletions of c's,
    and each facet's p facets are likewise on the p distinct one-vertex
    deletions of its own vertex set.  A (p-1)-subset T of c's vertices, the
    deletion of v and w, is reached through exactly two facets of c, those
    on the deletions of v and of w, and each has exactly one facet on T.
    Vertex tuples of lawful cells are sorted, so distinct tuples are
    distinct sets, and both reach the one (p-2)-cell on T; nothing else is
    reached.  So every (p-2)-cell occurs an even number of times in the
    boundary of the boundary of c, and d_{p-1} o d_p = 0.  The facet rows of
    the (p-1)-cells are then made only after d_p is reduced, and only for
    the rows that clearing keeps.  Every other complex, one with parallel
    (p-2)-cells, a quotient or one with no verdict in hand, gets the parity
    pass `_squares_to_zero` on the unreduced facet rows of the (p-1)-cells.
    """

    def __init__(self, complex: Complex) -> None:
        self.complex = complex
        self._square_zero: dict[int, bool] = {}
        self._rows: dict[int, list[int]] = {}
        self._ranks: Optional[dict[int, int]] = None
        self._solvers: dict[int, Gf2Solver] = {}

    def _reduce(self) -> dict[int, int]:
        """The rank of d_p for p = dim..1; fills the d o d = 0 verdicts and
        the cleared facet rows on the way, once per calculator."""
        if self._ranks is None:
            complex = self.complex
            self._ranks = {}
            lawful = complex._report is not None and complex._report.ok
            keys: list[int] = []  # pivot keys of d_{p+1}: key c is the p-cell c - 1
            rows = _facet_rows(complex, complex.dim) if complex.dim >= 1 else []
            for p in range(complex.dim, 0, -1):
                below = None
                if p >= 2:
                    # d_{p-1} o d_p = 0 by the cell law (see above), or else
                    # by the parity pass on the unreduced rows of d_{p-1}.
                    lower = complex.vertices_of(p - 2)
                    if not (lawful and len(set(lower)) == len(lower)):
                        below = _facet_rows(complex, p - 1)
                    self._square_zero[p] = below is None or _squares_to_zero(complex.facets_of(p), below)
                if self._square_zero.get(p + 1, True):
                    for c in keys:
                        rows[c - 1] = 0
                self._rows[p] = rows
                keys = list(_eliminate(rows)[0])
                self._ranks[p] = len(keys)
                if p >= 2 and below is None:
                    below = _facet_rows(complex, p - 1, {c - 1 for c in keys})
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
        (p-cells as rows, (p-1)-cells as bits, cleared rows zero; no rows
        outside 1..dim)."""
        if p not in self._solvers:
            self._reduce()
            self._solvers[p] = Gf2Solver(self._rows.get(p, ()))
        return self._solvers[p]

    def betti(self, p: int) -> int:
        if not 0 <= p <= self.complex.dim:
            raise BadDimension(f"no {p}-chains in a dim-{self.complex.dim} complex")
        dim_cycles = self.complex.n_cells(p) - self.rank(p)
        dim_boundaries = self.rank(p + 1)
        return dim_cycles - dim_boundaries

    def all_betti(self) -> tuple[int, ...]:
        return tuple(self.betti(p) for p in range(self.complex.dim + 1))

    def is_boundary(self, p: int, chain: int) -> Optional[int]:
        """A witness (p+1)-chain whose boundary is the p-cycle `chain`, or None.

        Chains are bitmasks over cell ids.  The zero chain always bounds
        (witness 0); nothing else bounds at or above the top dimension.
        Raises NotACycle when the input has non-zero boundary.  When several
        (p+1)-chains bound the input, the witness is one of them, the same
        on every call for a given complex and chain.
        """
        if boundary_of(self.complex, p, chain):
            raise NotACycle(f"{p}-chain has non-zero boundary")
        if not chain:
            return 0
        if p >= self.complex.dim:
            return None
        return self.solver(p + 1).solve(chain)


def _squares_to_zero(facet_lists: Iterable[tuple[int, ...]], facet_masks: list[int]) -> bool:
    """For each cell's facet list, the masks of its facets XOR to zero."""
    for facets in facet_lists:
        acc = 0
        for f in facets:
            acc ^= facet_masks[f]
        if acc:
            return False
    return True


def boundary_squares_to_zero(complex: Complex, p: int) -> bool:
    """The composition of consecutive boundary operators is zero (mod 2).

    By parity: for each p-cell, the facet masks of its facets XOR to zero.
    """
    return not 2 <= p <= complex.dim or _squares_to_zero(complex.facets_of(p), _facet_rows(complex, p - 1))

