"""Generalized simplicial complexes with explicit facet incidence.

Cells carry their own facet lists, so two distinct cells may share a vertex
set (parallel cells); this is what antipodal quotients produce.  A complex is
immutable once built, so its `validate()` report is kept once made.
"""

from __future__ import annotations

import marshal
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, repeat
from json.encoder import encode_basestring_ascii
from math import inf
from operator import attrgetter, itemgetter, lt
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import (
    BadDimension,
    BadParameters,
    DanglingFacet,
    DuplicateVertexInCell,
    FacetCoverageError,
    ParseError,
    UnknownVertex,
    VertexArityMismatch,
)
from .validation import ValidationReport, Violation

VertexId = int
CellKey = tuple[int, int]  # (dim, id)


@dataclass(frozen=True, slots=True, init=False)
class Cell:
    """A cell is its vertices and its facets; its dimension is its layer in
    the complex and its id its position in that layer.  Two parallel cells
    are equal values at distinct positions, so no code hashes cells or finds
    one by value.

    A frozen value: fields cannot be assigned, and equality, hash, repr,
    `dataclasses.replace`, copies and pickles are the dataclass's own.
    `__init__` stores through the slot descriptors of the decorated class
    (`_SET_FIELDS`).  The generated one calls `object.__setattr__` once per
    field to get past the frozen `__setattr__`, at about twice the cost.
    """

    vertices: tuple[VertexId, ...]  # sorted, length dim+1, distinct
    facets: tuple[int, ...]  # ids of (dim-1)-cells, length dim+1; empty for dim 0

    def __init__(self, vertices: tuple[VertexId, ...], facets: tuple[int, ...]) -> None:
        set_vertices, set_facets = _SET_FIELDS
        set_vertices(self, vertices)
        set_facets(self, facets)


_SET_FIELDS = tuple(Cell.__dict__[name].__set__ for name in ("vertices", "facets"))


def _cell_violations(d: int, i: int, cell: Cell, n_vertices: int, lower_cells: Sequence[Cell]) -> tuple[Violation, ...]:
    """How the d-cell at position i breaks the cell law, given the vertex
    count and the cells one dimension down; empty for a lawful cell.

    A d-cell has d+1 distinct, sorted, known vertices, the 0-cell at
    position i sits on vertex i and has no facets, and a d-cell with d >= 1
    has d+1 distinct existing facets whose vertex sets are exactly its
    d-subsets.

    An accept test runs first.  A 0-cell passes it when its vertices are
    `(i,)` with 0 <= i < n_vertices and its facets are `()`.  A d-cell with
    d >= 1 passes it when its d+1 vertices strictly increase inside
    [0, n_vertices), its d+1 facet ids lie in range, and the sorted vertex
    tuples of its facets equal the d+1 one-vertex deletions of its vertex
    tuple (`combinations(vs, d)`, which lists them in sorted order).
    Passing implies every rule: the deletions are distinct, so the facets
    are too, and equal tuples are equal vertex sets.  A cell that fails the
    test goes through `_rule_chain`, which gives the verdict; a lawful cell
    can fail the test, say when a cell below it lists its vertices
    unsorted.
    """
    vs, fs = cell.vertices, cell.facets
    try:
        if d == 0:
            if vs == (i,) and fs == () and 0 <= i < n_vertices:
                return ()
        elif (
            d > 0
            and len(vs) == d + 1
            and len(fs) == d + 1
            and 0 <= vs[0]
            and vs[-1] < n_vertices
            and all(map(lt, vs, vs[1:]))
            and 0 <= min(fs)
            and max(fs) < len(lower_cells)
            and sorted([lower_cells[f].vertices for f in fs]) == list(combinations(vs, d))
        ):
            return ()
    except TypeError:
        pass  # values that do not compare: the chain judges them, or raises as it always has
    return tuple(_rule_chain(d, i, cell, n_vertices, lower_cells))


def _rule_chain(d: int, i: int, cell: Cell, n_vertices: int, lower_cells: Sequence[Cell]) -> Iterator[Violation]:
    """The cell law rule by rule, as `_cell_violations` reports it for a
    cell that fails the accept test.  Only an unsorted vertex tuple lets the
    later rules be checked too."""
    vs, fs = cell.vertices, cell.facets
    if len(vs) != d + 1:
        yield Violation("VertexArityMismatch", d, i, f"{len(vs)} vertices")
        return
    vset = frozenset(vs)
    if len(vset) != d + 1:
        yield Violation("DuplicateVertexInCell", d, i, str(vs))
        return
    if list(vs) != sorted(vs):
        yield Violation("UnsortedVertices", d, i, str(vs))
    if min(vs) < 0 or max(vs) >= n_vertices:
        yield Violation("UnknownVertex", d, i, str(vs))
    elif d == 0:
        if i != vs[0]:
            yield Violation("VertexCellMismatch", d, i, "0-cell id differs from vertex id")
        if fs:
            yield Violation("VertexArityMismatch", d, i, f"{len(fs)} facets")
    elif len(fs) != d + 1:
        yield Violation("VertexArityMismatch", d, i, f"{len(fs)} facets")
    elif len(set(fs)) != d + 1:
        yield Violation("DuplicateFacet", d, i, str(fs))
    elif min(fs) < 0 or max(fs) >= len(lower_cells):
        yield Violation("DanglingFacet", d, i, str(fs))
    else:
        # d+1 distinct d-subsets of a (d+1)-set are all of its d-subsets.
        got = {frozenset(lower_cells[f].vertices) for f in fs}
        if len(got) != d + 1 or any(len(s) != d or not s <= vset for s in got):
            yield Violation("FacetCoverageViolation", d, i, "facets do not realize the p-subsets")


# The exception ComplexBuilder.add_cell raises for the first broken rule.
_BUILDER_ERRORS = {
    "VertexArityMismatch": VertexArityMismatch,
    "DuplicateVertexInCell": DuplicateVertexInCell,
    "UnknownVertex": UnknownVertex,
    "DuplicateFacet": FacetCoverageError,
    "DanglingFacet": DanglingFacet,
    "FacetCoverageViolation": FacetCoverageError,
}


def face_closure(complex: Complex | ComplexBuilder, cells: Iterable[CellKey]) -> dict[int, set[int]]:
    """The given (dim, id) cells with all their faces, as {dim: ids} for
    every dim from 0 to the highest given one ({} when none is given).

    Walks facet lists one dimension at a time and reads only `.cell(d, i)`,
    so a Complex and a ComplexBuilder serve alike.
    """
    roots = list(cells)
    top = max(roots)[0] if roots else -1
    out: list[set[int]] = [set() for _ in range(top + 1)]
    for d, i in roots:
        out[d].add(i)
    cell = complex.cell
    for d in range(top, 0, -1):
        below = out[d - 1]
        for i in out[d]:
            below.update(cell(d, i).facets)
    return dict(enumerate(out))


def boundary_cells(complex: Complex) -> dict[int, frozenset[int]]:
    """The face closure of the top-dimension-minus-one cells with one cofacet,
    as {dim: ids} for every dim below the top (dim 0 for a 0-complex).

    Found once per complex and then shared, like `maximal_cells`.  It reads
    facet ids, so it needs a complex whose facets lie in range.
    """
    if complex._boundary is None:
        n = complex.dim
        counts = complex.cofacet_counts(n - 1) if n >= 1 else ()
        closure = face_closure(complex, ((n - 1, i) for i, k in enumerate(counts) if k == 1))
        complex._boundary = {d: frozenset(closure.get(d, ())) for d in range(max(n, 1))}
    return complex._boundary


class Complex:
    """Immutable generalized simplicial complex.

    `cells_of(d)` returns the d-cells; the d-cell at position i of that
    layer is the d-cell of id i, so ids are dense per dimension.  On a
    complex that passes `validate()`, the 0-cell at position v sits on
    vertex v.
    """

    def __init__(
        self,
        cells: Sequence[Sequence[Cell]],
        labels: Sequence[Optional[str]],
        coords: Optional[Sequence[Optional[tuple[float, ...]]]] = None,
    ) -> None:
        self._cells: tuple[tuple[Cell, ...], ...] = tuple(tuple(layer) for layer in cells)
        self._labels: tuple[Optional[str], ...] = tuple(labels)
        self._coords: Optional[tuple[Optional[tuple[float, ...]], ...]] = (
            tuple(tuple(c) if c is not None else None for c in coords) if coords is not None else None
        )
        self._maximal: Optional[tuple[CellKey, ...]] = None
        self._boundary: Optional[dict[int, frozenset[int]]] = None
        self._cofacet_counts: dict[int, tuple[int, ...]] = {}
        self._report: Optional[ValidationReport] = None

    # ---- basic accessors ----

    @property
    def dim(self) -> int:
        return len(self._cells) - 1

    @property
    def n_vertices(self) -> int:
        return len(self._labels)

    def n_cells(self, d: int) -> int:
        return len(self._cells[d]) if 0 <= d <= self.dim else 0

    def cells_of(self, d: int) -> tuple[Cell, ...]:
        return self._cells[d]

    def cell(self, d: int, i: int) -> Cell:
        return self._cells[d][i]

    def label(self, v: VertexId) -> Optional[str]:
        return self._labels[v]

    @property
    def labels(self) -> tuple[Optional[str], ...]:
        return self._labels

    def coords(self, v: VertexId) -> Optional[tuple[float, ...]]:
        return self._coords[v] if self._coords is not None else None

    @property
    def has_coords(self) -> bool:
        return self._coords is not None and all(c is not None for c in self._coords)

    def vertex_ids(self) -> range:
        return range(self.n_vertices)

    # ---- derived structure ----

    def cofacet_counts(self, d: int) -> tuple[int, ...]:
        """For each d-cell, the number of (d+1)-cells having it as a facet."""
        if d not in self._cofacet_counts:
            counts = [0] * self.n_cells(d)
            if d + 1 <= self.dim:
                for cell in self._cells[d + 1]:
                    for f in cell.facets:
                        counts[f] += 1
            self._cofacet_counts[d] = tuple(counts)
        return self._cofacet_counts[d]

    def maximal_cells(self) -> tuple[CellKey, ...]:
        """Cells that are not a facet of any other cell, as (dim, id) keys."""
        if self._maximal is None:
            keys: list[CellKey] = []
            for d in range(self.dim + 1):
                counts = self.cofacet_counts(d)
                keys.extend((d, i) for i, k in enumerate(counts) if k == 0)
            self._maximal = tuple(keys)
        return self._maximal

    # ---- subcomplexes ----

    def subcomplex(self, cells: dict[int, Iterable[int]]) -> tuple["Complex", dict[int, dict[int, int]]]:
        """Extract the subcomplex on the given cell ids (must be facet-closed).

        Ids are re-densified; returns the new complex and the old->new id maps
        per dimension.  Dimension 0 of `cells` drives the new vertex set.
        """
        top = max((d for d, ids in cells.items() if ids), default=0)
        id_map: dict[int, dict[int, int]] = {}
        for d in range(top + 1):
            old_ids = sorted(cells.get(d, ()))
            id_map[d] = {old: new for new, old in enumerate(old_ids)}
        vert_map = id_map[0]
        labels = [self._labels[v] for v in sorted(vert_map)]
        coords = [self._coords[v] for v in sorted(vert_map)] if self._coords is not None else None
        new_cells: list[list[Cell]] = []
        for d in range(top + 1):
            layer: list[Cell] = []
            for old in sorted(id_map[d]):
                c = self._cells[d][old]
                verts = tuple(sorted(vert_map[v] for v in c.vertices))
                facets = tuple(id_map[d - 1][f] for f in c.facets) if d > 0 else ()
                layer.append(Cell(verts, facets))
            new_cells.append(layer)
        return Complex(new_cells, labels, coords), id_map

    # ---- validation ----

    def _violations(self, pairing: Optional[Callable[[int], dict[int, int]]] = None) -> Iterator[Violation]:
        """The label, 0-cell-count and cell-law violations, lazily.  The cell
        law is judged on every cell, or, given the pairing of each layer, on
        the lower-id cell of each pair."""
        seen_labels: dict[str, int] = {}
        for v, lab in enumerate(self._labels):
            if lab is not None:
                if lab in seen_labels:
                    yield Violation("LabelCollision", 0, v, f"label {lab!r} already used by vertex {seen_labels[lab]}")
                else:
                    seen_labels[lab] = v
        if self.n_cells(0) != self.n_vertices:
            yield Violation("VertexCellMismatch", 0, None, "0-cells do not match vertex set")
        n = self.n_vertices
        for d, layer in enumerate(self._cells):
            lower = self._cells[d - 1] if d else ()
            positions: Iterable[int] = range(len(layer))
            if pairing is not None:
                positions = [i for i, j in pairing(d).items() if i < j]
            for i in positions:
                yield from _cell_violations(d, i, layer[i], n, lower)

    def validate(self) -> ValidationReport:
        """Unique labels, one 0-cell per vertex, and the cell law on every
        cell.  The report is made once: a complex is immutable.  A complex
        from `ComplexBuilder.build` or `symmetry.double` starts with the
        verdict of the cells' making, which is this report (see there), and
        `_validate_by_pairs` can make it from one cell of each antipodal
        pair."""
        if self._report is None:
            self._report = ValidationReport.collect(self._violations())
        return self._report

    def _validate_by_pairs(self, pairing: Callable[[int], dict[int, int]]) -> None:
        """Make the `validate()` report empty when `_violations` finds
        nothing on the lower-id cell of each pair, given `pairing(d)`, the
        pairing of the d-cells, of a full-scope involution that
        `validate_involution` passes on this complex; leave it unmade
        otherwise, so that `validate()` judges every cell.

        The involution check covers every layer, the 0-cells included: each
        pairing is a bijection on its layer whose ids all name cells, and
        each partner's vertices are the sorted image of the lower cell's
        vertices and its facets, as a multiset, the image of the lower
        cell's facets.  So a lawful lower cell has a lawful partner: a
        0-cell on its own vertex i has a partner on vertex j, its own id,
        and j is a vertex, since the 0-cells number as many as the vertices.
        """
        if self._report is not None:
            return
        if next(self._violations(pairing), None) is None:
            self._report = ValidationReport()

    # ---- equality (structural) ----

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Complex):
            return NotImplemented
        return (
            self._cells == other._cells
            and self._labels == other._labels
            and self._coords == other._coords
        )

    def __repr__(self) -> str:
        counts = ",".join(str(len(layer)) for layer in self._cells)
        return f"Complex(dim={self.dim}, cells=[{counts}])"


class ComplexBuilder:
    """Single-writer accumulator; `build()` freezes into a Complex."""

    def __init__(self) -> None:
        self._labels: list[Optional[str]] = []
        self._coords: list[Optional[tuple[float, ...]]] = []
        self._cells: list[list[Cell]] = [[]]
        self._label_set: set[str] = set()
        # Whether every cell so far is lawful (see `build`).
        self._lawful = True
        # Per vertex, the keys of the cells of dimension >= 1 on it, once
        # `star` has made the index.
        self._stars: Optional[list[list[CellKey]]] = None

    @classmethod
    def from_complex(cls, complex: Complex) -> "ComplexBuilder":
        b = cls()
        b._lawful = complex.validate().ok
        b._labels = list(complex.labels)
        b._label_set = {lab for lab in b._labels if lab is not None}
        b._coords = [complex.coords(v) for v in complex.vertex_ids()]
        # A complex with no cell layers still leaves the builder its 0-cell layer.
        b._cells = [list(complex.cells_of(d)) for d in range(complex.dim + 1)] or [[]]
        return b

    @property
    def n_vertices(self) -> int:
        return len(self._labels)

    def n_cells(self, d: int) -> int:
        return len(self._cells[d]) if d < len(self._cells) else 0

    def cell(self, d: int, i: int) -> Cell:
        return self._cells[d][i]

    def cells_of(self, d: int) -> list[Cell]:
        return self._cells[d] if d < len(self._cells) else []

    def fresh_label(self, base: str) -> str:
        lab = base
        while lab in self._label_set:
            lab += "'"
        return lab

    def add_vertex(self, label: Optional[str] = None, coords: Optional[Sequence[float]] = None) -> VertexId:
        if label is not None:
            label = self.fresh_label(label)
            self._label_set.add(label)
        v = len(self._labels)
        self._labels.append(label)
        self._coords.append(tuple(coords) if coords is not None else None)
        self._cells[0].append(Cell((v,), ()))
        if self._stars is not None:
            self._stars.append([])
        return v

    def add_cell(self, dim: int, vertices: Sequence[VertexId], facets: Sequence[int] = ()) -> int:
        if dim < 1:
            raise BadDimension("use add_vertex for 0-cells")
        lower = self._cells[dim - 1] if dim <= len(self._cells) else []
        i = self.n_cells(dim)
        cell = Cell(tuple(sorted(vertices)), tuple(facets))
        for v in _cell_violations(dim, i, cell, self.n_vertices, lower):
            raise _BUILDER_ERRORS[v.code](f"{v.code} in new {dim}-cell: {v.detail}")
        self._append(dim, [cell])
        return i

    def add_cone(
        self, label: Optional[str], coords: Optional[Sequence[float]], cells: dict[int, Iterable[int]]
    ) -> VertexId:
        """Add a fresh apex vertex and the cone from it over `cells`, given
        as {dim: ids} and closed under facets; returns the apex.

        Dimensions are coned lowest first and each in id order.  The cone
        over the 0-cell of vertex v is the 1-cell on v and the apex; the
        cone over a d-cell with d >= 1 is the (d+1)-cell on its vertices and
        the apex, whose facets are the cell and the cones over its facets.

        No cone cell goes through the cell law, since the cone over a lawful
        cell is lawful: the apex is the newest vertex, so it extends the
        cell's sorted, distinct, known vertices to sorted, distinct, known
        ones, and the cell with the cones over its d+1 facets realize the
        d+2 one-vertex deletions, as the facets realize the cell's.  So a
        lawful builder stays lawful, and an unlawful one still hands over no
        verdict (see `build`).  Raises BadParameters and adds nothing when an
        id names no cell or `cells` is not closed under facets.
        """
        apex = self.n_vertices
        new: dict[int, list[Cell]] = {}
        cone_of: dict[int, dict[int, int]] = {}
        for d in sorted(cells):
            ids = sorted(cells[d])
            if not 0 <= d < len(self._cells) or ids and not (0 <= ids[0] and ids[-1] < len(self._cells[d])):
                raise BadParameters(f"cone over {d}-cells that do not exist")
            first = self.n_cells(d + 1)
            cone_of[d] = {i: first + k for k, i in enumerate(ids)}
            if d == 0:
                new[1] = [Cell((v, apex), (v, apex)) for v in ids]
                continue
            below, layer = cone_of.get(d - 1, {}), self._cells[d]
            try:
                new[d + 1] = [Cell((*layer[i].vertices, apex), (i, *map(below.__getitem__, layer[i].facets))) for i in ids]
            except KeyError as exc:
                raise BadParameters(f"cone over {d}-cells whose facet {exc.args[0]} is not in the cone set") from None
        self.add_vertex(label, coords)
        for d, layer in new.items():
            if layer:
                self._append(d, layer)
        return apex

    def _append(self, dim: int, cells: list[Cell]) -> None:
        """Append cells to layer `dim`, and to the star index when there is
        one."""
        while len(self._cells) <= dim:
            self._cells.append([])
        layer = self._cells[dim]
        if self._stars is not None:
            self._index(dim, len(layer), cells)
        layer.extend(cells)

    def _index(self, dim: int, first: int, cells: Iterable[Cell]) -> None:
        """Enter the d-cells numbered from `first` under their vertices."""
        stars = self._stars
        for i, cell in enumerate(cells, first):
            key = (dim, i)
            for v in cell.vertices:
                stars[v].append(key)

    def star(self, v: VertexId, within: set[VertexId]) -> list[CellKey]:
        """The (dim, id) keys of the 0-cell of v, first, and of every other
        cell on v whose vertices all lie in `within`.

        The cells are found through a vertex-star index, which the first
        call makes from the cells so far; later calls of `add_vertex`,
        `add_cell` and `add_cone` extend it, so it lives as long as the
        builder.  Raises BadParameters on a builder that is not lawful,
        whose cells may name vertices that do not exist.
        """
        if self._stars is None:
            if not self._lawful:
                raise BadParameters("a star index needs a lawful builder")
            self._stars = [[] for _ in range(self.n_vertices)]
            for d in range(1, len(self._cells)):
                self._index(d, 0, self._cells[d])
        cells = self._cells
        return [(0, v), *(key for key in self._stars[v] if within.issuperset(cells[key[0]][key[1]].vertices))]

    def build(self) -> Complex:
        """The complex, carrying an empty `validate()` report when every cell
        is lawful: from `from_complex` on a valid complex, or a fresh
        builder, then `add_vertex`, `add_cell` and `add_cone` only.

        That report is what `validate()` would find.  Labels stay unique
        (`fresh_label`), each vertex gets the 0-cell of its id, `add_cell`
        has judged each new cell with `_cell_violations` against the vertex
        count and the layer below at the time, and `add_cone` adds only
        cells that are lawful when its cone set is (see there).  All of
        them only grow by appending, so the verdict stands in the finished
        complex.
        """
        coords = self._coords if any(c is not None for c in self._coords) else None
        complex = Complex(self._cells, self._labels, coords)
        if self._lawful:
            complex._report = ValidationReport()
        return complex


class SimplicialBuilder:
    """Convenience layer for honest simplicial complexes (unique vertex sets).

    `add_simplex` inserts a simplex together with its full face closure,
    reusing faces that already exist.  Unsuitable once parallel cells are
    wanted; the pipelines that need those build cells explicitly.
    """

    def __init__(self) -> None:
        self.builder = ComplexBuilder()
        self._by_vertices: dict[frozenset[int], tuple[int, int]] = {}

    def add_vertex(self, label: Optional[str] = None, coords: Optional[Sequence[float]] = None) -> VertexId:
        v = self.builder.add_vertex(label, coords)
        self._by_vertices[frozenset((v,))] = (0, v)
        return v

    def add_simplex(self, vertices: Sequence[int]) -> tuple[int, int]:
        verts = tuple(sorted(set(vertices)))
        if len(verts) != len(tuple(vertices)):
            raise DuplicateVertexInCell(str(tuple(vertices)))
        key = frozenset(verts)
        if key in self._by_vertices:
            return self._by_vertices[key]
        dim = len(verts) - 1
        if dim == 0:
            raise UnknownVertex("vertices must be added with add_vertex first")
        facet_ids = []
        for sub in combinations(verts, dim):
            d, i = self.add_simplex(sub) if len(sub) > 1 else (0, sub[0])
            facet_ids.append(i)
        cell_id = self.builder.add_cell(dim, verts, facet_ids)
        self._by_vertices[key] = (dim, cell_id)
        return (dim, cell_id)

    def id_of(self, vertices: Iterable[int]) -> int:
        """The id of the cell on exactly these vertices; KeyError when no
        cell on them was added."""
        return self._by_vertices[frozenset(vertices)][1]

    def build(self) -> Complex:
        return self.builder.build()


# ---- JSON interchange ----

def _vertex_entries(complex: Complex) -> list[dict]:
    vertices = []
    for v in complex.vertex_ids():
        entry: dict = {"id": v}
        if complex.label(v) is not None:
            entry["label"] = complex.label(v)
        c = complex.coords(v)
        if c is not None:
            entry["coords"] = list(c)
        vertices.append(entry)
    return vertices


def complex_to_json(complex: Complex) -> dict:
    cells = []
    for d in range(complex.dim + 1):
        for i, c in enumerate(complex.cells_of(d)):
            cells.append({"id": i, "dim": d, "vertices": list(c.vertices), "facets": list(c.facets)})
    return {"dimension": complex.dim, "vertices": _vertex_entries(complex), "cells": cells}


def dump_complex(complex: Complex) -> str:
    """`dump_canonical(complex_to_json(complex))`, without the dict step, for
    a complex whose cell vertices and facets are all of type int; any other
    raises TypeError (see `_layer_text`).

    The text is made as one piece per cell layer by `_complex_texts`, and
    this is their join.  `write_bundle` writes the same pieces with no
    joined copy, so its encoder's transient is about twice the file."""
    return "".join(_complex_texts(complex))


def _complex_texts(complex: Complex) -> list[str]:
    """The text of `dump_complex(complex)` as a list of pieces: the opening,
    then each nonempty cell layer's text (see `_layer_text`) with a comma
    between layers, then the closing bracket with the header and the vertex
    list, which go through `dump_canonical`.  A layer's cell texts are
    joined as soon as the layer is done, so no piece is the whole text and
    no layer's per-cell strings outlive it."""
    head = dump_canonical({"dimension": complex.dim, "vertices": _vertex_entries(complex)})
    pieces = ['{\n "cells": [']
    for d in range(complex.dim + 1):
        if complex.n_cells(d):
            if len(pieces) > 1:
                pieces.append(",")
            pieces.append(_layer_text(d, complex.cells_of(d)))
    pieces.append(("\n ]," if len(pieces) > 1 else "],") + head[1:])
    return pieces


def _layer_text(d: int, layer: Sequence[Cell]) -> str:
    """The canonical texts of the d-cells in `layer`, joined by commas, each
    led by its line break.  Each cell's id is its position, and each cell is
    one `%` on the format of its (facet count, vertex count) shape, since
    `%d` spells an int as json does.  A layer with a vertex or facet id not
    of type int raises TypeError: `complex_from_json` would refuse the
    text that json writes for it (a bool, a float or None), and `%d` would
    spell it as an int."""
    vertices = chain.from_iterable(map(attrgetter("vertices"), layer))
    facets = chain.from_iterable(map(attrgetter("facets"), layer))
    if {*map(type, vertices), *map(type, facets)} - {int}:
        raise TypeError(f"{d}-cell vertices and facets must be of type int")
    return ",".join(_cell_format(len(c.facets), len(c.vertices)) % (d, *c.facets, i, *c.vertices) for i, c in enumerate(layer))


@lru_cache(maxsize=None)
def _cell_format(n_facets: int, n_vertices: int) -> str:
    """The canonical text of a cell in the cell list, led by its line break,
    with `%d` for its dim, facets, id and vertices in that order."""
    facets, vertices = _list_format(n_facets, "\n   "), _list_format(n_vertices, "\n   ")
    return '\n  {\n   "dim": %d,\n   "facets": ' + facets + ',\n   "id": %d,\n   "vertices": ' + vertices + "\n  }"


@lru_cache(maxsize=None)
def _list_format(n: int, newline: str, spec: str = "%d") -> str:
    """The canonical text of a list of n items whose enclosing line break is
    `newline`, with `spec` for each item: `%d` for an int, or `%s` for the
    text of an item encoded under the list's inner line break."""
    inner = newline + " "
    return "[" + inner + ("," + inner).join([spec] * n) + newline + "]" if n else "[]"


def complex_from_json(obj: dict) -> Complex:
    """Parse a complex; ids, dimensions, vertices and facets must be JSON
    integers (not booleans or floats), coordinates JSON numbers (not
    booleans or strings) in tuples of one length, and the stated dimension
    must be that of the highest cell."""
    try:
        dim = obj["dimension"]
        if type(dim) is not int:
            raise ParseError(f"dimension {dim!r} is not an integer")
        vertex_entries = sorted(obj["vertices"], key=lambda e: e["id"])
        ids = [e["id"] for e in vertex_entries]
        if ids != list(range(len(ids))) or {*map(type, ids)} - {int}:
            raise ParseError("vertex ids must be dense 0-based integers")
        labels = [e.get("label") for e in vertex_entries]
        if any(lab is not None and not isinstance(lab, str) for lab in labels):
            raise ParseError("vertex labels must be strings")
        stated = [tuple(e["coords"]) if "coords" in e else None for e in vertex_entries]
        if {*map(type, chain.from_iterable(filter(None, stated)))} - {int, float}:
            raise ParseError("vertex coordinates must be numbers")
        if len({len(c) for c in stated if c is not None}) > 1:
            raise ParseError("vertex coordinates must all have one length")
        raw_coords = [tuple(map(float, c)) if c is not None else None for c in stated]
        coords = raw_coords if any(c is not None for c in raw_coords) else None
        layers: dict[int, list[dict]] = {}
        for e in obj["cells"]:
            d = e["dim"]
            if type(d) is not int or not 0 <= d <= dim:
                raise ParseError(f"cell dimension {d!r} outside stated dimension {dim}")
            layers.setdefault(d, []).append(e)
        top = max(layers, default=0)
        if dim > top:
            raise ParseError(f"stated dimension {dim} is above the highest cell dimension {top}")
        cells: list[list[Cell]] = []
        for d in range(dim + 1):
            layer = layers.get(d, [])
            ids = [e["id"] for e in layer]
            dense = list(range(len(ids)))
            if ids != dense:  # a stable sort leaves a layer already in id order as it is
                layer.sort(key=itemgetter("id"))
                ids = [e["id"] for e in layer]
            if ids != dense or {*map(type, ids)} - {int}:
                raise ParseError(f"{d}-cell ids must be dense 0-based integers")
            vertices = [tuple(e["vertices"]) for e in layer]
            facets = [tuple(e.get("facets", ())) for e in layer]
            if {*map(type, chain.from_iterable(vertices)), *map(type, chain.from_iterable(facets))} - {int}:
                raise ParseError(f"{d}-cell vertices and facets must be integers")
            cells.append(list(map(Cell, vertices, facets)))
        return Complex(cells, labels, coords)
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed complex JSON: {exc}") from exc


def dump_canonical(obj) -> str:
    """Canonical JSON text: exactly `json.dumps(obj, sort_keys=True,
    indent=1) + "\\n"`, written by a small recursive encoder: json's C
    encoder does not indent, so json.dumps with an indent runs the
    pure-Python one.  `complex.json` is written from `_complex_texts`, whose
    join `dump_complex` gives this function's text of `complex_to_json(c)`
    without the dicts (for cells of int ids) and is tested against it.

    A list of equal-length lists, such as a pair list or an edge list, is
    one `%` on a format made for the whole list: `%d` for each int when
    every item is an int, and `%s` for each item's text otherwise.  In the
    `%s` case each distinct item is encoded once, through a table that
    lives for that one list and is keyed by the item's `marshal` bytes,
    which tell apart values that compare equal but are written apart (1,
    1.0 and True; an int and an int subclass, which marshal refuses).

    Values must be of type str, int, float, bool, None, list, tuple or dict
    (subclasses are not accepted) and dict keys must be str; anything else
    raises TypeError.  Floats keep json's `NaN` and `±Infinity`.  Cycles are
    not detected.
    """
    return _encode(obj, "\n") + "\n"


def _encode(o, newline: str) -> str:
    """The canonical text of `o` when its enclosing line break is `newline`
    (a newline and the indentation of `o`'s own line)."""
    t = type(o)
    if t is int:
        return int.__repr__(o)
    if t is list or t is tuple:
        if not o:
            return "[]"
        inner = newline + " "
        sep = "," + inner
        types = {*map(type, o)}
        if types == {int}:
            items = map(int.__repr__, o)
        elif types <= {list, tuple} and len({*map(len, o)}) == 1:
            # Equal-length rows, such as pair lists and edge lists: one `%`
            # for the whole list.  `%d` spells an int as json does; any
            # other item is `%s` of its own text.
            cells = tuple(chain.from_iterable(o))
            if {*map(type, cells)} == {int}:
                row = _list_format(len(o[0]), inner)
            else:
                # Each distinct item, such as a label of an edge list, is
                # encoded once per list.  marshal writes only values of the
                # exact types (it refuses a subclass), so equal bytes are
                # equal values of the same types, which have the same text.
                row_inner = inner + " "
                try:
                    keys = [*map(marshal.dumps, cells, repeat(2))]
                except ValueError:  # an item _encode refuses, or one nested too deeply
                    keys = range(len(cells))
                texts = {k: _encode(x, row_inner) for k, x in dict(zip(keys, cells)).items()}
                row, cells = _list_format(len(o[0]), inner, "%s"), tuple(map(texts.__getitem__, keys))
            return ("[" + inner + sep.join([row] * len(o)) + newline + "]") % cells
        else:
            items = [_encode(x, inner) for x in o]
        return "[" + inner + sep.join(items) + newline + "]"
    if t is dict:
        if not o:
            return "{}"
        inner = newline + " "
        # encode_basestring_ascii raises TypeError for a key that is not a str.
        items = [encode_basestring_ascii(k) + ": " + _encode(o[k], inner) for k in sorted(o)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if t is str:
        return encode_basestring_ascii(o)
    if t is float:
        if o != o:
            return "NaN"
        if o == inf:
            return "Infinity"
        if o == -inf:
            return "-Infinity"
        return float.__repr__(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
