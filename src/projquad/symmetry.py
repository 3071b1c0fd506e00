"""Free involutions, antipodal two-colourings, quotients, and doubling."""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt
from typing import Iterable, Optional

from .complexes import Cell, Complex, VertexId, boundary_cells
from .errors import (
    BadParameters,
    BoundaryNotSymmetric,
    ColouringNotBoundaryAntisymmetric,
    LoopCreated,
    LoopsWouldForm,
    NotFree,
    ParseError,
)
from .graphs import Graph
from .validation import ValidationReport, Violation

BLACK = "black"
WHITE = "white"


@dataclass(frozen=True)
class TwoColouring:
    """A black/white split of the vertex ids."""

    black: frozenset[VertexId]
    white: frozenset[VertexId]

    def __post_init__(self) -> None:
        if self.black & self.white:
            raise BadParameters(f"vertices coloured twice: {sorted(self.black & self.white)}")

    def of(self, v: VertexId) -> str:
        if v in self.black:
            return BLACK
        if v in self.white:
            return WHITE
        raise BadParameters(f"vertex {v} is uncoloured")

    def covers(self, vertices: Iterable[VertexId]) -> bool:
        """Every vertex is coloured and every coloured id is a vertex."""
        return self.black | self.white == set(vertices)

    def to_json(self) -> dict:
        return {"black": sorted(self.black), "white": sorted(self.white)}

    @classmethod
    def from_json(cls, obj: dict) -> "TwoColouring":
        try:
            black, white = list(obj["black"]), list(obj["white"])
            if {*map(type, black), *map(type, white)} - {int}:
                raise ParseError("coloured vertex ids must be integers")
            return cls(frozenset(black), frozenset(white))
        except (KeyError, TypeError, ValueError, BadParameters) as exc:
            raise ParseError(f"malformed colouring JSON: {exc}") from exc


@dataclass(frozen=True)
class Involution:
    """A pairing of vertices and of cells, either on the whole complex or on
    its boundary only.

    `vertex_pairing` stores both directions of every pair; `cell_pairing`
    does the same per dimension >= 1 (dimension 0 rides on the vertices,
    since 0-cell ids equal vertex ids).
    """

    scope: str  # "full" | "boundary"
    vertex_pairing: dict[VertexId, VertexId]
    cell_pairing: dict[int, dict[int, int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.scope not in ("full", "boundary"):
            raise BadParameters(f"unknown involution scope {self.scope!r}")

    def vertex(self, v: VertexId) -> VertexId:
        return self.vertex_pairing[v]

    def vertex_or_none(self, v: VertexId) -> Optional[VertexId]:
        return self.vertex_pairing.get(v)

    def cell(self, d: int, i: int) -> int:
        if d == 0:
            return self.vertex_pairing[i]
        return self.cell_pairing[d][i]

    def to_json(self) -> dict:
        pairs = sorted({(min(a, b), max(a, b)) for a, b in self.vertex_pairing.items()})
        cell_pairs = {}
        for d in sorted(self.cell_pairing):
            m = self.cell_pairing[d]
            cell_pairs[str(d)] = [list(p) for p in sorted({(min(a, b), max(a, b)) for a, b in m.items()})]
        return {"scope": self.scope, "vertex_pairs": [list(p) for p in pairs], "cell_pairs": cell_pairs}

    @classmethod
    def from_json(cls, obj: dict) -> "Involution":
        try:
            vp: dict[int, int] = {}
            for a, b in obj["vertex_pairs"]:
                if type(a) is not int or type(b) is not int:
                    raise ParseError(f"vertex pair ({a!r}, {b!r}) is not a pair of integers")
                vp[a] = b
                vp[b] = a
            cell_pairs = obj.get("cell_pairs", {})
            if not isinstance(cell_pairs, dict):
                raise ParseError("cell_pairs must be an object keyed by dimension")
            cp: dict[int, dict[int, int]] = {}
            for key, pairs in cell_pairs.items():
                if key != str(int(key)):
                    raise ParseError(f"cell_pairs key {key!r} is not a dimension in canonical form")
                m: dict[int, int] = {}
                for a, b in pairs:
                    if type(a) is not int or type(b) is not int:
                        raise ParseError(f"cell pair ({a!r}, {b!r}) is not a pair of integers")
                    m[a] = b
                    m[b] = a
                cp[int(key)] = m
            return cls(str(obj["scope"]), vp, cp)
        except (KeyError, TypeError, ValueError, BadParameters) as exc:
            raise ParseError(f"malformed involution JSON: {exc}") from exc


@dataclass(frozen=True)
class InvolutionReport(ValidationReport):
    """The verdict of `validate_involution`, with the quotient that the same
    pass built: the quotient complex and the per-dimension projection from
    old cell ids to new ones when the involution has full scope and no
    violation, else None."""

    quotient: Optional[tuple[Complex, dict[int, dict[int, int]]]] = None


def validate_involution(complex: Complex, involution: Involution) -> InvolutionReport:
    """Check that the pairing is a free simplicial involution on its scope.

    For full scope every vertex and every cell must be paired; for boundary
    scope the paired cells must be exactly `boundary_cells(complex)`.  In
    both cases every paired id must be in range, not fixed, and mapped back
    by its partner.  The vertex and facet images are checked once per pair,
    from its lower id: once both pairings are self-inverse, the image of the
    higher cell is the lower cell.  A pair that breaks the image rules is
    therefore reported once, at its lower id.

    For a full-scope involution the same loop projects each pair to one cell
    of the quotient (see `quotient`), and the report carries the quotient
    when no violation is found.
    """
    violations: list[Violation] = []
    vp = involution.vertex_pairing
    full = involution.scope == "full"
    vertex_reps: list[VertexId] = []
    projection: dict[int, dict[int, int]] = {0: {}}
    for v, w in sorted(vp.items()):
        if v == w:
            violations.append(Violation("FixedPoint", 0, v, "vertex paired with itself"))
        elif vp.get(w) != v:
            violations.append(Violation("NotInvolution", 0, v, f"{v} -> {w} -> {vp.get(w)}"))
        elif v < w:
            projection[0][v] = projection[0][w] = len(vertex_reps)
            vertex_reps.append(v)
        if not (0 <= w < complex.n_vertices):
            violations.append(Violation("UnknownVertex", 0, v, f"pair target {w} does not exist"))
    if full:
        scope_cells = {d: set(range(complex.n_cells(d))) for d in range(complex.dim + 1)}
    else:
        scope_cells = boundary_cells(complex)
    missing_vertices = scope_cells.get(0, set()) - set(vp)
    for v in sorted(missing_vertices):
        violations.append(Violation("UnpairedCell", 0, v, "scope vertex not paired"))
    extra_vertices = set(vp) - scope_cells.get(0, set())
    for v in sorted(extra_vertices):
        violations.append(Violation("PairedOutsideScope", 0, v, "vertex outside scope is paired"))
    for d in sorted(set(involution.cell_pairing) - set(range(1, complex.dim + 1))):
        violations.append(Violation("PairedOutsideScope", d, None, f"cell pairs at dimension {d}, outside 1..{complex.dim}"))
    layers: list[list[Cell]] = [[Cell(id=i, dim=0, vertices=(i,), facets=()) for i in range(len(vertex_reps))]]
    for d in range(1, complex.dim + 1):
        pairing = involution.cell_pairing.get(d, {})
        in_scope = scope_cells.get(d, set())
        for i in sorted(in_scope - set(pairing)):
            violations.append(Violation("UnpairedCell", d, i, "scope cell not paired"))
        for i in sorted(set(pairing) - in_scope):
            violations.append(Violation("PairedOutsideScope", d, i, "cell outside scope is paired"))
        n_cells = complex.n_cells(d)
        lower = vp if d == 1 else involution.cell_pairing.get(d - 1, {})
        to_vertex, to_facet = projection[0], projection[d - 1]
        here: dict[int, int] = {}
        layer: list[Cell] = []
        for i, j in sorted(pairing.items()):
            if i == j:
                violations.append(Violation("FixedPoint", d, i, "cell paired with itself"))
                continue
            if pairing.get(j) != i:
                violations.append(Violation("NotInvolution", d, i, f"{i} -> {j} -> {pairing.get(j)}"))
                continue
            if not (0 <= i < n_cells and 0 <= j < n_cells):
                violations.append(Violation("DanglingFacet", d, i, f"pair {i} -> {j} names a cell that does not exist"))
                continue
            if i > j:
                continue
            src, dst = complex.cell(d, i), complex.cell(d, j)
            try:
                image = tuple(sorted(map(vp.__getitem__, src.vertices)))
            except KeyError as exc:
                violations.append(Violation("NotSimplicial", d, i, f"vertex {exc.args[0]} of cell is unpaired"))
                continue
            if image != dst.vertices:
                violations.append(Violation("NotSimplicial", d, i, f"vertex image {image} != {dst.vertices}"))
                continue
            try:
                facet_image = set(map(lower.__getitem__, src.facets))
            except KeyError as exc:
                violations.append(Violation("NotSimplicial", d, i, f"facet {exc.args[0]} is unpaired"))
                continue
            if facet_image != set(dst.facets):
                violations.append(Violation("NotSimplicial", d, i, "facet images do not match pair's facets"))
                continue
            if full and not violations:
                here[i] = here[j] = len(layer)
                vertices = tuple(sorted(map(to_vertex.__getitem__, src.vertices)))
                facets = tuple(map(to_facet.__getitem__, src.facets))
                layer.append(Cell(id=len(layer), dim=d, vertices=vertices, facets=facets))
        projection[d] = here
        layers.append(layer)
    if not full or violations:
        return InvolutionReport(ValidationReport.collect(violations).violations)
    return InvolutionReport(quotient=(Complex(layers, [complex.label(v) for v in vertex_reps]), projection))


def antipodal_free_cells(complex: Complex, involution: Involution) -> ValidationReport:
    """No cell may contain a vertex together with its antipode."""
    violations = []
    vp = involution.vertex_pairing
    for d in range(1, complex.dim + 1):
        for c in complex.cells_of(d):
            vs = set(c.vertices)
            if any(vp.get(v) in vs for v in c.vertices):
                violations.append(Violation("AntipodalPairInCell", d, c.id, str(c.vertices)))
    return ValidationReport.collect(violations)


def proper_on_maximal(complex: Complex, colouring: TwoColouring) -> ValidationReport:
    """Every maximal cell must see both colours."""
    violations = []
    for d, i in complex.maximal_cells():
        vs = complex.cell(d, i).vertices
        if not any(v in colouring.black for v in vs) or not any(v in colouring.white for v in vs):
            violations.append(Violation("MonochromaticCell", d, i, str(vs)))
    return ValidationReport.collect(violations)


def antisymmetric_on_pairs(colouring: TwoColouring, involution: Involution) -> ValidationReport:
    """Paired vertices must receive opposite colours."""
    violations = []
    for v, w in sorted(involution.vertex_pairing.items()):
        if v < w and colouring.of(v) == colouring.of(w):
            violations.append(Violation("SymmetricPairColour", 0, v, f"pair ({v}, {w}) both {colouring.of(v)}"))
    return ValidationReport.collect(violations)


def bichromatic_edge_cells(complex: Complex, colouring: TwoColouring) -> frozenset[int]:
    """Ids of the 1-cells whose endpoints have different colours."""
    out = set()
    for c in complex.cells_of(1) if complex.dim >= 1 else ():
        u, v = c.vertices
        if colouring.of(u) != colouring.of(v):
            out.add(c.id)
    return frozenset(out)


def associated_graph(complex: Complex, colouring: TwoColouring) -> Graph:
    """Simple graph on the vertex ids whose edges are the bichromatic 1-cells."""
    g = Graph(range(complex.n_vertices))
    for cid in sorted(bichromatic_edge_cells(complex, colouring)):
        u, v = complex.cell(1, cid).vertices
        g.add_edge(u, v)
    return g


def identify_antipodes(graph: Graph, vertex_pairing: dict[VertexId, VertexId]) -> tuple[Graph, dict[VertexId, VertexId]]:
    """Collapse each pair to its smaller member; unpaired vertices persist.

    Returns the quotient graph (on representative ids) and the projection
    map.  Raises LoopCreated if an edge joins a pair.
    """
    rep = {v: min(v, vertex_pairing.get(v, v)) for v in graph.vertices}
    out = Graph(sorted(set(rep.values())))
    for u, v in graph.edges():
        ru, rv = rep[u], rep[v]
        if ru == rv:
            raise LoopCreated(f"edge ({u}, {v}) joins an antipodal pair")
        out.add_edge(ru, rv)
    return out, rep


@dataclass(frozen=True)
class BoundaryStructure:
    """The boundary subcomplex of a ball, with its involution."""

    cells: dict[int, frozenset[int]]
    involution: Involution


def _quotient_refusal(involution: Involution, antipodal: ValidationReport) -> Optional[Exception]:
    """Why an involution that passes `validate_involution` has no quotient,
    given the report of `antipodal_free_cells`: it does not have full scope,
    or some cell holds an antipodal pair (the first violation is named).
    None when the quotient exists."""
    if involution.scope != "full":
        return BadParameters("quotient needs a full-scope involution")
    if not antipodal.ok:
        first = antipodal.violations[0]
        return LoopsWouldForm(f"{first.cell_dim}-cell {first.cell_id} contains an antipodal pair")
    return None


def quotient(complex: Complex, involution: Involution) -> tuple[Complex, dict[int, dict[int, int]]]:
    """Identify each cell with its antipode; representatives keep labels.

    Returns the quotient complex and the per-dimension projection from old
    cell ids to new ones, as built by `validate_involution`.  Coordinates are
    dropped (the quotient does not embed).  Raises BadParameters for a
    boundary-scope involution or an unpaired vertex, NotFree on a fixed
    point, LoopsWouldForm when a cell contains an antipodal vertex pair, and
    BadParameters when `validate_involution` finds any other violation.
    """
    if involution.scope == "full":
        vp = involution.vertex_pairing
        for v in complex.vertex_ids():
            if vp.get(v) == v:
                raise NotFree(f"vertex {v} is its own antipode")
            if v not in vp:
                raise BadParameters(f"vertex {v} is unpaired")
    refusal = _quotient_refusal(involution, antipodal_free_cells(complex, involution))
    if refusal is not None:
        raise refusal
    judged = validate_involution(complex, involution)
    if judged.quotient is None:
        first = judged.violations[0]
        raise BadParameters(f"invalid involution: {first.code} at dim {first.cell_dim} id {first.cell_id}: {first.detail}")
    return judged.quotient


def sum_left_to_right(terms: Iterable[float]) -> float:
    """The float sum of the terms, added in order.

    From Python 3.12 on, `sum()` of floats is compensated and can differ in
    the last bit, which would make written coordinates depend on the Python
    version.
    """
    acc = 0.0
    for t in terms:
        acc += t
    return acc


def double(
    ball: Complex,
    boundary_involution: Involution,
    colouring: TwoColouring,
) -> tuple[Complex, Involution, TwoColouring]:
    """Glue two copies of a ball along the boundary antipodal map.

    The first copy keeps its cell ids and colours; the second copy inverts
    the colours, and its boundary is identified with the antipode of the
    first copy's boundary.  When the input has coordinates, the output
    embeds one dimension up: boundary vertices at height 0, interior copies
    at heights +1/-1 (the second copy mirrored through the origin), all
    radially normalized to the unit sphere.

    Raises BadParameters unless the involution has boundary scope and the
    colouring colours exactly the ball's vertices, BoundaryNotSymmetric
    when `validate_involution` rejects the involution, and
    ColouringNotBoundaryAntisymmetric when a boundary pair shares a colour.
    """
    if boundary_involution.scope != "boundary":
        raise BadParameters("doubling needs a boundary-scope involution")
    vp = boundary_involution.vertex_pairing
    rep = validate_involution(ball, boundary_involution)
    if not rep.ok:
        first = rep.violations[0]
        raise BoundaryNotSymmetric(f"{first.code} at dim {first.cell_dim} id {first.cell_id}: {first.detail}")
    if not colouring.covers(ball.vertex_ids()):
        raise BadParameters("colouring does not colour exactly the ball's vertices")
    for v, w in vp.items():
        if colouring.of(v) == colouring.of(w):
            raise ColouringNotBoundaryAntisymmetric(f"boundary pair ({v}, {w}) share colour {colouring.of(v)}")
    return _double(ball, boundary_involution, colouring)


def _double(
    ball: Complex,
    boundary_involution: Involution,
    colouring: TwoColouring,
) -> tuple[Complex, Involution, TwoColouring]:
    """`double` with no checks: the involution and the colouring must be
    ones that `double` accepts."""
    vp = boundary_involution.vertex_pairing
    bcells = boundary_cells(ball)
    n = ball.dim
    interior0 = [v for v in ball.vertex_ids() if v not in vp]
    copy2_vid = {v: ball.n_vertices + k for k, v in enumerate(interior0)}

    labels: list[Optional[str]] = list(ball.labels)
    used = {lab for lab in labels if lab is not None}
    for v in interior0:
        base = ball.label(v)
        if base is None:
            labels.append(None)
            continue
        lab = base + "*"
        while lab in used:
            lab += "*"
        used.add(lab)
        labels.append(lab)

    coords: Optional[list[Optional[tuple[float, ...]]]] = None
    if ball.has_coords:
        raw: list[tuple[float, ...]] = []
        for v in ball.vertex_ids():
            u = ball.coords(v)
            raw.append(tuple(u) + ((0.0,) if v in vp else (1.0,)))
        for v in interior0:
            u = ball.coords(v)
            raw.append(tuple(-x for x in u) + (-1.0,))
        norms = [sqrt(sum_left_to_right(x * x for x in u)) for u in raw]
        if all(nm > 1e-12 for nm in norms):
            coords = [tuple(x / nm for x in u) for u, nm in zip(raw, norms)]

    def vmap2(v: VertexId) -> VertexId:
        return vp[v] if v in vp else copy2_vid[v]

    layers: list[list[Cell]] = [[Cell(id=i, dim=0, vertices=(i,), facets=()) for i in range(len(labels))]]
    copy2_cell: dict[int, dict[int, int]] = {0: dict(copy2_vid)}
    for d in range(1, n + 1):
        layer = list(ball.cells_of(d))
        cmap: dict[int, int] = {}
        lower_boundary = vp if d - 1 == 0 else boundary_involution.cell_pairing.get(d - 1, {})
        lower_copy2 = copy2_cell.get(d - 1, {})
        for c in ball.cells_of(d):
            if c.id in bcells.get(d, ()):
                continue
            verts = tuple(sorted(vmap2(v) for v in c.vertices))
            facets = tuple(
                lower_boundary[f] if f in lower_boundary else lower_copy2[f] for f in c.facets
            )
            new = Cell(id=len(layer), dim=d, vertices=verts, facets=facets)
            layer.append(new)
            cmap[c.id] = new.id
        copy2_cell[d] = cmap
        layers.append(layer)

    vertex_pairing: dict[int, int] = {}
    for v in ball.vertex_ids():
        w = vmap2(v)
        vertex_pairing[v] = w
        vertex_pairing[w] = v
    cell_pairing: dict[int, dict[int, int]] = {}
    for d in range(1, n + 1):
        m: dict[int, int] = {}
        bd = boundary_involution.cell_pairing.get(d, {})
        for c in ball.cells_of(d):
            j = bd[c.id] if c.id in bd else copy2_cell[d][c.id]
            m[c.id] = j
            m[j] = c.id
        cell_pairing[d] = m

    black = set(colouring.black)
    white = set(colouring.white)
    for v in interior0:
        if v in colouring.black:
            white.add(copy2_vid[v])
        else:
            black.add(copy2_vid[v])

    doubled = Complex(layers, labels, coords)
    involution = Involution("full", vertex_pairing, cell_pairing)
    return doubled, involution, TwoColouring(frozenset(black), frozenset(white))
