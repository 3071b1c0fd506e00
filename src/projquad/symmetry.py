"""Free involutions, antipodal two-colourings, quotients, and doubling."""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt
from typing import Iterable, Optional

from .complexes import Cell, Complex, VertexId, boundary_cells
from .errors import (
    BadParameters,
    LoopCreated,
    LoopsWouldForm,
    NotFree,
    ParseError,
    VerificationFailed,
)
from .graphs import Graph
from .validation import AuditCollector, ValidationReport, Violation

BLACK = "black"
WHITE = "white"
_NOT_TOTAL = "some vertex is uncoloured or some coloured id is not a vertex"


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
    """A pairing of the cells of each dimension, either on the whole complex
    or on its boundary only.

    `pairing(d)` is the pairing of the d-cells, storing both directions of
    every pair.  A 0-cell's id is its vertex's id, so the pairing of the
    0-cells is `vertex_pairing`, and `cell_pairing` holds dimensions >= 1.
    Every reader that walks the layers reads `pairing(d)` and judges,
    codes and projects each layer, the 0-cells included, by one rule.
    """

    scope: str  # "full" | "boundary"
    vertex_pairing: dict[VertexId, VertexId]
    cell_pairing: dict[int, dict[int, int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.scope not in ("full", "boundary"):
            raise BadParameters(f"unknown involution scope {self.scope!r}")

    def pairing(self, d: int) -> dict[int, int]:
        """The pairing of the d-cells ({} for a dimension with no pairs)."""
        return self.vertex_pairing if d == 0 else self.cell_pairing.get(d, {})

    def to_json(self) -> dict:
        cell_pairs = {str(d): _pairs_to_json(self.cell_pairing[d]) for d in sorted(self.cell_pairing)}
        return {"scope": self.scope, "vertex_pairs": _pairs_to_json(self.vertex_pairing), "cell_pairs": cell_pairs}

    @classmethod
    def from_json(cls, obj: dict) -> "Involution":
        try:
            vp = _pairs_from_json(obj["vertex_pairs"], "vertex")
            cell_pairs = obj.get("cell_pairs", {})
            if not isinstance(cell_pairs, dict):
                raise ParseError("cell_pairs must be an object keyed by dimension")
            cp: dict[int, dict[int, int]] = {}
            for key, pairs in cell_pairs.items():
                if key != str(int(key)):
                    raise ParseError(f"cell_pairs key {key!r} is not a dimension in canonical form")
                cp[int(key)] = _pairs_from_json(pairs, "cell")
            return cls(str(obj["scope"]), vp, cp)
        except (KeyError, TypeError, ValueError, BadParameters) as exc:
            raise ParseError(f"malformed involution JSON: {exc}") from exc


def _pairs_to_json(pairing: dict[int, int]) -> list[list[int]]:
    """Each pair once, lower id first, in order.  The pairs are made unique
    by a dict, not a set, so the sort meets them in the pairing's own order,
    which for a built involution is mostly sorted already."""
    return [*map(list, sorted({((a, b) if a < b else (b, a)): None for a, b in pairing.items()}))]


def _pairs_from_json(pairs: list, what: str) -> dict[int, int]:
    """The pairing, both directions, of a JSON list of [a, b] integer pairs;
    a later pair that reuses an id overwrites its entry."""
    pairing: dict[int, int] = {}
    for a, b in pairs:
        if type(a) is not int or type(b) is not int:
            raise ParseError(f"{what} pair ({a!r}, {b!r}) is not a pair of integers")
        pairing[a] = b
        pairing[b] = a
    return pairing


def validate_involution(complex: Complex, involution: Involution) -> ValidationReport:
    """Check that the pairing is a free simplicial involution on its scope.

    Every layer, the 0-cells included, is judged by one rule set on its
    pairing `involution.pairing(d)`.  For full scope every cell must be
    paired; for boundary scope the paired cells must be exactly
    `boundary_cells(complex)`, which reads facet ids, so boundary scope
    needs a complex whose facet ids lie in range (`_audit` and `double`
    judge it only once `validate()` passes).  Every paired id must name a
    cell of its layer, not be fixed, and be mapped back by its partner.
    The vertex and facet images are checked once per pair, from its lower
    id: once the pairings are self-inverse, the image of the higher cell is
    the lower cell.  A 0-cell's vertex image is its partner's id, so a
    0-cell that does not sit on its own vertex breaks the image rule, and a
    0-cell has no facets.  Facets are compared as multisets, so a partner
    with a repeated or extra facet id breaks the image rule.  A pair that
    breaks the image rules is reported once, at its lower id.  Pairs are
    judged in any order: `ValidationReport.collect` sorts the violations.
    """
    violations: list[Violation] = []
    if involution.scope == "full":
        scope_cells = {d: set(range(complex.n_cells(d))) for d in range(complex.dim + 1)}
    else:
        scope_cells = boundary_cells(complex)
    # Dimension 0 is stored as `vertex_pairing`, so no cell pairs belong there.
    for d in sorted(set(involution.cell_pairing) - set(range(1, complex.dim + 1))):
        violations.append(Violation("PairedOutsideScope", d, None, f"cell pairs at dimension {d}, outside 1..{complex.dim}"))
    vp = involution.pairing(0)
    for d in range(complex.dim + 1):
        pairing, lower, layer = involution.pairing(d), involution.pairing(d - 1), complex.cells_of(d)
        in_scope = scope_cells.get(d, set())
        for i in sorted(in_scope - set(pairing)):
            violations.append(Violation("UnpairedCell", d, i, "scope cell not paired"))
        for i in sorted(set(pairing) - in_scope):
            violations.append(Violation("PairedOutsideScope", d, i, "cell outside scope is paired"))
        n_cells = len(layer)
        for i, j in pairing.items():
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
            src, dst = layer[i], layer[j]
            try:
                image = tuple(sorted(map(vp.__getitem__, src.vertices)))
            except KeyError as exc:
                violations.append(Violation("NotSimplicial", d, i, f"vertex {exc.args[0]} of cell is unpaired"))
                continue
            if image != dst.vertices:
                violations.append(Violation("NotSimplicial", d, i, f"vertex image {image} != {dst.vertices}"))
                continue
            try:
                facet_image = sorted(map(lower.__getitem__, src.facets))
            except KeyError as exc:
                violations.append(Violation("NotSimplicial", d, i, f"facet {exc.args[0]} is unpaired"))
                continue
            if facet_image != sorted(dst.facets):
                violations.append(Violation("NotSimplicial", d, i, "facet images do not match pair's facets"))
    return ValidationReport.collect(violations)


def _project(
    complex: Complex, involution: Involution, top: Optional[int] = None
) -> tuple[Complex, dict[int, dict[int, int]]]:
    """The quotient complex and the per-dimension projection from old cell
    ids to new ones, for a full-scope involution that `validate_involution`
    passes; with `top`, only dimensions 0 to `top` are projected, and the
    quotient is the `top`-skeleton of the full one.

    Each pair becomes one cell, numbered in the order of its lower id, whose
    vertices and facets are the projections of the lower cell's.  A
    dimension's numbering reads only its own pairing, so the cut changes no
    id.  Representatives keep their labels; coordinates are dropped (the
    quotient does not embed).  `quotient`, `_audit` and `SphereQuad` share
    it.
    """
    projection: list[dict[int, int]] = []
    layers: list[list[Cell]] = []
    for d in range((complex.dim if top is None else top) + 1):
        pairing, cells = involution.pairing(d), complex.cells_of(d)
        lower = [i for i in range(len(cells)) if i < pairing[i]]
        projection.append({i: k for k, r in enumerate(lower) for i in (r, pairing[r])})
        # A 0-cell has no facets, so projection[-1] is never read.
        vertex_of, facet_of = projection[0].__getitem__, projection[d - 1].__getitem__
        layers.append([Cell(tuple(sorted(map(vertex_of, cells[i].vertices))), tuple(map(facet_of, cells[i].facets))) for i in lower])
    reps = [i for i, j in sorted(involution.pairing(0).items()) if i < j]
    return Complex(layers, [complex.labels[v] for v in reps]), dict(enumerate(projection))


def antipodal_free_cells(complex: Complex, involution: Involution) -> ValidationReport:
    """No cell may contain a vertex together with its antipode."""
    violations = []
    vp = involution.vertex_pairing
    for d in range(1, complex.dim + 1):
        for i, c in enumerate(complex.cells_of(d)):
            vs = set(c.vertices)
            if any(vp.get(v) in vs for v in c.vertices):
                violations.append(Violation("AntipodalPairInCell", d, i, str(c.vertices)))
    return ValidationReport.collect(violations)


def proper_on_maximal(complex: Complex, colouring: TwoColouring) -> ValidationReport:
    """Every maximal cell must see both colours."""
    violations = []
    for d, i in complex.maximal_cells():
        vs = complex.cell(d, i).vertices
        if colouring.black.isdisjoint(vs) or colouring.white.isdisjoint(vs):
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
    for i, c in enumerate(complex.cells_of(1) if complex.dim >= 1 else ()):
        u, v = c.vertices
        if colouring.of(u) != colouring.of(v):
            out.add(i)
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
    cell ids to new ones (see `_project`).  Raises BadParameters for a
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
    if not judged.ok:
        first = judged.violations[0]
        raise BadParameters(f"invalid involution: {first.code} at dim {first.cell_dim} id {first.cell_id}: {first.detail}")
    return _project(complex, involution)


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

    Doubling reads four facts, judged first as named entries gated as
    `audits._audit` gates them: `complex-valid` (free on a built complex,
    which carries its builder's verdict), then `involution-valid` on the
    boundary-scope involution, `colouring-total` and
    `colouring-antisymmetric`.  Raises BadParameters unless the involution
    has boundary scope, and VerificationFailed carrying the report when an
    entry fails.  The ball gets no shape, parity or identification check:
    the sphere audit of the double makes them.

    `mirror[d][i]` is the partner in the double of the ball's d-cell i: its
    boundary partner, or the id of its copy, numbered after the ball's
    d-cells in the order of i.  A copy's vertices and facets are the mirror
    images of the original's, and the doubled involution is `mirror` made
    symmetric.

    The double carries an empty `validate()` report, which is what a full
    validation would find once the four entries pass.  Its labels are
    unique (a copy's label gains stars until it is unused), and the 0-cell
    copy of interior vertex v sits on the vertex `mirror[0][v]`, its own
    id.  The ball's cells are lawful and keep their ids, and every layer
    below only grows.  A copy is lawful by induction on d: `mirror[0]` is
    injective, since the boundary pairing is a bijection of the boundary
    vertices and the copies get fresh ids, so a copy has d+1 distinct,
    sorted, known vertices; and the partner of each facet holds the image
    of its vertices, a boundary partner by the involution check (the
    boundary is closed under faces, so `mirror[0]` is the vertex pairing
    on it) and a copy by construction.  So the d+1 distinct one-vertex
    deletions of the original map to those of the copy.  `involution-valid`
    of the double stays the sphere audit's own check.
    """
    if boundary_involution.scope != "boundary":
        raise BadParameters("doubling needs a boundary-scope involution")
    audit = AuditCollector()
    complex_ok = audit.add("complex-valid", ball.validate())
    involution_ok = complex_ok and audit.add("involution-valid", validate_involution(ball, boundary_involution))
    total = audit.add_flag("colouring-total", colouring.covers(ball.vertex_ids()), _NOT_TOTAL)
    if involution_ok and total:
        audit.add("colouring-antisymmetric", antisymmetric_on_pairs(colouring, boundary_involution))
    report = audit.done()
    if not report.ok:
        raise VerificationFailed(f"cannot double: failing audits: {', '.join(report.failing())}", report)
    vp = boundary_involution.pairing(0)
    interior0 = [v for v in ball.vertex_ids() if v not in vp]
    mirror: list[dict[int, int]] = []
    layers: list[list[Cell]] = []
    for d in range(ball.dim + 1):
        pairing = boundary_involution.pairing(d)
        partners: dict[int, int] = {}
        mirror.append(partners)
        # A 0-cell's one vertex is its own id, whose partner is stored before
        # its copy is built; it has no facets, so mirror[-1] is never read.
        vertex_of, facet_of = mirror[0].__getitem__, mirror[d - 1].__getitem__
        layer = list(ball.cells_of(d))
        for i, c in enumerate(ball.cells_of(d)):
            if i in pairing:
                partners[i] = pairing[i]
            else:
                partners[i] = len(layer)
                vertices = tuple(sorted(map(vertex_of, c.vertices)))
                layer.append(Cell(vertices, tuple(map(facet_of, c.facets))))
        layers.append(layer)

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

    black = set(colouring.black)
    white = set(colouring.white)
    for v in interior0:
        if v in colouring.black:
            white.add(mirror[0][v])
        else:
            black.add(mirror[0][v])

    for partners in mirror:
        partners.update({j: i for i, j in partners.items()})
    doubled = Complex(layers, labels, coords)
    doubled._report = ValidationReport()
    involution = Involution("full", mirror[0], dict(enumerate(mirror[1:], 1)))
    return doubled, involution, TwoColouring(frozenset(black), frozenset(white))
