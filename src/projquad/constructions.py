"""Verified builders: symmetric spheres, balls, cones, and their pipelines.

Every constructor of a sphere runs the full sphere audit before returning,
and raises VerificationFailed if anything fails.  A SphereQuad is therefore
an audited sphere.  A BallQuad is checked when it is doubled, and only for
what gluing reads (see `symmetry.double`): the theorem's hypotheses are
about the sphere, its involution and its quotient, which the audit of the
double judges.  Each cell is judged by the cell law once, when it is made:
`complex-valid` of a built ball or sphere is the verdict it carries from
its builder or from `double`.  No constructor samples closed walks:
`walk-parity` is run by `verify_sphere_quadrangulation(..., n_walks=N)`, as
`projquad verify` runs it on a stored bundle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from math import cos, pi, sin
from typing import Optional

from .audits import verify_sphere_quadrangulation
from .complexes import Complex, ComplexBuilder, SimplicialBuilder, boundary_cells, face_closure
from .errors import (
    BadParameters,
    InputNotQuadrangulation,
    UnsupportedParameters,
    VerificationFailed,
)
from .graphs import Graph, complete_graph, cycle_graph, label_key, mycielskian
from .homomorphisms import (
    Homomorphism,
    iterated_schrijver_homomorphism,
    verify_homomorphism,
)
from .symmetry import (
    Involution,
    TwoColouring,
    _project,
    bichromatic_edge_cells,
    double,
)
from .validation import AuditReport


@dataclass(frozen=True)
class SphereQuad:
    """A verified antipodally symmetric coloured sphere with its quotient.

    The quotient, the projection onto it and the selected quotient 1-cells
    are projected on first read: the audits decide the quotient entries
    without them.
    """

    complex: Complex
    involution: Involution
    colouring: TwoColouring
    labels: dict
    graph: Graph
    report: AuditReport

    @cached_property
    def _projected(self) -> tuple[Complex, dict]:
        return _project(self.complex, self.involution)

    @property
    def quotient(self) -> Complex:
        return self._projected[0]

    @property
    def projection(self) -> dict:
        """Per dimension, sphere cell id -> quotient cell id."""
        return self._projected[1]

    @cached_property
    def selected(self) -> frozenset:
        """The quotient 1-cells whose lifts are bichromatic."""
        return frozenset(self.projection[1][e] for e in bichromatic_edge_cells(self.complex, self.colouring))


@dataclass(frozen=True)
class BallQuad:
    """A coloured complex, built as a ball, whose boundary carries a free
    involution; `double_to_sphere` checks what gluing reads.

    `graph` is the graph that the double is expected to identify, and the
    sphere audit of the double checks it as `graph-matches-expected`.
    """

    complex: Complex
    involution: Involution  # boundary scope: its paired cells are the boundary
    colouring: TwoColouring
    labels: dict
    graph: Graph


def _verified(
    complex: Complex,
    involution: Involution,
    colouring: TwoColouring,
    labels: dict,
    graph: Optional[Graph],
    report: AuditReport,
    what: str,
) -> SphereQuad:
    """The SphereQuad of a passing report and the graph its audit
    identified; raises VerificationFailed naming the failing audits
    otherwise."""
    if not report.ok:
        raise VerificationFailed(f"{what}: failing audits: {', '.join(report.failing())}", report)
    return SphereQuad(complex, involution, colouring, labels, graph, report)


def _finish_sphere(
    complex: Complex,
    involution: Involution,
    colouring: TwoColouring,
    labels: dict,
    *,
    expected_graph: Graph,
    what: str,
) -> SphereQuad:
    report, graph = verify_sphere_quadrangulation(complex, involution, colouring, labels=labels, expected_graph=expected_graph)
    return _verified(complex, involution, colouring, labels, graph, report, what)


# ---- the one-dimensional base construction ----

def odd_cycle_sphere(k: int) -> SphereQuad:
    """The (4k+2)-gon circle with the antipodal flip and alternating colours.

    Its quotient is the (2k+1)-cycle on integer labels 0..2k.
    """
    if k < 1:
        raise BadParameters("needs k >= 1")
    m = 2 * k + 1
    sb = SimplicialBuilder()
    for i in range(2 * m):
        angle = pi * i / m
        sb.add_vertex(f"a{i}", (cos(angle), sin(angle)))
    for i in range(2 * m):
        sb.add_simplex((i, (i + 1) % (2 * m)))
    complex = sb.build()
    # Vertex i and edge i, from vertex i to i + 1, each map half a turn on.
    flip = {i: (i + m) % (2 * m) for i in range(2 * m)}
    involution = Involution("full", flip, {1: flip})
    colouring = TwoColouring(
        black=frozenset(i for i in range(2 * m) if i % 2 == 1),
        white=frozenset(i for i in range(2 * m) if i % 2 == 0),
    )
    labels = {i: i % m for i in range(2 * m)}
    return _finish_sphere(
        complex,
        involution,
        colouring,
        labels,
        expected_graph=cycle_graph(m),
        what=f"odd cycle k={k}",
    )


# ---- the solid cylinder over an odd cycle ----

def cylinder_complete(r: int) -> BallQuad:
    """A solid cylinder over the (2r+1)-gon whose identified boundary graph
    is the complete graph on 2r+3 labels.

    Black ring vertices on the top circle, white ring antipodal on the
    bottom, a pole at the centre of each cap, and the origin inside; the
    lateral shell is an r-1 deep stack of tetrahedron rings, coned to the
    origin along its inner boundary.  Every r >= 1 gets the same checks
    when doubled (see `symmetry.double`) and the same sphere audit.  The
    coordinates place the ring faces that the origin is coned over in its
    line of sight; no audit entry or output rests on that.
    """
    if r < 1:
        raise BadParameters("needs r >= 1")
    m = 2 * r + 1
    sb = SimplicialBuilder()
    for i in range(m):
        angle = 2 * pi * i / m
        sb.add_vertex(f"x{i}", (cos(angle), sin(angle), 1.0))
    for i in range(m):
        angle = 2 * pi * i / m + pi
        sb.add_vertex(f"y{i}", (cos(angle), sin(angle), -1.0))
    top_pole = sb.add_vertex("p", (0.0, 0.0, 1.0))
    bottom_pole = sb.add_vertex("q", (0.0, 0.0, -1.0))
    origin = sb.add_vertex("o", (0.0, 0.0, 0.0))

    def x(i: int) -> int:
        return i % m

    def y(i: int) -> int:
        return m + (i % m)

    for j in range(1, r):
        for t in range(m):
            sb.add_simplex((x(t), x(t + 1), y(t + r + j), y(t + r + j + 1)))
    for t in range(m):
        sb.add_simplex((origin, top_pole, x(t), x(t + 1)))
        sb.add_simplex((origin, bottom_pole, y(t), y(t + 1)))
        sb.add_simplex((origin, x(t), x(t + 1), y(t + 2 * r)))
        sb.add_simplex((origin, x(t), y(t + 2 * r - 1), y(t + 2 * r)))
    complex = sb.build()

    vp: dict[int, int] = {}
    for i in range(m):
        vp[x(i)] = y(i)
        vp[y(i)] = x(i)
    vp[top_pole] = bottom_pole
    vp[bottom_pole] = top_pole
    # A SimplicialBuilder holds one cell per vertex set, so each boundary
    # cell's partner is the cell on its antipodal vertices.
    cp = {
        d: {i: sb.id_of(vp[v] for v in complex.cell(d, i).vertices) for i in sorted(ids)}
        for d, ids in boundary_cells(complex).items() if d >= 1
    }
    involution = Involution("boundary", vp, cp)

    colouring = TwoColouring(
        black=frozenset(range(m)) | {bottom_pole, origin},
        white=frozenset(range(m, 2 * m)) | {top_pole},
    )
    labels: dict[int, object] = {}
    for i in range(m):
        labels[x(i)] = i
        labels[y(i)] = i
    labels[top_pole] = m
    labels[bottom_pole] = m
    labels[origin] = m + 1

    return BallQuad(complex, involution, colouring, labels, complete_graph(m + 2))


# ---- doubling a ball into a sphere ----

def _doubled(ball: Complex, involution: Involution, colouring: TwoColouring, labels: dict, graph: Graph, what: str) -> SphereQuad:
    """The double of a ball (`symmetry.double`, which checks what gluing
    reads), each mirrored vertex labelled as its original, with the full
    sphere audit against `graph`."""
    complex, doubled_involution, doubled_colouring = double(ball, involution, colouring)
    labels = dict(labels)
    for v in ball.vertex_ids():
        w = doubled_involution.vertex_pairing[v]
        if w >= ball.n_vertices:
            labels[w] = labels[v]
    return _finish_sphere(
        complex,
        doubled_involution,
        doubled_colouring,
        labels,
        expected_graph=graph,
        what=what,
    )


def double_to_sphere(ball: BallQuad) -> SphereQuad:
    """Glue a mirrored copy onto the ball and audit the sphere against the
    ball's expected graph.

    Raises VerificationFailed when the ball fails a check that gluing reads
    (see `symmetry.double`) or the sphere fails its audit."""
    return _doubled(ball.complex, ball.involution, ball.colouring, ball.labels, ball.graph, "doubled ball")


# ---- suspension ----

def _fresh_orbit_label(graph: Graph):
    ints = [v for v in graph.vertices if isinstance(v, int)]
    if len(ints) == len(graph.vertices):
        return max(ints) + 1 if ints else 0
    base = "pole"
    taken = set(graph.vertices)
    idx = 0
    while f"{base}-{idx}" in taken:
        idx += 1
    return f"{base}-{idx}"


def suspension(sq: SphereQuad) -> SphereQuad:
    """The join with two antipodal poles, built as the double of the cone
    over the sphere; the quotient graph gains a universal vertex under the
    next available label (`_fresh_orbit_label`).

    The cone (`ComplexBuilder.add_cone`) has a black apex at the origin
    when the sphere has coordinates, and the sphere's pairing is its
    boundary involution.  `_doubled` then checks what gluing reads, mirrors
    the apex into a white antipodal pole, lifts the coordinates one
    dimension up and runs the sphere audit.  The cone itself gets no ball
    audit; it is lawful when the sphere is, and a sphere that breaks the
    cell law leaves the cone without a verdict, so the gluing names it as
    `complex-valid`."""
    T = sq.complex
    builder = ComplexBuilder.from_complex(T)
    coords = (0.0,) * len(T.coords(0)) if T.has_coords else None
    pole = builder.add_cone("p", coords, {d: range(T.n_cells(d)) for d in range(T.dim + 1)})
    label = _fresh_orbit_label(sq.graph)
    graph = sq.graph.copy()
    graph.add_vertex(label)
    for v in sq.graph.vertices:
        graph.add_edge(v, label)
    # The sphere is the cone's boundary, so its pairing has boundary scope.
    involution = replace(sq.involution, scope="boundary")
    colouring = TwoColouring(sq.colouring.black | {pole}, sq.colouring.white)
    return _doubled(builder.build(), involution, colouring, {**sq.labels, pole: label}, graph, "suspension")


# ---- the level-cone lift of a sphere into a ball one dimension up ----

def mycielski_lift(sq: SphereQuad, r: int) -> BallQuad:
    """Thicken a symmetric coloured sphere inward, level by level, into a
    ball whose boundary-identified graph is the r-level cone extension of
    the input's identified graph.

    Each round replaces the deepest active layer by a new one two levels
    down: the new vertex for g sits under g's deepest copy, coned over the
    closed star of that copy among active vertices (cells created earlier in
    the same round participate).  A final apex over the two innermost levels
    closes the ball.  Within each round the graph vertices are processed in
    label order.

    Each star comes from the builder's vertex-star index
    (`ComplexBuilder.star`), which every cone extends and which lives as
    long as the lift's builder.  The cones go through `add_cone`, so the
    ball carries its builder's verdict and no cell of it is judged again.

    Raises InputNotQuadrangulation when the sphere's report fails, or when
    its labels and colouring do not give each vertex of its graph exactly
    one white and one black vertex.
    """
    if r < 1:
        raise BadParameters("needs r >= 1")
    if not sq.report.ok:
        raise InputNotQuadrangulation("input sphere failed its audits")
    graph = sq.graph
    order = sorted(graph.vertices, key=label_key)

    T = sq.complex
    builder = ComplexBuilder.from_complex(T)
    has_coords = T.has_coords
    pos: dict[int, tuple[float, ...]] = {}
    if has_coords:
        pos = {v: tuple(T.coords(v)) for v in T.vertex_ids()}

    level: dict[int, int] = {}
    for v in T.vertex_ids():
        level[v] = r if v in sq.colouring.white else r + 1
    vertex_of: dict[tuple, int] = {}
    for v in T.vertex_ids():
        vertex_of[(sq.labels[v], level[v])] = v
    if len(vertex_of) != T.n_vertices or vertex_of.keys() != {(g, lv) for g in order for lv in (r, r + 1)}:
        raise InputNotQuadrangulation("the labels and colouring do not give each graph vertex one white and one black vertex")

    black = set(sq.colouring.black)
    white = set(sq.colouring.white)
    new_labels: dict[int, object] = {v: (sq.labels[v], min(level[v], r)) for v in T.vertex_ids()}
    active = set(T.vertex_ids())

    for i in range(r - 1, 0, -1):
        for g in order:
            vtop = vertex_of[(g, i + 2)]
            cone_set = face_closure(builder, builder.star(vtop, active))
            coords = None
            if has_coords:
                scale = 1.0 - i / (r + 2)
                coords = tuple(scale * t for t in pos[vtop])
            vnew = builder.add_cone(f"{g}^{i}", coords, cone_set)
            if has_coords:
                pos[vnew] = coords
            (black if vtop in black else white).add(vnew)
            active.add(vnew)
            active.discard(vtop)
            vertex_of[(g, i)] = vnew
            level[vnew] = i
            new_labels[vnew] = (g, i)

    inner = {v for v, lv in level.items() if lv in (1, 2)}
    core = []
    for d in range(T.dim + 2):
        for cid, c in enumerate(builder.cells_of(d)):
            if all(v in inner for v in c.vertices):
                core.append((d, cid))
    z_coords = None
    if has_coords:
        z_coords = (0.0,) * len(pos[0])
    z = builder.add_cone("z", z_coords, face_closure(builder, core))
    (black if vertex_of[(order[0], 2)] in black else white).add(z)
    new_labels[z] = "z"

    ball = builder.build()
    # The input sphere is the ball's boundary, so its pairing has boundary scope.
    involution = replace(sq.involution, scope="boundary")
    colouring = TwoColouring(frozenset(black), frozenset(white))
    return BallQuad(ball, involution, colouring, new_labels, mycielskian(graph, r))


# ---- pipelines ----

def mycielski_tower(n: int) -> SphereQuad:
    """The iterated two-level construction: a verified quadrangulation whose
    identified graph is the canonical chromatic-number-n graph."""
    if n < 3:
        raise BadParameters("tower starts at n = 3")
    sq = odd_cycle_sphere(2)
    for _ in range(n - 3):
        ball = mycielski_lift(sq, 2)
        sq = double_to_sphere(ball)
    return sq


def complete_graph_pipeline(t: int, n: int) -> SphereQuad:
    """A verified quadrangulation whose identified graph is complete on the
    int labels 0..t-1, living over dimension n.

    A base sphere is suspended up to dimension n: for t - n = 2 the
    triangle's circle `odd_cycle_sphere(1)` (K_3 over dimension 1), and
    otherwise the doubled `cylinder_complete((t - n) // 2)` (K_{t-n+3} over
    dimension 3).  Each suspension adds one universal label."""
    if n < 1 or t < n + 2:
        raise BadParameters("needs t >= n + 2 and n >= 1")
    if (t - n) % 2:
        raise UnsupportedParameters("t and n must have the same parity")
    d = t - n
    if d == 2:
        sq, base = odd_cycle_sphere(1), 1
    elif n < 3:
        raise UnsupportedParameters(f"no construction for t - n = {d} below dimension 3")
    else:
        sq, base = double_to_sphere(cylinder_complete(d // 2)), 3
    for _ in range(n - base):
        sq = suspension(sq)
    return sq


def schrijver_pipeline(n: int, k: int) -> tuple[SphereQuad, Homomorphism]:
    """The lift tower over the (2k+1)-cycle together with a verified
    homomorphism from its identified graph into the stable k-subsets of [n]."""
    if not (k >= 1 and n >= 2 * k + 1):
        raise BadParameters("needs n >= 2k + 1 and k >= 1")
    sq = odd_cycle_sphere(k)
    for _ in range(2 * k + 2, n + 1):
        sq = double_to_sphere(mycielski_lift(sq, k))
    hom = iterated_schrijver_homomorphism(n, k)
    report = verify_homomorphism(hom)
    if not report.ok:
        raise VerificationFailed("homomorphism verification failed", None)
    if hom.source != sq.graph:
        raise VerificationFailed("homomorphism source differs from the identified graph", None)
    return sq, hom
