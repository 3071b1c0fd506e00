"""Verified builders: symmetric spheres, balls, cones, and their pipelines.

Every public constructor runs the full audit stack before returning and
raises VerificationFailed if anything fails, so a value of type SphereQuad
or BallQuad is always a checked object.  No constructor samples closed
walks: `walk-parity` is run by `verify_sphere_quadrangulation(..., n_walks=N)`,
as `projquad verify` runs it on a stored bundle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, pi, sin
from typing import Iterable, Sequence

from .audits import (
    verify_ball_quadrangulation,
    verify_sphere_quadrangulation,
)
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
    BoundaryStructure,
    Involution,
    TwoColouring,
    _double,
)
from .validation import AuditEntry, AuditReport


@dataclass(frozen=True)
class SphereQuad:
    """A verified antipodally symmetric coloured sphere with its quotient."""

    complex: Complex
    involution: Involution
    colouring: TwoColouring
    labels: dict
    graph: Graph
    quotient: Complex
    projection: dict
    selected: frozenset
    report: AuditReport


@dataclass(frozen=True)
class BallQuad:
    """A verified coloured ball whose boundary carries a free involution."""

    complex: Complex
    boundary: BoundaryStructure
    colouring: TwoColouring
    labels: dict
    graph: Graph
    report: AuditReport


def _sphere_quad(
    complex: Complex,
    involution: Involution,
    colouring: TwoColouring,
    report: AuditReport,
    artifacts: dict,
    what: str,
) -> SphereQuad:
    """The SphereQuad of a passing sphere report and its artifacts (as
    `verify_sphere_quadrangulation` returns them); raises VerificationFailed
    naming the failing audits otherwise."""
    if not report.ok:
        raise VerificationFailed(f"{what}: failing audits: {', '.join(report.failing())}", report)
    return SphereQuad(
        complex=complex,
        involution=involution,
        colouring=colouring,
        labels=artifacts["labels"],
        graph=artifacts["graph"],
        quotient=artifacts["quotient"],
        projection=artifacts["projection"],
        selected=artifacts["selected_quotient_cells"],
        report=report,
    )


def _finish_sphere(
    complex: Complex,
    involution: Involution,
    colouring: TwoColouring,
    labels: dict,
    *,
    expected_graph: Graph,
    what: str,
) -> SphereQuad:
    report, artifacts = verify_sphere_quadrangulation(complex, involution, colouring, labels=labels, expected_graph=expected_graph)
    return _sphere_quad(complex, involution, colouring, report, artifacts, what)


def _finish_ball(
    complex: Complex,
    boundary: BoundaryStructure,
    colouring: TwoColouring,
    labels: dict,
    *,
    expected_graph: Graph,
    extra_entries: Sequence[AuditEntry] = (),
    what: str,
) -> BallQuad:
    report, artifacts = verify_ball_quadrangulation(
        complex, boundary, colouring, labels=labels, expected_graph=expected_graph
    )
    if extra_entries:
        report = AuditReport(tuple(report.entries) + tuple(extra_entries))
    if not report.ok:
        raise VerificationFailed(f"{what}: failing audits: {', '.join(report.failing())}", report)
    return BallQuad(
        complex=complex,
        boundary=boundary,
        colouring=colouring,
        labels=labels,
        graph=artifacts["graph"],
        report=report,
    )


def _cell_pairing_by_vertices(
    complex: Complex,
    vertex_pairing: dict[int, int],
    scope: dict[int, Iterable[int]],
) -> dict[int, dict[int, int]]:
    """Derive cell pairs from vertex pairs when vertex sets are unique."""
    out: dict[int, dict[int, int]] = {}
    for d in range(1, complex.dim + 1):
        ids = sorted(scope.get(d, ()))
        if not ids:
            continue
        by_vs: dict[frozenset, int] = {}
        for i in ids:
            key = frozenset(complex.cell(d, i).vertices)
            if key in by_vs:
                raise BadParameters(f"parallel {d}-cells {by_vs[key]} and {i}; explicit pairing needed")
            by_vs[key] = i
        m: dict[int, int] = {}
        for i in ids:
            image = frozenset(vertex_pairing[v] for v in complex.cell(d, i).vertices)
            if image not in by_vs:
                raise BadParameters(f"{d}-cell {i} has no antipodal partner")
            m[i] = by_vs[image]
        out[d] = m
    return out


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
    vp = {}
    for i in range(2 * m):
        vp[i] = (i + m) % (2 * m)
    cp = {1: {i: (i + m) % (2 * m) for i in range(2 * m)}}
    involution = Involution("full", vp, cp)
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

def _ray_blocked(point: tuple, triangles: list[tuple], own: int, tol: float = 1e-9) -> bool:
    """Whether segment (origin, point) strictly crosses any listed triangle
    other than triangle index `own` before reaching the point."""
    # Solve s*P = A + u*(B-A) + v*(C-A) by Cramer's rule on the columns
    # (q, e, f) = (-P, B-A, C-A) with right-hand side r = -A, each 3x3
    # determinant expanded along its first row.  The operand order is that
    # of the plain matrix expansion; the visibility verdicts rest on these
    # exact floats.
    qx, qy, qz = -point[0], -point[1], -point[2]
    for idx, (a, b, c) in enumerate(triangles):
        if idx == own:
            continue
        ex, ey, ez = b[0] - a[0], b[1] - a[1], b[2] - a[2]
        fx, fy, fz = c[0] - a[0], c[1] - a[1], c[2] - a[2]
        ef, qf, qe = ey * fz - fy * ez, qy * fz - fy * qz, qy * ez - ey * qz
        det = qx * ef - ex * qf + fx * qe
        if abs(det) < tol:
            continue
        rx, ry, rz = -a[0], -a[1], -a[2]
        rf, qr = ry * fz - fy * rz, qy * rz - ry * qz
        s = (rx * ef - ex * rf + fx * (ry * ez - ey * rz)) / det
        u = (qx * rf - rx * qf + fx * qr) / det
        v = (qx * (ey * rz - ry * ez) - ex * qr + rx * qe) / det
        if u > -tol and v > -tol and u + v < 1 + tol and tol < s < 1 - tol:
            return True
    return False


def _visibility_entry(complex: Complex, ring_cells: list[tuple[int, int]], expected: set[frozenset]) -> AuditEntry:
    """Check that the ring faces fully visible from the origin are exactly
    the expected ones (sampled at the centroid and three interior points)."""
    faces = sorted(face_closure(complex, ring_cells)[2])
    triangles = []
    for f in faces:
        vs = complex.cell(2, f).vertices
        triangles.append(tuple(complex.coords(v) for v in vs))
    weights = ((1 / 3, 1 / 3, 1 / 3), (0.5, 0.25, 0.25), (0.25, 0.5, 0.25), (0.25, 0.25, 0.5))
    visible: set[frozenset] = set()
    for idx, f in enumerate(faces):
        a, b, c = triangles[idx]
        ok = True
        for w in weights:
            p = tuple(w[0] * a[t] + w[1] * b[t] + w[2] * c[t] for t in range(3))
            if _ray_blocked(p, triangles, idx):
                ok = False
                break
        if ok:
            visible.add(frozenset(complex.cell(2, f).vertices))
    agrees = visible == expected
    detail = "" if agrees else f"visible {len(visible)} faces, expected {len(expected)}"
    return AuditEntry("visibility-inner-boundary", agrees, (), {"detail": detail} if detail else {})


def cylinder_complete(r: int) -> BallQuad:
    """A solid cylinder over the (2r+1)-gon whose identified boundary graph
    is the complete graph on 2r+3 labels.

    Black ring vertices on the top circle, white ring antipodal on the
    bottom, a pole at the centre of each cap, and the origin inside; the
    lateral shell is an r-1 deep stack of tetrahedron rings, coned to the
    origin along its inner boundary.  r >= 3 is the fully validated range;
    r in {1, 2} is accepted and subjected to the same audits.
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

    ring_cells: list[tuple[int, int]] = []
    for j in range(1, r):
        for t in range(m):
            ring_cells.append(sb.add_simplex((x(t), x(t + 1), y(t + r + j), y(t + r + j + 1))))
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
    bcells = boundary_cells(complex)
    cp = _cell_pairing_by_vertices(complex, vp, bcells)
    involution = Involution("boundary", vp, cp)
    boundary = BoundaryStructure(bcells, involution)

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

    extra = []
    if r >= 2:
        expected = set()
        for t in range(m):
            expected.add(frozenset((x(t), x(t + 1), y(t + 2 * r))))
            expected.add(frozenset((x(t), y(t + 2 * r - 1), y(t + 2 * r))))
        extra.append(_visibility_entry(complex, ring_cells, expected))
    return _finish_ball(
        complex,
        boundary,
        colouring,
        labels,
        expected_graph=complete_graph(m + 2),
        extra_entries=extra,
        what=f"cylinder r={r}",
    )


# ---- doubling a ball into a sphere ----

def double_to_sphere(ball: BallQuad) -> SphereQuad:
    """Glue a mirrored copy onto the ball; the identified graph is unchanged.

    The checks of `double` are not repeated: the ball's audit has passed
    `involution-valid` on the boundary involution, `colouring-total` and
    `colouring-antisymmetric`."""
    complex, involution, colouring = _double(ball.complex, ball.boundary.involution, ball.colouring)
    labels = dict(ball.labels)
    for v in ball.complex.vertex_ids():
        w = involution.vertex(v)
        if w >= ball.complex.n_vertices:
            labels[w] = labels[v]
    return _finish_sphere(
        complex,
        involution,
        colouring,
        labels,
        expected_graph=ball.graph,
        what="doubled ball",
    )


# ---- suspension ----

def _cone_over(builder: ComplexBuilder, apex: int, cone_set: dict[int, Iterable[int]]) -> dict[tuple[int, int], int]:
    cone_map: dict[tuple[int, int], int] = {}
    for d in sorted(cone_set):
        for i in sorted(cone_set[d]):
            if d == 0:
                new = builder.add_cell(1, (i, apex), (i, apex))
            else:
                cell = builder.cell(d, i)
                facets = [i] + [cone_map[(d - 1, f)] for f in cell.facets]
                new = builder.add_cell(d + 1, tuple(cell.vertices) + (apex,), facets)
            cone_map[(d, i)] = new
    return cone_map


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
    """Join with two new poles (one per colour); the quotient graph gains a
    universal vertex under the next available label."""
    label = _fresh_orbit_label(sq.graph)
    old = sq.complex
    if old.has_coords:
        old = Complex(
            [old.cells_of(d) for d in range(old.dim + 1)],
            old.labels,
            [tuple(old.coords(v)) + (0.0,) for v in old.vertex_ids()],
        )
    dim_counts = {d: range(old.n_cells(d)) for d in range(old.dim + 1)}
    builder = ComplexBuilder.from_complex(old)
    if old.has_coords:
        amb = len(old.coords(0))
        pos = builder.add_vertex("p+", (0.0,) * (amb - 1) + (1.0,))
        neg = builder.add_vertex("p-", (0.0,) * (amb - 1) + (-1.0,))
    else:
        pos = builder.add_vertex("p+")
        neg = builder.add_vertex("p-")
    cone_pos = _cone_over(builder, pos, dim_counts)
    cone_neg = _cone_over(builder, neg, dim_counts)
    complex = builder.build()

    vp = dict(sq.involution.vertex_pairing)
    vp[pos] = neg
    vp[neg] = pos
    cp: dict[int, dict[int, int]] = {d: dict(m) for d, m in sq.involution.cell_pairing.items()}
    for d in range(old.dim + 1):
        lower = cp.setdefault(d + 1, {})
        for i in dim_counts[d]:
            j = sq.involution.cell(d, i)
            lower[cone_pos[(d, i)]] = cone_neg[(d, j)]
            lower[cone_neg[(d, j)]] = cone_pos[(d, i)]
    involution = Involution("full", vp, cp)

    colouring = TwoColouring(sq.colouring.black | {pos}, sq.colouring.white | {neg})
    labels = dict(sq.labels)
    labels[pos] = label
    labels[neg] = label
    expected = sq.graph.copy()
    expected.add_vertex(label)
    for v in sq.graph.vertices:
        expected.add_edge(v, label)
    return _finish_sphere(
        complex,
        involution,
        colouring,
        labels,
        expected_graph=expected,
        what="suspension",
    )


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

    black = set(sq.colouring.black)
    white = set(sq.colouring.white)
    new_labels: dict[int, object] = {v: (sq.labels[v], min(level[v], r)) for v in T.vertex_ids()}
    active = set(T.vertex_ids())

    for i in range(r - 1, 0, -1):
        for g in order:
            vtop = vertex_of[(g, i + 2)]
            star = [(0, vtop)]
            for d in range(1, T.dim + 2):
                for c in builder.cells_of(d):
                    if vtop in c.vertices and all(v in active for v in c.vertices):
                        star.append((d, c.id))
            cone_set = face_closure(builder, star)
            coords = None
            if has_coords:
                scale = 1.0 - i / (r + 2)
                coords = tuple(scale * t for t in pos[vtop])
            vnew = builder.add_vertex(f"{g}^{i}", coords)
            if has_coords:
                pos[vnew] = coords
            (black if vtop in black else white).add(vnew)
            _cone_over(builder, vnew, cone_set)
            active.add(vnew)
            active.discard(vtop)
            vertex_of[(g, i)] = vnew
            level[vnew] = i
            new_labels[vnew] = (g, i)

    inner = {v for v, lv in level.items() if lv in (1, 2)}
    core = []
    for d in range(T.dim + 2):
        for c in builder.cells_of(d):
            if all(v in inner for v in c.vertices):
                core.append((d, c.id))
    z_coords = None
    if has_coords:
        z_coords = (0.0,) * len(pos[0])
    z = builder.add_vertex("z", z_coords)
    (black if vertex_of[(order[0], 2)] in black else white).add(z)
    _cone_over(builder, z, face_closure(builder, core))
    new_labels[z] = "z"

    ball = builder.build()
    boundary = BoundaryStructure(
        {d: frozenset(range(T.n_cells(d))) for d in range(T.dim + 1)},
        Involution("boundary", dict(sq.involution.vertex_pairing), {d: dict(m) for d, m in sq.involution.cell_pairing.items()}),
    )
    colouring = TwoColouring(frozenset(black), frozenset(white))
    return _finish_ball(
        ball,
        boundary,
        colouring,
        new_labels,
        expected_graph=mycielskian(graph, r),
        what=f"level-cone lift r={r}",
    )


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
    """A verified quadrangulation whose identified graph is complete on t
    labels, living over dimension n."""
    if n < 1 or t < n + 2:
        raise BadParameters("needs t >= n + 2 and n >= 1")
    if (t - n) % 2:
        raise UnsupportedParameters("t and n must have the same parity")
    d = t - n
    if d == 2:
        sq = odd_cycle_sphere(1)
        for _ in range(n - 1):
            sq = double_to_sphere(mycielski_lift(sq, 1))
        return sq
    if n < 3:
        raise UnsupportedParameters(f"no construction for t - n = {d} below dimension 3")
    sq = double_to_sphere(cylinder_complete(d // 2))
    for _ in range(n - 3):
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
