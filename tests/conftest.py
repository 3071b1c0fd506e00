import pytest

from projquad import Complex, ComplexBuilder, Graph, Involution, SimplicialBuilder, TwoColouring


@pytest.fixture
def octahedron() -> Complex:
    """Boundary of the octahedron: vertices +-e_i, antipodes (0,3), (1,4), (2,5)."""
    sb = SimplicialBuilder()
    coords = [
        (1.0, 0.0, 0.0),
        (0.0, 1.0, 0.0),
        (0.0, 0.0, 1.0),
        (-1.0, 0.0, 0.0),
        (0.0, -1.0, 0.0),
        (0.0, 0.0, -1.0),
    ]
    for i, c in enumerate(coords):
        sb.add_vertex(f"v{i}", c)
    for a in (0, 3):
        for b in (1, 4):
            for c in (2, 5):
                sb.add_simplex((a, b, c))
    return sb.build()


@pytest.fixture
def octahedron_involution(octahedron) -> Involution:
    vp = {0: 3, 3: 0, 1: 4, 4: 1, 2: 5, 5: 2}
    cp: dict[int, dict[int, int]] = {1: {}, 2: {}}
    by_vs = {
        d: {frozenset(c.vertices): c.id for c in octahedron.cells_of(d)} for d in (1, 2)
    }
    for d in (1, 2):
        for key, i in by_vs[d].items():
            cp[d][i] = by_vs[d][frozenset(vp[v] for v in key)]
    return Involution("full", vp, cp)


@pytest.fixture
def projective_plane() -> Complex:
    """The 6-vertex triangulation of the projective plane."""
    faces = [
        (1, 2, 3),
        (1, 3, 4),
        (1, 4, 5),
        (1, 5, 6),
        (1, 6, 2),
        (2, 3, 5),
        (3, 4, 6),
        (4, 5, 2),
        (5, 6, 3),
        (6, 2, 4),
    ]
    sb = SimplicialBuilder()
    for i in range(1, 7):
        sb.add_vertex(f"p{i}")
    for f in faces:
        sb.add_simplex(tuple(v - 1 for v in f))
    return sb.build()


@pytest.fixture
def interval_ball() -> Complex:
    """A path of two edges: a 1-ball whose boundary is the two endpoints."""
    b = ComplexBuilder()
    for i in range(3):
        b.add_vertex(f"u{i}", (float(i) - 1.0,))
    b.add_cell(1, (0, 1), (0, 1))
    b.add_cell(1, (1, 2), (1, 2))
    return b.build()


@pytest.fixture
def parallel_digon() -> Complex:
    """Two parallel edges on two vertices: the minimal generalized complex."""
    b = ComplexBuilder()
    b.add_vertex("a")
    b.add_vertex("b")
    b.add_cell(1, (0, 1), (0, 1))
    b.add_cell(1, (0, 1), (0, 1))
    return b.build()


@pytest.fixture
def digon_sphere_bits(parallel_digon):
    inv = Involution("full", {0: 1, 1: 0}, {1: {0: 1, 1: 0}})
    col = TwoColouring(black=frozenset({0}), white=frozenset({1}))
    return parallel_digon, inv, col


def quotient_spans_the_identified_graph(artifacts) -> bool:
    """The comparison that `identification-commutes` replaced: the graph of
    the selected quotient 1-cells, each quotient vertex labelled as its
    orbit's smaller member, is the identified graph."""
    q, to_orbit = artifacts["quotient"], artifacts["projection"][0]
    spanned = Graph(range(q.n_vertices), [q.cell(1, e).vertices for e in artifacts["selected_quotient_cells"]])
    label_of = {}
    for v in sorted(to_orbit):
        label_of.setdefault(to_orbit[v], artifacts["labels"][v])
    return spanned.relabel(label_of) == artifacts["graph"]


def quotient_lemmas_hold(report, artifacts) -> bool:
    """Each quotient lemma against the check it replaces: a passing
    `quotient-valid` comes with a quotient that `Complex.validate` accepts,
    and a passing `identification-commutes` with selected quotient 1-cells
    that span the identified graph."""
    valid, commutes = report.entry("quotient-valid"), report.entry("identification-commutes")
    return (valid is None or not valid.ok or artifacts["quotient"].validate().ok) and (
        commutes is None or not commutes.ok or quotient_spans_the_identified_graph(artifacts)
    )
