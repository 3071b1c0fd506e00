import pytest

from projquad import (
    Cell,
    Complex,
    ComplexBuilder,
    Graph,
    HomologyCalculator,
    Involution,
    SimplicialBuilder,
    TwoColouring,
    ball_check,
    boundary_operator_audit,
    cycle_parity_vs_homology,
    fineness_check,
    odd_cycle_sphere,
    parity_audit,
    quadrangulation_check,
    quotient,
    sample_closed_walks,
    sphere_check,
    verify_ball_quadrangulation,
    verify_sphere_quadrangulation,
    verify_z2_map_to_box,
)
from projquad.errors import MissingCoordinates, NotAClosedWalk, NotACycle, NotOnUnitSphere
from projquad.symmetry import bichromatic_edge_cells


def test_sphere_check_accepts_octahedron(octahedron):
    assert sphere_check(HomologyCalculator(octahedron)).ok


def test_sphere_check_rejects_projective_plane(projective_plane):
    rep = sphere_check(HomologyCalculator(projective_plane))
    assert not rep.ok
    assert any(v.code == "WrongHomology" for v in rep.violations)


def test_sphere_check_rejects_ball(interval_ball):
    rep = sphere_check(HomologyCalculator(interval_ball))
    assert not rep.ok


def test_sphere_check_zero_dimensional():
    b = ComplexBuilder()
    b.add_vertex()
    b.add_vertex()
    two_points = b.build()
    assert sphere_check(HomologyCalculator(two_points)).ok


def test_ball_check_interval(interval_ball):
    assert ball_check(HomologyCalculator(interval_ball)).ok


def test_ball_identification_loop_is_a_failing_entry():
    # a single edge with its two ends paired: identifying them makes a loop
    b = ComplexBuilder()
    b.add_vertex()
    b.add_vertex()
    b.add_cell(1, (0, 1), (0, 1))
    involution = Involution("boundary", {0: 1, 1: 0})
    col = TwoColouring(black=frozenset({0}), white=frozenset({1}))
    report, graph = verify_ball_quadrangulation(
        b.build(), involution, col, labels={0: 0, 1: 0}, expected_graph=Graph([0])
    )
    assert report.failing() == ["antipodal-free", "graph-identification"]
    assert graph is None


def test_quotient_entry_fails_on_an_antipodal_pair_in_a_cell(digon_sphere_bits):
    # An all-black colouring selects no edge, so the digon passes the
    # identification and reaches the quotient; both its edges hold the pair.
    complex, inv, _ = digon_sphere_bits
    black = TwoColouring(black=frozenset({0, 1}), white=frozenset())
    report, graph = verify_sphere_quadrangulation(
        complex, inv, black, labels={0: "x", 1: "x"}, expected_graph=Graph(["x"])
    )
    assert report.entry("involution-valid").ok
    assert not report.entry("antipodal-free").ok
    last = report.entries[-1]
    assert (last.name, last.ok) == ("quotient", False)
    assert [v.detail for v in last.violations] == ["LoopsWouldForm: 1-cell 0 contains an antipodal pair"]
    assert graph == Graph(["x"])


def test_quotient_homology_without_its_hypotheses_is_the_betti_check(octahedron, octahedron_involution):
    # Two disjoint octahedra pass every entry up to `sphere`, which fails on
    # b_0 = 2, so `quotient-homology` is no lemma here: the entry reads the
    # Betti numbers of the projected quotient, two projective planes.
    n = octahedron.n_vertices
    sb = SimplicialBuilder()
    for v in range(2 * n):
        sb.add_vertex(f"v{v}")
    for shift in (0, n):
        for c in octahedron.cells_of(2):
            sb.add_simplex(tuple(v + shift for v in c.vertices))
    twice = sb.build()
    vp = {v + shift: octahedron_involution.vertex_pairing[v] + shift for shift in (0, n) for v in range(n)}
    by_vertices = {d: {frozenset(c.vertices): i for i, c in enumerate(twice.cells_of(d))} for d in (1, 2)}
    cp = {d: {i: by_vertices[d][frozenset(map(vp.get, vs))] for vs, i in by_vertices[d].items()} for d in (1, 2)}
    black = frozenset(v + shift for shift in (0, n) for v in (0, 1, 2))
    colouring = TwoColouring(black=black, white=frozenset(range(2 * n)) - black)
    involution = Involution("full", vp, cp)
    report, _ = verify_sphere_quadrangulation(
        twice, involution, colouring, labels={v: min(v, vp[v]) for v in vp}, expected_graph=Graph()
    )
    assert report.entry("boundary-operator").ok and not report.entry("sphere").ok
    entry = report.entry("quotient-homology")
    assert [v.detail for v in entry.violations] == ["betti (2, 2, 2), expected (1, 1, 1)"]
    assert HomologyCalculator(quotient(twice, involution)[0]).all_betti() == (2, 2, 2)


def test_ball_check_rejects_sphere(octahedron):
    rep = ball_check(HomologyCalculator(octahedron))
    assert not rep.ok
    assert any(v.code == "NoBoundary" for v in rep.violations)


def test_ball_check_triangle_disc():
    sb = SimplicialBuilder()
    for _ in range(3):
        sb.add_vertex()
    sb.add_simplex((0, 1, 2))
    assert ball_check(HomologyCalculator(sb.build())).ok


@pytest.mark.parametrize(
    "triangles,code,detail",
    [
        # contractible, but its boundary is two circles
        ([(0, 1, 6), (1, 2, 6), (0, 2, 6), (3, 4, 6), (4, 5, 6), (3, 5, 6)], "BoundaryNotSphere", "WrongHomology: betti (2, 2), expected (1, 1)"),
        ([(0, 1, 2), (0, 1, 3), (0, 1, 4)], "BadCofacetCount", "3 cofacets, expected 1 or 2"),
    ],
    ids=["cone-over-two-triangles", "three-triangles-on-an-edge"],
)
def test_ball_check_names_its_one_failure(triangles, code, detail):
    sb = SimplicialBuilder()
    for _ in range(max(map(max, triangles)) + 1):
        sb.add_vertex()
    for t in triangles:
        sb.add_simplex(t)
    rep = ball_check(HomologyCalculator(sb.build()))
    assert [(v.code, v.detail) for v in rep.violations] == [(code, detail)]


def test_boundary_operator_audit(octahedron, projective_plane):
    assert boundary_operator_audit(HomologyCalculator(octahedron)).ok
    assert boundary_operator_audit(HomologyCalculator(projective_plane)).ok


def test_quadrangulation_check_on_odd_cycle():
    sq = odd_cycle_sphere(2)
    edge_cells = bichromatic_edge_cells(sq.complex, sq.colouring)
    assert quadrangulation_check(sq.complex, edge_cells=edge_cells).ok


def test_quadrangulation_check_fails_without_selected_edges(octahedron):
    rep = quadrangulation_check(octahedron, edge_cells=frozenset())
    assert not rep.ok
    assert any(v.code == "NoEdge" for v in rep.violations)


def test_quadrangulation_check_against_graph(octahedron):
    # selecting the whole 1-skeleton makes each face a triangle, which is not
    # complete bipartite
    rep = quadrangulation_check(octahedron, frozenset(range(octahedron.n_cells(1))))
    assert not rep.ok
    assert any(v.code == "NotCompleteBipartite" for v in rep.violations)


def test_parity_audit_on_built_sphere():
    sq = odd_cycle_sphere(3)
    edge_cells = bichromatic_edge_cells(sq.complex, sq.colouring)
    assert parity_audit(sq.complex, edge_cells=edge_cells).ok


def test_parity_audit_flags_odd_selection(octahedron):
    # select all three edges of one triangle: odd count (3) on that face
    tri = octahedron.cell(2, 0)
    rep = parity_audit(octahedron, edge_cells=frozenset(tri.facets))
    assert not rep.ok
    assert any(v.code == "OddSelection" for v in rep.violations)


def test_cycle_parity_vs_homology(octahedron):
    col = TwoColouring(black=frozenset({0, 1, 2}), white=frozenset({3, 4, 5}))
    edge_cells = bichromatic_edge_cells(octahedron, col)
    # equator square 0-1-3-4 as a closed walk
    ids = {frozenset(octahedron.cell(1, i).vertices): i for i in range(octahedron.n_cells(1))}
    walk = [ids[frozenset(p)] for p in ((0, 1), (1, 3), (3, 4), (4, 0))]
    out = cycle_parity_vs_homology(octahedron, walk, edge_cells=edge_cells)
    assert out["length"] == 4
    assert out["consistent"]
    assert out["homology_class"] == 0
    with pytest.raises(NotAClosedWalk):
        cycle_parity_vs_homology(octahedron, walk[:2], edge_cells=edge_cells)
    # the walk 0-1-2-0 closes on vertices, but the facets of the 1-cell (0, 2)
    # name the 0-cell 0 twice, so the sum of its cells has boundary 0 + 2
    vertices = [Cell((v,), ()) for v in range(3)]
    edges = [Cell((0, 1), (0, 1)), Cell((1, 2), (1, 2)), Cell((0, 2), (0, 0))]
    triangle = Complex([vertices, edges], [None] * 3)
    with pytest.raises(NotACycle, match=r"^1-chain has non-zero boundary$"):
        cycle_parity_vs_homology(triangle, [0, 1, 2], edge_cells=frozenset({0, 1, 2}))


def test_sample_closed_walks_deterministic(octahedron):
    col = TwoColouring(black=frozenset({0, 1, 2}), white=frozenset({3, 4, 5}))
    edge_cells = bichromatic_edge_cells(octahedron, col)
    w1 = sample_closed_walks(octahedron, edge_cells, 20, seed=3)
    w2 = sample_closed_walks(octahedron, edge_cells, 20, seed=3)
    assert w1 == w2
    assert len(w1) == 20
    for walk in w1:
        out = cycle_parity_vs_homology(octahedron, walk, edge_cells=edge_cells)
        assert out["consistent"]


def test_no_selected_cell_gives_no_walks(octahedron):
    assert sample_closed_walks(octahedron, frozenset(), 5, seed=0) == []


def test_box_map_on_odd_cycle():
    sq = odd_cycle_sphere(2)
    assert verify_z2_map_to_box(sq.complex, sq.colouring, sq.graph, sq.labels).ok


def _octahedron_into_k33(missing=()):
    # the upper vertices black, the lower ones white: every face maps into
    # the box complex of K_{3,3} between {0, 1, 2} and {3, 4, 5}; the labels
    # are not constant on antipodal pairs, which `labels-on-orbits` checks
    col = TwoColouring(black=frozenset({0, 1, 2}), white=frozenset({3, 4, 5}))
    graph = Graph(range(6), [(a, b) for a in (0, 1, 2) for b in (3, 4, 5) if (a, b) not in missing])
    return col, graph, {v: v for v in range(6)}


def _faces(octahedron, report):
    return sorted(octahedron.cell(2, v.cell_id).vertices for v in report.violations)


def test_box_map_flags_a_missing_graph_edge(octahedron):
    assert verify_z2_map_to_box(octahedron, *_octahedron_into_k33()).ok
    col, graph, labels = _octahedron_into_k33(missing={(0, 5)})
    rep = verify_z2_map_to_box(octahedron, col, graph, labels)
    assert {v.code for v in rep.violations} == {"NotInBoxComplex"}
    # exactly the two faces holding the edge {0, 5}
    assert _faces(octahedron, rep) == [(0, 1, 5), (0, 4, 5)]


def test_box_map_flags_merged_labels(octahedron):
    col, graph, labels = _octahedron_into_k33()
    labels[1] = 0  # two black vertices of one face share an image
    rep = verify_z2_map_to_box(octahedron, col, graph, labels)
    assert {v.code for v in rep.violations} == {"NotSimplicialMap"}
    assert _faces(octahedron, rep) == [(0, 1, 2), (0, 1, 5)]


def test_fineness_requires_coordinates(projective_plane):
    col = TwoColouring(black=frozenset({0, 2, 4}), white=frozenset({1, 3, 5}))
    with pytest.raises(MissingCoordinates):
        fineness_check(projective_plane, col)


def test_fineness_requires_unit_sphere(interval_ball):
    col = TwoColouring(black=frozenset({0, 1}), white=frozenset({2}))
    with pytest.raises(NotOnUnitSphere):
        fineness_check(interval_ball, col)


def test_fineness_octahedron(octahedron):
    col = TwoColouring(black=frozenset({0, 1, 2}), white=frozenset({3, 4, 5}))
    out = fineness_check(octahedron, col)
    # bichromatic edges have length sqrt(2), threshold is 2/sqrt(5)
    assert out["fine"] is False
    assert abs(out["max_bichromatic_edge_length"] - 2 ** 0.5) < 1e-12
