import json
from dataclasses import replace

import pytest

from projquad import (
    Cell,
    Complex,
    Graph,
    HomologyCalculator,
    boundary_cells,
    complete_graph,
    complete_graph_pipeline,
    cycle_graph,
    cylinder_complete,
    double_to_sphere,
    face_closure,
    mycielski_lift,
    mycielski_tower,
    mycielskian,
    odd_cycle_sphere,
    schrijver_graph,
    schrijver_pipeline,
    suspension,
    verify_ball_quadrangulation,
    verify_homomorphism,
    verify_sphere_quadrangulation,
)
from projquad import constructions
from projquad.cli import main
from projquad.errors import BadParameters, InputNotQuadrangulation, UnsupportedParameters, VerificationFailed
from projquad.validation import AuditEntry, AuditReport

from conftest import mycielski_graph


def _walk_parity(sq, n_walks: int):
    """The `walk-parity` entry of a re-audit of the built sphere that samples
    `n_walks` closed walks (the constructors sample none)."""
    report, _ = verify_sphere_quadrangulation(
        sq.complex, sq.involution, sq.colouring, labels=sq.labels, expected_graph=sq.graph, n_walks=n_walks
    )
    assert report.ok, report.failing()
    return report.entry("walk-parity")


def test_odd_cycle_sphere_structure():
    sq = odd_cycle_sphere(2)
    assert sq.report.entry("walk-parity") is None
    assert _walk_parity(sq, 25).info == {"sampled": 25}
    assert sq.complex.n_vertices == 10
    assert sq.complex.n_cells(1) == 10
    assert sq.report.ok
    assert sq.graph == cycle_graph(5)
    assert sq.quotient.n_vertices == 5
    assert HomologyCalculator(sq.quotient).all_betti() == (1, 1)


def test_odd_cycle_sphere_rejects_k0():
    with pytest.raises(BadParameters):
        odd_cycle_sphere(0)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_cylinder_counts(r):
    ball = cylinder_complete(r)
    m = 2 * r + 1
    assert ball.complex.n_vertices == 2 * m + 3
    assert ball.complex.n_cells(3) == (r + 3) * m
    assert ball.graph == complete_graph(m + 2)
    assert double_to_sphere(ball).graph == ball.graph


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_cylinder_pairs_each_boundary_cell_with_the_cell_on_its_antipodal_vertices(r):
    # The antipode of a boundary vertex is the vertex at the negated point,
    # found here from the coordinates, not from the construction's pairing.
    ball = cylinder_complete(r)
    cx, pairing = ball.complex, ball.involution.cell_pairing
    boundary = boundary_cells(cx)
    at = {tuple(round(t, 9) for t in cx.coords(v)): v for v in cx.vertex_ids()}
    antipode = {v: at[tuple(round(-t, 9) for t in cx.coords(v))] for v in boundary[0]}
    assert sorted(pairing) == list(range(1, cx.dim))
    for d in range(1, cx.dim):
        on = {frozenset(cx.cell(d, i).vertices): i for i in boundary[d]}
        assert len(on) == len(boundary[d]), d
        expected = {i: on[frozenset(antipode[v] for v in cx.cell(d, i).vertices)] for i in sorted(boundary[d])}
        assert pairing[d] == expected, d


def test_cylinder_rejects_bad_r():
    with pytest.raises(BadParameters):
        cylinder_complete(0)


def test_cylinder_doubles_to_complete_sphere():
    sq = double_to_sphere(cylinder_complete(2))
    assert _walk_parity(sq, 25).info == {"sampled": 25}
    assert sq.graph == complete_graph(7)
    assert HomologyCalculator(sq.complex).all_betti() == (1, 0, 0, 1)
    assert HomologyCalculator(sq.quotient).all_betti() == (1, 1, 1, 1)


def test_lift_of_five_cycle_is_groetzsch_stage():
    base = odd_cycle_sphere(2)
    ball = mycielski_lift(base, 2)
    assert [ball.complex.n_cells(d) for d in range(3)] == [16, 35, 20]
    assert ball.graph == mycielskian(cycle_graph(5), 2)
    assert sum((-1) ** d * ball.complex.n_cells(d) for d in range(3)) == 1  # Euler characteristic of a disc
    assert double_to_sphere(ball).graph == ball.graph


def test_lift_level_one_is_cone():
    base = odd_cycle_sphere(1)
    ball = mycielski_lift(base, 1)
    # one apex over the whole circle
    assert ball.complex.n_vertices == base.complex.n_vertices + 1
    assert ball.graph == mycielskian(cycle_graph(3), 1)


def test_lift_rejects_zero_levels():
    base = odd_cycle_sphere(2)
    with pytest.raises(BadParameters):
        mycielski_lift(base, 0)


def test_lift_refuses_a_sphere_whose_report_fails():
    base = odd_cycle_sphere(2)
    failing = AuditReport(base.report.entries + (AuditEntry("sphere", False),))
    with pytest.raises(InputNotQuadrangulation):
        mycielski_lift(replace(base, report=failing), 2)


@pytest.mark.parametrize("v", [0, 1])
def test_lift_refuses_a_colouring_that_gives_a_graph_vertex_two_vertices_of_one_colour(v):
    # The report still passes, but vertex v and its partner share a colour,
    # so the lift would find no vertex of the other colour for their label.
    base = odd_cycle_sphere(2)
    colouring = replace(base.colouring, black=base.colouring.black ^ {v}, white=base.colouring.white ^ {v})
    with pytest.raises(InputNotQuadrangulation):
        mycielski_lift(replace(base, colouring=colouring), 2)


def test_tower_matches_reference_graphs():
    for n in (3, 4, 5):
        sq = mycielski_tower(n)
        assert sq.graph == mycielski_graph(n)
        assert sq.complex.dim == n - 2
        expected = tuple(1 for _ in range(n - 1))
        assert HomologyCalculator(sq.quotient).all_betti() == expected


def test_tower_rejects_small_n():
    with pytest.raises(BadParameters):
        mycielski_tower(2)


def test_suspension_adds_universal_vertex():
    sq = double_to_sphere(cylinder_complete(2))
    up = suspension(sq)
    assert up.graph == complete_graph(8)
    assert up.complex.dim == 4
    assert HomologyCalculator(up.complex).all_betti() == (1, 0, 0, 0, 1)


def test_suspension_of_odd_cycle():
    sq = odd_cycle_sphere(1)
    up = suspension(sq)
    g = cycle_graph(3).copy()
    g.add_vertex(3)
    for v in range(3):
        g.add_edge(v, 3)
    assert up.graph == g
    assert HomologyCalculator(up.complex).all_betti() == (1, 0, 1)


def test_suspension_refuses_a_sphere_whose_partners_are_swapped_at_the_gluing():
    # Two vertex orbits exchange partners, so the cone's boundary pairing is
    # no simplicial map: the gluing names it before any sphere is built.
    sq = odd_cycle_sphere(2)
    swapped = {**sq.involution.vertex_pairing, 0: 6, 6: 0, 1: 5, 5: 1}  # the orbits {0, 5} and {1, 6}
    involution = replace(sq.involution, vertex_pairing=swapped)
    with pytest.raises(VerificationFailed) as excinfo:
        suspension(replace(sq, involution=involution))
    assert excinfo.value.report.failing() == ["involution-valid"]
    assert str(excinfo.value).startswith("cannot double:")


def test_a_suspension_whose_double_fails_its_audit_names_the_doubled_ball():
    # A graph short of one edge glues, but the double's identified graph is
    # not the expected one: `double_to_sphere` names the failing audit.
    sq = odd_cycle_sphere(2)
    with pytest.raises(VerificationFailed) as excinfo:
        suspension(replace(sq, graph=Graph(sq.graph.vertices, sq.graph.edges()[1:])))
    assert excinfo.value.report.failing() == ["graph-matches-expected"]
    assert str(excinfo.value) == "doubled ball: failing audits: graph-matches-expected"


def _give_0_cell_0_facet_3(complex):
    cells = [list(complex.cells_of(d)) for d in range(complex.dim + 1)]
    cells[0][0] = Cell((0,), (3,))
    return cells


def _give_edge_0_the_facets_of_edge_1(complex):
    cells = [list(complex.cells_of(d)) for d in range(complex.dim + 1)]
    cells[1][0] = Cell(cells[1][0].vertices, cells[1][1].facets)
    return cells


@pytest.mark.parametrize("tamper", [_give_0_cell_0_facet_3, _give_edge_0_the_facets_of_edge_1])
def test_suspending_a_sphere_with_an_invalid_complex_fails_complex_valid(tamper):
    # The cone of a suspension goes through no cell law, and the double
    # carries the ball's verdict; neither may turn an unlawful sphere into a
    # lawful-looking one.
    sq = odd_cycle_sphere(2)
    complex = Complex(tamper(sq.complex), sq.complex.labels, [sq.complex.coords(v) for v in sq.complex.vertex_ids()])
    assert not complex.validate().ok
    with pytest.raises(VerificationFailed) as excinfo:
        suspension(replace(sq, complex=complex))
    assert excinfo.value.report.failing() == ["complex-valid"]
    assert str(excinfo.value).startswith("cannot double:")


def test_suspending_twice_keeps_every_vertex_label_unique():
    twice = suspension(suspension(odd_cycle_sphere(1)))
    labels = [lab for lab in twice.complex.labels if lab is not None]
    assert len(labels) == len(set(labels)) == twice.complex.n_vertices
    assert twice.graph == complete_graph(5)


def test_complete_pipeline_minimal_route():
    for t, n in ((4, 2), (6, 4)):
        sq = complete_graph_pipeline(t, n)
        assert sq.graph == complete_graph(t)  # on the int labels 0..t-1
        assert sq.complex.dim == n


def test_complete_pipeline_cylinder_route():
    sq = complete_graph_pipeline(9, 5)
    assert _walk_parity(sq, 10).info == {"sampled": 10}
    assert sq.graph == complete_graph(9)
    assert sq.complex.dim == 5


def test_complete_pipeline_parameter_validation():
    with pytest.raises(BadParameters):
        complete_graph_pipeline(4, 4)
    with pytest.raises(UnsupportedParameters):
        complete_graph_pipeline(7, 4)  # odd difference
    with pytest.raises(UnsupportedParameters):
        complete_graph_pipeline(6, 2)  # deep route needs dimension >= 3


@pytest.mark.parametrize("n,k", [(6, 2), (8, 3)])
def test_schrijver_pipeline(n, k):
    sq, hom = schrijver_pipeline(n, k)
    assert hom.source == sq.graph
    assert hom.target == schrijver_graph(n, k)
    assert verify_homomorphism(hom).ok
    assert sq.report.ok


def test_schrijver_pipeline_base_case():
    sq, hom = schrijver_pipeline(5, 2)
    assert sq.graph == cycle_graph(5)
    assert hom.target == schrijver_graph(5, 2)


def _with_an_isolated_target_vertex(hom):
    # (1, 2) is no stable 2-subset of [6], so the target is SG(6, 2) and one more vertex.
    target = Graph((*hom.target.vertices, (1, 2)), hom.target.edges())
    return replace(hom, target=target)


def _with_a_source_short_of_an_edge(hom):
    return replace(hom, source=Graph(hom.source.vertices, hom.source.edges()[1:]))


_HOM_TAMPERS = {
    "target-plus-a-vertex": (_with_an_isolated_target_vertex, "homomorphism-target-matches"),
    "source-short-of-an-edge": (_with_a_source_short_of_an_edge, "homomorphism-source-matches"),
}


def _tamper_the_schrijver_homomorphism(monkeypatch, tamper):
    original = constructions.iterated_schrijver_homomorphism
    monkeypatch.setattr(constructions, "iterated_schrijver_homomorphism", lambda n, k: tamper(original(n, k)))


@pytest.mark.parametrize("case", _HOM_TAMPERS)
def test_schrijver_pipeline_judges_its_homomorphism_by_the_verify_entries(monkeypatch, case):
    # Each tamper is still a homomorphism; only the entry it breaks fails.
    tamper, failing = _HOM_TAMPERS[case]
    _tamper_the_schrijver_homomorphism(monkeypatch, tamper)
    with pytest.raises(VerificationFailed) as excinfo:
        schrijver_pipeline(6, 2)
    assert excinfo.value.report.failing() == [failing]


@pytest.mark.parametrize("case", _HOM_TAMPERS)
def test_a_failing_schrijver_build_prints_its_report_and_writes_nothing(tmp_path, capsys, monkeypatch, case):
    tamper, failing = _HOM_TAMPERS[case]
    _tamper_the_schrijver_homomorphism(monkeypatch, tamper)
    out = tmp_path / "sg"
    assert main(["build", "schrijver", "--n", "6", "--k", "2", "--out", str(out)]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert [e["name"] for e in payload["report"] if not e["ok"]] == [failing]
    assert not out.exists()


# The checks that `double` runs on a ball before gluing it.
_BUILT_BALL_ENTRIES = ["complex-valid", "involution-valid", "colouring-total", "colouring-antisymmetric"]

# The library ball audit, `verify_ball_quadrangulation`.
_BALL_ENTRIES = [
    "complex-valid",
    "involution-valid",
    "colouring-total",
    "antipodal-free",
    "colouring-proper",
    "colouring-antisymmetric",
    "boundary-operator",
    "ball",
    "parity",
    "quadrangulation",
    "labels-on-orbits",
    "graph-matches-expected",
]


def test_gluing_names_the_checks_it_reads():
    # One boundary vertex of a lift's ball recoloured: doubling refuses it
    # and its report holds the four checks, of which only antisymmetry fails.
    ball = mycielski_lift(odd_cycle_sphere(2), 2)
    colouring = replace(ball.colouring, black=ball.colouring.black ^ {0}, white=ball.colouring.white ^ {0})
    with pytest.raises(VerificationFailed) as excinfo:
        double_to_sphere(replace(ball, colouring=colouring))
    report = excinfo.value.report
    assert [e.name for e in report.entries] == _BUILT_BALL_ENTRIES
    assert report.failing() == ["colouring-antisymmetric"]


def test_ball_audit_entry_names():
    for ball in (cylinder_complete(3), mycielski_lift(odd_cycle_sphere(2), 2)):
        report, graph = verify_ball_quadrangulation(
            ball.complex, ball.involution, ball.colouring, labels=ball.labels, expected_graph=ball.graph
        )
        assert [e.name for e in report.entries] == _BALL_ENTRIES
        assert report.ok and graph == ball.graph


def test_lift_ball_boundary_is_input():
    base = odd_cycle_sphere(2)
    ball = mycielski_lift(base, 2)
    for d in range(base.complex.dim + 1):
        assert boundary_cells(ball.complex)[d] == frozenset(range(base.complex.n_cells(d)))
        for i in range(base.complex.n_cells(d)):
            assert ball.complex.cell(d, i).vertices == base.complex.cell(d, i).vertices


def _ray_blocked_oracle(point: tuple, triangles: list[tuple], own: int, tol: float = 1e-9) -> bool:
    """Whether segment (origin, point) strictly crosses any listed triangle
    other than triangle index `own` before reaching the point."""
    px, py, pz = point
    for idx, (a, b, c) in enumerate(triangles):
        if idx == own:
            continue
        # Solve s*P = A + u*(B-A) + v*(C-A) by Cramer's rule.
        e1 = (b[0] - a[0], b[1] - a[1], b[2] - a[2])
        e2 = (c[0] - a[0], c[1] - a[1], c[2] - a[2])
        mat = ((-px, e1[0], e2[0]), (-py, e1[1], e2[1]), (-pz, e1[2], e2[2]))
        det = (
            mat[0][0] * (mat[1][1] * mat[2][2] - mat[1][2] * mat[2][1])
            - mat[0][1] * (mat[1][0] * mat[2][2] - mat[1][2] * mat[2][0])
            + mat[0][2] * (mat[1][0] * mat[2][1] - mat[1][1] * mat[2][0])
        )
        if abs(det) < tol:
            continue
        rhs = (-a[0], -a[1], -a[2])

        def solve(col: int) -> float:
            cols = [list(row) for row in mat]
            for r in range(3):
                cols[r][col] = rhs[r]
            return (
                cols[0][0] * (cols[1][1] * cols[2][2] - cols[1][2] * cols[2][1])
                - cols[0][1] * (cols[1][0] * cols[2][2] - cols[1][2] * cols[2][0])
                + cols[0][2] * (cols[1][0] * cols[2][1] - cols[1][1] * cols[2][0])
            ) / det

        s, u, v = solve(0), solve(1), solve(2)
        if u > -tol and v > -tol and u + v < 1 + tol and tol < s < 1 - tol:
            return True
    return False


def test_the_origin_sees_exactly_the_inner_boundary_of_the_ring_stack():
    # The ring faces fully visible from the origin, sampled at the centroid
    # and three interior points, are the faces the origin is coned over:
    # {x_t, x_t+1, y_t+2r} and {x_t, y_t+2r-1, y_t+2r}.
    weights = ((1 / 3, 1 / 3, 1 / 3), (0.5, 0.25, 0.25), (0.25, 0.5, 0.25), (0.25, 0.25, 0.5))
    for r in (2, 3, 4, 5):
        cx, m = cylinder_complete(r).complex, 2 * r + 1
        at = {cx.label(v): v for v in cx.vertex_ids()}

        def x(i):
            return at[f"x{i % m}"]

        def y(i):
            return at[f"y{i % m}"]

        # The ring cells are the tetrahedra that miss the origin.
        rings = [(3, i) for i, c in enumerate(cx.cells_of(3)) if at["o"] not in c.vertices]
        assert len(rings) == (r - 1) * m
        faces = [cx.cell(2, f).vertices for f in sorted(face_closure(cx, rings)[2])]
        triangles = [tuple(cx.coords(v) for v in vs) for vs in faces]
        visible = set()
        for own, (vs, (a, b, c)) in enumerate(zip(faces, triangles)):
            points = [tuple(w[0] * a[t] + w[1] * b[t] + w[2] * c[t] for t in range(3)) for w in weights]
            if not any(_ray_blocked_oracle(p, triangles, own) for p in points):
                visible.add(frozenset(vs))
        expected = set()
        for t in range(m):
            expected.add(frozenset((x(t), x(t + 1), y(t + 2 * r))))
            expected.add(frozenset((x(t), y(t + 2 * r - 1), y(t + 2 * r))))
        assert visible == expected, r
