from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from projquad import (
    all_betti_z2,
    complete_graph,
    complete_graph_pipeline,
    cycle_graph,
    cylinder_complete,
    double_to_sphere,
    mycielski_graph,
    mycielski_lift,
    mycielski_tower,
    mycielskian,
    odd_cycle_sphere,
    schrijver_graph,
    schrijver_pipeline,
    suspension,
    verify_homomorphism,
    verify_sphere_quadrangulation,
)
from projquad import constructions
from projquad.errors import BadParameters, InputNotQuadrangulation, UnsupportedParameters
from projquad.validation import AuditEntry, AuditReport


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
    assert all_betti_z2(sq.quotient) == (1, 1)


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
    assert ball.report.ok
    if r >= 2:
        entry = ball.report.entry("visibility-inner-boundary")
        assert entry is not None and entry.ok


def test_cylinder_rejects_bad_r():
    with pytest.raises(BadParameters):
        cylinder_complete(0)


def test_cylinder_doubles_to_complete_sphere():
    sq = double_to_sphere(cylinder_complete(2))
    assert _walk_parity(sq, 25).info == {"sampled": 25}
    assert sq.graph == complete_graph(7)
    assert all_betti_z2(sq.complex) == (1, 0, 0, 1)
    assert all_betti_z2(sq.quotient) == (1, 1, 1, 1)


def test_lift_of_five_cycle_is_groetzsch_stage():
    base = odd_cycle_sphere(2)
    ball = mycielski_lift(base, 2)
    assert [ball.complex.n_cells(d) for d in range(3)] == [16, 35, 20]
    assert ball.graph == mycielskian(cycle_graph(5), 2)
    assert ball.complex.euler_characteristic() == 1
    assert ball.report.ok


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


def test_tower_matches_reference_graphs():
    for n in (3, 4, 5):
        sq = mycielski_tower(n)
        assert sq.graph == mycielski_graph(n)
        assert sq.complex.dim == n - 2
        expected = tuple(1 for _ in range(n - 1))
        assert all_betti_z2(sq.quotient) == expected


def test_tower_rejects_small_n():
    with pytest.raises(BadParameters):
        mycielski_tower(2)


def test_suspension_adds_universal_vertex():
    sq = double_to_sphere(cylinder_complete(2))
    up = suspension(sq)
    assert up.graph == complete_graph(8)
    assert up.complex.dim == 4
    assert all_betti_z2(up.complex) == (1, 0, 0, 0, 1)


def test_suspension_of_odd_cycle():
    sq = odd_cycle_sphere(1)
    up = suspension(sq)
    g = cycle_graph(3).copy()
    g.add_vertex(3)
    for v in range(3):
        g.add_edge(v, 3)
    assert up.graph == g
    assert all_betti_z2(up.complex) == (1, 0, 1)


def test_complete_pipeline_minimal_route():
    sq = complete_graph_pipeline(4, 2)
    assert sq.graph.n == 4 and sq.graph.m == 6
    assert sq.complex.dim == 2


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


def test_lift_ball_boundary_is_input():
    base = odd_cycle_sphere(2)
    ball = mycielski_lift(base, 2)
    for d in range(base.complex.dim + 1):
        assert ball.boundary.cells[d] == frozenset(range(base.complex.n_cells(d)))
        for i in range(base.complex.n_cells(d)):
            assert ball.complex.cell(d, i).vertices == base.complex.cell(d, i).vertices


def _ray_blocked_oracle(point: tuple, triangles: list[tuple], own: int, tol: float = 1e-9) -> bool:
    """The closure-based ray test that `constructions._ray_blocked` was
    first written as; its scalar form must give the same verdicts."""
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


def test_ray_test_agrees_with_oracle_on_every_cylinder_call(monkeypatch):
    calls = []
    ray_blocked = constructions._ray_blocked

    def recorded(point, triangles, own):
        verdict = ray_blocked(point, triangles, own)
        calls.append((point, triangles, own, verdict))
        return verdict

    monkeypatch.setattr(constructions, "_ray_blocked", recorded)
    for r in (2, 3, 4, 5):
        entry = next(e for e in cylinder_complete(r).report.entries if e.name == "visibility-inner-boundary")
        assert entry.ok, r
    assert len(calls) > 400 and any(verdict for *_, verdict in calls)
    for point, triangles, own, verdict in calls:
        assert verdict == _ray_blocked_oracle(point, triangles, own)


coordinates = st.floats(-2.0, 2.0)
vectors = st.tuples(coordinates, coordinates, coordinates)


@st.composite
def near_degenerate_triangles(draw):
    """A point P and a triangle (A, A+E, A+F) with F = alpha*E + beta*P +
    eps*W, eps chosen so that det(-P, E, F) = -eps * P.(E x W) comes out
    near +-1e-9, the tolerance below which the ray test skips a triangle.
    A = s*P - u*E - v*F puts the crossing at (s, u, v), in or out of range."""
    p, e, w = draw(vectors), draw(vectors), draw(vectors)
    alpha, beta = draw(coordinates), draw(coordinates)
    s, u, v = draw(st.floats(-0.2, 1.2)), draw(st.floats(-0.2, 1.2)), draw(st.floats(-0.2, 1.2))
    target = draw(st.floats(0.25e-9, 4e-9)) * draw(st.sampled_from([-1, 1]))
    cross = (e[1] * w[2] - e[2] * w[1], e[2] * w[0] - e[0] * w[2], e[0] * w[1] - e[1] * w[0])
    base = -(p[0] * cross[0] + p[1] * cross[1] + p[2] * cross[2])
    eps = target / base if abs(base) > 1e-3 else 0.0
    f = tuple(alpha * e[t] + beta * p[t] + eps * w[t] for t in range(3))
    a = tuple(s * p[t] - u * e[t] - v * f[t] for t in range(3))
    b = tuple(a[t] + e[t] for t in range(3))
    c = tuple(a[t] + f[t] for t in range(3))
    return p, (a, b, c)


@settings(deadline=None)
@given(
    vectors,
    st.lists(st.tuples(vectors, vectors, vectors), max_size=6),
    st.lists(near_degenerate_triangles(), max_size=4),
    st.integers(-1, 10),
)
def test_ray_test_agrees_with_oracle_on_drawn_triangles(point, triangles, near, own):
    # Near-degenerate triangles are tested against their own ray direction.
    for p, triangle in near:
        assert constructions._ray_blocked(p, [triangle], own) == _ray_blocked_oracle(p, [triangle], own)
        assert constructions._ray_blocked(p, [triangle], -1) == _ray_blocked_oracle(p, [triangle], -1)
    triangles = triangles + [t for _, t in near]
    assert constructions._ray_blocked(point, triangles, own) == _ray_blocked_oracle(point, triangles, own)
