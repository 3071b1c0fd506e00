import pytest

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
)
from projquad.errors import BadParameters, UnsupportedParameters


def test_odd_cycle_sphere_structure():
    sq = odd_cycle_sphere(2, n_walks=25)
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
    sq = double_to_sphere(cylinder_complete(2), n_walks=25)
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
    sq = complete_graph_pipeline(9, 5, n_walks=10)
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
