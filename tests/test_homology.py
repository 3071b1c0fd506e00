import json

import pytest

from projquad import (
    ComplexBuilder,
    HomologyCalculator,
    SimplicialBuilder,
    boundary_of,
    boundary_squares_to_zero,
    face_closure,
    odd_cycle_sphere,
    rank_gf2,
)
from projquad.cli import main
from projquad.complexes import complex_to_json
from projquad.errors import BadDimension, NotACycle

from conftest import facet_rows


def test_betti_octahedron(octahedron):
    assert HomologyCalculator(octahedron).all_betti() == (1, 0, 1)


def test_betti_projective_plane(projective_plane):
    # over the two-element field every Betti number of this surface is 1
    assert HomologyCalculator(projective_plane).all_betti() == (1, 1, 1)


def test_betti_interval(interval_ball):
    assert HomologyCalculator(interval_ball).all_betti() == (1, 0)


def test_betti_two_circles():
    sb = SimplicialBuilder()
    for _ in range(6):
        sb.add_vertex()
    for a, b in ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)):
        sb.add_simplex((a, b))
    c = sb.build()
    assert HomologyCalculator(c).all_betti() == (2, 2)


def test_boundary_squares_to_zero(octahedron, projective_plane):
    assert boundary_squares_to_zero(octahedron, 2)
    assert boundary_squares_to_zero(projective_plane, 2)


def _tetrahedron_with_split_edge():
    """A valid 3-cell whose two 2-faces through {0, 1} name two parallel
    1-cells on that pair, so that d_2 o d_3 != 0."""
    b = ComplexBuilder()
    for i in range(4):
        b.add_vertex(f"t{i}")
    edge = {pair: b.add_cell(1, pair, pair) for pair in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))}
    twin = b.add_cell(1, (0, 1), (0, 1))
    faces = [
        b.add_cell(2, (0, 1, 2), (edge[0, 1], edge[0, 2], edge[1, 2])),
        b.add_cell(2, (0, 1, 3), (twin, edge[0, 3], edge[1, 3])),
        b.add_cell(2, (0, 2, 3), (edge[0, 2], edge[0, 3], edge[2, 3])),
        b.add_cell(2, (1, 2, 3), (edge[1, 2], edge[1, 3], edge[2, 3])),
    ]
    b.add_cell(3, (0, 1, 2, 3), faces)
    return b.build()


def test_ranks_without_a_chain_complex_are_the_plain_ranks(tmp_path, capsys):
    # Clearing d_2 by the pivot of d_3 would drop its rank from 4 to 3.
    cx = _tetrahedron_with_split_edge()
    assert cx.validate().ok
    assert not boundary_squares_to_zero(cx, 3)
    calc = HomologyCalculator(cx)
    assert [calc.rank(p) for p in (1, 2, 3)] == [3, 4, 1]
    assert [calc.rank(p) for p in (1, 2, 3)] == [rank_gf2(facet_rows(cx, p)) for p in (1, 2, 3)]
    # Without d o d = 0 there is no homology, so the CLI refuses the complex.
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(complex_to_json(cx)))
    violation = {"code": "BoundaryNotSquareZero", "cell_dim": 3, "cell_id": None, "detail": "d_2 o d_3 != 0"}
    refusal = {"ok": False, "violations": [violation]}
    for argv in ([], ["--dim", "1"]):
        assert main(["homology", str(path), *argv]) == 2
        assert json.loads(capsys.readouterr().out) == refusal


def _mask(ids):
    acc = 0
    for i in ids:
        acc |= 1 << i
    return acc


def test_boundary_of_triangle(octahedron):
    b = boundary_of(octahedron, 2, 1)
    assert b == _mask(octahedron.cell(2, 0).facets)
    assert b.bit_count() == 3
    assert boundary_of(octahedron, 1, b) == 0


def test_boundary_of_vanishes_below_dimension_one_and_on_the_zero_chain(octahedron):
    assert boundary_of(octahedron, 0, 1) == 0
    q = odd_cycle_sphere(2).quotient
    assert q.dim == 1
    assert boundary_of(q, 2, 0) == 0


def test_is_boundary_octahedron_equator(octahedron):
    # the equator in the x-y plane bounds: vertices 0,1,3,4
    eq_edges = []
    for i, c in enumerate(octahedron.cells_of(1)):
        if set(c.vertices) <= {0, 1, 3, 4}:
            eq_edges.append(i)
    assert len(eq_edges) == 4
    chain = _mask(eq_edges)
    witness = HomologyCalculator(octahedron).is_boundary(1, chain)
    assert witness is not None
    assert boundary_of(octahedron, 2, witness) == chain


def test_is_boundary_rejects_non_cycle(octahedron):
    with pytest.raises(NotACycle, match="1-chain has non-zero boundary"):
        HomologyCalculator(octahedron).is_boundary(1, 1)


def test_is_boundary_top_dimension_returns_none(octahedron):
    all_faces = _mask(range(octahedron.n_cells(2)))
    assert HomologyCalculator(octahedron).is_boundary(2, all_faces) is None


def test_zero_chain_has_empty_witness(octahedron):
    assert HomologyCalculator(octahedron).is_boundary(1, 0) == 0


def test_projective_plane_essential_cycle(projective_plane):
    calc = HomologyCalculator(projective_plane)
    # the triangle on vertices 0, 2, 4 is not a face, and its loop is essential
    loop_edges = []
    for i, c in enumerate(projective_plane.cells_of(1)):
        if set(c.vertices) <= {0, 2, 4}:
            loop_edges.append(i)
    chain = _mask(loop_edges)
    assert boundary_of(projective_plane, 1, chain) == 0
    assert calc.is_boundary(1, chain) is None
    # but its double (the empty chain) bounds
    assert calc.is_boundary(1, chain ^ chain) is not None


def test_homologous(octahedron):
    calc = HomologyCalculator(octahedron)
    link = _mask(face_closure(octahedron, [(2, 0)])[1])
    # two cycles are homologous when their sum bounds; here the link and 0
    assert calc.is_boundary(1, link ^ 0) is not None
    assert calc.betti(1) == 0


def test_solvers_outside_the_boundary_dimensions_have_no_rows(octahedron):
    calc = HomologyCalculator(octahedron)
    for p in (0, octahedron.dim + 1):
        solver = calc.solver(p)
        assert solver.rank == 0
        assert solver.solve(0) == 0
        assert solver.solve(1) is None
        assert solver.solve(0b1010) is None


def test_betti_out_of_range(octahedron):
    with pytest.raises(BadDimension):
        HomologyCalculator(octahedron).betti(5)
