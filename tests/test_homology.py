import json

import pytest

from projquad import (
    ChainZ2,
    ComplexBuilder,
    HomologyCalculator,
    SimplicialBuilder,
    all_betti_z2,
    betti_z2,
    boundary_matrix,
    boundary_of,
    boundary_squares_to_zero,
    edge_chain,
    face_closure,
    homologous,
    is_boundary,
    rank_gf2,
)
from projquad.cli import main
from projquad.complexes import complex_to_json
from projquad.errors import BadDimension, DimensionMismatch, NotACycle


def test_betti_octahedron(octahedron):
    assert all_betti_z2(octahedron) == (1, 0, 1)


def test_betti_projective_plane(projective_plane):
    # over the two-element field every Betti number of this surface is 1
    assert all_betti_z2(projective_plane) == (1, 1, 1)


def test_betti_interval(interval_ball):
    assert all_betti_z2(interval_ball) == (1, 0)


def test_betti_two_circles():
    sb = SimplicialBuilder()
    for _ in range(6):
        sb.add_vertex()
    for a, b in ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)):
        sb.add_simplex((a, b))
    c = sb.build()
    assert all_betti_z2(c) == (2, 2)


def test_boundary_matrix_orientation(octahedron):
    m = boundary_matrix(octahedron, 2)
    # rows are indexed by edges, columns by triangles
    assert m.rows == octahedron.n_cells(1)
    assert m.cols == octahedron.n_cells(2)
    col_weights = [sum(m.get(i, j) for i in range(m.rows)) for j in range(m.cols)]
    assert col_weights == [3] * octahedron.n_cells(2)
    with pytest.raises(BadDimension):
        boundary_matrix(octahedron, 0)
    with pytest.raises(BadDimension):
        boundary_matrix(octahedron, 3)


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
    assert [calc.rank(p) for p in (1, 2, 3)] == [rank_gf2(boundary_matrix(cx, p)) for p in (1, 2, 3)]
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(complex_to_json(cx)))
    assert main(["homology", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"betti": [1, 0, -1, 0]}


def test_boundary_of_triangle(octahedron):
    chain = ChainZ2(2, frozenset({0}))
    b = boundary_of(octahedron, chain)
    assert b.dim == 1
    assert len(b.support) == 3
    assert boundary_of(octahedron, b).is_zero


def test_chain_xor_and_json():
    a = ChainZ2(1, frozenset({0, 1}))
    b = ChainZ2(1, frozenset({1, 2}))
    assert (a ^ b).support == frozenset({0, 2})
    with pytest.raises(DimensionMismatch):
        a ^ ChainZ2(2, frozenset({0}))


def test_is_boundary_octahedron_equator(octahedron):
    # the equator in the x-y plane bounds: vertices 0,1,3,4
    eq_edges = []
    for c in octahedron.cells_of(1):
        if set(c.vertices) <= {0, 1, 3, 4}:
            eq_edges.append(c.id)
    assert len(eq_edges) == 4
    chain = ChainZ2(1, frozenset(eq_edges))
    witness = is_boundary(octahedron, chain)
    assert witness is not None
    assert boundary_of(octahedron, witness) == chain


def test_is_boundary_rejects_non_cycle(octahedron):
    non_cycle = ChainZ2(1, frozenset({0}))
    with pytest.raises(NotACycle):
        is_boundary(octahedron, non_cycle)


def test_is_boundary_top_dimension_returns_none(octahedron):
    all_faces = ChainZ2(2, frozenset(range(octahedron.n_cells(2))))
    assert is_boundary(octahedron, all_faces) is None


def test_zero_chain_has_empty_witness(octahedron):
    witness = is_boundary(octahedron, ChainZ2(1, frozenset()))
    assert witness is not None
    assert witness.is_zero


def test_projective_plane_essential_cycle(projective_plane):
    calc = HomologyCalculator(projective_plane)
    # the triangle on vertices 0, 2, 4 is not a face, and its loop is essential
    loop_edges = []
    for c in projective_plane.cells_of(1):
        if set(c.vertices) <= {0, 2, 4}:
            loop_edges.append(c.id)
    chain = ChainZ2(1, frozenset(loop_edges))
    assert calc.is_cycle(chain)
    assert calc.is_boundary(chain) is None
    # but its double (the empty chain) bounds
    assert calc.is_boundary(chain ^ chain) is not None


def test_homologous(octahedron):
    calc = HomologyCalculator(octahedron)
    tri = octahedron.cell(2, 0)
    link = ChainZ2(1, frozenset(face_closure(octahedron, [(2, 0)])[1]))
    assert homologous(octahedron, link, ChainZ2(1, frozenset()))
    assert calc.betti(1) == 0


def test_edge_chain_xors_duplicates():
    chain = edge_chain([3, 5, 3])
    assert chain.dim == 1
    assert chain.support == frozenset({5})


def test_betti_out_of_range(octahedron):
    with pytest.raises(BadDimension):
        betti_z2(octahedron, 5)
