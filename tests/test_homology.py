import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from projquad import (
    Cell,
    Complex,
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
from projquad import homology
from projquad.complexes import complex_from_json, complex_to_json
from projquad.errors import BadDimension, NotACycle

from conftest import facet_rows, numpy_rank_gf2


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


@st.composite
def lawful_complexes(draw):
    """A lawful complex: random simplices with their faces, then parallel
    copies of cells by `add_cell`, dimension by dimension, each over a
    copied facet when one exists.  A copy of a d-cell lies on its vertices,
    and each of its facets is the cell's facet there or a copy of it, so
    d o d fails where two faces of a 3-cell name parallel edges."""
    n = draw(st.integers(2, 6))
    sb = SimplicialBuilder()
    for _ in range(n):
        sb.add_vertex()
    for simplex in draw(st.lists(st.sets(st.integers(0, n - 1), min_size=2, max_size=4), max_size=6)):
        sb.add_simplex(sorted(simplex))
    b = sb.builder
    for d in range(1, 4):
        for _ in range(draw(st.integers(0, 2)) if b.n_cells(d) else 0):
            lower = b.cells_of(d - 1)
            twins = [[j for j, c in enumerate(lower) if c.vertices == cell.vertices] for cell in lower]
            # A cell over a copied facet, when there is one.
            over_copies = [i for i, c in enumerate(b.cells_of(d)) if any(len(twins[f]) > 1 for f in c.facets)]
            cell = b.cell(d, draw(st.sampled_from(over_copies or range(b.n_cells(d)))))
            b.add_cell(d, cell.vertices, [draw(st.sampled_from(twins[f])) for f in cell.facets])
    return b.build()


@settings(deadline=None, max_examples=150)
@given(lawful_complexes())
@example(_tetrahedron_with_split_edge())
def test_boundary_verdicts_and_ranks_agree_with_the_parity_pass_and_numpy(cx):
    # A verdict taken from the cell law (the report in hand, distinct
    # (p-2)-cells) or from the parity pass must be the parity pass's, and
    # the ranks, on rows made only where clearing keeps them, numpy's.  The
    # built complex carries its builder's verdict, the parsed one gets it
    # from `validate()`, and the parsed one without a verdict takes the
    # parity pass at every p.
    assert cx.validate().ok
    parsed, unjudged = (complex_from_json(complex_to_json(cx)) for _ in range(2))
    assert parsed.validate().ok and unjudged._report is None
    expected_zero = [boundary_squares_to_zero(cx, p) for p in range(cx.dim + 2)]
    expected_ranks = [0]
    for p in range(1, cx.dim + 1):
        dense = np.zeros((cx.n_cells(p), cx.n_cells(p - 1)), dtype=np.uint8)
        for i, facets in enumerate(cx.facets_of(p)):
            dense[i, list(facets)] ^= 1
        expected_ranks.append(numpy_rank_gf2(dense))
    for complex in (cx, parsed, unjudged):
        calc = HomologyCalculator(complex)
        assert [calc.squares_to_zero(p) for p in range(cx.dim + 2)] == expected_zero
        assert [calc.rank(p) for p in range(cx.dim + 1)] == expected_ranks
    assert unjudged._report is None


def test_the_parity_pass_runs_only_without_the_cell_law_lemma(monkeypatch):
    # The split-edge complex is lawful, and its 1-cells are parallel, so
    # only d_2 o d_3 needs the parity pass; with no verdict in hand every
    # composite does.
    passes = []
    squares_to_zero = homology._squares_to_zero

    def counted(facet_lists, facet_masks):
        passes.append(len(facet_lists[0]) - 1)
        return squares_to_zero(facet_lists, facet_masks)

    monkeypatch.setattr(homology, "_squares_to_zero", counted)
    cx = _tetrahedron_with_split_edge()
    for complex, expected in ((cx, [3]), (complex_from_json(complex_to_json(cx)), [3, 2])):
        passes.clear()
        calc = HomologyCalculator(complex)
        assert [calc.squares_to_zero(p) for p in (2, 3)] == [True, False]
        assert passes == expected


def test_an_unlawful_complex_gets_the_parity_pass():
    # The 2-cell on (0, 1, 2) names the edge on (0, 3), so d_1 o d_2 != 0;
    # its vertex tuples are distinct, but it breaks the cell law, so no
    # verdict of the law stands for the parity pass, judged or not.
    vertices = [Cell((v,), ()) for v in range(4)]
    edges = [Cell((0, 1), (0, 1)), Cell((1, 2), (1, 2)), Cell((0, 3), (0, 3))]
    for judged in (False, True):
        cx = Complex([vertices, edges, [Cell((0, 1, 2), (0, 1, 2))]], [None] * 4)
        if judged:
            assert not cx.validate().ok
        assert not HomologyCalculator(cx).squares_to_zero(2)


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
