from math import sqrt

import pytest

from projquad import (
    BLACK,
    WHITE,
    Cell,
    Complex,
    ComplexBuilder,
    HomologyCalculator,
    Involution,
    TwoColouring,
    associated_graph,
    boundary_cells,
    complete_graph,
    cycle_graph,
    double,
    face_closure,
    identify_antipodes,
    mycielski_tower,
    quotient,
    validate_involution,
)
from projquad.errors import (
    BadParameters,
    LoopCreated,
    LoopsWouldForm,
    NotFree,
    VerificationFailed,
)
from projquad.symmetry import (
    antipodal_free_cells,
    antisymmetric_on_pairs,
    bichromatic_edge_cells,
    proper_on_maximal,
)


def test_two_colouring_basics():
    col = TwoColouring(black=frozenset({0, 2}), white=frozenset({1}))
    assert col.of(0) == BLACK and col.of(1) == WHITE
    assert col.covers({0, 1, 2})
    assert not col.covers({0, 3})
    assert not col.covers({0, 1})
    with pytest.raises(BadParameters):
        TwoColouring(black=frozenset({0}), white=frozenset({0}))
    with pytest.raises(BadParameters):
        col.of(9)


def test_two_colouring_json_round_trip():
    col = TwoColouring(black=frozenset({3, 1}), white=frozenset({2}))
    assert TwoColouring.from_json(col.to_json()) == col


def test_involution_accessors(octahedron_involution):
    inv = octahedron_involution
    assert inv.vertex_pairing[0] == 3
    assert 99 not in inv.vertex_pairing
    assert inv.scope == "full"
    again = Involution.from_json(inv.to_json())
    assert again.vertex_pairing == inv.vertex_pairing
    assert again.cell_pairing == inv.cell_pairing


def test_validate_involution_accepts_octahedron(octahedron, octahedron_involution):
    assert validate_involution(octahedron, octahedron_involution).ok


def test_validate_involution_catches_fixed_point(octahedron, octahedron_involution):
    vp = dict(octahedron_involution.vertex_pairing)
    vp[0] = 0
    vp[3] = 3
    bad = Involution("full", vp, octahedron_involution.cell_pairing)
    rep = validate_involution(octahedron, bad)
    assert not rep.ok
    assert any(v.code == "FixedPoint" for v in rep.violations)


def test_validate_involution_catches_non_involution(octahedron, octahedron_involution):
    vp = dict(octahedron_involution.vertex_pairing)
    vp[0], vp[1] = 1, 2  # 0 -> 1 -> 2 is not an involution
    bad = Involution("full", vp, octahedron_involution.cell_pairing)
    assert not validate_involution(octahedron, bad).ok


def test_validate_involution_counts_the_facets_of_an_upper_partner():
    # tower-4 pairs its 2-cell 0 with 2-cell 20; a repeated facet id on 2-cell
    # 20 keeps its facet set the image of 2-cell 0's, but not its multiset.
    sq = mycielski_tower(4)
    cells = [list(sq.complex.cells_of(d)) for d in range(sq.complex.dim + 1)]
    upper = cells[2][20]
    cells[2][20] = Cell(upper.vertices, upper.facets + upper.facets[:1])
    report = validate_involution(Complex(cells, sq.complex.labels), sq.involution)
    assert [(v.code, v.cell_dim, v.cell_id) for v in report.violations] == [("NotSimplicial", 2, 0)]


def test_antipodal_free_cells(octahedron, octahedron_involution):
    assert antipodal_free_cells(octahedron, octahedron_involution).ok


def test_octahedron_quotient_is_projective_plane(octahedron, octahedron_involution):
    q, projection = quotient(octahedron, octahedron_involution)
    assert q.n_vertices == 3
    assert q.n_cells(2) == 4
    assert HomologyCalculator(q).all_betti() == (1, 1, 1)
    assert q.validate().ok
    # projection maps both members of a pair to the same image
    for v in range(6):
        assert projection[0][v] == projection[0][octahedron_involution.vertex_pairing[v]]


def test_quotient_requires_full_scope(octahedron, octahedron_involution):
    inv = Involution("boundary", octahedron_involution.vertex_pairing, octahedron_involution.cell_pairing)
    with pytest.raises(BadParameters):
        quotient(octahedron, inv)


def test_quotient_rejects_fixed_points(octahedron, octahedron_involution):
    vp = dict(octahedron_involution.vertex_pairing)
    vp[0] = 0
    vp[3] = 3
    cp = octahedron_involution.cell_pairing
    with pytest.raises(NotFree):
        quotient(octahedron, Involution("full", vp, cp))


def test_quotient_digon_collapses_to_loop(digon_sphere_bits):
    complex, inv, _ = digon_sphere_bits
    with pytest.raises(LoopsWouldForm):
        quotient(complex, inv)


def test_colouring_checks_on_octahedron(octahedron, octahedron_involution):
    # one pole black: proper (every face mixes the pair axes) but not antisymmetric
    polar = TwoColouring(black=frozenset({0, 3}), white=frozenset({1, 2, 4, 5}))
    assert proper_on_maximal(octahedron, polar).ok
    assert not antisymmetric_on_pairs(polar, octahedron_involution).ok
    # a transversal of the pairs: antisymmetric, but it and its mirror are faces
    col = TwoColouring(black=frozenset({0, 1, 2}), white=frozenset({3, 4, 5}))
    assert antisymmetric_on_pairs(col, octahedron_involution).ok
    rep = proper_on_maximal(octahedron, col)
    assert not rep.ok
    assert sorted(v.code for v in rep.violations) == ["MonochromaticCell"] * 2
    mono = TwoColouring(black=frozenset({0, 1, 2, 4}), white=frozenset({3, 5}))
    rep = proper_on_maximal(octahedron, mono)
    assert not rep.ok  # the face on 0,1,2 is still monochromatic
    assert any(v.code == "MonochromaticCell" for v in rep.violations)


def test_bichromatic_edges_and_associated_graph(octahedron):
    col = TwoColouring(black=frozenset({0, 3}), white=frozenset({1, 2, 4, 5}))
    selected = bichromatic_edge_cells(octahedron, col)
    g = associated_graph(octahedron, col)
    assert g.n == 6
    assert g.m == len({frozenset(octahedron.cell(1, e).vertices) for e in selected})
    # edges incident to 0 or 3 only
    assert all(0 in pair or 3 in pair for pair in ((u, v) for u, v in g.edges()))


def test_identify_antipodes_rejects_loops():
    g = cycle_graph(4)
    with pytest.raises(LoopCreated):
        identify_antipodes(g, {0: 1, 1: 0, 2: 3, 3: 2})


def test_identify_antipodes_complete_rejected():
    # every pair of a complete graph is joined by an edge, so loops would form
    g = complete_graph(4)
    with pytest.raises(LoopCreated):
        identify_antipodes(g, {0: 2, 2: 0, 1: 3, 3: 1})


def test_identify_antipodes_square():
    g = cycle_graph(4)
    q, reps = identify_antipodes(g, {0: 2, 2: 0, 1: 3, 3: 1})
    assert q.n == 2 and q.m == 1
    assert reps[0] == reps[2]
    assert reps[1] == reps[3]


def test_boundary_cells_interval(interval_ball):
    b = boundary_cells(interval_ball)
    assert b[0] == {0, 2}
    assert b.get(1, set()) == set()


def test_double_interval_gives_circle(interval_ball):
    inv = Involution("boundary", {0: 2, 2: 0}, {})
    col = TwoColouring(black=frozenset({0, 1}), white=frozenset({2}))
    doubled, full_inv, full_col = double(interval_ball, inv, col)
    # doubling an interval along its endpoint swap gives a 4-cycle
    assert HomologyCalculator(doubled).all_betti() == (1, 1)
    assert doubled.validate().ok
    assert validate_involution(doubled, full_inv).ok
    assert full_col.of(3) == WHITE  # the copied interior vertex flips colour
    # its quotient is the two-vertex circle with parallel edges
    q, _ = quotient(doubled, full_inv)
    assert q.n_vertices == 2
    assert q.n_cells(1) == 2
    assert HomologyCalculator(q).all_betti() == (1, 1)


# An edge whose second facet id names no 0-cell: finding its boundary would
# index past the 0-cells.
_DANGLING_EDGE = Complex([[Cell((0,), ()), Cell((1,), ())], [Cell((0, 1), (0, 5))]], ["a", "b"])


@pytest.mark.parametrize(
    "ball, pairing, black, white, failing",
    [
        (None, ("full", {0: 2, 2: 0}), {0, 1}, {2}, None),
        # the interior vertex 1 is paired and the endpoint 2 is not
        (None, ("boundary", {0: 1, 1: 0}), {0, 1}, {2}, ["involution-valid"]),
        (None, ("boundary", {0: 2, 2: 0}), {0}, {2}, ["colouring-total"]),
        (None, ("boundary", {0: 2, 2: 0}), {0, 2}, {1}, ["colouring-antisymmetric"]),
        (_DANGLING_EDGE, ("boundary", {0: 1, 1: 0}), {0}, {1}, ["complex-valid"]),
    ],
    ids=["full-scope", "not-the-boundary", "colouring-not-total", "boundary-pair-one-colour", "facet-out-of-range"],
)
def test_double_refuses(interval_ball, ball, pairing, black, white, failing):
    # `ball` None stands for the interval ball; `failing` None for a refusal
    # before any check, as BadParameters
    inv = Involution(*pairing, {})
    col = TwoColouring(black=frozenset(black), white=frozenset(white))
    error = BadParameters if failing is None else VerificationFailed
    with pytest.raises(error) as excinfo:
        double(ball or interval_ball, inv, col)
    if failing is not None:
        assert excinfo.value.report.failing() == failing


def test_double_normalizes_by_the_norm_summed_left_to_right():
    # sum() of these squares is compensated from Python 3.12 on and gives
    # 0.11 instead of 0.11000000000000001, which moved the written vertex.
    b = ComplexBuilder()
    for c in ((0.1, 0.3, 0.1), (0.0, 0.0, 1.0), (-0.1, -0.3, -0.1)):
        b.add_vertex(None, c)
    b.add_cell(1, (0, 1), (0, 1))
    b.add_cell(1, (1, 2), (1, 2))
    inv = Involution("boundary", {0: 2, 2: 0}, {})
    col = TwoColouring(black=frozenset({0, 1}), white=frozenset({2}))
    doubled, _, _ = double(b.build(), inv, col)
    norm = sqrt(0.1 * 0.1 + 0.3 * 0.3 + 0.1 * 0.1)
    assert doubled.coords(0) == (0.1 / norm, 0.3 / norm, 0.1 / norm, 0.0)


def test_double_octahedron_hemisphere(octahedron, octahedron_involution):
    # cut the octahedron along its equator: keep the two triangles with both
    # poles on one side is not a ball; instead double the closed star of a
    # vertex (a disc) along the antipody of its boundary square.
    triangles = [(2, t) for t in range(octahedron.n_cells(2)) if 2 in octahedron.cell(2, t).vertices]
    star = face_closure(octahedron, [(2, 0)] + triangles)
    disc, id_map = octahedron.subcomplex(star)
    assert disc.validate().ok
    bc = boundary_cells(disc)
    assert len(bc[0]) == 4 and len(bc[1]) == 4
    # boundary square: images of vertices 0,1,3,4 with the antipodal pairing
    vmap = id_map[0]
    vp = {}
    for a, b in ((0, 3), (1, 4)):
        vp[vmap[a]] = vmap[b]
        vp[vmap[b]] = vmap[a]
    by_vs = {frozenset(disc.cell(1, i).vertices): i for i in bc[1]}
    cp1 = {}
    for i in bc[1]:
        cp1[i] = by_vs[frozenset(vp[v] for v in disc.cell(1, i).vertices)]
    inv = Involution("boundary", vp, {1: cp1})
    col = TwoColouring(
        black=frozenset({vmap[0], vmap[4], vmap[2]}),
        white=frozenset({vmap[1], vmap[3]}),
    )
    doubled, full_inv, full_col = double(disc, inv, col)
    assert doubled.validate().ok
    assert HomologyCalculator(doubled).all_betti() == (1, 0, 1)
    assert validate_involution(doubled, full_inv).ok
    q, _ = quotient(doubled, full_inv)
    assert HomologyCalculator(q).all_betti() == (1, 1, 1)
