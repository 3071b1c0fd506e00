from functools import lru_cache
from math import sqrt

import pytest
from hypothesis import given, settings, strategies as st

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
    cylinder_complete,
    double,
    double_to_sphere,
    face_closure,
    identify_antipodes,
    mycielski_lift,
    mycielski_tower,
    odd_cycle_sphere,
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
    _keys_are_range,
    antipodal_free_cells,
    antisymmetric_on_pairs,
    bichromatic_edge_cells,
    proper_on_maximal,
)

from conftest import validate_involution_by_pairs


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
    # the 0-cells' pairing is the vertex pairing, since a 0-cell's id is its vertex's
    assert inv.pairing(0) is inv.vertex_pairing
    assert inv.pairing(1) is inv.cell_pairing[1]
    assert inv.pairing(3) == {}


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


# One change to the pairing of one layer, per violation code it must raise.
PAIRING_TAMPERS = {
    "FixedPoint": lambda pairing: pairing.update({0: 0}),
    "NotInvolution": lambda pairing: pairing.update({0: 6}),
    "DanglingFacet": lambda pairing: pairing.update({0: 42, 42: 0}),
    "UnpairedCell": lambda pairing: [pairing.pop(0), pairing.pop(5)],
    "PairedOutsideScope": lambda pairing: pairing.update({42: 43, 43: 42}),
}


def _layer_violations(code: str, d: int) -> list[tuple[str, int]]:
    """The (code, id) violations at dimension d of c5 with its d-cells'
    pairing tampered for `code`; for NotSimplicial, the upper d-cell 7 of
    the pair (2, 7) is given the contents of d-cell 8 instead."""
    sq = odd_cycle_sphere(2)
    pairings = [dict(sq.involution.pairing(e)) for e in (0, 1)]
    layers = [list(sq.complex.cells_of(e)) for e in (0, 1)]
    if code == "NotSimplicial":
        layers[d][7] = layers[d][8]
    else:
        PAIRING_TAMPERS[code](pairings[d])
    involution = Involution("full", pairings[0], {1: pairings[1]})
    report = validate_involution(Complex(layers, sq.complex.labels), involution)
    return [(v.code, v.cell_id) for v in report.violations if v.cell_dim == d]


@pytest.mark.parametrize("code", [*PAIRING_TAMPERS, "NotSimplicial"])
def test_one_rule_set_judges_the_pairing_of_the_vertices_and_of_the_edges(code):
    # c5 maps vertex i and edge i alike, to i + 5 mod 10, so the same change
    # to either layer must break the same rule at the same ids.
    vertices, edges = _layer_violations(code, 0), _layer_violations(code, 1)
    assert vertices == edges
    assert code in [c for c, _ in vertices]


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


@lru_cache(maxsize=None)
def _paired(source):
    """A complex with its involution: tower-4 at full scope, or at boundary
    scope the cylinder-3 ball or the ball of the lift that doubles to
    tower-4."""
    if source == "tower-4":
        made = mycielski_tower(4)
    elif source == "cylinder-3 ball":
        made = cylinder_complete(3)
    else:
        made = mycielski_lift(odd_cycle_sphere(2), 2)
    return made.complex, made.involution


# One change to a pairing or to cells at a drawn pair (i, j), i < j, of a
# drawn dimension d.
INVOLUTION_MUTATIONS = (
    "none",
    "fixed point",
    "non-involution",
    "dangling partner",
    "unpaired vertex",
    "missing key",
    "permuted partner facets",
    "unsorted partner vertices",
)


@settings(deadline=None, max_examples=450)
@given(st.sampled_from(("tower-4", "cylinder-3 ball", "tower-4 lift")), st.sampled_from(INVOLUTION_MUTATIONS), st.data())
def test_the_involution_pass_judges_as_the_per_pair_loop(source, kind, data):
    # The column pass may only clear pairs that the per-pair body passes,
    # and must leave the body every pair when it declines, at full scope
    # and at boundary scope, where the top layer has no pairs.
    original, paired = _paired(source)
    dim = original.dim
    pairings = [dict(paired.pairing(e)) for e in range(dim + 1)]
    d = data.draw(st.sampled_from([e for e in range(1 if kind == "unsorted partner vertices" else 0, dim + 1) if pairings[e]]))
    layers = [list(original.cells_of(e)) for e in range(dim + 1)]
    pairing, layer = pairings[d], layers[d]
    i, j = data.draw(st.sampled_from(sorted((a, b) for a, b in pairing.items() if a < b)))
    if kind == "fixed point":  # one end, or both, so that the rest stays an involution
        pairing.update({i: i, j: j} if data.draw(st.booleans()) else {i: i})
    elif kind == "non-involution":
        pairing[i] = data.draw(st.sampled_from(sorted(set(pairing) - {i, j})))
    elif kind == "dangling partner":
        far = len(layer) + data.draw(st.integers(0, 3))
        pairing.update({i: far, far: i})
    elif kind == "unpaired vertex":
        v = data.draw(st.sampled_from(layer[i].vertices))
        del pairings[0][pairings[0].pop(v)]
    elif kind == "missing key":
        del pairing[data.draw(st.sampled_from((i, j)))]
    elif kind == "permuted partner facets":
        layer[j] = Cell(layer[j].vertices, tuple(data.draw(st.permutations(layer[j].facets))))
    elif kind == "unsorted partner vertices":
        # the partner lists the image of i's vertices in i's order, unsorted
        vertices = layer[i].vertices
        image = tuple(pairings[0][v] for v in vertices)
        if image == tuple(sorted(image)):
            vertices, image = vertices[::-1], image[::-1]
        layer[i], layer[j] = Cell(vertices, layer[i].facets), Cell(image, layer[j].facets)
    complex = Complex(layers, original.labels)
    involution = Involution(paired.scope, pairings[0], dict(enumerate(pairings[1:], 1)))
    report = validate_involution(complex, involution)
    assert report == validate_involution_by_pairs(complex, involution)
    if kind in ("none", "permuted partner facets"):
        assert report.ok
    elif kind == "unsorted partner vertices":
        assert ("NotSimplicial", d, i) in [(v.code, v.cell_dim, v.cell_id) for v in report.violations]
    else:
        assert not report.ok


def test_the_involution_pass_judges_balls_and_boundary_scope_as_the_per_pair_loop():
    # The column pass runs at boundary scope too: the ball's own boundary
    # pairing passes it, and a double's full pairing read at boundary scope
    # pairs cells outside the (empty) boundary of a sphere, so every pair of
    # those layers goes to the per-pair body.
    for ball in (cylinder_complete(3), mycielski_lift(odd_cycle_sphere(2), 2)):
        assert validate_involution(ball.complex, ball.involution).ok
        assert validate_involution(ball.complex, ball.involution) == validate_involution_by_pairs(ball.complex, ball.involution)
        sq = double_to_sphere(ball)
        boundary = Involution("boundary", sq.involution.vertex_pairing, sq.involution.cell_pairing)
        report = validate_involution(sq.complex, boundary)
        assert not report.ok and report == validate_involution_by_pairs(sq.complex, boundary)


def _verdict(judge, *args):
    """A judge's report, or the type of what it raises."""
    try:
        return judge(*args)
    except Exception as exc:
        return type(exc)


@pytest.mark.parametrize("partner", ["x", 5.0])
def test_a_partner_that_does_not_compare_or_index_is_judged_as_by_the_per_pair_loop(partner):
    # c5 pairs edge 0 with edge 5: a str partner does not compare with an
    # id, and a float one finds key 5 but does not index the layer.
    sq = odd_cycle_sphere(2)
    involution = Involution("full", sq.involution.vertex_pairing, {1: {**sq.involution.pairing(1), 0: partner}})
    expected = _verdict(validate_involution_by_pairs, sq.complex, involution)
    assert _verdict(validate_involution, sq.complex, involution) == expected
    assert expected is TypeError if partner == 5.0 else not expected.ok


@pytest.mark.parametrize("change", ["none", "missing key", "extra key", "True key", "1.0 key", "0.5 key", "-1 key", "n key"])
def test_a_full_scope_pairing_of_every_cell_is_read_from_its_extreme_keys(change):
    # A pairing whose keys are n ints from 0 to n-1 pairs exactly the n
    # cells, and no set of the layer's ids is made; any other pairing, with
    # a key missing or extra, or with a bool or float key, takes the set
    # path, which compares keys by value, as the per-pair loop does.  A key
    # 0.5 in place of 1 leaves the length and the extreme keys as they were,
    # a key -1 the length and the greatest key, and a key n the length and
    # the least key.
    complex, paired = _paired("tower-4")
    for d in range(complex.dim + 1):
        pairings = [dict(paired.pairing(e)) for e in range(complex.dim + 1)]
        pairing, n = pairings[d], complex.n_cells(d)
        if change == "missing key":
            del pairing[n - 1]
        elif change == "extra key":
            pairing[n] = 0
        elif change != "none":
            pairing[{"True key": True, "1.0 key": 1.0, "0.5 key": 0.5, "-1 key": -1, "n key": n}[change]] = pairing.pop(1)
        assert _keys_are_range(pairing, n) == (change == "none")
        involution = Involution("full", pairings[0], dict(enumerate(pairings[1:], 1)))
        expected = _verdict(validate_involution_by_pairs, complex, involution)
        assert _verdict(validate_involution, complex, involution) == expected
        if change in ("missing key", "extra key", "0.5 key", "-1 key", "n key"):
            assert not expected.ok
        elif change != "1.0 key":  # a float id does not index a layer
            assert expected.ok
