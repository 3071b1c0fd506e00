import json

import pytest

from projquad import (
    Cell,
    Complex,
    ComplexBuilder,
    SimplicialBuilder,
    complex_from_json,
    Graph,
    TwoColouring,
    complex_to_json,
    dump_canonical,
    dump_complex,
    face_closure,
    verify_sphere_quadrangulation,
)
from projquad.errors import (
    DanglingFacet,
    DuplicateVertexInCell,
    FacetCoverageError,
    ParseError,
    UnknownVertex,
    VertexArityMismatch,
)


def test_builder_basic_triangle():
    b = ComplexBuilder()
    for name in "abc":
        b.add_vertex(name)
    e01 = b.add_cell(1, (0, 1), (0, 1))
    e12 = b.add_cell(1, (1, 2), (1, 2))
    e02 = b.add_cell(1, (0, 2), (0, 2))
    t = b.add_cell(2, (0, 1, 2), (e01, e12, e02))
    c = b.build()
    assert c.dim == 2
    assert c.n_cells(2) == 1
    assert c.cell(2, t).vertices == (0, 1, 2)
    assert c.validate().ok


def test_builder_rejects_bad_cells():
    b = ComplexBuilder()
    b.add_vertex()
    b.add_vertex()
    with pytest.raises(DuplicateVertexInCell):
        b.add_cell(1, (0, 0), (0, 0))
    with pytest.raises(UnknownVertex):
        b.add_cell(1, (0, 7), (0, 7))
    with pytest.raises(VertexArityMismatch):
        b.add_cell(1, (0, 1), (0,))
    with pytest.raises(DanglingFacet):
        b.add_cell(1, (0, 1), (0, 9))


@pytest.mark.parametrize(
    "vertices,facets,code,error",
    [
        ((0, 1, 2), (0, 1), "VertexArityMismatch", VertexArityMismatch),
        ((0, 0), (0, 0), "DuplicateVertexInCell", DuplicateVertexInCell),
        ((0, 7), (0, 7), "UnknownVertex", UnknownVertex),
        ((0, 1), (0,), "VertexArityMismatch", VertexArityMismatch),
        ((0, 1), (1, 1), "DuplicateFacet", FacetCoverageError),
        ((0, 1), (0, 9), "DanglingFacet", DanglingFacet),
        ((0, 1), (0, 2), "FacetCoverageViolation", FacetCoverageError),
    ],
)
def test_builder_and_validate_share_the_cell_law(vertices, facets, code, error):
    b = ComplexBuilder()
    for _ in range(3):
        b.add_vertex()
    with pytest.raises(error, match=code):
        b.add_cell(1, vertices, facets)
    assert b.n_cells(1) == 0
    bad = Cell(0, 1, tuple(sorted(vertices)), tuple(facets))
    report = Complex([b.build().cells_of(0), [bad]], [None] * 3).validate()
    assert [v.code for v in report.violations] == [code]


def test_the_cell_law_refuses_a_vertex_cell_of_negative_id():
    # (-1,) is the vertex tuple of a 0-cell with id -1, but no vertex -1 exists.
    report = Complex([[Cell(-1, 0, (-1,), ())]], ["a"]).validate()
    assert [v.code for v in report.violations] == ["UnknownVertex"]


def test_the_cell_law_accepts_a_cell_over_an_unsorted_facet():
    # The edge lists its vertices unsorted, so the triangle above it fails
    # the one-comparison accept test; the rule chain still finds it lawful.
    v = [Cell(i, 0, (i,), ()) for i in range(3)]
    edges = [Cell(0, 1, (1, 0), (0, 1)), Cell(1, 1, (1, 2), (1, 2)), Cell(2, 1, (0, 2), (0, 2))]
    report = Complex([v, edges, [Cell(0, 2, (0, 1, 2), (0, 1, 2))]], [None] * 3).validate()
    assert [(c.code, c.cell_dim) for c in report.violations] == [("UnsortedVertices", 1)]


def test_facet_coverage_enforced():
    b = ComplexBuilder()
    for _ in range(3):
        b.add_vertex()
    e01 = b.add_cell(1, (0, 1), (0, 1))
    e12 = b.add_cell(1, (1, 2), (1, 2))
    b.add_cell(1, (0, 2), (0, 2))
    # facet list misses the (0,2) edge and repeats another
    with pytest.raises(FacetCoverageError):
        b.add_cell(2, (0, 1, 2), (e01, e12, e12))


def test_parallel_cells_are_legal(parallel_digon):
    assert parallel_digon.n_cells(1) == 2
    assert parallel_digon.validate().ok
    ids = [c.id for c in parallel_digon.cells_of(1)]
    assert ids == [0, 1]


def test_simplicial_builder_closure_and_reuse():
    sb = SimplicialBuilder()
    for _ in range(4):
        sb.add_vertex()
    sb.add_simplex((0, 1, 2, 3))
    c = sb.build()
    assert [c.n_cells(d) for d in range(4)] == [4, 6, 4, 1]
    # adding a face of an existing simplex must not duplicate anything
    sb.add_simplex((0, 1, 2))
    assert sb.builder.n_cells(2) == 4


def test_face_closure_and_one_faces(octahedron):
    top = octahedron.cells_of(2)[0]
    closure = face_closure(octahedron, [(2, top.id)])
    assert closure[2] == {top.id}
    assert closure[1] == set(top.facets)
    assert closure[0] == set(top.vertices)
    # a builder walks the same way, and several roots give one merged closure
    assert face_closure(ComplexBuilder.from_complex(octahedron), [(2, top.id)]) == closure
    both = face_closure(octahedron, [(2, 0), (2, 1), (0, 5)])
    assert both[2] == {0, 1}
    assert both[0] == set(octahedron.cell(2, 0).vertices) | set(octahedron.cell(2, 1).vertices) | {5}
    assert face_closure(octahedron, []) == {}


def test_maximal_cells_and_purity(octahedron, interval_ball):
    assert octahedron.is_pure()
    assert len(octahedron.maximal_cells()) == 8
    b = ComplexBuilder.from_complex(interval_ball)
    b.add_vertex("loose")
    c = b.build()
    assert not c.is_pure()


def test_euler_characteristic(octahedron, projective_plane):
    assert octahedron.euler_characteristic() == 2
    assert projective_plane.euler_characteristic() == 1


def test_subcomplex_of_a_closure(octahedron):
    sub, id_map = octahedron.subcomplex(face_closure(octahedron, [(2, 0)]))
    assert sub.dim == 2
    assert sub.n_cells(2) == 1
    assert sub.validate().ok
    assert set(id_map[0]) == set(octahedron.cell(2, 0).vertices)


def test_from_complex_preserves_ids(octahedron):
    b = ComplexBuilder.from_complex(octahedron)
    rebuilt = b.build()
    assert rebuilt == octahedron


def test_from_complex_over_a_broken_cell_hands_over_no_report(octahedron, octahedron_involution):
    # The last 2-cell lists one facet twice, so the builder has no verdict to
    # hand over, and complex-valid validates the built complex in full.
    layers = [list(octahedron.cells_of(d)) for d in range(3)]
    last = layers[2][-1]
    layers[2][-1] = Cell(last.id, 2, last.vertices, (last.facets[0],) * 3)
    broken = Complex(layers, octahedron.labels)
    built = ComplexBuilder.from_complex(broken).build()
    assert built._report is None
    colouring = TwoColouring(frozenset({0, 1, 2}), frozenset({3, 4, 5}))
    labels = {v: v % 3 for v in range(6)}
    report, _ = verify_sphere_quadrangulation(
        built, octahedron_involution, colouring, labels=labels, expected_graph=Graph(range(3))
    )
    entry = report.entry("complex-valid")
    assert not entry.ok
    assert [v.code for v in entry.violations] == ["DuplicateFacet"]
    assert ComplexBuilder.from_complex(octahedron).build()._report == octahedron.validate()


def test_from_complex_on_a_complex_without_layers_can_add_a_vertex():
    b = ComplexBuilder.from_complex(Complex([], []))
    assert b.add_vertex("a") == 0
    built = b.build()
    assert built.cells_of(0) == (Cell(0, 0, (0,), ()),)
    assert built.validate().ok


class _IntSubclass(int):
    pass


@pytest.mark.parametrize("value", [True, False, 1.0, None, "1", _IntSubclass(1), 2**80, -3])
def test_dump_complex_writes_or_refuses_a_cell_value_as_the_reference(value):
    # %d would print True or 1.0 as 1; the writer spells them as json does,
    # and refuses what json refuses.
    complex = Complex([[Cell(0, 0, (0,), ()), Cell(1, 0, (value,), (value,))]], ["a", None], [(0.5,), None])
    try:
        reference = dump_canonical(complex_to_json(complex))
    except TypeError:
        with pytest.raises(TypeError):
            dump_complex(complex)
    else:
        assert dump_complex(complex) == reference


@pytest.mark.parametrize("layers", [[], [[]]])
def test_dump_complex_of_an_empty_complex(layers):
    complex = Complex(layers, [])
    assert dump_complex(complex) == dump_canonical(complex_to_json(complex))


def test_fresh_label_appends_ticks():
    b = ComplexBuilder()
    b.add_vertex("z")
    v = b.add_vertex("z")
    c = b.build()
    assert c.label(v) == "z'"


def test_json_round_trip(octahedron):
    obj = complex_to_json(octahedron)
    again = complex_from_json(json.loads(json.dumps(obj)))
    assert again == octahedron


def test_json_round_trip_without_coords(projective_plane):
    obj = complex_to_json(projective_plane)
    assert "coords" not in obj["vertices"][0]
    assert complex_from_json(obj) == projective_plane


def test_json_rejects_garbage():
    with pytest.raises(ParseError):
        complex_from_json({"vertices": []})
    with pytest.raises(ParseError):
        complex_from_json({"dimension": 1, "vertices": "nope", "cells": []})


def test_json_integer_coordinates_read_as_floats(octahedron):
    # booleans and strings are rejected (see the tamper rows of test_cli)
    obj = complex_to_json(octahedron)
    obj["vertices"][0]["coords"] = [1, 0, 0]
    coords = complex_from_json(obj).coords(0)
    assert coords == (1.0, 0.0, 0.0) and {type(x) for x in coords} == {float}


def test_dump_canonical_is_stable():
    a = dump_canonical({"b": 1, "a": [1.5, 2]})
    b = dump_canonical({"a": [1.5, 2], "b": 1})
    assert a == b
    assert a.endswith("\n")


@pytest.mark.parametrize("obj", [{1: 0}, {"a": 1, 2: 0}, {1, 2}, {"a": [{"b": {0}}]}])
def test_dump_canonical_takes_str_keys_and_json_values_only(obj):
    with pytest.raises(TypeError):
        dump_canonical(obj)


def test_validate_flags_label_collision():
    cells = [[Cell(0, 0, (0,), ()), Cell(1, 0, (1,), ())]]
    c = Complex(cells, ["same", "same"])
    report = c.validate()
    assert not report.ok
    assert any(v.code == "LabelCollision" for v in report.violations)
