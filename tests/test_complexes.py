import copy
import dataclasses
import json
import pickle

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
from projquad.validation import ValidationReport
from projquad.errors import (
    BadParameters,
    DanglingFacet,
    DuplicateVertexInCell,
    FacetCoverageError,
    ParseError,
    UnknownVertex,
    VertexArityMismatch,
)


@pytest.mark.parametrize("field", ["vertices", "facets"])
def test_a_cell_field_cannot_be_assigned(field):
    cell = Cell((0, 2), (0, 2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cell, field, 0)
    assert cell == Cell((0, 2), (0, 2))


def test_a_cell_is_a_dataclass_value():
    cell = Cell((0, 2), (0, 2))
    by_keyword = Cell(vertices=(0, 2), facets=(0, 2))
    assert cell == by_keyword and hash(cell) == hash(by_keyword)
    assert cell != Cell((0, 2), (2, 0))
    assert repr(cell) == "Cell(vertices=(0, 2), facets=(0, 2))"
    assert [f.name for f in dataclasses.fields(Cell)] == ["vertices", "facets"]
    assert dataclasses.replace(cell, facets=(2, 0)) == Cell((0, 2), (2, 0))
    for twin in (copy.copy(cell), copy.deepcopy(cell), pickle.loads(pickle.dumps(cell))):
        assert twin == cell and hash(twin) == hash(cell) and type(twin) is Cell
    assert not hasattr(cell, "__dict__")


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
    bad = Cell(tuple(sorted(vertices)), tuple(facets))
    report = Complex([b.build().cells_of(0), [bad]], [None] * 3).validate()
    assert [v.code for v in report.violations] == [code]


def test_the_cell_law_refuses_a_vertex_cell_of_negative_id():
    # The 0-cell at position 0 sits on vertex -1, which does not exist: the
    # unknown vertex is reported, not the vertex away from the position.
    report = Complex([[Cell((-1,), ())]], ["a"]).validate()
    assert [v.code for v in report.violations] == ["UnknownVertex"]


def test_validate_refuses_two_vertex_cells_on_one_vertex():
    # Both 0-cells sit on vertex 1, so the one at position 0 breaks the cell
    # law and vertex 0 has no 0-cell.
    report = Complex([[Cell((1,), ()), Cell((1,), ())]], ["a", "b"]).validate()
    assert [(v.code, v.cell_dim, v.cell_id) for v in report.violations] == [("VertexCellMismatch", 0, 0)]


def test_the_cell_law_accepts_a_cell_over_an_unsorted_facet():
    # The edge lists its vertices unsorted, so the column pass declines the
    # triangle above it; the rule chain still finds the triangle lawful.
    v = [Cell((i,), ()) for i in range(3)]
    edges = [Cell((1, 0), (0, 1)), Cell((1, 2), (1, 2)), Cell((0, 2), (0, 2))]
    report = Complex([v, edges, [Cell((0, 1, 2), (0, 1, 2))]], [None] * 3).validate()
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
    # Equal values at distinct positions: each is known by its position.
    first, second = parallel_digon.cells_of(1)
    assert first == second
    assert parallel_digon.maximal_cells() == ((1, 0), (1, 1))


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


@pytest.mark.parametrize("unknown", [-1, 4, 9])
def test_simplicial_builder_refuses_an_unknown_vertex_and_keeps_a_lawful_prefix(unknown):
    # The tetrahedron's faces come in `combinations` order: when the unknown
    # vertex sorts last, the triangle (0, 1, 2) and its faces are added
    # before the edge (0, unknown) raises; when it sorts first, nothing is.
    # Vertex 3 is one that only the wrapped ComplexBuilder added.
    sb = SimplicialBuilder()
    for _ in range(3):
        sb.add_vertex()
    sb.builder.add_vertex()
    with pytest.raises(UnknownVertex, match=f"vertex {unknown} was not added with add_vertex"):
        sb.add_simplex((0, 1, 2, unknown))
    with pytest.raises(UnknownVertex, match="vertex 3 was not added with add_vertex"):
        sb.add_simplex((0, 3))
    built = sb.build()
    assert built.validate().ok
    assert complex_from_json(complex_to_json(built)).validate().ok
    kept = [built.n_cells(d) for d in range(built.dim + 1)]
    assert kept == ([4] if unknown < 0 else [4, 3, 1])


def test_simplicial_builder_id_of():
    sb = SimplicialBuilder()
    for _ in range(4):
        sb.add_vertex()
    sb.add_simplex((0, 1, 2))
    assert sb.id_of([2]) == 2
    assert sb.id_of((2, 0, 1)) == sb.add_simplex((0, 1, 2))[1] == 0
    assert [sb.id_of(e) for e in ((0, 1), (0, 2), (1, 2))] == [0, 1, 2]
    for never_added in ((3, 0), (0, 1, 3), (4,)):
        with pytest.raises(KeyError):
            sb.id_of(never_added)


def test_face_closure_and_one_faces(octahedron):
    top = octahedron.cells_of(2)[0]
    closure = face_closure(octahedron, [(2, 0)])
    assert closure[2] == {0}
    assert closure[1] == set(top.facets)
    assert closure[0] == set(top.vertices)
    # a builder walks the same way, and several roots give one merged closure
    assert face_closure(ComplexBuilder.from_complex(octahedron), [(2, 0)]) == closure
    both = face_closure(octahedron, [(2, 0), (2, 1), (0, 5)])
    assert both[2] == {0, 1}
    assert both[0] == set(octahedron.cell(2, 0).vertices) | set(octahedron.cell(2, 1).vertices) | {5}
    assert face_closure(octahedron, []) == {}


def test_maximal_cells_and_purity(octahedron, interval_ball):
    assert {d for d, _ in octahedron.maximal_cells()} == {octahedron.dim}
    assert len(octahedron.maximal_cells()) == 8
    b = ComplexBuilder.from_complex(interval_ball)
    b.add_vertex("loose")
    c = b.build()
    assert {d for d, _ in c.maximal_cells()} == {0, c.dim}


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
    layers[2][-1] = Cell(last.vertices, (last.facets[0],) * 3)
    broken = Complex(layers, octahedron.labels)
    builder = ComplexBuilder.from_complex(broken)
    with pytest.raises(BadParameters):  # its cells may name vertices that do not exist
        builder.star(0, set())
    built = builder.build()
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


def test_the_cone_over_a_sphere_is_a_lawful_ball(octahedron):
    b = ComplexBuilder.from_complex(octahedron)
    apex = b.add_cone("o", (0.0, 0.0, 0.0), {d: range(octahedron.n_cells(d)) for d in range(3)})
    cone = b.build()
    assert apex == 6 and cone.coords(apex) == (0.0, 0.0, 0.0)
    assert [cone.n_cells(d) for d in range(4)] == [7, 12 + 6, 8 + 12, 8]
    # The cone over 2-cell 0 lists that cell, then the cones over its facets.
    facets = octahedron.cell(2, 0).facets
    assert cone.cell(3, 0) == Cell((*octahedron.cell(2, 0).vertices, apex), (0, *(8 + f for f in facets)))
    assert cone._report == Complex([cone.cells_of(d) for d in range(4)], cone.labels).validate() == ValidationReport()


@pytest.mark.parametrize(
    "cells",
    [{2: [0]}, {0: [0], 1: [0]}, {0: [6]}, {0: [-1]}, {3: []}, {-1: []}],
    ids=["no-faces", "a-facet-missing", "a-vertex-past-the-end", "a-negative-vertex", "a-dimension-past-the-top", "a-negative-dimension"],
)
def test_a_refused_cone_adds_nothing(octahedron, cells):
    b = ComplexBuilder.from_complex(octahedron)
    with pytest.raises(BadParameters):
        b.add_cone("o", None, cells)
    assert b.build() == octahedron


def test_from_complex_on_a_complex_without_layers_can_add_a_vertex():
    b = ComplexBuilder.from_complex(Complex([], []))
    assert b.add_vertex("a") == 0
    built = b.build()
    assert built.cells_of(0) == (Cell((0,), ()),)
    assert built.validate().ok


class _IntSubclass(int):
    pass


@pytest.mark.parametrize("value", [True, False, 1.0, None, "1", _IntSubclass(1), 2**80, -3])
def test_dump_complex_writes_or_refuses_a_cell_value_as_the_reference(value):
    # %d would print True or 1.0 as 1, and complex_from_json refuses the text
    # json writes for them: the writer refuses every value not of type int.
    complex = Complex([[Cell((0,), ()), Cell((value,), (value,))]], ["a", None], [(0.5,), None])
    if type(value) is int:
        assert dump_complex(complex) == dump_canonical(complex_to_json(complex))
    else:
        with pytest.raises(TypeError):
            dump_complex(complex)


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
    cells = [[Cell((0,), ()), Cell((1,), ())]]
    c = Complex(cells, ["same", "same"])
    report = c.validate()
    assert not report.ok
    assert any(v.code == "LabelCollision" for v in report.violations)
