import json
from dataclasses import replace

import pytest

from projquad import (
    Cell,
    Complex,
    load_bundle,
    odd_cycle_sphere,
    quotient,
    schrijver_pipeline,
    sphere_quad_from_bundle,
    verify_bundle,
    verify_sphere_quadrangulation,
    write_bundle,
)
from projquad.homomorphisms import _is_schrijver_target
from projquad.errors import ParseError, VerificationFailed
from projquad.graphs import Graph, schrijver_graph

EXPECTED_FILES = {"complex.json", "involution.json", "colouring.json", "graph.json", "report.json"}


def test_write_and_load_round_trip(tmp_path):
    sq = odd_cycle_sphere(2)
    out = write_bundle(tmp_path / "b", sq)
    assert {p.name for p in out.iterdir()} == EXPECTED_FILES
    bundle = load_bundle(out)
    assert bundle.complex == sq.complex
    assert bundle.graph == sq.graph
    assert bundle.homomorphism is None
    assert bundle.orbit_reps == {i: i for i in range(5)}


def test_bundle_with_homomorphism(tmp_path):
    sq, hom = schrijver_pipeline(6, 2)
    out = write_bundle(tmp_path / "sg", sq, homomorphism=hom)
    bundle = load_bundle(out)
    assert bundle.homomorphism is not None
    assert bundle.homomorphism.target == hom.target
    report, _ = verify_bundle(load_bundle(out), n_walks=10)
    assert report.ok
    names = [e.name for e in report.entries]
    assert "homomorphism-valid" in names
    assert "report-consistent" in names


def test_only_the_stable_kneser_graph_of_the_dimension_is_a_target():
    # A 2-sphere maps into SG(6, 2): k = 2 is the label length, n = 2 + 2k.
    assert _is_schrijver_target(schrijver_graph(6, 2), 2)
    others = [
        schrijver_graph(6, 2).relabel(lambda v: tuple(reversed(v))),
        schrijver_graph(7, 2),
        Graph(),
        Graph([(1, 3), (2, 4, 6)]),
        Graph([((1,), (3,)), ((2,), (4,))]),
        Graph(["13", "24"]),
        Graph([tuple(range(1, 2000, 2))]),  # n = 2002, k = 1000: refused by the count
    ]
    assert not any(_is_schrijver_target(g, 2) for g in others)
    assert not _is_schrijver_target(schrijver_graph(6, 2), 3)
    assert not _is_schrijver_target(schrijver_graph(6, 2), -1)


def test_verify_bundle_passes(tmp_path):
    sq = odd_cycle_sphere(3)
    out = write_bundle(tmp_path / "c7", sq)
    bundle = load_bundle(out)
    report, graph = verify_bundle(bundle, n_walks=30)
    assert report.ok
    q, _ = quotient(bundle.complex, bundle.involution)
    assert (graph, q) == (sq.graph, sq.quotient)
    walk_entry = report.entry("walk-parity")
    assert walk_entry is not None and walk_entry.ok


def test_a_stored_walk_parity_entry_is_still_consistent(tmp_path):
    # Bundles built when `build --walks N` existed store a passing
    # `walk-parity` entry after `graph-matches-expected`; `verify` samples
    # its own walks, so the stored one is left out of the comparison.
    out = write_bundle(tmp_path / "old", odd_cycle_sphere(2))
    path = out / "report.json"
    stored = json.loads(path.read_text())
    assert "walk-parity" not in [e["name"] for e in stored]
    stored.append({"info": {"sampled": 40}, "name": "walk-parity", "ok": True})
    path.write_text(json.dumps(stored))
    for n_walks in (0, 10):
        report, _ = verify_bundle(load_bundle(out), n_walks=n_walks)
        assert report.ok, report.failing()
        assert report.entry("report-consistent").ok


def test_verify_bundle_detects_tampered_colouring(tmp_path):
    sq = odd_cycle_sphere(2)
    out = write_bundle(tmp_path / "t", sq)
    path = out / "colouring.json"
    obj = json.loads(path.read_text())
    # swap one vertex across the colour classes
    v = obj["black"].pop()
    obj["white"].append(v)
    obj["white"].sort()
    path.write_text(json.dumps(obj))
    report, _ = verify_bundle(load_bundle(out), n_walks=0)
    assert not report.ok


def test_verify_bundle_detects_tampered_graph(tmp_path):
    sq = odd_cycle_sphere(2)
    out = write_bundle(tmp_path / "g", sq)
    path = out / "graph.json"
    obj = json.loads(path.read_text())
    obj["edges"] = obj["edges"][:-1]
    path.write_text(json.dumps(obj))
    report, _ = verify_bundle(load_bundle(out), n_walks=0)
    assert not report.ok


def test_load_bundle_rejects_garbage(tmp_path):
    with pytest.raises(ParseError):
        load_bundle(tmp_path / "missing")
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "complex.json").write_text("{not json")
    with pytest.raises(ParseError):
        load_bundle(bad)


def test_sphere_quad_from_bundle(tmp_path):
    sq = odd_cycle_sphere(2)
    out = write_bundle(tmp_path / "rt", sq)
    again = sphere_quad_from_bundle(out)
    assert again.complex == sq.complex
    assert again.graph == sq.graph
    assert again.labels == sq.labels


def test_sphere_quad_from_bundle_rejects_tampered(tmp_path):
    sq = odd_cycle_sphere(2)
    out = write_bundle(tmp_path / "bad2", sq)
    path = out / "involution.json"
    obj = json.loads(path.read_text())
    obj["vertex_pairs"] = obj["vertex_pairs"][:-1]
    path.write_text(json.dumps(obj))
    with pytest.raises((VerificationFailed, ParseError)):
        sphere_quad_from_bundle(out)


def test_repeat_builds_byte_identical(tmp_path):
    a = write_bundle(tmp_path / "a", odd_cycle_sphere(2))
    b = write_bundle(tmp_path / "b", odd_cycle_sphere(2))
    for name in EXPECTED_FILES:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_a_bundle_without_homomorphism_removes_a_stale_one(tmp_path):
    # Writing a bundle over a Schrijver bundle's directory must not leave the
    # old homomorphism.json behind: its source is not the new graph.
    sq, hom = schrijver_pipeline(6, 2)
    out = write_bundle(tmp_path / "d", sq, homomorphism=hom)
    assert (out / "homomorphism.json").exists()
    write_bundle(out, odd_cycle_sphere(2))
    assert {p.name for p in out.iterdir()} == EXPECTED_FILES
    report, _ = verify_bundle(load_bundle(out), n_walks=0)
    assert report.ok, report.failing()


def test_a_cell_value_the_parser_refuses_is_never_written(tmp_path):
    # The cell law and the audits compare ids with ==, so True and floats
    # pass as the ints they equal; load_bundle would refuse the text that
    # json writes for them, so write_bundle refuses them before any file.
    sq = odd_cycle_sphere(1)
    points = [(True,) if v == 1 else c.vertices for v, c in enumerate(sq.complex.cells_of(0))]
    edges = [Cell(tuple(map(float, c.vertices)), c.facets) for c in sq.complex.cells_of(1)]
    coords = [sq.complex.coords(v) for v in sq.complex.vertex_ids()]
    complex = Complex([[Cell(vs, ()) for vs in points], edges], sq.complex.labels, coords)
    assert complex.validate().ok
    report, _ = verify_sphere_quadrangulation(complex, sq.involution, sq.colouring, labels=sq.labels, expected_graph=sq.graph)
    assert report.ok
    with pytest.raises(TypeError):
        write_bundle(tmp_path / "b", replace(sq, complex=complex))
    assert not (tmp_path / "b").exists()
