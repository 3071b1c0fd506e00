"""End-to-end acceptance checks.

Each test below is one acceptance criterion; `pytest -v` therefore prints one
pass/fail line per criterion.  A module-scoped corpus of constructed bundles
is shared across the criteria so each pipeline runs exactly once.
"""

import hashlib
import json
import random
import time
import tracemalloc
from math import pi, sin
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np
import pytest

from projquad import (
    BudgetExceeded,
    Complex,
    ComplexBuilder,
    Graph,
    Homomorphism,
    HomologyCalculator,
    SphereQuad,
    TwoColouring,
    bichromatic_edge_cells,
    box_membership,
    boundary_of,
    boundary_squares_to_zero,
    chromatic_number,
    complete_graph,
    complex_from_json,
    complex_to_json,
    cycle_parity_vs_homology,
    cylinder_complete,
    double_to_sphere,
    dump_canonical,
    dump_complex,
    fineness_check,
    load_bundle,
    mycielski_lift,
    mycielski_tower,
    odd_cycle_sphere,
    parity_audit,
    quadrangulation_check,
    rank_gf2,
    sample_closed_walks,
    schrijver_graph,
    schrijver_homomorphism,
    schrijver_pipeline,
    verify_bundle,
    verify_homomorphism,
    verify_ball_quadrangulation,
    verify_sphere_quadrangulation,
    verify_z2_map_to_box,
    write_bundle,
)
from projquad import audits, constructions, homology, symmetry
from projquad.symmetry import Involution, antipodal_free_cells
from projquad.validation import ValidationReport
from projquad.cli import main
from projquad.graphs import _label_to_json, label_key

from conftest import _star_by_scan, cube_over_k4, facet_rows, mycielski_graph, projected_quotient, quotient_lemmas_hold, two_disjoint_copies, walk_parity_is_its_recount

SCHRIJVER_PAIRS = ((6, 2), (7, 2), (8, 2), (8, 3), (9, 3))

BUILDS = {
    "odd-cycle-2": lambda: odd_cycle_sphere(2),
    **{f"cylinder-{r}": (lambda r=r: double_to_sphere(cylinder_complete(r))) for r in (3, 4, 5)},
    **{f"tower-{n}": (lambda n=n: mycielski_tower(n)) for n in (4, 5, 6)},
    **{f"schrijver-{n}-{k}": (lambda n=n, k=k: schrijver_pipeline(n, k)) for n, k in SCHRIJVER_PAIRS},
}


class CorpusItem(NamedTuple):
    sq: SphereQuad
    hom: Optional[Homomorphism]
    seconds: float


def _run_build(build) -> tuple[SphereQuad, Optional[Homomorphism]]:
    built = build()
    return built if isinstance(built, tuple) else (built, None)


@pytest.fixture(scope="module")
def corpus() -> dict[str, CorpusItem]:
    items: dict[str, CorpusItem] = {}
    for name, build in BUILDS.items():
        start = time.perf_counter()
        sq, hom = _run_build(build)
        items[name] = CorpusItem(sq, hom, time.perf_counter() - start)
    return items


def test_criterion_1_cylinder_spheres_give_complete_graphs(corpus):
    for r in (3, 4, 5):
        item = corpus[f"cylinder-{r}"]
        t = 2 * r + 3
        assert item.sq.report.ok, item.sq.report.failing()
        assert item.sq.graph.n == t
        assert item.sq.graph.m == t * (t - 1) // 2
        assert item.sq.graph == complete_graph(t)
        assert item.seconds < 5.0, f"r={r} took {item.seconds:.2f}s"
        print(f"cylinder r={r}: K_{t} in {item.seconds:.2f}s, all audits pass")


def test_criterion_2_towers_match_mycielski_family(corpus):
    for n in (4, 5, 6):
        item = corpus[f"tower-{n}"]
        assert item.sq.report.ok, item.sq.report.failing()
        assert item.sq.graph == mycielski_graph(n), f"tower n={n}"

    start = time.perf_counter()
    r4 = chromatic_number(corpus["tower-4"].sq.graph)
    t4 = time.perf_counter() - start
    assert r4.exhausted and r4.chi == 4
    assert t4 < 1.0, f"chi of the 4-tower took {t4:.2f}s"

    start = time.perf_counter()
    r5 = chromatic_number(corpus["tower-5"].sq.graph)
    t5 = time.perf_counter() - start
    assert r5.exhausted and r5.chi == 5
    assert t5 < 60.0, f"chi of the 5-tower took {t5:.2f}s"

    # The n=6 tower's audited structure certifies chi >= 6; the exact solver
    # agrees and is still cheap enough to run outright.
    r6 = chromatic_number(corpus["tower-6"].sq.graph)
    assert r6.exhausted and r6.chi == 6
    print(f"towers: chi 4 in {t4:.2f}s, chi 5 in {t5:.2f}s, chi 6 confirmed")


def test_criterion_3_solved_bundles_respect_dimension_bound(corpus, tmp_path_factory, capsys):
    # `projquad chi` settles every stored bundle by its clique or by the
    # topological bound dim+2, with no search; the exact search on the bare
    # graph is the independent check of that bound wherever it settles.
    base = tmp_path_factory.mktemp("chi")
    solved = []
    for name, item in corpus.items():
        bound = item.sq.complex.dim + 2
        bundle = write_bundle(base / name, item.sq, homomorphism=item.hom)
        assert main(["chi", str(bundle)]) == 0, name
        settled = json.loads(capsys.readouterr().out)
        assert settled["proof"] == ("clique" if name.startswith("cylinder") else "topological"), name
        assert settled["nodes"] == 0, name
        assert settled["chi"] >= bound, name
        try:
            result = chromatic_number(item.sq.graph, max_nodes=150_000)
        except BudgetExceeded:
            continue
        assert result.chi >= bound, f"{name}: chi {result.chi} < dim+2 = {bound}"
        assert settled["chi"] == result.chi, name
        assert settled["clique"] == [_label_to_json(v) for v in result.clique], name
        colouring = [[_label_to_json(v), result.colouring[v]] for v in sorted(result.colouring, key=label_key)]
        assert settled["colouring"] == colouring, name
        solved.append(name)
    assert len(solved) >= 8, f"only {solved} terminated"
    print(f"dimension bound holds on all {len(solved)} solved bundles: {solved}")


def test_criterion_4_schrijver_homomorphisms(corpus):
    start = time.perf_counter()
    build_seconds = sum(corpus[f"schrijver-{n}-{k}"].seconds for n, k in SCHRIJVER_PAIRS)
    for n, k in SCHRIJVER_PAIRS:
        # the one-step map out of the Mycielskian of the previous graph
        step = schrijver_homomorphism(n, k)
        step_report = verify_homomorphism(step)
        assert step_report.ok and step_report.violations == (), f"step ({n},{k})"
        # the composed pipeline map, sourced at the built bundle's graph
        item = corpus[f"schrijver-{n}-{k}"]
        assert item.sq.report.ok, item.sq.report.failing()
        assert item.hom is not None
        report = verify_homomorphism(item.hom)
        assert report.ok and report.violations == (), f"({n},{k}): {report.to_json()}"
        assert item.hom.source == item.sq.graph
        assert item.hom.target == schrijver_graph(n, k)

    sg = chromatic_number(schrijver_graph(6, 2))
    assert sg.exhausted and sg.chi == 4
    grotzsch = chromatic_number(mycielski_graph(4))
    assert grotzsch.exhausted and grotzsch.chi == 4
    total = build_seconds + (time.perf_counter() - start)
    assert total < 30.0, f"schrijver criterion took {total:.2f}s"
    print(
        "5 step and 5 composed homomorphisms verified, "
        f"chi(SG(6,2)) = 4, chi(Grotzsch) = 4 in {total:.2f}s"
    )


def test_criterion_5_parity_and_sampled_walks(corpus):
    for name, item in corpus.items():
        sq = item.sq
        up_edges = bichromatic_edge_cells(sq.complex, sq.colouring)
        assert parity_audit(sq.complex, edge_cells=up_edges).ok, name
        assert parity_audit(sq.quotient, edge_cells=sq.selected).ok, name

        calc = HomologyCalculator(sq.quotient)
        walks = sample_closed_walks(sq.quotient, sq.selected, 100, seed=11)
        assert len(walks) == 100, name
        bad = 0
        for walk in walks:
            res = cycle_parity_vs_homology(
                sq.quotient, walk, edge_cells=sq.selected, calculator=calc
            )
            if not (res["consistent"] and res["selected"]):
                bad += 1
        assert bad == 0, f"{name}: {bad} of {len(walks)} walks violate parity"
    print(f"parity audits and 100 sampled walks clean on all {len(corpus)} bundles")


def _lift(sphere, preimages: dict[int, list[int]], walk: list[int]) -> tuple[int, int]:
    """Lift a walk of quotient 1-cells to the double cover, starting at an
    end of a preimage of its first cell, and return the lift's start and end
    vertices.  Each step takes the one preimage at the current sphere vertex;
    a start that does not chain is retried from the other end."""
    for start in sphere.cell(1, preimages[walk[0]][0]).vertices:
        cur = start
        for q in walk:
            here = [e for e in preimages[q] if cur in sphere.cell(1, e).vertices]
            if not here:
                break
            assert len(here) == 1
            a, b = sphere.cell(1, here[0]).vertices
            cur = b if cur == a else a
        else:
            return start, cur
    raise AssertionError(f"walk {walk} does not lift from either end of its first cell")


def _lift_closes(sphere, preimages: dict[int, list[int]], walk: list[int]) -> bool:
    """Whether the lift of a closed walk of quotient 1-cells returns to its start."""
    start, end = _lift(sphere, preimages, walk)
    return start == end


def _preimages(sq) -> dict[int, list[int]]:
    """Each quotient 1-cell's sphere 1-cells, by `sq.projection`."""
    preimages: dict[int, list[int]] = {}
    for e, q in sq.projection[1].items():
        preimages.setdefault(q, []).append(e)
    return preimages


def test_double_cover_lift_closes_exactly_on_null_homologous_walks(corpus):
    closed = opened = 0
    for name, item in corpus.items():
        sq = item.sq
        preimages = _preimages(sq)
        assert all(len(es) == 2 for es in preimages.values()), name
        calc = HomologyCalculator(sq.quotient)
        walks = sample_closed_walks(sq.quotient, sq.selected, 100, seed=0)
        assert len(walks) == 100, name
        for walk in walks:
            res = cycle_parity_vs_homology(sq.quotient, walk, edge_cells=sq.selected, calculator=calc)
            lifted = _lift_closes(sq.complex, preimages, walk)
            assert lifted == (res["homology_class"] == 0), f"{name}: walk {walk}"
            closed += lifted
            opened += not lifted
    assert closed and opened
    print(f"{closed} lifts closed and {opened} opened, each as homology predicts")


def test_walk_parity_lifts_each_walk_to_its_homology_class_and_parity(corpus):
    # The lemma of `walk-parity` on a passing sphere: a closed walk of the
    # quotient bounds exactly when its lift to the sphere closes, and, as
    # each lifted step is bichromatic and the involution swaps the colours,
    # exactly when it is even.  The lift of a walk that is not closed ends
    # off its start's orbit, so it has no verdict.
    closed = opened = 0
    for name, item in corpus.items():
        sq = item.sq
        preimages = _preimages(sq)
        partner = sq.involution.vertex_pairing
        calc = HomologyCalculator(sq.quotient)
        for seed in (0, 7):
            walks = sample_closed_walks(sq.quotient, sq.selected, 100, seed=seed)
            assert len(walks) == 100, (name, seed)
            for walk in walks:
                res = cycle_parity_vs_homology(sq.quotient, walk, edge_cells=sq.selected, calculator=calc)
                lifted = _lift_closes(sq.complex, preimages, walk)
                assert lifted == (res["homology_class"] == 0) == (res["parity"] == 0), (name, seed, walk)
                start, end = _lift(sq.complex, preimages, walk[:-1])
                assert end not in (start, partner[start]), (name, seed, walk)
                closed += lifted
                opened += not lifted
    assert closed and opened
    print(f"{closed} lifts closed and {opened} opened, each as homology and parity predict")


def _box_map_ok_on_every_cell(complex, colouring, graph, labels) -> bool:
    """The cell rule of the box-map audit applied to every cell, not only to
    the maximal ones: injective on the cell, image in the box complex."""
    for d in range(complex.dim + 1):
        for c in complex.cells_of(d):
            if len({(labels[v], colouring.of(v)) for v in c.vertices}) != len(c.vertices):
                return False
            a1 = {labels[v] for v in c.vertices if v in colouring.black}
            a2 = {labels[v] for v in c.vertices if v in colouring.white}
            if not box_membership(graph, a1, a2):
                return False
    return True


def test_box_map_on_maximal_cells_agrees_with_every_cell(corpus):
    for name, item in corpus.items():
        sq = item.sq
        edges = sq.graph.edges()
        without_edge = Graph(sq.graph.vertices, edges[1:])
        u, v = sq.complex.cell(*sq.complex.maximal_cells()[0]).vertices[:2]
        merged = {w: sq.labels[u] if label == sq.labels[v] else label for w, label in sq.labels.items()}
        cases = {
            "as built": (sq.graph, sq.labels),
            f"without edge {edges[0]}": (without_edge, sq.labels),
            f"label of {v} merged into {u}'s": (sq.graph, merged),
        }
        for case, (graph, labels) in cases.items():
            ok = verify_z2_map_to_box(sq.complex, sq.colouring, graph, labels).ok
            assert ok == _box_map_ok_on_every_cell(sq.complex, sq.colouring, graph, labels), f"{name}, {case}"
            assert ok == (case == "as built"), f"{name}, {case}"


def _numpy_rank_gf2(dense: np.ndarray) -> int:
    a = dense.copy()
    rank = 0
    rows, cols = a.shape
    for col in range(cols):
        hits = np.nonzero(a[rank:, col])[0]
        if hits.size == 0:
            continue
        pivot = rank + int(hits[0])
        a[[rank, pivot]] = a[[pivot, rank]]
        mask = a[:, col].astype(bool)
        mask[rank] = False
        a[mask] ^= a[rank]
        rank += 1
        if rank == rows:
            break
    return rank


def test_criterion_6_homology_backbone(octahedron, projective_plane, corpus):
    start = time.perf_counter()
    assert HomologyCalculator(projective_plane).all_betti() == (1, 1, 1)
    assert HomologyCalculator(octahedron).all_betti() == (1, 0, 1)
    built_p3 = corpus["cylinder-3"].sq.quotient
    assert built_p3.dim == 3
    assert HomologyCalculator(built_p3).all_betti() == (1, 1, 1, 1)

    for name, item in corpus.items():
        for cx in (item.sq.complex, item.sq.quotient):
            for p in range(cx.dim + 2):
                assert boundary_squares_to_zero(cx, p), (name, p)

    rng = np.random.default_rng(90817)
    for _ in range(200):
        rows = int(rng.integers(1, 257))
        cols = int(rng.integers(1, 257))
        dense = rng.integers(0, 2, size=(rows, cols), dtype=np.uint8)
        packed = [
            int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
            for row in dense
        ]
        assert rank_gf2(packed) == _numpy_rank_gf2(dense)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion took {elapsed:.2f}s"
    print(f"betti spot checks, d o d = 0 corpus-wide, 200 rank oracles in {elapsed:.2f}s")


def test_each_boundary_composite_is_checked_once_per_complex(corpus, monkeypatch):
    # The boundary-operator audit and the sphere's clearing guard share one
    # verdict per p.  A passing sphere's walks are judged by the walk lemma,
    # so no quotient calculator is built; on two disjoint copies `sphere`
    # fails, and the quotient's one calculator, shared by `quotient-homology`
    # and the walk solves, checks its own composites.
    checked = []
    squares_to_zero = homology._squares_to_zero

    def counted(cells, facet_masks):
        checked.append(len(cells[0].vertices) - 1)
        return squares_to_zero(cells, facet_masks)

    monkeypatch.setattr(homology, "_squares_to_zero", counted)
    sq = corpus["cylinder-3"].sq
    twice = two_disjoint_copies(sq.complex, sq.involution, sq.colouring)
    cases = {
        "as built": ((sq.complex, sq.involution, sq.colouring), sq.labels, [2, 3]),
        "two copies": (twice, {v: min(v, w) for v, w in twice[1].vertex_pairing.items()}, [2, 2, 3, 3]),
    }
    for case, (sphere, labels, expected) in cases.items():
        checked.clear()
        report, _ = verify_sphere_quadrangulation(*sphere, labels=labels, expected_graph=sq.graph, n_walks=10)
        assert report.entry("walk-parity").ok, case
        assert report.entry("sphere").ok == (case == "as built"), case
        assert sorted(checked) == expected, case


def test_quotient_valid_lemma_agrees_with_validate(tmp_path_factory, corpus, digon_sphere_bits):
    # `quotient-valid` follows from complex-valid, involution-valid and
    # antipodal-free; the validation it replaces must accept the quotient.
    # `identification-commutes` follows once the quotient exists; the
    # comparison it replaces must hold.
    base = tmp_path_factory.mktemp("lemma")
    for name, item in corpus.items():
        bundle = load_bundle(write_bundle(base / name, item.sq, homomorphism=item.hom))
        report, graph = verify_bundle(bundle, n_walks=0)
        assert report.entry("quotient-valid").ok and report.entry("identification-commutes").ok, name
        sphere = (bundle.complex, bundle.involution, bundle.colouring)
        assert quotient_lemmas_hold(report, item.sq.labels, graph, *sphere), name
    # Both edges of the digon hold its antipodal pair, and an all-black
    # colouring selects no edge, so it passes the identification and only
    # the antipodal-free gate keeps its quotient from the lemma.
    complex, involution, _ = digon_sphere_bits
    black = TwoColouring(black=frozenset({0, 1}), white=frozenset())
    labels = {0: "x", 1: "x"}
    report, graph = verify_sphere_quadrangulation(complex, involution, black, labels=labels, expected_graph=Graph(["x"]))
    assert quotient_lemmas_hold(report, labels, graph, complex, involution, black)


def test_only_walks_project_the_quotient(tmp_path_factory, corpus, monkeypatch):
    # `quotient-homology` and `quotient-parity` are lemmas on a passing
    # sphere, so no build and no `verify --walks 0` projects a quotient; the
    # walks of `verify` are judged by the walk lemma, so they project only
    # the quotient's 1-skeleton for the sampler.  When `sphere` fails, the
    # quotient is projected in full, once.  The audit returns only the
    # identified graph, never the quotient.
    calls = []
    project = symmetry._project

    def counted(complex, involution, *top):
        q, projection = project(complex, involution, *top)
        calls.append(q.dim)
        return q, projection

    for module in (symmetry, audits, constructions):
        monkeypatch.setattr(module, "_project", counted)
    mycielski_tower(5)
    double_to_sphere(cylinder_complete(3))
    schrijver_pipeline(7, 2)
    assert calls == []
    base = tmp_path_factory.mktemp("projections")
    for name, item in corpus.items():
        bundle = load_bundle(write_bundle(base / name, item.sq, homomorphism=item.hom))
        for n_walks, projected_dims in ((0, []), (10, [1])):
            calls.clear()
            report, graph = verify_bundle(bundle, n_walks=n_walks)
            assert report.ok and calls == projected_dims, (name, n_walks)
            assert graph == bundle.graph, (name, n_walks)
    sq = corpus["cylinder-3"].sq
    twice = two_disjoint_copies(sq.complex, sq.involution, sq.colouring)
    labels = {v: min(v, w) for v, w in twice[1].vertex_pairing.items()}
    calls.clear()
    report, graph = verify_sphere_quadrangulation(*twice, labels=labels, expected_graph=sq.graph, n_walks=10)
    assert not report.entry("sphere").ok and report.entry("walk-parity").ok
    assert calls == [3] and isinstance(graph, Graph)


def test_walk_parity_is_a_recount_of_its_walks(tmp_path_factory, corpus):
    # `walk-parity` on a passing sphere is a lemma of antisymmetry and the
    # sampler's guarantee, with no walk judged one by one;
    # `cycle_parity_vs_homology` on the same walks, which raises on a walk
    # that is not closed or not a cycle, recounts it.
    base = tmp_path_factory.mktemp("walks")
    for name, item in corpus.items():
        bundle = load_bundle(write_bundle(base / name, item.sq, homomorphism=item.hom))
        sphere = (bundle.complex, bundle.involution, bundle.colouring)
        for seed in (0, 7):
            report, _ = verify_bundle(bundle, seed=seed, n_walks=100)
            assert report.entry("walk-parity").ok, (name, seed)
            assert walk_parity_is_its_recount(report, *sphere, n_walks=100, seed=seed), (name, seed)


def test_walk_parity_fails_on_inconsistent_walks(corpus):
    # One flipped vertex breaks colouring-antisymmetric, so the walk lemma
    # does not apply: each walk is solved on the full quotient, and some are
    # inconsistent.  Flipping an antipodal pair keeps the colouring
    # antisymmetric, and the lemma passes every walk.  Both verdicts are the
    # recount's.
    for name in ("cylinder-3", "tower-4", "schrijver-6-2"):
        sq = corpus[name].sq
        v = min(sq.involution.vertex_pairing)
        for flipped in ((v,), (v, sq.involution.vertex_pairing[v])):
            colouring = _flip(sq.colouring, flipped)
            report, _ = verify_sphere_quadrangulation(
                sq.complex, sq.involution, colouring, labels=sq.labels, expected_graph=sq.graph, n_walks=100, seed=0
            )
            entry = report.entry("walk-parity")
            antisymmetric = len(flipped) == 2
            assert report.entry("colouring-antisymmetric").ok == antisymmetric, (name, flipped)
            assert entry.ok == antisymmetric and entry.info == {"sampled": 100}, (name, flipped)
            assert walk_parity_is_its_recount(
                report, sq.complex, sq.involution, colouring, n_walks=100, seed=0
            ), (name, flipped)


def test_walk_parity_without_the_sphere_is_solved_on_the_quotient():
    # Q3 over K4 is antisymmetrically coloured and its boundary operator
    # holds, but it is no sphere: the walk lemma does not apply, the walks
    # are solved on K4, whose H_1 is Z2^3, and some are inconsistent.
    complex, involution, colouring, labels = cube_over_k4()
    report, graph = verify_sphere_quadrangulation(
        complex, involution, colouring, labels=labels, expected_graph=complete_graph(4), n_walks=100, seed=0
    )
    assert graph == complete_graph(4)
    assert report.entry("colouring-antisymmetric").ok and report.entry("boundary-operator").ok
    assert report.failing() == ["sphere", "quotient-homology", "walk-parity"]
    assert {v.code for v in report.entry("sphere").violations} == {"BadCofacetCount"}
    assert report.entry("walk-parity").info == {"sampled": 100}
    assert walk_parity_is_its_recount(report, complex, involution, colouring, n_walks=100, seed=0)


def test_the_walk_lemma_on_the_zero_sphere_samples_no_walk():
    # S^0: each point is a monochromatic maximal cell, so colouring-proper
    # fails, and the quotient, one point, has no 1-cell to walk on. With or
    # without the lemma's `dim >= 1` gate, no walk is sampled.
    builder = ComplexBuilder()
    for _ in range(2):
        builder.add_vertex()
    colouring = TwoColouring(black=frozenset({0}), white=frozenset({1}))
    report, graph = verify_sphere_quadrangulation(
        builder.build(), Involution("full", {0: 1, 1: 0}), colouring,
        labels={0: 0, 1: 0}, expected_graph=Graph([0]), n_walks=5, seed=0,
    )
    assert graph == Graph([0])
    assert report.entry("sphere").ok and not report.entry("colouring-proper").ok
    walk = report.entry("walk-parity")
    assert not walk.ok and walk.info == {"sampled": 0}


def test_quotient_parity_without_antisymmetry_is_the_parity_check(corpus):
    # One flipped vertex breaks colouring-antisymmetric, so `quotient-parity`
    # is no lemma: the entry is `parity_audit` on the projected quotient.
    sq = corpus["cylinder-3"].sq
    failed = 0
    for v in sorted(sq.labels)[:6]:
        colouring = _flip(sq.colouring, (v,))
        report, _ = verify_sphere_quadrangulation(
            sq.complex, sq.involution, colouring, labels=sq.labels, expected_graph=sq.graph
        )
        q, _, selected = projected_quotient(sq.complex, sq.involution, colouring)
        entry, expected = report.entry("quotient-parity"), parity_audit(q, selected)
        assert not report.entry("colouring-antisymmetric").ok, v
        assert (entry.ok, entry.violations) == (expected.ok, expected.violations), v
        failed += not entry.ok
    assert failed


def _quadrangulation_entries_match_the_check(report, complex, involution, colouring) -> list[str]:
    """Each quadrangulation entry in the report equals `quadrangulation_check`
    on the complex it judges and that complex's selected 1-cells, the
    quotient's as `projected_quotient` gives them; returns the names of the
    entries compared."""

    def on_the_quotient():
        q, _, selected = projected_quotient(complex, involution, colouring)
        return quadrangulation_check(q, selected)

    checks = {
        "quadrangulation": lambda: quadrangulation_check(complex, bichromatic_edge_cells(complex, colouring)),
        "quotient-quadrangulation": on_the_quotient,
    }
    compared = []
    for name, check in checks.items():
        entry = report.entry(name)
        if entry is not None:
            expected = check()
            assert (entry.ok, entry.violations) == (expected.ok, expected.violations), name
            compared.append(name)
    return compared


def _flip(colouring: TwoColouring, vertices) -> TwoColouring:
    flipped = set(vertices)
    return TwoColouring(black=colouring.black ^ flipped, white=colouring.white ^ flipped)


def _built_balls(monkeypatch) -> list:
    """The 18 balls that the corpus builds glue, recorded as their
    constructors make them."""
    balls = []
    made = constructions.BallQuad

    def recording(*args):
        balls.append(made(*args))
        return balls[-1]

    monkeypatch.setattr(constructions, "BallQuad", recording)
    for build in BUILDS.values():
        _run_build(build)
    assert len(balls) == 18
    return balls


def test_quadrangulation_lemmas_agree_with_the_check(corpus, monkeypatch):
    # `quadrangulation` is a lemma of colouring-proper, and
    # `quotient-quadrangulation` one when colouring-antisymmetric passes;
    # each must report exactly what the cell-by-cell check finds.
    for name, item in corpus.items():
        sq = item.sq
        compared = _quadrangulation_entries_match_the_check(sq.report, sq.complex, sq.involution, sq.colouring)
        assert compared == ["quadrangulation", "quotient-quadrangulation"], name

    balls = _built_balls(monkeypatch)
    for ball in balls:
        # A build checks only what doubling reads; the library ball audit
        # holds the lemma.
        report, _ = verify_ball_quadrangulation(
            ball.complex, ball.involution, ball.colouring, labels=ball.labels, expected_graph=ball.graph
        )
        assert report.ok
        assert _quadrangulation_entries_match_the_check(report, ball.complex, ball.involution, ball.colouring) == [
            "quadrangulation"
        ]

    # Colour mutants: flipping both vertices of an antipodal pair keeps the
    # colouring antisymmetric and makes monochromatic cells; flipping one
    # vertex breaks antisymmetry, so the quotient entry is the check itself.
    seen = {"mono": 0, "lemma": 0, "fallback": 0}
    for name in ("odd-cycle-2", "cylinder-3", "tower-4", "schrijver-6-2"):
        sq = corpus[name].sq
        rng = random.Random(name)
        pairs = sorted((v, w) for v, w in sq.involution.vertex_pairing.items() if v < w)
        flips = [rng.choice(pairs) for _ in range(3)] + [(v,) for v in rng.sample(sorted(sq.labels), 3)]
        for flip in flips:
            colouring = _flip(sq.colouring, flip)
            report, _ = verify_sphere_quadrangulation(
                sq.complex, sq.involution, colouring, labels=sq.labels, expected_graph=sq.graph
            )
            compared = _quadrangulation_entries_match_the_check(report, sq.complex, sq.involution, colouring)
            assert "quadrangulation" in compared, (name, flip)
            seen["mono"] += not report.entry("quadrangulation").ok
            if "quotient-quadrangulation" in compared:
                seen["lemma" if len(flip) == 2 else "fallback"] += not report.entry("quotient-quadrangulation").ok
    assert all(seen.values()), seen


def _entries_match_their_checks(report, fresh, involution, colouring, labels, graph) -> list[str]:
    """Each of `complex-valid`, `antipodal-free` and `box-map` in the report
    equals the check it stands for: `Complex.validate` on `fresh` (a new
    parse of the audited complex), `antipodal_free_cells` and
    `verify_z2_map_to_box`; returns the names of the entries compared."""
    checks = {
        "complex-valid": lambda: fresh.validate(),
        "antipodal-free": lambda: antipodal_free_cells(fresh, involution),
        "box-map": lambda: verify_z2_map_to_box(fresh, colouring, graph, labels),
    }
    compared = []
    for name, check in checks.items():
        entry = report.entry(name)
        if entry is not None:
            expected = check()
            assert (entry.ok, entry.violations) == (expected.ok, expected.violations), name
            compared.append(name)
    return compared


def _pairs_of(mapping: dict) -> list[tuple[int, int]]:
    return sorted((a, b) for a, b in mapping.items() if a < b)


def _swap_partners(pairs: list, rng: random.Random) -> None:
    """Re-pair two random pairs [a, b], [c, d] of a JSON pair list as
    [a, d], [c, b], in place."""
    (a, b), (c, d) = rng.sample(pairs, 2)
    pairs[:] = [p for p in pairs if p not in ([a, b], [c, d])] + [[a, d], [c, b]]


def _mutant(kind: str, sq: SphereQuad, rng: random.Random) -> tuple[dict, dict, TwoColouring]:
    """The complex JSON, involution JSON and colouring of `sq` after one
    seeded change of the given kind."""
    cx, inv, colouring = complex_to_json(sq.complex), sq.involution.to_json(), sq.colouring
    vp = sq.involution.vertex_pairing
    cells = [c for c in cx["cells"] if c["dim"] >= 1]
    if kind == "pair flip":
        colouring = _flip(colouring, rng.choice(_pairs_of(vp)))
    elif kind == "single flip":
        colouring = _flip(colouring, (rng.choice(sorted(vp)),))
    elif kind == "cell vertex":  # a vertex moved, often onto the antipode of another one
        cell = rng.choice(cells)
        k, m = rng.sample(range(len(cell["vertices"])), 2)
        antipode = vp[cell["vertices"][m]]
        cell["vertices"][k] = antipode if rng.random() < 0.5 else rng.randrange(sq.complex.n_vertices)
        if rng.random() < 0.5:
            cell["vertices"].sort()
    elif kind == "cell facet":
        cell = rng.choice(cells)
        cell["facets"][rng.randrange(len(cell["facets"]))] = rng.randrange(sq.complex.n_cells(cell["dim"] - 1))
    elif kind == "vertex pair swap":
        _swap_partners(inv["vertex_pairs"], rng)
    elif kind == "cell pair swap":
        dims = sorted(d for d, pairs in inv["cell_pairs"].items() if len(pairs) > 1)
        _swap_partners(inv["cell_pairs"][rng.choice(dims)], rng)
    elif kind == "edge onto a pair":
        v = rng.randrange(sq.complex.n_vertices)
        rng.choice([c for c in cells if c["dim"] == 1])["vertices"] = sorted((v, vp[v]))
    elif kind == "repeated facet":  # the set-wise facet image check still passes
        d = rng.randrange(1, sq.complex.dim + 1)
        _, upper = rng.choice(inv["cell_pairs"][str(d)])
        cell = next(c for c in cells if (c["dim"], c["id"]) == (d, upper))
        cell["facets"].append(rng.choice(cell["facets"]))
    return cx, inv, colouring


MUTANT_KINDS = (
    "pair flip",
    "single flip",
    "cell vertex",
    "cell facet",
    "vertex pair swap",
    "cell pair swap",
    "edge onto a pair",
    "repeated facet",
)


def _suspended_digon():
    """The suspension of the digon, with its antipodal map: two parallel
    edges on an antipodal pair 0, 1, and the poles 2, 3.  Both pairs are
    coloured alike at 0, 1, so the bichromatic triangles (on pole 2) hold a
    monochromatic antipodal pair while no bichromatic edge joins a pair."""
    b = ComplexBuilder()
    for lab in ("a0", "a1", "n", "s"):
        b.add_vertex(lab)
    for vertices in ((0, 1), (0, 1), (0, 2), (1, 2), (0, 3), (1, 3)):
        b.add_cell(1, vertices, vertices)
    for facets, pole in (((0, 2, 3), 2), ((1, 2, 3), 2), ((0, 4, 5), 3), ((1, 4, 5), 3)):
        b.add_cell(2, (0, 1, pole), facets)
    cell_pairing = {1: {0: 1, 1: 0, 2: 5, 5: 2, 3: 4, 4: 3}, 2: {0: 3, 3: 0, 1: 2, 2: 1}}
    involution = Involution("full", {0: 1, 1: 0, 2: 3, 3: 2}, cell_pairing)
    colouring = TwoColouring(black=frozenset({0, 1, 3}), white=frozenset({2}))
    return b.build(), involution, colouring, {0: "a", 1: "a", 2: "p", 3: "p"}


def test_three_audit_lemmas_agree_with_their_checks(corpus, monkeypatch):
    # `complex-valid` is judged on one cell per antipodal pair, `antipodal-free`
    # on the 1-cells, and `box-map` on the monochromatic maximal cells; each
    # must report exactly what its full check finds.
    for name, item in corpus.items():
        sq = item.sq
        judged = complex_from_json(complex_to_json(sq.complex))
        judged._validate_by_pairs(sq.involution.pairing)
        assert judged._report == ValidationReport(), name  # made from one cell per pair
        parsed = complex_from_json(complex_to_json(sq.complex))
        report, graph = verify_sphere_quadrangulation(
            parsed, sq.involution, sq.colouring, labels=sq.labels, expected_graph=sq.graph
        )
        fresh = complex_from_json(complex_to_json(sq.complex))
        compared = _entries_match_their_checks(report, fresh, sq.involution, sq.colouring, sq.labels, graph)
        assert compared == ["complex-valid", "antipodal-free", "box-map"], name

    balls = _built_balls(monkeypatch)
    ball_failures = 0
    for k, ball in enumerate(balls):
        involution = ball.involution
        rng = random.Random(k)
        swapped = dict(involution.vertex_pairing)
        (a, b), (c, d) = rng.sample(_pairs_of(swapped), 2)
        swapped.update({a: d, d: a, c: b, b: c})
        for vertex_pairing in (involution.vertex_pairing, swapped):
            paired = Involution("boundary", vertex_pairing, involution.cell_pairing)
            report, _ = verify_ball_quadrangulation(
                ball.complex, paired, ball.colouring, labels=ball.labels, expected_graph=ball.graph
            )
            entry, expected = report.entry("antipodal-free"), antipodal_free_cells(ball.complex, paired)
            assert (entry.ok, entry.violations) == (expected.ok, expected.violations), k
            ball_failures += not entry.ok
    assert ball_failures

    complex, involution, colouring, labels = _suspended_digon()
    report, graph = verify_sphere_quadrangulation(
        complex, involution, colouring, labels=labels, expected_graph=Graph(["a", "p"], [("a", "p")])
    )
    assert not report.entry("antipodal-free").ok and not report.entry("box-map").ok
    assert _entries_match_their_checks(report, complex, involution, colouring, labels, graph)[-1] == "box-map"

    seen = {(name, ok): 0 for name in ("complex-valid", "antipodal-free", "box-map") for ok in (True, False)}
    for name in ("odd-cycle-2", "cylinder-3", "tower-4", "schrijver-6-2"):
        sq = corpus[name].sq
        rng = random.Random(name)
        for kind in MUTANT_KINDS * 3:
            cx, inv, colouring = _mutant(kind, sq, rng)
            involution = Involution.from_json(inv)
            report, graph = verify_sphere_quadrangulation(
                complex_from_json(cx), involution, colouring, labels=sq.labels, expected_graph=sq.graph
            )
            fresh = complex_from_json(cx)
            assert quotient_lemmas_hold(report, sq.labels, graph, fresh, involution, colouring), (name, kind)
            compared = _entries_match_their_checks(report, fresh, involution, colouring, sq.labels, graph)
            for entry in compared:
                seen[entry, report.entry(entry).ok] += 1
    assert all(seen.values()), seen


def test_homology_ranks_match_numpy_oracle(corpus):
    for name in ("cylinder-3", "tower-4", "tower-5", "schrijver-6-2", "schrijver-7-2"):
        for cx in (corpus[name].sq.complex, corpus[name].sq.quotient):
            calc = HomologyCalculator(cx)
            for p in range(cx.dim + 2):
                expected = 0
                if 1 <= p <= cx.dim:
                    # d_p written out densely from the facet lists, p-cells as rows
                    dense = np.zeros((cx.n_cells(p), cx.n_cells(p - 1)), dtype=np.uint8)
                    for i, cell in enumerate(cx.cells_of(p)):
                        for f in cell.facets:
                            dense[i, f] ^= 1
                    expected = _numpy_rank_gf2(dense)
                assert calc.rank(p) == expected, (name, cx.dim, p)


def test_cleared_ranks_equal_plain_ranks_on_the_corpus(corpus):
    for name, item in corpus.items():
        for cx in (item.sq.complex, item.sq.quotient):
            calc = HomologyCalculator(cx)
            for p in range(1, cx.dim + 1):
                assert calc.rank(p) == rank_gf2(facet_rows(cx, p)), (name, cx.dim, p)


def test_boundary_witnesses_bound_their_walks(corpus):
    witnessed = 0
    for name, item in corpus.items():
        sq = item.sq
        calc = HomologyCalculator(sq.quotient)
        for walk in sample_closed_walks(sq.quotient, sq.selected, 100, seed=0):
            mask = 0
            for e in walk:
                mask ^= 1 << e
            witness = calc.is_boundary(1, mask)
            if witness is not None:
                assert boundary_of(sq.quotient, 2, witness) == mask, f"{name}: walk {walk}"
                witnessed += 1
    assert witnessed
    print(f"{witnessed} boundary witnesses checked")


def test_criterion_7_fineness(corpus):
    fine = fineness_check(corpus["odd-cycle-2"].sq.complex, corpus["odd-cycle-2"].sq.colouring)
    assert fine["fine"] is True
    assert abs(fine["max_bichromatic_edge_length"] - 2 * sin(pi / 10)) < 1e-9
    assert abs(fine["threshold"] - 1.0) < 1e-9
    coarse = fineness_check(corpus["cylinder-3"].sq.complex, corpus["cylinder-3"].sq.colouring)
    assert coarse["fine"] is False
    assert coarse["max_bichromatic_edge_length"] > coarse["threshold"]
    print(
        "fineness: odd cycle "
        f"{fine['max_bichromatic_edge_length']:.3f} < {fine['threshold']:.3f}, "
        f"doubled cylinder {coarse['max_bichromatic_edge_length']:.3f} > {coarse['threshold']:.3f}"
    )


def test_bundle_files_are_the_json_module_text(tmp_path_factory, corpus):
    # Every bundle file is, byte for byte, the text of json's own indented
    # encoder, whichever Python wrote it.
    base = tmp_path_factory.mktemp("json-text")
    for name, item in corpus.items():
        bundle = write_bundle(base / name, item.sq, homomorphism=item.hom)
        for path in sorted(bundle.iterdir()):
            text = path.read_text(encoding="utf-8")
            assert text == json.dumps(json.loads(text), sort_keys=True, indent=1) + "\n", f"{name}/{path.name}"


def test_corpus_bundles_are_the_reference_bytes(tmp_path_factory, corpus):
    # The benchmark's reference pins the sha256 of every bundle file but
    # report.json, and the audit entry names and verdicts of report.json.
    # Every corpus sphere, a doubled ball or not, must write exactly those.
    reference = json.loads((Path(__file__).parents[1] / "perfbench" / "reference.json").read_text(encoding="utf-8"))
    assert sorted(reference["bundles"]) == sorted(corpus)
    base = tmp_path_factory.mktemp("reference-bytes")
    for name, item in corpus.items():
        expected = reference["bundles"][name]
        bundle = write_bundle(base / name, item.sq, homomorphism=item.hom)
        assert sorted(p.name for p in bundle.iterdir()) == sorted([*expected["files"], "report.json"]), name
        for fname, digest in expected["files"].items():
            assert hashlib.sha256((bundle / fname).read_bytes()).hexdigest() == digest, f"{name}/{fname}"
        report = json.loads((bundle / "report.json").read_text(encoding="utf-8"))
        assert [[e["name"], e["ok"]] for e in report] == expected["report"], name


def test_complex_json_is_the_reference_text_on_the_corpus(corpus):
    for name, item in corpus.items():
        assert dump_complex(item.sq.complex) == dump_canonical(complex_to_json(item.sq.complex)), name


@pytest.mark.parametrize("name", ["tower-5", "cylinder-5", "schrijver-9-3"])
def test_write_bundle_peaks_at_most_three_times_its_complex_json(tmp_path, corpus, name):
    # The writer makes complex.json one piece per cell layer and writes the
    # pieces with no joined copy, so its traced peak above the live sphere is
    # about twice the file.  3x leaves room for that, and fails a writer that
    # also holds the joined text or its bytes (near five times the file).
    item = corpus[name]
    tracemalloc.start()
    try:
        write_bundle(tmp_path / name, item.sq, homomorphism=item.hom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = (tmp_path / name / "complex.json").stat().st_size
    assert peak <= 3 * size, f"{name}: peak {peak} B for a {size} B complex.json"


def test_builders_hand_over_the_report_a_full_validation_gives(monkeypatch):
    # Every ball of the corpus comes from ComplexBuilder.build, as do the
    # odd-cycle spheres, and every other sphere from symmetry.double; the
    # report each carries into its gluing or its audit must be the one a
    # fresh Complex over the same cells gets from validate().
    handed: dict[str, list] = {"double": [], "_finish_sphere": []}
    for step, seen in handed.items():
        original = getattr(constructions, step)

        def recording(complex, *args, original=original, seen=seen, **kwargs):
            seen.append((complex, complex._report))
            return original(complex, *args, **kwargs)

        monkeypatch.setattr(constructions, step, recording)
    for build in BUILDS.values():
        _run_build(build)
    balls, spheres = handed["double"], handed["_finish_sphere"]
    assert len(balls) == 18
    for complex, report in balls + spheres:
        cells = [complex.cells_of(d) for d in range(complex.dim + 1)]
        assert report is not None and report == Complex(cells, complex.labels).validate()


def test_the_lift_finds_each_star_a_scan_finds(monkeypatch):
    # Every round of every corpus lift, and of the r = 3 lifts of c5 and
    # tower-4 (two rounds each, the second reading cones of the first),
    # and the inner core under the last cone, must find through the star
    # index the cells a scan of every cell finds.
    rounds: list[int] = []
    star = ComplexBuilder.star

    def scanned(builder, v, within):
        found = star(builder, v, within)
        assert sorted(found) == _star_by_scan(builder, v, within)
        rounds.append(builder.n_vertices)
        return found

    monkeypatch.setattr(ComplexBuilder, "star", scanned)
    for name, build in BUILDS.items():
        if name.startswith(("tower", "schrijver")):
            _run_build(build)
    spheres = odd_cycle_sphere(2), mycielski_tower(4)
    lifted = len(rounds)
    assert lifted > 0
    for sq in spheres:
        mycielski_lift(sq, 3)
    # Two rounds over each graph's vertices, then one star for each of the
    # core's 2 * |order| vertices.
    assert len(rounds) - lifted == 4 * (5 + 11)


# `chi` of the tower-4 suspension, whose labels are tuples, "z" and
# "pole-0": the text json writes for this object is its reference stdout.
TOWER_4_SUSPEND_CHI = {
    "chi": 5,
    "clique": ["pole-0", "z", [0, 1]],
    "colouring": [
        ["pole-0", 0], ["z", 1], [[0, 1], 2], [[0, 2], 2], [[1, 1], 3], [[1, 2], 1],
        [[2, 1], 2], [[2, 2], 2], [[3, 1], 3], [[3, 2], 3], [[4, 1], 4], [[4, 2], 1],
    ],
    "exhausted": False,
    "nodes": 0,
    "proof": "topological",
}


def test_builds_beyond_the_corpus_are_their_reference_bytes(tmp_path, capsys):
    # Second lift rounds and suspension cones occur in no corpus build, and
    # the Schrijver builds beyond the corpus write label-heavy graph and
    # homomorphism files; these builds pin the sha256 of every file they
    # write, and the suspension pins its `chi` stdout.
    reference = json.loads((Path(__file__).parent / "pinned_builds.json").read_text(encoding="utf-8"))
    c5, tower4 = str(tmp_path / "c5"), str(tmp_path / "tower-4")
    builds = {
        "c5": ["odd-cycle", "--k", "2"],
        "tower-4": ["mycielski-lift", "--src", c5, "--r", "2"],
        "c5-lift-3": ["mycielski-lift", "--src", c5, "--r", "3"],
        "tower-4-lift-3": ["mycielski-lift", "--src", tower4, "--r", "3"],
        "tower-4-suspend": ["suspend", "--src", tower4],
        "complete-6-4": ["complete", "--t", "6", "--n", "4"],
        "complete-7-3": ["complete", "--t", "7", "--n", "3"],
        "cylinder-1": ["cylinder", "--r", "1"],
        "schrijver-7-3": ["schrijver", "--n", "7", "--k", "3"],
        "schrijver-10-4": ["schrijver", "--n", "10", "--k", "4"],
    }
    assert sorted(reference) == sorted(builds.keys() - {"c5", "tower-4"})
    for name, argv in builds.items():
        assert main(["build", *argv, "--out", str(tmp_path / name)]) == 0, name
        capsys.readouterr()
        if name in reference:
            written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (tmp_path / name).iterdir()}
            assert written == reference[name], name
    assert main(["chi", str(tmp_path / "tower-4-suspend")]) == 0
    assert capsys.readouterr().out == json.dumps(TOWER_4_SUSPEND_CHI, sort_keys=True, indent=1) + "\n"


def test_criterion_8_deterministic_outputs(tmp_path_factory, corpus):
    base = tmp_path_factory.mktemp("repeat")

    # every corpus bundle, rebuilt from scratch, must serialize byte-for-byte
    # identically to the first build
    checked_hom = False
    for name, build in BUILDS.items():
        first = write_bundle(base / f"{name}-a", corpus[name].sq, homomorphism=corpus[name].hom)
        sq, hom = _run_build(build)
        second = write_bundle(base / f"{name}-b", sq, homomorphism=hom)
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        checked_hom |= "homomorphism.json" in names
        for fname in names:
            a = (first / fname).read_bytes()
            b = (second / fname).read_bytes()
            assert a == b, f"{name}/{fname} differs between repeat builds"
    assert checked_hom
    print(f"{len(BUILDS)} repeat builds byte-identical")
