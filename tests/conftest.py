import pytest

from projquad import (
    Cell,
    Complex,
    ComplexBuilder,
    Graph,
    HomologyCalculator,
    Involution,
    SimplicialBuilder,
    TwoColouring,
    bichromatic_edge_cells,
    cycle_graph,
    cycle_parity_vs_homology,
    mycielskian,
    parity_audit,
    quotient,
    sample_closed_walks,
)
from projquad.complexes import boundary_cells
from projquad.validation import ValidationReport, Violation


def mycielski_graph(n: int) -> Graph:
    """The chromatic-number-n member of the iterated Mycielski family, for
    n >= 3: the 5-cycle, then n - 3 two-level Mycielskians of it (n = 4 is
    the Groetzsch graph).  The tower constructions are compared against it."""
    g = cycle_graph(5)
    for _ in range(n - 3):
        g = mycielskian(g, 2)
    return g


def has_triangle(graph: Graph) -> bool:
    """Whether some edge's ends have a common neighbour."""
    return any(graph.neighbors(u) & graph.neighbors(w) for u, w in graph.edges())


def _star_by_scan(builder: ComplexBuilder, vtop: int, active: set[int]) -> list[tuple[int, int]]:
    """The (dim, id) keys of the 0-cell of vtop and of every cell on vtop
    whose vertices are all active, in (dim, id) order, found by scanning
    every cell of every dimension: the oracle of `ComplexBuilder.star`."""
    star = [(0, vtop)]
    d = 1
    while builder.cells_of(d):
        for cid, c in enumerate(builder.cells_of(d)):
            if vtop in c.vertices and all(v in active for v in c.vertices):
                star.append((d, cid))
        d += 1
    return star


def validate_involution_by_pairs(complex: Complex, involution: Involution) -> ValidationReport:
    """`validate_involution` as one loop over every pair of every layer,
    with no pass over the columns first: the oracle of that pass."""
    violations: list[Violation] = []
    if involution.scope == "full":
        scope_cells = {d: set(range(complex.n_cells(d))) for d in range(complex.dim + 1)}
    else:
        scope_cells = boundary_cells(complex)
    for d in sorted(set(involution.cell_pairing) - set(range(1, complex.dim + 1))):
        violations.append(Violation("PairedOutsideScope", d, None, f"cell pairs at dimension {d}, outside 1..{complex.dim}"))
    vp = involution.pairing(0)
    for d in range(complex.dim + 1):
        pairing, lower, layer = involution.pairing(d), involution.pairing(d - 1), complex.cells_of(d)
        in_scope = scope_cells.get(d, set())
        for i in sorted(in_scope - set(pairing)):
            violations.append(Violation("UnpairedCell", d, i, "scope cell not paired"))
        for i in sorted(set(pairing) - in_scope):
            violations.append(Violation("PairedOutsideScope", d, i, "cell outside scope is paired"))
        n_cells = len(layer)
        for i, j in pairing.items():
            if i == j:
                violations.append(Violation("FixedPoint", d, i, "cell paired with itself"))
                continue
            if pairing.get(j) != i:
                violations.append(Violation("NotInvolution", d, i, f"{i} -> {j} -> {pairing.get(j)}"))
                continue
            if not (0 <= i < n_cells and 0 <= j < n_cells):
                violations.append(Violation("DanglingFacet", d, i, f"pair {i} -> {j} names a cell that does not exist"))
                continue
            if i > j:
                continue
            src, dst = layer[i], layer[j]
            try:
                image = tuple(sorted(map(vp.__getitem__, src.vertices)))
            except KeyError as exc:
                violations.append(Violation("NotSimplicial", d, i, f"vertex {exc.args[0]} of cell is unpaired"))
                continue
            if image != dst.vertices:
                violations.append(Violation("NotSimplicial", d, i, f"vertex image {image} != {dst.vertices}"))
                continue
            try:
                facet_image = sorted(map(lower.__getitem__, src.facets))
            except KeyError as exc:
                violations.append(Violation("NotSimplicial", d, i, f"facet {exc.args[0]} is unpaired"))
                continue
            if facet_image != sorted(dst.facets):
                violations.append(Violation("NotSimplicial", d, i, "facet images do not match pair's facets"))
    return ValidationReport.collect(violations)


def facet_rows(complex: Complex, p: int) -> list[int]:
    """The rows of d_p, built here rather than by the library: row i is the
    mod-2 sum of the facets of p-cell i, as a bitmask over (p-1)-cell ids."""
    rows = []
    for cell in complex.cells_of(p):
        row = 0
        for f in cell.facets:
            row ^= 1 << f
        rows.append(row)
    return rows


def numpy_rank_gf2(dense) -> int:
    """The rank over GF(2) of a 0/1 numpy matrix, by numpy row operations:
    the oracle of `rank_gf2` and of the homology ranks."""
    import numpy as np

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


@pytest.fixture
def octahedron() -> Complex:
    """Boundary of the octahedron: vertices +-e_i, antipodes (0,3), (1,4), (2,5)."""
    sb = SimplicialBuilder()
    coords = [
        (1.0, 0.0, 0.0),
        (0.0, 1.0, 0.0),
        (0.0, 0.0, 1.0),
        (-1.0, 0.0, 0.0),
        (0.0, -1.0, 0.0),
        (0.0, 0.0, -1.0),
    ]
    for i, c in enumerate(coords):
        sb.add_vertex(f"v{i}", c)
    for a in (0, 3):
        for b in (1, 4):
            for c in (2, 5):
                sb.add_simplex((a, b, c))
    return sb.build()


@pytest.fixture
def octahedron_involution(octahedron) -> Involution:
    vp = {0: 3, 3: 0, 1: 4, 4: 1, 2: 5, 5: 2}
    cp: dict[int, dict[int, int]] = {1: {}, 2: {}}
    by_vs = {
        d: {frozenset(c.vertices): i for i, c in enumerate(octahedron.cells_of(d))} for d in (1, 2)
    }
    for d in (1, 2):
        for key, i in by_vs[d].items():
            cp[d][i] = by_vs[d][frozenset(vp[v] for v in key)]
    return Involution("full", vp, cp)


@pytest.fixture
def projective_plane() -> Complex:
    """The 6-vertex triangulation of the projective plane."""
    faces = [
        (1, 2, 3),
        (1, 3, 4),
        (1, 4, 5),
        (1, 5, 6),
        (1, 6, 2),
        (2, 3, 5),
        (3, 4, 6),
        (4, 5, 2),
        (5, 6, 3),
        (6, 2, 4),
    ]
    sb = SimplicialBuilder()
    for i in range(1, 7):
        sb.add_vertex(f"p{i}")
    for f in faces:
        sb.add_simplex(tuple(v - 1 for v in f))
    return sb.build()


@pytest.fixture
def interval_ball() -> Complex:
    """A path of two edges: a 1-ball whose boundary is the two endpoints."""
    b = ComplexBuilder()
    for i in range(3):
        b.add_vertex(f"u{i}", (float(i) - 1.0,))
    b.add_cell(1, (0, 1), (0, 1))
    b.add_cell(1, (1, 2), (1, 2))
    return b.build()


@pytest.fixture
def parallel_digon() -> Complex:
    """Two parallel edges on two vertices: the minimal generalized complex."""
    b = ComplexBuilder()
    b.add_vertex("a")
    b.add_vertex("b")
    b.add_cell(1, (0, 1), (0, 1))
    b.add_cell(1, (0, 1), (0, 1))
    return b.build()


@pytest.fixture
def digon_sphere_bits(parallel_digon):
    inv = Involution("full", {0: 1, 1: 0}, {1: {0: 1, 1: 0}})
    col = TwoColouring(black=frozenset({0}), white=frozenset({1}))
    return parallel_digon, inv, col


def two_disjoint_copies(complex, involution, colouring):
    """Two disjoint copies of a symmetric coloured complex: in each
    dimension the second copy's ids follow the first's, its vertices are
    unlabelled, and the involution and the colouring act on it as on the
    first.  On two copies of a passing sphere every entry before `sphere`
    passes, and `sphere` fails on b_0 = 2, so no quotient lemma holds."""
    shift = [complex.n_cells(d) for d in range(complex.dim + 1)]
    layers = []
    for d in range(complex.dim + 1):
        cells = complex.cells_of(d)
        below = shift[d - 1] if d else 0
        copies = [Cell(tuple(v + shift[0] for v in c.vertices), tuple(f + below for f in c.facets)) for c in cells]
        layers.append([*cells, *copies])
    twice = Complex(layers, [*complex.labels, *[None] * shift[0]])

    def doubled(pairing, n):
        return {**pairing, **{i + n: j + n for i, j in pairing.items()}}

    cell_pairing = {d: doubled(pairs, shift[d]) for d, pairs in involution.cell_pairing.items()}
    pair = Involution("full", doubled(involution.vertex_pairing, shift[0]), cell_pairing)
    black = colouring.black | {v + shift[0] for v in colouring.black}
    white = colouring.white | {v + shift[0] for v in colouring.white}
    return twice, pair, TwoColouring(black=frozenset(black), white=frozenset(white))


def cube_over_k4():
    """The cube graph Q3 as a 1-dimensional complex: the ids 0..7, an edge
    between ids at Hamming distance 1, the involution v -> v ^ 7, the
    even-weight ids black, and the orbit of v labelled min(v, v ^ 7).  It is
    a double cover of K4 with extra H_1 (b_1 = 5): every entry up to
    `colouring-antisymmetric` passes, and so does `boundary-operator`, while
    `sphere` and `quotient-homology` fail.  Returns the complex, the
    involution, the colouring and the labels."""
    sb = SimplicialBuilder()
    for _ in range(8):
        sb.add_vertex()
    for v in range(8):
        for bit in (1, 2, 4):
            if v < v ^ bit:
                sb.add_simplex((v, v ^ bit))
    complex = sb.build()
    flip = {v: v ^ 7 for v in range(8)}
    edges = {i: sb.id_of(flip[v] for v in complex.cell(1, i).vertices) for i in range(complex.n_cells(1))}
    even = frozenset(v for v in range(8) if bin(v).count("1") % 2 == 0)
    colouring = TwoColouring(black=even, white=frozenset(range(8)) - even)
    return complex, Involution("full", flip, {1: edges}), colouring, {v: min(v, v ^ 7) for v in range(8)}


def projected_quotient(complex, involution, colouring):
    """The quotient, the projection and the selected quotient 1-cells, as
    `quotient` projects them: the audit returns only the identified graph,
    so the oracles below project the quotient themselves."""
    q, projection = quotient(complex, involution)
    return q, projection, frozenset(projection[1][e] for e in bichromatic_edge_cells(complex, colouring))


def quotient_spans_the_identified_graph(labels, graph, q, projection, selected) -> bool:
    """The comparison that `identification-commutes` replaced: the graph of
    the selected quotient 1-cells, each quotient vertex labelled as its
    orbit's smaller member, is the identified graph."""
    spanned = Graph(range(q.n_vertices), [q.cell(1, e).vertices for e in selected])
    label_of = {}
    for v in sorted(projection[0]):
        label_of.setdefault(projection[0][v], labels[v])
    return spanned.relabel(label_of) == graph


def parity_lemma_holds(report, complex, colouring) -> bool:
    """The check that the `parity` lemma replaced: wherever the audit
    reached `parity`, the entry passes and so does `parity_audit` on the
    bichromatic 1-cells; true when the audit stopped before the entry."""
    entry = report.entry("parity")
    return entry is None or (entry.ok and parity_audit(complex, bichromatic_edge_cells(complex, colouring)).ok)


def quotient_lemmas_hold(report, labels, graph, complex, involution, colouring) -> bool:
    """Each quotient lemma against the check it replaces, on the quotient
    that `projected_quotient` gives, for the audited labels and the graph
    the audit returned: a passing `quotient-valid` comes with a
    quotient that `Complex.validate` accepts, a passing `quotient-homology`
    with a quotient whose mod-2 Betti numbers are all 1, a passing
    `identification-commutes` with selected quotient 1-cells that span the
    identified graph, and a passing `quotient-parity` with selected quotient
    1-cells that `parity_audit` accepts."""
    passing = {e.name for e in report.entries if e.ok}
    if "quotient-valid" not in passing:  # every quotient entry follows it
        return not passing & {"quotient-homology", "identification-commutes", "quotient-parity"}
    q, projection, selected = projected_quotient(complex, involution, colouring)
    checks = {
        "quotient-valid": lambda: q.validate().ok,
        "quotient-homology": lambda: HomologyCalculator(q).all_betti() == (1,) * (complex.dim + 1),
        "identification-commutes": lambda: quotient_spans_the_identified_graph(labels, graph, q, projection, selected),
        "quotient-parity": lambda: parity_audit(q, selected).ok,
    }
    return all(check() for name, check in checks.items() if name in passing)


def walk_parity_is_its_recount(report, complex, involution, colouring, *, n_walks: int, seed: int) -> bool:
    """A `walk-parity` entry against a recount over the same walks: those
    `sample_closed_walks` draws with the same seed on the quotient that
    `projected_quotient` gives, each judged in full by
    `cycle_parity_vs_homology`.  The verdict, the detail and `sampled` must
    be the recount's; true when the audit stopped before the entry."""
    entry = report.entry("walk-parity")
    if entry is None:
        return True
    q, _, selected = projected_quotient(complex, involution, colouring)
    walks = sample_closed_walks(q, selected, n_walks, seed=seed)
    calc = HomologyCalculator(q)
    judged = [cycle_parity_vs_homology(q, walk, selected, calculator=calc) for walk in walks]
    bad = sum(not (res["consistent"] and res["selected"]) for res in judged)
    ok = bad == 0 and len(walks) == n_walks
    detail = f"{bad} inconsistent walks of {len(walks)} sampled"
    violations = () if ok else (Violation("walk-parity", detail=detail),)
    return (entry.ok, entry.violations, entry.info) == (ok, violations, {"sampled": len(walks)})
