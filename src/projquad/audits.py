"""Structural audits: spheres, balls, quadrangulation laws, parity, box maps."""

from __future__ import annotations

import random
from functools import cache
from math import sqrt
from typing import Iterable, Optional, Sequence

from .complexes import Complex, boundary_cells, face_closure
from .errors import LoopCreated, MissingCoordinates, NotAClosedWalk, NotOnUnitSphere
from .graphs import Graph, box_membership
from .homology import HomologyCalculator
from .symmetry import (
    Involution,
    TwoColouring,
    _NOT_TOTAL,
    _project,
    _quotient_refusal,
    antipodal_free_cells,
    antisymmetric_on_pairs,
    associated_graph,
    bichromatic_edge_cells,
    identify_antipodes,
    proper_on_maximal,
    sum_left_to_right,
    validate_involution,
)
from .validation import AuditCollector, AuditReport, ValidationReport, Violation

UNIT_TOL = 1e-9
_GRAPH_DIFFERS = "identified graph differs from the expected labelled graph"


# ---- homology-flavoured structural checks ----

def boundary_operator_audit(calc: HomologyCalculator) -> ValidationReport:
    """The composite of consecutive boundary operators of `calc.complex`
    vanishes mod 2; the verdicts are those the calculator's one reduction
    computed for its clearing guard."""
    violations = []
    for p in range(2, calc.complex.dim + 1):
        if not calc.squares_to_zero(p):
            violations.append(Violation("BoundaryNotSquareZero", p, None, f"d_{p-1} o d_{p} != 0"))
    return ValidationReport.collect(violations)


def _pseudomanifold_violations(complex: Complex, ridge_cofacets: tuple[int, ...]) -> list[Violation]:
    """Pure, and every ridge in a number of top cells from `ridge_cofacets`."""
    n = complex.dim
    violations = [
        Violation("NotPure", d, i, f"maximal cell of dimension {d} < {n}")
        for d, i in complex.maximal_cells()
        if d != n
    ]
    if n >= 1:
        expected = " or ".join(map(str, ridge_cofacets))
        for i, k in enumerate(complex.cofacet_counts(n - 1)):
            if k not in ridge_cofacets:
                violations.append(Violation("BadCofacetCount", n - 1, i, f"{k} cofacets, expected {expected}"))
    return violations


def sphere_check(calc: HomologyCalculator) -> ValidationReport:
    """Pure dimension n = dim of `calc.complex`, every ridge in exactly two
    top cells, and the mod-2 homology of the n-sphere: a mod-2 homology
    sphere, not a proven PL sphere."""
    complex = calc.complex
    n = complex.dim
    violations = _pseudomanifold_violations(complex, (2,))
    if not violations:
        expected = (2,) if n == 0 else (1,) + (0,) * (n - 1) + (1,)
        got = calc.all_betti()
        if got != expected:
            violations.append(Violation("WrongHomology", None, None, f"betti {got}, expected {expected}"))
    return ValidationReport.collect(violations)


def ball_check(calc: HomologyCalculator) -> ValidationReport:
    """Pure dimension, ridges in one or two top cells, contractible homology
    of `calc.complex`, and a boundary subcomplex that passes the sphere check
    one dimension down."""
    complex = calc.complex
    n = complex.dim
    violations = _pseudomanifold_violations(complex, (1, 2))
    if violations:
        return ValidationReport.collect(violations)
    got = calc.all_betti()
    if got != (1,) + (0,) * n:
        violations.append(Violation("WrongHomology", None, None, f"betti {got}, expected {(1,) + (0,) * n}"))
    if n >= 1:
        bcells = boundary_cells(complex)
        if not bcells.get(n - 1):
            violations.append(Violation("NoBoundary", None, None, "no free ridges; this is a closed complex"))
        else:
            sub, _ = complex.subcomplex(bcells)
            for v in sphere_check(HomologyCalculator(sub)).violations:
                violations.append(Violation("BoundaryNotSphere", v.cell_dim, v.cell_id, f"{v.code}: {v.detail}"))
    return ValidationReport.collect(violations)


# ---- quadrangulation laws ----

def _complete_bipartite_reason(vertices: Sequence[int], pairs: set[tuple[int, int]]) -> Optional[str]:
    """None when the pair set makes the vertex set a complete bipartite graph
    with at least one edge; otherwise a human-readable reason."""
    if not pairs:
        return "no selected edges"
    adj: dict[int, set[int]] = {v: set() for v in vertices}
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    start = min(v for v in vertices if adj[v])
    side = {start: 0}
    queue = [start]
    while queue:
        u = queue.pop()
        for w in adj[u]:
            if w not in side:
                side[w] = side[u] ^ 1
                queue.append(w)
            elif side[w] == side[u]:
                return "selected edges are not bipartite"
    if len(side) != len(vertices):
        missing = sorted(set(vertices) - set(side))
        return f"vertices {missing} not reached by selected edges"
    a = sum(1 for s in side.values() if s == 0)
    if len(pairs) != a * (len(vertices) - a):
        return f"{len(pairs)} selected pairs, complete bipartite needs {a * (len(vertices) - a)}"
    return None


def quadrangulation_check(complex: Complex, edge_cells: frozenset[int]) -> ValidationReport:
    """Every maximal cell must span a complete bipartite selected subgraph
    with at least one edge.

    The selection is a set of 1-cell ids, judged on each maximal cell's own
    1-faces: a quotient can carry two parallel 1-cells on one vertex pair
    with only one of them selected, so a vertex pair cannot stand for a cell.
    """
    violations = []
    cell = complex.cell
    for d, i in complex.maximal_cells():
        one_faces = face_closure(complex, [(d, i)]).get(1, ())
        pairs = {cell(1, e).vertices for e in one_faces if e in edge_cells}
        reason = _complete_bipartite_reason(cell(d, i).vertices, pairs)
        if reason == "no selected edges":
            violations.append(Violation("NoEdge", d, i, reason))
        elif reason is not None:
            violations.append(Violation("NotCompleteBipartite", d, i, reason))
    return ValidationReport.collect(violations)


def parity_audit(complex: Complex, edge_cells: frozenset[int]) -> ValidationReport:
    """Each 2-cell must contain an even number of selected 1-cells (0 or 2).

    The selection is a set of 1-cell ids, judged on each 2-cell's own facets,
    since parallel 1-cells in a quotient share a vertex pair.
    """
    violations = []
    for i, facets in enumerate(complex.facets_of(2) if complex.dim >= 2 else ()):
        k = sum(1 for f in facets if f in edge_cells)
        if k % 2:
            violations.append(Violation("OddSelection", 2, i, f"{k} of 3 edges selected"))
    return ValidationReport.collect(violations)


# ---- closed walks against homology ----

def _closed_walk_ok(endpoint_pairs: Sequence[tuple[int, int]]) -> bool:
    first = endpoint_pairs[0]
    states = {(first[0], first[1]), (first[1], first[0])}
    for a, b in endpoint_pairs[1:]:
        nxt = set()
        for start, cur in states:
            if cur == a:
                nxt.add((start, b))
            if cur == b:
                nxt.add((start, a))
        states = nxt
        if not states:
            return False
    return any(start == cur for start, cur in states)


def cycle_parity_vs_homology(
    complex: Complex,
    walk_cells: Sequence[int],
    edge_cells: frozenset[int],
    *,
    calculator: Optional[HomologyCalculator] = None,
) -> dict:
    """Compare a closed walk's length parity with its mod-2 homology class.

    The walk is a sequence of 1-cell ids; consecutive cells must chain into a
    closed vertex walk (NotAClosedWalk otherwise), and their mod-2 sum must
    be a cycle (NotACycle otherwise).  Returns the parity, the homology class
    (0 when that sum bounds), whether every traversed cell is in
    `edge_cells`, and the consistency verdict: even walks must bound and odd
    walks must not.  Selection is by 1-cell id, not by vertex pair, because
    parallel 1-cells in a quotient share a pair.  The sum is a bitmask over
    1-cell ids, and the calculator's `is_boundary` judges it.
    """
    if not walk_cells:
        raise NotAClosedWalk("empty walk")
    n1 = complex.n_cells(1)
    for e in walk_cells:
        if not 0 <= e < n1:
            raise NotAClosedWalk(f"no 1-cell with id {e}")
    if not _closed_walk_ok([complex.cell(1, e).vertices for e in walk_cells]):
        raise NotAClosedWalk("cells do not chain into a closed walk")
    chain = 0
    for e in walk_cells:
        chain ^= 1 << e
    calc = calculator or HomologyCalculator(complex)
    parity = len(walk_cells) % 2
    homology_class = 0 if calc.is_boundary(1, chain) is not None else 1
    return {
        "length": len(walk_cells),
        "parity": parity,
        "homology_class": homology_class,
        "selected": all(e in edge_cells for e in walk_cells),
        "consistent": parity == homology_class,
    }


def sample_closed_walks(
    complex: Complex,
    edge_cells: frozenset[int],
    count: int,
    seed: int = 0,
) -> list[list[int]]:
    """Deterministic random closed walks along the selected 1-cells; a walk
    that has not closed after 4 * n_vertices + 8 steps is dropped, and there
    are none when no 1-cell is selected.

    Each step goes from one end of a selected 1-cell to its other end, and a
    walk is kept only when it is non-empty and ends at its start.  So every
    walk returned is a closed vertex walk of selected 1-cells, and on a
    complex that passes `validate()` (a 1-cell's facets are the 0-cells of
    its two vertices) the mod-2 sum of its cells is a cycle.  The
    `walk-parity` entry of `verify_sphere_quadrangulation` rests on this.
    """
    rng = random.Random(seed)
    max_len = 4 * complex.n_vertices + 8
    incident: dict[int, list[tuple[int, int]]] = {}
    edges = complex.vertices_of(1) if complex.dim >= 1 else ()
    for e in sorted(edge_cells):
        u, v = edges[e]
        incident.setdefault(u, []).append((e, v))
        incident.setdefault(v, []).append((e, u))
    starts = sorted(incident)
    walks: list[list[int]] = []
    attempts = 0
    while starts and len(walks) < count and attempts < 50 * count:
        attempts += 1
        start = rng.choice(starts)
        cur = start
        walk: list[int] = []
        for _ in range(max_len):
            e, nxt = rng.choice(incident[cur])
            walk.append(e)
            cur = nxt
            if cur == start:
                break
        if cur == start and walk:
            walks.append(walk)
    return walks


# ---- the simplicial-map audit into the box complex ----

def verify_z2_map_to_box(
    complex: Complex,
    colouring: TwoColouring,
    graph: Graph,
    labels: dict[int, object],
) -> ValidationReport:
    """The vertex map v -> (label(v), colour(v)) must send every cell of the
    complex injectively to a cell of the graph's box complex.

    Only the maximal cells are read.  On a complex that passes
    `complex-valid`, every cell's vertex set lies inside a maximal cell's,
    and both injectivity and box membership pass to subsets (the box complex
    is closed under taking subsets), so the maximal cells decide the map.
    Equivariance is not checked here: `labels-on-orbits` and
    `colouring-antisymmetric` check it.  The `box-map` entry of
    `verify_sphere_quadrangulation` runs this check only when its lemma's
    hypotheses fail, and is tested against it.
    """
    return _box_map_violations(complex, colouring, graph, labels, complex.maximal_cells())


def _box_map_violations(
    complex: Complex,
    colouring: TwoColouring,
    graph: Graph,
    labels: dict[int, object],
    cells: Iterable[tuple[int, int]],
) -> ValidationReport:
    """The cell rule of `verify_z2_map_to_box` on the given (dim, id) cells."""
    violations = []
    for d, i in cells:
        vertices = complex.vertices_of(d)[i]
        if len({(labels[v], colouring.of(v)) for v in vertices}) != len(vertices):
            violations.append(Violation("NotSimplicialMap", d, i, "vertices collide in the image"))
            continue
        a1 = frozenset(labels[v] for v in vertices if v in colouring.black)
        a2 = frozenset(labels[v] for v in vertices if v in colouring.white)
        if not box_membership(graph, a1, a2):
            violations.append(Violation("NotInBoxComplex", d, i, f"({sorted(map(str, a1))}, {sorted(map(str, a2))})"))
    return ValidationReport.collect(violations)


# ---- geometric fineness ----

def fineness_check(complex: Complex, colouring: TwoColouring) -> dict:
    """Whether every bichromatic 1-cell is strictly shorter than 2/sqrt(n+3),
    where n is the dimension of the complex.

    Vertices must carry coordinates of unit norm (tolerance 1e-9).  On a
    verified quadrangulation this bound certifies that the quotient graph
    needs n+2 colours.
    """
    if not complex.has_coords:
        raise MissingCoordinates("fineness needs coordinates on every vertex")
    n = complex.dim
    for v in complex.vertex_ids():
        u = complex.coords(v)
        norm = sqrt(sum_left_to_right(x * x for x in u))
        if abs(norm - 1.0) > UNIT_TOL:
            raise NotOnUnitSphere(f"vertex {v} has norm {norm!r}")
    longest = 0.0
    for e in sorted(bichromatic_edge_cells(complex, colouring)):
        u, v = complex.cell(1, e).vertices
        cu, cv = complex.coords(u), complex.coords(v)
        length = sqrt(sum_left_to_right((a - b) ** 2 for a, b in zip(cu, cv)))
        longest = max(longest, length)
    threshold = 2.0 / sqrt(n + 3)
    return {
        "max_bichromatic_edge_length": longest,
        "threshold": threshold,
        "fine": longest < threshold,
        "dimension": n,
    }


# ---- composite verifications ----

def _no_edges(cells: Iterable[tuple[int, int]]) -> ValidationReport:
    """The `quadrangulation_check` report that fails exactly the given
    (dim, id) cells, each for having no selected edge."""
    return ValidationReport.collect(Violation("NoEdge", d, i, "no selected edges") for d, i in cells)


def _antipodal_free(complex: Complex, involution: Involution) -> ValidationReport:
    """`antipodal_free_cells` on a complex that passes `complex-valid`.

    The 1-faces of a lawful cell of dimension at least 1 cover every pair of
    its vertices, so a cell that holds a vertex v together with its partner
    (v itself for a fixed point) has a 1-face that does too.  When no 1-cell
    holds such a pair the report is empty; otherwise `antipodal_free_cells`
    gives it.
    """
    vp = involution.vertex_pairing
    for vertices in complex.vertices_of(1) if complex.dim >= 1 else ():
        u, w = vertices
        if vp.get(u) in vertices or vp.get(w) in vertices:
            return antipodal_free_cells(complex, involution)
    return ValidationReport()


def _audit(
    complex: Complex,
    involution: Involution,
    colouring: TwoColouring,
    labels: dict[int, object],
    expected_graph: Graph,
    ball: bool,
    seed: int = 0,
    n_walks: int = 0,
) -> tuple[AuditReport, Optional[Graph]]:
    """The audit stack of a coloured sphere with a full-scope involution, or
    of a coloured ball with a boundary-scope one.  The two share every entry
    up to `graph-identification`, except the shape entry, `sphere` or
    `ball`.  A ball's audit ends with `graph-matches-expected` after the
    identification.  A ball's boundary is the involution's scope:
    `involution-valid` passes only when the paired cells are exactly
    `boundary_cells(complex)`.  Returns the report and the identified
    labelled graph, or None when the audit stopped before the
    identification.

    `complex-valid` is `complex.validate()`.  A built complex carries the
    report a full validation would give, made when its cells were: from
    `ComplexBuilder.build`, whose `add_cell` judges each cell by the cell
    law's `_rule_chain`, and whose `add_cone` and
    `SimplicialBuilder.add_simplex` add only cells that are lawful by
    construction (see `build`), or from `symmetry.double`, whose
    mirrored copies of a lawful ball are lawful once its four checks pass
    (see `double`).  Any other complex, such as a parsed one, is judged on
    one cell of each antipodal pair when the involution has full scope and
    `validate_involution` passes it first: the pairing carries a lawful
    cell onto a lawful partner (see `Complex._validate_by_pairs`).  When
    that judgement fails, or the involution fails or has boundary scope,
    the complex is validated in full.  The early involution report is the
    `involution-valid` entry, which is still added only once complex-valid
    has passed.

    `involution-valid` is a lemma on a double: when `complex` and
    `involution` are the very objects that `symmetry.double` returned, the
    complex records that involution (`_paired_by`), and the entry passes
    without a check.  `double` runs the boundary-scope check before it
    glues; the boundary pairs are those it passed, and each copy pair holds
    by construction, with a fresh id, the sorted vertex images and the
    facet images in order, so every rule of the full-scope check holds (see
    `double`).  Any other involution, parsed, built by hand or a
    `dataclasses.replace` copy, gets `validate_involution` in full.

    Every audit runs only once the audits whose data it reads have passed:
    the involution, the proper colouring and everything after the gate read
    facet ids, so they need complex-valid; antisymmetry needs a valid
    involution and a total colouring.  The early involution check reads
    facet ids too; on a complex that fails complex-valid its report is
    dropped, like that of every other check that reads them.
    `labels-on-orbits` judges the labels that the identification reads:
    every vertex has one, both vertices of a pair have the same one, and no
    two orbits share one (an unpaired vertex of a ball is its own orbit).
    When it fails the audit stops there, before `graph-identification`.

    `antipodal-free` is judged on the 1-cells once complex-valid has passed:
    a lawful cell's 1-faces cover every pair of its vertices, so some cell
    holds a vertex and its partner only if some 1-cell does.  When one
    does, `antipodal_free_cells` gives the entry (see `_antipodal_free`).

    `quadrangulation` is a lemma of `colouring-proper`, not a second walk
    over the cells.  It runs only after complex-valid, involution-valid and
    colouring-total have passed, and its selection is the bichromatic
    1-cells.  On a lawful complex the 1-faces of a cell of dimension at
    least 1 cover every pair of its vertices and no other pair, so a maximal
    cell's selected pairs are black x white: complete bipartite, with an
    edge exactly when both colours occur.  The entry is therefore one
    `NoEdge` ("no selected edges") for each `MonochromaticCell`, at the same
    cells, and `NotCompleteBipartite` cannot occur; `quadrangulation_check`
    is the check it replaces and stays its test oracle.

    `parity` is a lemma too: the audit reaches it only once complex-valid
    and colouring-total have passed.  A lawful 2-cell has three distinct
    vertices, and its three facets are the 1-cells on its three vertex
    pairs.  The colouring is total and black and white are disjoint, so the
    three vertices split 3-0 or 2-1 between the colours, and the
    bichromatic facets number 0 or 2.  The entry is therefore empty;
    `parity_audit` is the check it replaces, stays its test oracle, and is
    the fall-back of `quotient-parity`.

    `boundary-operator` reads the verdicts d_{p-1} o d_p = 0 of the
    complex's one `HomologyCalculator`, the ones its clearing guard reads.
    The calculator is made once complex-valid has passed, so the
    `validate()` report is in hand, and wherever the (p-2)-cells have
    distinct vertex tuples the verdict is the calculator's cell-law lemma
    (see `HomologyCalculator`) with no parity pass; elsewhere, as where
    parallel cells meet, the parity pass on the facet rows gives it.

    The sphere's lemmas after the identification are proved in the
    docstring of `verify_sphere_quadrangulation`.
    """
    audit = AuditCollector()
    early: Optional[ValidationReport] = None
    if complex._paired_by is involution:
        early = ValidationReport()
    elif involution.scope == "full":
        early = validate_involution(complex, involution)
        if early.ok:
            complex._validate_by_pairs(involution.pairing)
    complex_ok = audit.add("complex-valid", complex.validate())
    judged = None
    if complex_ok:
        judged = early if early is not None else validate_involution(complex, involution)
    involution_ok = judged is not None and audit.add("involution-valid", judged)
    total = audit.add_flag("colouring-total", colouring.covers(complex.vertex_ids()), _NOT_TOTAL)
    antipodal = (_antipodal_free if complex_ok else antipodal_free_cells)(complex, involution)
    audit.add("antipodal-free", antipodal)
    if complex_ok:
        proper = proper_on_maximal(complex, colouring)
        audit.add("colouring-proper", proper)
    if not (involution_ok and total):
        return audit.done(), None
    antisymmetric = audit.add("colouring-antisymmetric", antisymmetric_on_pairs(colouring, involution))

    calc = HomologyCalculator(complex)
    operator_ok = audit.add("boundary-operator", boundary_operator_audit(calc))
    shape_ok = audit.add("ball", ball_check(calc)) if ball else audit.add("sphere", sphere_check(calc))
    audit.add("parity", ValidationReport())
    audit.add("quadrangulation", _no_edges((v.cell_dim, v.cell_id) for v in proper.violations))

    # Every vertex is labelled, and as many (orbit, label) pairs occur as
    # orbits and as labels; an unpaired vertex is its own orbit.
    vp = involution.vertex_pairing
    named = {v: (min(v, vp.get(v, v)), labels[v]) for v in complex.vertex_ids() if v in labels}
    pairs = set(named.values())
    on_orbits = len(named) == complex.n_vertices and len(pairs) == len(dict(pairs)) == len({lab for _, lab in pairs})
    if not audit.add_flag("labels-on-orbits", on_orbits, "some vertex is unlabelled, or labels are not one per antipodal orbit"):
        return audit.done(), None

    try:
        identified, _ = identify_antipodes(associated_graph(complex, colouring), involution.vertex_pairing)
    except LoopCreated as exc:  # a bichromatic cell joins a pair
        audit.add_flag("graph-identification", False, f"{type(exc).__name__}: {exc}")
        return audit.done(), None
    graph = identified.relabel({r: labels[r] for r in identified.vertices})
    if ball:
        audit.add_flag("graph-matches-expected", graph == expected_graph, _GRAPH_DIFFERS)
        return audit.done(), graph

    if antipodal.ok:
        monochromatic = ((v.cell_dim, v.cell_id) for v in proper.violations)
        audit.add("box-map", _box_map_violations(complex, colouring, graph, labels, monochromatic))
    else:
        audit.add("box-map", verify_z2_map_to_box(complex, colouring, graph, labels))

    refusal = _quotient_refusal(involution, antipodal)
    if refusal is not None:
        audit.add_flag("quotient", False, f"{type(refusal).__name__}: {refusal}")
        return audit.done(), graph

    projections: dict[Optional[int], tuple[Complex, dict[int, dict[int, int]], frozenset[int]]] = {}

    def projected(top: Optional[int] = None) -> tuple[Complex, dict[int, dict[int, int]], frozenset[int]]:
        """The quotient, the projection and the selected quotient 1-cells,
        the images of the bichromatic sphere 1-cells, projected up to
        dimension `top` (all of it when None) on the first call that needs
        them; a full projection serves every later call."""
        key = None if None in projections else top
        if key not in projections:
            q, projection = _project(complex, involution, key)
            selected = bichromatic_edge_cells(complex, colouring)
            projections[key] = q, projection, frozenset(projection[1][e] for e in selected)
        return projections[key]

    @cache
    def quotient_calculator() -> HomologyCalculator:
        return HomologyCalculator(projected()[0])

    audit.add("quotient-valid", ValidationReport())
    if operator_ok and shape_ok:
        audit.add("quotient-homology", ValidationReport())
    else:
        n = complex.dim
        qb = quotient_calculator().all_betti()
        audit.add_flag("quotient-homology", qb == (1,) * (n + 1), f"betti {qb}, expected {(1,) * (n + 1)}")
    audit.add("identification-commutes", ValidationReport())
    if antisymmetric:
        audit.add("quotient-parity", ValidationReport())
    else:
        q, _, selected_q = projected()
        audit.add("quotient-parity", parity_audit(q, selected_q))
    if antisymmetric:
        images = {(v.cell_dim, projected()[1][v.cell_dim][v.cell_id]) for v in proper.violations}
        audit.add("quotient-quadrangulation", _no_edges(images))
    else:
        q, _, selected_q = projected()
        audit.add("quotient-quadrangulation", quadrangulation_check(q, selected_q))
    audit.add_flag("graph-matches-expected", graph == expected_graph, _GRAPH_DIFFERS)

    if n_walks > 0:
        # On an antisymmetric coloured sphere every sampled walk is consistent
        # (see `verify_sphere_quadrangulation`): the sampler reads only the
        # 1-skeleton.
        lemma = antisymmetric and operator_ok and shape_ok and complex.dim >= 1
        q, _, selected_q = projected(1 if lemma else None)
        walks = sample_closed_walks(q, selected_q, n_walks, seed=seed)
        bad = 0
        if not lemma:
            solve = quotient_calculator().solver(2).solve if q.dim >= 2 and walks else None
            for walk in walks:
                chain = 0
                for e in walk:
                    chain ^= 1 << e
                bounds = not chain or (solve is not None and solve(chain) is not None)
                bad += len(walk) % 2 == bounds  # an odd walk that bounds, or an even one that does not
        audit.add_flag(
            "walk-parity",
            bad == 0 and len(walks) == n_walks,
            f"{bad} inconsistent walks of {len(walks)} sampled",
            sampled=len(walks),
        )
    return audit.done(), graph


def verify_sphere_quadrangulation(
    complex: Complex,
    involution: Involution,
    colouring: TwoColouring,
    *,
    labels: dict[int, object],
    expected_graph: Graph,
    seed: int = 0,
    n_walks: int = 0,
) -> tuple[AuditReport, Optional[Graph]]:
    """Run the full audit stack on a symmetric coloured sphere.

    Returns the audit report and the identified labelled graph, or None
    when the audit stopped before the identification.  The quotient is not
    returned: `quotient` or `SphereQuad.quotient` gives it.  The audit
    projects it at most once, and only to sample the walks, to run a full
    check whose lemma's hypotheses failed, or to name the images of
    monochromatic cells in `quotient-quadrangulation`.  A sphere that
    passes is judged without its quotient when `n_walks` is 0, and with
    only its 1-skeleton, for the sampler, otherwise.

    The `quotient` entry fails, as `quotient` would raise, when the
    involution lacks full scope or `antipodal-free` has failed.
    `quotient-valid` is then a lemma, not a second validation: it
    rests on `complex-valid`, `involution-valid` and `antipodal-free`.  Two
    vertices of one cell meet in the quotient only if they are antipodal, so
    the projection is injective on each cell: every quotient cell has d+1
    distinct vertices, and its facets are d+1 distinct cells (two facets in
    one orbit would put a vertex and its antipode in the cell) whose vertex
    sets are the projected d-subsets of the cell.  The quotient's labels are
    those of the orbit representatives, a subset of the sphere's unique
    labels.

    `identification-commutes` (the graph the selected quotient 1-cells span,
    labelled through the orbit representatives, is the identified graph) is
    a lemma as well.  Once the quotient exists, `involution-valid` and
    `antipodal-free` have passed and the identification raised no
    `LoopCreated`.  Quotient vertex `projection[0][v]` is v's orbit, and the
    identified graph has one vertex per orbit, its smaller member r,
    labelled `labels[r]`, so the vertex sets correspond.  A selected 1-cell
    on u, w projects to the quotient 1-cell on the orbits of u and w, which
    is exactly the identified edge on their representatives.  The
    comparison it replaces stays a test oracle.

    `quotient-homology` (H_i(Q; Z_2) = Z_2 for 0 <= i <= n) is a lemma once
    `boundary-operator` and `sphere` have passed too, by the transfer
    sequence of a two-sheeted cover (Conner & Floyd, "Fixed point free
    involutions and equivariant maps", 1960; Hatcher, *Algebraic Topology*,
    section 2.B).  `involution-valid` makes the involution t a free
    bijection on every layer that commutes with the boundary mod 2 (each
    partner's facets are the image of the lower cell's), so C_i(X) is free
    over Z_2[t] on one cell per pair.  The projection p: C(X) -> C(Q) sends
    a cell to its pair's quotient cell, whose facets are the projections of
    its lift's facets, so p is a chain map, and so is the transfer
    s: C(Q) -> C(X) that sends a quotient cell to the sum of its two lifts.
    Then 0 -> C(Q) -s-> C(X) -p-> C(Q) -> 0 is exact: p is onto, s is one
    to one, and a chain lies in the kernel of p exactly when it holds both
    or neither lift of each quotient cell.  Write h_i for dim H_i(Q; Z_2);
    h_{n+1} = 0 as Q has no (n+1)-cells, and the long exact sequence ends
    in H_0(X) -p-> H_0(Q) -> 0.  For n = 0 it is 0 -> H_0(Q) -> Z_2^2 ->
    H_0(Q) -> 0, so h_0 = 1.  For n >= 1, X is connected, so Q is, h_0 = 1
    and p: H_0(X) -> H_0(Q) is an isomorphism; hence s_* = 0 on H_0(Q), and
    the connecting map H_1(Q) -> H_0(Q) is onto.  For 1 <= i <= n - 1,
    H_i(X) = 0 makes the connecting map H_i(Q) -> H_{i-1}(Q) one to one,
    and for 2 <= i <= n - 1, H_{i-1}(X) = 0 makes it onto too; so
    h_i = h_{i-1} = 1 below n.  The top of the sequence, 0 -> H_n(Q) ->
    H_n(X) = Z_2 -> H_n(Q) -> H_{n-1}(Q) -> H_{n-1}(X) -> ..., with the
    last map zero (H_{n-1}(X) = 0 for n >= 2; s_* = 0 on H_0(Q) for n = 1),
    is exact with dimensions h_n, 1, h_n, 1, so 2 h_n = 2 and h_n = 1.
    Without those hypotheses the Betti numbers of the projected quotient
    give the entry, and they stay its test oracle.

    `quotient-parity` is a lemma once `colouring-antisymmetric` has passed
    (`parity`, a lemma itself, passes wherever the audit reaches it; see
    `_audit`).  A quotient 2-cell's facets are the projections of the
    facets of its lift c, the lower cell of its pair, and a quotient 1-cell
    is selected when one of its two lifts is bichromatic.  The colouring is
    total and antisymmetric, and the involution maps each 1-cell onto a
    1-cell on the partners of its ends, so a 1-cell and its partner are
    bichromatic together: a projected facet is selected exactly when the
    facet is.  The quotient 2-cell therefore has as many selected facets as
    c, an even number by `parity`.  Without antisymmetry `parity_audit` on
    the projected quotient gives the entry, and it stays the test oracle.

    `quotient-quadrangulation` is a lemma too when `colouring-antisymmetric`
    passes.  The projection is injective on each cell and maps maximal cells
    onto maximal cells, and a quotient 1-cell is selected exactly when its
    lift in the cell is bichromatic, since e and its antipode are both
    bichromatic or both not.  So the entry is one `NoEdge` at each quotient
    maximal cell that is the image of a monochromatic sphere cell, as for
    `quadrangulation` (see `_audit`).  Without antisymmetry the
    selection need not lift, and `quadrangulation_check` runs on the
    quotient.

    `walk-parity` judges the walks that `sample_closed_walks` draws on the
    quotient's 1-skeleton.  The sampler steps only along selected quotient
    1-cells, from one end to the other, and keeps a walk only when it is
    non-empty and returns to its start.  So `cycle_parity_vs_homology`
    could not raise `NotAClosedWalk` on it, and its `selected` would be
    true.  Nor could it raise `NotACycle`: the quotient is lawful, so a
    1-cell's facets are the 0-cells of its two vertices, and a closed walk
    leaves each vertex as often as it enters it.  What is left is the
    homology class, and a walk is inconsistent when it is odd and bounds,
    or even and does not.

    No sampled walk is inconsistent once `colouring-antisymmetric`,
    `boundary-operator` and `sphere` have passed and n >= 1; the entry is
    then `sampled == n_walks`.  First, a walk bounds exactly when its lift
    to the sphere closes, by the lifting property of the two-sheeted cover
    p: X -> Q (Hatcher, *Algebraic Topology*, section 1.3).
    `antipodal-free` has passed, so no 1-cell joins two partners, and a
    step from a vertex over one end of a quotient 1-cell lifts to exactly
    one of its two lifts, the one that holds the vertex.  Lifting a closed
    walk of Q from a vertex x ends at x or at its partner, depending only on
    the walk's mod-2 sum; this gives a homomorphism w: H_1(Q; Z_2) -> Z_2.
    X is connected (b_0 = 1 under `sphere`), so a path from x to its
    partner projects to a closed walk whose lift does not close, and w is
    onto.  H_1(Q; Z_2) = Z_2, as the `quotient-homology` lemma above shows
    under the same hypotheses, so w is an isomorphism: the walk bounds
    exactly when w is zero.  Second, the lift closes exactly when the walk
    is even.  A selected quotient 1-cell has a bichromatic lift, and its
    other lift is bichromatic too (see `quotient-parity` above), so each
    lifted step flips the colour, and a lift of length L ends on the
    start's colour exactly when L is even.  The colouring is total and
    antisymmetric, so the start's partner has the other colour, and the
    lift, which ends at the start or its partner, closes exactly when L is
    even.  So a walk bounds exactly when it is even, and the sampler needs
    only the quotient's 1-skeleton.  When a hypothesis fails, the quotient
    is projected in full, and the mod-2 sum of each walk, its 1-cell ids
    XOR-ed into a bitmask, bounds when it is zero or when the solver of the
    quotient's boundary on 2-chains finds a preimage (a quotient below
    dimension 2 bounds only the zero chain); the quotient's one calculator
    serves that solve and `quotient-homology`.  `cycle_parity_vs_homology`
    is the full check and stays the test oracle.

    `box-map` is a lemma on the bichromatic maximal cells when
    `antipodal-free` passes (complex-valid, involution-valid,
    colouring-total, labels-on-orbits and the identification have passed
    to get here).  Distinct orbits have distinct labels by
    `labels-on-orbits`, so two vertices of one cell with the same (label,
    colour) would be an antipodal pair in the cell.  In a cell with both colours, a black u and
    a white w span a 1-face, which is bichromatic and so an edge of the
    identified graph: A1 x A2 lies in E(G) with A1 and A2 non-empty, so
    each side lies in the other's common neighbourhood and the pair is a
    cell of the box complex.  Only the monochromatic maximal cells, the
    `colouring-proper` violations, are checked cell by cell, with the rule
    of `verify_z2_map_to_box`; without those hypotheses that function gives
    the entry.
    """
    return _audit(complex, involution, colouring, labels, expected_graph, False, seed, n_walks)


def verify_ball_quadrangulation(
    ball: Complex,
    involution: Involution,
    colouring: TwoColouring,
    *,
    labels: dict[int, object],
    expected_graph: Graph,
) -> tuple[AuditReport, Optional[Graph]]:
    """Audit a coloured ball whose boundary carries a free involution, given
    as a boundary-scope `Involution`; returns the report and the identified
    graph as `verify_sphere_quadrangulation` does.

    No constructor calls it: a built ball gets only the checks that
    `symmetry.double` runs before gluing, and the sphere audit of the double
    judges the build."""
    return _audit(ball, involution, colouring, labels, expected_graph, True)
