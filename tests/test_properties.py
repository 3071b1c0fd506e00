"""Randomized invariants checked with hypothesis."""

import json
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from projquad import (
    Cell,
    Complex,
    ComplexBuilder,
    Gf2Solver,
    Graph,
    HomologyCalculator,
    SimplicialBuilder,
    box_membership,
    boundary_squares_to_zero,
    chromatic_number,
    common_neighbours,
    complex_to_json,
    dump_canonical,
    dump_complex,
    face_closure,
    graph_from_json,
    graph_to_json,
    mycielskian,
    rank_gf2,
)
from projquad.audits import _antipodal_free
from projquad.complexes import _cell_violations, _rule_chain
from projquad.symmetry import Involution, antipodal_free_cells
from projquad.errors import ProjquadError
from projquad.graphs import label_key

from conftest import _star_by_scan, facet_rows, has_triangle


def naive_rank(rows: list[int], cols: int) -> int:
    grid = [[(r >> j) & 1 for j in range(cols)] for r in rows]
    rank = 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(grid)) if grid[i][col]), None)
        if pivot is None:
            continue
        grid[rank], grid[pivot] = grid[pivot], grid[rank]
        for i in range(len(grid)):
            if i != rank and grid[i][col]:
                grid[i] = [a ^ b for a, b in zip(grid[i], grid[rank])]
        rank += 1
    return rank


@st.composite
def bit_matrices(draw, max_rows=8, max_cols=8):
    """(rows, cols): a list of row bitmasks, each below 2 ** cols."""
    n_rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(0, max_cols))
    return [draw(st.integers(0, (1 << cols) - 1)) for _ in range(n_rows)], cols


# Up to 8 x 8, or rows up to 150 bits: wider than one 64-bit machine word.
gf2_matrices = st.one_of(bit_matrices(), bit_matrices(max_rows=40, max_cols=150))
row_masks = st.integers(0, (1 << 150) - 1)


@st.composite
def small_graphs(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(range(n), edges)


@settings(deadline=None)
@given(gf2_matrices)
def test_rank_matches_naive(m):
    rows, cols = m
    assert rank_gf2(rows) == naive_rank(rows, cols)


@settings(deadline=None)
@given(gf2_matrices, row_masks)
def test_solver_solutions_reproduce_target(m, x_seed):
    rows, _ = m
    x = x_seed & ((1 << len(rows)) - 1)
    b = 0
    for i, row in enumerate(rows):
        if (x >> i) & 1:
            b ^= row
    got = Gf2Solver(rows).solve(b)
    assert got is not None
    check = 0
    for i, row in enumerate(rows):
        if (got >> i) & 1:
            check ^= row
    assert check == b


@settings(deadline=None)
@given(gf2_matrices, row_masks)
def test_solver_none_iff_outside_row_space(m, b_seed):
    rows, cols = m
    b = b_seed & ((1 << cols) - 1)
    got = Gf2Solver(rows).solve(b)
    grew = rank_gf2(rows + [b]) > rank_gf2(rows)
    assert (got is None) == grew


@settings(deadline=None)
@given(small_graphs(), st.integers(1, 3))
def test_mycielskian_counts(g, r):
    out = mycielskian(g, r)
    assert out.n == r * g.n + 1
    assert out.m == (2 * r - 1) * g.m + g.n


@settings(deadline=None, max_examples=40)
@given(small_graphs(max_n=6), st.integers(2, 3))
def test_mycielskian_preserves_triangle_freeness(g, r):
    if has_triangle(g):
        return
    out = mycielskian(g, r)
    for a, b, c in combinations(out.vertices, 3):
        assert not (out.has_edge(a, b) and out.has_edge(b, c) and out.has_edge(a, c))


def brute_chi(graph: Graph) -> int:
    vs = list(graph.vertices)
    index = {v: i for i, v in enumerate(vs)}
    edges = [(index[u], index[v]) for u, v in graph.edges()]
    for k in range(1, len(vs) + 1):
        for assign in product(range(k), repeat=len(vs)):
            if all(assign[a] != assign[b] for a, b in edges):
                return k
    raise AssertionError("unreachable")


@settings(deadline=None, max_examples=30)
@given(small_graphs(max_n=5))
def test_chromatic_number_matches_bruteforce(g):
    result = chromatic_number(g)
    # a non-exhausted run means the clique bound met the best colouring
    assert result.exhausted or result.chi == len(result.clique)
    assert result.chi == brute_chi(g)
    assert len(result.colouring) == g.n
    for u, v in g.edges():
        assert result.colouring[u] != result.colouring[v]
    for u, v in combinations(result.clique, 2):
        assert g.has_edge(u, v)
    assert len(result.clique) <= result.chi


@settings(deadline=None)
@given(small_graphs(), st.data())
def test_box_membership_is_symmetric_and_monotone(g, data):
    verts = list(g.vertices)
    a1 = data.draw(st.frozensets(st.sampled_from(verts), max_size=3))
    a2 = data.draw(st.frozensets(st.sampled_from(verts), max_size=3))
    member = box_membership(g, a1, a2)
    assert member == box_membership(g, a2, a1)
    if member and a1:
        smaller = frozenset(list(a1)[:-1])
        assert box_membership(g, smaller, a2)
    if member:
        assert a1 <= common_neighbours(g, a2)


@settings(deadline=None)
@given(small_graphs())
def test_common_neighbours_is_an_intersection(g):
    verts = list(g.vertices)
    for size in (0, 1, 2):
        subset = verts[:size]
        expected = set(g.vertices)
        for v in subset:
            expected &= g.neighbors(v)
        assert common_neighbours(g, subset) == frozenset(expected)


label_strategy = st.one_of(
    st.integers(-5, 40),
    st.text("abcz", min_size=1, max_size=4),
    st.tuples(st.integers(0, 9), st.integers(0, 9)),
)


@settings(deadline=None)
@given(st.sets(label_strategy, min_size=1, max_size=8), st.data())
def test_graph_json_roundtrip(labels, data):
    verts = sorted(labels, key=lambda x: repr(x))
    pairs = list(combinations(verts, 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = Graph(verts, edges)
    again = graph_from_json(graph_to_json(g))
    assert again == g


@st.composite
def random_complexes(draw, max_dim=2):
    n = draw(st.integers(1, 6))
    sb = SimplicialBuilder()
    for i in range(n):
        sb.add_vertex(f"w{i}")
    for d in range(max_dim, 0, -1):
        simplices = list(combinations(range(n), d + 1))
        if simplices:
            for s in draw(st.lists(st.sampled_from(simplices), unique=True, max_size=8)):
                sb.add_simplex(s)
    return sb.build()


@settings(deadline=None, max_examples=50)
@given(random_complexes())
def test_euler_poincare_over_gf2(complex):
    betti = HomologyCalculator(complex).all_betti()
    alternating = sum((-1) ** p * b for p, b in enumerate(betti))
    assert sum((-1) ** d * complex.n_cells(d) for d in range(complex.dim + 1)) == alternating
    for p in range(complex.dim + 2):
        assert boundary_squares_to_zero(complex, p)


@settings(deadline=None, max_examples=80)
@given(random_complexes(max_dim=3))
def test_cleared_ranks_equal_plain_ranks(complex):
    calc = HomologyCalculator(complex)
    for p in range(1, complex.dim + 1):
        assert calc.rank(p) == rank_gf2(facet_rows(complex, p)), p
        assert calc.solver(p).rank == calc.rank(p), p


@settings(deadline=None, max_examples=200)
@given(random_complexes(max_dim=3), st.data())
def test_the_one_skeleton_decides_antipodal_freeness(complex, data):
    # On a lawful complex, a random fixed-point-free pairing of some
    # vertices puts a pair in some cell exactly when it puts one in a 1-cell.
    order = data.draw(st.permutations(range(complex.n_vertices)))
    k = data.draw(st.integers(0, complex.n_vertices // 2))
    pairing = {}
    for v, w in zip(order[: 2 * k : 2], order[1 : 2 * k : 2]):
        pairing.update({v: w, w: v})
    involution = Involution("full", pairing)
    assert _antipodal_free(complex, involution) == antipodal_free_cells(complex, involution)


@settings(deadline=None, max_examples=30)
@given(small_graphs(max_n=5), st.data())
def test_true_external_bound_keeps_chi(g, data):
    chi = brute_chi(g)
    k = data.draw(st.integers(0, chi))
    result = chromatic_number(g, topological_bound=k)
    assert result.chi == chi
    if chi == len(result.clique):
        assert result.proof == "clique"
    elif chi == k:
        assert result.proof == "topological"
    else:
        assert result.proof == "exhaustive"
    assert result.exhausted == (result.proof == "exhaustive")
    for u, v in g.edges():
        assert result.colouring[u] != result.colouring[v]


nested_labels = st.recursive(
    st.one_of(st.integers(-5, 40), st.text("abcz", max_size=3)),
    lambda children: st.lists(children, max_size=3).map(tuple),
    max_leaves=6,
)


@settings(deadline=None)
@given(st.sets(nested_labels, min_size=1, max_size=8), st.data())
def test_edges_order_is_the_per_comparison_label_key_order(labels, data):
    verts = list(labels)
    pairs = list(combinations(verts, 2))
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = Graph(verts, edges)
    seen = set()
    for u in g.vertices:
        for v in g.neighbors(u):
            seen.add((u, v) if label_key(u) < label_key(v) else (v, u))
    assert g.edges() == tuple(sorted(seen, key=lambda e: (label_key(e[0]), label_key(e[1]))))


# Strings with the characters json escapes (quote, backslash, control
# characters, non-ASCII up to astral and lone surrogates) and the floats it
# spells specially or at the ends of the range.
json_strings = st.text(
    st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\u00e9\u2028\ud800\U0001f600'), st.characters()),
    max_size=6,
)
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**80), 2**80),
    st.floats(),
    st.sampled_from([-0.0, 1e-300, 1e300, 5e-324, float("nan"), float("inf"), -float("inf")]),
    json_strings,
)


class IntSubclass(int):
    """An int that is not of type int, which json's encoder refuses."""


@st.composite
def int_rows(draw):
    """A list of equal-length lists or tuples of ints, as a pair list is,
    perhaps with one row of another length, or one value that is a bool or
    an int subclass."""
    n = draw(st.integers(0, 3))
    row = st.lists(st.integers(-(2**70), 2**70), min_size=n, max_size=n)
    rows = draw(st.lists(st.one_of(row, row.map(tuple)), max_size=4))
    change = draw(st.sampled_from(["none", "none", "length", "odd value"]))
    if rows and change == "length":
        rows.insert(draw(st.integers(0, len(rows))), [0] * draw(st.integers(0, 3)))
    elif rows and n and change == "odd value":
        k, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, n - 1))
        rows[k] = [*rows[k][:j], draw(st.sampled_from([True, False, IntSubclass(3)])), *rows[k][j + 1 :]]
    return rows


json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(st.integers(-(2**70), 2**70), max_size=5),
        int_rows(),
        st.dictionaries(json_strings, children, max_size=4),
    ),
    max_leaves=20,
)


@st.composite
def deeply_nested(draw):
    value = draw(json_values)
    key = draw(json_strings)
    for kind in draw(st.lists(st.sampled_from(["list", "tuple", "dict"]), min_size=70, max_size=90)):
        value = {key: value} if kind == "dict" else [value, key] if kind == "list" else (key, value)
    return value


def _holds_an_int_subclass(value) -> bool:
    if isinstance(value, dict):
        return any(map(_holds_an_int_subclass, value.values()))
    if isinstance(value, (list, tuple)):
        return any(map(_holds_an_int_subclass, value))
    return type(value) is IntSubclass


@st.composite
def aliased(draw):
    """A value that holds one container object more than once: repeated in
    one list, or at two depths (as a label sits in a graph's vertex list and
    in its edges)."""
    lists = st.lists(json_values, max_size=3)
    shared = draw(st.one_of(lists, lists.map(tuple), int_rows(), st.dictionaries(json_strings, json_values, max_size=3)))
    if draw(st.booleans()):
        return [shared] * draw(st.integers(2, 4))
    return {"vertices": [shared, draw(json_values)], "edges": [[shared, shared]], "shared": shared}


# Items that compare equal but are written apart (1, 1.0, True and an int
# subclass; a list and a tuple), so that a table of repeated row items keyed
# by equality would give one of them another's text.
look_alikes = st.sampled_from(
    [1, 1.0, True, IntSubclass(1), "a", [1, "a"], (1, "a"), [1.0, "a"], [True, "a"], [IntSubclass(1), "a"]]
    + [[[1, "a"], 2], {"a": 1}, {"a": True}]
)


@st.composite
def repeating_rows(draw):
    """Equal-length rows of `look_alikes`, whose items repeat as the labels
    of an edge list do."""
    n = draw(st.integers(1, 3))
    return draw(st.lists(st.lists(look_alikes, min_size=n, max_size=n), min_size=1, max_size=6))


@settings(deadline=None)
@given(st.one_of(json_values, deeply_nested(), int_rows(), aliased(), repeating_rows()))
def test_dump_canonical_is_the_json_module_text(value):
    # dump_canonical refuses an int subclass, which json writes as an int.
    if _holds_an_int_subclass(value):
        with pytest.raises(TypeError):
            dump_canonical(value)
    else:
        assert dump_canonical(value) == json.dumps(value, sort_keys=True, indent=1) + "\n"


cell_ints = st.one_of(st.integers(-2, 7), st.integers(-(2**80), 2**80))
# Values that are no int: json writes the first four in their own way, and
# refuses an int subclass.
cell_values = st.one_of(
    cell_ints, st.booleans(), st.floats(), st.none(), json_strings, st.builds(IntSubclass, st.integers(0, 7))
)


@st.composite
def raw_complexes(draw, values=cell_ints):
    """Complexes made by `Complex(...)` with no law on their cells: lengths
    that break the cell law, dangling ids, parallel cells, 0-cells with or
    without facets, labels that are None, repeated or not ASCII, and
    coordinates on some, all or no vertices."""
    n = draw(st.integers(0, 5))
    labels = draw(st.lists(st.one_of(st.none(), st.sampled_from(["a", "é"]), json_strings), min_size=n, max_size=n))
    coord = st.one_of(st.none(), st.lists(st.floats(), max_size=3).map(tuple))
    coords = draw(st.one_of(st.none(), st.lists(coord, min_size=n, max_size=n)))
    ints = st.lists(values, max_size=4).map(tuple)
    layers = []
    for d in range(draw(st.integers(0, 3)) + 1):
        layer = [Cell(vs, fs) for vs, fs in draw(st.lists(st.tuples(ints, ints), max_size=4))]
        if layer and draw(st.booleans()):
            layer.append(Cell(layer[-1].vertices, layer[-1].facets))
        layers.append(layer)
    return Complex(layers, labels, coords)


def _text_or_type_error(write, complex):
    try:
        return write(complex)
    except TypeError:
        return TypeError


@settings(deadline=None, max_examples=300)
@given(st.one_of(raw_complexes(), raw_complexes(cell_values), random_complexes(max_dim=3)))
# Two layers that a writer working column by column would get wrong: cells
# with no vertices and no facets, and a layer that mixes two shapes.
@example(Complex([[Cell((), ()), Cell((), ())], [Cell((), ())]], []))
@example(Complex([[Cell((0,), ()), Cell((1,), ()), Cell((2,), ())], [Cell((0, 1), (0, 1)), Cell((1, 2, 0), (1,))]], [None] * 3))
def test_dump_complex_is_the_reference_text(complex):
    # A cell value not of type int is refused, since the parser would refuse
    # the text json writes for it.
    values = [x for d in range(complex.dim + 1) for c in complex.cells_of(d) for x in (*c.vertices, *c.facets)]
    if {*map(type, values)} - {int}:
        reference = TypeError
    else:
        reference = _text_or_type_error(lambda c: dump_canonical(complex_to_json(c)), complex)
    assert _text_or_type_error(dump_complex, complex) == reference


@st.composite
def builders(draw):
    """A builder, fresh or from `from_complex` on a complex that may break
    the cell law, after random `add_vertex`, `add_cell` and `add_cone`
    calls (a call the builder refuses adds nothing), with its source.  A
    cone is over the face closure of a few cells, or over a set drawn
    freely.  A lawful builder may make its star index before the calls,
    which then extend it."""
    source = draw(st.one_of(st.none(), random_complexes(max_dim=3), raw_complexes()))
    b = ComplexBuilder() if source is None else ComplexBuilder.from_complex(source)
    if b.n_vertices and (source is None or source.validate().ok) and draw(st.booleans()):
        b.star(0, set())
    for _ in range(draw(st.integers(0, 4))):
        b.add_vertex(draw(st.one_of(st.none(), st.sampled_from(["w0", "w1", "x"]))))
    for _ in range(draw(st.integers(0, 10))):
        dim = draw(st.integers(1, 3))
        if draw(st.integers(0, 3)):
            vertices = draw(st.lists(st.integers(-1, b.n_vertices), max_size=4))
            facets = draw(st.lists(st.integers(-1, b.n_cells(dim - 1)), max_size=4))
            try:
                b.add_cell(dim, vertices, facets)
            except ProjquadError:
                pass
            continue
        d = dim - 1
        ids = draw(st.lists(st.integers(-1, b.n_cells(d)), max_size=3))
        cells: dict = {d: ids, **draw(st.dictionaries(st.integers(-1, 3), st.lists(st.integers(-1, 4), max_size=3), max_size=2))}
        if draw(st.booleans()):
            try:
                cells = face_closure(b, [(d, i) for i in ids])
            except (IndexError, TypeError):  # a cell or facet id that names no cell
                pass
        try:
            b.add_cone(draw(st.one_of(st.none(), st.just("w0"))), None, cells)
        except ProjquadError:
            pass
    return source, b


@settings(deadline=None, max_examples=200)
@given(builders())
def test_a_builder_hands_over_the_report_a_full_validation_gives(built):
    source, builder = built
    complex = builder.build()
    handed = complex._report
    fresh = Complex([complex.cells_of(d) for d in range(complex.dim + 1)], complex.labels).validate()
    assert (handed is not None) == (source is None or source.validate().ok)
    assert handed is None or handed == fresh
    assert complex.validate() == fresh


@settings(deadline=None, max_examples=100)
@given(builders(), st.data())
def test_the_star_index_finds_the_stars_a_scan_finds(built, data):
    source, builder = built
    if not (source is None or source.validate().ok):
        return
    within = data.draw(st.sets(st.integers(0, builder.n_vertices)))
    for v in range(builder.n_vertices):
        for among in (within, set(range(builder.n_vertices))):
            assert sorted(builder.star(v, among)) == _star_by_scan(builder, v, among)


@st.composite
def judged_cells(draw):
    """A cell with its dimension and position, a vertex count and the layer
    below the cell, near the cell law.  The cell's vertices may repeat, run
    unsorted, negative or out of range.  The layer holds the cell's
    d-subsets, each perhaps listed unsorted, next to stray cells and a
    parallel copy.  The facet list names those subsets, with at most one
    change: a facet repeated, replaced, moved to its parallel copy, dropped
    or added, an empty list, or an id that dangles or runs negative.  A
    0-cell may sit on another vertex than its position, or at a negative or
    too large position."""
    d = draw(st.integers(0, 4))
    kind = draw(st.sampled_from(["lawful", "sorted", "any"]))
    n = draw(st.integers(d + 1, 7) if kind == "lawful" else st.integers(0, 6))
    ints = st.integers(-2, n + 1)
    if d == 0:
        i = draw(ints)
        vs = draw(st.one_of(st.just((i,)), st.lists(ints, max_size=2).map(tuple)))
        return 0, i, Cell(vs, draw(st.lists(ints, max_size=2).map(tuple))), n, ()
    if kind == "lawful":
        vs = sorted(draw(st.lists(st.integers(0, n - 1), min_size=d + 1, max_size=d + 1, unique=True)))
    elif kind == "sorted":  # perhaps repeated or out of range
        vs = sorted(draw(st.lists(ints, min_size=d + 1, max_size=d + 1)))
    else:
        vs = draw(st.lists(ints, min_size=d - 1, max_size=d + 2))
    vs = tuple(vs)
    lower = [tuple(draw(st.permutations(sub))) if draw(st.integers(0, 5)) == 0 else sub for sub in combinations(vs, d)]
    lower += draw(st.lists(st.lists(ints, min_size=d, max_size=d).map(tuple), max_size=2))
    if lower and draw(st.booleans()):
        lower.append(draw(st.sampled_from(lower)))
    order = draw(st.permutations(range(len(lower))))
    layer = tuple(Cell(lower[j], ()) for j in order)
    facets = [order.index(j) for j in range(min(len(vs), len(lower)))]
    change = draw(st.sampled_from(["none", "repeat", "replace", "parallel", "drop", "add", "clear", "alias", "dangle"]))
    if facets and change != "none":
        k = draw(st.integers(0, len(facets) - 1))
        twins = [t for t, c in enumerate(layer) if c.vertices == layer[facets[k]].vertices and t != facets[k]]
        if change == "repeat":
            facets[k] = draw(st.sampled_from(facets))
        elif change == "replace":
            facets[k] = draw(st.integers(0, len(layer) - 1))
        elif change == "parallel" and twins:
            facets[k] = twins[0]
        elif change == "drop":
            facets.pop(k)
        elif change == "add":
            facets.append(draw(st.integers(-1, len(layer))))
        elif change == "clear":
            facets.clear()
        elif change == "alias":  # names the same cell when used as an index
            facets[k] -= len(layer)
        elif change == "dangle":
            facets[k] = draw(st.sampled_from([len(layer), -1]))
    return d, draw(ints), Cell(vs, tuple(draw(st.permutations(facets)))), n, layer


@settings(deadline=None, max_examples=800)
@given(judged_cells())
def test_the_accept_test_agrees_with_the_rule_chain(judged):
    # The one-comparison accept test may only skip the rules when they find
    # nothing; whatever it passes on must get the chain's full verdict.
    d, i, cell, n, lower = judged
    assert _cell_violations(d, i, cell, n, lower) == tuple(_rule_chain(d, i, cell, n, lower))
