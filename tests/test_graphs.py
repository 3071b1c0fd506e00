import json
from collections import namedtuple
from itertools import combinations
from math import comb

import pytest

from projquad import (
    Graph,
    box_membership,
    complete_graph,
    cycle_graph,
    graph_from_json,
    graph_to_json,
    kneser_graph,
    mycielskian,
    schrijver_graph,
    to_dimacs,
)
from projquad import graphs, homomorphisms
from projquad.errors import BadParameters, ParseError
from projquad.graphs import MAX_LABEL_DEPTH, common_neighbours, label_key
from projquad.homomorphisms import homomorphism_from_json

from conftest import has_triangle, mycielski_graph


def test_complete_and_cycle_counts():
    k5 = complete_graph(5)
    assert k5.n == 5 and k5.m == 10
    c7 = cycle_graph(7)
    assert c7.n == 7 and c7.m == 7
    assert all(len(c7.neighbors(v)) == 2 for v in c7.vertices)
    with pytest.raises(BadParameters):
        cycle_graph(2)


def test_graph_equality_and_relabel():
    g = cycle_graph(5)
    h = g.relabel(lambda v: (v + 1) % 5)
    assert h == g
    assert g.relabel({v: f"n{v}" for v in g.vertices}) != g
    assert h.m == g.m and h.edges() == g.edges()
    # equality ignores insertion order but not an isolated vertex
    assert Graph([1, 0], [(1, 0)]) == Graph([0, 1], [(0, 1)])
    assert Graph([0, 1, 2], [(0, 1)]) != Graph([0, 1], [(0, 1)])
    assert Graph([0, 1, 2], [(0, 1)]) != Graph([0, 1, 2], [(1, 2)])


def test_edges_are_listed_afresh_once_the_graph_changes():
    # `edges()` keeps its tuple until add_vertex or add_edge changes the
    # graph, so an edge added after a call shows up in the next one.
    g = Graph([2, "b", 1], [(2, 1)])
    listed = g.edges()
    assert listed == ((1, 2),) and g.edges() is listed
    g.add_edge(1, 2)  # already there: nothing changes
    assert g.edges() is listed
    g.add_edge("b", 1)
    assert g.edges() == ((1, 2), (1, "b"))
    g.add_vertex((0,))
    g.add_edge((0,), 2)
    assert g.edges() == ((1, 2), (1, "b"), (2, (0,)))
    assert g.copy().edges() == g.edges()


def test_kneser_and_schrijver():
    petersen = kneser_graph(5, 2)
    assert petersen.n == 10 and petersen.m == 15
    sg = schrijver_graph(5, 2)
    assert sg.n == 5 and sg.m == 5  # the stable subsets induce a 5-cycle
    sg62 = schrijver_graph(6, 2)
    assert sg62.n == 9
    # vertices are the stable 2-subsets of a 6-cycle: 6*(6-3)/2
    assert sg62.n == 6 * 3 // 2
    big = kneser_graph(6, 2)
    assert big.n == comb(6, 2)
    assert sg62.m == sum(1 for (u, w) in big.edges() if u in sg62 and w in sg62)


def test_schrijver_vertices_are_the_stable_subsets_in_lexicographic_order():
    # The definition, filtered from all k-subsets, is the oracle of the
    # enumeration that builds only the subsets with gaps of at least 2; the
    # vertex count is n/(n-k) * C(n-k, k).
    for n in range(2, 15):
        for k in range(1, n // 2 + 1):
            stable = [
                s for s in combinations(range(1, n + 1), k) if all(i % n + 1 not in s for i in s)
            ]
            sg = schrijver_graph(n, k)
            assert list(sg.vertices) == stable, (n, k)
            assert sg.n == comb(n - k, k) + comb(n - k - 1, k - 1), (n, k)
    # SG(61, 30) has 61 vertices among C(61, 30) ~ 2.3e17 subsets
    assert schrijver_graph(61, 30).n == 61


def test_mycielskian_counts_and_structure():
    c5 = cycle_graph(5)
    g = mycielskian(c5)  # default two levels
    assert g.n == 2 * 5 + 1
    assert g.m == 3 * 5 + 5
    # apex joins exactly the level-1 shadow vertices
    assert len(g.neighbors("z")) == 5
    assert all(g.has_edge("z", (v, 1)) for v in c5.vertices)
    # copy of the base graph lives at the top level
    assert all(g.has_edge((u, 2), (w, 2)) for u, w in c5.edges())


def test_generalized_mycielskian_counts():
    base = cycle_graph(7)
    for r in (1, 2, 3, 4):
        g = mycielskian(base, r)
        assert g.n == r * base.n + 1
        assert g.m == (2 * r - 1) * base.m + base.n
    with pytest.raises(BadParameters):
        mycielskian(base, 0)


def test_mycielskian_level_one_is_cone():
    g = mycielskian(cycle_graph(5), 1)
    assert g.n == 6
    assert len(g.neighbors("z")) == 5
    assert has_triangle(g)


def test_mycielski_graph_chain():
    g3 = mycielski_graph(3)
    assert g3 == cycle_graph(5)
    g4 = mycielski_graph(4)
    assert g4.n == 11 and g4.m == 20
    g5 = mycielski_graph(5)
    assert g5.n == 23 and g5.m == 71
    # triangle-free at every stage
    assert not has_triangle(g4)
    assert not has_triangle(g5)


def test_common_neighbours():
    g = complete_graph(4)
    assert common_neighbours(g, {0, 1}) == frozenset({2, 3})
    assert common_neighbours(g, ()) == frozenset(g.vertices)


def test_box_membership():
    g = complete_graph(4)
    assert box_membership(g, {0}, {1})
    assert box_membership(g, {0, 1}, {2, 3})
    assert not box_membership(g, {0}, {0})  # a vertex is not its own neighbour
    c4 = cycle_graph(4)
    assert box_membership(c4, {0, 2}, {1, 3})
    c6 = cycle_graph(6)
    assert not box_membership(c6, {0, 2}, {1, 5})  # 5 is not adjacent to 2


def test_box_membership_empty_side():
    g = cycle_graph(5)
    # an empty side is fine as long as the other side has a common neighbour
    assert box_membership(g, set(), set())
    assert box_membership(g, {0}, set())
    # adjacent vertices of a pentagon share no neighbour, so no cell at all
    assert not box_membership(g, {0, 1}, set())


def test_label_key_orders_mixed_types():
    labels = ["z", 3, (1, 2), 0, ("a", 1)]
    ordered = sorted(labels, key=label_key)
    assert set(ordered[:2]) == {0, 3}


def test_label_key_keys_a_subclass_as_its_base_type_and_refuses_bool():
    class Id(int):
        pass

    class Name(str):
        pass

    Pair = namedtuple("Pair", "a b")
    assert label_key(Id(3)) == label_key(3) == (0, 3)
    assert label_key(Name("a")) == label_key("a") == (1, "a")
    assert label_key(Pair(Id(1), ("x", 2))) == label_key((1, ("x", 2))) == (2, ((0, 1), (2, ((1, "x"), (0, 2)))))
    for label in (True, (1, False), Pair(0, True), 1.5, [1], None):
        with pytest.raises(BadParameters):
            label_key(label)


def test_graph_json_round_trip():
    g = mycielskian(cycle_graph(5), 2)
    obj = json.loads(json.dumps(graph_to_json(g)))
    assert graph_from_json(obj) == g


def _nested(depth: int) -> list:
    """An empty list nested in lists, `depth` lists in all."""
    label: list = []
    for _ in range(depth - 1):
        label = [label]
    return label


def _graph_with_label(label) -> dict:
    """A graph JSON whose vertex [1] is followed in the edges by `label`."""
    return {"vertices": [[1], [2], 3], "edges": [[[1], [2]], [[1], 3], [label, [2]]]}


# Graph JSONs on which the label memo must read what decoding each
# occurrence afresh reads: the same graph, or a ParseError of the same text.
MEMO_CASES = {
    "true after an equal 1": _graph_with_label([True]),
    "1.0 after an equal 1": _graph_with_label([1.0]),
    "a label at the depth limit": {"vertices": [_nested(MAX_LABEL_DEPTH), 0], "edges": [[_nested(MAX_LABEL_DEPTH), 0]] * 2},
    "a label past the depth limit": {"vertices": [0, 1], "edges": [[0, 1], [_nested(MAX_LABEL_DEPTH + 1), 0]]},
    "a label 900 lists deep": {"vertices": [_nested(900), 0], "edges": []},
}


def _read(parse, obj):
    try:
        return parse(obj)
    except ParseError as exc:
        return f"ParseError: {exc}"


def _per_occurrence():
    return lambda obj: graphs._label_inside(obj, 0)


@pytest.mark.parametrize("case", MEMO_CASES)
def test_the_label_memo_reads_what_each_occurrence_reads(monkeypatch, case):
    graph_obj = MEMO_CASES[case]
    hom_obj = {"source": graph_obj, "target": graph_obj, "pairs": [[v, v] for v in graph_obj["vertices"]]}
    memo = [_read(graph_from_json, graph_obj), _read(homomorphism_from_json, hom_obj)]
    monkeypatch.setattr(graphs, "_label_reader", _per_occurrence)
    monkeypatch.setattr(homomorphisms, "_label_reader", _per_occurrence)
    fresh = [_read(graph_from_json, graph_obj), _read(homomorphism_from_json, hom_obj)]
    assert memo == fresh
    assert isinstance(memo[0], Graph) == (case == "a label at the depth limit")


def test_a_repeated_deep_label_is_decoded_once(monkeypatch):
    calls = []
    inside = graphs._label_inside

    def counted(obj, depth):
        calls.append(depth)
        return inside(obj, depth)

    monkeypatch.setattr(graphs, "_label_inside", counted)
    deep = _nested(MAX_LABEL_DEPTH)
    graph = graph_from_json({"vertices": [deep, 0, 1, 2], "edges": [[deep, 0], [1, deep], [deep, 2]]})
    assert graph.m == 3
    # one call per list level of the deep label, then one per int occurrence
    assert len(calls) == MAX_LABEL_DEPTH + 6


def test_dimacs_output():
    g = complete_graph(3)
    text = to_dimacs(g)
    lines = text.strip().splitlines()
    assert "p edge 3 3" in lines
    assert sum(1 for ln in lines if ln.startswith("e ")) == 3


def test_loops_rejected():
    g = Graph()
    g.add_vertex(0)
    with pytest.raises(BadParameters):
        g.add_edge(0, 0)
