import json
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
    mycielski_graph,
    mycielskian,
    schrijver_graph,
    to_dimacs,
)
from projquad.errors import BadParameters
from projquad.graphs import common_neighbours, is_bipartite, label_key, odd_girth


def test_complete_and_cycle_counts():
    k5 = complete_graph(5)
    assert k5.n == 5 and k5.m == 10
    c7 = cycle_graph(7)
    assert c7.n == 7 and c7.m == 7
    assert all(c7.degree(v) == 2 for v in c7.vertices)
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
    apex_deg = g.degree("z")
    assert apex_deg == 5
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
    assert g.degree("z") == 5
    assert odd_girth(g) == 3


def test_mycielski_graph_chain():
    g3 = mycielski_graph(3)
    assert g3 == cycle_graph(5)
    g4 = mycielski_graph(4)
    assert g4.n == 11 and g4.m == 20
    g5 = mycielski_graph(5)
    assert g5.n == 23 and g5.m == 71
    # triangle-free at every stage
    assert odd_girth(g4) == 5
    assert odd_girth(g5) == 5
    with pytest.raises(BadParameters):
        mycielski_graph(2)


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


def test_is_bipartite_and_odd_girth():
    even = cycle_graph(6)
    ok, side = is_bipartite(even)
    assert ok
    assert side is not None
    odd = cycle_graph(9)
    ok, side = is_bipartite(odd)
    assert not ok and side is None
    assert odd_girth(odd) == 9
    assert odd_girth(even) is None


def test_label_key_orders_mixed_types():
    labels = ["z", 3, (1, 2), 0, ("a", 1)]
    ordered = sorted(labels, key=label_key)
    assert set(ordered[:2]) == {0, 3}


def test_graph_json_round_trip():
    g = mycielskian(cycle_graph(5), 2)
    obj = json.loads(json.dumps(graph_to_json(g)))
    assert graph_from_json(obj) == g


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
