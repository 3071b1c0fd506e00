import pytest

from projquad import (
    BoundContradiction,
    BudgetExceeded,
    Graph,
    chromatic_number,
    complete_graph,
    cycle_graph,
    kneser_graph,
    mycielski_graph,
)


def check_certificate(graph, result):
    assert set(result.colouring) == set(graph.vertices)
    assert len(set(result.colouring.values())) == result.chi
    for u, w in graph.edges():
        assert result.colouring[u] != result.colouring[w]


def test_empty_and_edgeless():
    assert chromatic_number(Graph()).chi == 0
    g = Graph(range(4))
    r = chromatic_number(g)
    assert r.chi == 1
    check_certificate(g, r)


def test_complete_graphs():
    for n in (2, 3, 5, 8):
        r = chromatic_number(complete_graph(n))
        assert r.chi == n
        # optimality is certified by the clique bound, so no search ran
        assert not r.exhausted
        assert len(r.clique) == n


def test_cycles():
    assert chromatic_number(cycle_graph(6)).chi == 2
    assert chromatic_number(cycle_graph(7)).chi == 3


def test_petersen():
    r = chromatic_number(kneser_graph(5, 2))
    assert r.chi == 3
    check_certificate(kneser_graph(5, 2), r)


def test_mycielski_chain():
    for n, expected in ((3, 3), (4, 4), (5, 5)):
        g = mycielski_graph(n)
        r = chromatic_number(g)
        assert r.chi == expected
        assert r.exhausted
        check_certificate(g, r)


def test_budget_raises():
    g = mycielski_graph(5)
    with pytest.raises(BudgetExceeded) as info:
        chromatic_number(g, max_nodes=5)
    e = info.value
    assert e.lower <= 5 <= e.upper
    assert e.nodes >= 5
    # the partial colouring, when present, is a proper colouring
    if e.colouring:
        for u, w in g.edges():
            assert e.colouring[u] != e.colouring[w]


def test_disconnected_graph():
    g = Graph(range(6), [(0, 1), (1, 2), (0, 2), (3, 4)])
    r = chromatic_number(g)
    assert r.chi == 3
    check_certificate(g, r)


def test_tuple_labels():
    g = mycielski_graph(4)  # labels are nested tuples and "z"
    r = chromatic_number(g)
    assert r.chi == 4
    check_certificate(g, r)


def test_proof_names_the_bound_that_meets_chi():
    assert chromatic_number(complete_graph(5)).proof == "clique"
    assert chromatic_number(mycielski_graph(4)).proof == "exhaustive"
    # a bound that meets the greedy colouring settles chi without a search
    g = mycielski_graph(5)
    r = chromatic_number(g, topological_bound=5)
    assert (r.chi, r.proof, r.nodes, r.exhausted) == (5, "topological", 0, False)
    check_certificate(g, r)
    exact = chromatic_number(g)
    assert (r.colouring, r.clique) == (exact.colouring, exact.clique)
    # the clique comes first when both bounds meet chi
    assert chromatic_number(complete_graph(4), topological_bound=4).proof == "clique"
    # a weaker bound leaves the search to prove optimality
    weak = chromatic_number(g, topological_bound=3)
    assert (weak.chi, weak.proof, weak.exhausted, weak.nodes) == (5, "exhaustive", True, exact.nodes)


def test_bound_above_a_found_colouring_raises():
    with pytest.raises(BoundContradiction):
        chromatic_number(cycle_graph(6), topological_bound=3)
    with pytest.raises(BoundContradiction):
        chromatic_number(mycielski_graph(4), topological_bound=5)
    with pytest.raises(BoundContradiction):
        chromatic_number(Graph(), topological_bound=2)


def test_budget_bracket_uses_the_bound():
    with pytest.raises(BudgetExceeded) as info:
        chromatic_number(mycielski_graph(5), max_nodes=5, topological_bound=4)
    assert info.value.lower == 4
