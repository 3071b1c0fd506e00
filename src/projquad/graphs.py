"""Simple graphs with typed labels, standard families, and small utilities.

Labels may be ints, strings, or (nested) tuples of those; `label_key` gives a
total order across the three types so listings stay deterministic.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from typing import Callable, Dict, Iterable, Optional, Union

from .errors import BadParameters, ParseError, UnknownVertex

Label = Union[int, str, tuple]


def label_key(label: Label):
    """Sort key usable across int/str/tuple labels (tuples recurse)."""
    if isinstance(label, bool):
        raise BadParameters("bool is not a vertex label")
    if isinstance(label, int):
        return (0, label)
    if isinstance(label, str):
        return (1, label)
    if isinstance(label, tuple):
        return (2, tuple(label_key(x) for x in label))
    raise BadParameters(f"unsupported label type {type(label).__name__}")


class Graph:
    """Finite simple graph; vertex order is insertion order."""

    def __init__(self, vertices: Iterable[Label] = (), edges: Iterable[tuple[Label, Label]] = ()) -> None:
        self._order: list[Label] = []
        self._adj: Dict[Label, set[Label]] = {}
        self._m = 0
        for v in vertices:
            self.add_vertex(v)
        for u, v in edges:
            self.add_edge(u, v)

    def add_vertex(self, v: Label) -> None:
        label_key(v)
        if v not in self._adj:
            self._adj[v] = set()
            self._order.append(v)

    def add_edge(self, u: Label, v: Label) -> None:
        if u == v:
            raise BadParameters(f"loop at {u!r}")
        for x in (u, v):
            if x not in self._adj:
                raise UnknownVertex(repr(x))
        if v not in self._adj[u]:
            self._adj[u].add(v)
            self._adj[v].add(u)
            self._m += 1

    # ---- accessors ----

    @property
    def vertices(self) -> tuple[Label, ...]:
        return tuple(self._order)

    @property
    def n(self) -> int:
        return len(self._order)

    @property
    def m(self) -> int:
        return self._m

    def __contains__(self, v: Label) -> bool:
        return v in self._adj

    def has_edge(self, u: Label, v: Label) -> bool:
        return u in self._adj and v in self._adj[u]

    def neighbors(self, v: Label) -> frozenset[Label]:
        if v not in self._adj:
            raise UnknownVertex(repr(v))
        return frozenset(self._adj[v])

    def degree(self, v: Label) -> int:
        return len(self._adj[v])

    def edges(self) -> tuple[tuple[Label, Label], ...]:
        key = {v: label_key(v) for v in self._order}
        seen = set()
        for u in self._order:
            for v in self._adj[u]:
                seen.add((u, v) if key[u] < key[v] else (v, u))
        return tuple(sorted(seen, key=lambda e: (key[e[0]], key[e[1]])))

    def sorted_vertices(self) -> tuple[Label, ...]:
        return tuple(sorted(self._order, key=label_key))

    # ---- transformations ----

    def relabel(self, mapping: Union[Dict[Label, Label], Callable[[Label], Label]]) -> "Graph":
        f = mapping.__getitem__ if isinstance(mapping, dict) else mapping
        out = Graph()
        new = {}
        for v in self._order:
            new[v] = f(v)
            out.add_vertex(new[v])
        if len(set(new.values())) != len(new):
            raise BadParameters("relabel map is not injective")
        for u in self._order:
            for v in self._adj[u]:
                out.add_edge(new[u], new[v])
        return out

    def copy(self) -> "Graph":
        return Graph(self._order, self.edges())

    # ---- predicates and invariants ----

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


# ---- families ----

def complete_graph(n: int) -> Graph:
    if n < 1:
        raise BadParameters("complete graph needs n >= 1")
    g = Graph(range(n))
    for u, v in combinations(range(n), 2):
        g.add_edge(u, v)
    return g


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise BadParameters("cycle needs n >= 3")
    g = Graph(range(n))
    for i in range(n):
        g.add_edge(i, (i + 1) % n)
    return g


def kneser_graph(n: int, k: int) -> Graph:
    """Disjointness graph on the k-subsets of {1..n}."""
    if not (n >= 2 * k >= 2):
        raise BadParameters("kneser graph needs n >= 2k >= 2")
    verts = [tuple(s) for s in combinations(range(1, n + 1), k)]
    g = Graph(verts)
    for a, b in combinations(verts, 2):
        if not set(a) & set(b):
            g.add_edge(a, b)
    return g


def schrijver_graph(n: int, k: int) -> Graph:
    """Disjointness graph on the stable k-subsets of {1..n}.

    Stable: no two elements cyclically adjacent (i, i+1 and n, 1 both banned).
    The vertices are in lexicographic order.  Subtracting i from the i-th
    element (from 0) maps the k-subsets with gaps of at least 2 onto the
    k-subsets of [n-k+1], preserving that order, so the enumeration costs
    C(n-k+1, k), at most about twice the vertex count, and not C(n, k).
    """
    if not (n >= 2 * k >= 2):
        raise BadParameters("schrijver graph needs n >= 2k >= 2")
    spread = (tuple(b + i for i, b in enumerate(s)) for s in combinations(range(1, n - k + 2), k))
    verts = [s for s in spread if not (s[0] == 1 and s[-1] == n)]
    g = Graph(verts)
    for a, b in combinations(verts, 2):
        if not set(a) & set(b):
            g.add_edge(a, b)
    return g


def mycielskian(graph: Graph, r: int = 2) -> Graph:
    """The r-level cone extension that raises chromatic number by one.

    Vertex v of the input appears as (v, i) for each level i in 1..r; the
    level-r layer carries a copy of the input graph, consecutive layers are
    joined along input edges ((v, i) ~ (w, i-1) whenever vw is an edge), and
    the apex "z" is adjacent to the whole level-1 layer.  r=1 just adds a
    universal vertex; r=2 is the classical construction.
    """
    if r < 1:
        raise BadParameters("mycielskian needs r >= 1")
    out = Graph()
    for i in range(1, r + 1):
        for v in graph.vertices:
            out.add_vertex((v, i))
    out.add_vertex("z")
    for u, v in graph.edges():
        out.add_edge((u, r), (v, r))
        for i in range(2, r + 1):
            out.add_edge((u, i), (v, i - 1))
            out.add_edge((v, i), (u, i - 1))
    for v in graph.vertices:
        out.add_edge((v, 1), "z")
    return out


def mycielski_graph(n: int) -> Graph:
    """Canonical chromatic-number-n member of the iterated family.

    n=3 is the 5-cycle, n=4 the 11-vertex triangle-free 4-chromatic graph,
    and so on by repeatedly applying the two-level `mycielskian`.
    """
    if n < 3:
        raise BadParameters("family starts at n = 3")
    g = cycle_graph(5)
    for _ in range(n - 3):
        g = mycielskian(g, 2)
    return g


# ---- utilities ----

def common_neighbours(graph: Graph, subset: Iterable[Label]) -> frozenset[Label]:
    """CN(S): vertices adjacent to everything in S; CN(empty) is all vertices."""
    items = list(subset)
    if not items:
        return frozenset(graph.vertices)
    acc = set(graph.neighbors(items[0]))
    for v in items[1:]:
        acc &= graph.neighbors(v)
    return frozenset(acc)


def box_membership(graph: Graph, a1: Iterable[Label], a2: Iterable[Label]) -> bool:
    """Whether the pair (A1, A2) spans a cell of the graph's box complex.

    Membership requires A1 inside the common neighbourhood of A2 and vice
    versa, with both common neighbourhoods non-empty (CN(empty) is every
    vertex, so an empty side only needs the other side to have a common
    neighbour).
    """
    s1, s2 = frozenset(a1), frozenset(a2)
    cn2 = common_neighbours(graph, s2)
    cn1 = common_neighbours(graph, s1)
    return s1 <= cn2 and s2 <= cn1 and bool(cn1) and bool(cn2)


def is_bipartite(graph: Graph) -> tuple[bool, Optional[Dict[Label, int]]]:
    side: Dict[Label, int] = {}
    for start in graph.vertices:
        if start in side:
            continue
        side[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in graph.neighbors(u):
                if w not in side:
                    side[w] = side[u] ^ 1
                    queue.append(w)
                elif side[w] == side[u]:
                    return False, None
    return True, side


def odd_girth(graph: Graph) -> Optional[int]:
    """Length of a shortest odd cycle, or None if the graph is bipartite.

    BFS in the bipartite double cover: the distance from (v, 0) to (v, 1)
    is the length of a shortest odd closed walk through v, and the minimum
    over v of that quantity is attained on a shortest odd cycle.
    """
    best: Optional[int] = None
    for start in graph.vertices:
        dist = {(start, 0): 0}
        queue = deque([(start, 0)])
        while queue:
            u, p = queue.popleft()
            if best is not None and dist[(u, p)] >= best:
                continue
            for w in graph.neighbors(u):
                node = (w, p ^ 1)
                if node not in dist:
                    dist[node] = dist[(u, p)] + 1
                    queue.append(node)
        d = dist.get((start, 1))
        if d is not None and (best is None or d < best):
            best = d
    return best


# ---- serialization ----

def _label_to_json(label: Label):
    if isinstance(label, tuple):
        return [_label_to_json(x) for x in label]
    return label


def _label_from_json(obj) -> Label:
    if isinstance(obj, list):
        return tuple(_label_from_json(x) for x in obj)
    if isinstance(obj, bool) or not isinstance(obj, (int, str)):
        raise ParseError(f"bad vertex label {obj!r}")
    return obj


def graph_to_json(graph: Graph) -> dict:
    return {
        "vertices": [_label_to_json(v) for v in graph.vertices],
        "edges": [[_label_to_json(u), _label_to_json(v)] for u, v in graph.edges()],
    }


def graph_from_json(obj: dict) -> Graph:
    try:
        g = Graph(_label_from_json(v) for v in obj["vertices"])
        for u, v in obj["edges"]:
            g.add_edge(_label_from_json(u), _label_from_json(v))
        return g
    except ParseError:
        raise
    except (UnknownVertex, BadParameters) as exc:
        raise ParseError(f"graph JSON edge is a loop or names an unknown vertex: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed graph JSON: {exc}") from exc


def to_dimacs(graph: Graph) -> str:
    """DIMACS edge format; vertices are numbered 1..n in stored order."""
    index = {v: i + 1 for i, v in enumerate(graph.vertices)}
    lines = [f"c vertex {i + 1} label {v!r}" for i, v in enumerate(graph.vertices)]
    lines.append(f"p edge {graph.n} {graph.m}")
    for u, v in graph.edges():
        a, b = index[u], index[v]
        lines.append(f"e {min(a, b)} {max(a, b)}")
    return "\n".join(lines) + "\n"
