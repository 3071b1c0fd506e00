"""Simple graphs with typed labels, standard families, and small utilities.

Labels may be ints, strings, or (nested) tuples of those; `label_key` gives a
total order across the three types so listings stay deterministic.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import combinations, repeat
from typing import Callable, Dict, Iterable, Iterator, Union

from .errors import BadParameters, ParseError, UnknownVertex

Label = Union[int, str, tuple]
# The most lists a label read from JSON may nest; `mycielski_tower(n)` labels nest n - 3.
MAX_LABEL_DEPTH = 64


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
    """Finite simple graph; vertex order is insertion order, which is the
    order of `_adj`'s keys (no vertex is ever removed)."""

    def __init__(self, vertices: Iterable[Label] = (), edges: Iterable[tuple[Label, Label]] = ()) -> None:
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
        return tuple(self._adj)

    @property
    def n(self) -> int:
        return len(self._adj)

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

    def edges(self) -> tuple[tuple[Label, Label], ...]:
        """Each edge once, as (u, v) with u before v in `label_key` order,
        sorted by u and then by v in that order.

        `label_key` is a total order on distinct labels, so each vertex gets
        its integer rank in it, and the nested key tuples are compared only
        by the one sort of the vertices: each vertex's later neighbours are
        its sorted neighbour ranks above its own, cut off by `bisect`."""
        order = self.sorted_vertices()
        rank = {v: i for i, v in enumerate(order)}
        out: list[tuple[Label, Label]] = []
        for i, u in enumerate(order):
            ranks = sorted(map(rank.__getitem__, self._adj[u]))
            out.extend(zip(repeat(u), map(order.__getitem__, ranks[bisect_right(ranks, i) :])))
        return tuple(out)

    def sorted_vertices(self) -> tuple[Label, ...]:
        return tuple(sorted(self._adj, key=label_key))

    # ---- transformations ----

    def relabel(self, mapping: Union[Dict[Label, Label], Callable[[Label], Label]]) -> "Graph":
        f = mapping.__getitem__ if isinstance(mapping, dict) else mapping
        out = Graph()
        new = {}
        for v in self._adj:
            new[v] = f(v)
            out.add_vertex(new[v])
        if len(set(new.values())) != len(new):
            raise BadParameters("relabel map is not injective")
        for u, nbrs in self._adj.items():
            for v in nbrs:
                out.add_edge(new[u], new[v])
        return out

    def copy(self) -> "Graph":
        return Graph(self._adj, self.edges())

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


# ---- serialization ----

def _label_to_json(label: Label):
    if isinstance(label, tuple):
        return [_label_to_json(x) for x in label]
    return label


def _label_from_json(obj) -> Label:
    """The label a JSON value stands for: an int, a string, or a list of
    labels read as a tuple.  ParseError for any other value, and for a label
    that nests more than `MAX_LABEL_DEPTH` lists: the limit sits far below
    the recursion limit, so a label that parses can be written back."""
    return _label_inside(obj, 0)


def _label_inside(obj, depth: int) -> Label:
    """`_label_from_json` of a value that sits inside `depth` lists."""
    if isinstance(obj, list):
        if depth == MAX_LABEL_DEPTH:
            raise ParseError(f"a vertex label nests more than {MAX_LABEL_DEPTH} lists")
        return tuple([_label_inside(x, depth + 1) for x in obj])
    if isinstance(obj, bool) or not isinstance(obj, (int, str)):
        raise ParseError(f"bad vertex label {obj!r}")
    return obj


def graph_to_json(graph: Graph) -> dict:
    """`{"vertices": [...], "edges": [[u, v], ...]}`: each label's JSON
    value in vertex order, and each edge of `Graph.edges` as a pair of
    them.  Every label value is a fresh object, so no two entries share a
    list; `dump_canonical` encodes each distinct label of the edge list
    once."""
    return {
        "vertices": [_label_to_json(v) for v in graph.vertices],
        "edges": [[_label_to_json(u), _label_to_json(v)] for u, v in graph.edges()],
    }


def _json_array(obj, what: str) -> list:
    if not isinstance(obj, list):
        raise ParseError(f"{what} must be a JSON array")
    return obj


def _label_pairs(obj, what: str) -> Iterator[tuple[Label, Label]]:
    """The label pairs of a JSON array of two-label arrays, in order;
    ParseError at the first item that is not one."""
    for item in _json_array(obj, what + "s"):
        if not (isinstance(item, list) and len(item) == 2):
            raise ParseError(f"a {what} must be an array of two labels")
        yield _label_from_json(item[0]), _label_from_json(item[1])


def graph_from_json(obj: dict) -> Graph:
    """The graph a JSON object lists; ParseError unless `vertices` lists
    each vertex once and `edges` joins two listed vertices per edge."""
    try:
        vertices = [_label_from_json(v) for v in _json_array(obj["vertices"], "graph vertices")]
        g = Graph(vertices)
        if g.n != len(vertices):
            raise ParseError("graph JSON lists a vertex twice")
        for u, v in _label_pairs(obj["edges"], "graph edge"):
            g.add_edge(u, v)
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
