"""Exact chromatic number by saturation-guided branch and bound."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

from .errors import BoundContradiction, BudgetExceeded
from .graphs import Graph, Label


@dataclass(frozen=True)
class ChiResult:
    """Exact chromatic number with a validated colouring certificate.

    `exhausted` is True when optimality was proven by exhausting the search
    for one colour fewer (rather than by a lower bound matching).  `proof`
    names the lower bound that meets `chi`: "clique" when the clique does,
    else "topological" when the topological bound does, else "exhaustive".
    `colouring` lists the vertices in label order (`Graph.sorted_vertices`).
    """

    chi: int
    colouring: Dict[Label, int]
    clique: tuple[Label, ...]
    nodes: int
    exhausted: bool
    proof: str


class _StopSearch(Exception):
    pass


class _Search:
    """Depth-first search over the indexed graph, with its incumbent and budget."""

    def __init__(
        self,
        adj: list[set[int]],
        degrees: list[int],
        lb: int,
        incumbent: list[int],
        deadline: Optional[float],
        max_nodes: Optional[int],
    ) -> None:
        self.adj = adj
        self.n = len(adj)
        self.degrees = degrees
        self.lb = lb
        self.best_k = max(incumbent) + 1
        self.best_col = incumbent
        self.deadline = deadline
        self.max_nodes = max_nodes
        self.nodes = 0
        self.col = [-1] * self.n
        self.sat: list[dict[int, int]] = [dict() for _ in range(self.n)]
        self.uncoloured = set(range(self.n))
        self.max_used = -1
        self.pending = 0

    def charge(self, n: int) -> None:
        self.nodes += n
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise _StopSearch()
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _StopSearch()

    def assign(self, v: int, c: int) -> None:
        self.col[v] = c
        self.uncoloured.discard(v)
        for w in self.adj[v]:
            if self.col[w] == -1:
                self.sat[w][c] = self.sat[w].get(c, 0) + 1

    def unassign(self, v: int, c: int) -> None:
        self.col[v] = -1
        self.uncoloured.add(v)
        for w in self.adj[v]:
            if self.col[w] == -1:
                k = self.sat[w][c] - 1
                if k:
                    self.sat[w][c] = k
                else:
                    del self.sat[w][c]

    def pick(self) -> int:
        return max(self.uncoloured, key=lambda v: (len(self.sat[v]), self.degrees[v], -v))

    def run(self) -> None:
        self.pending += 1
        if self.pending >= 128:
            self.charge(self.pending)
            self.pending = 0
        if not self.uncoloured:
            if self.max_used + 1 < self.best_k:
                self.best_k = self.max_used + 1
                self.best_col = list(self.col)
            return
        ub = self.best_k
        if self.max_used + 1 >= ub or self.lb >= ub:
            return
        v = self.pick()
        limit = min(self.max_used + 1, ub - 2)
        neighbour_colours = self.sat[v]
        for c in range(limit + 1):
            if c in neighbour_colours:
                continue
            prev_max = self.max_used
            self.max_used = max(self.max_used, c)
            self.assign(v, c)
            self.run()
            self.unassign(v, c)
            self.max_used = prev_max
            if self.lb >= self.best_k:
                return


def _greedy_clique(adj: list[set[int]], degrees: list[int]) -> list[int]:
    order = sorted(range(len(adj)), key=lambda v: (-degrees[v], v))
    clique: list[int] = []
    for v in order:
        if all(v in adj[u] for u in clique):
            clique.append(v)
    return clique


def _greedy_colouring(adj: list[set[int]], degrees: list[int]) -> list[int]:
    n = len(adj)
    col = [-1] * n
    sat: list[set[int]] = [set() for _ in range(n)]
    for _ in range(n):
        v = max((u for u in range(n) if col[u] == -1), key=lambda u: (len(sat[u]), degrees[u], -u))
        c = 0
        while c in sat[v]:
            c += 1
        col[v] = c
        for w in adj[v]:
            if col[w] == -1:
                sat[w].add(c)
    return col


def _validate(adj: list[set[int]], col: list[int], k: int) -> None:
    if any(c < 0 or c >= k for c in col):
        raise RuntimeError("certificate colours out of range")
    for v, nbrs in enumerate(adj):
        for w in nbrs:
            if col[v] == col[w]:
                raise RuntimeError(f"certificate colours an edge ({v}, {w}) monochromatically")


def chromatic_number(
    graph: Graph,
    budget_ms: Optional[int] = None,
    max_nodes: Optional[int] = None,
    topological_bound: Optional[int] = None,
) -> ChiResult:
    """Exact chromatic number with certificate, lower bounds, and budget.

    Deterministic for a given graph: vertices are indexed in label order,
    branching always picks the most saturated vertex (ties: higher degree,
    then lower index) and tries colours in increasing order, never more than
    one beyond those already used.  The search starts from a greedy
    (DSATUR) colouring and stops as soon as a lower bound meets the best
    colouring, so no search runs when the greedy colouring already meets it.
    The budgets bound the search only.  Raises BudgetExceeded with the
    bracket found so far when the node or time budget runs out.

    The lower bound is the larger of a greedy clique and `topological_bound`,
    a bound proved elsewhere and taken on trust: a proper colouring found
    with fewer colours raises BoundContradiction, but a false bound that no
    colouring found falls below is reported as met.

    `projquad chi` passes the topological bound chi >= n + 2 of a stored
    bundle whose complex has dimension n, and only when every audit entry of
    the re-verified bundle passes.  The bound is the chain

        chi(G) >= ind B(G) + 2 >= h(B(G)) + 2 >= n + 2

    (Matousek and Ziegler, "Topological lower bounds for the chromatic
    number: a hierarchy", 2004; Kaiser and Stehlik, arXiv:1310.5875), where
    B(G) is the box complex, ind its Z2-index and h its Stiefel-Whitney
    height.  Its hypotheses and the audits that discharge them:

    - the complex X is a mod-2 homology n-sphere, hence of Stiefel-Whitney
      height n under any free involution: `sphere`;
    - the involution on X is free: `involution-valid` and `antipodal-free`;
    - the vertex map v -> (label(v), colour(v)) is a simplicial map
      X -> B(G): `box-map`; it is equivariant, so that h(B(G)) >= h(X),
      because labels are constant on antipodal pairs and the colouring
      swaps them: `labels-on-orbits` and `colouring-antisymmetric`;
    - B(G) is built from the graph being coloured, the stored graph.json:
      `graph-matches-expected`.
    """
    verts = graph.sorted_vertices()
    n = len(verts)
    if n == 0:
        if topological_bound is not None and topological_bound > 0:
            raise BoundContradiction(f"the empty graph contradicts the topological bound {topological_bound}")
        return ChiResult(0, {}, (), 0, False, "clique")
    index = {v: i for i, v in enumerate(verts)}
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in graph.edges():
        adj[index[u]].add(index[v])
        adj[index[v]].add(index[u])
    degrees = [len(a) for a in adj]

    clique = _greedy_clique(adj, degrees)
    lb = max(len(clique), topological_bound or 0)
    deadline = time.monotonic() + budget_ms / 1000.0 if budget_ms is not None else None
    search = _Search(adj, degrees, lb, _greedy_colouring(adj, degrees), deadline, max_nodes)

    if search.best_k > lb:
        for c, v in enumerate(clique):
            search.max_used = c
            search.assign(v, c)
        try:
            search.run()
            search.charge(search.pending)
        except _StopSearch:
            if search.best_k >= lb:  # else the bound is contradicted, below
                witness = {verts[i]: search.best_col[i] for i in range(n)}
                raise BudgetExceeded(lower=lb, upper=search.best_k, colouring=witness, nodes=search.nodes)

    chi = search.best_k
    _validate(adj, search.best_col, chi)
    if chi < lb:
        raise BoundContradiction(f"a proper {chi}-colouring contradicts the topological bound {topological_bound}")
    if chi == len(clique):
        proof = "clique"
    elif chi == lb:
        proof = "topological"
    else:
        proof = "exhaustive"
    colouring = {verts[i]: search.best_col[i] for i in range(n)}
    return ChiResult(
        chi, colouring, tuple(verts[i] for i in clique), search.nodes, proof == "exhaustive", proof
    )
