"""Graph homomorphisms, with verified maps into the stable-subset family."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Dict

from .errors import BadParameters, ParseError
from .graphs import (
    Graph,
    Label,
    _label_pairs,
    _label_to_json,
    cycle_graph,
    graph_from_json,
    graph_to_json,
    mycielskian,
    schrijver_graph,
)
from .validation import AuditEntry, ValidationReport, Violation


@dataclass(frozen=True)
class Homomorphism:
    source: Graph
    target: Graph
    mapping: Dict[Label, Label]

    def __call__(self, v: Label) -> Label:
        return self.mapping[v]


def verify_homomorphism(hom: Homomorphism) -> ValidationReport:
    """Empty report iff the mapping is a graph homomorphism.

    Checks totality on the source, membership of every image in the target,
    and edge preservation (collapsed edges included).
    """
    violations = []
    for v in hom.source.vertices:
        if v not in hom.mapping:
            violations.append(Violation("UnmappedVertex", detail=repr(v)))
        elif hom.mapping[v] not in hom.target:
            violations.append(Violation("UnknownVertex", detail=f"{v!r} -> {hom.mapping[v]!r} not in target"))
    if violations:
        return ValidationReport.collect(violations)
    for u, v in hom.source.edges():
        fu, fv = hom.mapping[u], hom.mapping[v]
        if fu == fv:
            violations.append(Violation("EdgeNotPreserved", detail=f"edge ({u!r}, {v!r}) collapses to {fu!r}"))
        elif not hom.target.has_edge(fu, fv):
            violations.append(Violation("EdgeNotPreserved", detail=f"({u!r}, {v!r}) -> ({fu!r}, {fv!r}) not an edge"))
    return ValidationReport.collect(violations)


def _is_schrijver_target(target: Graph, dim: int) -> bool:
    """Whether a homomorphism's target is SG(n, k), the stable Kneser graph
    that a Schrijver sphere of dimension `dim` = n - 2k maps into.  k is the
    one length of the target's labels, which must be tuples of ints with
    k >= 1.  The vertex count n/(n-k) * C(n-k, k) is compared before
    SG(n, k) is built, so a tampered target cannot make the check build a
    graph larger than itself."""
    sizes = {len(v) if isinstance(v, tuple) and all(type(x) is int for x in v) else 0 for v in target.vertices}
    k = sizes.pop() if len(sizes) == 1 else 0
    n = dim + 2 * k
    return (
        k >= 1
        and dim >= 0
        and target.n == comb(n - k, k) + comb(n - k - 1, k - 1)
        and target == schrijver_graph(n, k)
    )


def homomorphism_entries(hom: Homomorphism, graph: Graph, dim: int) -> tuple[AuditEntry, ...]:
    """The one verdict on a Schrijver homomorphism from `graph`, the
    identified graph of a sphere of dimension `dim`:
    `homomorphism-valid` (it is a homomorphism),
    `homomorphism-source-matches` (its source is `graph`) and
    `homomorphism-target-matches` (its target is SG(dim + 2k, k), see
    `_is_schrijver_target`).  `build schrijver`, `verify` and `hom-check` on
    a bundle directory all read these entries."""
    hom_report = verify_homomorphism(hom)
    same = hom.source == graph
    mismatch = Violation(code="HomomorphismSourceMismatch", detail="source graph differs from graph.json")
    sg = _is_schrijver_target(hom.target, dim)
    not_sg = Violation(code="HomomorphismTargetMismatch", detail="target is not SG(dim + 2k, k), k its label length")
    return (
        AuditEntry("homomorphism-valid", hom_report.ok, hom_report.violations),
        AuditEntry("homomorphism-source-matches", same, () if same else (mismatch,)),
        AuditEntry("homomorphism-target-matches", sg, () if sg else (not_sg,)),
    )


def compose_homomorphisms(outer: Homomorphism, inner: Homomorphism) -> Homomorphism:
    if inner.target != outer.source:
        raise BadParameters("composition mismatch: inner target differs from outer source")
    mapping = {v: outer.mapping[inner.mapping[v]] for v in inner.source.vertices}
    return Homomorphism(inner.source, outer.target, mapping)


def lift_homomorphism(hom: Homomorphism, r: int) -> Homomorphism:
    """Apply the r-level cone construction functorially: (v, i) -> (f(v), i)."""
    source = mycielskian(hom.source, r)
    target = mycielskian(hom.target, r)
    mapping: Dict[Label, Label] = {"z": "z"}
    for v in hom.source.vertices:
        for i in range(1, r + 1):
            mapping[(v, i)] = (hom.mapping[v], i)
    return Homomorphism(source, target, mapping)


def cycle_to_stable_sets(k: int) -> Homomorphism:
    """The isomorphism from the (2k+1)-cycle onto the stable k-subsets of [2k+1]."""
    if k < 1:
        raise BadParameters("needs k >= 1")
    m = 2 * k + 1
    source = cycle_graph(m)
    target = schrijver_graph(m, k)
    mapping = {j: tuple(sorted(((j + 2 * t) % m) + 1 for t in range(k))) for j in range(m)}
    return Homomorphism(source, target, mapping)


def _level_image(a: tuple[int, ...], j: int, n: int, k: int) -> tuple[int, ...]:
    """Image in the stable k-subsets of [n] of the level-j copy of the
    stable subset a of [n-1] (levels run 1..k, k being the outermost copy)."""
    if (k - j) % 2 == 0:
        i = (k - j) // 2
        head = range(1, 2 * i, 2)
        mid = a[i : k - i]
        tail = range(n - 2 * i + 1, n, 2)
    else:
        i = (k - j - 1) // 2
        head = range(2, 2 * i + 1, 2)
        mid = a[i : k - i - 1] if a[0] > 1 else a[i + 1 : k - i]
        tail = range(n - 2 * i, n + 1, 2)
    return tuple(sorted([*head, *mid, *tail]))


def _apex_image(n: int, k: int) -> tuple[int, ...]:
    if k % 2 == 0:
        return tuple(sorted([*range(1, k, 2), *range(n - k + 1, n, 2)]))
    return tuple(sorted([*range(2, k, 2), *range(n - k + 1, n + 1, 2)]))


def schrijver_homomorphism(n: int, k: int) -> Homomorphism:
    """From the k-level cone over the stable k-subsets of [n-1] into the
    stable k-subsets of [n]."""
    if not (k >= 1 and n >= 2 * k + 1):
        raise BadParameters("needs n >= 2k + 1 and k >= 1")
    source = mycielskian(schrijver_graph(n - 1, k), k)
    target = schrijver_graph(n, k)
    mapping: Dict[Label, Label] = {"z": _apex_image(n, k)}
    for v in source.vertices:
        if v == "z":
            continue
        subset, level = v
        mapping[v] = _level_image(tuple(subset), level, n, k)
    return Homomorphism(source, target, mapping)


def iterated_schrijver_homomorphism(n: int, k: int) -> Homomorphism:
    """From the (n-2k-1)-fold k-level cone tower over the (2k+1)-cycle into
    the stable k-subsets of [n], by composing the one-step maps."""
    if not (k >= 1 and n >= 2 * k + 1):
        raise BadParameters("needs n >= 2k + 1 and k >= 1")
    hom = cycle_to_stable_sets(k)
    for m in range(2 * k + 2, n + 1):
        hom = compose_homomorphisms(schrijver_homomorphism(m, k), lift_homomorphism(hom, k))
    return hom


# ---- interchange ----

def homomorphism_to_json(hom: Homomorphism) -> dict:
    pairs = sorted(
        ([_label_to_json(v), _label_to_json(hom.mapping[v])] for v in hom.source.vertices),
        key=lambda p: str(p),
    )
    return {
        "pairs": pairs,
        "source": graph_to_json(hom.source),
        "target": graph_to_json(hom.target),
    }


def homomorphism_from_json(obj: dict) -> Homomorphism:
    try:
        source = graph_from_json(obj["source"])
        target = graph_from_json(obj["target"])
        mapping = {}
        for src, dst in _label_pairs(obj["pairs"], "homomorphism pair"):
            if src in mapping:
                raise ParseError(f"homomorphism pairs map the source label {src!r} twice")
            mapping[src] = dst
        return Homomorphism(source, target, mapping)
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed homomorphism JSON: {exc}") from exc
