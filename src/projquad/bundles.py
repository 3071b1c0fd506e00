"""Directory bundles: canonical on-disk form of a verified symmetric sphere.

A bundle directory holds complex.json, involution.json, colouring.json,
graph.json (identified graph plus one representative vertex per label),
report.json (the audit trail from construction), and optionally
homomorphism.json.  Files are written in a canonical JSON form so that
repeated builds are byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from .audits import verify_sphere_quadrangulation
from .complexes import Complex, complex_from_json, complex_to_json, dump_canonical
from .constructions import SphereQuad, _finish_sphere
from .errors import ParseError, VerificationFailed
from .graphs import Graph, _label_from_json, _label_to_json, graph_from_json, graph_to_json, label_key
from .homomorphisms import Homomorphism, homomorphism_from_json, homomorphism_to_json, verify_homomorphism
from .symmetry import Involution, TwoColouring
from .validation import AuditEntry, AuditReport, Violation

PathLike = Union[str, Path]


@dataclass(frozen=True)
class Bundle:
    """The parsed contents of a bundle directory."""

    complex: Complex
    involution: Involution
    colouring: TwoColouring
    graph: Graph
    orbit_reps: dict
    report: list
    homomorphism: Optional[Homomorphism] = None


def _orbit_reps(sq: SphereQuad) -> dict:
    reps: dict = {}
    for v in sorted(sq.labels):
        reps.setdefault(sq.labels[v], v)
    return reps


def write_bundle(path: PathLike, sq: SphereQuad, homomorphism: Optional[Homomorphism] = None) -> Path:
    """Write the sphere (with its audit report) as a directory of canonical
    JSON files; returns the directory path."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    reps = _orbit_reps(sq)
    graph_obj = graph_to_json(sq.graph)
    graph_obj["orbit_reps"] = [
        [_label_to_json(lab), reps[lab]] for lab in sorted(reps, key=label_key)
    ]
    files = {
        "complex.json": complex_to_json(sq.complex),
        "involution.json": sq.involution.to_json(),
        "colouring.json": sq.colouring.to_json(),
        "graph.json": graph_obj,
        "report.json": sq.report.to_json(),
    }
    if homomorphism is not None:
        files["homomorphism.json"] = homomorphism_to_json(homomorphism)
    for name, obj in files.items():
        (out / name).write_text(dump_canonical(obj), encoding="utf-8")
    return out


def _read_json(path: Path) -> object:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path} is not valid JSON: {e}") from e


def load_bundle(path: PathLike) -> Bundle:
    root = Path(path)
    if not root.is_dir():
        raise ParseError(f"{root} is not a bundle directory")
    complex = complex_from_json(_read_json(root / "complex.json"))
    involution = Involution.from_json(_read_json(root / "involution.json"))
    colouring = TwoColouring.from_json(_read_json(root / "colouring.json"))
    graph_obj = _read_json(root / "graph.json")
    if not isinstance(graph_obj, dict):
        raise ParseError("graph.json must be an object")
    graph = graph_from_json(graph_obj)
    reps_raw = graph_obj.get("orbit_reps", [])
    if not isinstance(reps_raw, list):
        raise ParseError("orbit_reps must be a list of [label, vertex] pairs")
    orbit_reps: dict = {}
    for pair in reps_raw:
        if not (isinstance(pair, list) and len(pair) == 2 and type(pair[1]) is int):
            raise ParseError("orbit_reps must be a list of [label, vertex] pairs")
        orbit_reps[_label_from_json(pair[0])] = pair[1]
    report = _read_json(root / "report.json")
    if not isinstance(report, list):
        raise ParseError("report.json must be a list of audit entries")
    hom = None
    hom_path = root / "homomorphism.json"
    if hom_path.exists():
        hom = homomorphism_from_json(_read_json(hom_path))
    return Bundle(complex, involution, colouring, graph, orbit_reps, report, hom)


def _labels_from_reps(bundle: Bundle) -> Optional[dict]:
    """Vertex labels from the stored orbit representatives, or None when the
    representatives miss an orbit."""
    labels: dict = {}
    for lab, rep in bundle.orbit_reps.items():
        if not 0 <= rep < bundle.complex.n_vertices:
            return None
        labels[rep] = lab
        partner = bundle.involution.vertex_or_none(rep)
        if partner is None:
            return None
        labels[partner] = lab
    if len(labels) != bundle.complex.n_vertices:
        return None
    return labels


_REPS_MISS_AN_ORBIT = AuditReport(
    (
        AuditEntry(
            "orbit-reps-cover",
            False,
            (Violation(code="OrbitRepsIncomplete", detail="stored representatives do not cover every vertex orbit"),),
        ),
    )
)


def verify_bundle(bundle: Bundle, *, seed: int = 0, n_walks: int = 100) -> AuditReport:
    """Re-run the full audit stack on a loaded bundle and cross-check the
    result against its stored graph and report."""
    labels = _labels_from_reps(bundle)
    if labels is None:
        return _REPS_MISS_AN_ORBIT
    report, _ = verify_sphere_quadrangulation(
        bundle.complex,
        bundle.involution,
        bundle.colouring,
        labels=labels,
        expected_graph=bundle.graph,
        n_walks=n_walks,
        seed=seed,
    )
    extra = []
    stored = {}
    consistent = True
    detail = ""
    for item in bundle.report:
        if isinstance(item, dict) and isinstance(item.get("name"), str) and isinstance(item.get("ok"), bool):
            stored[item["name"]] = item["ok"]
        else:
            consistent = False
            detail = "malformed stored entry"
    if not all(v for v in stored.values()):
        consistent = False
        detail = "stored report records a failure"
    for e in report.entries:
        if e.name in stored and stored[e.name] != e.ok:
            consistent = False
            detail = f"entry {e.name} disagrees with the stored report"
    extra.append(
        AuditEntry(
            "report-consistent",
            consistent,
            () if consistent else (Violation(code="StoredReportMismatch", detail=detail),),
        )
    )
    if bundle.homomorphism is not None:
        hom_report = verify_homomorphism(bundle.homomorphism)
        extra.append(AuditEntry("homomorphism-valid", hom_report.ok, hom_report.violations))
        extra.append(
            AuditEntry(
                "homomorphism-source-matches",
                bundle.homomorphism.source == bundle.graph,
                ()
                if bundle.homomorphism.source == bundle.graph
                else (Violation(code="HomomorphismSourceMismatch", detail="source graph differs from graph.json"),),
            )
        )
    return AuditReport(tuple(report.entries) + tuple(extra))


def sphere_quad_from_bundle(path: PathLike) -> SphereQuad:
    """Reconstruct a verified SphereQuad from a stored bundle (re-auditing
    it; raises VerificationFailed if the stored data no longer passes)."""
    bundle = load_bundle(path)
    labels = _labels_from_reps(bundle)
    if labels is None:
        raise VerificationFailed("stored bundle: failing audits: orbit-reps-cover", _REPS_MISS_AN_ORBIT)
    return _finish_sphere(
        bundle.complex,
        bundle.involution,
        bundle.colouring,
        labels,
        expected_graph=bundle.graph,
        what="stored bundle",
    )
