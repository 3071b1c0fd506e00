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
from math import comb
from pathlib import Path
from typing import Optional, Union

from .audits import verify_sphere_quadrangulation
from .complexes import Complex, complex_from_json, dump_canonical, dump_complex
from .constructions import SphereQuad, _sphere_quad
from .errors import ParseError
from .graphs import Graph, _label_from_json, _label_to_json, graph_from_json, graph_to_json, label_key, schrijver_graph
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
    JSON files; returns the directory path.  A `homomorphism.json` left in
    the directory by an earlier bundle is removed when there is no
    homomorphism to write."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    reps = _orbit_reps(sq)
    graph_obj = graph_to_json(sq.graph)
    graph_obj["orbit_reps"] = [
        [_label_to_json(lab), reps[lab]] for lab in sorted(reps, key=label_key)
    ]
    files = {
        "involution.json": sq.involution.to_json(),
        "colouring.json": sq.colouring.to_json(),
        "graph.json": graph_obj,
        "report.json": sq.report.to_json(),
    }
    if homomorphism is not None:
        files["homomorphism.json"] = homomorphism_to_json(homomorphism)
    else:
        (out / "homomorphism.json").unlink(missing_ok=True)
    (out / "complex.json").write_text(dump_complex(sq.complex), encoding="utf-8")
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


def _report_consistent(stored: list, rerun: AuditReport) -> AuditEntry:
    """The stored report is the trail of a passing build: every stored entry
    is an object with a string name and `"ok": true`, and the stored names
    are the re-run names in order.  `walk-parity` is dropped from both lists:
    bundles written when `build` could sample walks may store it, and
    `verify` samples its own."""
    rerun_names = [e.name for e in rerun.entries if e.name != "walk-parity"]
    if not all(isinstance(e, dict) and isinstance(e.get("name"), str) and e.get("ok") is True for e in stored):
        detail = "a stored entry is malformed or records a failure"
    elif [e["name"] for e in stored if e["name"] != "walk-parity"] != rerun_names:
        detail = "stored entry names differ from the re-run audits"
    else:
        return AuditEntry("report-consistent", True)
    return AuditEntry("report-consistent", False, (Violation(code="StoredReportMismatch", detail=detail),))


def _is_schrijver_target(target: Graph, dim: int) -> bool:
    """Whether a stored homomorphism's target is SG(n, k), the stable Kneser
    graph that a Schrijver sphere of dimension `dim` = n - 2k maps into.  k
    is the one length of the target's labels, which must be tuples of ints
    with k >= 1.  The vertex count n/(n-k) * C(n-k, k) is compared before
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


def homomorphism_entries(bundle: Bundle) -> tuple[AuditEntry, ...]:
    """The entries that judge a bundle's stored homomorphism, none without
    one: `homomorphism-valid` (it is a homomorphism),
    `homomorphism-source-matches` (its source is the stored graph) and
    `homomorphism-target-matches` (its target is SG(dim + 2k, k), see
    `_is_schrijver_target`).  `verify_bundle` and `hom-check` on a bundle
    directory both read them."""
    hom = bundle.homomorphism
    if hom is None:
        return ()
    hom_report = verify_homomorphism(hom)
    same = hom.source == bundle.graph
    mismatch = Violation(code="HomomorphismSourceMismatch", detail="source graph differs from graph.json")
    sg = _is_schrijver_target(hom.target, bundle.complex.dim)
    not_sg = Violation(code="HomomorphismTargetMismatch", detail="target is not SG(dim + 2k, k), k its label length")
    return (
        AuditEntry("homomorphism-valid", hom_report.ok, hom_report.violations),
        AuditEntry("homomorphism-source-matches", same, () if same else (mismatch,)),
        AuditEntry("homomorphism-target-matches", sg, () if sg else (not_sg,)),
    )


def verify_bundle(bundle: Bundle, *, seed: int = 0, n_walks: int = 100) -> tuple[AuditReport, dict]:
    """The one verdict on a stored bundle, read by `verify`, `chi` and
    `sphere_quad_from_bundle`.

    Runs `verify_sphere_quadrangulation` with the labels of the stored orbit
    representatives and the stored graph as the expected graph, then
    `report-consistent` (see `_report_consistent`) and, for a stored
    homomorphism, the `homomorphism_entries`.
    Returns the report and the sphere artifacts; when the representatives
    miss an orbit, one failing `orbit-reps-cover` entry and no artifacts.
    """
    labels = _labels_from_reps(bundle)
    if labels is None:
        return _REPS_MISS_AN_ORBIT, {}
    report, artifacts = verify_sphere_quadrangulation(
        bundle.complex,
        bundle.involution,
        bundle.colouring,
        labels=labels,
        expected_graph=bundle.graph,
        n_walks=n_walks,
        seed=seed,
    )
    consistent = _report_consistent(bundle.report, report)
    return AuditReport((*report.entries, consistent, *homomorphism_entries(bundle))), artifacts


def sphere_quad_from_bundle(path: PathLike) -> SphereQuad:
    """Reconstruct a SphereQuad from a stored bundle that passes
    `verify_bundle` without walks, the checks of `verify --walks 0`; raises
    VerificationFailed naming the failing audits otherwise."""
    bundle = load_bundle(path)
    report, artifacts = verify_bundle(bundle, n_walks=0)
    return _sphere_quad(bundle.complex, bundle.involution, bundle.colouring, report, artifacts, "stored bundle")
