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
from .complexes import Complex, _complex_texts, complex_from_json, dump_canonical
from .constructions import SphereQuad, _verified
from .errors import ParseError
from .graphs import Graph, _label_from_json, _label_to_json, graph_from_json, graph_to_json, label_key
from .homomorphisms import Homomorphism, homomorphism_entries, homomorphism_from_json, homomorphism_to_json
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


def write_bundle(path: PathLike, sq: SphereQuad, homomorphism: Optional[Homomorphism] = None) -> Path:
    """Write the sphere (with its audit report) as a directory of canonical
    JSON files; returns the directory path.  A `homomorphism.json` left in
    the directory by an earlier bundle is removed when there is no
    homomorphism to write.

    Every file's text is encoded before the directory is touched, so an
    error while encoding (a MemoryError, say) leaves no directory, or an
    earlier bundle there as it was.  An OSError in the middle of the writes
    can still leave a partial bundle.  Each small file's JSON object is
    dropped once its text exists.  `complex.json` is made as one piece per
    cell layer (`_complex_texts`) and written piece by piece, with no joined
    copy of the whole text, so the encoder's transient is about twice the
    file."""
    out = Path(path)
    pieces = {
        "involution.json": [dump_canonical(sq.involution.to_json())],
        "colouring.json": [dump_canonical(sq.colouring.to_json())],
        "graph.json": [dump_canonical(_graph_json(sq))],
        "report.json": [dump_canonical(sq.report.to_json())],
    }
    if homomorphism is not None:
        pieces["homomorphism.json"] = [dump_canonical(homomorphism_to_json(homomorphism))]
    pieces["complex.json"] = _complex_texts(sq.complex)
    out.mkdir(parents=True, exist_ok=True)
    if homomorphism is None:
        (out / "homomorphism.json").unlink(missing_ok=True)
    for name, texts in pieces.items():
        with open(out / name, "w", encoding="utf-8") as f:
            f.writelines(texts)
    return out


def _graph_json(sq: SphereQuad) -> dict:
    """The identified graph's JSON with its orbit representatives: for each
    label in label order, `[label, v]` with v its least vertex."""
    reps: dict = {}
    for v in sorted(sq.labels):
        reps.setdefault(sq.labels[v], v)
    graph_obj = graph_to_json(sq.graph)
    graph_obj["orbit_reps"] = [
        [_label_to_json(lab), reps[lab]] for lab in sorted(reps, key=label_key)
    ]
    return graph_obj


def _read_json(path: Path) -> object:
    """The JSON value in a file; ParseError when the file cannot be read, is
    not UTF-8, is not JSON, nests too deeply for the decoder, or holds an
    integer longer than Python converts from text."""
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise ParseError(f"{path} is not UTF-8 text: {e}") from e
    try:
        return json.loads(text)
    except ValueError as e:  # JSONDecodeError, or an int past the digit limit
        raise ParseError(f"{path} does not decode as JSON: {e}") from e
    except RecursionError as e:
        raise ParseError(f"{path} nests too deeply: {e}") from e


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
        label = _label_from_json(pair[0])
        if label in orbit_reps:
            raise ParseError("orbit_reps lists a label twice")
        orbit_reps[label] = pair[1]
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
        partner = bundle.involution.vertex_pairing.get(rep)
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


def verify_bundle(bundle: Bundle, *, seed: int = 0, n_walks: int = 100) -> tuple[AuditReport, Optional[Graph]]:
    """The one verdict on a stored bundle, read by `verify`, `chi` and
    `sphere_quad_from_bundle`.

    Runs `verify_sphere_quadrangulation` with the labels of the stored orbit
    representatives and the stored graph as the expected graph, then
    `report-consistent` (see `_report_consistent`) and, for a stored
    homomorphism, its `homomorphisms.homomorphism_entries`.
    Returns the report and the identified graph, as the sphere audit returns
    them; when the representatives miss an orbit, one failing
    `orbit-reps-cover` entry and None.
    """
    labels = _labels_from_reps(bundle)
    if labels is None:
        return _REPS_MISS_AN_ORBIT, None
    report, graph = verify_sphere_quadrangulation(
        bundle.complex,
        bundle.involution,
        bundle.colouring,
        labels=labels,
        expected_graph=bundle.graph,
        n_walks=n_walks,
        seed=seed,
    )
    consistent = _report_consistent(bundle.report, report)
    hom = bundle.homomorphism
    hom_entries = () if hom is None else homomorphism_entries(hom, bundle.graph, bundle.complex.dim)
    return AuditReport((*report.entries, consistent, *hom_entries)), graph


def sphere_quad_from_bundle(path: PathLike) -> SphereQuad:
    """Reconstruct a SphereQuad from a stored bundle that passes
    `verify_bundle` without walks, the checks of `verify --walks 0`; raises
    VerificationFailed naming the failing audits otherwise.  Its labels are
    those of the stored orbit representatives, and its graph is the one the
    audit identified."""
    bundle = load_bundle(path)
    report, graph = verify_bundle(bundle, n_walks=0)
    labels = _labels_from_reps(bundle)
    return _verified(bundle.complex, bundle.involution, bundle.colouring, labels, graph, report, "stored bundle")
