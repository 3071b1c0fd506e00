"""Output checks for every benchmark operation.

Each check reads only what the CLI printed, its exit code and the files it
wrote, and compares them with `reference.json`.  It returns an error string,
or None when the output is right; `check_chi` also says whether chi was
settled within the node budget.  The checks use no code from the library
under test.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional

REFERENCE = Path(__file__).with_name("reference.json")
BUDGET_EXIT = 70


def load_reference() -> dict:
    """bundle name -> {"chi": int, "files": {file: sha256}, "report": [[entry, ok], ...]}"""
    return json.loads(REFERENCE.read_text(encoding="utf-8"))["bundles"]


def _json_out(stdout: str):
    try:
        return json.loads(stdout)
    except json.JSONDecodeError:
        return None


def report_verdicts(report) -> list:
    return [[e.get("name"), e.get("ok")] for e in report if isinstance(e, dict)]


def check_build(ref: dict, rc: int, stdout: str, out_dir: Path) -> Optional[str]:
    """Exit 0, every file but report.json byte-identical to the reference, and
    report.json with the reference audit entry names and verdicts."""
    if rc != 0:
        return f"exit {rc}"
    out = _json_out(stdout)
    if not (isinstance(out, dict) and out.get("ok") is True):
        return "stdout is not an ok build report"
    written = sorted(p.name for p in out_dir.iterdir()) if out_dir.is_dir() else []
    expected = sorted([*ref["files"], "report.json"])
    if written != expected:
        return f"bundle files {written}, expected {expected}"
    for name, digest in ref["files"].items():
        if hashlib.sha256((out_dir / name).read_bytes()).hexdigest() != digest:
            return f"{name} differs from the reference bytes"
    report = _json_out((out_dir / "report.json").read_text(encoding="utf-8"))
    if not isinstance(report, list) or report_verdicts(report) != ref["report"]:
        return "report.json audit entries or verdicts differ from the reference"
    return None


def check_verify(rc: int, stdout: str, walks: int) -> Optional[str]:
    """Exit 0, every audit entry ok, and a walk-parity entry that sampled `walks` walks."""
    if rc != 0:
        return f"exit {rc}"
    out = _json_out(stdout)
    if not (isinstance(out, dict) and out.get("ok") is True and isinstance(out.get("report"), list)):
        return "stdout is not an ok verify report"
    entries = out["report"]
    failing = [e.get("name") for e in entries if not (isinstance(e, dict) and e.get("ok") is True)]
    if failing:
        return f"failing entries {failing}"
    walk = [e for e in entries if e.get("name") == "walk-parity"]
    if len(walk) != 1 or walk[0].get("info", {}).get("sampled") != walks:
        return f"walk-parity did not sample {walks} walks"
    return None


def _key(label) -> str:
    return json.dumps(label, separators=(",", ":"))


def read_graph(path: Path) -> tuple[list[str], list[tuple[str, str]]]:
    """Vertices and edges of a bundle's graph.json, labels as canonical JSON text."""
    obj = json.loads(path.read_text(encoding="utf-8"))
    return [_key(v) for v in obj["vertices"]], [(_key(u), _key(v)) for u, v in obj["edges"]]


def _certificate_error(out: dict, chi: int, graph: tuple[list[str], list[tuple[str, str]]]) -> Optional[str]:
    vertices, edges = graph
    pairs = out.get("colouring")
    if not isinstance(pairs, list) or not all(isinstance(p, list) and len(p) == 2 for p in pairs):
        return "colouring is not a list of [label, colour] pairs"
    colour = {_key(label): c for label, c in pairs}
    if len(colour) != len(pairs) or sorted(colour) != sorted(vertices):
        return "colouring does not cover every vertex exactly once"
    if not all(isinstance(c, int) and 0 <= c < chi for c in colour.values()):
        return f"colouring uses a colour outside 0..{chi - 1}"
    for u, v in edges:
        if colour[u] == colour[v]:
            return f"edge {u} {v} is monochromatic"
    return None


def check_chi(ref: dict, rc: int, stdout: str, graph) -> tuple[Optional[str], bool]:
    """chi equal to the reference with a proper colouring certificate; a budget
    exit is unsettled but correct when its bracket contains the reference."""
    out = _json_out(stdout)
    if not isinstance(out, dict):
        return f"exit {rc} without a JSON result", False
    want = ref["chi"]
    if rc == BUDGET_EXIT:
        lower, upper = out.get("lower"), out.get("upper")
        if isinstance(lower, int) and isinstance(upper, int) and lower <= want <= upper:
            return None, False
        return f"budget bracket [{lower}, {upper}] excludes chi {want}", False
    if rc != 0:
        return f"exit {rc}", False
    if out.get("chi") != want:
        return f"chi {out.get('chi')}, expected {want}", False
    return _certificate_error(out, want, graph), True
