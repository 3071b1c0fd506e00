"""Per-layer spans recorded from outside the library.

`Tracer.installed()` replaces each traced public function of projquad by a
timing wrapper, under every name by which a projquad module refers to it
(`projquad.homology.rank_gf2` as well as `projquad.gf2.rank_gf2`), and puts
the originals back on exit.  A span's self time is its duration minus the
time covered by the spans it encloses.  Nothing under src/ is changed.
Import this module only once `projquad` is importable.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

from projquad.errors import BudgetExceeded


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


def _rank_bits(counts, args, result, error) -> None:
    bits = args[0].rows * args[0].cols
    counts["gf2.rank.bits"] += bits
    counts["gf2.rank.max_bits"] = max(counts["gf2.rank.max_bits"], bits)


def _chi_outcome(counts, args, result, error) -> None:
    if result is not None:
        counts["coloring.nodes"] += result.nodes
        counts["coloring.settled"] += 1
    elif isinstance(error, BudgetExceeded):
        counts["coloring.nodes"] += error.nodes
        counts["coloring.bracket_width"] += error.upper - error.lower


def _written_bytes(counts, args, result, error) -> None:
    if result is not None:
        counts["bundles.write_bundle.bytes"] += _dir_bytes(result)


def _loaded_bytes(counts, args, result, error) -> None:
    if result is not None:
        counts["bundles.load_bundle.bytes"] += _dir_bytes(args[0])


def _new_calculator(counts, args, result, error) -> None:
    counts["homology.calculators"] += 1


def _new_complex(counts, args, result, error) -> None:
    complex = args[0]
    counts["complexes.cells"] += sum(complex.n_cells(d) for d in range(complex.dim + 1))


def _each(module: str, layer: str, *names: str) -> list[tuple]:
    return [(module, name, f"{layer}.{name}", None) for name in names]


# (module, attribute, span name or None for a count-only hook, hook)
TARGETS: list[tuple] = [
    ("projquad.gf2", "rank_gf2", "gf2.rank", _rank_bits),
    ("projquad.gf2", "Gf2Solver.__init__", "gf2.solver", None),
    ("projquad.gf2", "Gf2Solver.solve", "gf2.solve", None),
    ("projquad.homology", "HomologyCalculator.__init__", None, _new_calculator),
    ("projquad.homology", "HomologyCalculator.all_betti", "homology.all_betti", None),
    ("projquad.homology", "HomologyCalculator.is_boundary", "homology.is_boundary", None),
    *_each("projquad.homology", "homology", "boundary_squares_to_zero"),
    *_each(
        "projquad.audits",
        "audits",
        "verify_sphere_quadrangulation",
        "verify_ball_quadrangulation",
        "sphere_check",
        "ball_check",
        "boundary_operator_audit",
        "parity_audit",
        "quadrangulation_check",
        "verify_z2_map_to_box",
        "sample_closed_walks",
        "cycle_parity_vs_homology",
    ),
    *_each(
        "projquad.symmetry",
        "symmetry",
        "quotient",
        "double",
        "validate_involution",
        "associated_graph",
        "identify_antipodes",
        "boundary_cells",
    ),
    *_each(
        "projquad.constructions",
        "constructions",
        "odd_cycle_sphere",
        "cylinder_complete",
        "double_to_sphere",
        "mycielski_lift",
        "schrijver_pipeline",
    ),
    ("projquad.complexes", "Complex.__init__", None, _new_complex),
    ("projquad.complexes", "Complex.validate", "complexes.validate", None),
    ("projquad.complexes", "complex_from_json", "complexes.from_json", None),
    ("projquad.complexes", "complex_to_json", "complexes.to_json", None),
    ("projquad.complexes", "dump_canonical", "complexes.dump_canonical", None),
    ("projquad.bundles", "write_bundle", "bundles.write_bundle", _written_bytes),
    ("projquad.bundles", "load_bundle", "bundles.load_bundle", _loaded_bytes),
    *_each("projquad.bundles", "bundles", "verify_bundle", "sphere_quad_from_bundle"),
    *_each("projquad.homomorphisms", "homomorphisms", "verify_homomorphism"),
    *_each("projquad.graphs", "graphs", "box_membership", "mycielskian"),
    ("projquad.coloring", "chromatic_number", "coloring.chromatic_number", _chi_outcome),
]

class Tracer:
    """Collects span totals and counts; `reset()` starts a new pass."""

    COUNTS = (
        "gf2.rank.bits",
        "gf2.rank.max_bits",
        "homology.calculators",
        "complexes.cells",
        "bundles.write_bundle.bytes",
        "bundles.load_bundle.bytes",
        "coloring.nodes",
        "coloring.settled",
        "coloring.bracket_width",
    )

    def __init__(self) -> None:
        self._stack: list[list[float]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, seconds, self seconds]
        self.counts: Counter = Counter()
        self.top_level_s = 0.0  # time covered by spans with no enclosing span

    def metrics(self) -> dict[str, float]:
        """Calls, seconds and self seconds of every span, the counts, and the derived layer metrics."""
        values: dict[str, float] = {}
        for _, _, name, _ in TARGETS:
            if name is not None:
                calls, seconds, self_s = self.spans.get(name, (0, 0.0, 0.0))
                values.update({f"{name}.calls": calls, f"{name}.s": seconds, f"{name}.self_s": self_s})
        values.update((name, self.counts[name]) for name in self.COUNTS)
        values["constructions.self_s"] = sum(
            self_s for name, (_, _, self_s) in self.spans.items() if name.startswith("constructions.")
        )
        chi_s = values["coloring.chromatic_number.s"]
        values["coloring.nodes_per_s"] = values["coloring.nodes"] / chi_s if chi_s else 0.0
        return values

    def _close(self, name: str, start: float, frame: list[float]) -> None:
        elapsed = perf_counter() - start
        self._stack.pop()
        rec = self.spans.setdefault(name, [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += elapsed
        rec[2] += elapsed - frame[0]
        if self._stack:
            self._stack[-1][0] += elapsed
        else:
            self.top_level_s += elapsed

    def _wrap(self, fn, name, hook):
        tracer = self
        if name is None:

            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook(tracer.counts, args, result, None)
                return result

            return counted

        def timed(*args, **kwargs):
            frame = [0.0]
            tracer._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(name, start, frame)
                if hook is not None:
                    hook(tracer.counts, args, None, exc)
                raise
            tracer._close(name, start, frame)
            if hook is not None:
                hook(tracer.counts, args, result, None)
            return result

        return timed

    @contextmanager
    def installed(self):
        undo: list[tuple] = []
        try:
            for module_name, attr, name, hook in TARGETS:
                module = importlib.import_module(module_name)
                owner_name, _, member = attr.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[member]
                    holders = [owner]
                else:
                    original = getattr(module, member)
                    holders = [
                        m
                        for key, m in list(sys.modules.items())
                        if (key == "projquad" or key.startswith("projquad."))
                        and m.__dict__.get(member) is original
                    ]
                wrapper = self._wrap(original, name, hook)
                for holder in holders:
                    setattr(holder, member, wrapper)
                    undo.append((holder, member, original))
            yield self
        finally:
            for holder, member, original in reversed(undo):
                setattr(holder, member, original)
