"""Every function that `perfbench/spans.py` traces still exists in projquad.

The traced benchmark run looks each TARGETS entry up by name when it
starts; this test looks them up at test time, so a rename of a traced
function fails here and names the target.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from projquad import (
    boundary_cells,
    bundles,
    complexes,
    cylinder_complete,
    double_to_sphere,
    load_bundle,
    mycielski_tower,
    odd_cycle_sphere,
    write_bundle,
)

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    """perfbench/spans.py as a module, without writing a bytecode cache."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_every_traced_target_resolves():
    missing = []
    for module_name, attr, _, _ in _load_spans().TARGETS:
        owner = importlib.import_module(module_name)
        owner_name, _, member = attr.rpartition(".")
        if owner_name:
            owner = getattr(owner, owner_name, None)
        # spans.py takes a method from its class's own __dict__
        if not callable(vars(owner).get(member) if owner is not None else None):
            missing.append(f"{module_name}.{attr}")
    assert not missing, f"traced by perfbench/spans.py but not defined: {missing}"


def test_a_traced_verify_times_the_involution_pass(tmp_path):
    # The pass that judges the involution runs under one of the traced
    # symmetry names, so a trace shows its time.
    path = write_bundle(tmp_path / "odd-cycle-2", odd_cycle_sphere(2))
    with _load_spans().Tracer().installed() as tracer:
        report, _ = bundles.verify_bundle(load_bundle(path), n_walks=0)
    assert report.ok
    names = ("symmetry.validate_involution", "symmetry.quotient")
    assert max(tracer.spans.get(name, (0, 0.0))[1] for name in names) > 0, tracer.spans


def test_a_built_ball_is_judged_once_and_its_boundary_found_once(monkeypatch):
    # cylinder-3: `cylinder_complete` finds the boundary it pairs, and the
    # involution check and the doubling read the one the ball's complex
    # keeps, so the closure is walked once.  The involution is judged once
    # on the ball, by the one gluing routine, and once on the doubled sphere.
    walks = []
    walk = complexes.face_closure

    def counted(complex, cells):
        walks.append(complex)
        return walk(complex, cells)

    monkeypatch.setattr(complexes, "face_closure", counted)
    with _load_spans().Tracer().installed() as tracer:
        ball = cylinder_complete(3)
        double_to_sphere(ball)
    names = ("symmetry.validate_involution", "symmetry.double")
    calls = {name: tracer.spans.get(name, (0,))[0] for name in names}
    assert calls == {"symmetry.validate_involution": 2, "symmetry.double": 1}
    assert walks == [ball.complex]
    found = boundary_cells(ball.complex)
    assert boundary_cells(ball.complex) is found
    assert all(type(ids) is frozenset for ids in found.values())
    assert len(walks) == 1


def test_a_stored_bundle_is_judged_without_box_membership_tests(tmp_path):
    # tower-4's colouring is proper, so the box map is a lemma on every
    # maximal cell, and the involution check that judges the complex pair
    # by pair is the involution-valid entry.
    path = write_bundle(tmp_path / "tower-4", mycielski_tower(4))
    bundle = load_bundle(path)
    with _load_spans().Tracer().installed() as tracer:
        report, _ = bundles.verify_bundle(bundle, n_walks=0)
    assert report.ok
    names = ("graphs.box_membership", "symmetry.validate_involution")
    calls = {name: tracer.spans.get(name, (0,))[0] for name in names}
    assert calls == {"graphs.box_membership": 0, "symmetry.validate_involution": 1}
