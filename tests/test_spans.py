"""Every function that `perfbench/spans.py` traces still exists in projquad.

The traced benchmark run looks each TARGETS entry up by name when it
starts; this test looks them up at test time, so a rename of a traced
function fails here and names the target.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

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
