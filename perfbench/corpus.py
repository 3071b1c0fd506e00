"""The fixed corpus of 12 acceptance bundles and the CLI calls of each workload.

Every operation is an argv for `projquad.cli.main`, exactly as a user would
type it after `projquad`.  Which bundle an operation touches is kept next to
the argv so that the checks can find its reference data.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import NamedTuple, Optional

WALKS = 100
MAX_NODES = 500_000


class Bundle(NamedTuple):
    name: str
    build_args: tuple[str, ...]
    source: Optional[str] = None  # bundle this one is built from


# Corpus order; the reference chi values in reference.json follow it too.
CORPUS: tuple[Bundle, ...] = (
    Bundle("odd-cycle-2", ("odd-cycle", "--k", "2")),
    *(Bundle(f"cylinder-{r}", ("cylinder", "--r", str(r))) for r in (3, 4, 5)),
    Bundle("tower-4", ("mycielski-lift", "--r", "2"), "odd-cycle-2"),
    Bundle("tower-5", ("mycielski-lift", "--r", "2"), "tower-4"),
    Bundle("tower-6", ("mycielski-lift", "--r", "2"), "tower-5"),
    *(
        Bundle(f"schrijver-{n}-{k}", ("schrijver", "--n", str(n), "--k", str(k)))
        for n, k in ((6, 2), (7, 2), (8, 2), (8, 3), (9, 3))
    ),
)
NAMES = tuple(b.name for b in CORPUS)
WORKLOADS = ("build", "verify", "chi")


class Op(NamedTuple):
    bundle: str
    argv: tuple[str, ...]


def build_op(bundle: Bundle, out: Path) -> Op:
    argv = ["build", bundle.build_args[0]]
    if bundle.source is not None:
        argv += ["--src", str(out / bundle.source)]
    argv += [*bundle.build_args[1:], "--out", str(out / bundle.name)]
    return Op(bundle.name, tuple(argv))


def pass_order(rng: random.Random) -> list[Bundle]:
    """A random order of the corpus in which every bundle comes after its source."""
    done: set[str] = set()
    pending = list(CORPUS)
    order = []
    while pending:
        ready = [b for b in pending if b.source is None or b.source in done]
        pick = rng.choice(ready)
        pending.remove(pick)
        done.add(pick.name)
        order.append(pick)
    return order


def workload_ops(workload: str, rng: random.Random, inputs: Path, out: Path, walk_seed: int) -> list[Op]:
    """One pass of a workload: its 12 operations in a seed-dependent order.

    `inputs` holds the stored bundles that `verify` and `chi` read; `out` is
    where `build` writes.
    """
    if workload == "build":
        return [build_op(b, out) for b in pass_order(rng)]
    order = list(CORPUS)
    rng.shuffle(order)
    if workload == "verify":
        return [
            Op(b.name, ("verify", str(inputs / b.name), "--walks", str(WALKS), "--seed", str(walk_seed)))
            for b in order
        ]
    if workload == "chi":
        return [Op(b.name, ("chi", str(inputs / b.name), "--max-nodes", str(MAX_NODES))) for b in order]
    raise ValueError(f"unknown workload {workload!r}")
