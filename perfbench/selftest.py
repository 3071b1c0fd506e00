"""Self-test of the benchmark's own checks.  Run from the root of a checkout:

    python3 perfbench/selftest.py

It shows, on the small bundles of the corpus, that each of these counts as a
failed operation: a flipped byte in a stored bundle, a wrong reference chi,
an improper colouring certificate and an unexpected exit code.  It shows that
a budget exit is unsettled but not failed when its bracket holds the
reference, that changing the seed changes the verify walk seed but no
verdict, and that the benchmark exits non-zero without a result where there
are no sources.  Exits 0 when every case behaves as stated.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import checks
import corpus
import run

SMALL = ("odd-cycle-2", "cylinder-3", "tower-4", "tower-5", "schrijver-6-2")
failures: list[str] = []


def expect(what: str, holds: bool) -> None:
    print(f"{'ok  ' if holds else 'FAIL'} {what}")
    if not holds:
        failures.append(what)


def flip_digit(path: Path, after: bytes) -> None:
    """Flip the low bit of the first digit after `after`, so a number changes."""
    data = bytearray(path.read_bytes())
    i = data.index(after)
    while not chr(data[i]).isdigit():
        i += 1
    data[i] ^= 1
    path.write_bytes(bytes(data))


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from projquad.cli import main as cli

    reference = checks.load_reference()
    work = run.WORK / f"selftest-{os.getpid()}"
    stored = work / "stored"
    try:
        for b in corpus.CORPUS:
            if b.name in SMALL:
                op = corpus.build_op(b, stored)
                rc, stdout, _ = run.call_cli(cli, op.argv)
                error = checks.check_build(reference[b.name], rc, stdout, stored / b.name)
                expect(f"untouched build of {b.name} passes its check", error is None)

        # A flipped byte: the build check and a verify of the stored bundle both fail.
        bad = work / "flipped" / "cylinder-3"
        shutil.copytree(stored / "cylinder-3", bad)
        flip_digit(bad / "graph.json", b'"edges"')
        build_stdout = json.dumps({"ok": True})
        error = checks.check_build(reference["cylinder-3"], 0, build_stdout, bad)
        expect(f"flipped byte fails the build check ({error})", error is not None)
        rc, stdout, _ = run.call_cli(cli, ["verify", str(bad), "--walks", "100"])
        error = checks.check_verify(rc, stdout, corpus.WALKS)
        expect(f"flipped byte fails the verify check ({error})", error is not None)

        # A wrong reference chi, and a colouring certificate with a monochromatic edge.
        graph = checks.read_graph(stored / "tower-4" / "graph.json")
        rc, stdout, _ = run.call_cli(cli, ["chi", str(stored / "tower-4"), "--max-nodes", "500000"])
        error, settled = checks.check_chi(reference["tower-4"], rc, stdout, graph)
        expect("chi of tower-4 passes with the true reference", error is None and settled)
        error, _ = checks.check_chi({**reference["tower-4"], "chi": 5}, rc, stdout, graph)
        expect(f"a wrong reference chi fails ({error})", error is not None)
        out = json.loads(stdout)
        out["colouring"] = [[label, 0] for label, _ in out["colouring"]]
        error, _ = checks.check_chi(reference["tower-4"], rc, json.dumps(out), graph)
        expect(f"an improper certificate fails ({error})", error is not None)

        # Unexpected exit codes.
        rc, stdout, _ = run.call_cli(cli, ["verify", str(work / "missing"), "--walks", "100"])
        error = checks.check_verify(rc, stdout, corpus.WALKS)
        expect(f"verify exiting {rc} fails", rc != 0 and error is not None)
        error = checks.check_build(reference["cylinder-3"], 2, build_stdout, stored / "cylinder-3")
        expect("build exiting 2 fails", error is not None)
        error, _ = checks.check_chi(reference["tower-4"], 2, stdout or "{}", graph)
        expect("chi exiting 2 fails", error is not None)

        # A budget exit: unsettled and correct when the bracket holds the reference.
        graph5 = checks.read_graph(stored / "tower-5" / "graph.json")
        rc, stdout, _ = run.call_cli(cli, ["chi", str(stored / "tower-5"), "--max-nodes", "1"])
        error, settled = checks.check_chi(reference["tower-5"], rc, stdout, graph5)
        expect(f"a budget exit {rc} holding the reference is unsettled, not failed", rc == 70 and error is None and not settled)
        error, _ = checks.check_chi({**reference["tower-5"], "chi": 9}, rc, stdout, graph5)
        expect("a budget bracket without the reference fails", error is not None)

        # The seed changes the walk seed, not a verdict.
        verdicts = {}
        for seed in (1, 2):
            ops = corpus.workload_ops("verify", random.Random(seed), stored, work, walk_seed=seed)
            (op,) = [o for o in ops if o.bundle == "cylinder-3"]
            rc, stdout, _ = run.call_cli(cli, op.argv)
            verdicts[seed] = (op.argv[op.argv.index("--seed") + 1], checks.check_verify(rc, stdout, corpus.WALKS),
                              checks.report_verdicts(json.loads(stdout)["report"]))
        expect("seeds 1 and 2 give walk seeds 1 and 2", (verdicts[1][0], verdicts[2][0]) == ("1", "2"))
        expect("seeds 1 and 2 give the same verdicts", verdicts[1][1:] == verdicts[2][1:] and verdicts[1][1] is None)

        # No sources: a non-zero exit and no result line.
        bare = work / "bare"
        shutil.copytree(Path(run.__file__).parent, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "chi", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        expect(f"without sources it exits {proc.returncode} and prints no result", proc.returncode != 0 and '"correct"' not in proc.stdout)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            run.WORK.rmdir()
    print(f"{len(failures)} self-test failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
