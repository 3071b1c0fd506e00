"""Benchmark of the projquad pipeline over the 12 acceptance bundles.

Run from the root of a checkout:

    python3 perfbench/run.py --workload {build,verify,chi} --seed N --seconds S --trace {0,1}

Every operation is a real CLI call, `projquad.cli.main(argv)`, made
in-process from one thread with stdout and stderr captured.  Passes over the
workload's 12 operations repeat, closed-loop, at least twice and then while
more than half a typical pass of `--seconds` is left.  Every output is
checked (see checks.py).  The seed
sets the verify walk seed and the order of operations that do not depend on
each other.

Times are reference seconds.  The CPU this runs on may be shared and change
speed by up to a factor of two over seconds, so each operation's wall time is
scaled by how fast a fixed loop, sampled during the operation, ran against its
reference speed (see Gauge).  The raw wall times are printed as well.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs one untraced
pass and then two traced passes (see spans.py), prints the per-layer metrics
of the traced passes, and counts it an error when a deterministic count
differs between them.  Per-layer times are raw seconds.  The metric names
and units are those of BENCHMARK.json.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MIN_PASSES = 2
TRACED_PASSES = 2
IMPORT_SAMPLES = 3
IMPORT_CLI = "import sys; sys.path.insert(0, sys.argv[1]); import projquad.cli"
SAMPLE_LOOP = 4000
SAMPLE_EVERY_S = 0.05
WINDOW_S = 0.5
# The sample loop's typical duration on the 2-vCPU Xeon VM the bounds were set
# on, so that reference seconds read close to wall seconds there.
REF_SAMPLE_S = 0.0003

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import corpus  # noqa: E402


class Gauge:
    """Tracks how fast the CPU runs while timed calls execute.

    While active, a SIGALRM handler times a tiny fixed loop every
    SAMPLE_EVERY_S seconds, also in the middle of a call.  A call's reference
    seconds are its wall seconds times REF_SAMPLE_S over the median loop time
    sampled from WINDOW_S before it starts until it ends.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        acc = 0
        for i in range(SAMPLE_LOOP):
            acc += i * i % 7
        self.times.append(start)
        self.durations.append(time.perf_counter() - start)

    def __enter__(self) -> "Gauge":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def call(self, fn, *args):
        """(wall seconds, reference seconds, result) of `fn(*args)`."""
        start = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        speed = statistics.median(self.durations[lo:] or self.durations[-1:])
        return end - start, (end - start) * REF_SAMPLE_S / speed, result


def call_cli(main, argv) -> tuple[int, str, str]:
    """One `projquad` CLI call; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 1
        except Exception:  # a traceback is a failed operation, not a crashed benchmark
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


class Result(NamedTuple):
    bundle: str
    raw_s: float  # wall seconds
    ref_s: float  # reference seconds
    error: Optional[str]
    settled: bool
    top_level_s: float = 0.0  # wall time under top-level spans; traced passes only
    nodes: int = 0  # chi search nodes; traced passes only


class Pass(NamedTuple):
    results: list

    @property
    def ref_s(self) -> float:
        return sum(r.ref_s for r in self.results)

    @property
    def raw_s(self) -> float:
        return sum(r.raw_s for r in self.results)

    @property
    def slowest_ref_s(self) -> float:
        return max(r.ref_s for r in self.results)

    @property
    def settled(self) -> int:
        return sum(r.settled for r in self.results)


class Bench:
    def __init__(self, workload: str, seed: int, work: Path, gauge: Gauge) -> None:
        from projquad.cli import main

        self.main = main
        self.workload = workload
        self.seed = seed
        self.rng = random.Random(seed)
        self.work = work
        self.inputs = work / "inputs"
        self.reference = checks.load_reference()
        self.gauge = gauge
        self._graphs: dict[str, tuple] = {}

    def build_inputs(self) -> float:
        """Store the 12 bundles that verify and chi read, checked like a build;
        returns the reference seconds it took."""
        total = 0.0
        for op in (corpus.build_op(b, self.inputs) for b in corpus.CORPUS):
            _, ref_s, (rc, stdout, stderr) = self.gauge.call(call_cli, self.main, op.argv)
            total += ref_s
            error = checks.check_build(self.reference[op.bundle], rc, stdout, self.inputs / op.bundle)
            if error is not None:
                raise RuntimeError(f"building input {op.bundle} failed: {error}\n{stderr}")
        return total

    def check(self, bundle: str, rc: int, stdout: str, out: Path) -> tuple[Optional[str], bool]:
        ref = self.reference[bundle]
        if self.workload == "build":
            error = checks.check_build(ref, rc, stdout, out / bundle)
        elif self.workload == "verify":
            error = checks.check_verify(rc, stdout, corpus.WALKS)
        else:
            if bundle not in self._graphs:
                self._graphs[bundle] = checks.read_graph(self.inputs / bundle / "graph.json")
            return checks.check_chi(ref, rc, stdout, self._graphs[bundle])
        return error, error is None

    def run_pass(self, index: int, tracer=None) -> Pass:
        out = self.work / f"pass-{index}"
        ops = corpus.workload_ops(self.workload, self.rng, self.inputs, out, walk_seed=self.seed)
        results = []
        for op in ops:
            top_before = tracer.top_level_s if tracer else 0.0
            nodes_before = tracer.counts["coloring.nodes"] if tracer else 0
            raw_s, ref_s, (rc, stdout, stderr) = self.gauge.call(call_cli, self.main, op.argv)
            top = tracer.top_level_s - top_before if tracer else 0.0
            nodes = tracer.counts["coloring.nodes"] - nodes_before if tracer else 0
            error, settled = self.check(op.bundle, rc, stdout, out)
            if error is not None:
                print(f"FAIL {self.workload} {op.bundle}: {error}\n{stderr}", file=sys.stderr)
            results.append(Result(op.bundle, raw_s, ref_s, error, settled, top, nodes))
        shutil.rmtree(out, ignore_errors=True)
        return Pass(results)


def import_seconds(gauge: Gauge) -> float:
    """Median reference seconds for a fresh interpreter to start and import the CLI."""
    command = [sys.executable, "-c", IMPORT_CLI, str(SRC)]
    return statistics.median(
        gauge.call(lambda: subprocess.run(command, check=True))[1] for _ in range(IMPORT_SAMPLES)
    )


def per_op_table(traced: Pass) -> list[str]:
    """Each operation's traced wall time, the share of it no span covers, and its chi search nodes."""
    lines = [f"  {'bundle':<15}{'wall_s':>10}{'uncovered':>11}{'nodes':>10}"]
    for r in sorted(traced.results, key=lambda r: corpus.NAMES.index(r.bundle)):
        share = (r.raw_s - r.top_level_s) / r.raw_s
        lines.append(f"  {r.bundle:<15}{r.raw_s:>10.4f}{share:>11.2%}{r.nodes:>10}")
    return lines


def end_to_end(passes: list[Pass], setup_s: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.ref_s for p in passes),
        "slowest_op_s": statistics.median(p.slowest_ref_s for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "settled_ops": statistics.median(p.settled for p in passes),
    }


def traced_run(bench: Bench, passes: list[Pass], notes: list[str]) -> tuple[dict[str, float], bool]:
    """One untraced pass, then traced passes; per-layer metrics and whether the counts repeated."""
    from spans import Tracer

    passes.append(bench.run_pass(0))
    tracer = Tracer()
    layers = []
    with tracer.installed():
        for i in range(1, 1 + TRACED_PASSES):
            tracer.reset()
            traced = bench.run_pass(i, tracer)
            passes.append(traced)
            layers.append(tracer.metrics())
            layers[-1]["cli.self_s"] = sum(r.raw_s - r.top_level_s for r in traced.results)
    first = layers[0]
    counts = [n for n in first if n.endswith(".calls") or n in Tracer.COUNTS]
    differing = [n for n in counts if any(layer[n] != first[n] for layer in layers)]
    for name in differing:
        notes.append(f"  ERROR: count {name} differs between traced passes: {[layer[name] for layer in layers]}")
    values = {n: first[n] if n in counts else statistics.median(layer[n] for layer in layers) for n in first}
    untraced, traced = passes[0], passes[1]
    values["trace.overhead_s"] = statistics.median(p.ref_s for p in passes[1:]) - untraced.ref_s
    values["trace.uncovered_share"] = sum(r.raw_s - r.top_level_s for r in traced.results) / traced.raw_s
    values["trace.uncovered_share_max"] = max((r.raw_s - r.top_level_s) / r.raw_s for r in traced.results)
    notes.append("  first traced pass, per operation:")
    notes.extend(per_op_table(traced))
    return values, not differing


def run(workload: str, seed: int, seconds: float, trace: bool, manifest: dict) -> int:
    work = WORK / str(os.getpid())
    passes: list[Pass] = []
    notes: list[str] = []
    try:
        with Gauge() as gauge:
            import_s = import_seconds(gauge)
            _, setup_s, bench = gauge.call(Bench, workload, seed, work, gauge)
            setup_s += import_s
            if workload != "build":
                setup_s += bench.build_inputs()
            if trace:
                metrics, ok = traced_run(bench, passes, notes)
            else:
                start = time.perf_counter()
                while True:
                    passes.append(bench.run_pass(len(passes)))
                    typical = statistics.median(p.raw_s for p in passes)
                    if len(passes) >= MIN_PASSES and time.perf_counter() - start + typical / 2 > seconds:
                        break
                metrics, ok = end_to_end(passes, setup_s), True
            notes.append(
                f"  gauge loop: median {statistics.median(gauge.durations) * 1e3:.4f} ms over "
                f"{len(gauge.durations)} samples, reference {REF_SAMPLE_S * 1e3:.4f} ms"
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    results = [r for p in passes for r in p.results]
    failed = sum(r.error is not None for r in results)
    units = {m["name"]: m["unit"] for m in manifest["per_layer" if trace else "end_to_end"]}
    metrics = {name: metrics[name] for name in units}
    print(f"workload {workload}, seed {seed}, {len(passes)} passes, {len(results)} operations")
    print(f"  pass wall seconds:      {', '.join(f'{p.raw_s:.4f}' for p in passes)}")
    print(f"  pass reference seconds: {', '.join(f'{p.ref_s:.4f}' for p in passes)}")
    print(f"  fail_ratio = {failed}/{len(results)} = {failed / len(results):.4f}")
    print("\n".join(notes))
    for name, value in metrics.items():
        print(f"  {name} = {value if isinstance(value, int) else f'{value:.6g}'} {units[name]}")
    result = {
        "correct": ok and failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=corpus.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "projquad" / "cli.py").is_file():
        print(f"no projquad sources under {SRC}; run from the root of a projquad checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return run(args.workload, args.seed, args.seconds, bool(args.trace), manifest)


if __name__ == "__main__":
    sys.exit(main())
