"""Command-line front end.

Exit codes: 0 success, 2 verification failure or constraint violation,
64 usage error, 65 unreadable input, 70 computation budget exhausted,
71 out of memory, 73 output path that cannot be written.
Reports go to stdout as JSON; diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import gc
import sys
from functools import cache
from pathlib import Path
from typing import Optional, Sequence

from .audits import boundary_operator_audit
from .bundles import _read_json, load_bundle, sphere_quad_from_bundle, verify_bundle, write_bundle
from .coloring import chromatic_number
from .complexes import complex_from_json, dump_canonical
from .constructions import (
    complete_graph_pipeline,
    cylinder_complete,
    double_to_sphere,
    mycielski_lift,
    odd_cycle_sphere,
    schrijver_pipeline,
    suspension,
)
from .errors import (
    BadDimension,
    BadParameters,
    BudgetExceeded,
    ParseError,
    ProjquadError,
    VerificationFailed,
)
from .graphs import _label_to_json, graph_from_json, to_dimacs
from .homology import HomologyCalculator
from .homomorphisms import homomorphism_entries, homomorphism_from_json, verify_homomorphism

USAGE_EXIT = 64
PARSE_EXIT = 65
BUDGET_EXIT = 70
OSERR_EXIT = 71
CANTCREAT_EXIT = 73
VIOLATION_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D401 - argparse hook
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(USAGE_EXIT)


def _count(text: str) -> int:
    """The argparse type of a count (walks, search nodes, milliseconds): an
    integer of at least 0, so that a negative count is a usage error."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return n


def _emit(obj) -> None:
    sys.stdout.write(dump_canonical(obj))


def _cannot_write(path: str, e: OSError) -> int:
    sys.stderr.write(f"cannot write {path}: {e.strerror or e}\n")
    return CANTCREAT_EXIT


def _bundle_and_graph(path_str: str):
    """The bundle at a directory (None for a graph file) and its graph."""
    path = Path(path_str)
    if path.is_dir():
        bundle = load_bundle(path)
        return bundle, bundle.graph
    return None, graph_from_json(_read_json(path))


def _complex_at(path_str: str):
    path = Path(path_str)
    if path.is_dir():
        path = path / "complex.json"
    return complex_from_json(_read_json(path))


@cache
def _build_parser() -> _Parser:
    """The one parser of the process.  `parse_args` makes a fresh namespace
    on each call, and the handlers the parser holds look up the library
    functions they call when they run, so one parser serves every `main`."""
    parser = _Parser(prog="projquad", description="Build and audit symmetric sphere quadrangulations.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    build = sub.add_parser("build", help="construct a verified bundle")
    build.set_defaults(run=_run_build)
    kinds = build.add_subparsers(dest="kind", required=True, parser_class=_Parser)

    def common(p: _Parser) -> None:
        p.add_argument("--out", required=True, help="bundle directory to write")

    p = kinds.add_parser("odd-cycle", help="the doubled odd cycle (projective line)")
    p.add_argument("--k", type=int, required=True, help="half-length parameter; the quotient is a (2k+1)-cycle")
    p.set_defaults(make=lambda a: (odd_cycle_sphere(a.k), None))
    common(p)

    p = kinds.add_parser("cylinder", help="solid cylinder doubled into a complete-graph sphere")
    p.add_argument("--r", type=int, required=True, help="ring depth; the identified graph is complete on 2r+3 labels")
    p.set_defaults(make=lambda a: (double_to_sphere(cylinder_complete(a.r)), None))
    common(p)

    p = kinds.add_parser("suspend", help="suspend an existing bundle")
    p.add_argument("--src", required=True, help="input bundle directory")
    p.set_defaults(make=lambda a: (suspension(sphere_quad_from_bundle(a.src)), None))
    common(p)

    p = kinds.add_parser("mycielski-lift", help="lift an existing bundle and double it back into a sphere")
    p.add_argument("--src", required=True, help="input bundle directory")
    p.add_argument("--r", type=int, required=True, help="number of cone levels")
    p.set_defaults(make=lambda a: (double_to_sphere(mycielski_lift(sphere_quad_from_bundle(a.src), a.r)), None))
    common(p)

    p = kinds.add_parser("complete", help="complete graph on t labels over dimension n")
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(make=lambda a: (complete_graph_pipeline(a.t, a.n), None))
    common(p)

    p = kinds.add_parser("schrijver", help="tower with a homomorphism into the stable k-subsets of [n]")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(make=lambda a: schrijver_pipeline(a.n, a.k))
    common(p)

    p = sub.add_parser("verify", help="re-run all audits on a bundle")
    p.set_defaults(run=_run_verify)
    p.add_argument("bundle", help="bundle directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--walks", type=_count, default=100)

    p = sub.add_parser(
        "chi",
        help="exact chromatic number of a bundle's graph or a graph file",
        description=(
            "Exact chromatic number with a colouring certificate. A bundle is re-verified first "
            "(without walks); when every audit entry passes, its dimension n gives the topological "
            "lower bound chi >= n + 2. A graph file, or a bundle with a failing entry, gets the "
            "plain clique-bounded search. The output's proof field names the bound that meets chi: "
            "clique, topological or exhaustive."
        ),
    )
    p.set_defaults(run=_run_chi)
    p.add_argument("path", help="bundle directory or graph JSON file")
    p.add_argument("--budget-ms", type=_count, default=None, help="time budget of the search (not of the re-verification)")
    p.add_argument("--max-nodes", type=_count, default=None, help="node budget of the search")

    p = sub.add_parser("homology", help="mod-2 Betti numbers of a complex")
    p.set_defaults(run=_run_homology)
    p.add_argument("path", help="bundle directory or complex JSON file")
    p.add_argument("--dim", type=int, default=None)

    p = sub.add_parser("hom-check", help="verify a stored graph homomorphism (in a bundle, also its source and target)")
    p.set_defaults(run=_run_hom_check)
    p.add_argument("path", help="bundle directory or homomorphism JSON file")

    p = sub.add_parser("export", help="export a graph")
    p.set_defaults(run=_run_export)
    p.add_argument("path", help="bundle directory or graph JSON file")
    p.add_argument("--format", choices=["dimacs"], required=True)
    p.add_argument("--out", default=None, help="output file (stdout when omitted)")

    return parser


def _run_build(args: argparse.Namespace) -> int:
    sq, hom = args.make(args)
    try:
        out = write_bundle(args.out, sq, homomorphism=hom)
    except OSError as e:
        return _cannot_write(args.out, e)
    _emit({"out": str(out), "ok": True, "report": sq.report.to_json()})
    return 0


def _run_verify(args: argparse.Namespace) -> int:
    report, _ = verify_bundle(load_bundle(args.bundle), seed=args.seed, n_walks=args.walks)
    _emit({"ok": report.ok, "report": report.to_json()})
    return 0 if report.ok else VIOLATION_EXIT


def _run_chi(args: argparse.Namespace) -> int:
    bundle, graph = _bundle_and_graph(args.path)
    bound = None
    if bundle is not None:
        # Walks are not a hypothesis of the bound, so none are sampled.
        report, _ = verify_bundle(bundle, n_walks=0)
        if report.ok:
            bound = bundle.complex.dim + 2
        else:
            sys.stderr.write(f"no topological bound: failing audits: {', '.join(report.failing())}\n")
    try:
        result = chromatic_number(
            graph, budget_ms=args.budget_ms, max_nodes=args.max_nodes, topological_bound=bound
        )
    except BudgetExceeded as e:
        sys.stderr.write("budget exhausted before the search finished\n")
        _emit({"exhausted": False, "lower": e.lower, "upper": e.upper, "nodes": e.nodes})
        return BUDGET_EXIT
    colouring = [[_label_to_json(v), c] for v, c in result.colouring.items()]
    _emit(
        {
            "chi": result.chi,
            "exhausted": result.exhausted,
            "nodes": result.nodes,
            "proof": result.proof,
            "clique": [_label_to_json(v) for v in result.clique],
            "colouring": colouring,
        }
    )
    return 0


def _run_homology(args: argparse.Namespace) -> int:
    complex = _complex_at(args.path)
    report = complex.validate()
    calc = HomologyCalculator(complex)
    if report.ok:
        # Without d o d = 0 there is no homology to report.
        report = boundary_operator_audit(calc)
    if not report.ok:
        _emit({"ok": False, "violations": report.to_json()})
        return VIOLATION_EXIT
    if args.dim is not None:
        _emit({"dim": args.dim, "betti": calc.betti(args.dim)})
    else:
        _emit({"betti": list(calc.all_betti())})
    return 0


def _run_hom_check(args: argparse.Namespace) -> int:
    path = Path(args.path)
    if path.is_dir():
        bundle = load_bundle(path)
        if bundle.homomorphism is None:
            raise ParseError(f"{path} holds no homomorphism.json")
        entries = homomorphism_entries(bundle.homomorphism, bundle.graph, bundle.complex.dim)
        ok, violations = all(e.ok for e in entries), [v.to_json() for e in entries for v in e.violations]
    else:
        report = verify_homomorphism(homomorphism_from_json(_read_json(path)))
        ok, violations = report.ok, report.to_json()
    _emit({"ok": ok, "violations": violations})
    return 0 if ok else VIOLATION_EXIT


def _run_export(args: argparse.Namespace) -> int:
    _, graph = _bundle_and_graph(args.path)
    text = to_dimacs(graph)
    if args.out is None:
        sys.stdout.write(text)
    else:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as e:
            return _cannot_write(args.out, e)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command and return its exit code; a usage error raises
    SystemExit(64).

    The parsed command runs with the cyclic garbage collector paused, and
    `main` leaves `gc.isenabled()` as it found it, however it exits.  This
    relies on no command building a reference cycle: reference counting
    then frees all a command makes, so a collector pass would free nothing,
    yet it would walk every live container, a bundle's JSON tree and cells
    among them.  `test_no_command_leaves_cyclic_garbage` in
    tests/test_cli.py fails when a command leaves a cycle behind.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.run(args)
    except ParseError as e:
        sys.stderr.write(f"input error: {e}\n")
        return PARSE_EXIT
    except VerificationFailed as e:
        sys.stderr.write(f"verification failed: {e}\n")
        _emit({"ok": False, "report": e.report.to_json()})
        return VIOLATION_EXIT
    except (BadParameters, BadDimension) as e:
        sys.stderr.write(f"bad parameters: {e}\n")
        return USAGE_EXIT
    except ProjquadError as e:
        sys.stderr.write(f"error: {e}\n")
        return VIOLATION_EXIT
    except MemoryError:
        sys.stderr.write("out of memory\n")
        return OSERR_EXIT
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
