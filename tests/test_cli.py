import json
import random
import re
import shlex
from pathlib import Path

import pytest

from projquad.bundles import load_bundle, verify_bundle
from projquad.cli import _build_parser, main
from projquad.coloring import chromatic_number
from projquad.errors import ProjquadError
from projquad.graphs import graph_from_json

from conftest import quotient_lemmas_hold


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_and_verify_odd_cycle(tmp_path, capsys):
    out = tmp_path / "c5"
    code, stdout, _ = run(capsys, "build", "odd-cycle", "--k", "2", "--out", str(out))
    assert code == 0
    payload = json.loads(stdout)
    assert payload["ok"] is True
    assert (out / "complex.json").exists()
    code, stdout, _ = run(capsys, "verify", str(out), "--walks", "10")
    assert code == 0
    assert json.loads(stdout)["ok"] is True


def test_build_cylinder_and_chi(tmp_path, capsys):
    out = tmp_path / "cyl"
    code, _, _ = run(capsys, "build", "cylinder", "--r", "2", "--out", str(out))
    assert code == 0
    code, stdout, _ = run(capsys, "chi", str(out))
    assert code == 0
    payload = json.loads(stdout)
    assert payload["chi"] == 7
    assert len(payload["clique"]) == 7


def test_build_lift_chain(tmp_path, capsys):
    base = tmp_path / "base"
    lifted = tmp_path / "m4"
    assert run(capsys, "build", "odd-cycle", "--k", "2", "--out", str(base))[0] == 0
    code, stdout, _ = run(capsys, "build", "mycielski-lift", "--src", str(base), "--r", "2", "--out", str(lifted))
    assert code == 0
    code, stdout, _ = run(capsys, "chi", str(lifted))
    assert code == 0
    assert json.loads(stdout)["chi"] == 4


def test_build_suspend(tmp_path, capsys):
    base = tmp_path / "k5"
    up = tmp_path / "k6"
    assert run(capsys, "build", "cylinder", "--r", "1", "--out", str(base))[0] == 0
    code, _, _ = run(capsys, "build", "suspend", "--src", str(base), "--out", str(up))
    assert code == 0
    code, stdout, _ = run(capsys, "chi", str(up))
    assert json.loads(stdout)["chi"] == 6


def test_build_schrijver_and_hom_check(tmp_path, capsys):
    out = tmp_path / "sg"
    code, _, _ = run(capsys, "build", "schrijver", "--n", "6", "--k", "2", "--out", str(out))
    assert code == 0
    assert (out / "homomorphism.json").exists()
    code, stdout, _ = run(capsys, "hom-check", str(out))
    assert code == 0
    assert json.loads(stdout)["ok"] is True


def test_homology_command(tmp_path, capsys):
    out = tmp_path / "c"
    run(capsys, "build", "cylinder", "--r", "2", "--out", str(out))
    code, stdout, _ = run(capsys, "homology", str(out))
    assert code == 0
    assert json.loads(stdout)["betti"] == [1, 0, 0, 1]
    code, stdout, _ = run(capsys, "homology", str(out), "--dim", "1")
    assert code == 0
    assert json.loads(stdout)["betti"] == 0


def test_export_dimacs(tmp_path, capsys):
    out = tmp_path / "c5"
    run(capsys, "build", "odd-cycle", "--k", "2", "--out", str(out))
    code, stdout, _ = run(capsys, "export", str(out), "--format", "dimacs")
    assert code == 0
    assert "p edge 5 5" in stdout
    target = tmp_path / "g.col"
    code, stdout, _ = run(capsys, "export", str(out), "--format", "dimacs", "--out", str(target))
    assert code == 0
    assert "p edge 5 5" in target.read_text()


def test_build_onto_an_existing_file_cannot_write(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    code, stdout, err = run(capsys, "build", "odd-cycle", "--k", "2", "--out", str(out))
    assert (code, stdout) == (73, "")
    assert err.startswith(f"cannot write {out}: ") and err.count("\n") == 1
    assert out.read_text() == "not a directory\n"


def test_export_onto_a_directory_cannot_write(tmp_path, capsys):
    out = tmp_path / "c5"
    run(capsys, "build", "odd-cycle", "--k", "2", "--out", str(out))
    code, stdout, err = run(capsys, "export", str(out), "--format", "dimacs", "--out", str(tmp_path))
    assert (code, stdout) == (73, "")
    assert err.startswith(f"cannot write {tmp_path}: ") and err.count("\n") == 1


def test_chi_budget_exit(tmp_path, capsys):
    out = tmp_path / "m5"
    run(capsys, "build", "odd-cycle", "--k", "2", "--out", str(out / "a"))
    run(capsys, "build", "mycielski-lift", "--src", str(out / "a"), "--r", "2", "--out", str(out / "b"))
    run(capsys, "build", "mycielski-lift", "--src", str(out / "b"), "--r", "2", "--out", str(out / "c"))
    # A bundle would settle chi by its topological bound without a search;
    # its bare graph file runs the exact search, which the budget stops.
    code, stdout, err = run(capsys, "chi", str(out / "c" / "graph.json"), "--budget-ms", "0")
    assert code == 70
    payload = json.loads(stdout)
    assert payload["exhausted"] is False
    assert payload["lower"] <= payload["upper"]


def test_chi_of_a_verified_bundle_is_topological(tmp_path, capsys):
    out = tmp_path / "c5"
    run(capsys, "build", "odd-cycle", "--k", "2", "--out", str(out))
    code, stdout, _ = run(capsys, "chi", str(out))
    assert code == 0
    payload = json.loads(stdout)
    assert (payload["chi"], payload["proof"], payload["nodes"], payload["exhausted"]) == (3, "topological", 0, False)
    # the bare graph file gets the plain search, which proves the same chi
    code, stdout, _ = run(capsys, "chi", str(out / "graph.json"))
    assert code == 0
    bare = json.loads(stdout)
    assert (bare["chi"], bare["proof"], bare["exhausted"]) == (3, "exhaustive", True)
    assert (bare["clique"], bare["colouring"]) == (payload["clique"], payload["colouring"])


def test_chi_ignores_the_bound_of_a_failing_bundle(tmp_path, capsys):
    out = tmp_path / "c5"
    run(capsys, "build", "odd-cycle", "--k", "2", "--out", str(out))
    path = out / "graph.json"
    obj = json.loads(path.read_text())
    obj["edges"] = obj["edges"][:-1]  # the 5-cycle becomes a path
    path.write_text(json.dumps(obj))
    code, stdout, _ = run(capsys, "verify", str(out), "--walks", "0")
    assert code == 2
    assert "graph-matches-expected" in [e["name"] for e in json.loads(stdout)["report"] if not e["ok"]]
    code, stdout, err = run(capsys, "chi", str(out))
    assert code == 0
    assert "graph-matches-expected" in err
    payload = json.loads(stdout)
    assert payload["chi"] == 2
    assert payload["proof"] != "topological"

    # an antipodal pair of one colour breaks the equivariance of the box map
    out = tmp_path / "c5-recoloured"
    run(capsys, "build", "odd-cycle", "--k", "2", "--out", str(out))
    path = out / "colouring.json"
    obj = json.loads(path.read_text())
    obj["white"].remove(0)
    obj["black"] = sorted(obj["black"] + [0])
    path.write_text(json.dumps(obj))
    code, stdout, _ = run(capsys, "verify", str(out), "--walks", "0")
    assert code == 2
    assert "colouring-antisymmetric" in [e["name"] for e in json.loads(stdout)["report"] if not e["ok"]]
    code, stdout, _ = run(capsys, "chi", str(out))
    assert code == 0
    assert json.loads(stdout)["proof"] != "topological"


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as e:
        main(["build", "cylinder"])  # missing required arguments
    assert e.value.code == 64
    with pytest.raises(SystemExit) as e:
        main(["no-such-command"])
    assert e.value.code == 64


COUNT_ARGS = [
    ("verify", "BUNDLE", "--walks", "-3"),
    ("chi", "BUNDLE", "--max-nodes", "-1"),
    ("chi", "GRAPH", "--max-nodes", "-1"),
    ("chi", "GRAPH", "--budget-ms", "-5"),
    ("verify", "BUNDLE", "--walks", "three"),
]


@pytest.mark.parametrize("argv", COUNT_ARGS, ids=[" ".join(a) for a in COUNT_ARGS])
def test_a_count_that_is_negative_or_no_integer_is_a_usage_error(tmp_path, capsys, argv):
    bundle = tmp_path / "c5"
    assert run(capsys, "build", "odd-cycle", "--k", "2", "--out", str(bundle))[0] == 0
    paths = {"BUNDLE": str(bundle), "GRAPH": str(bundle / "graph.json"), "NEW": str(tmp_path / "new")}
    with pytest.raises(SystemExit) as e:
        main([paths.get(a, a) for a in argv])
    assert e.value.code == 64
    assert "expected an integer >= 0" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


def test_a_zero_count_is_valid(tmp_path, capsys):
    bundle = tmp_path / "c5"
    assert run(capsys, "build", "odd-cycle", "--k", "2", "--out", str(bundle))[0] == 0
    assert run(capsys, "verify", str(bundle), "--walks", "0")[0] == 0
    assert run(capsys, "chi", str(bundle), "--max-nodes", "0", "--budget-ms", "0")[0] == 0


BUILD_KINDS = [
    ("odd-cycle", "--k", "2"),
    ("cylinder", "--r", "1"),
    ("suspend", "--src", "BUNDLE"),
    ("mycielski-lift", "--src", "BUNDLE", "--r", "2"),
    ("complete", "--t", "4", "--n", "2"),
    ("schrijver", "--n", "6", "--k", "2"),
]


@pytest.mark.parametrize("option", ["--walks 2", "--seed 1"])
@pytest.mark.parametrize("kind", BUILD_KINDS, ids=[k[0] for k in BUILD_KINDS])
def test_build_takes_no_walk_options(tmp_path, capsys, kind, option):
    # Walks are sampled by `verify` alone: `build` neither lists nor accepts
    # the options, and writes nothing when given one.
    bundle = tmp_path / "c5"
    assert run(capsys, "build", "odd-cycle", "--k", "2", "--out", str(bundle))[0] == 0
    argv = ["build", *(str(bundle) if a == "BUNDLE" else a for a in kind), "--out", str(tmp_path / "new")]
    with pytest.raises(SystemExit) as e:
        main(argv + ["--help"])
    assert e.value.code == 0
    assert option.split()[0] not in capsys.readouterr().out
    with pytest.raises(SystemExit) as e:
        main(argv + option.split())
    assert e.value.code == 64
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


def _readme_commands() -> list[list[str]]:
    """The argvs of the `projquad ...` lines in the README's sh blocks."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S)
    return [shlex.split(line)[1:] for block in blocks for line in block.splitlines() if line.startswith("projquad ")]


def test_readme_commands_parse():
    # An option removed from the CLI must not be left behind in the docs.
    commands = _readme_commands()
    assert len(commands) == 12
    parser = _build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_bad_parameters_exit(tmp_path, capsys):
    code, _, err = run(capsys, "build", "cylinder", "--r", "0", "--out", str(tmp_path / "x"))
    assert code == 64
    assert "bad parameters" in err


def test_parse_error_exit(tmp_path, capsys):
    code, _, err = run(capsys, "verify", str(tmp_path / "nope"))
    assert code == 65
    code, _, _ = run(capsys, "chi", str(tmp_path / "nope"))
    assert code == 65


def test_verify_failure_exit(tmp_path, capsys):
    out = tmp_path / "v"
    run(capsys, "build", "odd-cycle", "--k", "2", "--out", str(out))
    path = out / "graph.json"
    obj = json.loads(path.read_text())
    obj["edges"] = obj["edges"][:-1]
    path.write_text(json.dumps(obj))
    code, stdout, _ = run(capsys, "verify", str(out))
    assert code == 2
    assert json.loads(stdout)["ok"] is False


def _dangling_facet(obj):
    next(c for c in obj["cells"] if c["dim"] == 1)["facets"][0] = 99


def _uncolour_vertex_9(obj):
    for side in ("black", "white"):
        obj[side] = [v for v in obj[side] if v != 9]


def _colour_a_vertex_twice(obj):
    obj["black"].append(obj["white"][0])


def _colour_a_missing_vertex(obj):
    obj["black"].append(99)


def _pair_with_missing_vertex(obj):
    obj["vertex_pairs"][0] = [0, 42]


def _cell_pair_with_missing_cell(obj):
    obj["cell_pairs"]["1"][0] = [0, 99]


def _cell_id_in_two_pairs(obj):
    # top-dimension pairs [q, r], [p, s] with q < p become [s, p], [p, q],
    # [q, r], read as {s: p, p: q, q: r, r: q}: every id is paired, q and r
    # are a true pair and no higher cell has p or s as a facet, so only the
    # involution law, checked at p and s, breaks
    pairs = obj["cell_pairs"][max(obj["cell_pairs"], key=int)]
    (q, r), (p, s) = pairs[0], pairs[1]
    pairs[:2] = [[s, p], [p, q], [q, r]]


def _unpair_an_edge(obj):
    del obj["cell_pairs"]["1"][0]


def _edge_paired_with_itself(obj):
    pair = obj["cell_pairs"]["1"][0]
    pair[1] = pair[0]


def _edge_paired_with_missing_edge(obj):
    obj["cell_pairs"]["1"][0][1] = 10**6


def _cell_pairs_above_dimension(obj):
    obj["cell_pairs"]["7"] = [[0, 1]]


def _padded_dimension_key(obj):
    # "01" would land on dimension 1 too and, read last, hide the fixed point.
    pairs = obj["cell_pairs"].pop("1")
    obj["cell_pairs"]["1"] = [[0, 0]]
    obj["cell_pairs"]["01"] = pairs


def _loop_edge(obj):
    obj["edges"].append([0, 0])


def _edge_to_unknown_vertex(obj):
    obj["edges"].append([0, 5])


def _null_cell_pairs(obj):
    obj["cell_pairs"] = None


def _int_cell_pairs(obj):
    obj["cell_pairs"] = 3


def _string_cell_pairs(obj):
    obj["cell_pairs"] = "x"


def _list_as_label(obj):
    obj["vertices"][0]["label"] = []


def _dict_as_entry_name(obj):
    obj[0]["name"] = {}


def _string_as_entry_verdict(obj):
    obj[0]["ok"] = "false"


def _negative_facet_id(obj):
    next(c for c in obj["cells"] if c["dim"] == 1)["facets"][0] = -1


def _inflated_dimension(obj):
    obj["dimension"] = 1_000_000


def _true_as_coloured_vertex(obj):
    obj["black"][obj["black"].index(1)] = True


def _float_in_vertex_pair(obj):
    obj["vertex_pairs"][1][0] = 1.5


def _true_as_orbit_rep(obj):
    obj["orbit_reps"][1][1] = True


def _true_as_coordinate(obj):
    obj["vertices"][0]["coords"][0] = True


def _string_as_coordinate(obj):
    obj["vertices"][0]["coords"][1] = "0.5"


def _ragged_coordinates(obj):
    del obj["vertices"][2]["coords"][0]


def _drop_entry_10(obj):
    del obj[10]


def _empty_report(obj):
    obj.clear()


def _invented_report(obj):
    obj[:] = [{"name": "made-up", "ok": True}]


def _extra_invented_entry(obj):
    obj.append({"name": "made-up", "ok": True})


def _record_a_failure(obj):
    obj[0]["ok"] = False


def _unmap_a_vertex(obj):
    obj["pairs"].pop()


def _colour_every_vertex_black(obj):
    # no 1-cell is bichromatic, so no walk can be sampled
    obj["black"], obj["white"] = sorted(obj["black"] + obj["white"]), []


def _pair_the_ends_of_an_edge(obj):
    # c5 pairs v with v + 5 and stores 0..4 as orbit representatives; its
    # 1-cells 9 and 4 join 0 to 9 and 4 to 5
    obj["vertex_pairs"] = [[0, 9], [1, 6], [2, 7], [3, 8], [4, 5]]


def _repeat_a_facet_of_an_upper_partner(obj):
    # tower-4 pairs its 2-cell 0 with 2-cell 20; the repeated id keeps the
    # set of 2-cell 20's facets the image of 2-cell 0's
    cell = next(c for c in obj["cells"] if (c["dim"], c["id"]) == (2, 20))
    cell["facets"].append(cell["facets"][0])


def _target_edge_unused_by_the_map(obj) -> int:
    """The index in a homomorphism JSON of the first target edge that is no
    source edge's image."""
    image = {json.dumps(u): json.dumps(v) for u, v in obj["pairs"]}
    used = {frozenset(image[json.dumps(x)] for x in edge) for edge in obj["source"]["edges"]}
    return next(i for i, edge in enumerate(obj["target"]["edges"]) if frozenset(map(json.dumps, edge)) not in used)


def _delete_an_unused_target_edge(obj):
    del obj["target"]["edges"][_target_edge_unused_by_the_map(obj)]


def _move_a_target_edge_onto_intersecting_subsets(obj):
    obj["target"]["edges"][_target_edge_unused_by_the_map(obj)] = [[1, 3], [1, 4]]


def _rename_a_target_vertex(obj, new):
    # every occurrence, so that the map stays a homomorphism into the target
    old = obj["target"]["vertices"][0]
    obj["target"]["vertices"][0] = new
    obj["target"]["edges"] = [[new if x == old else x for x in edge] for edge in obj["target"]["edges"]]
    obj["pairs"] = [[u, new if v == old else v] for u, v in obj["pairs"]]


def _relabel_a_target_vertex(obj):
    _rename_a_target_vertex(obj, [1, 2])  # adjacent, so not stable


def _give_a_target_label_another_size(obj):
    _rename_a_target_vertex(obj, obj["target"]["vertices"][0] + [6])


def _tamper(path, change):
    obj = json.loads(path.read_text())
    change(obj)
    path.write_text(json.dumps(obj))


# `build` argvs of each tampered bundle, each after the first reading the one before
SOURCES = {
    "c5": [("odd-cycle", "--k", "2")],
    "tower-4": [("odd-cycle", "--k", "2"), ("mycielski-lift", "--r", "2")],
    "schrijver-6-2": [("schrijver", "--n", "6", "--k", "2")],
}


def _build(tmp_path, capsys, builds):
    """Run the `build` argvs in turn; returns the last bundle's directory."""
    out = None
    for step, argv in enumerate(builds):
        src = [] if out is None else ["--src", str(out)]
        out = tmp_path / f"step-{step}"
        assert run(capsys, "build", argv[0], *src, *argv[1:], "--out", str(out))[0] == 0
    return out


# bundle, bundle file, change, command, exit code, audit entry (or for
# homology and hom-check, violation code) that must fail; `chi` names the
# failing audits on stderr and answers without the topological bound
TAMPERS = [
    ("c5", "complex.json", _dangling_facet, "verify", 2, "complex-valid"),
    ("c5", "colouring.json", _uncolour_vertex_9, "verify", 2, "colouring-total"),
    ("c5", "colouring.json", _colour_a_vertex_twice, "verify", 65, None),
    ("c5", "colouring.json", _colour_a_missing_vertex, "verify", 2, "colouring-total"),
    ("c5", "involution.json", _pair_with_missing_vertex, "verify", 2, "involution-valid"),
    ("c5", "involution.json", _cell_pair_with_missing_cell, "verify", 2, "involution-valid"),
    ("c5", "involution.json", _cell_pairs_above_dimension, "verify", 2, "involution-valid"),
    ("c5", "involution.json", _padded_dimension_key, "verify", 65, None),
    ("c5", "involution.json", _padded_dimension_key, "chi", 65, None),
    ("c5", "graph.json", _loop_edge, "verify", 65, None),
    ("c5", "graph.json", _edge_to_unknown_vertex, "verify", 65, None),
    ("c5", "graph.json", _edge_to_unknown_vertex, "chi", 65, None),
    ("c5", "involution.json", _null_cell_pairs, "verify", 65, None),
    ("c5", "involution.json", _null_cell_pairs, "chi", 65, None),
    ("c5", "involution.json", _int_cell_pairs, "verify", 65, None),
    ("c5", "involution.json", _string_cell_pairs, "verify", 65, None),
    ("c5", "complex.json", _list_as_label, "verify", 65, None),
    ("c5", "report.json", _dict_as_entry_name, "verify", 2, "report-consistent"),
    ("c5", "report.json", _string_as_entry_verdict, "verify", 2, "report-consistent"),
    ("c5", "complex.json", _negative_facet_id, "homology", 2, "DanglingFacet"),
    ("c5", "complex.json", _dangling_facet, "homology", 2, "DanglingFacet"),
    ("c5", "complex.json", _inflated_dimension, "homology", 65, None),
    ("c5", "complex.json", _inflated_dimension, "verify", 65, None),
    ("c5", "complex.json", _inflated_dimension, "chi", 65, None),
    ("c5", "colouring.json", _true_as_coloured_vertex, "verify", 65, None),
    ("c5", "involution.json", _float_in_vertex_pair, "verify", 65, None),
    ("c5", "graph.json", _true_as_orbit_rep, "verify", 65, None),
    ("c5", "complex.json", _true_as_coordinate, "verify", 65, None),
    ("c5", "complex.json", _string_as_coordinate, "verify", 65, None),
    ("c5", "complex.json", _ragged_coordinates, "verify", 65, None),
    ("c5", "complex.json", _ragged_coordinates, "chi", 65, None),
    ("c5", "report.json", _drop_entry_10, "verify", 2, "report-consistent"),
    ("c5", "report.json", _empty_report, "verify", 2, "report-consistent"),
    ("c5", "report.json", _invented_report, "verify", 2, "report-consistent"),
    ("c5", "report.json", _extra_invented_entry, "verify", 2, "report-consistent"),
    ("tower-4", "involution.json", _cell_id_in_two_pairs, "verify", 2, "involution-valid"),
    ("tower-4", "involution.json", _cell_id_in_two_pairs, "chi", 0, "involution-valid"),
    ("tower-4", "involution.json", _unpair_an_edge, "verify", 2, "involution-valid"),
    ("tower-4", "involution.json", _unpair_an_edge, "chi", 0, "involution-valid"),
    ("tower-4", "involution.json", _edge_paired_with_itself, "verify", 2, "involution-valid"),
    ("tower-4", "involution.json", _edge_paired_with_itself, "chi", 0, "involution-valid"),
    ("tower-4", "involution.json", _edge_paired_with_missing_edge, "verify", 2, "involution-valid"),
    ("tower-4", "involution.json", _edge_paired_with_missing_edge, "chi", 0, "involution-valid"),
    ("tower-4", "complex.json", _repeat_a_facet_of_an_upper_partner, "verify", 2, "complex-valid"),
    ("tower-4", "complex.json", _repeat_a_facet_of_an_upper_partner, "chi", 0, "complex-valid"),
    ("c5", "involution.json", _pair_the_ends_of_an_edge, "verify", 2, "antipodal-free"),
    ("c5", "involution.json", _pair_the_ends_of_an_edge, "chi", 0, "antipodal-free"),
    ("schrijver-6-2", "homomorphism.json", _delete_an_unused_target_edge, "verify", 2, "homomorphism-target-matches"),
    ("schrijver-6-2", "homomorphism.json", _delete_an_unused_target_edge, "chi", 0, "homomorphism-target-matches"),
    ("schrijver-6-2", "homomorphism.json", _move_a_target_edge_onto_intersecting_subsets, "verify", 2, "homomorphism-target-matches"),
    ("schrijver-6-2", "homomorphism.json", _move_a_target_edge_onto_intersecting_subsets, "chi", 0, "homomorphism-target-matches"),
    ("schrijver-6-2", "homomorphism.json", _relabel_a_target_vertex, "verify", 2, "homomorphism-target-matches"),
    ("schrijver-6-2", "homomorphism.json", _relabel_a_target_vertex, "chi", 0, "homomorphism-target-matches"),
    ("schrijver-6-2", "homomorphism.json", _give_a_target_label_another_size, "verify", 2, "homomorphism-target-matches"),
    ("schrijver-6-2", "homomorphism.json", _give_a_target_label_another_size, "chi", 0, "homomorphism-target-matches"),
    ("schrijver-6-2", "homomorphism.json", _delete_an_unused_target_edge, "hom-check", 2, "HomomorphismTargetMismatch"),
    ("schrijver-6-2", "homomorphism.json", _move_a_target_edge_onto_intersecting_subsets, "hom-check", 2, "HomomorphismTargetMismatch"),
    ("schrijver-6-2", "homomorphism.json", _relabel_a_target_vertex, "hom-check", 2, "HomomorphismTargetMismatch"),
    ("schrijver-6-2", "homomorphism.json", _give_a_target_label_another_size, "hom-check", 2, "HomomorphismTargetMismatch"),
    ("c5", "colouring.json", _colour_every_vertex_black, "verify", 2, "walk-parity"),
]


@pytest.mark.parametrize(
    "bundle,fname,change,command,exit_code,failing",
    TAMPERS,
    ids=[f"{command}-{change.__name__.lstrip('_')}" for _, _, change, command, _, _ in TAMPERS],
)
def test_tampered_bundle_fails_closed(tmp_path, capsys, bundle, fname, change, command, exit_code, failing):
    out = _build(tmp_path, capsys, SOURCES[bundle])
    _tamper(out / fname, change)
    code, stdout, err = run(capsys, command, str(out))
    assert code == exit_code
    assert "Traceback" not in err
    if failing is None:
        return
    payload = json.loads(stdout)
    if command == "chi":
        assert payload["proof"] != "topological"
        assert failing in err.split("failing audits: ")[1].strip().split(", ")
        return
    assert payload["ok"] is False
    if command in ("homology", "hom-check"):
        assert failing in [v["code"] for v in payload["violations"]]
        return
    entries = payload["report"]
    assert failing in [e["name"] for e in entries if not e["ok"]]
    if failing == "involution-valid":
        assert not [e["name"] for e in entries if e["name"].startswith("quotient")]


REPORT_REWRITES = [_drop_entry_10, _empty_report, _invented_report, _extra_invented_entry]


@pytest.mark.parametrize("change", REPORT_REWRITES, ids=[c.__name__.lstrip("_") for c in REPORT_REWRITES])
def test_chi_takes_no_bound_from_a_rewritten_report(tmp_path, capsys, change):
    out = tmp_path / "c5"
    assert run(capsys, "build", "odd-cycle", "--k", "2", "--out", str(out))[0] == 0
    _tamper(out / "report.json", change)
    code, stdout, err = run(capsys, "chi", str(out))
    assert code == 0
    assert "report-consistent" in err
    assert json.loads(stdout)["proof"] != "topological"


# source build, tampered file, change, build step on the source, failing entry
REJECTED_SOURCES = [
    (("odd-cycle", "--k", "2"), "report.json", _record_a_failure, ("suspend",), "report-consistent"),
    (("odd-cycle", "--k", "2"), "report.json", _drop_entry_10, ("suspend",), "report-consistent"),
    (
        ("schrijver", "--n", "6", "--k", "2"),
        "homomorphism.json",
        _unmap_a_vertex,
        ("mycielski-lift", "--r", "2"),
        "homomorphism-valid",
    ),
]


@pytest.mark.parametrize(
    "source,fname,change,step,failing",
    REJECTED_SOURCES,
    ids=[f"{step[0]}-{change.__name__.lstrip('_')}" for _, _, change, step, _ in REJECTED_SOURCES],
)
def test_build_rejects_a_source_that_verify_rejects(tmp_path, capsys, source, fname, change, step, failing):
    src, out = tmp_path / "src", tmp_path / "out"
    assert run(capsys, "build", *source, "--out", str(src))[0] == 0
    _tamper(src / fname, change)
    assert run(capsys, "verify", str(src), "--walks", "0")[0] == 2
    code, stdout, err = run(capsys, "build", step[0], "--src", str(src), *step[1:], "--out", str(out))
    assert code == 2
    assert "Traceback" not in err
    assert failing in [e["name"] for e in json.loads(stdout)["report"] if not e["ok"]]
    assert not out.exists()


def _nodes(obj, path=()):
    """Paths to every value inside a JSON value, containers included."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _nodes(value, path + (key,))


def _mutate(obj, path, rng: random.Random) -> str:
    """Change the value at `path` in place; returns a description."""
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    leaf = parent[key]
    kinds = ["set", "delete"] + (["step"] if type(leaf) is int else [])
    kind = rng.choice(kinds)
    if kind == "delete":
        del parent[key]
        return f"delete {list(path)}"
    if kind == "step":
        parent[key] = leaf + rng.choice((-1, 1))
    else:
        parent[key] = rng.choice((None, -1, 10**6, "x", [], {}, True, 1.5))
    return f"{kind} {list(path)} -> {parent[key]!r}"


def _quotient_lemmas_hold(bundle_dir) -> bool:
    """`quotient_lemmas_hold` on the verdict of the stored bundle."""
    try:
        report, artifacts = verify_bundle(load_bundle(bundle_dir), n_walks=0)
    except ProjquadError:  # the CLI's exit code for it is judged separately
        return True
    return quotient_lemmas_hold(report, artifacts)


def _mutants_never_crash_nor_lie(tmp_path, capsys, builds, cases: int, seed: int) -> None:
    """Build a bundle by the `build` argvs in turn (each after the first
    reads the one before), then apply `cases` seeded one-value mutations.

    No mutant may crash `verify`, `chi`, `homology` or `hom-check`, and wherever `chi`
    claims a topological proof, the exact search on the mutant's own
    graph.json, with no bound, must give the same chromatic number.  Where
    `quotient-valid` or `identification-commutes` passes by its lemma, the
    check it replaces must pass (see `_quotient_lemmas_hold`).
    """
    out = _build(tmp_path, capsys, builds)
    files = {p.name: json.loads(p.read_text()) for p in sorted(out.iterdir())}
    rng = random.Random(seed)
    failures = []
    for _ in range(cases):
        name = rng.choice(sorted(files))
        mutated = json.loads(json.dumps(files[name]))
        paths = list(_nodes(mutated))
        what = f"{name}: " + _mutate(mutated, rng.choice(paths), rng)
        (out / name).write_text(json.dumps(mutated))
        if not _quotient_lemmas_hold(out):
            failures.append(f"a quotient lemma passes after {what}, but the check it replaces fails")
        for argv in (
            ["verify", str(out), "--walks", "20"],
            ["chi", str(out)],
            ["homology", str(out)],
            ["hom-check", str(out)],
        ):
            try:
                code = main(argv)
            except Exception as exc:  # every escape from main is a failure
                code = f"{type(exc).__name__}: {exc}"
            stdout = capsys.readouterr().out
            if code not in (0, 2, 65, 70):
                failures.append(f"{argv[0]} after {what}: {code}")
            elif argv[0] == "chi" and code == 0:
                settled = json.loads(stdout)
                if settled["proof"] == "topological":
                    exact = chromatic_number(graph_from_json(json.loads((out / "graph.json").read_text()))).chi
                    if settled["chi"] != exact:
                        failures.append(f"chi after {what}: topological chi {settled['chi']}, exact chi {exact}")
        (out / name).write_text(json.dumps(files[name]))
    assert not failures, "\n".join(failures[:20])


def test_build_src_rejects_exactly_what_verify_rejects(tmp_path, capsys):
    """`build --src` judges its source as `verify --walks 0` does: over
    seeded one-value mutants of a c5 bundle, `build suspend --src` exits
    with the code of `verify --walks 0`."""
    src = tmp_path / "c5"
    assert run(capsys, "build", "odd-cycle", "--k", "2", "--out", str(src))[0] == 0
    files = {p.name: json.loads(p.read_text()) for p in sorted(src.iterdir())}
    rng = random.Random(1)
    differ = []
    for case in range(100):
        name = rng.choice(sorted(files))
        mutated = json.loads(json.dumps(files[name]))
        what = f"{name}: " + _mutate(mutated, rng.choice(list(_nodes(mutated))), rng)
        (src / name).write_text(json.dumps(mutated))
        verified = run(capsys, "verify", str(src), "--walks", "0")[0]
        built = run(capsys, "build", "suspend", "--src", str(src), "--out", str(tmp_path / f"up-{case}"))[0]
        if built != verified:
            differ.append(f"{what}: verify exits {verified}, build exits {built}")
        (src / name).write_text(json.dumps(files[name]))
    assert not differ, "\n".join(differ)


def test_mutated_bundles_never_crash(tmp_path, capsys):
    _mutants_never_crash_nor_lie(tmp_path, capsys, [("odd-cycle", "--k", "2")], cases=200, seed=0)


@pytest.mark.parametrize(
    "builds, cases",
    [
        ([("cylinder", "--r", "3")], 100),
        ([("odd-cycle", "--k", "2"), ("mycielski-lift", "--r", "2")], 200),
        ([("schrijver", "--n", "6", "--k", "2")], 200),
    ],
    ids=["cylinder-3", "tower-4", "schrijver-6-2"],
)
def test_mutated_corpus_bundles_never_crash_nor_lie(tmp_path, capsys, builds, cases):
    _mutants_never_crash_nor_lie(tmp_path, capsys, builds, cases=cases, seed=0)
