import argparse
import gc
import json
import os
import random
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import projquad
from projquad import bundles, cli, constructions
from projquad.bundles import load_bundle, verify_bundle
from projquad.cli import _build_parser, main
from projquad.coloring import chromatic_number
from projquad.complexes import Cell, SimplicialBuilder
from projquad.errors import ProjquadError
from projquad.graphs import MAX_LABEL_DEPTH, graph_from_json
from projquad.symmetry import validate_involution

from conftest import parity_lemma_holds, quotient_lemmas_hold, validate_involution_by_pairs, walk_parity_is_its_recount


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


def test_build_suspend_of_a_tower_adds_a_universal_pole_label(tmp_path, capsys):
    # The tower's labels are not all ints, so the poles' orbit is "pole-0".
    tower = _build(tmp_path, capsys, SOURCES["tower-4"])
    up = tmp_path / "up"
    assert run(capsys, "build", "suspend", "--src", str(tower), "--out", str(up))[0] == 0
    graph = graph_from_json(json.loads((up / "graph.json").read_text()))
    below = graph_from_json(json.loads((tower / "graph.json").read_text()))
    assert set(graph.vertices) == {*below.vertices, "pole-0"}
    assert graph.neighbors("pole-0") == set(below.vertices)
    assert run(capsys, "verify", str(up))[0] == 0
    code, stdout, _ = run(capsys, "chi", str(up))
    payload = json.loads(stdout)
    assert (code, payload["chi"], payload["proof"]) == (0, 5, "topological")


def test_build_schrijver_and_hom_check(tmp_path, capsys):
    out = tmp_path / "sg"
    code, _, _ = run(capsys, "build", "schrijver", "--n", "6", "--k", "2", "--out", str(out))
    assert code == 0
    assert (out / "homomorphism.json").exists()
    for path in (out, out / "homomorphism.json"):
        code, stdout, _ = run(capsys, "hom-check", str(path))
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
    # missing required arguments, an unknown command, no build kind, no command
    for argv in (["build", "cylinder"], ["no-such-command"], ["build"], []):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 64, argv


def _choices(parser) -> dict:
    """The subcommand parsers of a parser, by name."""
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _minimal_argv(parser) -> list[str]:
    """A value for each required argument of a parser, subcommands aside."""
    argv = []
    for action in parser._actions:
        if action.required and not isinstance(action, argparse._SubParsersAction):
            argv += [*action.option_strings[:1], (action.choices or ["1"])[0]]
    return argv


def test_every_command_and_build_kind_has_a_handler():
    # `main` calls the `run` that the parser set for the command, and `build`
    # the `make` that it set for the kind.
    parser = _build_parser()
    seen = []
    for command, sub in _choices(parser).items():
        kinds = _choices(sub) if command == "build" else {None: sub}
        for kind, leaf in kinds.items():
            args = parser.parse_args([command, *([kind] if kind else []), *_minimal_argv(leaf)])
            assert callable(args.run), (command, kind)
            assert kind is None or callable(args.make), (command, kind)
            seen.append(kind or command)
    assert sorted(seen) == sorted(
        ["verify", "chi", "homology", "hom-check", "export"]
        + ["odd-cycle", "cylinder", "suspend", "mycielski-lift", "complete", "schrijver"]
    )


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


def _readme_blocks(language: str) -> list[str]:
    """The code blocks of the README fenced as the given language."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```", text, flags=re.M | re.S)


def _readme_commands() -> list[list[str]]:
    """The argvs of the `projquad ...` lines in the README's sh blocks."""
    blocks = _readme_blocks("sh")
    return [shlex.split(line)[1:] for block in blocks for line in block.splitlines() if line.startswith("projquad ")]


def test_readme_commands_parse():
    # An option removed from the CLI must not be left behind in the docs.
    commands = _readme_commands()
    assert len(commands) == 12
    parser = _build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_readme_python_example_prints_what_its_comments_state(capsys):
    (block,) = _readme_blocks("python")
    stated = re.findall(r"^print\(.*#\s*(.*?)\s*$", block, flags=re.M)
    assert stated == ["5 True exhaustive", "topological"]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == stated


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


def _list_a_vertex_twice(obj):
    obj["vertices"].append(obj["vertices"][0])


def _list_a_target_vertex_twice(obj):
    _list_a_vertex_twice(obj["target"])


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


def _list_an_orbit_rep_label_twice(obj):
    label, rep = obj["orbit_reps"][0]
    obj["orbit_reps"].append([label, rep + 5])  # on c5, the rep's partner


def _drop_the_last_orbit_rep(obj):
    obj["orbit_reps"].pop()


def _move_the_upper_0_cell_7_onto_vertex_8(obj):
    # c5 pairs 0-cell 2 with 0-cell 7; complex-valid may judge the lower
    # cell of each pair only because the involution check refuses this
    next(c for c in obj["cells"] if (c["dim"], c["id"]) == (0, 7))["vertices"] = [8]


def _give_0_cell_0_facet_3(obj):
    # The cell law gives a 0-cell no facets
    next(c for c in obj["cells"] if (c["dim"], c["id"]) == (0, 0))["facets"] = [3]


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


def _tower_4_2_cell(obj, i: int) -> dict:
    # tower-4 pairs its top cells, the 2-cells, i with i + 20 for i < 20
    return next(c for c in obj["cells"] if (c["dim"], c["id"]) == (2, i))


def _reverse_the_facets_of_lower_2_cell_0(obj):
    # the cell law and the involution check read facets as a set
    _tower_4_2_cell(obj, 0)["facets"].reverse()


def _reverse_the_facets_of_upper_2_cell_20(obj):
    _tower_4_2_cell(obj, 20)["facets"].reverse()


def _reverse_the_vertices_of_upper_2_cell_20(obj):
    # still the image of 2-cell 0's vertices, but not sorted
    _tower_4_2_cell(obj, 20)["vertices"].reverse()


def _one_cells(obj):
    return [c for c in obj["cells"] if c["dim"] == 1]


def _two_edges_share_an_id(obj):
    first, second = _one_cells(obj)[:2]
    second["id"] = first["id"]


def _edge_id_leaves_a_gap(obj):
    _one_cells(obj)[0]["id"] = 99


def _true_as_edge_id(obj):
    next(c for c in _one_cells(obj) if c["id"] == 1)["id"] = True


def _reverse_the_cells(obj):
    # a cell is placed by its stated id, not by where the list holds it
    obj["cells"].reverse()


def _swap_two_edge_ids(obj):
    first, second = _one_cells(obj)[:2]
    first["id"], second["id"] = second["id"], first["id"]


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


def _undecodable_bytes(obj):
    return b"\xff\xfe{"


def _a_list_in_place_of_the_object(obj):
    return json.dumps([obj]).encode()


def _an_object_in_place_of_the_list(obj):
    return json.dumps({"entries": obj}).encode()


def _nest_100000_lists(obj):
    return b"[" * 100_000 + b"]" * 100_000


def _with_a_deep_label(obj, holder: list) -> bytes:
    """The JSON text of `obj` once `holder[0]` is a label nested 900 lists
    deep, spliced in as text, since json.dumps would recurse through it."""
    holder[0] = "DEEP"
    return json.dumps(obj).replace('"DEEP"', "[" * 900 + "]" * 900, 1).encode()


def _nest_a_label_900_lists_deep(obj):
    return _with_a_deep_label(obj, obj["vertices"])


def _nest_an_orbit_rep_label_900_lists_deep(obj):
    return _with_a_deep_label(obj, obj["orbit_reps"][0])


def _nest_a_pair_label_900_lists_deep(obj):
    return _with_a_deep_label(obj, obj["pairs"][0])


def _with_a_5001_digit_int(obj, holder: list) -> bytes:
    """The JSON text of `obj` once `holder[0]` is an integer of 5,001
    digits, past Python's limit for converting text to int, spliced in as
    text, since json.dumps cannot write it either."""
    holder[0] = "LONG"
    return json.dumps(obj).replace('"LONG"', "9" * 5001, 1).encode()


def _a_5001_digit_coordinate(obj):
    return _with_a_5001_digit_int(obj, obj["vertices"][0]["coords"])


def _a_5001_digit_black_vertex(obj):
    return _with_a_5001_digit_int(obj, obj["black"])


def _a_5001_digit_vertex_label(obj):
    return _with_a_5001_digit_int(obj, obj["vertices"])


def _a_coordinate_too_large_for_a_float(obj):
    obj["vertices"][0]["coords"][0] = 10**400


def _rename_a_vertex_to_a_label_lists_deep(obj, depth: int) -> bytes:
    """The JSON text of a graph file once its first vertex is renamed, in its
    vertices, edges and orbit representatives, to a label nested `depth`
    lists deep, spliced in as text."""
    old = obj["vertices"][0]

    def rename(label):
        return "DEEP" if label == old else label

    obj["vertices"] = [rename(v) for v in obj["vertices"]]
    obj["edges"] = [[rename(u), rename(v)] for u, v in obj["edges"]]
    obj["orbit_reps"] = [[rename(label), v] for label, v in obj.get("orbit_reps", [])]
    return json.dumps(obj).replace('"DEEP"', "[" * depth + "]" * depth).encode()


def _rename_a_vertex_to_a_label_at_the_depth_limit(obj):
    return _rename_a_vertex_to_a_label_lists_deep(obj, MAX_LABEL_DEPTH)


def _rename_a_vertex_to_a_label_past_the_depth_limit(obj):
    return _rename_a_vertex_to_a_label_lists_deep(obj, MAX_LABEL_DEPTH + 1)


def _rename_a_vertex_to_a_label_494_lists_deep(obj):
    return _rename_a_vertex_to_a_label_lists_deep(obj, 494)


def _tamper(path, change):
    """Apply `change` to the JSON value in the file; a change that returns
    bytes replaces the file with them."""
    obj = json.loads(path.read_text())
    text = change(obj)
    path.write_bytes(text if isinstance(text, bytes) else json.dumps(obj).encode())


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


def _pair_each_cylinder_cell_with_a_neighbour_of_its_partner(monkeypatch):
    id_of = SimplicialBuilder.id_of
    monkeypatch.setattr(SimplicialBuilder, "id_of", lambda self, vertices: id_of(self, vertices) ^ 1)


def _give_the_lift_vertex_0_its_partners_colour(monkeypatch):
    colouring = constructions.TwoColouring
    monkeypatch.setattr(constructions, "TwoColouring", lambda black, white: colouring(black ^ {0}, white ^ {0}))


# A constructor bug, the build before it, and the one entry it fails.
BROKEN_BUILDS = [
    (_pair_each_cylinder_cell_with_a_neighbour_of_its_partner, [("cylinder", "--r", "3")], "involution-valid"),
    (
        _give_the_lift_vertex_0_its_partners_colour,
        [("odd-cycle", "--k", "2"), ("mycielski-lift", "--r", "2")],
        "colouring-antisymmetric",
    ),
]


@pytest.mark.parametrize("bug,builds,failing", BROKEN_BUILDS, ids=["cylinder-pairing", "lift-colouring"])
def test_a_constructor_bug_fails_its_build_with_a_named_entry(tmp_path, capsys, monkeypatch, bug, builds, failing):
    # A built ball gets only the checks its double reads; a bug that breaks
    # one of them exits 2 with the report, not with a traceback.
    src = _build(tmp_path, capsys, builds[:-1])
    bug(monkeypatch)
    kind, *args = builds[-1]
    out = tmp_path / "broken"
    code, stdout, err = run(capsys, "build", kind, *(["--src", str(src)] if src else []), *args, "--out", str(out))
    assert code == 2 and "Traceback" not in err
    assert not out.exists()
    payload = json.loads(stdout)
    assert payload["ok"] is False
    assert [e["name"] for e in payload["report"] if not e["ok"]] == [failing]


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
    ("c5", "graph.json", _list_a_vertex_twice, "verify", 65, None),
    ("c5", "graph.json", _list_a_vertex_twice, "chi", 65, None),
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
    ("c5", "graph.json", _list_an_orbit_rep_label_twice, "verify", 65, None),
    ("c5", "graph.json", _list_an_orbit_rep_label_twice, "chi", 65, None),
    ("c5", "graph.json", _drop_the_last_orbit_rep, "verify", 2, "orbit-reps-cover"),
    ("c5", "graph.json", _drop_the_last_orbit_rep, "chi", 0, "orbit-reps-cover"),
    ("c5", "complex.json", _move_the_upper_0_cell_7_onto_vertex_8, "verify", 2, "complex-valid"),
    ("c5", "complex.json", _give_0_cell_0_facet_3, "verify", 2, "complex-valid"),
    ("c5", "complex.json", _give_0_cell_0_facet_3, "homology", 2, "VertexArityMismatch"),
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
    ("tower-4", "complex.json", _reverse_the_facets_of_lower_2_cell_0, "verify", 0, None),
    ("tower-4", "complex.json", _reverse_the_facets_of_lower_2_cell_0, "chi", 0, None),
    ("tower-4", "complex.json", _reverse_the_facets_of_upper_2_cell_20, "verify", 0, None),
    ("tower-4", "complex.json", _reverse_the_facets_of_upper_2_cell_20, "chi", 0, None),
    ("tower-4", "complex.json", _reverse_the_vertices_of_upper_2_cell_20, "verify", 2, "complex-valid"),
    ("tower-4", "complex.json", _reverse_the_vertices_of_upper_2_cell_20, "chi", 0, "complex-valid"),
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
    ("c5", "report.json", _undecodable_bytes, "verify", 65, None),
    ("c5", "graph.json", _a_list_in_place_of_the_object, "verify", 65, None),
    ("c5", "graph.json", _a_list_in_place_of_the_object, "chi", 65, None),
    ("c5", "report.json", _an_object_in_place_of_the_list, "verify", 65, None),
    ("c5", "report.json", _nest_100000_lists, "verify", 65, None),
    ("c5", "graph.json", _nest_a_label_900_lists_deep, "chi", 65, None),
    ("c5", "graph.json", _nest_an_orbit_rep_label_900_lists_deep, "verify", 65, None),
    ("c5", "graph.json", _rename_a_vertex_to_a_label_at_the_depth_limit, "verify", 0, None),
    ("c5", "graph.json", _rename_a_vertex_to_a_label_at_the_depth_limit, "chi", 0, None),
    ("c5", "graph.json", _rename_a_vertex_to_a_label_past_the_depth_limit, "verify", 65, None),
    ("c5", "graph.json", _rename_a_vertex_to_a_label_past_the_depth_limit, "chi", 65, None),
    ("c5", "complex.json", _two_edges_share_an_id, "verify", 65, None),
    ("c5", "complex.json", _edge_id_leaves_a_gap, "verify", 65, None),
    ("c5", "complex.json", _true_as_edge_id, "verify", 65, None),
    ("c5", "complex.json", _reverse_the_cells, "verify", 0, None),
    ("c5", "complex.json", _swap_two_edge_ids, "verify", 2, "involution-valid"),
    ("c5", "complex.json", _a_5001_digit_coordinate, "verify", 65, None),
    ("c5", "colouring.json", _a_5001_digit_black_vertex, "chi", 65, None),
    ("c5", "complex.json", _a_coordinate_too_large_for_a_float, "verify", 65, None),
    ("c5", "complex.json", _a_coordinate_too_large_for_a_float, "chi", 65, None),
    ("c5", "complex.json", _a_coordinate_too_large_for_a_float, "homology", 65, None),
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
    assert all(_lemmas_hold(out, 100, seed) for seed in (0, 7))
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


def test_a_complex_with_its_cells_listed_in_reverse_verifies_as_before(tmp_path, capsys):
    # A parsed cell's id is its position, whatever order the file lists it in.
    out = _build(tmp_path, capsys, SOURCES["c5"])
    untampered = run(capsys, "verify", str(out))
    _tamper(out / "complex.json", _reverse_the_cells)
    assert run(capsys, "verify", str(out)) == untampered


@pytest.mark.parametrize("change", [_reverse_the_facets_of_lower_2_cell_0, _reverse_the_facets_of_upper_2_cell_20])
def test_a_top_cell_with_its_facets_reversed_verifies_as_before(tmp_path, capsys, change):
    # The column passes want facets in deletion order; a cell that lists
    # them otherwise goes to the cell law's rule chain and the involution's
    # per-pair body, which read them as a set.
    out = _build(tmp_path, capsys, SOURCES["tower-4"])
    untampered = [run(capsys, command, str(out)) for command in ("verify", "chi")]
    _tamper(out / "complex.json", change)
    assert [run(capsys, command, str(out)) for command in ("verify", "chi")] == untampered


def test_an_upper_partner_with_its_vertices_reversed_fails_the_cell_law(tmp_path, capsys):
    # The involution's column pass wants the sorted image; the per-pair body
    # sorts it, finds it differs from the unsorted partner and refuses the
    # involution, so the complex is judged cell by cell.
    out = _build(tmp_path, capsys, SOURCES["tower-4"])
    _tamper(out / "complex.json", _reverse_the_vertices_of_upper_2_cell_20)
    code, stdout, _ = run(capsys, "verify", str(out))
    assert code == 2
    assert [e["name"] for e in json.loads(stdout)["report"] if not e["ok"]] == ["complex-valid", "report-consistent"]
    code, _, err = run(capsys, "chi", str(out))
    assert code == 0 and "no topological bound: failing audits: complex-valid, report-consistent" in err


def test_the_involution_pass_judges_every_tampered_bundle_as_the_per_pair_loop(tmp_path, capsys):
    built: dict = {}
    for bundle, fname, change, *_ in dict.fromkeys(row[:3] for row in TAMPERS):
        if bundle not in built:
            (tmp_path / bundle).mkdir()
            built[bundle] = _build(tmp_path / bundle, capsys, SOURCES[bundle])
        out = tmp_path / f"{bundle}-{fname}-{change.__name__}"
        shutil.copytree(built[bundle], out)
        _tamper(out / fname, change)
        try:
            stored = load_bundle(out)
        except ProjquadError:
            continue
        judged = validate_involution(stored.complex, stored.involution)
        assert judged == validate_involution_by_pairs(stored.complex, stored.involution), (bundle, change.__name__)


def test_a_0_cell_off_its_vertex_fails_complex_valid_at_every_broken_cell(tmp_path, capsys):
    # The upper 0-cell of a pair is judged through the image rule of the
    # involution check, which fails here, so the complex is judged in full.
    out = _build(tmp_path, capsys, SOURCES["c5"])
    _tamper(out / "complex.json", _move_the_upper_0_cell_7_onto_vertex_8)
    code, stdout, _ = run(capsys, "verify", str(out))
    assert code == 2
    entry = next(e for e in json.loads(stdout)["report"] if e["name"] == "complex-valid")
    assert [(v["code"], v["cell_dim"], v["cell_id"]) for v in entry["violations"]] == [
        ("VertexCellMismatch", 0, 7),
        ("FacetCoverageViolation", 1, 6),
        ("FacetCoverageViolation", 1, 7),
    ]


# file, change, command given the file itself rather than its bundle
BARE_FILE_TAMPERS = [
    ("graph.json", _nest_a_label_900_lists_deep, "chi"),
    ("graph.json", _undecodable_bytes, "export"),
    ("complex.json", _nest_100000_lists, "homology"),
    ("homomorphism.json", _nest_a_pair_label_900_lists_deep, "hom-check"),
    ("graph.json", _list_a_vertex_twice, "chi"),
    ("homomorphism.json", _list_a_target_vertex_twice, "hom-check"),
    ("graph.json", _a_5001_digit_vertex_label, "chi"),
]


@pytest.mark.parametrize(
    "fname,change,command",
    BARE_FILE_TAMPERS,
    ids=[f"{command}-{change.__name__.lstrip('_')}" for _, change, command in BARE_FILE_TAMPERS],
)
def test_a_bare_file_that_does_not_decode_exits_65(tmp_path, capsys, fname, change, command):
    out = _build(tmp_path, capsys, SOURCES["schrijver-6-2"])
    _tamper(out / fname, change)
    argv = ["--format", "dimacs"] if command == "export" else []
    code, stdout, err = run(capsys, command, str(out / fname), *argv)
    assert (code, stdout) == (65, "")
    assert err.startswith("input error: ")


def _graph(vertices, edges):
    return {"vertices": vertices, "edges": edges}


# command, bare file: each exited 0 when any iterable passed for an array
WRONGLY_SHAPED_FILES = [
    ("chi", _graph(["a", "b"], ["ab"])),
    ("chi", _graph("ab", [["a", "b"]])),
    ("chi", _graph(["a", "b"], [{"a": 1, "b": 2}])),
    ("chi", _graph({"a": 1, "b": 2}, [["a", "b"]])),
    ("hom-check", {"source": _graph(["a"], []), "target": _graph(["b"], []), "pairs": ["ab"]}),
    ("hom-check", {"source": _graph(["a"], []), "target": _graph(["b", "c"], []), "pairs": [["a", "b"], ["a", "c"]]}),
    ("hom-check", []),
]


@pytest.mark.parametrize(
    "command,obj",
    WRONGLY_SHAPED_FILES,
    ids=["edge-string", "vertices-string", "edge-object", "vertices-object", "pair-string", "source-mapped-twice", "list"],
)
def test_a_wrongly_shaped_graph_or_homomorphism_file_exits_65(tmp_path, capsys, command, obj):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(obj))
    code, stdout, err = run(capsys, command, str(path))
    assert (code, stdout) == (65, "")
    assert err.startswith("input error: ")


SRC = str(Path(projquad.__file__).resolve().parents[1])


def _run_in_a_child(*args):
    """Exit code, stdout and stderr of a fresh Python given `args`, with the
    package on its path: a child's stack and limits are its own, not those
    of the test runner."""
    env = {**os.environ, "PYTHONPATH": SRC}
    child = subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=300, env=env)
    return child.returncode, child.stdout, child.stderr


def test_a_label_494_lists_deep_exits_65(tmp_path, capsys):
    # Without a depth limit, a fresh `python -m projquad.cli chi` parsed this
    # label and then overflowed the stack in the output writer (exit 1).
    out = _build(tmp_path, capsys, SOURCES["schrijver-6-2"])
    _tamper(out / "graph.json", _rename_a_vertex_to_a_label_494_lists_deep)
    code, stdout, err = _run_in_a_child("-m", "projquad.cli", "chi", str(out / "graph.json"))
    assert (code, stdout) == (65, "")
    assert err == f"input error: a vertex label nests more than {MAX_LABEL_DEPTH} lists\n"


def test_one_parser_serves_every_call_of_a_process(tmp_path, capsys):
    # A usage error, a verify and the same usage error again give, in one
    # process, the exit codes and output of three fresh processes.
    bundle = tmp_path / "c5"
    assert run(capsys, "build", "odd-cycle", "--k", "2", "--out", str(bundle))[0] == 0
    calls = (["build", "cylinder"], ["verify", str(bundle), "--walks", "10"], ["build", "cylinder"])
    in_one = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        captured = capsys.readouterr()
        in_one.append((code, captured.out, captured.err))
    assert [code for code, _, _ in in_one] == [64, 0, 64]
    assert in_one == [_run_in_a_child("-m", "projquad.cli", *argv) for argv in calls]
    assert _build_parser() is _build_parser()


# One row of TAMPERS for each exit code the table pins: 0, 2 (the walk
# solver's path) and 65 (a label nested past the depth limit).
ACYCLIC_TAMPERS = [
    row for row in TAMPERS if row[2] in (_reverse_the_cells, _colour_every_vertex_black, _nest_a_label_900_lists_deep)
]


def _exits_and_cyclic_garbage(capsys, argvs) -> list:
    """Run `main` on each argv with the collector off; returns the exit code
    of each and the number of unreachable objects it left behind.  Nothing
    but `main` runs between two full collections."""
    seen = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for argv in argvs:
            code = main(argv)
            seen.append((code, gc.collect()))
    finally:
        if collecting:
            gc.enable()
    capsys.readouterr()
    return seen


def test_no_command_leaves_cyclic_garbage(tmp_path, capsys):
    # `main` pauses the cyclic collector while a command runs. That holds no
    # memory only while reference counting frees all a command makes, so with
    # the collector off, a full collection after each command finds nothing.
    _build_parser()  # argparse's formatter makes cycles once, as the parser is built
    dirs = {name: tmp_path / name for name in ("c5", "tower-4", "cylinder-3", "schrijver-6-2")}
    argvs = [
        ["build", "odd-cycle", "--k", "2", "--out", str(dirs["c5"])],
        ["build", "mycielski-lift", "--src", str(dirs["c5"]), "--r", "2", "--out", str(dirs["tower-4"])],
        ["build", "cylinder", "--r", "3", "--out", str(dirs["cylinder-3"])],
        ["build", "schrijver", "--n", "6", "--k", "2", "--out", str(dirs["schrijver-6-2"])],
    ]
    for out in map(str, dirs.values()):
        argvs += [["verify", out, "--walks", "100"], ["chi", out], ["homology", out], ["hom-check", out]]
        argvs.append(["export", out, "--format", "dimacs"])
    seen = _exits_and_cyclic_garbage(capsys, argvs)
    assert [code for code, _ in seen[:4]] == [0, 0, 0, 0]
    tampered = []
    for bundle, fname, change, command, _, _ in ACYCLIC_TAMPERS:
        out = tmp_path / f"{command}-{change.__name__.lstrip('_')}"
        shutil.copytree(dirs[bundle], out)
        _tamper(out / fname, change)
        tampered.append([command, str(out)])
    seen_tampered = _exits_and_cyclic_garbage(capsys, tampered)
    assert [code for code, _ in seen_tampered] == [row[4] for row in ACYCLIC_TAMPERS]
    left = {" ".join(argv): n for argv, (_, n) in zip(argvs + tampered, seen + seen_tampered) if n}
    assert left == {}


def _exit_of(argv):
    """`main`'s exit code, also when it raises SystemExit; the name of a
    KeyboardInterrupt that escapes it."""
    try:
        return main(argv)
    except SystemExit as e:
        return e.code
    except KeyboardInterrupt:
        return "KeyboardInterrupt"


@pytest.mark.parametrize("collecting", [True, False], ids=["enabled", "disabled"])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, capsys, monkeypatch, collecting):
    c5 = _build(tmp_path, capsys, SOURCES["c5"])
    failing, malformed, taken = tmp_path / "failing", tmp_path / "malformed", tmp_path / "taken"
    shutil.copytree(c5, failing)
    _tamper(failing / "colouring.json", _colour_every_vertex_black)
    shutil.copytree(c5, malformed)
    _tamper(malformed / "colouring.json", _colour_a_vertex_twice)
    taken.write_text("")

    running = []  # the collector's state as each patched builder runs

    def out_of_memory(*args):
        running.append(gc.isenabled())
        raise MemoryError

    def interrupted(*args):
        running.append(gc.isenabled())
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "complete_graph_pipeline", out_of_memory)
    monkeypatch.setattr(cli, "schrijver_pipeline", interrupted)
    # argv, and the exit code or the exception that leaves main
    cases = [
        (["verify", str(c5)], 0),
        (["verify", str(failing)], 2),
        (["build", "cylinder", "--r", "0", "--out", str(tmp_path / "r0")], 64),
        (["build", "cylinder"], 64),  # argparse's SystemExit
        (["verify", str(malformed)], 65),
        (["chi", str(c5 / "graph.json"), "--max-nodes", "0"], 70),
        (["build", "complete", "--t", "3", "--n", "1", "--out", str(tmp_path / "k3")], 71),
        (["build", "odd-cycle", "--k", "2", "--out", str(taken)], 73),
        (["build", "schrijver", "--n", "6", "--k", "2", "--out", str(tmp_path / "sg")], "KeyboardInterrupt"),
    ]
    seen = []
    was = gc.isenabled()
    try:
        for argv, _ in cases:
            (gc.enable if collecting else gc.disable)()
            seen.append((_exit_of(argv), gc.isenabled()))
    finally:
        (gc.enable if was else gc.disable)()
    capsys.readouterr()
    assert seen == [(code, collecting) for _, code in cases]
    assert running == [False, False]  # a command runs with the collector paused


# Runs the CLI on its arguments once it has capped its own address space
# 40 MB above its size after the import.
_CAPPED_CLI = """
import resource, sys
from projquad.cli import main
with open("/proc/self/status") as status:
    size_kb = next(int(line.split()[1]) for line in status if line.startswith("VmSize:"))
cap, hard = (size_kb + 40 * 1024) * 1024, resource.getrlimit(resource.RLIMIT_AS)[1]
resource.setrlimit(resource.RLIMIT_AS, (cap if hard == resource.RLIM_INFINITY else min(cap, hard), hard))
sys.exit(main(sys.argv[1:]))
"""


def test_verify_and_chi_of_a_stored_sphere_make_no_cell(tmp_path, capsys, monkeypatch):
    # A parsed complex is its vertex and facet columns, and every pass that
    # `verify` and `chi` run reads them, so no `Cell` is made.
    spheres = {
        "tower-5": _build(tmp_path / "tower-5", capsys, [*SOURCES["tower-4"], ("mycielski-lift", "--r", "2")]),
        "schrijver-7-2": _build(tmp_path / "schrijver-7-2", capsys, [("schrijver", "--n", "7", "--k", "2")]),
    }
    made = []
    init = Cell.__init__

    def counted(self, vertices, facets):
        made.append(None)
        init(self, vertices, facets)

    monkeypatch.setattr(Cell, "__init__", counted)
    for name, out in spheres.items():
        for argv in (["verify", str(out), "--walks", "100"], ["chi", str(out)]):
            made.clear()
            assert run(capsys, *argv)[0] == 0, (name, argv[0])
            assert made == [], (name, argv[0])
    assert run(capsys, "homology", str(out / "complex.json"))[0] == 0 and made == []
    load_bundle(out).complex.cells_of(0)
    assert made  # the count sees the Cells a parsed complex makes when asked


def test_running_out_of_memory_exits_71(tmp_path):
    pytest.importorskip("resource")
    if not Path("/proc/self/status").exists():
        pytest.skip("needs /proc/self/status to size the child")
    argv = ["build", "schrijver", "--n", "11", "--k", "3", "--out", str(tmp_path / "sg")]
    code, stdout, err = _run_in_a_child("-c", _CAPPED_CLI, *argv)
    assert (code, stdout, err) == (71, "", "out of memory\n")


def _fail_the_4th_dump(monkeypatch):
    """Make the 4th `bundles.dump_canonical` call from now on raise MemoryError."""
    calls = []
    dump = bundles.dump_canonical

    def failing(obj):
        calls.append(None)
        if len(calls) == 4:
            raise MemoryError
        return dump(obj)

    monkeypatch.setattr(bundles, "dump_canonical", failing)


def _fail_the_complex_pieces(monkeypatch):
    """Make the encoder of complex.json's pieces raise MemoryError."""

    def failing(complex):
        raise MemoryError

    monkeypatch.setattr(bundles, "_complex_texts", failing)


def _no_bundle_is_written_when(fail, tmp_path, capsys, monkeypatch):
    """With `fail` installed, a build makes no directory, and an earlier
    bundle keeps every byte, its homomorphism.json too."""
    fresh, kept = tmp_path / "fresh", tmp_path / "kept"
    assert run(capsys, "build", "schrijver", "--n", "6", "--k", "2", "--out", str(kept))[0] == 0
    before = {p.name: p.read_bytes() for p in kept.iterdir()}
    for out in (fresh, kept):
        fail(monkeypatch)
        code, stdout, err = run(capsys, "build", "odd-cycle", "--k", "2", "--out", str(out))
        assert (code, stdout, err) == (71, "", "out of memory\n")
    assert not fresh.exists()
    assert {p.name: p.read_bytes() for p in kept.iterdir()} == before


def test_a_bundle_is_written_whole_or_not_at_all(tmp_path, capsys, monkeypatch):
    # The encoder of the 4th canonical file, report.json, runs out of memory.
    _no_bundle_is_written_when(_fail_the_4th_dump, tmp_path, capsys, monkeypatch)


def test_complex_json_is_encoded_whole_or_no_bundle_is_written(tmp_path, capsys, monkeypatch):
    # complex.json's pieces are made last, after every small file's text.
    _no_bundle_is_written_when(_fail_the_complex_pieces, tmp_path, capsys, monkeypatch)


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


def _lemmas_hold(bundle_dir, n_walks: int, seed: int = 0) -> bool:
    """`parity_lemma_holds`, `quotient_lemmas_hold` and
    `walk_parity_is_its_recount` on the verdict of the stored bundle, with
    `n_walks` walks drawn from `seed`."""
    try:
        bundle = load_bundle(bundle_dir)
        report, graph = verify_bundle(bundle, seed=seed, n_walks=n_walks)
    except ProjquadError:  # the CLI's exit code for it is judged separately
        return True
    sphere = (bundle.complex, bundle.involution, bundle.colouring)
    labels = bundles._labels_from_reps(bundle)
    return (
        parity_lemma_holds(report, bundle.complex, bundle.colouring)
        and quotient_lemmas_hold(report, labels, graph, *sphere)
        and walk_parity_is_its_recount(report, *sphere, n_walks=n_walks, seed=seed)
    )


def _mutants_never_crash_nor_lie(tmp_path, capsys, builds, cases: int, seed: int) -> None:
    """Build a bundle by the `build` argvs in turn (each after the first
    reads the one before), then apply `cases` seeded one-value mutations.

    No mutant may crash `verify`, `chi`, `homology` or `hom-check`, and wherever `chi`
    claims a topological proof, the exact search on the mutant's own
    graph.json, with no bound, must give the same chromatic number.  Where
    a quotient entry passes by its lemma, the check it replaces must pass,
    and a `walk-parity` entry must be its recount (see `_lemmas_hold`).
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
        if not _lemmas_hold(out, 20):
            failures.append(f"a lemma's entry after {what} differs from the check it replaces")
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
