"""End-to-end command-line tests: exit codes, JSON schema, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cliquedec import cli, covers, symmetry, treedec
from cliquedec.cli import DEFAULT_SEED, main, reproduce_example_51
from cliquedec.covers import fold_pipeline, r_acyclic_check
from cliquedec.errors import PreconditionViolated
from cliquedec.graph import Graph
from cliquedec.instances import (
    INSTANCES,
    complete,
    cycle,
    cycle_z_presentation,
    ktree,
    make_instance,
    path,
    random_chordal,
    star,
    two_triangles,
    wheel,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def _write_graph(tmp_path, g, name="g.json"):
    p = tmp_path / name
    p.write_text(json.dumps(g.to_json_dict()))
    return str(p)


def _write_voltage(tmp_path, pres, name="v.json"):
    p = tmp_path / name
    p.write_text(json.dumps(pres.to_json_dict()))
    return str(p)


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def test_check_chordal_exit_codes(tmp_path, capsys):
    ok_file = _write_graph(tmp_path, star(3))
    assert main(["check-chordal", "--in", ok_file, "--json"]) == 0
    out = _json_out(capsys)
    assert out["schema"] == "v1" and out["chordal"]

    bad_file = _write_graph(tmp_path, cycle(4), "c4.json")
    assert main(["check-chordal", "--in", bad_file, "--json"]) == 1
    out = _json_out(capsys)
    assert not out["chordal"] and len(out["hole"]) == 4


def test_usage_and_input_errors(tmp_path, capsys):
    assert main(["check-chordal", "--in", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check-chordal", "--in", str(bad)]) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"vertices": ["a"], "edges": [], "mystery": 1}))
    assert main(["check-chordal", "--in", str(unknown)]) == 2
    assert main(["no-such-command"]) == 2
    # the removed options are unknown
    ok_file = _write_graph(tmp_path, star(3))
    assert main(["canonical-td", "--in", ok_file, "--beta-include-nontight"]) == 2
    assert main(["maximal-td", "--in", ok_file, "--orbit-order", "input"]) == 2
    capsys.readouterr()
    # r-acyclicity of at most r <= 0 co-parts would hold vacuously
    pres = cycle_z_presentation(4)
    base, vf = _write_graph(tmp_path, pres.base, "c4.json"), _write_voltage(tmp_path, pres)
    for r in ("0", "-3"):
        assert main(["r-acyclic", "--in", base, "--voltage", vf, "-L", "3", "-r", r]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "r must be >= 1" in captured.err


def test_r_below_one_is_rejected_before_the_fold(tmp_path, capsys, monkeypatch):
    def no_fold(pres, L):
        raise AssertionError("folded before -r was checked")

    monkeypatch.setattr(cli, "fold_pipeline", no_fold)
    pres = cycle_z_presentation(4)
    base, vf = _write_graph(tmp_path, pres.base, "c4.json"), _write_voltage(tmp_path, pres)
    assert main(["r-acyclic", "--in", base, "--voltage", vf, "-L", "10", "-r", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "r must be >= 1" in captured.err


def test_missing_fields_and_coparts_are_input_errors(tmp_path, capsys):
    pres = cycle_z_presentation(6).to_json_dict()
    cases = {
        "'base'": {k: v for k, v in pres.items() if k != "base"},
        "['word']": {**pres, "voltages": [{"edge": pres["voltages"][0]["edge"]}]},
    }
    for field, data in cases.items():
        vf = tmp_path / "v.json"
        vf.write_text(json.dumps(data))
        assert main(["fold", "--voltage", str(vf), "-L", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "lacks the field" in captured.err and field in captured.err
    gf = _write_graph(tmp_path, cycle(3))
    td = tmp_path / "td.json"
    td.write_text(json.dumps({"nodes": [{"id": "t0"}], "edges": []}))
    assert main(["verify-td", "--in", gf, "--td", str(td)]) == 2
    assert "lacks the fields ['bag']" in capsys.readouterr().err
    # a base graph that is not the cover's: some vertex has no co-part
    vf = _write_voltage(tmp_path, cycle_z_presentation(6))
    sf = _write_graph(tmp_path, star(3), "star.json")
    assert main(["r-acyclic", "--in", sf, "--voltage", vf, "-L", "3", "-r", "3"]) == 2
    assert "is not the voltage presentation's base" in capsys.readouterr().err
    gd = fold_pipeline(cycle_z_presentation(6), 3).gd
    with pytest.raises(PreconditionViolated, match="no co-part"):
        r_acyclic_check(star(3), gd, 3)


def test_verify_gd_and_r_acyclic_need_the_base_graph(tmp_path, capsys):
    pres = cycle_z_presentation(6)
    vf = _write_voltage(tmp_path, pres)
    base = pres.base.to_json_dict()
    cases = {
        "['v5'] only in the base": pres.base.induced(pres.base.vertices[:5]).to_json_dict(),
        "[('v0', 'v2')] only in --in": {**base, "edges": base["edges"] + [["v0", "v2"]]},
        # the same graph listed in another order is the base
        "": {"vertices": base["vertices"][::-1], "edges": [e[::-1] for e in base["edges"]]},
    }
    for want, data in cases.items():
        gf = tmp_path / "g.json"
        gf.write_text(json.dumps(data))
        for argv in (["verify-gd"], ["r-acyclic", "-r", "3"]):
            code = main(argv + ["--in", str(gf), "--voltage", vf, "-L", "3"])
            captured = capsys.readouterr()
            if want:
                assert code == 2 and captured.out == "" and want in captured.err
            else:
                assert code == 0 and captured.err == ""


_TD_NODE = {"id": "t0", "bag": ["v0", "v1", "v2"]}
_TD_NODES = [{"id": f"t{i}", "bag": ["v0", "v1", "v2"]} for i in range(3)]
_TRIANGLE = [["t0", "t1"], ["t1", "t2"], ["t2", "t0"]]
_PRES = cycle_z_presentation(6).to_json_dict()


@pytest.mark.parametrize(
    "command, data, field",
    [
        ("verify-td", {"nodes": [_TD_NODE], "edges": [["t0"]]}, "tree-decomposition edge"),
        ("verify-td", {"nodes": [{"id": "t0", "bag": 5}], "edges": []}, "'bag'"),
        ("verify-td", {"nodes": [{"id": 3, "bag": ["v0"]}], "edges": []}, "'id'"),
        ("verify-td", [_TD_NODE], "tree-decomposition JSON must be an object"),
        (
            "verify-td",
            {"nodes": [{"id": "t0", "bag": ["v0"]}, _TD_NODE], "edges": []},
            "repeats the node id 't0'",
        ),
        ("fold", {**_PRES, "voltages": [{**_PRES["voltages"][0], "word": 7}]}, "'word'"),
        ("check-chordal", {"vertices": ["a", "b"], "edges": [["a", ["b"]]]}, "graph edge"),
        ("check-chordal", {"vertices": [], "edges": [[1, 2]]}, "graph edge"),
        ("check-chordal", {"vertices": "abc", "edges": []}, "'vertices'"),
        # a bag vertex that the graph lacks, in an otherwise valid decomposition
        (
            "verify-td",
            {"nodes": [_TD_NODE, {"id": "t1", "bag": ["v2", "z"]}], "edges": [["t0", "t1"]]},
            "the bag of node 't1' holds 'z'",
        ),
        # each of the five JSON objects with a field it does not know
        ("check-chordal", {"vertices": [], "edges": [], "loops": []},
         "unknown fields in graph JSON: ['loops']"),
        ("verify-td", {"nodes": [], "edges": [], "root": "t0"},
         "unknown fields in tree-decomposition JSON: ['root']"),
        ("verify-td", {"nodes": [{**_TD_NODE, "size": 3}], "edges": []},
         "unknown fields in node JSON: ['size']"),
        ("fold", {**_PRES, "L": 3}, "unknown fields in voltage JSON: ['L']"),
        ("fold", {**_PRES, "voltages": [{**_PRES["voltages"][0], "to": "v0"}]},
         "unknown fields in voltage entry: ['to']"),
        # and the three objects nested in a list, or a whole file, that are not objects
        ("verify-td", {"nodes": [["t0", ["v0"]]], "edges": []}, "node JSON must be an object"),
        ("fold", [_PRES], "voltage JSON must be an object, got list"),
        ("fold", {**_PRES, "voltages": ["z"]}, "voltage entry must be an object, got str"),
        # trees that are not trees, and edges that name a node with no bag
        ("verify-td", {"nodes": [], "edges": []}, "error: empty tree"),
        (
            "verify-td",
            {"nodes": _TD_NODES, "edges": [["t0", "t1"]]},
            "error: tree is disconnected",
        ),
        ("verify-td", {"nodes": _TD_NODES, "edges": _TRIANGLE}, "error: tree contains a cycle"),
        # disconnected and cyclic, the cycle on either side: disconnected comes first
        (
            "verify-td",
            {"nodes": _TD_NODES + [{"id": "t3", "bag": ["v0"]}], "edges": _TRIANGLE},
            "error: tree is disconnected",
        ),
        (
            "verify-td",
            {"nodes": [{"id": "t3", "bag": ["v0"]}] + _TD_NODES, "edges": _TRIANGLE},
            "error: tree is disconnected",
        ),
        (
            "verify-td",
            {"nodes": [_TD_NODE], "edges": [["t0", "t1"]]},
            "error: tree-decomposition edge ['t0', 't1'] names 't1', a node with no bag",
        ),
    ],
    ids=[
        "td-edge", "td-bag", "td-id", "td-list", "td-repeated-id",
        "word", "edge-list", "edge-ints", "vertices", "td-foreign-bag-vertex",
        "graph-unknown", "td-unknown", "node-unknown", "voltage-unknown", "entry-unknown",
        "node-not-object", "voltage-not-object", "entry-not-object",
        "td-empty", "td-disconnected", "td-cycle", "td-disconnected-cycle-away",
        "td-disconnected-cycle-at-root", "td-edge-to-no-bag",
    ],
)
def test_malformed_json_is_an_input_error(tmp_path, capsys, command, data, field):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    argv = {
        "verify-td": ["--in", _write_graph(tmp_path, cycle(3)), "--td", str(bad)],
        "fold": ["--voltage", str(bad), "-L", "3"],
        "check-chordal": ["--in", str(bad)],
    }[command]
    assert main([command] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and field in captured.err


def test_key_error_is_not_an_input_error(tmp_path, monkeypatch):
    def broken(args):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "cmd_check_chordal", broken)
    with pytest.raises(KeyError):
        main(["check-chordal", "--in", _write_graph(tmp_path, star(3))])


C4Z = {"--in": cycle(4).to_json_dict(), "--voltage": cycle_z_presentation(4).to_json_dict()}
# windmill(3, 6): six triangles sharing the vertex c
WINDMILL = Graph(
    ["c"], [e for i in range(6) for e in (("c", f"{i}a"), ("c", f"{i}b"), (f"{i}a", f"{i}b"))]
)


@pytest.mark.parametrize(
    "command, files, extra",
    [
        ("canonical-td", {"--in": ktree(12, 3, seed=1).to_json_dict()}, []),
        ("canonical-td", {"--in": star(6).to_json_dict()}, []),
        ("canonical-td", {"--in": WINDMILL.to_json_dict()}, []),
        ("maximal-td", {"--in": star(6).to_json_dict()}, []),
        ("fold", {"--voltage": cycle_z_presentation(6).to_json_dict()}, ["-L", "3"]),
        ("check-chordal", {"--in": ktree(30, 3).to_json_dict()}, []),
        ("local-chordal", {"--in": cycle(8).to_json_dict()}, ["-r", "4"]),
        ("verify-gd", C4Z, ["-L", "3"]),
        ("r-acyclic", C4Z, ["-L", "3", "-r", "3"]),
    ],
    ids=[
        "canonical-td", "canonical-td-star6", "canonical-td-windmill3-6", "maximal-td-star6",
        "fold",
        "check-chordal-ktree30", "local-chordal-c8", "verify-gd-c4z", "r-acyclic-c4z",
    ],
)
def test_optimised_mode_prints_the_same_bytes(tmp_path, command, files, extra):
    """`python -O` drops asserts; the output must not depend on them."""
    argv = ["-m", "cliquedec.cli", command, "--json", *extra]
    for n, (flag, data) in enumerate(files.items()):
        f = tmp_path / f"input{n}.json"
        f.write_text(json.dumps(data))
        argv += [flag, str(f)]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    runs = [
        subprocess.run(
            [sys.executable, *opt, *argv], capture_output=True, env=env, timeout=120
        )
        for opt in ([], ["-O"])
    ]
    assert [r.returncode for r in runs] == [0, 0]
    assert runs[0].stdout and runs[1].stdout == runs[0].stdout


def test_max_cliques(tmp_path, capsys):
    f = _write_graph(tmp_path, star(3))
    assert main(["max-cliques", "--in", f, "--json"]) == 0
    out = _json_out(capsys)
    assert sorted(map(tuple, out["maximal_cliques"])) == [
        ("1", "c"), ("2", "c"), ("3", "c"),
    ]


def test_canonical_td_and_maximal_td(tmp_path, capsys):
    f = _write_graph(tmp_path, star(3))
    assert main(["canonical-td", "--in", f, "--json"]) == 0
    out = _json_out(capsys)
    assert out["canonical"] and out["regular"] and out["into_cliques"]
    assert not out["into_maximal_cliques"]
    assert out["beta_restricted_to_tight"]
    assert len(out["decomposition"]["nodes"]) == 4

    assert main(["maximal-td", "--in", f, "--json"]) == 0
    out = _json_out(capsys)
    assert out["into_maximal_cliques"]
    assert len(out["decomposition"]["nodes"]) == 3


def test_maximal_td_searches_no_automorphisms(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        pytest.fail("maximal-td searched automorphisms, checked canonicity or classified")

    monkeypatch.setattr(cli, "automorphism_generators", refuse)
    monkeypatch.setattr(cli, "verify_canonical_td", refuse)
    for module in (cli, covers, symmetry, treedec):
        monkeypatch.setattr(module, "classify_td", refuse, raising=False)
    assert main(["maximal-td", "--in", _write_graph(tmp_path, star(6)), "--json"]) == 0
    assert _json_out(capsys)["into_maximal_cliques"]


def test_canonical_td_classifies_the_tree_once(tmp_path, capsys, monkeypatch):
    calls = []
    real = treedec.classify_td

    def counted(g, td):
        calls.append(td)
        return real(g, td)

    for module in (cli, symmetry):
        monkeypatch.setattr(module, "classify_td", counted, raising=False)
    f = _write_graph(tmp_path, ktree(12, 3, seed=1))
    assert main(["canonical-td", "--in", f, "--json"]) == 0
    assert _json_out(capsys)["regular"]
    assert len(calls) == 1


def test_bottleneck_expansion_budget_is_an_input_error(tmp_path, capsys):
    # two leaves of star(23) leave 21 free components, one over the budget
    f = _write_graph(tmp_path, star(23))
    assert main(["canonical-td", "--in", f, "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bottleneck expansion budget is 20" in captured.err
    assert "leaves 21" in captured.err


def test_canonical_td_past_64_vertices(tmp_path, capsys):
    # the automorphism search is bounded by its node budget, not by size
    f = _write_graph(tmp_path, complete(70))
    assert main(["canonical-td", "--in", f, "--json"]) == 0
    out = _json_out(capsys)
    assert out["canonical"] and out["into_maximal_cliques"]


def test_local_chordal(tmp_path, capsys):
    f = _write_graph(tmp_path, cycle(6))
    assert main(["local-chordal", "--in", f, "-r", "3", "--json"]) == 0
    assert _json_out(capsys)["r_locally_chordal"]
    f = _write_graph(tmp_path, wheel(), "wheel.json")
    assert main(["local-chordal", "--in", f, "-r", "3", "--json"]) == 1
    out = _json_out(capsys)
    assert out["center"] == "h" and len(out["hole"]) == 4


def test_verify_td(tmp_path, capsys):
    f = _write_graph(tmp_path, cycle(3))
    good = tmp_path / "td.json"
    good.write_text(
        json.dumps({"nodes": [{"id": "t0", "bag": ["v0", "v1", "v2"]}], "edges": []})
    )
    assert main(["verify-td", "--in", f, "--td", str(good)]) == 0
    capsys.readouterr()
    bad = tmp_path / "td2.json"
    bad.write_text(
        json.dumps({"nodes": [{"id": "t0", "bag": ["v0", "v1"]}], "edges": []})
    )
    assert main(["verify-td", "--in", f, "--td", str(bad), "--json"]) == 1
    out = _json_out(capsys)
    assert out["uncovered_vertices"] == ["v2"]


def test_fold_and_verify_gd(tmp_path, capsys):
    vf = _write_voltage(tmp_path, cycle_z_presentation(6))
    assert main(["fold", "--voltage", vf, "-L", "4", "--json"]) == 0
    out = _json_out(capsys)
    assert out["ok"] and out["into_cliques"] and out["into_maximal_cliques"]
    assert len(out["decomposition"]["nodes"]) == 6

    gf = _write_graph(tmp_path, cycle(6))
    assert main(["verify-gd", "--in", gf, "--voltage", vf, "-L", "4", "--json"]) == 0
    out = _json_out(capsys)
    assert out["ok"] and out["into_maximal_cliques"]


def test_fold_rejects_nonchordal_window(tmp_path, capsys):
    from cliquedec.instances import identity_presentation

    vf = _write_voltage(tmp_path, identity_presentation(wheel()))
    assert main(["fold", "--voltage", vf, "-L", "4", "--json"]) == 1
    out = _json_out(capsys)
    assert not out["window_chordal"] and len(out["hole"]) == 4

    gf = _write_graph(tmp_path, wheel())
    for argv in (["verify-gd"], ["r-acyclic", "-r", "3"]):
        assert main(argv + ["--in", gf, "--voltage", vf, "-L", "4", "--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: window at L=4 has a hole: ")


def test_fold_rejects_a_window_too_small_for_the_lifts(tmp_path, capsys):
    vf = _write_voltage(tmp_path, cycle_z_presentation(6))
    assert main(["fold", "--voltage", vf, "-L", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the lift of 'v0' touches non-interior tree nodes")


def test_r_acyclic(tmp_path, capsys):
    vf = _write_voltage(tmp_path, cycle_z_presentation(6))
    gf = _write_graph(tmp_path, cycle(6))
    assert (
        main(["r-acyclic", "--in", gf, "--voltage", vf, "-L", "4", "-r", "3", "--json"])
        == 0
    )
    out = _json_out(capsys)
    assert out["r_acyclic"] and out["exhaustive"]
    assert (
        main(["r-acyclic", "--in", gf, "--voltage", vf, "-L", "4", "-r", "6", "--json"])
        == 1
    )
    out = _json_out(capsys)
    assert not out["r_acyclic"] and len(out["cycle"]) == 6


GEN_DEFAULTS = {
    "star": star(3),
    "path": path(5),
    "cycle": cycle(6),
    "complete": complete(4),
    "ktree": ktree(8, 2, DEFAULT_SEED),
    "random_chordal": random_chordal(12, DEFAULT_SEED),
    "two_triangles": two_triangles(),
    "wheel": wheel(),
}


@pytest.mark.parametrize("kind", list(INSTANCES))
def test_gen_runs_every_kind_with_its_defaults(capsys, kind):
    assert main(["gen", kind]) == 0
    assert Graph.from_json_dict(json.loads(capsys.readouterr().out)) == GEN_DEFAULTS[kind]


def test_gen_kinds_are_the_instance_table():
    assert list(GEN_DEFAULTS) == list(INSTANCES)
    with pytest.raises(ValueError, match="unknown instance kind 'petersen'"):
        make_instance("petersen")


def test_gen_deterministic(tmp_path, capsys):
    argv = ["gen", "random_chordal", "-n", "12", "--seed", "7"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    g = Graph.from_json_dict(json.loads(first))
    assert len(g) == 12

    assert main(["gen", "star", "-t", "3"]) == 0
    g = Graph.from_json_dict(json.loads(capsys.readouterr().out))
    assert set(g.vertices) == {"c", "1", "2", "3"}


@pytest.mark.parametrize(
    "kind, flag, value, bound",
    [
        ("cycle", "-n", 0, "n >= 3"),
        ("cycle", "-n", 1, "n >= 3"),
        ("cycle", "-n", 2, "n >= 3"),
        ("path", "-n", -2, "n >= 1"),
        ("complete", "-n", -1, "n >= 1"),
        ("star", "-t", -1, "t >= 1"),
        ("random_chordal", "-n", -3, "n >= 1"),
        ("ktree", "-k", 0, "k >= 1"),
        ("ktree", "-k", -1, "k >= 1"),
    ],
)
def test_gen_rejects_sizes_that_make_no_such_graph(capsys, kind, flag, value, bound):
    assert main(["gen", kind, flag, str(value)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"{kind} needs {bound}, got {value}" in captured.err


def test_gen_ktree_rejects_k_below_one_whatever_n(capsys):
    """With no bound on k, -n 0 -k -1 printed a graph with no vertices."""
    assert main(["gen", "ktree", "-n", "0", "-k", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "ktree needs k >= 1, got -1" in captured.err


def test_gen_smallest_sizes(capsys):
    for argv, vertices, edges in [
        (["cycle", "-n", "3"], 3, 3),
        (["path", "-n", "1"], 1, 0),
        (["complete", "-n", "1"], 1, 0),
        (["star", "-t", "1"], 2, 1),
        (["random_chordal", "-n", "1"], 1, 0),
    ]:
        assert main(["gen", *argv]) == 0
        g = Graph.from_json_dict(json.loads(capsys.readouterr().out))
        assert (len(g), g.edge_count()) == (vertices, edges), argv


def test_reproduce_example(capsys):
    assert main(["reproduce", "example-5.1", "-t", "3", "--json"]) == 0
    out = _json_out(capsys)
    assert out["candidate_trees"] == 3
    assert out["canonical_into_maximal"] == 0
    assert out["star_decomposition_canonical"]
    assert not out["star_decomposition_into_maximal_cliques"]

    rep = reproduce_example_51(4)
    assert rep["candidate_trees"] == 16 and rep["canonical_into_maximal"] == 0

    assert main(["reproduce", "example-5.1", "-t", "2"]) == 2
    assert main(["reproduce", "example-5.2"]) == 2
    capsys.readouterr()


def test_plain_output_key_value(tmp_path, capsys):
    f = _write_graph(tmp_path, star(3))
    assert main(["check-chordal", "--in", f]) == 0
    out = capsys.readouterr().out
    assert out.startswith("chordal: True")
