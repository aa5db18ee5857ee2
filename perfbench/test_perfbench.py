"""Self-tests of the benchmark's own code: generators, oracles, budgets and
the traced replay."""

import ast
import json
import signal
import time
from pathlib import Path

import networkx as nx
import pytest

from perfbench import oracles, run
from perfbench.workloads import CERTIFY_SHAPES, WORKLOADS, generate


@pytest.mark.parametrize("name", WORKLOADS)
def test_generators_are_deterministic_per_seed(name):
    first, again, other = generate(name, 3), generate(name, 3), generate(name, 4)
    assert first.digest() == again.digest()
    assert first.inputs == again.inputs and first.ops == again.ops
    assert first.digest() != other.digest()
    assert len(first.ops) > run.TAIL_BEYOND


def test_generators_do_not_import_the_package():
    tree = ast.parse((Path(run.HERE) / "workloads.py").read_text())
    imported = {
        alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    } | {
        (node.module or "").split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
    }
    assert "cliquedec" not in imported


def test_generated_inputs_have_their_stated_properties():
    for name in ("chordal-random", "certify"):
        w = generate(name, 0)
        for file, data in w.inputs.items():
            if "vertices" in data:
                g = oracles.nx_graph(data)
                assert nx.is_connected(g)
                assert nx.is_chordal(g) == (not file.startswith("h")), file
    w = generate("certify", 0)
    for i in range(len(CERTIFY_SHAPES)):
        g = oracles.nx_graph(w.inputs[f"c{i}.json"])
        assert oracles.td_problems(g, w.inputs[f"td{i}.json"]) == []
    assert oracles.td_problems(oracles.nx_graph(w.inputs["c0.json"]), w.inputs["td0-corrupt.json"])


@pytest.fixture
def symmetric(tmp_path):
    w = generate("chordal-symmetric", 0)
    run.write_inputs(w, tmp_path)
    return w, tmp_path


def _op(w, label):
    """The operation on the named input, whichever command the seed chose."""
    return next(op for op in w.ops if op.id == label or op.id.endswith("/" + label))


def test_correct_output_passes_and_mutated_output_fails(symmetric):
    w, directory = symmetric
    op = _op(w, "star-6.0")
    res = run.run_cli(run.resolve(op.argv, directory))
    assert res.error is None
    assert oracles.check(op, res.exit, res.stdout, w.inputs, {}) == []

    out = json.loads(res.stdout)
    out["decomposition"]["nodes"][0]["bag"] = out["decomposition"]["nodes"][0]["bag"][1:]
    mutated = json.dumps(out)
    assert oracles.check(op, res.exit, mutated, w.inputs, {})
    assert oracles.check(op, 1, res.stdout, w.inputs, {})

    results = {o.id: [] for o in w.ops}
    results[op.id] = [res, run.Result(res.exit, mutated, res.seconds)]
    problems = run.verify(w, 0, results, {}, {})
    assert list(problems) == [f"{op.id}#1"]

    recorded = {"outputs": {w.name: {"0": {op.id: [res.exit, "0" * run.DIGEST_CHARS]}}}}
    results[op.id] = [res]
    assert list(run.verify(w, 0, results, {}, recorded)) == [f"{op.id}#0"]


def test_budget_overrun_is_a_failure(symmetric):
    w, directory = symmetric
    op = _op(w, "star-8.0")
    res = run.run_cli(run.resolve(op.argv, directory), budget_s=0.01)
    assert res.error.startswith("timeout") and res.seconds < 1.0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    results = {o.id: [] for o in w.ops}
    results[op.id] = [res]
    assert list(run.verify(w, 0, results, {}, {})) == [f"{op.id}#0"]

    assert run.call_with_budget(lambda: time.sleep(2), 0.05) == (None, True)
    assert run.call_with_budget(lambda: 7, 1.0) == (7, False)


def test_replay_prints_the_cli_bytes(tmp_path):
    from perfbench.replay import Tracer, replay

    picks = {
        "chordal-symmetric": ("star-6.0", "triangles-2-2.1", "windmill-3-4.2", "complete-8.0"),
        "periodic-fold": ("fold/C3^1-0", "verify-gd/C3^1-0", "r-acyclic/C3^1-0"),
        "certify": ("check-chordal/holed0", "max-cliques/chordal0", "verify-td/corrupt0"),
    }
    tracer = Tracer()
    for name, ids in picks.items():
        w = generate(name, 0)
        directory = tmp_path / name
        directory.mkdir()
        run.write_inputs(w, directory)
        for op_id in ids:
            op = _op(w, op_id)
            argv = run.resolve(op.argv, directory)
            res = run.run_cli(argv)
            assert replay(tracer, op.id, argv[:-1]) == (res.exit, res.stdout), op.id
    names = {span[0].split(".")[0] for span in tracer.spans}
    assert names == {"op", "graph", "chordal", "separations", "nested", "treedec", "symmetry", "covers"}
    self_s = tracer.self_times(0, len(tracer.spans))
    assert all(v >= -1e-9 for v in self_s.values())


def test_tail_has_ten_values_beyond_it():
    values = [float(i) for i in range(40)]
    assert run.tail(values) == (29.0, 75.0, 10)
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0, 0)
