"""Tree-decompositions: validation, construction, classification, contraction."""

import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquedec import treedec
from cliquedec.chordal import clique_tree, maximal_cliques
from cliquedec.errors import (
    ImproperSeparation,
    InvariantViolation,
    LoopEdge,
    NotAClique,
    NotATree,
    NotNested,
    PreconditionViolated,
    UnknownVertex,
)
from cliquedec.covers import derive_window, fold_pipeline
from cliquedec.graph import Graph
from cliquedec.instances import (
    complete,
    cycle,
    cycle_z_presentation,
    ktree,
    path,
    random_chordal,
    star,
    two_triangles,
)
from cliquedec.nested import construct_N
from cliquedec.separations import CROSSING, NESTED, Separation, by_key, relate
from cliquedec.treedec import (
    TreeDecomposition,
    build_td_from_nested,
    classify_td,
    clique_in_bag,
    contract_to_maximal,
    disjoint_union_bags_lemma_check,
    induced_separation,
    verify_td,
)

from oracles import (
    bfs_induced_separation,
    checked_graph_from_json,
    checked_td_from_json,
    closure_build_td,
    counting_verify_td,
    nx_chordal_cliques,
    orbit_contract_to_maximal,
    pairwise_nestedness_verdict,
    scan_uncovered,
    star_walk_build_td,
    subgraph_verify_td,
)
from test_chordal import _graphs_built
from test_symmetry import _windmill


def _td(tree_edges, bags, isolated=()):
    nodes = list(bags)
    return TreeDecomposition(
        tree=Graph(nodes, tree_edges), bags={k: frozenset(v) for k, v in bags.items()}
    )


def test_verify_td_valid():
    g = path(3)
    td = _td([("t1", "t2")], {"t1": {"v0", "v1"}, "t2": {"v1", "v2"}})
    assert verify_td(g, td)["ok"]


def test_verify_td_uncovered_edge():
    g = path(3)
    td = _td([("t1", "t2")], {"t1": {"v0", "v1"}, "t2": {"v2"}})
    report = verify_td(g, td)
    assert not report["ok"] and ("v1", "v2") in report["uncovered_edges"]


def test_verify_td_disconnected_vertex_set():
    g = Graph("abc", [("a", "b"), ("a", "c")])
    td = _td(
        [("t1", "t2"), ("t2", "t3")],
        {"t1": {"a", "b"}, "t2": {"b"}, "t3": {"a", "c"}},
    )
    report = verify_td(g, td)
    assert not report["ok"] and "a" in report["disconnected"]


def test_verify_td_not_a_tree():
    g = path(2)
    bad = TreeDecomposition(
        tree=Graph(["x", "y", "z"], [("x", "y"), ("y", "z"), ("z", "x")]),
        bags={k: frozenset({"v0", "v1"}) for k in "xyz"},
    )
    with pytest.raises(NotATree):
        verify_td(g, bad)


def test_verify_td_rejects_a_bag_vertex_the_graph_lacks():
    g = Graph("abc", [("a", "b"), ("b", "c")])
    td = _td([("t0", "t1")], {"t0": "ab", "t1": "bcz"})
    with pytest.raises(UnknownVertex, match="node 't1' holds 'z'"):
        verify_td(g, td)


def _inner_bag_drops(td):
    """Copies of td with one vertex dropped from the bag of one inner node."""
    for t in td.tree.vertices:
        if td.tree.degree(t) > 1:
            for v in sorted(td.bags[t]):
                yield TreeDecomposition(tree=td.tree, bags={**td.bags, t: td.bags[t] - {v}})


def test_verify_td_matches_subgraph_oracle_on_suite1(suite1):
    disconnected = 0
    for g, res in suite1:
        td = res["td"]
        assert verify_td(g, td) == subgraph_verify_td(g, td)
        for bad in _inner_bag_drops(td):
            report = verify_td(g, bad)
            assert report == subgraph_verify_td(g, bad)
            disconnected += bool(report["disconnected"])
    assert disconnected > 100


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_verify_td_matches_subgraph_oracle_hypothesis(data):
    vs = [f"v{i}" for i in range(data.draw(st.integers(1, 8)))]
    pairs = [(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :]]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    k = data.draw(st.integers(1, 8))
    tree_edges = [(f"t{data.draw(st.integers(0, i - 1))}", f"t{i}") for i in range(1, k)]
    bags = {f"t{i}": data.draw(st.frozensets(st.sampled_from(vs))) for i in range(k)}
    g = Graph(vs, edges)
    td = _td(tree_edges, bags)
    assert verify_td(g, td) == subgraph_verify_td(g, td)


def _bag_damages(td):
    """Copies of td's bag list with one bag dropped, and with one vertex
    removed from one bag."""
    bags = list(td.bags.values())
    for i, b in enumerate(bags):
        yield bags[:i] + bags[i + 1 :]
        for v in sorted(b):
            yield bags[:i] + [b - {v}] + bags[i + 1 :]


def _reach(bags):
    """The union of the bags holding each vertex: the reach that
    `verify_graph_decomposition` passes to `_uncovered`."""
    reach = {}
    for b in bags:
        for v in b:
            reach[v] = reach.get(v, frozenset()) | b
    return reach


def test_uncovered_matches_scan_oracle_on_suite1(suite1):
    uncovered_edges = 0
    for g, res in suite1:
        for bags in [list(res["td"].bags.values()), *_bag_damages(res["td"])]:
            got = treedec._uncovered(g, _reach(bags))
            assert got == scan_uncovered(g, bags)
            uncovered_edges += bool(got[1])
    assert uncovered_edges > 100


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_uncovered_matches_scan_oracle_hypothesis(data):
    vs = [f"v{i}" for i in range(data.draw(st.integers(1, 8)))]
    pairs = [(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :]]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    # bags may name vertices that g lacks
    bags = data.draw(st.lists(st.frozensets(st.sampled_from(vs + ["x"])), max_size=8))
    g = Graph(vs, edges)
    assert treedec._uncovered(g, _reach(bags)) == scan_uncovered(g, bags)


def test_verify_td_builds_no_graphs(monkeypatch):
    g = ktree(60, 3)
    td = build_td_from_nested(g, construct_N(g).union)
    assert _graphs_built(monkeypatch, lambda: verify_td(g, td)) == 0


# -- reading and checking in one pass, against the counting oracle ----------


def _outcome(f, *args):
    """f(*args), or the class and message of the exception it raised."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _clique_tree_json(g):
    """The clique tree of a chordal graph, as tree-decomposition JSON."""
    tree = clique_tree(g)
    return {
        "nodes": [{"id": f"t{i}", "bag": g.sorted(c)} for i, c in enumerate(tree.cliques)],
        "edges": [[f"t{p}", f"t{i}"] for i, p in enumerate(tree.parent) if p >= 0],
    }


def _faults(g, td, rng, rounds):
    """Copies of td, each with one fault: a bag vertex dropped, an edge's
    cover removed (one end dropped from every bag holding both), a vertex
    added to some bag (which may split its node set), and a bag vertex
    that g lacks."""
    for _ in range(rounds if len(td.tree) else 0):
        t = rng.choice(td.tree.vertices)
        if td.bags[t]:
            yield {**td.bags, t: td.bags[t] - {rng.choice(sorted(td.bags[t]))}}
        for u, w in rng.sample(g.edges(), min(1, g.edge_count())):
            yield {s: b - {w} if u in b else b for s, b in td.bags.items()}
        for v in rng.sample(g.vertices, min(1, len(g))):
            yield {**td.bags, t: td.bags[t] | {v}}
        yield {**td.bags, t: td.bags[t] | {"zz"}}


def _same_as_counting_oracle(gj, tj, rng, rounds=0):
    """The readers and verify_td give what the counting oracle and the
    checked readers give, on gj and tj and on faults injected into them;
    returns the outcomes of verify_td."""
    g = _outcome(Graph.from_json_dict, gj)
    assert g == _outcome(checked_graph_from_json, gj)
    td = _outcome(TreeDecomposition.from_json_dict, tj)
    assert td == _outcome(checked_td_from_json, tj)
    if not isinstance(g, Graph) or not isinstance(td, TreeDecomposition):
        return []
    outcomes = []
    for bags in [td.bags, *(_faults(g, td, rng, rounds) if rounds else ())]:
        bad = TreeDecomposition(tree=td.tree, bags=bags)
        outcomes.append(_outcome(verify_td, g, bad))
        assert outcomes[-1] == _outcome(counting_verify_td, g, bad)
    return outcomes


def _failures(outcomes):
    """Which failures the outcomes show: report fields and exception classes."""
    names = set()
    for out in outcomes:
        if isinstance(out, tuple):
            names.add(out[0].__name__)
        else:
            names.update(k for k, v in out.items() if v)
    return names


@pytest.mark.parametrize("n", [200, 270, 340])
def test_one_pass_matches_counting_oracle_on_random_chordal(n):
    g = random_chordal(n, seed=n)
    gj, tj = g.to_json_dict(), _clique_tree_json(g)
    outcomes = _same_as_counting_oracle(gj, tj, random.Random(n), rounds=8)
    assert outcomes[0]["ok"]
    assert _failures(outcomes[1:]) >= {
        "uncovered_vertices", "uncovered_edges", "disconnected", "UnknownVertex"
    }


def test_one_pass_matches_counting_oracle_on_certify_trees(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench.workloads import generate

    w = generate("certify", 0)
    ops = [op for op in w.ops if op.command == "verify-td"]
    outcomes = {}
    for op in ops:
        gj, tj = (w.inputs[f] for f in op.files())
        outcomes[op.id] = _same_as_counting_oracle(gj, tj, random.Random(op.id), 2)
    assert len(outcomes) == 19 and all(out[0]["ok"] for k, out in outcomes.items() if "tree" in k)
    assert outcomes["verify-td/corrupt0"][0]["uncovered_vertices"]


@pytest.mark.parametrize(
    "edge",
    ["ab", {"v0": 1, "v1": 2}, ("v0", "v1"), ["v0"], ["v0", "v1", "v0"], ["v0", 1], [1, 1],
     ["v0", "v0"], [["v0"], "v1"], ["v0", None]],
)
def test_readers_reject_an_edge_as_the_checked_readers_do(edge):
    """The readers hand lists to Graph and check no edge on its own unless
    one is not a list or Graph fails: a string or an object of two, or a
    tuple, would pass Graph."""
    gj = {"vertices": ["v0", "v1"], "edges": [["v0", "v1"], edge]}
    tj = {"nodes": [{"id": "v0", "bag": ["v0"]}, {"id": "v1", "bag": []}], "edges": [edge]}
    want = _outcome(checked_graph_from_json, gj)
    assert want[0] in (ValueError, LoopEdge) and _outcome(Graph.from_json_dict, gj) == want
    assert _outcome(TreeDecomposition.from_json_dict, tj) == _outcome(checked_td_from_json, tj)


@pytest.mark.parametrize(
    "edges, named",
    [([["t0", "t1"]], "['t0', 't1'] names 't1'"),
     ([["t0", "t1"], ["t2", "t0"]], "['t0', 't1'] names 't1'"),
     ([["t9", "t0"], ["t0", "t1"]], "['t9', 't0'] names 't9'"),
     ([["t0", "t1"], ["t0", "t0"]], None)],
)
def test_readers_name_the_first_edge_to_a_node_with_no_bag(edges, named):
    """A loop anywhere is found first, when the edges are read into the tree."""
    tj = {"nodes": [{"id": "t0", "bag": ["v0"]}], "edges": edges}
    want = _outcome(checked_td_from_json, tj)
    assert _outcome(TreeDecomposition.from_json_dict, tj) == want
    if named is None:
        assert want[0] is LoopEdge
    else:
        assert want == (ValueError, f"tree-decomposition edge {named}, a node with no bag")


@pytest.mark.parametrize(
    "node",
    [{"id": "t1", "bag": "ab"}, {"id": "t1", "bag": {"v0": 1}}, {"id": "t1", "bag": [3]},
     {"id": "t1", "bag": ["v0", None]}, {"id": "t1", "bag": 5}, {"id": 3, "bag": []},
     {"id": None, "bag": []}, {"id": "t0", "bag": []}, {"id": "t1"}, {"bag": []},
     {"id": "t1", "bag": [], "size": 1}, ["t1", []], "t1", None],
)
def test_readers_reject_a_node_as_the_checked_readers_do(node):
    """A string or an object as a bag would pass frozenset."""
    tj = {"nodes": [{"id": "t0", "bag": ["v0"]}, node], "edges": []}
    want = _outcome(checked_td_from_json, tj)
    assert want[0] is ValueError and _outcome(TreeDecomposition.from_json_dict, tj) == want


# junk put in place of one value of a JSON input; EXTRA adds a field to an
# object, or repeats the first member of a list
EXTRA = object()
JUNK = [
    EXTRA, 3, None, True, 1.5, "v0", "t1", "x", "ab", [], ["v0"], ["t0", "t0"], ["v0", 4],
    ["t0", "t1", "t2"], {"id": "t1", "bag": []}, {"id": "t0"}, {"id": "t0", "bag": [], "a": 1},
]


def _positions(value, path=()):
    yield path
    if isinstance(value, (dict, list)):
        for k, v in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _positions(v, path + (k,))


def _replaced(value, path, junk):
    if path:
        copy = dict(value) if isinstance(value, dict) else list(value)
        copy[path[0]] = _replaced(value[path[0]], path[1:], junk)
        return copy
    if junk is not EXTRA:
        return junk
    if isinstance(value, dict):
        return {**value, "size": 1}
    return value + value[:1] if isinstance(value, list) else value


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_pass_matches_counting_oracle_hypothesis(data):
    vs = [f"v{i}" for i in range(data.draw(st.integers(1, 7)))]
    ends = vs + ["w"] * (data.draw(st.integers(0, 3)) == 0)  # an end that vs lacks
    pair = st.tuples(st.sampled_from(ends), st.sampled_from(ends))
    edges = data.draw(st.lists(pair, max_size=12))
    loops = data.draw(st.integers(0, 9)) == 0
    gj = {"vertices": vs, "edges": [[u, v] for u, v in edges if u != v or loops]}
    k = data.draw(st.integers(0, 7))
    ids = [f"t{i}" for i in range(k)]
    tree = [[f"t{data.draw(st.integers(0, i - 1))}", f"t{i}"] for i in range(1, k)]
    if ids and data.draw(st.booleans()):  # a tree edge more or less: a cycle or two parts
        pair = st.tuples(st.sampled_from(ids), st.sampled_from(ids))
        more = data.draw(st.lists(pair, max_size=2))
        tree = tree[data.draw(st.integers(0, 1)):] + [list(e) for e in more]
    bag = st.lists(st.sampled_from(ends), max_size=5)
    if data.draw(st.booleans()):  # every vertex in every bag: a decomposition of any graph
        bag = st.just(ends)
    tj = {"nodes": [{"id": t, "bag": data.draw(bag)} for t in ids], "edges": tree}
    if data.draw(st.integers(0, 2)) == 0:
        which = data.draw(st.sampled_from(["graph", "td"]))
        value = gj if which == "graph" else tj
        path = data.draw(st.sampled_from(list(_positions(value))))
        value = _replaced(value, path, data.draw(st.sampled_from(JUNK)))
        gj, tj = (value, tj) if which == "graph" else (gj, value)
    _same_as_counting_oracle(gj, tj, random.Random(data.draw(st.integers(0, 2**32))), rounds=1)


def test_induced_separation_examples():
    g = path(3)
    td = _td([("t1", "t2")], {"t1": {"v0", "v1"}, "t2": {"v1", "v2"}})
    s = induced_separation(g, td, ("t1", "t2"))
    assert s == Separation(frozenset({"v0", "v1"}), frozenset({"v1", "v2"}))
    assert s.separator == frozenset({"v1"})

    g = star(3)
    td = _td(
        [("c0", "l1"), ("c0", "l2"), ("c0", "l3")],
        {"c0": {"c"}, "l1": {"c", "1"}, "l2": {"c", "2"}, "l3": {"c", "3"}},
    )
    s = induced_separation(g, td, ("c0", "l1"))
    assert s == Separation(frozenset({"c", "2", "3"}), frozenset({"c", "1"}))

    g = two_triangles()
    td = _td([("t1", "t2")], {"t1": "abc", "t2": "bcd"})
    s = induced_separation(g, td, ("t1", "t2"))
    assert s == Separation(frozenset("abc"), frozenset("bcd"))
    assert s.separator == frozenset("bc")


def test_build_td_examples():
    g = path(3)
    td = build_td_from_nested(
        g, {Separation(frozenset({"v0", "v1"}), frozenset({"v1", "v2"}))}
    )
    assert sorted(map(sorted, td.bags.values())) == [["v0", "v1"], ["v1", "v2"]]

    g = star(3)
    n = construct_N(g)
    td = build_td_from_nested(g, n.union)
    bags = sorted(map(sorted, td.bags.values()))
    assert bags == [["1", "c"], ["2", "c"], ["3", "c"], ["c"]]
    center = next(t for t in td.tree.vertices if td.bags[t] == frozenset({"c"}))
    assert td.tree.degree(center) == 3  # star tree around the center bag

    g = complete(4)
    td = build_td_from_nested(g, set())
    assert len(td.tree) == 1 and set(td.bags.values()) == {frozenset(g.vertices)}


def _same_as_oracles(g, seps, td=None, closure=True):
    """The laminar-pass tree equals the star walk's and, if closure is set,
    the closure oracle's: node names in order, bags and edges."""
    td = build_td_from_nested(g, seps) if td is None else td
    for oracle in (star_walk_build_td, closure_build_td) if closure else (star_walk_build_td,):
        want = oracle(g, seps)
        assert td.tree.vertices == want.tree.vertices
        assert td.to_json_dict() == want.to_json_dict()


def test_build_td_matches_closure_on_suite1(suite1):
    for g, res in suite1:
        _same_as_oracles(g, res["nested_set"].union, res["td"])


@pytest.mark.parametrize("t", range(2, 9))
def test_build_td_matches_closure_on_stars(t):
    g = star(t)
    _same_as_oracles(g, construct_N(g).union)


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("n", [20, 25, 30, 35, 40])
def test_build_td_matches_closure_on_ktrees(n, k):
    g = ktree(n, k, seed=n + k)
    _same_as_oracles(g, construct_N(g).union)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(4, 40))
def test_build_td_matches_closure_on_random_chordal(seed, n):
    g = random_chordal(n, seed)
    _same_as_oracles(g, construct_N(g).union)


def test_build_td_matches_closure_on_c6_windows(c6z_artifacts):
    res = fold_pipeline(cycle_z_presentation(6), 4)
    _same_as_oracles(res.window.window, res.nested.union, res.td)
    _, win, nested, td = c6z_artifacts
    _same_as_oracles(win.window, nested.union, td)


def _nested_subset(g, pick):
    """Some members of g's canonical nested set: an arbitrary nested set."""
    seps = sorted(construct_N(g).union, key=by_key)
    return {s for s in seps if pick(s)}


def test_build_td_matches_oracles_on_nested_subsets():
    rng = random.Random(20240618)
    graphs = [random_chordal(rng.randint(4, 30), seed) for seed in range(20)]
    graphs += [star(5), ktree(20, 2, seed=1), ktree(20, 3, seed=2), path(9)]
    for g in graphs:
        for p in (0.2, 0.5, 0.8):
            _same_as_oracles(g, _nested_subset(g, lambda s: rng.random() < p))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(4, 30), st.data())
def test_build_td_matches_oracles_on_nested_subsets_hypothesis(seed, n, data):
    g = random_chordal(n, seed)
    _same_as_oracles(g, _nested_subset(g, lambda s: data.draw(st.booleans())))


def _random_separations(g, rng, tries):
    """Proper separations of g at random separators of up to three
    vertices, with the components of G - S on random sides: neither tight
    nor cliques, and some crossing."""
    for _ in range(tries):
        sep = frozenset(rng.sample(g.vertices, rng.randint(1, min(3, len(g) - 1))))
        comps = [c for c, _ in g.components_after_deletion(sep)]
        if len(comps) < 2:
            continue
        rng.shuffle(comps)
        sides = [set(sep) | comps[0], set(sep) | comps[1]]
        for c in comps[2:]:
            sides[rng.randrange(2)].update(c)
        yield Separation(frozenset(sides[0]), frozenset(sides[1]))


def test_build_td_matches_oracles_on_random_nested_sets():
    # random separations, kept greedily while nested
    rng = random.Random(20240619)
    for _ in range(60):
        g = random_chordal(rng.randint(4, 22), rng.randint(0, 10**6))
        seps = []
        for s in _random_separations(g, rng, 40):
            if all(relate(s, t) == NESTED for t in seps) and s not in seps:
                seps.append(s)
        _same_as_oracles(g, seps)


def test_build_td_with_equal_strict_sides_towards_the_root():
    # the path f-a-b, the triangle b, c, d and the pendant e at d; the root
    # is at e, and towards it the first two separations have the strict side {a, f}
    edges = [("f", "a"), ("a", "b"), ("b", "c"), ("b", "d"), ("c", "d"), ("d", "e")]
    g = Graph("abcdef", edges)
    seps = {
        Separation(frozenset("abf"), frozenset("bcde")),
        Separation(frozenset("abcf"), frozenset("bcde")),
        Separation(frozenset("abcdf"), frozenset("de")),
    }
    td = build_td_from_nested(g, seps)
    bags = {t: "".join(sorted(b)) for t, b in td.bags.items()}
    assert bags == {"t0": "de", "t1": "bcd", "t2": "bc", "t3": "abf"}
    assert td.tree.edges() == [("t0", "t1"), ("t1", "t2"), ("t2", "t3")]
    _same_as_oracles(g, seps, td)


def test_build_td_matches_star_walk_on_the_f2_window(f2_presentation):
    g = derive_window(f2_presentation, 2).window
    _same_as_oracles(g, construct_N(g).union, closure=False)


def test_build_td_rejects_bad_input():
    g = star(4)
    crossing = {
        Separation(frozenset({"c", "1", "2"}), frozenset({"c", "3", "4"})),
        Separation(frozenset({"c", "1", "3"}), frozenset({"c", "2", "4"})),
    }
    with pytest.raises(NotNested):
        build_td_from_nested(g, crossing)
    improper = {Separation(frozenset(g.vertices), frozenset({"c"}))}
    with pytest.raises(ImproperSeparation):
        build_td_from_nested(g, improper)


# -- the certificate: every tree edge induces its own separation ----------


def _certified_as_oracles(g, seps):
    """The certificate's verdict is the pairwise scan's, and on a nested
    set every tree edge induces the separation that a search of the tree
    for that edge alone finds."""
    try:
        td = build_td_from_nested(g, seps)
    except (ImproperSeparation, NotNested) as exc:
        assert type(exc).__name__ == pairwise_nestedness_verdict(g, seps)
        return
    assert pairwise_nestedness_verdict(g, seps) == "ok"
    for e in td.tree.edges():
        assert induced_separation(g, td, e) == bfs_induced_separation(g, td, e)


def test_certificate_matches_oracles_on_suite1(suite1):
    for g, res in suite1:
        _certified_as_oracles(g, res["nested_set"].union)


@pytest.mark.parametrize("n", [10, 20, 30, 40, 50, 60])
def test_certificate_matches_oracles_on_random_chordal(n):
    for seed in range(3):
        g = random_chordal(n, seed)
        _certified_as_oracles(g, construct_N(g).union)


@pytest.mark.parametrize("L", range(4, 11))
def test_certificate_matches_oracles_on_c6_windows(L):
    res = fold_pipeline(cycle_z_presentation(6), L)
    _certified_as_oracles(res.window.window, res.nested.union)


def test_certificate_matches_oracles_on_the_f2_window(f2_presentation):
    g = derive_window(f2_presentation, 2).window
    _certified_as_oracles(g, construct_N(g).union)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(4, 24), st.integers(1, 12), st.booleans())
def test_certificate_matches_oracles_hypothesis(seed, n, tries, improper):
    # random separations, crossing or not, and now and then an improper one
    rng = random.Random(seed)
    g = random_chordal(n, seed)
    seps = set(_random_separations(g, rng, tries))
    if improper and seps:
        seps.add(Separation(frozenset(g.vertices), max(seps, key=by_key).sideB))
    _certified_as_oracles(g, seps)


def test_a_crossing_separation_injected_into_n_raises_not_nested():
    rng = random.Random(20240620)
    injected = 0
    for g in [random_chordal(n, seed) for n in (12, 20, 30) for seed in range(4)] + [star(4)]:
        n = construct_N(g).union
        for s in _random_separations(g, rng, 30):
            t = next((t for t in sorted(n, key=by_key) if relate(s, t) == CROSSING), None)
            if t is not None:
                with pytest.raises(NotNested, match="crosses"):
                    build_td_from_nested(g, n | {s})
                injected += 1
    assert injected > 50


def test_a_rewired_tree_fails_the_certificate(monkeypatch):
    real = treedec.TreeDecomposition

    def rewired(tree, bags):
        """The tree with the bags of its first two leaves swapped."""
        a, b = [t for t in tree.vertices if tree.degree(t) == 1][:2]
        return real(tree=tree, bags={**bags, a: bags[b], b: bags[a]})

    monkeypatch.setattr(treedec, "TreeDecomposition", rewired)
    # the ends of a path: the tree is no decomposition
    g = path(5)
    with pytest.raises(InvariantViolation, match="verify_td"):
        build_td_from_nested(g, construct_N(g).union)
    # two leaves of a star: a decomposition whose edges induce exactly n,
    # but each of the two edges induces the other's separation
    g = star(3)
    with pytest.raises(InvariantViolation, match="biject"):
        build_td_from_nested(g, construct_N(g).union)
    # past verify_td, the ends of the path fail at an adhesion
    monkeypatch.setattr(treedec, "verify_td", lambda g, td: {"ok": True})
    g = path(5)
    with pytest.raises(InvariantViolation, match="adhesion"):
        build_td_from_nested(g, construct_N(g).union)


def test_broken_invariants_raise_typed_errors(monkeypatch):
    # a vertex in two bags that are not adjacent: the adhesion misses it
    td = _td([("t1", "t2"), ("t2", "t3")], {"t1": "ab", "t2": "b", "t3": "ac"})
    with pytest.raises(InvariantViolation, match="adhesion"):
        induced_separation(Graph("abc"), td, ("t1", "t2"))
    # a bag vertex that the graph lacks
    with pytest.raises(UnknownVertex):
        induced_separation(Graph("ab"), _td([("t1", "t2")], {"t1": "ab", "t2": "bz"}), ("t1", "t2"))
    g = star(3)
    seps = construct_N(g).union
    monkeypatch.setattr(treedec, "verify_td", lambda g, td: {"ok": False})
    with pytest.raises(InvariantViolation, match="verify_td"):
        build_td_from_nested(g, seps)


def test_build_td_bijection_roundtrip():
    for seed in range(6):
        g = random_chordal(16, seed)
        n = construct_N(g)
        td = build_td_from_nested(g, n.union)
        assert verify_td(g, td)["ok"]
        induced = {induced_separation(g, td, e) for e in td.tree.edges()}
        assert induced == n.union
        assert td.tree.edge_count() == len(n.union)


def test_classify_td_examples():
    g = star(3)
    n = construct_N(g)
    td = build_td_from_nested(g, n.union)
    cls = classify_td(g, td)
    assert cls.into_cliques and not cls.into_maximal_cliques and cls.regular

    g = two_triangles()
    td = _td([("t1", "t2")], {"t1": "abc", "t2": "bcd"})
    assert classify_td(g, td).into_maximal_cliques

    g = cycle(4)
    td = _td([], {"t1": set(g.vertices)})
    assert not classify_td(g, td).into_cliques


def test_clique_in_bag():
    g = two_triangles()
    td = _td([("t1", "t2")], {"t1": "abc", "t2": "bcd"})
    assert clique_in_bag(g, td, {"a", "b", "c"}) == "t1"
    assert clique_in_bag(g, td, {"b"}) in {"t1", "t2"}
    g2 = star(3)
    td2 = _td([("t1", "t2")], {"t1": {"c", "1"}, "t2": {"c", "2", "3"}})
    with pytest.raises(NotAClique):
        clique_in_bag(g2, td2, {"1", "2"})


def test_contract_star_trace():
    g = star(3)
    n = construct_N(g)
    td = build_td_from_nested(g, n.union)
    out = contract_to_maximal(g, td)
    bags = sorted(map(sorted, out.bags.values()))
    assert bags == [["1", "c"], ["2", "c"], ["3", "c"]]
    assert classify_td(g, out).into_maximal_cliques


def test_contract_noop_on_maximal():
    g = two_triangles()
    td = _td([("t1", "t2")], {"t1": "abc", "t2": "bcd"})
    out = contract_to_maximal(g, td)
    assert set(out.bags.values()) == set(td.bags.values())


def test_contract_matches_clique_tree_oracle():
    for seed in range(8):
        g = random_chordal(18, seed)
        n = construct_N(g)
        td = build_td_from_nested(g, n.union)
        out = contract_to_maximal(g, td)
        bags = sorted(map(tuple, map(sorted, out.bags.values())))
        oracle = sorted(map(tuple, map(sorted, nx_chordal_cliques(g))))
        assert bags == oracle  # multiset equality including multiplicity
        assert classify_td(g, out).into_maximal_cliques
        assert verify_td(g, out)["ok"]


def test_contract_has_one_orbit_order():
    g = star(3)
    td = build_td_from_nested(g, construct_N(g).union)
    with pytest.raises(ValueError, match="orbit_order"):
        contract_to_maximal(g, td, orbit_order="input")


def _contract_agrees_with_orbit_oracle(g, td):
    assert contract_to_maximal(g, td).to_json_dict() == (
        orbit_contract_to_maximal(g, td).to_json_dict()
    )


def test_contract_matches_orbit_oracle_on_suite1(suite1):
    for g, res in suite1:
        _contract_agrees_with_orbit_oracle(g, res["td"])


CONTRACTED = [random_chordal(n, seed) for n in (2, 5, 10, 20, 30, 40) for seed in range(12)]
CONTRACTED += [ktree(n, k, seed) for n, k in ((12, 1), (20, 2), (25, 3)) for seed in range(3)]
CONTRACTED += [star(t) for t in range(1, 10)] + [_windmill(3, b) for b in (4, 5, 6)]


def test_contract_matches_orbit_oracle():
    for g in CONTRACTED:
        _contract_agrees_with_orbit_oracle(g, build_td_from_nested(g, construct_N(g).union))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 30), st.integers(0, 10**6))
def test_contract_matches_orbit_oracle_hypothesis(n, seed):
    g = random_chordal(n, seed)
    _contract_agrees_with_orbit_oracle(g, build_td_from_nested(g, construct_N(g).union))


# -- renaming: canonical-td commutes with it, maximal-td's tree edges need not

RENAMED = {f"rc{n}-{seed}": random_chordal(n, seed) for n in (15, 25) for seed in range(4)}
RENAMED.update({"ktree20-3": ktree(20, 3, 1), "star6": star(6)})


def _renamed(g, seed):
    """A seeded renaming of g, with a shuffled vertex order."""
    rng = random.Random(seed)
    names = [f"u{i}" for i in range(len(g))]
    rng.shuffle(names)
    mapping = dict(zip(g.vertices, names))
    order = [mapping[v] for v in g.vertices]
    rng.shuffle(order)
    return mapping, Graph(order, [(mapping[u], mapping[v]) for u, v in g.edges()])


def _renamings(g):
    """Three seeded renamings of g."""
    return [_renamed(g, seed) for seed in range(3)]


def _shape(td, mapping=None):
    """The bags and the tree edges as bag pairs, with node names dropped."""
    bag = {t: frozenset(mapping[v] for v in b) if mapping else b for t, b in td.bags.items()}
    edges = Counter(frozenset((bag[s], bag[t])) for s, t in td.tree.edges())
    return Counter(bag.values()), edges


@pytest.mark.parametrize("g", RENAMED.values(), ids=RENAMED.keys())
def test_canonical_td_commutes_with_renaming(g):
    want = build_td_from_nested(g, construct_N(g).union)
    for mapping, h in _renamings(g):
        assert _shape(build_td_from_nested(h, construct_N(h).union)) == _shape(want, mapping)


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 25), st.integers(0, 10**6), st.integers(0, 10**6))
def test_canonical_td_commutes_with_renaming_hypothesis(n, seed, naming):
    g = random_chordal(n, seed)
    mapping, h = _renamed(g, naming)
    want = build_td_from_nested(g, construct_N(g).union)
    assert _shape(build_td_from_nested(h, construct_N(h).union)) == _shape(want, mapping)


def test_maximal_td_keeps_its_bags_under_renaming_but_not_its_edges():
    """Contraction to maximal cliques merges edges in tree-node-name order,
    so its bags are the maximal cliques under every renaming, but which
    cliques are adjacent depends on the names (Example 5.1: no canonical
    decomposition into maximal cliques exists in general)."""
    moved = 0
    for g in RENAMED.values():
        want = contract_to_maximal(g, build_td_from_nested(g, construct_N(g).union))
        for mapping, h in _renamings(g):
            got = contract_to_maximal(h, build_td_from_nested(h, construct_N(h).union))
            assert verify_td(h, got)["ok"] and classify_td(h, got).into_maximal_cliques
            assert _shape(got)[0] == _shape(want, mapping)[0]
            moved += _shape(got)[1] != _shape(want, mapping)[1]
    assert moved > 0


def test_disjoint_union_bags_check():
    g = two_triangles()
    td = _td([("t1", "t2")], {"t1": "abc", "t2": "bcd"})
    assert disjoint_union_bags_lemma_check(g, td)
    with pytest.raises(PreconditionViolated):
        disjoint_union_bags_lemma_check(Graph("abcd", [("a", "b"), ("c", "d")]), td)
    # a bag that is not a disjoint union of cliques violates the precondition
    g = path(3)
    td = _td([], {"t1": {"v0", "v1", "v2"}})
    with pytest.raises(PreconditionViolated):
        disjoint_union_bags_lemma_check(g, td)


def test_into_cliques_implies_chordal():
    from cliquedec.chordal import is_chordal

    for seed in range(5):
        g = random_chordal(15, seed)
        td = build_td_from_nested(g, construct_N(g).union)
        if classify_td(g, td).into_cliques:
            assert is_chordal(g)[0]


def test_td_json_roundtrip():
    g = two_triangles()
    td = _td([("t1", "t2")], {"t1": "abc", "t2": "bcd"})
    again = TreeDecomposition.from_json_dict(td.to_json_dict())
    assert again.bags == td.bags
    assert set(again.tree.edges()) == set(td.tree.edges())
    with pytest.raises(ValueError):
        TreeDecomposition.from_json_dict({"nodes": [], "edges": [], "bogus": 1})
