"""Chordality recognition, cliques, minimal separators, local chordality."""

import inspect
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquedec.chordal import (
    clique_tree,
    dirac_check,
    is_chordal,
    is_r_chordal,
    is_r_locally_chordal,
    maximal_cliques,
    mcs_order,
    minimal_separators,
    perfect_elimination_ordering,
    _find_hole,
    _verify_peo,
)
from cliquedec.covers import derive_window
from cliquedec.errors import NotChordal
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
    wheel,
)

from oracles import (
    brute_minimal_separators,
    full_bfs_ball,
    hole_searching_maximal_cliques,
    nx_is_chordal,
    nx_maximal_cliques,
    pairwise_verify_peo,
    quadratic_mcs_order,
    random_graph,
    recursive_long_induced_cycle,
    subgraph_find_hole,
    subgraph_r_locally_chordal,
)


def _is_hole(g, cycle_vertices):
    k = len(cycle_vertices)
    assert k >= 4
    for i, u in enumerate(cycle_vertices):
        for j in range(i + 1, k):
            v = cycle_vertices[j]
            adjacent_on_cycle = j - i == 1 or (i == 0 and j == k - 1)
            assert g.has_edge(u, v) == adjacent_on_cycle
    return True


def test_chordal_with_certificate():
    ok, cert = is_chordal(two_triangles())
    assert ok
    order = list(cert.order)
    pos = {v: i for i, v in enumerate(order)}
    g = two_triangles()
    for v in order:
        later = [u for u in g.neighbors(v) if pos[u] > pos[v]]
        assert g.is_clique(later)


def test_not_chordal_with_hole():
    ok, hole = is_chordal(cycle(5))
    assert not ok
    assert _is_hole(cycle(5), hole)
    g = Graph(
        "abcdefg",
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("d", "e"), ("e", "f"), ("f", "g")],
    )
    ok, hole = is_chordal(g)
    assert not ok and _is_hole(g, hole)


def test_perfect_elimination_ordering_raises():
    with pytest.raises(NotChordal):
        perfect_elimination_ordering(cycle(4))


def test_maximal_cliques_examples():
    assert {c.vertices for c in maximal_cliques(star(3))} == {
        frozenset({"c", "1"}),
        frozenset({"c", "2"}),
        frozenset({"c", "3"}),
    }
    assert {c.vertices for c in maximal_cliques(two_triangles())} == {
        frozenset("abc"),
        frozenset("bcd"),
    }
    assert {c.vertices for c in maximal_cliques(cycle(5), require_chordal=False)} == {
        frozenset({f"v{i}", f"v{(i+1)%5}"}) for i in range(5)
    }


def test_clique_count_bound_for_chordal():
    for seed in range(5):
        g = random_chordal(15, seed)
        assert len(maximal_cliques(g)) <= len(g)


def test_minimal_separators_examples():
    assert minimal_separators(two_triangles()) == [frozenset("bc")]
    assert minimal_separators(path(4)) == [frozenset({"v1"}), frozenset({"v2"})]
    assert minimal_separators(complete(4)) == []


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(4, 9), st.floats(0.2, 0.8))
def test_minimal_separators_match_brute_force(seed, n, p):
    g = random_graph(n, p, random.Random(seed))
    assert set(minimal_separators(g)) == brute_minimal_separators(g)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(3, 10), st.floats(0.15, 0.9))
def test_dirac_matches_chordality_and_nx(seed, n, p):
    g = random_graph(n, p, random.Random(seed))
    flag, witness = dirac_check(g)
    ok, _ = is_chordal(g)
    assert flag == ok == nx_is_chordal(g)
    if not flag:
        assert witness in set(minimal_separators(g)) and not g.is_clique(witness)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 10), st.floats(0.2, 0.9))
def test_maximal_cliques_match_nx(seed, n, p):
    g = random_graph(n, p, random.Random(seed))
    assert {c.vertices for c in maximal_cliques(g, require_chordal=False)} == nx_maximal_cliques(g)


def _assert_clique_tree(g, tree):
    """Nodes are the maximal cliques; labels are the edge intersections;
    the cliques holding any vertex form a subtree (running intersection)."""
    assert set(tree.cliques) == nx_maximal_cliques(g)
    assert [c.vertices for c in maximal_cliques(g)] == list(tree.cliques)
    assert sum(p < 0 for p in tree.parent) == (1 if tree.cliques else 0)
    for i, p in enumerate(tree.parent):
        assert tree.index[tree.cliques[i]] == i
        if p >= 0:
            assert tree.depth[i] == tree.depth[p] + 1
            assert tree.label[i] == tree.cliques[i] & tree.cliques[p]
    for v in g.vertices:
        tops = [
            i
            for i, c in enumerate(tree.cliques)
            if v in c and (tree.parent[i] < 0 or v not in tree.cliques[tree.parent[i]])
        ]
        assert len(tops) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 40))
def test_clique_tree_random_chordal(seed, n):
    g = random_chordal(n, seed)
    _assert_clique_tree(g, clique_tree(g))
    assert clique_tree(g) is clique_tree(g)


def test_clique_tree_examples():
    for g in (Graph([]), Graph(["a"]), star(5), two_triangles(), complete(4), path(6)):
        _assert_clique_tree(g, clique_tree(g))
    g = Graph("abcdefg", [("a", "b"), ("b", "c"), ("d", "e")])  # three components
    tree = clique_tree(g)
    _assert_clique_tree(g, tree)
    ab, de = tree.index[frozenset("ab")], tree.index[frozenset("de")]
    assert tree.path_labels(ab, de) and not any(tree.path_labels(ab, de))
    with pytest.raises(NotChordal):
        clique_tree(cycle(4))


def test_full_component_complete_vertex_lemma():
    # every full component of a minimal separator of a chordal graph has a
    # vertex complete to the separator
    for seed in range(10):
        g = random_chordal(14, seed)
        for s in minimal_separators(g):
            for comp, full in g.components_after_deletion(s):
                if full:
                    assert any(s <= g.neighbors(v) for v in comp)


def test_r_chordal_examples():
    assert is_r_chordal(cycle(5), 5) == (True, None)
    ok, witness = is_r_chordal(cycle(5), 4)
    assert not ok and sorted(witness) == [f"v{i}" for i in range(5)]
    # C6 with a long chord splitting it into two C4s
    g = Graph(
        "abcdef",
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f"), ("f", "a"), ("a", "d")],
    )
    assert is_r_chordal(g, 4) == (True, None)
    for seed in range(3):
        assert is_r_chordal(random_chordal(12, seed), 3) == (True, None)


def test_r_chordal_matches_the_recursive_search():
    rng = random.Random(11)
    graphs = [random_graph(n, p, rng) for n in range(1, 16) for p in (0.15, 0.25, 0.35, 0.5)]
    graphs += [wheel(), two_triangles(), ktree(10, 2, 3)]
    graphs.append(derive_window(cycle_z_presentation(5), 2).window)
    for g in graphs:
        for r in (3, 4, 5, 7):
            want = recursive_long_induced_cycle(g, r)
            assert is_r_chordal(g, r) == (want is None, want)


def test_r_chordal_is_not_bounded_by_the_recursion_limit():
    wants = {n: recursive_long_induced_cycle(cycle(n), 3) for n in (40, 300)}
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        got = {n: is_r_chordal(cycle(n), 3) for n in (40, 300, 1100)}
    finally:
        sys.setrecursionlimit(limit)
    for n, want in wants.items():
        assert got[n] == (False, want) and len(want) == n
    assert got[1100] == (False, [f"v{i}" for i in range(1100)])


def test_r_locally_chordal_examples():
    assert is_r_locally_chordal(cycle(6), 4) == (True, None)
    ok, witness = is_r_locally_chordal(wheel(), 3)
    assert not ok and witness[0] == "h"
    for seed in range(3):
        assert is_r_locally_chordal(random_chordal(12, seed), 5) == (True, None)


def test_r_validation():
    with pytest.raises(ValueError):
        is_r_chordal(cycle(5), 2)
    with pytest.raises(ValueError):
        is_r_locally_chordal(cycle(5), 2)


def _search_instances(suite1, suite2):
    """suite1, suite2 (non-chordal and disconnected graphs included),
    k-trees and stars."""
    yield from (g for g, _ in suite1)
    yield from suite2
    for n in range(20, 41, 5):
        for k in (2, 3):
            yield ktree(n, k, seed=n + k)
    for t in range(2, 9):
        yield star(t)


def test_mcs_order_matches_quadratic_oracle(suite1, suite2):
    for g in _search_instances(suite1, suite2):
        assert mcs_order(g) == quadratic_mcs_order(g), g


def test_peo_verdict_matches_pairwise_oracle(suite1, suite2):
    for g in _search_instances(suite1, suite2):
        order = mcs_order(g)[::-1]
        assert (_verify_peo(g, order) is None) == (pairwise_verify_peo(g, order) is None)
    for i, g in enumerate(suite2):
        rng = random.Random(i)
        for _ in range(5):
            order = rng.sample(g.vertices, len(g))
            assert (_verify_peo(g, order) is None) == (pairwise_verify_peo(g, order) is None)
            # an order of some vertices is tested on the subgraph they induce
            part = order[: rng.randint(1, len(g))]
            sub = g.induced(part)
            assert (_verify_peo(g, part) is None) == (pairwise_verify_peo(sub, part) is None)


def _with_holes(g, count, rng):
    """A copy of g plus ``count`` edges uw with d(u, w) = 3; each closes an
    induced 4-cycle through a shortest u-w path."""
    edges = g.edges()
    for _ in range(count):
        h = Graph(g.vertices, edges)
        u = rng.choice(h.vertices)
        far = [w for w, d in h.distances_from(u, 3).items() if d == 3]
        if far:
            edges.append((u, rng.choice(h.sorted(far))))
    return Graph(g.vertices, edges)


def _square(g):
    """g plus an edge between any two vertices at distance 2."""
    hops = [(u, w) for v in g.vertices for u in g.neighbors(v) for w in g.neighbors(v) if u < w]
    return Graph(g.vertices, g.edges() + hops)


def _host_instances(suite1, suite2):
    """Chordal, holed, r-locally chordal and random graphs for the
    host-adjacency kernels; each a fresh graph with no cached clique tree."""
    yield from (Graph(g.vertices, g.edges()) for g, _ in suite1)
    yield from (Graph(g.vertices, g.edges()) for g in suite2)
    for n in range(4, 13):
        yield cycle(n)  # C8 is 4-locally chordal but not chordal
    for seed in range(8):
        rng = random.Random(seed)
        yield _with_holes(random_chordal(rng.randint(15, 40), seed), rng.randint(1, 4), rng)
    for seed in range(8):
        rng = random.Random(100 + seed)
        yield random_graph(rng.randint(4, 16), rng.uniform(0.15, 0.6), rng)
    yield _square(cycle(7))
    yield derive_window(cycle_z_presentation(6), 4).window


def _assert_r_locally_chordal_matches_oracle(g):
    for r in range(3, 9):
        assert is_r_locally_chordal(g, r) == subgraph_r_locally_chordal(g, r), (g, r)
    # any MCS order decides chordality, so the ball's order is pinned on its own
    for k in range(1, 5):
        for v in g.vertices:
            ball = full_bfs_ball(g, v, 2 * k)
            assert mcs_order(g, g.distances_from(v, k)) == quadratic_mcs_order(ball), (g, v, k)


def _assert_hole_and_cliques_match_oracles(g):
    assert maximal_cliques(g, require_chordal=False) == hole_searching_maximal_cliques(g), g
    assert _find_hole(g) == subgraph_find_hole(g), g


def test_r_locally_chordal_matches_full_bfs_oracle(suite1, suite2):
    for g in _host_instances(suite1, suite2):
        _assert_r_locally_chordal_matches_oracle(g)
    ok, _ = is_r_locally_chordal(cycle(8), 4)
    assert ok and not is_chordal(cycle(8))[0]


def test_hole_and_cliques_match_subgraph_oracles(suite1, suite2):
    for g in _host_instances(suite1, suite2):
        _assert_hole_and_cliques_match_oracles(g)


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 12), st.lists(st.booleans(), min_size=66, max_size=66))
def test_host_kernels_match_subgraph_oracles_hypothesis(n, bits):
    vs = [f"v{i}" for i in range(n)]
    pairs = [(u, w) for i, u in enumerate(vs) for w in vs[i + 1 :]]
    g = Graph(vs, [e for e, b in zip(pairs, bits) if b])
    _assert_hole_and_cliques_match_oracles(g)
    _assert_r_locally_chordal_matches_oracle(g)


def _graphs_built(monkeypatch, call):
    """How many Graph objects call() constructs."""
    built = []
    init = Graph.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counting)
    call()
    monkeypatch.undo()
    return len(built)


def test_balls_and_hole_probes_build_no_subgraphs(monkeypatch):
    g = ktree(200, 2)
    holed = _with_holes(g, 1, random.Random(0))
    assert _graphs_built(monkeypatch, lambda: is_r_locally_chordal(g, 4)) == 0
    # only the failing ball is built, for its hole
    assert _graphs_built(monkeypatch, lambda: is_r_locally_chordal(holed, 4)) == 1
    assert _graphs_built(monkeypatch, lambda: _find_hole(holed)) == 0
    assert not is_r_locally_chordal(holed, 4)[0] and _find_hole(holed) is not None
