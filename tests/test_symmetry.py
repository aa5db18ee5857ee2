"""Automorphism generators and canonicity of decompositions."""

import inspect
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    all_images_automorphisms,
    orbit_of,
    pairwise_is_automorphism,
    scan_automorphism_generators,
    scan_tree_automorphisms,
)

from cliquedec import symmetry
from cliquedec.errors import InvariantViolation, TooLarge
from cliquedec.graph import Graph
from cliquedec.instances import complete, cycle, path, random_chordal, star, two_triangles
from cliquedec.nested import construct_N
from cliquedec.symmetry import (
    AutomorphismSet,
    _tree_automorphisms_for,
    automorphism_generators,
    is_automorphism,
    verify_canonical_td,
)
from cliquedec.treedec import TreeDecomposition, build_td_from_nested, contract_to_maximal


def test_automorphisms_star():
    aut = automorphism_generators(star(3))
    assert aut.group_order == 6
    for phi in aut.generators:
        assert is_automorphism(star(3), phi)
        assert phi["c"] == "c"


def test_automorphisms_two_triangles():
    assert automorphism_generators(two_triangles()).group_order == 4


def test_automorphisms_asymmetric_tree():
    # three branches of distinct lengths at one node: trivial group
    g = Graph(
        "abcdefg",
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f"), ("c", "g")],
    )
    aut = automorphism_generators(g)
    assert aut.group_order == 1 and aut.generators == ()


def test_automorphisms_cycle_and_path():
    assert automorphism_generators(cycle(5)).group_order == 10
    assert automorphism_generators(path(4)).group_order == 2


def test_automorphism_bound(monkeypatch):
    monkeypatch.setattr(symmetry, "AUTOMORPHISM_BUDGET", 4)
    with pytest.raises(TooLarge, match="budget is 4 nodes, reached 5 on 5 vertices"):
        automorphism_generators(path(5))


def test_one_generator_per_new_orbit_point():
    for n in (2, 3, 10, 60):
        aut = automorphism_generators(complete(n))
        assert len(aut.generators) == n - 1
    assert automorphism_generators(complete(9)).group_order == math.factorial(9)
    # one image per leaf at the parent: 59 + 58 + ... + 1 = 1,770
    assert len(automorphism_generators(star(60)).generators) == 59


def test_is_automorphism_rejects_broken_maps():
    g = path(4)  # v0 - v1 - v2 - v3
    flip = {"v0": "v3", "v1": "v2", "v2": "v1", "v3": "v0"}
    assert is_automorphism(g, flip)
    rejected = {
        "not a bijection": {**flip, "v1": "v3"},
        "misses a vertex": {"v0": "v3", "v1": "v2", "v2": "v1"},
        "breaks an edge": {"v0": "v1", "v1": "v0", "v2": "v2", "v3": "v3"},
        "leaves the graph": {**flip, "v0": "x"},
    }
    for name, phi in rejected.items():
        assert not is_automorphism(g, phi), name
        assert not pairwise_is_automorphism(g, phi), name


def test_broken_symmetry_invariants_raise_typed_errors(monkeypatch):
    g = star(3)
    with monkeypatch.context() as m:
        m.setattr(symmetry, "is_automorphism", lambda g, phi: False)
        with pytest.raises(InvariantViolation, match="not an automorphism"):
            automorphism_generators(g)
    td = build_td_from_nested(g, construct_N(g).union)
    aut = automorphism_generators(g)
    real = symmetry._tree_automorphisms_for
    monkeypatch.setattr(
        symmetry,
        "_tree_automorphisms_for",
        lambda td, gamma, limit: real(td, gamma, limit) * 2,
    )
    with pytest.raises(InvariantViolation, match="two tree actions"):
        verify_canonical_td(g, td, aut)


def _basic_orbits(vertices, generators):
    """The orbit of vertices[i] under the generators fixing vertices[:i],
    for every level i."""
    return [
        orbit_of(v, [phi for phi in generators if all(phi[u] == u for u in vertices[:i])])
        for i, v in enumerate(vertices)
    ]


def _same_group_as_oracle(g):
    """Level by level, the basic orbits of the returned generators are the
    oracle's image sets and the basic orbits of the scanning search's
    generators, so all three sets generate the same group; and the
    unrounded orders, the products of the level sizes, are equal."""
    aut = automorphism_generators(g)
    gens, levels = all_images_automorphisms(g)
    scan = scan_automorphism_generators(g)
    vertices = list(g.vertices)
    orbits = _basic_orbits(vertices, aut.generators)
    assert orbits == [set(level) for level in levels]
    assert orbits == _basic_orbits(vertices, scan.generators)
    order = math.prod(map(len, orbits))
    assert order == math.prod(map(len, levels))
    assert aut.group_order == (order if order <= symmetry.GROUP_ORDER_BOUND else None)
    assert aut.group_order == scan.group_order
    assert all(pairwise_is_automorphism(g, phi) for phi in aut.generators)
    return aut, gens


def _windmill(m, blades):
    edges = []
    for b in range(blades):
        blade = ["c"] + [f"b{b}_{k}" for k in range(m - 1)]
        edges += [(x, y) for j, x in enumerate(blade) for y in blade[j + 1:]]
    return Graph(sorted({x for e in edges for x in e}), edges)


def _triangle_tree(depth, branching):
    """Each triangle hangs `branching` child triangles on each of its two
    vertices not shared with its parent (one on the root vertex)."""
    vertices, edges, frontier = ["r"], [], [("r",)]
    for level in range(depth):
        nxt = []
        for free in frontier:
            for v in free:
                for _ in range(branching if level else 1):
                    b, c = f"t{len(vertices)}", f"t{len(vertices) + 1}"
                    vertices += [b, c]
                    edges += [(v, b), (v, c), (b, c)]
                    nxt.append((b, c))
        frontier = nxt
    return Graph(vertices, edges)


def _complete_bipartite(a, b):
    left, right = [f"l{i}" for i in range(a)], [f"r{j}" for j in range(b)]
    return Graph(left + right, [(x, y) for x in left for y in right])


def _shuffled(g, seed):
    """g with its vertices renamed and listed in a seeded random order,
    so that twins sit at arbitrary base positions."""
    order = list(g.vertices)
    random.Random(seed).shuffle(order)
    name = {v: f"x{i:02d}" for i, v in enumerate(order)}
    return Graph([name[v] for v in order], [(name[u], name[v]) for u, v in g.edges()])


SYMMETRIC_FAMILIES = (
    [(f"star-{t}", star(t)) for t in range(3, 9)]
    + [(f"windmill-3-{b}", _windmill(3, b)) for b in range(4, 9)]
    + [(f"complete-{n}", complete(n)) for n in range(8, 33)]
    + [
        (f"triangles-{d}-{b}", _triangle_tree(d, b))
        for d, b in ((1, 1), (2, 2), (3, 1), (2, 3))
    ]
)


def test_generators_match_all_images_oracle_suite1(suite1):
    for g, res in suite1:
        aut, gens = _same_group_as_oracle(g)
        assert aut.group_order == res["aut"].group_order
        oracle = AutomorphismSet(generators=tuple(gens), group_order=None)
        assert (
            verify_canonical_td(g, res["td"], oracle)["canonical"]
            == verify_canonical_td(g, res["td"], aut)["canonical"]
            == res["canonical"]
        )


@pytest.mark.parametrize(
    "g", [g for _, g in SYMMETRIC_FAMILIES], ids=[name for name, _ in SYMMETRIC_FAMILIES]
)
def test_generators_match_all_images_oracle_symmetric(g):
    _same_group_as_oracle(g)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(4, 40))
def test_generators_match_all_images_oracle_random_chordal(seed, n):
    _same_group_as_oracle(random_chordal(n, seed))


SHUFFLED_FAMILIES = [
    (f"{name}-shuffled-{seed}", _shuffled(g, seed))
    for name, g in (
        [(f"star-{t}", star(t)) for t in range(3, 9)]
        + [(f"windmill-3-{b}", _windmill(3, b)) for b in range(4, 7)]
        + [(f"complete-{n}", complete(n)) for n in range(8, 17)]
        + [(f"triangles-2-{b}", _triangle_tree(2, b)) for b in (2, 3)]
        + [("K2,5", _complete_bipartite(2, 5))]
    )
    for seed in (1, 2)
]


@pytest.mark.parametrize(
    "g", [g for _, g in SHUFFLED_FAMILIES], ids=[name for name, _ in SHUFFLED_FAMILIES]
)
def test_generators_match_oracles_with_twins_anywhere_in_the_base(g):
    _same_group_as_oracle(g)


def test_twin_rich_graphs_need_no_backtracking(monkeypatch):
    monkeypatch.setattr(symmetry, "AUTOMORPHISM_BUDGET", 0)
    aut = automorphism_generators(complete(70))
    assert len(aut.generators) == 69 and aut.group_order is None
    assert len(automorphism_generators(star(60)).generators) == 59
    aut = automorphism_generators(_complete_bipartite(2, 6))
    assert aut.group_order == 2 * math.factorial(6)
    # a search that needs a backtracking node still stops at the budget
    with pytest.raises(TooLarge, match="budget is 0 nodes, reached 1"):
        automorphism_generators(path(4))


def _same_tree_actions_as_oracle(g, td):
    """Every generator of the new and the scanning search gets the tree
    actions of the scanning tree search, in its order, for limits 1 and 2."""
    gens = automorphism_generators(g).generators + scan_automorphism_generators(g).generators
    for gamma in gens:
        for limit in (1, 2):
            assert _tree_automorphisms_for(td, gamma, limit) == scan_tree_automorphisms(
                td, gamma, limit
            )


def test_tree_actions_match_scan_oracle_suite1(suite1):
    for g, res in suite1:
        _same_tree_actions_as_oracle(g, res["td"])


@pytest.mark.parametrize(
    "g", [g for _, g in SYMMETRIC_FAMILIES], ids=[name for name, _ in SYMMETRIC_FAMILIES]
)
def test_tree_actions_match_scan_oracle_symmetric(g):
    _same_tree_actions_as_oracle(g, build_td_from_nested(g, construct_N(g).union))


def test_tree_actions_match_scan_oracle_on_non_canonical_trees():
    g = star(3)
    td = TreeDecomposition(
        tree=Graph(["t0", "t1", "t2"], [("t0", "t1"), ("t1", "t2")]),
        bags={f"t{i}": frozenset({"c", str(i + 1)}) for i in range(3)},
    )
    _same_tree_actions_as_oracle(g, td)
    for t in (4, 5, 6):
        g = star(t)
        td = contract_to_maximal(g, build_td_from_nested(g, construct_N(g).union))
        assert not verify_canonical_td(g, td, automorphism_generators(g))["canonical"]
        _same_tree_actions_as_oracle(g, td)


def test_canonical_star_decomposition():
    g = star(3)
    td = build_td_from_nested(g, construct_N(g).union)
    aut = automorphism_generators(g)
    report = verify_canonical_td(g, td, aut)
    assert report["canonical"]
    center = next(t for t in td.tree.vertices if td.bags[t] == frozenset({"c"}))
    for entry in report["per_generator"]:
        assert entry["exists"] and entry["action"][center] == center
        assert entry.get("unique", True)


def test_path_tree_over_star_bags_not_canonical():
    g = star(3)
    bags = {
        "t0": frozenset({"c", "1"}),
        "t1": frozenset({"c", "2"}),
        "t2": frozenset({"c", "3"}),
    }
    td = TreeDecomposition(
        tree=Graph(["t0", "t1", "t2"], [("t0", "t1"), ("t1", "t2")]), bags=bags
    )
    aut = automorphism_generators(g)
    assert not verify_canonical_td(g, td, aut)["canonical"]


def test_trivial_group_always_canonical():
    g = Graph(
        "abcdefg",
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f"), ("c", "g")],
    )
    td = build_td_from_nested(g, construct_N(g).union)
    aut = automorphism_generators(g)
    assert verify_canonical_td(g, td, aut)["canonical"]


def test_action_respects_composition():
    """The per-generator tree actions compose like the generators do."""
    g = star(4)
    td = build_td_from_nested(g, construct_N(g).union)
    aut = automorphism_generators(g)
    report = verify_canonical_td(g, td, aut)
    actions = {
        tuple(sorted(e["generator"].items())): e["action"]
        for e in report["per_generator"]
    }
    gens = [dict(e["generator"]) for e in report["per_generator"]]
    for g1 in gens[:3]:
        for g2 in gens[:3]:
            comp = {v: g1[g2[v]] for v in g.vertices}
            (phi,) = _tree_automorphisms_for(td, comp, limit=1)
            (phi1,) = _tree_automorphisms_for(td, g1, limit=1)
            (phi2,) = _tree_automorphisms_for(td, g2, limit=1)
            assert {t: phi1[phi2[t]] for t in td.tree.vertices} == phi


def test_nested_set_invariance_end_to_end(suite1):
    for g, res in suite1[:10]:
        n = res["nested_set"]
        for phi in res["aut"].generators:
            assert {s.apply(dict(phi)) for s in n.union} == n.union


def test_searches_run_deeper_than_the_recursion_limit():
    """Both searches keep their own stack: with 100 frames to spare, the
    generators of path(300) and their actions on its 299-node tree match
    the recursive oracles, run before the limit is lowered."""
    g = path(300)
    td = build_td_from_nested(g, construct_N(g).union)
    want = scan_automorphism_generators(g)
    actions = [scan_tree_automorphisms(td, gamma, 2) for gamma in want.generators]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        aut = automorphism_generators(g)
        report = verify_canonical_td(g, td, aut)
    finally:
        sys.setrecursionlimit(limit)
    assert aut == want and aut.group_order == 2
    assert report["canonical"] and report["classification"].regular
    assert [[e["action"]] for e in report["per_generator"]] == actions
