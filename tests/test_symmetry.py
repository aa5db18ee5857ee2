"""Automorphism generators, orbit closure, canonicity of decompositions."""

import pytest

from cliquedec.errors import TooLarge
from cliquedec.graph import Graph
from cliquedec.instances import cycle, path, random_chordal, star, two_triangles
from cliquedec.nested import construct_N
from cliquedec.separations import Separation
from cliquedec.symmetry import (
    automorphism_generators,
    is_automorphism,
    orbit_closure,
    verify_canonical_td,
)
from cliquedec.treedec import TreeDecomposition, build_td_from_nested


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


def test_automorphism_bound():
    with pytest.raises(TooLarge):
        automorphism_generators(path(5), bound=4)


def test_orbit_closure_star_splits():
    g = star(3)
    aut = automorphism_generators(g)
    seed = Separation(frozenset({"c", "1"}), frozenset({"c", "2", "3"}))
    orbits = orbit_closure(aut, [seed])
    assert len(orbits) == 1 and len(orbits[0]) == 3


def test_orbit_closure_single_and_empty():
    g = two_triangles()
    aut = automorphism_generators(g)
    s = Separation(frozenset("abc"), frozenset("bcd"))
    orbits = orbit_closure(aut, [s])
    assert [len(o) for o in orbits] == [1]
    assert orbit_closure(aut, []) == []


def test_orbit_closure_vertex_sets():
    g = star(3)
    aut = automorphism_generators(g)
    orbits = orbit_closure(aut, [frozenset({"c", "1"})])
    assert len(orbits) == 1 and len(orbits[0]) == 3


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
    from cliquedec.symmetry import _tree_automorphisms_for

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
