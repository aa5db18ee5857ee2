"""Nested-set extraction: crossing counts, level construction, verification."""

import pytest

from cliquedec.errors import NotChordal, PreconditionViolated
from cliquedec.graph import Graph
from cliquedec.instances import complete, cycle, random_chordal, star, two_triangles
from cliquedec.nested import NestedSetLevels, construct_N, crossing_count, verify_N
from cliquedec.separations import CROSSING, NESTED, Separation, relate
from cliquedec.symmetry import automorphism_generators


def _star_splits(t):
    vs = {"c"} | {str(i) for i in range(1, t + 1)}
    return {
        Separation(frozenset({"c", leaf}), frozenset(vs - {leaf}))
        for leaf in map(str, range(1, t + 1))
    }


def test_crossing_count_examples():
    s = Separation(frozenset({"c", "1"}), frozenset({"c", "2", "3"}))
    assert crossing_count(s, [s]) == 0
    # K1,4: star splits never cross, balanced splits cross each other
    vs = frozenset({"c", "1", "2", "3", "4"})
    bal = [
        Separation(frozenset({"c", "1", o}), vs - frozenset({"1", o}) | {"c"})
        for o in "234"
    ]
    bal = [
        Separation(frozenset({"c", "1", "2"}), frozenset({"c", "3", "4"})),
        Separation(frozenset({"c", "1", "3"}), frozenset({"c", "2", "4"})),
        Separation(frozenset({"c", "1", "4"}), frozenset({"c", "2", "3"})),
    ]
    splits = sorted(_star_splits(4))
    pool = bal + splits
    assert crossing_count(splits[0], pool) == 0
    assert crossing_count(bal[0], pool) == 2


def test_construct_N_star():
    g = star(3)
    n = construct_N(g)
    assert set(n.levels) == {1}
    assert n.union == _star_splits(3)


def test_construct_N_star4_drops_balanced_splits():
    n = construct_N(star(4))
    assert n.union == _star_splits(4)


def test_construct_N_two_triangles():
    n = construct_N(two_triangles())
    assert n.union == {Separation(frozenset("abc"), frozenset("bcd"))}


def test_construct_N_complete_graph_empty():
    n = construct_N(complete(4))
    assert n.union == set() and n.levels == {}


def test_construct_N_preconditions():
    with pytest.raises(PreconditionViolated):
        construct_N(Graph("ab"))
    with pytest.raises(NotChordal):
        construct_N(cycle(4))


def test_construct_N_pairwise_nested_and_invariant():
    for seed in range(6):
        g = random_chordal(14, seed)
        n = construct_N(g)
        seps = sorted(n.union)
        for i, s in enumerate(seps):
            for t in seps[i + 1 :]:
                assert relate(s, t) == NESTED
        for phi in automorphism_generators(g).generators:
            assert {s.apply(dict(phi)) for s in n.union} == n.union


def test_construct_N_independent_of_relabeling():
    g = random_chordal(12, 3)
    mapping = {v: f"w{i}" for i, v in enumerate(reversed(g.vertices))}
    h = Graph(
        [mapping[v] for v in g.vertices],
        [(mapping[u], mapping[v]) for u, v in g.edges()],
    )
    n_g = construct_N(g)
    n_h = construct_N(h)
    assert {s.apply(mapping) for s in n_g.union} == n_h.union


def test_verify_N_passes_on_construction():
    g = star(3)
    n = construct_N(g)
    aut = automorphism_generators(g)
    report = verify_N(g, n, [dict(p) for p in aut.generators])
    assert report["ok"]
    assert report["max_separator_membership"] == 3  # c sits in all three


def test_verify_N_mutation_detected():
    g = star(3)
    n = construct_N(g)
    aut = automorphism_generators(g)
    gens = [dict(p) for p in aut.generators]
    # dropping one split breaks invariance (the other two still
    # distinguish every clique pair)
    dropped = sorted(n.union)[0]
    mutated = NestedSetLevels(levels={1: n.union - {dropped}}, union=n.union - {dropped})
    report = verify_N(g, mutated, gens)
    assert not report["ok"]
    assert "invariance" in {kind for kind, _ in report["failures"]}
    # keeping a single split also leaves a clique pair undistinguished
    kept = {sorted(n.union)[0]}
    mutated = NestedSetLevels(levels={1: kept}, union=kept)
    report = verify_N(g, mutated, gens)
    kinds = {kind for kind, _ in report["failures"]}
    assert "invariance" in kinds and "distinguishes" in kinds


def test_verify_N_two_triangles_swap_invariance():
    g = two_triangles()
    n = construct_N(g)
    swap = {"a": "d", "d": "a", "b": "c", "c": "b"}
    report = verify_N(g, n, [swap])
    assert report["ok"]
