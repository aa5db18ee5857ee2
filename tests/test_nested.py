"""Nested-set extraction: crossing counts, level construction, verification."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquedec.chordal import maximal_cliques
from cliquedec.covers import derive_window
from cliquedec.errors import EmptyBottleneckSelection, NotChordal, PreconditionViolated
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
from cliquedec.nested import NestedSetLevels, construct_N, crossing_count, verify_N
from cliquedec.separations import CROSSING, NESTED, Bottleneck, Separation, beta, relate
from cliquedec.symmetry import automorphism_generators

from oracles import pairwise_construct_N


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


# -- selection per bottleneck part against the per-pair oracle


def _same_as_pairwise(g):
    assert construct_N(g).levels == pairwise_construct_N(g).levels


def test_construct_N_matches_pairwise_suite1(suite1):
    for g, res in suite1:
        assert res["nested_set"].levels == pairwise_construct_N(g).levels


@pytest.mark.parametrize("seed", range(12))
def test_construct_N_matches_pairwise_random_chordal(seed):
    _same_as_pairwise(random_chordal(10 + 30 * seed // 11, seed))  # n from 10 to 40


@pytest.mark.parametrize(
    "g",
    [random_chordal(30, 5), path(12)]
    + [ktree(25, k, seed=k) for k in (1, 2, 3)]
    + [star(t) for t in range(2, 10)],
    ids=["rc30-5", "path12", "1-tree", "2-tree", "3-tree"] + [f"star{t}" for t in range(2, 10)],
)
def test_construct_N_matches_pairwise(g):
    _same_as_pairwise(g)


@pytest.mark.parametrize("L", range(4, 11))
def test_construct_N_matches_pairwise_c6z_window(L):
    _same_as_pairwise(derive_window(cycle_z_presentation(6), L).window)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.integers(4, 30))
def test_construct_N_matches_pairwise_hypothesis(seed, n):
    _same_as_pairwise(random_chordal(n, seed))


def test_construct_N_of_pair_bottlenecks_is_the_default():
    # the per-pair bottlenecks, supplied, take the same selection path
    g = random_chordal(25, 2)
    pairs = itertools.combinations(maximal_cliques(g), 2)
    assert construct_N(g, [beta(g, x, y) for x, y in pairs]).levels == construct_N(g).levels


def test_empty_bottleneck_selection_is_raised():
    # on the path a-b-c-d-e, {a,b,c | c,d,e} is chosen at order 1, and the
    # only member of the order-2 bottleneck, {b,c,d | a,b,d,e}, crosses it
    g = path(5)
    a, b, c, d, e = g.vertices
    chosen = Separation(frozenset({a, b, c}), frozenset({c, d, e}))
    crossing = Separation(frozenset({b, c, d}), frozenset({a, b, d, e}))
    nested = Separation(frozenset({a, b, c, d}), frozenset({c, d, e}))
    assert relate(chosen, crossing) == CROSSING and relate(chosen, nested) == NESTED

    def bottleneck(*seps):
        return Bottleneck(order=seps[0].order, separations=seps)

    n = construct_N(g, [bottleneck(chosen), bottleneck(crossing, nested)])
    assert n.levels == {1: {chosen}, 2: {nested}}
    with pytest.raises(EmptyBottleneckSelection, match=rf"order 2, separator \['{b}', '{d}'\]"):
        construct_N(g, [bottleneck(chosen), bottleneck(crossing)])


@pytest.mark.parametrize("name", ["path10", "c4z-L3"])
def test_parts_without_a_choice_count_no_crossings(monkeypatch, name):
    # every part of a path, or of a window of a cycle cover, has one candidate
    g = path(10) if name == "path10" else derive_window(cycle_z_presentation(4), 3).window

    def refuse(s, pool):
        raise AssertionError("crossings counted for a part without a choice")

    monkeypatch.setattr("cliquedec.nested.crossing_count", refuse)
    assert construct_N(g).levels == pairwise_construct_N(g).levels


def test_parts_with_a_choice_count_crossings_once(monkeypatch):
    counted = []

    def counting(s, pool):
        counted.append(s)
        return crossing_count(s, pool)

    monkeypatch.setattr("cliquedec.nested.crossing_count", counting)
    g = star(4)  # one order; each part puts its two free leaves on sides in four ways
    assert construct_N(g).levels == pairwise_construct_N(g).levels
    assert counted and len(counted) == len(set(counted))
