"""Separations: assembly, nestedness, classification, Menger flows, beta."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquedec import separations
from cliquedec.chordal import MaximalClique, clique_tree, is_chordal, maximal_cliques
from cliquedec.covers import derive_window
from cliquedec.errors import (
    CliquesEqual,
    EmptySide,
    InvariantViolation,
    NotAClique,
    NotASeparation,
    NotChordal,
)
from cliquedec.graph import Graph
from cliquedec.instances import (
    cycle,
    cycle_z_presentation,
    path,
    random_chordal,
    star,
    two_triangles,
)
from cliquedec.nested import construct_N
from cliquedec.separations import (
    CROSSING,
    NESTED,
    Separation,
    beta,
    bottleneck_part,
    classify,
    clique_min_separators,
    min_clique_separator,
    relate,
    separation_from_separator,
    validate_separation,
)
from cliquedec.symmetry import automorphism_generators

from oracles import (
    brute_min_separators,
    explicit_beta,
    explicit_part,
    flow_min_separators,
    orientation_relate,
    random_clique,
    random_graph,
)


def _comp_map(g, separator, assignment_by_member):
    """Build the component -> side map from a vertex -> side hint."""
    out = {}
    for comp, _ in g.components_after_deletion(separator):
        sides = {assignment_by_member[v] for v in comp if v in assignment_by_member}
        assert len(sides) == 1
        out[comp] = sides.pop()
    return out


def test_separation_canonical_orientation():
    s1 = Separation(frozenset("ab"), frozenset("bc"))
    s2 = Separation(frozenset("bc"), frozenset("ab"))
    assert s1 == s2 and hash(s1) == hash(s2)
    assert s1.separator == frozenset("b") and s1.order == 1
    # the hash is computed once, from the sorted sides, however they came
    swap = {"a": "c", "b": "b", "c": "a"}
    s3 = s1.apply(swap)
    assert s3 == s1 and hash(s3) == hash(s1) and s3.apply(swap) == s1
    assert len({s1, s2, s3, Separation(frozenset("cb"), frozenset("ba"))}) == 1
    assert s1 != Separation(frozenset("ab"), frozenset("abc"))


def test_separation_from_separator_examples():
    g = path(3)  # v0 - v1 - v2
    s = separation_from_separator(
        g, frozenset({"v1"}), _comp_map(g, frozenset({"v1"}), {"v0": "A", "v2": "B"})
    )
    assert {s.sideA, s.sideB} == {frozenset({"v0", "v1"}), frozenset({"v1", "v2"})}

    g = star(3)
    s = separation_from_separator(
        g,
        frozenset({"c"}),
        _comp_map(g, frozenset({"c"}), {"1": "A", "2": "B", "3": "B"}),
    )
    assert {s.sideA, s.sideB} == {frozenset({"c", "1"}), frozenset({"c", "2", "3"})}

    g = cycle(4)
    sep = frozenset({"v0", "v2"})
    s = separation_from_separator(g, sep, _comp_map(g, sep, {"v1": "A", "v3": "B"}))
    assert {s.sideA, s.sideB} == {frozenset({"v0", "v1", "v2"}), frozenset({"v0", "v2", "v3"})}


def test_separation_from_separator_errors():
    g = path(3)
    with pytest.raises(NotASeparation):
        separation_from_separator(g, frozenset({"v1"}), {})
    with pytest.raises(EmptySide):
        g2 = path(2)
        comps = {c: "A" for c, _ in g2.components_after_deletion(frozenset())}
        separation_from_separator(g2, frozenset(), comps)


def test_validate_separation_rejects_crossing_edge():
    g = path(3)
    with pytest.raises(NotASeparation):
        validate_separation(g, Separation(frozenset({"v0"}), frozenset({"v1", "v2"})))


def test_relate_examples():
    g = star(4)
    rest = lambda keep: frozenset(set(g.vertices) - set(keep))
    s = Separation(frozenset({"c", "1", "2"}), frozenset({"c", "3", "4"}))
    t = Separation(frozenset({"c", "1", "3"}), frozenset({"c", "2", "4"}))
    assert relate(s, s) == NESTED
    assert relate(s, t) == CROSSING
    a = Separation(frozenset({"c", "1"}), rest(["1"]) | {"c"})
    b = Separation(frozenset({"c", "2"}), rest(["2"]) | {"c"})
    assert relate(a, b) == NESTED


def test_classify_examples():
    g = path(3)
    s = Separation(frozenset({"v0", "v1"}), frozenset({"v1", "v2"}))
    assert classify(g, s) == classify(g, s)
    cl = classify(g, s)
    assert (cl.order, cl.proper, cl.tight) == (1, True, True)
    trivial = Separation(frozenset(g.vertices), frozenset({"v1"}))
    assert not classify(g, trivial).proper
    g = star(3)
    cl = classify(g, Separation(frozenset({"c", "1", "2"}), frozenset({"c", "3"})))
    assert (cl.order, cl.proper, cl.tight) == (1, True, True)


def test_min_clique_separator_examples():
    g = star(3)
    k, sep, paths = min_clique_separator(g, ["c", "1"], ["c", "2"])
    assert (k, sep) == (1, frozenset({"c"}))
    assert paths == [["c"]]
    g = two_triangles()
    k, sep, paths = min_clique_separator(g, ["a", "b", "c"], ["b", "c", "d"])
    assert (k, sep) == (2, frozenset("bc"))
    assert sorted(map(tuple, paths)) == [("b",), ("c",)]
    g = Graph("abcd", [("a", "b"), ("c", "d")])
    assert min_clique_separator(g, ["a"], ["c"])[0] == 0


def test_enumerate_min_separators_examples():
    g = path(5)
    seps = flow_min_separators(g, ["v0"], ["v4"])
    # full Menger convention: endpoints are deletable, so all five
    # singletons are minimum separators; the three interior ones are the
    # ones producing proper separations
    assert set(seps) == {frozenset({f"v{i}"}) for i in range(5)}
    assert {frozenset({"v1"}), frozenset({"v2"}), frozenset({"v3"})} <= set(seps)
    g = two_triangles()
    assert flow_min_separators(g, ["a", "b", "c"], ["b", "c", "d"]) == [frozenset("bc")]


def test_min_separators_contain_shared_vertices():
    g = star(3)
    for s in flow_min_separators(g, ["c", "1"], ["c", "2"]):
        assert "c" in s


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(3, 9), st.floats(0.25, 0.9))
def test_min_cut_matches_brute_force(seed, n, p):
    rng = random.Random(seed)
    g = random_graph(n, p, rng)
    x = random_clique(g, rng)
    y = random_clique(g, rng)
    k, sep, paths = min_clique_separator(g, x, y)
    bk, bseps = brute_min_separators(g, x, y)
    assert k == bk == len(paths) == len(sep)
    assert set(flow_min_separators(g, x, y)) == set(bseps)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_relate_symmetric_and_automorphism_invariant(seed):
    rng = random.Random(seed)
    g = random_chordal(rng.randint(4, 10), seed)
    seps = []
    for s in flow_min_separators(g, [g.vertices[0]], [g.vertices[-1]]):
        comps = g.components_after_deletion(s)
        assignment = {c: ("A" if i % 2 == 0 else "B") for i, (c, _) in enumerate(comps)}
        if len(comps) >= 2:
            seps.append(separation_from_separator(g, s, assignment))
    aut = automorphism_generators(g)
    for s1 in seps:
        for s2 in seps:
            r = relate(s1, s2)
            assert r == relate(s2, s1)
            for phi in aut.generators:
                assert relate(s1.apply(dict(phi)), s2.apply(dict(phi))) == r


def test_beta_examples():
    g = star(3)
    x = MaximalClique(frozenset({"c", "1"}))
    y = MaximalClique(frozenset({"c", "2"}))
    b = beta(g, x, y)
    assert b.order == 1 and len(b.separations) == 2
    assert set(b.separations) == {
        Separation(frozenset({"c", "1"}), frozenset({"c", "2", "3"})),
        Separation(frozenset({"c", "1", "3"}), frozenset({"c", "2"})),
    }
    for s in b.separations:
        fits = (x.vertices <= s.sideA and y.vertices <= s.sideB) or (
            x.vertices <= s.sideB and y.vertices <= s.sideA
        )
        assert fits and classify(g, s).tight

    g = two_triangles()
    b = beta(g, MaximalClique(frozenset("abc")), MaximalClique(frozenset("bcd")))
    assert list(b.separations) == [Separation(frozenset("abc"), frozenset("bcd"))]

    g = path(3)
    b = beta(g, MaximalClique(frozenset({"v0", "v1"})), MaximalClique(frozenset({"v1", "v2"})))
    assert list(b.separations) == [
        Separation(frozenset({"v0", "v1"}), frozenset({"v1", "v2"}))
    ]


def test_beta_errors():
    g = two_triangles()
    x = MaximalClique(frozenset("abc"))
    with pytest.raises(CliquesEqual):
        beta(g, x, x)
    with pytest.raises(NotChordal):
        beta(
            cycle(4),
            MaximalClique(frozenset({"v0", "v1"})),
            MaximalClique(frozenset({"v2", "v3"})),
        )
    with pytest.raises(NotAClique):
        beta(g, x, MaximalClique(frozenset("bc")))


def test_beta_order_bound_and_tightness():
    for seed in range(8):
        g = random_chordal(random.Random(seed).randint(6, 16), seed)
        cliques = maximal_cliques(g)
        for i in range(len(cliques)):
            for j in range(i + 1, len(cliques)):
                b = beta(g, cliques[i], cliques[j], check=False)
                assert b.order < min(len(cliques[i].vertices), len(cliques[j].vertices))
                for s in b.separations:
                    cl = classify(g, s)
                    assert cl.tight and cl.proper
                    assert g.is_clique(s.separator)
                    assert s.separator in set(
                        __import__("cliquedec.chordal", fromlist=["minimal_separators"]).minimal_separators(g)
                    )


# -- the cached expansion of beta against the per-pair oracle


def _beta_matches_explicit(g):
    for x, y in itertools.combinations(maximal_cliques(g), 2):
        want = explicit_beta(g, x, y)
        assert beta(g, x, y).separations == want, (x, y)
        assert beta(g, y, x).separations == want, (y, x)


def test_beta_matches_explicit_suite1(suite1):
    for g, _res in suite1:
        _beta_matches_explicit(g)


def test_beta_matches_explicit_c6z_window():
    _beta_matches_explicit(derive_window(cycle_z_presentation(6), 4).window)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(4, 40))
def test_beta_matches_explicit_random_chordal(seed, n):
    _beta_matches_explicit(random_chordal(n, seed))


def test_construct_n_classifies_nothing(suite1, monkeypatch):
    # bottleneck separations are tight by construction
    g = Graph.from_json_dict(suite1[0][0].to_json_dict())  # nothing cached yet

    def refuse(g, s):
        pytest.fail("beta classified a separation")

    monkeypatch.setattr(separations, "classify", refuse)
    assert construct_N(g).union == suite1[0][1]["nested_set"].union


def test_beta_rejects_a_separator_with_a_component_that_is_not_full(monkeypatch):
    # K4 {1,2,3,4} and K4 {3,4,5,6} glued along {3,4}, plus 7 joined to 3:
    # {3,4,7} separates the two K4s, but no vertex of {1,2} or {5,6} sees 7
    edges = list(itertools.combinations("1234", 2)) + list(itertools.combinations("3456", 2))
    g = Graph("1234567", edges + [("3", "7")])
    x, y = MaximalClique(frozenset("1234")), MaximalClique(frozenset("3456"))
    monkeypatch.setattr(
        separations, "clique_min_separators", lambda g, x, y: [frozenset("347")]
    )
    with pytest.raises(InvariantViolation, match=r"\['3', '4', '7'\] is not tight"):
        beta(g, x, y)


def test_beta_shares_separation_objects():
    g = random_chordal(30, seed=5)
    first_seen = {}
    for x, y in itertools.combinations(maximal_cliques(g), 2):
        b, again = beta(g, x, y), beta(g, x, y)
        assert len(b.separations) == len(again.separations)
        assert all(s is t for s, t in zip(b.separations, again.separations))
        for s in b.separations:
            assert first_seen.setdefault(s, s) is s


# -- every bottleneck part is the whole bottleneck of some clique pair


def _each_part_is_a_bottleneck(g):
    cliques = maximal_cliques(g)
    labels = [sep for sep in dict.fromkeys(clique_tree(g).label) if sep]
    for sep in labels:
        comps = g.components_after_deletion(sep)
        full = [n for n, (_, is_full) in enumerate(comps) if is_full]
        assert len(full) >= 2, g.sorted(sep)

        # a vertex of each full component that sees all of S
        sees_all = {
            n: next(v for v in g.sorted(comps[n][0]) if sep <= g.neighbors(v)) for n in full
        }
        for i, j in itertools.combinations(full, 2):
            v1, v2 = sees_all[i], sees_all[j]
            x, y = (next(c for c in cliques if sep | {v} <= c.vertices) for v in (v1, v2))
            assert x.vertices & y.vertices == sep
            b = beta(g, x, y)
            part = explicit_part(g, sep, v1, v2)
            assert b.order == len(sep) and b.separations == part, g.sorted(sep)
            assert bottleneck_part(g, sep, v1, v2) == b.separations


def test_each_part_is_a_bottleneck_suites(suite1, suite2):
    graphs = [g for g, _ in suite1]
    graphs += [g for g in suite2 if g.is_connected() and is_chordal(g)[0]]
    for g in graphs:
        _each_part_is_a_bottleneck(g)


@pytest.mark.parametrize("t", range(2, 10))
def test_each_part_is_a_bottleneck_star(t):
    _each_part_is_a_bottleneck(star(t))


@pytest.mark.parametrize("L", [3, 4, 6, 8])
def test_each_part_is_a_bottleneck_c6z_window(L):
    _each_part_is_a_bottleneck(derive_window(cycle_z_presentation(6), L).window)


def test_star8_builds_each_distinct_separation_once(monkeypatch):
    """The 28 parts of star(8)'s centre hold 1,792 members but only 127
    distinct separations: one per split of the 8 leaves into two nonempty sets."""
    g, sep = star(8), frozenset("c")
    built = []
    post_init = Separation.__post_init__

    def counting_post_init(s):
        built.append(s)
        post_init(s)

    monkeypatch.setattr(Separation, "__post_init__", counting_post_init)
    pairs = list(itertools.combinations(g.sorted(g.vertices)[1:], 2))
    parts = {(u, v): bottleneck_part(g, sep, u, v) for u, v in pairs}
    assert len(built) == 127 == len({s for part in parts.values() for s in part})
    monkeypatch.undo()
    assert sum(map(len, parts.values())) == 28 * 64
    for (u, v), part in parts.items():
        assert part == explicit_part(g, sep, u, v)


# -- relate against the orientation loop it replaced


def _relate_matches_orientations(g):
    """Every unordered pair of each order's pool: the pairs whose crossings
    `construct_N` counts (`relate` is symmetric, so one order suffices)."""
    pools = {}
    for sep in dict.fromkeys(clique_tree(g).label):
        reps = [next(iter(comp)) for comp, full in g.components_after_deletion(sep) if full]
        for u, v in itertools.combinations(reps if sep else [], 2):
            pools.setdefault(len(sep), set()).update(bottleneck_part(g, sep, u, v))
    for pool in pools.values():
        pool = sorted(pool)
        for i, s in enumerate(pool):
            rest = pool[i:]
            assert [relate(s, t) for t in rest] == [orientation_relate(s, t) for t in rest], s


def test_relate_matches_orientations_suite1(suite1):
    for g, _ in suite1:
        _relate_matches_orientations(g)


@pytest.mark.parametrize("t", range(2, 10))
def test_relate_matches_orientations_star(t):
    _relate_matches_orientations(star(t))


@pytest.mark.parametrize("L", [3, 4])
def test_relate_matches_orientations_c6z_window(L):
    _relate_matches_orientations(derive_window(cycle_z_presentation(6), L).window)


SIDE = st.frozensets(st.sampled_from("abcdef"))


@st.composite
def side_pairs(draw):
    """Two sides: arbitrary, one inside the other either way, or covering
    the universe; empty and improper pairs included."""
    a, extra = draw(SIDE), draw(SIDE)
    b = draw(st.sampled_from([extra, a | extra, a & extra, frozenset("abcdef") - a | extra]))
    return Separation(a, b)


@settings(max_examples=500, deadline=None)
@given(side_pairs(), side_pairs())
def test_relate_matches_orientations_random_sides(s, t):
    assert relate(s, t) == orientation_relate(s, t)
    assert relate(s, s) == orientation_relate(s, s) == NESTED


# -- clique-tree minimum separators against the max-flow and brute-force oracles


def _tree_matches_flow(g):
    cliques = [c.vertices for c in maximal_cliques(g)]
    for x, y in itertools.combinations(cliques, 2):
        assert clique_min_separators(g, x, y) == flow_min_separators(g, x, y), (x, y)


def test_tree_separators_match_flow_suite1(suite1):
    for g, _res in suite1:
        _tree_matches_flow(g)


def test_tree_separators_match_flow_c6z_window():
    _tree_matches_flow(derive_window(cycle_z_presentation(6), 4).window)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(4, 40))
def test_tree_separators_match_flow_random_chordal(seed, n):
    g = random_chordal(n, seed)
    _tree_matches_flow(g)
    cliques = maximal_cliques(g)
    if len(cliques) > 1:
        # every minimum separator carries a tight separation of beta
        x, y = random.Random(seed).sample(cliques, 2)
        b = beta(g, x, y)
        assert {s.separator for s in b.separations} == set(
            clique_min_separators(g, x.vertices, y.vertices)
        )


def test_tree_separators_match_brute_force(suite2):
    """Chordal graphs of at most 12 vertices, connected or not."""
    graphs = [g for g in suite2 if len(g) <= 12 and is_chordal(g)[0]]
    graphs += [random_chordal(n, seed) for seed, n in enumerate(range(4, 13))]
    assert any(not g.is_connected() for g in graphs)
    for g in graphs:
        cliques = [c.vertices for c in maximal_cliques(g)]
        for x, y in itertools.combinations(cliques, 2):
            k, brute = brute_min_separators(g, x, y)
            seps = clique_min_separators(g, x, y)
            assert {len(s) for s in seps} == {k}
            assert set(seps) == set(brute)
