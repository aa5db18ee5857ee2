"""Voltage presentations, windows, cover checks, folding, r-acyclicity."""

import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquedec import covers
from cliquedec.covers import (
    IDENTITY,
    VoltagePresentation,
    derive_window,
    fold,
    fold_pipeline,
    lift_project_clique,
    parse_word,
    periodic_N,
    r_acyclic_check,
    theorem3_pipeline,
    verify_cover,
    verify_graph_decomposition,
    word_inv,
    word_mul,
    word_str,
)
from cliquedec.errors import (
    ActionMismatch,
    BallNotPreserved,
    NotAClique,
    PreconditionViolated,
)
from cliquedec.graph import Graph
from cliquedec.instances import (
    cycle,
    cycle_z_presentation,
    identity_presentation,
    two_triangles,
    wheel,
)
from cliquedec.nested import construct_N
from cliquedec.treedec import build_td_from_nested, classify_td

from oracles import scan_fold, scan_separation_signature, subgraph_ball_check
from test_chordal import _graphs_built


# -- words --------------------------------------------------------------


def test_word_algebra():
    z = parse_word("z")
    assert parse_word("z z^-1") == IDENTITY
    assert word_mul(z, word_inv(z)) == IDENTITY
    assert parse_word("z^2") == (("z", 1), ("z", 1))
    assert parse_word("z1 z2^-1") == (("z1", 1), ("z2", -1))
    assert word_str(parse_word("z1 z2^-1")) == "z1 z2^-1"
    assert word_str(IDENTITY) == "1"
    assert parse_word("1") == IDENTITY
    with pytest.raises(ValueError):
        parse_word("z^0")


# -- presentations ------------------------------------------------------


def test_presentation_validation():
    base = cycle(3)
    with pytest.raises(PreconditionViolated):
        VoltagePresentation(base=base, tree_edges=frozenset(), voltages={})
    tree = frozenset({frozenset({"v0", "v1"}), frozenset({"v1", "v2"})})
    pres = VoltagePresentation(base=base, tree_edges=tree, voltages={("v2", "v0"): parse_word("z")})
    assert pres.voltages[("v0", "v2")] == parse_word("z^-1")
    assert pres.generators() == ["z"]
    with pytest.raises(PreconditionViolated):
        VoltagePresentation(
            base=base,
            tree_edges=tree,
            voltages={("v0", "v1"): parse_word("z")},  # voltage on a tree edge
        )


def test_presentation_json_roundtrip():
    pres = cycle_z_presentation(6)
    data = json.loads(json.dumps(pres.to_json_dict()))
    again = VoltagePresentation.from_json_dict(data)
    assert again.base == pres.base
    assert again.tree_edges == pres.tree_edges
    assert again.voltages == pres.voltages
    with pytest.raises(ValueError):
        VoltagePresentation.from_json_dict({**data, "extra": 1})


# -- windows ------------------------------------------------------------


def test_derive_window_double_ray_segment():
    pres = cycle_z_presentation(6)
    win = derive_window(pres, 2)
    # 6 base vertices x words z^i, |i| <= 2 -> a path on 30 vertices
    assert len(win.window) == 30
    assert win.window.edge_count() == 29
    degrees = sorted(win.window.degree(v) for v in win.window.vertices)
    assert degrees.count(1) == 2 and degrees.count(2) == 28
    assert sum(len(w) == 2 for w in win.word_of.values()) == 12


def test_identity_window_is_base():
    g = two_triangles()
    pres = identity_presentation(g)
    for L in (0, 3):
        win = derive_window(pres, L)
        assert len(win.window) == len(g)
        assert win.window.edge_count() == g.edge_count()
        images = {win.base_of[x] for x in win.window.vertices}
        assert images == set(g.vertices)


# -- verification -------------------------------------------------------


def test_verify_cover_c6():
    report = verify_cover(cycle_z_presentation(6), 3, 6)
    assert report["ok"]
    assert report["covering"] and report["ball_preserving"]
    assert report["free_on_cliques"] and report["fiber_distances"]
    assert report["checked_centers"] > 0


def test_verify_cover_c3_ball_not_preserved():
    with pytest.raises(BallNotPreserved) as exc:
        verify_cover(cycle_z_presentation(3), 3, 6)
    assert exc.value.center in {f"v{i}@1" for i in range(3)} or exc.value.center


def test_verify_cover_identity():
    report = verify_cover(identity_presentation(two_triangles()), 3, 6)
    assert report["ok"]


def test_verify_cover_needs_buffer():
    with pytest.raises(PreconditionViolated):
        verify_cover(cycle_z_presentation(6), 3, 4)


def test_verify_cover_checks_cliques_on_large_windows(monkeypatch):
    import cliquedec.covers as covers

    real, sizes = covers.maximal_cliques, []

    def counting_maximal_cliques(g, **kwargs):
        sizes.append(len(g))
        return real(g, **kwargs)

    monkeypatch.setattr(covers, "maximal_cliques", counting_maximal_cliques)
    report = verify_cover(cycle_z_presentation(6), 3, 34)
    assert len(report["window"].window) == 414
    assert sizes == [414]
    assert report["free_on_cliques"] and report["ok"]


def _assert_ball_check_matches_oracle(pres, r, L):
    checked, failing = subgraph_ball_check(pres, r, L)
    if failing is None:
        assert verify_cover(pres, r, L)["checked_centers"] == checked, (r, L)
    else:
        with pytest.raises(BallNotPreserved) as exc:
            verify_cover(pres, r, L)
        assert exc.value.center == failing, (r, L)


@pytest.mark.parametrize("n", range(3, 9))
def test_ball_check_matches_subgraph_oracle_cycle_covers(n):
    # the r/2-balls of Cn close up iff 2 (r // 2) + 1 >= n: both verdicts occur
    for r in range(3, 7):
        for L in (r + 2, r + 4):
            _assert_ball_check_matches_oracle(cycle_z_presentation(n), r, L)


@pytest.mark.parametrize("g", [two_triangles(), wheel()], ids=["two_triangles", "wheel"])
def test_ball_check_matches_subgraph_oracle_identity_covers(g):
    for r in range(3, 7):
        _assert_ball_check_matches_oracle(identity_presentation(g), r, r + 2)


def test_ball_check_matches_subgraph_oracle_f2(f2_presentation):
    _assert_ball_check_matches_oracle(f2_presentation, 3, 5)


def test_ball_check_matches_subgraph_oracle_past_the_first_centre():
    # a C4 on a tail a-b: the balls of radius 2 at a and b hold no cycle, the
    # one at c0 holds the C4, which the cover unrolls
    ring = [("b", "c0"), ("c0", "c1"), ("c1", "c2"), ("c2", "c3")]
    base = Graph(["a", "b"], [("a", "b")] + ring + [("c3", "c0")])
    tree = frozenset(frozenset(e) for e in [("a", "b")] + ring)
    pres = VoltagePresentation(base=base, tree_edges=tree, voltages={("c3", "c0"): parse_word("z")})
    assert subgraph_ball_check(pres, 4, 6) == (3, "c0@1")
    _assert_ball_check_matches_oracle(pres, 4, 6)


def test_verify_cover_rejects_a_negative_radius():
    with pytest.raises(ValueError, match="must be nonnegative"):
        verify_cover(cycle_z_presentation(6), -1, 3)


# -- lift / project -----------------------------------------------------


def test_project_and_lift_edges(c6z_artifacts):
    pres, win, _, _ = c6z_artifacts
    assert lift_project_clique(pres, win, ["v0@1", "v1@1"], "project") == frozenset(
        {"v0", "v1"}
    )
    assert lift_project_clique(pres, win, ["v0@z", "v1@z"], "project") == frozenset(
        {"v0", "v1"}
    )
    lifts = lift_project_clique(pres, win, ["v0", "v1"], "lift")
    assert frozenset({"v0@z", "v1@z"}) in lifts
    for a in lifts:
        for b in lifts:
            if a != b:
                assert not (a & b)
    with pytest.raises(NotAClique):
        lift_project_clique(pres, win, ["v0@1", "v3@1"], "project")
    with pytest.raises(NotAClique):
        lift_project_clique(pres, win, ["v0", "v3"], "lift")


def test_lift_closed_neighborhoods_disjoint(c6z_artifacts):
    pres, win, _, _ = c6z_artifacts
    lifts = [
        l
        for l in lift_project_clique(pres, win, ["v0", "v1"], "lift")
        if all(win.safe(x, 1) for x in l)
    ]
    for a in lifts:
        for b in lifts:
            if a is b:
                continue
            na = set(a) | {y for x in a for y in win.window.neighbors(x)}
            nb = set(b) | {y for x in b for y in win.window.neighbors(x)}
            assert not (na & nb)


# -- periodic nested sets ----------------------------------------------


def test_periodic_N_c6():
    reps, stable = periodic_N(cycle_z_presentation(6), 4)
    assert stable and len(reps) == 6
    for s in reps:
        assert s.order == 1  # vertex splits of the double ray


def test_long_window_folds_as_the_short_one():
    # the 198-vertex window at L=16 folds to the same decomposition as L=3
    pres = cycle_z_presentation(6)
    long_fold = fold_pipeline(pres, 16)
    assert len(long_fold.window.window) == 198
    assert long_fold.gd.to_json_dict() == fold_pipeline(pres, 3).gd.to_json_dict()
    reps, stable = periodic_N(pres, 16)
    assert stable and len(reps) == 6


@pytest.mark.parametrize("L", range(4, 11))
def test_separation_signature_matches_scan_oracle(L):
    win, n = covers._window_nested_set(cycle_z_presentation(6), L)
    for s in n.union:
        assert covers._separation_signature(win, s) == scan_separation_signature(win, s)


def test_periodic_N_c3_chordal_but_not_ball_preserving():
    reps, stable = periodic_N(cycle_z_presentation(3), 4)
    assert stable and len(reps) == 3


def test_periodic_N_identity_reduces_to_base():
    reps, stable = periodic_N(identity_presentation(two_triangles()), 4)
    assert stable and len(reps) == 1
    assert reps[0].separator == frozenset({"b@1", "c@1"})


# -- folding ------------------------------------------------------------


def test_fold_c6(c6z_artifacts):
    pres, win, _, td = c6z_artifacts
    gd = fold(pres, win, td)
    assert len(gd.model) == 6 and gd.model.edge_count() == 6
    assert sorted(map(sorted, gd.bags.values())) == [
        ["v0", "v1"], ["v0", "v5"], ["v1", "v2"], ["v2", "v3"], ["v3", "v4"], ["v4", "v5"],
    ]
    report = verify_graph_decomposition(cycle(6), gd)
    assert report["ok"] and report["into_cliques"] and report["into_maximal_cliques"]
    # into-cliques equivalence with the window decomposition
    assert classify_td(win.window, td).into_cliques == report["into_cliques"]


def test_fold_identity_two_triangles():
    g = two_triangles()
    pres = identity_presentation(g)
    win = derive_window(pres, 6)
    td = build_td_from_nested(win.window, construct_N(win.window).union)
    gd = fold(pres, win, td)
    assert len(gd.model) == 2 and gd.model.edge_count() == 1
    assert set(gd.bags.values()) == {frozenset("abc"), frozenset("bcd")}
    assert verify_graph_decomposition(g, gd)["ok"]


@pytest.mark.parametrize("n", range(3, 9))
def test_fold_matches_scan_oracle_on_cycle_covers(n):
    pres = cycle_z_presentation(n)
    for L in range(3, 7):
        res = fold_pipeline(pres, L)
        want = scan_fold(pres, res.window, res.td).to_json_dict()
        assert res.gd.to_json_dict() == want


def test_fold_matches_scan_oracle_on_identity_covers():
    pres = identity_presentation(two_triangles())
    res = fold_pipeline(pres, 6)
    want = scan_fold(pres, res.window, res.td).to_json_dict()
    assert res.gd.to_json_dict() == want
    # the wheel's window has a hole: fold the tree of a triangulation instead
    pres = identity_presentation(wheel())
    win = derive_window(pres, 6)
    filled = Graph(win.window.vertices, win.window.edges() + [("r0@1", "r2@1")])
    td = build_td_from_nested(filled, construct_N(filled).union)
    want = scan_fold(pres, win, td).to_json_dict()
    assert len(want["nodes"]) == 2
    assert fold(pres, win, td).to_json_dict() == want


@pytest.mark.parametrize("L", [0, 1, 2])
def test_fold_needs_the_lifts_inside_the_window(L):
    message = "the lift of 'v0' touches non-interior tree nodes; enlarge the window"
    for n in range(3, 9):
        with pytest.raises(ActionMismatch) as info:
            fold_pipeline(cycle_z_presentation(n), L)
        assert str(info.value) == message


def _fold_step_by_step(pres, L):
    win = derive_window(pres, L)
    td = build_td_from_nested(win.window, construct_N(win.window).union)
    return td, fold(pres, win, td)


@pytest.mark.parametrize(
    "pres, L",
    [(cycle_z_presentation(6), 4), (identity_presentation(two_triangles()), 6)],
    ids=["c6z-L4", "two-triangles-identity"],
)
def test_fold_pipeline_matches_step_by_step(pres, L):
    res = fold_pipeline(pres, L)
    assert (res.td, res.gd) == _fold_step_by_step(pres, L)
    assert res.window == derive_window(pres, L)


def test_fold_pipeline_matches_step_by_step_c6z_L6(c6z_artifacts):
    # the fixture is fold_pipeline's result at L=6
    pres, win, _, td = c6z_artifacts
    assert (td, fold(pres, win, td)) == _fold_step_by_step(pres, 6)


# -- renaming: fold commutes with renaming the base and the generators


def _renamed_presentation(pres, seed):
    """pres with its base vertices renamed (and reordered) and z renamed w."""
    rng = random.Random(seed)
    base = pres.base
    names = [f"b{i}" for i in range(len(base))]
    rng.shuffle(names)
    mapping = dict(zip(base.vertices, names))
    order = [mapping[v] for v in base.vertices]
    rng.shuffle(order)
    renamed = VoltagePresentation(
        base=Graph(order, [(mapping[u], mapping[v]) for u, v in base.edges()]),
        tree_edges=frozenset(frozenset(mapping[v] for v in e) for e in pres.tree_edges),
        voltages={
            (mapping[u], mapping[v]): tuple(({"z": "w"}[x], e) for x, e in word)
            for (u, v), word in pres.voltages.items()
        },
    )
    return mapping, renamed


def _gd_shape(gd, mapping=None):
    """Bags, model edges as bag pairs and co-parts, with model-node names
    dropped and base vertices renamed by mapping."""
    bag = {h: frozenset(mapping[v] for v in b) if mapping else b for h, b in gd.bags.items()}

    def edges(model):
        return Counter(frozenset((bag[s], bag[t])) for s, t in model.edges())

    coparts = {
        mapping[v] if mapping else v: (Counter(bag[h] for h in sub.vertices), edges(sub))
        for v, sub in gd.coparts.items()
    }
    return Counter(bag.values()), edges(gd.model), coparts


FOLD_RENAMED = {n: fold_pipeline(cycle_z_presentation(n), 3).gd for n in range(3, 7)}


def _assert_fold_commutes_with_renaming(n, seed):
    mapping, renamed = _renamed_presentation(cycle_z_presentation(n), seed)
    assert renamed.generators() == ["w"]
    got = fold_pipeline(renamed, 3).gd
    assert _gd_shape(got) == _gd_shape(FOLD_RENAMED[n], mapping)


@pytest.mark.parametrize("n", range(3, 7))
def test_fold_commutes_with_renaming(n):
    for seed in range(8):
        _assert_fold_commutes_with_renaming(n, seed)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.integers(3, 6))
def test_fold_commutes_with_renaming_hypothesis(seed, n):
    _assert_fold_commutes_with_renaming(n, seed)


def test_verify_gd_mutations(c6z_artifacts):
    from cliquedec.covers import GraphDecomposition

    pres, win, _, td = c6z_artifacts
    gd = fold(pres, win, td)
    # non-clique bag
    bad_bags = dict(gd.bags)
    some = next(iter(bad_bags))
    bad_bags[some] = frozenset({"v0", "v3"})
    bad = GraphDecomposition(model=gd.model, bags=bad_bags, coparts=gd.coparts)
    assert not verify_graph_decomposition(cycle(6), bad)["into_cliques"]
    # disconnected co-part
    bad_coparts = dict(gd.coparts)
    full = Graph(sorted(gd.model.vertices), [])
    bad_coparts["v0"] = full
    bad = GraphDecomposition(model=gd.model, bags=gd.bags, coparts=bad_coparts)
    report = verify_graph_decomposition(cycle(6), bad)
    assert any(v == "v0" for v, _ in report["h2_failures"])


# -- r-acyclicity -------------------------------------------------------


def test_r_acyclic_c6(c6z_artifacts):
    pres, win, _, td = c6z_artifacts
    gd = fold(pres, win, td)
    g = cycle(6)
    flag, info = r_acyclic_check(g, gd, 3)
    assert flag and info["exhaustive"]
    flag, info = r_acyclic_check(g, gd, 6)
    assert not flag
    assert sorted(info["X"]) == [f"v{i}" for i in range(6)]
    assert len(info["cycle"]) == 6


def test_r_acyclic_samples_past_its_budget(c6z_artifacts, monkeypatch):
    pres, win, _, td = c6z_artifacts
    gd = fold(pres, win, td)
    # 41 sets of at most 3 of the 6 base vertices: more than the budget
    monkeypatch.setattr(covers, "R_ACYCLIC_BUDGET", 7)
    first = r_acyclic_check(cycle(6), gd, 3)
    assert first == (True, {"checked": 7, "exhaustive": False})
    assert r_acyclic_check(cycle(6), gd, 3) == first


def test_r_acyclic_builds_no_graphs(c6z_artifacts, monkeypatch):
    pres, win, _, td = c6z_artifacts
    g, gd = cycle(6), fold(pres, win, td)
    assert _graphs_built(monkeypatch, lambda: r_acyclic_check(g, gd, 6)) == 0


def test_r_acyclic_tree_model():
    g = two_triangles()
    pres = identity_presentation(g)
    win = derive_window(pres, 6)
    td = build_td_from_nested(win.window, construct_N(win.window).union)
    gd = fold(pres, win, td)
    for r in (1, 3, 4):
        assert r_acyclic_check(g, gd, r)[0]


# -- combined pipeline --------------------------------------------------


def test_theorem3_c6():
    report = theorem3_pipeline(cycle(6), 3, cycle_z_presentation(6), 6)
    assert report["locally_chordal"] and report["into_cliques"] and report["consistent"]


def test_theorem3_identity_chordal():
    g = two_triangles()
    report = theorem3_pipeline(g, 3, identity_presentation(g), 6)
    assert report["locally_chordal"] and report["into_cliques"] and report["consistent"]


def test_theorem3_wheel_fails_both_sides():
    g = wheel()
    report = theorem3_pipeline(g, 3, identity_presentation(g), 6)
    assert not report["locally_chordal"]
    assert not report["window_chordal"]
    assert not report["into_cliques"]
    assert report["consistent"]


def test_gd_exports(c6z_artifacts):
    pres, win, _, td = c6z_artifacts
    gd = fold(pres, win, td)
    data = gd.to_json_dict()
    assert set(data) == {"nodes", "edges", "coparts"}
