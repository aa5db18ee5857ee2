"""Graph primitives: construction, serialization, metric, components, balls."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliquedec.errors import LoopEdge, UnknownVertex
from cliquedec.graph import INFINITY, Graph, from_edge_list

from oracles import full_bfs_ball, random_graph


def test_vertex_order_is_insertion_order():
    g = Graph(["b", "a", "c"], [("c", "d")])
    assert g.vertices == ("b", "a", "c", "d")
    assert g.sorted(["d", "a", "b"]) == ["b", "a", "d"]


def test_loop_rejected():
    with pytest.raises(LoopEdge):
        Graph([], [("x", "x")])
    with pytest.raises(LoopEdge):
        from_edge_list([("x", "x")])
    with pytest.raises(TypeError):
        Graph([1])
    with pytest.raises(TypeError):
        Graph("ab", [("a", 1)])


def test_unknown_vertex():
    g = Graph("ab", [("a", "b")])
    with pytest.raises(UnknownVertex):
        g.neighbors("z")
    with pytest.raises(UnknownVertex):
        g.induced(["a", "z"])
    with pytest.raises(UnknownVertex):
        g.ball("z", 2)


def test_edges_deduplicated_and_sorted():
    g = Graph("abc", [("a", "b"), ("b", "a"), ("b", "c")])
    assert g.edges() == [("a", "b"), ("b", "c")]
    assert g.edge_count() == 2


def test_induced_subgraph():
    g = Graph("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    h = g.induced(["a", "b", "c"])
    assert h.vertices == ("a", "b", "c")
    assert h.edges() == [("a", "b"), ("b", "c")]


def test_distance_and_components():
    g = Graph("abcde", [("a", "b"), ("b", "c"), ("d", "e")])
    assert g.distance("a", "c") == 2
    assert g.distance("a", "d") == INFINITY
    assert len(g.components()) == 2
    assert not g.is_connected()


def test_components_after_deletion_fullness():
    # P3 minus the middle vertex: both leaves are full components
    g = Graph("abc", [("a", "b"), ("b", "c")])
    comps = g.components_after_deletion({"b"})
    assert sorted((sorted(c), full) for c, full in comps) == [
        (["a"], True),
        (["c"], True),
    ]
    # deleting a leaf leaves one full component
    comps = g.components_after_deletion({"a"})
    assert [(sorted(c), full) for c, full in comps] == [(["b", "c"], True)]


def test_ball_both_parities_are_induced():
    g = Graph("abcdef", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f"), ("f", "a")])
    b2 = g.ball("a", 2)
    b3 = g.ball("a", 3)
    assert set(b2.vertices) == {"a", "b", "f"}
    assert set(b3.vertices) == {"a", "b", "f"}
    assert b3.edges() == g.induced({"a", "b", "f"}).edges()
    assert set(g.ball("a", 4).vertices) == {"a", "b", "c", "e", "f"}
    with pytest.raises(ValueError):
        g.ball("a", -1)


def test_ball_matches_full_bfs_oracle(suite2):
    for g in suite2:
        for v in g.vertices:
            for radius2 in range(7):
                b = g.ball(v, radius2)
                o = full_bfs_ball(g, v, radius2)
                assert (b.vertices, b.edges()) == (o.vertices, o.edges())


def test_json_roundtrip_and_unknown_fields():
    g = Graph("abc", [("a", "b")])
    data = g.to_json_dict()
    assert Graph.from_json_dict(json.loads(json.dumps(data))) == g
    with pytest.raises(ValueError):
        Graph.from_json_dict({"vertices": [], "edges": [], "extra": 1})
    with pytest.raises(ValueError):
        Graph.from_json_dict({"vertices": [1, 2]})
    with pytest.raises(ValueError):
        Graph.from_json_dict({"edges": [["a", "b", "c"]]})


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(3, 9), st.floats(0.2, 0.9))
def test_distance_is_a_metric(seed, n, p):
    rng = random.Random(seed)
    g = random_graph(n, p, rng)
    vs = list(g.vertices)
    for u in vs:
        dist = g.distances_from(u)
        assert dist[u] == 0
        for v in vs:
            duv = dist.get(v, INFINITY)
            assert duv == g.distances_from(v).get(u, INFINITY)  # symmetry
            for w in vs:
                dvw = g.distances_from(v).get(w, INFINITY)
                duw = dist.get(w, INFINITY)
                assert duw <= duv + dvw
