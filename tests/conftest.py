"""Shared fixtures: the random chordal suite and the C6 cover artifacts
are expensive, so they are computed once per session."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from cliquedec.cli import canonical_td_pipeline
from cliquedec.covers import VoltagePresentation, fold_pipeline, parse_word
from cliquedec.graph import Graph
from cliquedec.instances import cycle_z_presentation, random_chordal

SUITE1_SEED = 20240601
SUITE1_COUNT = 50


@pytest.fixture(scope="session")
def suite1():
    """50 seeded random connected chordal graphs, 12 to 40 vertices, each
    with its full canonical-decomposition pipeline results."""
    import random

    rng = random.Random(SUITE1_SEED)
    out = []
    for i in range(SUITE1_COUNT):
        n = rng.randint(12, 40)
        g = random_chordal(n, seed=SUITE1_SEED + i)
        out.append((g, canonical_td_pipeline(g)))
    return out


SUITE2_SEED = 20240602
SUITE2_COUNT = 200


@pytest.fixture(scope="session")
def suite2():
    """200 seeded random graphs on 4 to 14 vertices (mixed density)."""
    import random

    from oracles import random_graph

    rng = random.Random(SUITE2_SEED)
    return [
        random_graph(rng.randint(4, 14), rng.uniform(0.15, 0.7), rng)
        for _ in range(SUITE2_COUNT)
    ]


@pytest.fixture(scope="session")
def c6z_artifacts():
    """Window, nested set and tree-decomposition for the C6 z-cover at L=6."""
    pres = cycle_z_presentation(6)
    res = fold_pipeline(pres, 6)
    return pres, res.window, res.nested, res.td


@pytest.fixture(scope="session")
def f2_presentation():
    """Two hexagons that share the vertex v0, with voltages x and y on their
    closing edges: the deck group of the derived cover is the free group F2."""
    hexagons = [[f"v{i}" for i in range(6)], ["v0"] + [f"w{i}" for i in range(1, 6)]]
    base = Graph(
        [v for h in hexagons for v in h],
        [(h[i], h[(i + 1) % 6]) for h in hexagons for i in range(6)],
    )
    tree = frozenset(frozenset(h[i : i + 2]) for h in hexagons for i in range(5))
    voltages = {("v5", "v0"): parse_word("x"), ("w5", "v0"): parse_word("y")}
    return VoltagePresentation(base=base, tree_edges=tree, voltages=voltages)
