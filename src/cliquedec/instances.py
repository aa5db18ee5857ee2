"""Ready-made graphs and voltage presentations for pipelines and tests."""

from __future__ import annotations

import random
from typing import Optional

from .chordal import maximal_cliques
from .covers import VoltagePresentation, parse_word
from .errors import OutOfRange
from .graph import Graph


def star(t: int) -> Graph:
    """K_{1,t} with center 'c' and leaves '1'..'t'."""
    return Graph(["c"] + [str(i) for i in range(1, t + 1)],
                 [("c", str(i)) for i in range(1, t + 1)])


def path(n: int) -> Graph:
    vs = [f"v{i}" for i in range(n)]
    return Graph(vs, list(zip(vs, vs[1:])))


def cycle(n: int) -> Graph:
    vs = [f"v{i}" for i in range(n)]
    return Graph(vs, list(zip(vs, vs[1:])) + [(vs[-1], vs[0])])


def complete(n: int) -> Graph:
    vs = [f"v{i}" for i in range(n)]
    return Graph(vs, [(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :]])


def two_triangles() -> Graph:
    """Two triangles abc and bcd glued along the edge bc."""
    return Graph("abcd", [("a", "b"), ("a", "c"), ("b", "c"), ("b", "d"), ("c", "d")])


def wheel() -> Graph:
    """4-cycle r0..r3 plus a hub adjacent to the whole rim."""
    rim = [f"r{i}" for i in range(4)]
    edges = list(zip(rim, rim[1:])) + [(rim[-1], rim[0])]
    edges += [("h", r) for r in rim]
    return Graph(rim + ["h"], edges)


def ktree(n: int, k: int, seed: int = 0) -> Graph:
    """Random k-tree on n >= k+1 vertices."""
    if n < k + 1:
        raise ValueError("need n >= k + 1")
    rng = random.Random(seed)
    vs = [f"v{i}" for i in range(n)]
    edges = [(vs[i], vs[j]) for i in range(k + 1) for j in range(i + 1, k + 1)]
    cliques = [vs[: k + 1]]
    for i in range(k + 1, n):
        base = rng.choice(cliques)
        drop = rng.randrange(len(base))
        face = [u for j, u in enumerate(base) if j != drop]
        edges.extend((u, vs[i]) for u in face)
        cliques.append(face + [vs[i]])
    return Graph(vs, edges)


def random_chordal(n: int, seed: int = 0) -> Graph:
    """Random connected chordal graph grown by simplicial vertex insertion."""
    rng = random.Random(seed)
    g = Graph(["v0"])
    for i in range(1, n):
        cliques = maximal_cliques(g)
        base = list(rng.choice(cliques).vertices)
        size = rng.randint(1, len(base))
        attach = rng.sample(sorted(base), size)
        g = Graph([*g.vertices, f"v{i}"], g.edges() + [(u, f"v{i}") for u in attach])
    return g


# -- voltage presets ----------------------------------------------------


def cycle_z_presentation(n: int) -> VoltagePresentation:
    """C_n with voltage z on the closing edge; the derived cover is the
    double ray."""
    base = cycle(n)
    tree = frozenset(frozenset((f"v{i}", f"v{i+1}")) for i in range(n - 1))
    return VoltagePresentation(
        base=base,
        tree_edges=tree,
        voltages={(f"v{n-1}", "v0"): parse_word("z")},
    )


def identity_presentation(g: Graph) -> VoltagePresentation:
    """The trivial cover: a BFS spanning tree, identity on every co-tree edge."""
    root = g.vertices[0]
    seen = {root}
    tree = set()
    queue = [root]
    while queue:
        u = queue.pop(0)
        for w in g.sorted(g.neighbors(u)):
            if w not in seen:
                seen.add(w)
                tree.add(frozenset((u, w)))
                queue.append(w)
    return VoltagePresentation(base=g, tree_edges=frozenset(tree), voltages={})


# make_instance's kinds, in the order `gen` lists them, each built from
# get(name, default, least=None): an integer parameter and its lower bound
INSTANCES = {
    "star": lambda get: star(get("t", 3, 1)),
    "path": lambda get: path(get("n", 5, 1)),
    "cycle": lambda get: cycle(get("n", 6, 3)),
    "complete": lambda get: complete(get("n", 4, 1)),
    "ktree": lambda get: ktree(get("n", 8), get("k", 2, 1), get("seed", 0)),
    "random_chordal": lambda get: random_chordal(get("n", 12, 1), get("seed", 0)),
    "two_triangles": lambda get: two_triangles(),
    "wheel": lambda get: wheel(),
}


def make_instance(kind: str, params: Optional[dict] = None) -> Graph:
    """Instance factory used by the CLI's `gen` subcommand."""
    p = params or {}
    def get(name: str, default: int, least: Optional[int] = None) -> int:
        value = int(p.get(name, default))
        if least is not None and value < least:
            raise OutOfRange(f"{kind} needs {name} >= {least}, got {value}")
        return value
    if kind not in INSTANCES:
        raise ValueError(f"unknown instance kind {kind!r}")
    return INSTANCES[kind](get)
