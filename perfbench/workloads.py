"""Seeded input generators and the fixed operation list of each workload.

Nothing here imports ``cliquedec``: the inputs must not move when the code
under test changes.  Every random choice is drawn from one
``random.Random(seed)`` per workload, so the same seed gives byte-identical
input files and the same operation list.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

WORKLOADS = ("chordal-random", "chordal-symmetric", "periodic-fold", "certify")


@dataclass(frozen=True)
class Op:
    """One CLI call.  Arguments starting with ``@`` name an input file."""

    id: str
    argv: Tuple[str, ...]
    expect_exit: int
    # facts the generator knows about the input, read by the oracles
    facts: Dict[str, object] = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]

    def files(self) -> List[str]:
        return [a[1:] for a in self.argv if a.startswith("@")]


@dataclass
class Workload:
    name: str
    inputs: Dict[str, object]
    ops: List[Op]

    def digest(self) -> str:
        """sha256 over every input file and every operation."""
        h = hashlib.sha256()
        for name in sorted(self.inputs):
            h.update(name.encode() + b"\0" + encode(self.inputs[name]) + b"\0")
        for op in self.ops:
            h.update(json.dumps([op.id, list(op.argv), op.expect_exit]).encode() + b"\0")
        return h.hexdigest()


def encode(obj) -> bytes:
    """The exact bytes written to an input file."""
    return json.dumps(obj, separators=(",", ":")).encode()


# -- graphs -------------------------------------------------------------


class RawGraph:
    """Edge set over integer vertices, emitted with seeded vertex names.

    The vertex listing order is the package's canonical order; it is
    shuffled by default, so that inputs do not arrive in elimination order.
    """

    def __init__(self):
        self.n = 0
        self.edges = set()

    def add_vertex(self) -> int:
        self.n += 1
        return self.n - 1

    def add_clique(self, vs: Sequence[int]) -> None:
        for u, v in itertools.combinations(vs, 2):
            self.edges.add((min(u, v), max(u, v)))

    def adjacency(self) -> List[set]:
        adj = [set() for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def names(self, rng: random.Random) -> List[str]:
        names = [f"v{i}" for i in range(self.n)]
        rng.shuffle(names)
        return names

    def to_json(self, names: Sequence[str], rng: random.Random, shuffle: bool = True) -> dict:
        """Graph JSON; the vertices are listed in a seeded order, or in
        construction order when not ``shuffle``."""
        order = list(range(self.n))
        if shuffle:
            rng.shuffle(order)
        edges = [[names[u], names[v]] for u, v in sorted(self.edges)]
        rng.shuffle(edges)
        return {"vertices": [names[i] for i in order], "edges": edges}


def components_after(adj: List[set], deleted: set) -> int:
    """Number of components of the graph minus ``deleted``."""
    seen = set(deleted)
    count = 0
    for start in range(len(adj)):
        if start in seen:
            continue
        count += 1
        seen.add(start)
        stack = [start]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return count


def clique_tree_graph(
    rng: random.Random,
    n: int,
    width: int,
    exact: bool,
    max_components: Optional[int] = None,
    recent: Optional[int] = None,
) -> Tuple[RawGraph, List[List[int]], List[Tuple[int, int]]]:
    """A connected chordal graph grown with a clique tree.

    Each new vertex is joined to a clique S inside a random bag.  With
    ``exact`` the graph is a ``width``-tree: it starts from K_{width+1} and
    S has exactly ``width`` vertices of its bag.  Otherwise the bag is a
    random maximal clique and S takes 1..``width`` of its vertices.  The new
    vertex is simplicial when added, so the graph is chordal, and the bags
    with their attachment edges form a tree-decomposition into cliques.

    With ``recent``, the bag is one of the ``recent`` newest candidates,
    which bounds the degrees: no vertex stays in reach of new vertices for
    long.

    With ``max_components``, a choice of S is redrawn when it would leave
    more than that many components after deleting some attachment set;
    every minimal separator is one.  The count bounds how many free
    components a bottleneck can have (their side assignments are expanded
    one by one), so that one seed's graphs do not cost orders of magnitude
    more than another's.
    """
    g = RawGraph()
    root = [g.add_vertex() for _ in range(width + 1 if exact else 1)]
    g.add_clique(root)
    adj = g.adjacency()
    bags = [root]
    maximal = [0]  # indices of the bags that are maximal cliques
    tree = []
    components: Dict[frozenset, int] = {}  # attachment set -> components of G - S
    while g.n < n:
        candidates = range(len(bags)) if exact else maximal
        if recent:
            candidates = candidates[-recent:]
        parent = rng.choice(candidates)
        k = width if exact else rng.randint(1, min(width, len(bags[parent])))
        attach = frozenset(rng.sample(bags[parent], k))
        if max_components is not None:
            # the new vertex is one more component of G - S for every S >= attach
            grown = {s: c + 1 for s, c in components.items() if attach <= s}
            if attach not in grown:
                grown[attach] = components_after(adj, attach) + 1
            if max(grown.values()) > max_components:
                continue
            components.update(grown)
        v = g.add_vertex()
        adj.append(set(attach))
        for u in attach:
            adj[u].add(v)
        bag = sorted(attach) + [v]
        g.add_clique(bag)
        if k == len(bags[parent]):
            maximal.remove(parent)
        maximal.append(len(bags))
        tree.append((parent, len(bags)))
        bags.append(bag)
    return g, bags, tree


def star(t: int) -> RawGraph:
    g = RawGraph()
    c = g.add_vertex()
    for _ in range(t):
        g.add_clique([c, g.add_vertex()])
    return g


def windmill(m: int, blades: int) -> RawGraph:
    """``blades`` copies of K_m sharing one vertex."""
    g = RawGraph()
    c = g.add_vertex()
    for _ in range(blades):
        g.add_clique([c] + [g.add_vertex() for _ in range(m - 1)])
    return g


def complete(n: int) -> RawGraph:
    g = RawGraph()
    g.add_clique([g.add_vertex() for _ in range(n)])
    return g


def triangle_tree(depth: int, branching: int) -> RawGraph:
    """Balanced tree of triangles: every triangle hangs ``branching`` child
    triangles on each of its two vertices not shared with its parent."""
    g = RawGraph()
    a = g.add_vertex()
    frontier = [(a,)]
    for level in range(depth):
        nxt = []
        for free in frontier:
            for v in free:
                for _ in range(branching if level else 1):
                    b, c = g.add_vertex(), g.add_vertex()
                    g.add_clique([v, b, c])
                    nxt.append((b, c))
        frontier = nxt
    return g


def add_holes(rng: random.Random, g: RawGraph, count: int) -> RawGraph:
    """A copy of g plus ``count`` non-edges uw with d(u, w) = 3.

    A shortest u-w path is induced, so the new edge closes an induced
    4-cycle: the copy is not chordal, and the hole fits in a radius-2 ball.
    """
    h = RawGraph()
    h.n, h.edges = g.n, set(g.edges)
    for _ in range(count):
        adj = h.adjacency()
        for _attempt in range(200):
            u = rng.randrange(h.n)
            dist = {u: 0}
            frontier = [u]
            for d in (1, 2, 3):
                frontier = [w for x in frontier for w in adj[x] if w not in dist]
                for w in frontier:
                    dist.setdefault(w, d)
            far = sorted(w for w, d in dist.items() if d == 3)
            if far:
                w = rng.choice(far)
                h.edges.add((min(u, w), max(u, w)))
                break
        else:
            raise RuntimeError("no vertex pair at distance 3")
    return h


def td_json(bags, tree, names) -> dict:
    return {
        "nodes": [
            {"id": f"t{i}", "bag": sorted(names[v] for v in bag)}
            for i, bag in enumerate(bags)
        ],
        "edges": [[f"t{a}", f"t{b}"] for a, b in tree],
    }


# -- voltage presentations ---------------------------------------------


def cycle_power_cover(rng: random.Random, n: int, power: int) -> Tuple[dict, dict]:
    """The p-th power of C_n presented as a Z-cover of itself.

    The spanning tree is a Hamilton path starting at a seeded vertex; the
    edges that wrap past its end carry z (or z^-1, seeded), so the derived
    cover is the p-th power of the double ray.
    """
    if n <= 2 * power:
        raise ValueError("the power of the cycle would repeat edges")
    names = [f"b{i}" for i in range(n)]
    rng.shuffle(names)
    letter = rng.choice(["z", "z^-1"])
    edges, tree, voltages = [], [], []
    for i in range(n):
        for d in range(1, power + 1):
            u, v = names[i], names[(i + d) % n]
            edges.append([u, v])
            if i + d >= n:
                voltages.append({"edge": [u, v], "word": letter})
            elif d == 1:
                tree.append([u, v])
    rng.shuffle(edges)
    vertices = names[:]
    rng.shuffle(vertices)
    base = {"vertices": vertices, "edges": edges}
    return base, {"base": base, "tree_edges": tree, "voltages": voltages}


# -- workloads ----------------------------------------------------------

# Bound on the components left by deleting an attachment set.  With four,
# graphs of one shape cost within about 15% of each other (unbounded, one
# seed in ten made a 22-vertex graph cost 50 times the others); the
# unbounded 2^f expansion is what chordal-symmetric measures, on stars.
MAX_COMPONENTS = 4

# (vertices, width, exact): random chordal graphs (attachments of 1..4
# vertices of a maximal clique), 2-trees and 3-trees, sized so that every
# operation costs about the same: the run-to-run spread of the latency
# percentiles then comes from the code, not from which graphs a seed drew
RANDOM_SHAPES = (
    [(n, 4, False) for n in (26, 28, 30, 32, 34) for _ in range(4)]
    + [(20, 2, True)] * 10
    + [(22, 3, True)] * 10
)


def split_commands(rng: random.Random, kinds: Sequence) -> List[str]:
    """canonical-td for a seeded half of the graphs of each kind,
    maximal-td for the rest: the seed picks which graphs, not how many of
    each kind, so that it does not move the mix of costs."""
    commands = [""] * len(kinds)
    for kind in dict.fromkeys(kinds):
        where = [i for i, k in enumerate(kinds) if k == kind]
        halves = (["canonical-td", "maximal-td"] * len(where))[: len(where)]
        rng.shuffle(halves)
        for i, command in zip(where, halves):
            commands[i] = command
    return commands


def chordal_random(rng: random.Random) -> Workload:
    inputs, ops = {}, []
    commands = split_commands(rng, RANDOM_SHAPES)
    for i, ((n, width, exact), command) in enumerate(zip(RANDOM_SHAPES, commands)):
        g, _bags, _tree = clique_tree_graph(rng, n, width, exact, MAX_COMPONENTS)
        name = f"g{i:02d}.json"
        inputs[name] = g.to_json(g.names(rng), rng)
        ops.append(Op(f"{command}/g{i:02d}", (command, "--in", "@" + name), 0))
    return Workload("chordal-random", inputs, ops)


# (kind, *params) of the chordal-symmetric graphs.  Each comes in NAMINGS
# seeded namings: the cost of one graph depends on its vertex names
# (canonical-td on K16 took 24-85 ms, on K28 0.18-0.48 s under different
# namings), and with one naming per shape the median operation was one
# such K_n and the costliest few graphs set a seed's throughput.
NAMINGS = 3
SYMMETRIC_SHAPES = [
    shape
    for shape in (
        [("star", t) for t in (6, 7, 8)]
        + [("windmill", 3, b) for b in (4, 6, 8)]
        + [("windmill", m, b) for m, b in ((4, 4), (4, 6), (5, 3), (5, 4), (6, 3), (6, 4))]
        + [("complete", n) for n in (8, 12, 16, 20, 24, 28, 32)]
        + [("triangles", d, b) for d, b in ((2, 2), (3, 1), (2, 3))]
    )
    for _ in range(NAMINGS)
]

CONSTRUCTORS = {
    "star": star,
    "windmill": windmill,
    "complete": complete,
    "triangles": triangle_tree,
}


def chordal_symmetric(rng: random.Random) -> Workload:
    inputs, ops = {}, []
    commands = split_commands(rng, [kind for kind, *_ in SYMMETRIC_SHAPES])
    for i, ((kind, *params), command) in enumerate(zip(SYMMETRIC_SHAPES, commands)):
        g = CONSTRUCTORS[kind](*params)
        name = f"s{i:02d}.json"
        # the seed renames the vertices but keeps them in construction
        # order: the automorphism search's cost depends on that order (one
        # shuffled tree of triangles took 4.5 s, two others over 15 s)
        inputs[name] = g.to_json(g.names(rng), rng, shuffle=False)
        shape = "-".join([kind, *map(str, params)])
        naming = SYMMETRIC_SHAPES[:i].count(SYMMETRIC_SHAPES[i])
        ops.append(Op(f"{command}/{shape}.{naming}", (command, "--in", "@" + name), 0))
    return Workload("chordal-symmetric", inputs, ops)


# (n, power, commands): C_n^power presented as a Z-cover, folded at
# L = 3, the smallest window that folds every one of them.  The cheap
# cycles come several times, with different seeded presentations, so that
# the list is long enough for a tail percentile; the square of C7 is the
# one whose window has cliques larger than edges.
FOLD_L = 3
ALL_THREE = ("fold", "verify-gd", "r-acyclic")
PERIODIC_SHAPES = (
    [(3, 1, ALL_THREE)] * 3 + [(4, 1, ALL_THREE)] * 4 + [(5, 1, ("fold",)), (7, 2, ("fold",))]
)


def periodic_fold(rng: random.Random) -> Workload:
    inputs, ops = {}, []
    for i, (n, power, commands) in enumerate(PERIODIC_SHAPES):
        base, pres = cycle_power_cover(rng, n, power)
        b, v = f"base{i}.json", f"cover{i}.json"
        inputs[b], inputs[v] = base, pres
        label = f"C{n}^{power}-{i}"
        facts = {"cover": v, "fold_op": f"fold/{label}"}
        common = ("--voltage", "@" + v, "-L", str(FOLD_L))
        argvs = {
            "fold": ("fold", *common),
            "verify-gd": ("verify-gd", "--in", "@" + b, *common),
            # three co-parts of the folded triangle already close its cycle
            "r-acyclic": ("r-acyclic", "--in", "@" + b, *common, "-r", "3"),
        }
        for command in commands:
            expect = 1 if command == "r-acyclic" and n == 3 else 0
            ops.append(Op(f"{command}/{label}", argvs[command], expect, facts))
    return Workload("periodic-fold", inputs, ops)


# (vertices, width, exact) of the certify graphs: 2-trees and random
# chordal graphs, sized so that local-chordal costs about the same on each
# (about 0.5 ms per vertex on a 2-tree, 0.4 on a random chordal graph;
# 3-trees cost 0.75, so one of 200 vertices would be the costliest graph),
# so that the operations of one command cost about the same and the
# latency percentiles fall inside such groups.  There are eighteen, so
# that the costliest group (local-chordal on the chordal graphs) holds
# well over the ten operations beyond the tail percentile: the percentile
# stays inside the group when a few holed graphs cost more (Bron-Kerbosch
# and the hole search took 0.3 s on one).  Each new vertex joins one of
# the RECENT newest bags, which keeps degrees small: around a hub, the
# hole search and the radius-2 balls cost seconds (local-chordal on a
# random 500-vertex 3-tree: 3-5 s), longer than a pass should take.
CERTIFY_SHAPES = [
    (n + 10 * k, width, exact)
    for k in range(9)
    for n, width, exact in ((200, 2, True), (260, 4, False))
]
RECENT = 12
HOLES_ADDED = 20


def certify(rng: random.Random) -> Workload:
    inputs, ops = {}, []
    for i, (n, width, exact) in enumerate(CERTIFY_SHAPES):
        g, bags, tree = clique_tree_graph(rng, n, width, exact, recent=RECENT)
        names = g.names(rng)
        holed = add_holes(rng, g, HOLES_ADDED)
        gc, gh, td = f"c{i}.json", f"h{i}.json", f"td{i}.json"
        inputs[gc] = g.to_json(names, rng)
        inputs[gh] = holed.to_json(names, rng)
        inputs[td] = td_json(bags, tree, names)
        for name, chordal in ((gc, True), (gh, False)):
            tag = f"{'chordal' if chordal else 'holed'}{i}"
            expect = 0 if chordal else 1
            ops.append(Op(f"check-chordal/{tag}", ("check-chordal", "--in", "@" + name), expect))
            ops.append(Op(f"max-cliques/{tag}", ("max-cliques", "--in", "@" + name), 0))
            ops.append(
                Op(f"local-chordal/{tag}", ("local-chordal", "--in", "@" + name, "-r", "4"), expect)
            )
        ops.append(Op(f"verify-td/tree{i}", ("verify-td", "--in", "@" + gc, "--td", "@" + td), 0))
        if i == 0:
            # the newest vertex is only in the last bag: without it there,
            # it is uncovered and verify-td must say so
            corrupt = bags[:-1] + [bags[-1][:-1]]
            inputs["td0-corrupt.json"] = td_json(corrupt, tree, names)
            ops.append(
                Op("verify-td/corrupt0", ("verify-td", "--in", "@" + gc, "--td", "@td0-corrupt.json"), 1)
            )
    return Workload("certify", inputs, ops)


GENERATORS = {
    "chordal-random": chordal_random,
    "chordal-symmetric": chordal_symmetric,
    "periodic-fold": periodic_fold,
    "certify": certify,
}


def generate(workload: str, seed: int) -> Workload:
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))
