"""Periodic covers presented by voltage graphs over free groups.

A voltage presentation assigns free-group words to the co-tree edges of a
finite base graph; the derived cover is explored through finite windows
of bounded word length.  On chordal windows the canonical nested set is
computed orbit-wise and folded into a graph-decomposition of the base.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .chordal import clique_tree, is_r_locally_chordal, maximal_cliques
from .errors import (
    ActionMismatch,
    BallNotPreserved,
    InvariantViolation,
    LiftCrossesBoundary,
    NotAClique,
    NotChordal,
    PreconditionViolated,
    WindowNotChordal,
)
from .graph import Graph, _json_fields, _json_list, _json_pair
from .nested import NestedSetLevels, construct_N
from .separations import Separation, by_key
from .treedec import (
    TreeDecomposition,
    _bags_are_maximal_cliques,
    _uncovered,
    build_td_from_nested,
    classify_td,
)

# r_acyclic_check tries every set of at most r base vertices when there are
# at most this many, and samples this many otherwise.
R_ACYCLIC_BUDGET = 200_000

# -- free-group words ---------------------------------------------------

Word = Tuple[Tuple[str, int], ...]

IDENTITY: Word = ()


def word_mul(a: Word, b: Word) -> Word:
    """Concatenate and freely reduce."""
    out = list(a)
    for letter in b:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def word_inv(a: Word) -> Word:
    return tuple((g, -e) for g, e in reversed(a))


def parse_word(s: str) -> Word:
    """Parse 'z1 z2^-1' style words; '1' or '' is the identity."""
    s = s.strip()
    if s in ("", "1"):
        return IDENTITY
    letters: List[Tuple[str, int]] = []
    for token in s.split():
        if "^" in token:
            name, exp = token.split("^", 1)
            e = int(exp)
        else:
            name, e = token, 1
        if not name or e == 0:
            raise ValueError(f"malformed word letter {token!r}")
        sign = 1 if e > 0 else -1
        letters.extend([(name, sign)] * abs(e))
    return word_mul(IDENTITY, tuple(letters))


def word_str(a: Word) -> str:
    if not a:
        return "1"
    return " ".join(g if e == 1 else f"{g}^-1" for g, e in a)


# -- presentations ------------------------------------------------------


@dataclass(frozen=True)
class VoltagePresentation:
    """Base graph with free-group voltages on its co-tree edges."""

    base: Graph
    tree_edges: FrozenSet[FrozenSet[str]]
    voltages: Dict[Tuple[str, str], Word] = field(default_factory=dict)

    def __post_init__(self):
        b = self.base
        tree = Graph(b.vertices, [tuple(sorted(e, key=b.key)) for e in self.tree_edges])
        if not tree.is_connected() or tree.edge_count() != len(b) - 1:
            raise PreconditionViolated("tree_edges must form a spanning tree")
        for e in self.tree_edges:
            u, v = tuple(e)
            if not b.has_edge(u, v):
                raise PreconditionViolated(f"tree edge {sorted(e)} is not a base edge")
        full = dict(self.voltages)
        for (u, v), w in list(full.items()):
            if not b.has_edge(u, v):
                raise PreconditionViolated(f"voltage on non-edge ({u!r}, {v!r})")
            rev = full.get((v, u))
            if rev is None:
                full[(v, u)] = word_inv(w)
            elif rev != word_inv(w):
                raise PreconditionViolated(f"voltage on ({v!r}, {u!r}) is not the inverse")
        for u, v in b.edges():
            if frozenset((u, v)) in self.tree_edges:
                if full.get((u, v), IDENTITY) != IDENTITY:
                    raise PreconditionViolated("tree edges must carry the identity")
                full[(u, v)] = IDENTITY
                full[(v, u)] = IDENTITY
            else:
                full.setdefault((u, v), IDENTITY)
                full.setdefault((v, u), IDENTITY)
        object.__setattr__(self, "voltages", full)

    def generators(self) -> List[str]:
        return sorted({g for w in self.voltages.values() for g, _ in w})

    def to_json_dict(self) -> dict:
        b = self.base
        return {
            "base": b.to_json_dict(),
            "tree_edges": [sorted(e, key=b.key) for e in self.tree_edges],
            "voltages": [
                {"edge": [u, v], "word": word_str(self.voltages[(u, v)])}
                for u, v in b.edges() if frozenset((u, v)) not in self.tree_edges
            ],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "VoltagePresentation":
        _json_fields(data, "voltage JSON", ("base", "tree_edges", "voltages"), ("base",))
        base = Graph.from_json_dict(data["base"])
        edges = _json_list(data.get("tree_edges", []), "voltage JSON 'tree_edges'")
        tree_edges = frozenset(frozenset(_json_pair(e, "a voltage tree edge")) for e in edges)
        voltages = {}
        for item in _json_list(data.get("voltages", []), "voltage JSON 'voltages'"):
            _json_fields(item, "voltage entry", ("edge", "word"), ("edge", "word"))
            word = item["word"]
            if not isinstance(word, str):
                raise ValueError(f"voltage entry 'word' must be a string, got {word!r}")
            voltages[_json_pair(item["edge"], "voltage entry 'edge'")] = parse_word(word)
        return VoltagePresentation(base=base, tree_edges=tree_edges, voltages=voltages)


# -- derived windows ----------------------------------------------------


def _vertex_id(v: str, w: Word) -> str:
    return f"{v}@{word_str(w)}"


@dataclass(frozen=True)
class CoverWindow:
    """Induced subgraph of the derived cover on word length <= radius."""

    radius: int
    window: Graph
    base_of: Dict[str, str]
    word_of: Dict[str, Word]
    step: int  # the longest voltage's length, at least 1

    def safe(self, x: str, depth: int) -> bool:
        """Is x at least `depth` voltage-steps away from the word-length cap?"""
        return len(self.word_of[x]) <= self.radius - depth * self.step

    def translate(self, gamma: Word, x: str) -> Optional[str]:
        """Deck action: left multiplication on the word coordinate."""
        w = word_mul(gamma, self.word_of[x])
        if len(w) > self.radius:
            return None
        return _vertex_id(self.base_of[x], w)


def _all_words(generators: Sequence[str], max_len: int) -> List[Word]:
    words = [IDENTITY]
    frontier = [IDENTITY]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for g in generators:
                for e in (1, -1):
                    w2 = word_mul(w, ((g, e),))
                    if len(w2) == len(w) + 1:
                        nxt.append(w2)
        words.extend(nxt)
        frontier = nxt
    return words


def derive_window(pres: VoltagePresentation, L: int) -> CoverWindow:
    """Materialize the derived cover on group words of length <= L.

    Vertices are (base vertex, word); the edge over a base edge uv with
    voltage a joins (u, w) and (v, w*a); the deck group acts by left
    multiplication, the covering map is the first projection.
    """
    if L < 0:
        raise ValueError("L must be nonnegative")
    gens = pres.generators()
    words = _all_words(gens, L)
    base_of, word_of = {}, {}  # keyed by the vertices in window order
    for w in words:
        for v in pres.base.vertices:
            x = _vertex_id(v, w)
            base_of[x] = v
            word_of[x] = w
    edges = []
    for u, v in pres.base.edges():
        a = pres.voltages[(u, v)]
        for w in words:
            w2 = word_mul(w, a)
            if len(w2) <= L:
                edges.append((_vertex_id(u, w), _vertex_id(v, w2)))
    return CoverWindow(
        radius=L,
        window=Graph(base_of, edges),
        base_of=base_of,
        word_of=word_of,
        step=max([1, *map(len, pres.voltages.values())]),
    )


# -- cover verification -------------------------------------------------


def verify_cover(pres: VoltagePresentation, r: int, L: int) -> dict:
    """Check the covering, ball-preservation, free-clique-action and fiber
    properties on the window interior.

    Raises BallNotPreserved with the failing center when the projection
    does not restrict to an isomorphism on some r/2-ball; other checks
    report their results.
    """
    if L < r + 2:
        raise PreconditionViolated("L must be at least r + 2")
    win = derive_window(pres, L)
    g = pres.base
    report = {
        "covering": True,
        "ball_preserving": True,
        "free_on_cliques": True,
        "fiber_distances": True,
        "checked_centers": 0,
        "window": win,
    }

    # (a) local bijection on incident edges
    for x in win.window.vertices:
        if not win.safe(x, 1):
            continue
        images = [win.base_of[y] for y in win.window.neighbors(x)]
        if sorted(images) != sorted(g.neighbors(win.base_of[x])):
            report["covering"] = False
            report.setdefault("covering_witness", x)

    # (b) r/2-ball preservation: a bijection of the two balls that maps the
    # neighbours of each ball vertex in its ball onto its image's in the other
    if r < 0:
        raise ValueError("radius2 must be nonnegative")
    k = r // 2
    for x in win.window.vertices:
        if not win.safe(x, k):
            continue
        report["checked_centers"] += 1
        up = win.window.distances_from(x, k)
        down = set(g.distances_from(win.base_of[x], k))
        images = {win.base_of[y] for y in up}
        if len(images) != len(up) or images != down or any(
            {win.base_of[z] for z in win.window.neighbors(y) if z in up}
            != g.neighbors(win.base_of[y]) & down
            for y in up
        ):
            raise BallNotPreserved(x)

    # (c) free action on cliques: K and gamma K are disjoint
    gammas = [w for w in _all_words(pres.generators(), 2) if w != IDENTITY]
    for c in maximal_cliques(win.window, require_chordal=False):
        kq = c.vertices
        if not all(win.safe(x, 2) for x in kq):
            continue
        for gamma in gammas:
            image = {win.translate(gamma, x) for x in kq}
            if None in image:
                continue
            if image & set(kq):
                report["free_on_cliques"] = False
                report.setdefault("free_witness", (sorted(kq), word_str(gamma)))

    # (d) fibers pairwise at distance > 2
    fibers: Dict[str, List[str]] = {}
    for x in win.window.vertices:
        fibers.setdefault(win.base_of[x], []).append(x)
    for v, fib in fibers.items():
        for x, y in itertools.combinations(fib, 2):
            if not (win.safe(x, 1) and win.safe(y, 1)):
                continue
            if win.window.has_edge(x, y) or win.window.neighbors(x) & win.window.neighbors(y):
                report["fiber_distances"] = False
                report.setdefault("fiber_witness", (x, y))
    checks = ("covering", "ball_preserving", "free_on_cliques", "fiber_distances")
    report["ok"] = all(report[key] for key in checks)
    return report


# -- clique lifting and projection --------------------------------------


def lift_project_clique(
    pres: VoltagePresentation,
    window: CoverWindow,
    k: Iterable[str],
    direction: str,
):
    """Project a window clique to the base, or enumerate all its window lifts.

    Projection returns the image clique and checks bijectivity; lifting
    returns every full lift inside the window (pairwise disjoint), raising
    LiftCrossesBoundary when a partial lift leaves the window.
    """
    kf = list(dict.fromkeys(k))
    if direction == "project":
        if not window.window.is_clique(kf):
            raise NotAClique(f"{sorted(kf)} is not a window clique")
        image = [window.base_of[x] for x in kf]
        if len(set(image)) != len(kf):
            raise InvariantViolation("projection not injective on a clique")
        if not pres.base.is_clique(image):
            raise InvariantViolation("projection of a clique is not a clique")
        return frozenset(image)
    if direction != "lift":
        raise ValueError("direction must be 'lift' or 'project'")
    if not pres.base.is_clique(kf):
        raise NotAClique(f"{sorted(kf)} is not a base clique")
    v0 = kf[0]
    lifts = []
    for x0 in window.window.vertices:
        if window.base_of[x0] != v0:
            continue
        lift = {v0: x0}
        blocked = False
        for u in kf[1:]:
            cands = [y for y in window.window.neighbors(x0) if window.base_of[y] == u]
            if len(cands) != 1:
                if not window.safe(x0, 1):
                    blocked = True
                    break
                raise LiftCrossesBoundary(f"no unique lift of {u!r} adjacent to {x0!r}")
            lift[u] = cands[0]
        if blocked:
            continue
        members = frozenset(lift.values())
        if window.window.is_clique(members):
            lifts.append(members)
        elif all(window.safe(x, 1) for x in members):
            raise NotAClique(f"lift {sorted(members)} is not a clique in the window")
    if any(a & b for a, b in itertools.combinations(lifts, 2)):
        raise InvariantViolation("distinct lifts of a clique intersect")
    return lifts


# -- orbit-wise nested sets on periodic covers --------------------------


def _pictures(win: CoverWindow, anchors: Iterable[str], sets: Sequence[Iterable[str]]):
    """The sets as seen from each anchor: translated by the deck element
    that takes the anchor's word to the identity, each as its sorted
    (base vertex, word) pairs.  The least picture over a deck-invariant
    choice of anchors is a deck-orbit key.
    """
    for m in anchors:
        t = word_inv(win.word_of[m])
        yield tuple(
            tuple(sorted((win.base_of[x], word_mul(t, win.word_of[x])) for x in xs))
            for xs in sets
        )


def _separation_signature(win: CoverWindow, s: Separation):
    """Deck-orbit key of a separation from its separator's local picture."""
    sep = s.separator
    nbrs = set().union(*(win.window.neighbors(x) for x in sep)) - sep
    sides = (nbrs & (s.sideA - s.sideB), nbrs & (s.sideB - s.sideA))
    return min((p, tuple(sorted(pa))) for p, *pa in _pictures(win, sep, (sep, *sides)))


def _window_nested_set(pres: VoltagePresentation, L: int):
    win = derive_window(pres, L)
    try:
        clique_tree(win.window)  # construct_N reuses the cached tree
    except NotChordal as exc:
        raise WindowNotChordal(L, exc.hole) from None
    n = construct_N(win.window)
    return win, n


def periodic_N(pres: VoltagePresentation, L: int):
    """Orbit representatives of the canonical nested set of the cover.

    The construction runs on the window; separations whose separator is
    too close to the boundary are discarded, the rest are grouped into
    deck orbits by a translation-normalized local signature.  Stability
    is the agreement of the signature sets at L and L + 2.
    """
    if len(pres.generators()) > 2:
        raise PreconditionViolated("deck groups of rank > 2 are not supported")
    win, n = _window_nested_set(pres, L)

    def interior_signatures(w: CoverWindow, nested):
        sigs = {}
        for s in sorted(nested.union, key=by_key):
            if all(w.safe(x, 2) for x in s.separator):
                sig = _separation_signature(w, s)
                if sig not in sigs:
                    sigs[sig] = s
        return sigs

    sigs = interior_signatures(win, n)
    if pres.generators():
        win2, n2 = _window_nested_set(pres, L + 2)
        sigs2 = interior_signatures(win2, n2)
        stable = set(sigs) == set(sigs2)
    else:
        stable = True
    reps = [sigs[k] for k in sorted(sigs)]
    return reps, stable


# -- graph-decompositions and folding -----------------------------------


@dataclass(frozen=True)
class GraphDecomposition:
    """Bags arranged along a model graph, with one co-part per vertex."""

    model: Graph
    bags: Dict[str, FrozenSet[str]]
    coparts: Dict[str, Graph]

    def to_json_dict(self) -> dict:
        return {
            "nodes": [{"id": h, "bag": sorted(self.bags[h])} for h in self.model.vertices],
            "edges": [list(e) for e in self.model.edges()],
            "coparts": {
                v: {"nodes": list(sub.vertices), "edges": [list(e) for e in sub.edges()]}
                for v, sub in self.coparts.items()
            },
        }


def fold(
    pres: VoltagePresentation, win: CoverWindow, td: TreeDecomposition
) -> GraphDecomposition:
    """Quotient a deck-invariant tree-decomposition of the window by the
    deck group.

    Model nodes are deck orbits of interior tree nodes, edges come from
    interior tree edges, bags are the projected bags, and each vertex's
    co-part is the projection of the node set of its most interior lift.
    """
    orbit_key = {
        t: min(_pictures(win, b, (b,)))
        for t, b in td.bags.items()
        if all(win.safe(x, 2) for x in b)
    }
    names = {k: f"h{i}" for i, k in enumerate(sorted(set(orbit_key.values())))}
    name = {t: names[k] for t, k in orbit_key.items()}

    bags: Dict[str, FrozenSet[str]] = {}
    for t, h in name.items():
        projected = frozenset(win.base_of[x] for x in td.bags[t])
        if bags.setdefault(h, projected) != projected:
            raise ActionMismatch(f"orbit {h} projects to different bags; enlarge the window")

    def project(edges):
        out = set()
        for t1, t2 in edges:
            if name[t1] == name[t2]:
                raise ActionMismatch("tree edge folds to a loop; enlarge the window")
            out.add(tuple(sorted((name[t1], name[t2]))))
        return sorted(out)

    interior_edges = [(a, b) for a, b in td.tree.edges() if a in name and b in name]
    model = Graph(names.values(), project(interior_edges))
    coparts: Dict[str, Graph] = {}
    for v in pres.base.vertices:
        x0 = _vertex_id(v, IDENTITY)  # every window holds it; its word is the shortest
        t_nodes = {t for t, b in td.bags.items() if x0 in b}
        if not t_nodes <= name.keys():
            raise ActionMismatch(
                f"the lift of {v!r} touches non-interior tree nodes; enlarge the window"
            )
        sub_edges = [(a, b) for a, b in interior_edges if a in t_nodes and b in t_nodes]
        sub_nodes = sorted({name[t] for t in t_nodes}, key=model.key)
        coparts[v] = Graph(sub_nodes, project(sub_edges))
    return GraphDecomposition(model=model, bags=bags, coparts=coparts)


@dataclass(frozen=True)
class FoldResult:
    """Every stage of one fold: the window, its canonical nested set and
    tree-decomposition, and the graph-decomposition of the base."""

    window: CoverWindow
    nested: NestedSetLevels
    td: TreeDecomposition
    gd: GraphDecomposition


def fold_pipeline(pres: VoltagePresentation, L: int) -> FoldResult:
    """Derive the window of radius L, build its canonical tree-decomposition
    and fold it into a graph-decomposition of the base.

    Raises WindowNotChordal, carrying the hole, when the window is not
    chordal.
    """
    win, n = _window_nested_set(pres, L)
    td = build_td_from_nested(win.window, n.union)
    return FoldResult(window=win, nested=n, td=td, gd=fold(pres, win, td))


def verify_graph_decomposition(g: Graph, gd: GraphDecomposition) -> dict:
    """Coverage of vertices and edges, connected co-parts inside the right
    model subgraphs, and the into-cliques flags."""
    bag_list = list(gd.bags.values())
    reach = {}  # the union of the bags holding each vertex
    for b in bag_list:
        reach.update((v, reach.get(v, frozenset()) | b) for v in b)
    uncovered_vertices, uncovered_edges = _uncovered(g, reach)
    report = {
        "h1_uncovered_vertices": uncovered_vertices,
        "h1_uncovered_edges": uncovered_edges,
        "h2_failures": [],
        "into_cliques": all(g.is_clique(b) for b in bag_list),
    }
    for v in g.vertices:
        sub = gd.coparts.get(v)
        if sub is None or len(sub) == 0:
            report["h2_failures"].append((v, "missing co-part"))
            continue
        w_v = {h for h in gd.model.vertices if v in gd.bags[h]}
        if not set(sub.vertices) <= w_v:
            report["h2_failures"].append((v, "co-part node outside W_v"))
        if not all(gd.model.has_edge(a, b) for a, b in sub.edges()):
            report["h2_failures"].append((v, "co-part edge missing from model"))
        if not sub.is_connected():
            report["h2_failures"].append((v, "co-part disconnected"))
    into_max = report["into_cliques"] and _bags_are_maximal_cliques(g, bag_list)
    report["into_maximal_cliques"] = into_max
    report["ok"] = not (uncovered_vertices or uncovered_edges or report["h2_failures"])
    return report


def r_acyclic_check(g: Graph, gd: GraphDecomposition, r: int, seed: int = 0):
    """Is the union of every <= r co-parts acyclic?

    Exhaustive over vertex subsets when their count fits R_ACYCLIC_BUDGET,
    else that many subsets sampled with the given seed; the witness is
    (X, cycle) on failure.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    vs = list(g.vertices)
    missing = [v for v in vs if v not in gd.coparts]
    if missing:
        raise PreconditionViolated(f"no co-part for the vertices {missing}")
    total = sum(math.comb(len(vs), k) for k in range(1, min(r, len(vs)) + 1))
    subsets: Iterable[Tuple[str, ...]]
    exhaustive = total <= R_ACYCLIC_BUDGET
    if exhaustive:
        subsets = itertools.chain.from_iterable(
            itertools.combinations(vs, k) for k in range(1, min(r, len(vs)) + 1)
        )
    else:
        rng = random.Random(seed)
        subsets = (
            tuple(rng.sample(vs, rng.randint(1, min(r, len(vs)))))
            for _ in range(R_ACYCLIC_BUDGET)
        )
    checked = 0
    for x in subsets:
        checked += 1
        union: Dict[str, Set[str]] = {}
        for v in x:
            sub = gd.coparts[v]
            for h in sub.vertices:
                union.setdefault(h, set()).update(sub.neighbors(h))
        cycle = _find_cycle(union)
        if cycle is not None:
            return False, {"X": list(x), "cycle": cycle, "exhaustive": exhaustive}
    return True, {"checked": checked, "exhaustive": exhaustive}


def _find_cycle(adj: Dict[str, Set[str]]) -> Optional[List[str]]:
    """A cycle of the graph given by neighbour sets, or None; vertices and
    neighbours are visited in name order."""
    parent = {}  # of every vertex reached so far, None at the roots
    for root in sorted(adj):
        if root in parent:
            continue
        parent[root] = None
        stack = [root]
        while stack:
            u = stack.pop()
            for w in sorted(adj[u]):
                if w not in parent:
                    parent[w] = u
                    stack.append(w)
                elif parent[u] != w:
                    # close the cycle through the two tree paths to the root
                    pu = _root_path(parent, u)
                    pw = _root_path(parent, w)
                    common = set(pu) & set(pw)
                    cut_u = next(i for i, a in enumerate(pu) if a in common)
                    cut_w = next(i for i, a in enumerate(pw) if a in common)
                    return pu[: cut_u + 1] + pw[:cut_w][::-1]
    return None


def _root_path(parent, v):
    path = []
    while v is not None:
        path.append(v)
        v = parent[v]
    return path


# -- combined local-chordality / folding pipeline -----------------------


def theorem3_pipeline(g: Graph, r: int, cover: VoltagePresentation, L: int) -> dict:
    """Compare r-local chordality of g with the folded decomposition being
    into cliques; the two verdicts must agree."""
    locally_chordal, witness = is_r_locally_chordal(g, r)
    report = {
        "r": r,
        "locally_chordal": locally_chordal,
        "local_witness": witness,
        "window_chordal": None,
        "into_cliques": False,
        "decomposition": None,
        "window_td_into_cliques": None,
    }
    try:
        res = fold_pipeline(cover, L)
    except WindowNotChordal:
        report["window_chordal"] = False
    else:
        report["window_chordal"] = True
        cls = classify_td(res.window.window, res.td)
        report["window_td_into_cliques"] = cls.into_cliques
        vr = verify_graph_decomposition(g, res.gd)
        report["decomposition"] = res.gd
        report["gd_report"] = vr
        report["into_cliques"] = bool(vr["ok"] and vr["into_cliques"])
    report["consistent"] = report["locally_chordal"] == report["into_cliques"]
    return report
