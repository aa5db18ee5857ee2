"""Separations of finite graphs and the clique-pair bottlenecks built on them.

A separation is an unordered pair {A, B} of vertex sets covering V with no
edge between the strict sides.  The minimum separators between two maximal
cliques of a chordal graph are read off its clique tree: they are the
labels of least size on the tree path between the two cliques.  Max flow
on the vertex-split digraph remains only for Menger duality on general
graphs (`min_clique_separator`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, FrozenSet, List, Sequence, Tuple

from .chordal import MaximalClique, clique_tree
from .errors import (
    CliquesEqual,
    EmptySide,
    ImproperSeparation,
    InvariantViolation,
    MengerViolation,
    NotAClique,
    NotASeparation,
    TooLarge,
)
from .graph import Graph

NESTED = "nested"
CROSSING = "crossing"
by_key = attrgetter("_key")  # sorts separations in their order without calling __lt__

# bottleneck_part assigns each free component of G - S to a side in every
# possible way, so it makes 2^f separations for f free components.
EXPANSION_BUDGET = 20


@dataclass(frozen=True, order=True)
class Separation:
    """Unordered separation stored with the lexicographically smaller side first."""

    sideA: FrozenSet[str] = field(compare=False)
    sideB: FrozenSet[str] = field(compare=False)
    _key: Tuple[Tuple[str, ...], Tuple[str, ...]] = field(init=False)
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        a, b = frozenset(self.sideA), frozenset(self.sideB)
        ka, kb = tuple(sorted(a)), tuple(sorted(b))
        if kb < ka:
            a, b, ka, kb = b, a, kb, ka
        object.__setattr__(self, "sideA", a)
        object.__setattr__(self, "sideB", b)
        object.__setattr__(self, "_key", (ka, kb))
        object.__setattr__(self, "_hash", hash((ka, kb)))

    def __hash__(self):
        return self._hash

    @property
    def separator(self) -> FrozenSet[str]:
        return self.sideA & self.sideB

    @property
    def order(self) -> int:
        return len(self.separator)

    def orientations(self):
        return ((self.sideA, self.sideB), (self.sideB, self.sideA))

    def apply(self, mapping: Dict[str, str]) -> "Separation":
        """Image under a vertex permutation."""
        return Separation(
            frozenset(mapping[v] for v in self.sideA),
            frozenset(mapping[v] for v in self.sideB),
        )

    def __repr__(self):
        a, b = self._key
        return f"Separation({{{','.join(a)}}}, {{{','.join(b)}}})"


@dataclass(frozen=True)
class SeparationClassification:
    order: int
    proper: bool
    tight: bool


@dataclass(frozen=True)
class Bottleneck:
    """All tight separations efficiently distinguishing a pair of maximal cliques."""

    order: int
    separations: Tuple[Separation, ...]


def validate_separation(g: Graph, s: Separation) -> None:
    if s.sideA | s.sideB != set(g.vertices):
        raise NotASeparation("sides do not cover the vertex set")
    for u in s.sideA - s.sideB:
        if g.neighbors(u) & (s.sideB - s.sideA):
            raise NotASeparation(f"edge crosses the separation at {u!r}")


def separation_from_separator(
    g: Graph,
    separator: FrozenSet[str],
    side_assignment: Dict[FrozenSet[str], str],
) -> Separation:
    """Assemble {A, B} from a separator and a component -> 'A'/'B' map."""
    comps = [c for c, _ in g.components_after_deletion(separator)]
    a = set(separator)
    b = set(separator)
    for comp in comps:
        try:
            side = side_assignment[comp]
        except KeyError:
            raise NotASeparation(f"component {sorted(comp)} unassigned") from None
        if side == "A":
            a |= comp
        elif side == "B":
            b |= comp
        else:
            raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    if not a or not b:
        raise EmptySide("a separation side is empty")
    s = Separation(frozenset(a), frozenset(b))
    validate_separation(g, s)
    return s


def relate(s1: Separation, s2: Separation) -> str:
    """'nested' iff some orientations satisfy A <= C and B >= D, else 'crossing'."""
    a, b, c, d = s1.sideA, s1.sideB, s2.sideA, s2.sideB
    if (a <= c and b >= d) or (a <= d and b >= c) or (b <= c and a >= d) or (b <= d and a >= c):
        return NESTED
    return CROSSING


def classify(g: Graph, s: Separation) -> SeparationClassification:
    strict_a = s.sideA - s.sideB
    strict_b = s.sideB - s.sideA
    proper = bool(strict_a) and bool(strict_b)
    tight = False
    if proper:
        comps = g.components_after_deletion(s.separator)
        full_in_a = any(full and comp <= strict_a for comp, full in comps)
        full_in_b = any(full and comp <= strict_b for comp, full in comps)
        tight = full_in_a and full_in_b
    return SeparationClassification(order=s.order, proper=proper, tight=tight)


# -- Menger machinery ---------------------------------------------------


class _VertexFlow:
    """Unit-vertex-capacity max flow between vertex sets on the split digraph.

    Nodes are ('in', v) / ('out', v) plus 's'/'t'; every vertex is
    deletable, so vertices in x & y are forced into every cut.
    """

    def __init__(self, g: Graph, x: FrozenSet[str], y: FrozenSet[str]):
        self.g = g
        inf = len(g) + 1
        self.cap: Dict[Tuple, Dict[Tuple, int]] = {}
        for v in g.vertices:
            self._add_edge(("in", v), ("out", v), 1)
            for u in g.neighbors(v):
                self._add_edge(("out", v), ("in", u), inf)
        for v in x:
            self._add_edge("s", ("in", v), inf)
        for v in y:
            self._add_edge(("out", v), "t", inf)
        self.initial = {a: dict(caps) for a, caps in self.cap.items()}
        self.value = 0
        self._run()

    def _add_edge(self, a, b, c):
        self.cap.setdefault(a, {})[b] = self.cap.get(a, {}).get(b, 0) + c
        self.cap.setdefault(b, {}).setdefault(a, 0)

    def _residual_search(self) -> Dict:
        """Predecessors of the nodes reached from s in the residual digraph,
        breadth first, stopping at t."""
        prev = {"s": None}
        queue = deque(["s"])
        while queue:
            a = queue.popleft()
            if a == "t":
                break
            for b, c in self.cap[a].items():
                if c > 0 and b not in prev:
                    prev[b] = a
                    queue.append(b)
        return prev

    def _run(self):
        while "t" in (prev := self._residual_search()):
            b = "t"
            while prev[b] is not None:
                a = prev[b]
                self.cap[a][b] -= 1
                self.cap[b][a] += 1
                b = a
            self.value += 1

    def min_separator(self) -> FrozenSet[str]:
        seen = self._residual_search()  # t is out of reach after the flow
        return frozenset(
            v for v in self.g.vertices if ("in", v) in seen and ("out", v) not in seen
        )

    def disjoint_paths(self) -> List[List[str]]:
        """Decompose the flow into vertex-disjoint x-y paths (as vertex lists)."""
        flow_out: Dict[Tuple, List[Tuple]] = {}
        for a, caps in self.initial.items():
            for b, orig in caps.items():
                if self.cap[a][b] < orig:
                    flow_out.setdefault(a, []).extend([b] * (orig - self.cap[a][b]))
        paths = []
        for _ in range(self.value):
            path = []
            node = flow_out["s"].pop()
            while node != "t":
                kind, v = node
                if kind == "in":
                    path.append(v)
                node = flow_out[node].pop()
            paths.append(path)
        return paths


def min_clique_separator(g: Graph, x: Sequence[str], y: Sequence[str]):
    """Minimum X-Y separator via max flow; Menger-dual disjoint paths returned.

    Returns (k, separator, paths); vertices in x & y appear as
    single-vertex paths and lie in every separator.
    """
    xf, yf = frozenset(x), frozenset(y)
    if not xf or not yf:
        raise ValueError("x and y must be nonempty")
    flow = _VertexFlow(g, xf, yf)
    sep = flow.min_separator()
    paths = flow.disjoint_paths()
    if not len(paths) == flow.value == len(sep):
        raise MengerViolation(
            f"flow {flow.value}, cut {len(sep)} and {len(paths)} disjoint paths disagree"
        )
    return flow.value, sep, paths


def clique_min_separators(
    g: Graph, x: FrozenSet[str], y: FrozenSet[str]
) -> List[FrozenSet[str]]:
    """All minimum X-Y separators of two distinct maximal cliques of a chordal graph.

    They are the distinct labels of least size on the clique-tree path
    between X and Y.  Every label on that path contains X & Y and separates
    X from Y (running intersection).  A minimum separator S is a minimal
    separator whose full components hold X - S and Y - S, so some path
    label lies inside S, and by minimality equals it.
    """
    tree = clique_tree(g)
    try:
        i, j = tree.index[x], tree.index[y]
    except KeyError:
        raise NotAClique("both sets must be maximal cliques of the graph") from None
    if i == j:
        raise CliquesEqual("the two maximal cliques must be distinct")
    labels = tree.path_labels(i, j)
    k = min(len(s) for s in labels)
    least = {s for s in labels if len(s) == k}
    return sorted(least, key=lambda s: sorted(map(g.key, s)))


# -- bottlenecks --------------------------------------------------------


def bottleneck_part(g: Graph, sep: FrozenSet[str], u: str, v: str) -> Tuple[Separation, ...]:
    """The part (S, C_u, C_v) of a bottleneck: every separation, sorted, with
    separator S = sep and the components C_u, C_v of G - S that hold u and v
    on opposite sides.  Each other component goes to either side, so a part
    has 2^f members for f free components.  C_u and C_v must be full, so
    every member is tight.  Each graph builds each distinct separation once
    per separator and caches it, keyed by the lesser of the bitmasks of the
    components on its two sides; a part is rebuilt from those separations.
    """
    comps = g.components_after_deletion(sep)
    known = g._bottleneck_cache.setdefault(sep, {})
    i, j = sorted(n for n, (comp, _) in enumerate(comps) for w in (u, v) if w in comp)
    if i == j:
        raise NotASeparation(f"{g.sorted(sep)} fails to separate {u!r} from {v!r}")
    if not (comps[i][1] and comps[j][1]):
        raise InvariantViolation(f"minimum separator {g.sorted(sep)} is not tight")
    free = [n for n in range(len(comps)) if n != i and n != j]
    if len(free) > EXPANSION_BUDGET:
        raise TooLarge(
            f"bottleneck expansion budget is {EXPANSION_BUDGET} free "
            f"components, separator {g.sorted(sep)} leaves {len(free)}"
        )
    masks = [1 << i]
    for n in free:
        masks += [m | 1 << n for m in masks]
    full = (1 << len(comps)) - 1
    found = []
    for m in masks:
        m = min(m, full ^ m)
        s = known.get(m)
        if s is None:
            a, b = set(sep), set(sep)
            for n, (comp, _) in enumerate(comps):
                (a if m >> n & 1 else b).update(comp)
            s = known[m] = Separation(a, b)
        found.append(s)
    return tuple(sorted(found, key=by_key))


def beta(g: Graph, x: MaximalClique, y: MaximalClique, check: bool = True) -> Bottleneck:
    """The bottleneck of two distinct maximal cliques of a chordal graph.

    All tight separations {A, B} of minimum order with X <= A and Y <= B;
    the order is strictly below min(|X|, |Y|).  A graph that is not chordal
    raises NotChordal; ``check`` no longer changes the work done.  It is the
    union of one `bottleneck_part` per minimum separator S, forcing apart
    the components that hold X - S and Y - S.  They are full: else S less a
    vertex would still separate.
    """
    xs, ys = x.vertices, y.vertices
    seps = clique_min_separators(g, xs, ys)
    k = len(seps[0])
    if k >= min(len(xs), len(ys)):
        raise ImproperSeparation(f"bottleneck order {k} is not below both clique sizes")
    parts = [bottleneck_part(g, s, next(iter(xs - s)), next(iter(ys - s))) for s in seps]
    uniq = parts[0] if len(parts) == 1 else tuple(sorted(set().union(*parts), key=by_key))
    return Bottleneck(order=k, separations=uniq)
