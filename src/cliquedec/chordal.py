"""Chordality recognition and the clique/separator structure built on it.

Recognition runs maximum-cardinality search and verifies the perfect
elimination property; on failure an induced cycle of length >= 4 is
extracted as a witness.  On success the same ordering yields a clique tree
(Blair & Peyton, *An introduction to chordal graphs and clique trees*,
1993), which is cached on the graph: its nodes are the maximal cliques and
its edge labels are the minimal separators.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .errors import InvariantViolation, NotChordal
from .graph import Graph


@dataclass(frozen=True)
class EliminationOrdering:
    """A vertex permutation; valid iff every vertex's later neighbors form a clique."""

    order: Tuple[str, ...]


@dataclass(frozen=True)
class MaximalClique:
    vertices: FrozenSet[str]


@dataclass(frozen=True)
class CliqueTree:
    """A clique tree of a chordal graph.

    Node i is the maximal clique ``cliques[i]`` (canonical order); it hangs
    from ``parent[i]`` (-1 at the root) at ``depth[i]``, and ``label[i]`` is
    ``cliques[i] & cliques[parent[i]]`` (empty at the root).  The trees of
    the components of a disconnected graph hang from the root by empty
    labels.  ``index`` maps each clique to its node.
    """

    cliques: Tuple[FrozenSet[str], ...]
    parent: Tuple[int, ...]
    depth: Tuple[int, ...]
    label: Tuple[FrozenSet[str], ...]
    index: Dict[FrozenSet[str], int] = field(compare=False)

    def path_labels(self, i: int, j: int) -> List[FrozenSet[str]]:
        """Labels of the edges on the tree path between nodes i and j."""
        parent, depth, label = self.parent, self.depth, self.label
        out = []
        while depth[i] > depth[j]:
            out.append(label[i])
            i = parent[i]
        while depth[j] > depth[i]:
            out.append(label[j])
            j = parent[j]
        while i != j:
            out.append(label[i])
            out.append(label[j])
            i, j = parent[i], parent[j]
        return out


def mcs_order(g: Graph, within: Optional[Iterable[str]] = None) -> List[str]:
    """Maximum-cardinality search order; its reverse is a PEO iff g is chordal.

    Highest weight first, ties to the canonical order, from a heap with lazy
    deletion: O((n + m) log n) (Tarjan & Yannakakis, SIAM J. Comput. 1984).
    With ``within``, the search runs on the subgraph those vertices induce,
    read off g's adjacency; g's keys order them as that subgraph's would.
    """
    key, neighbors, push, pop = g.key, g.neighbors, heapq.heappush, heapq.heappop
    weight = dict.fromkeys(g.vertices if within is None else within, 0)
    heap = sorted((0, key(v), v) for v in weight)  # a sorted list is a heap
    visited = []
    while heap:
        w, _, v = pop(heap)
        if -w != weight[v]:
            continue  # v was visited (None), or its weight has since risen
        weight[v] = None
        visited.append(v)
        for u in neighbors(v):
            wu = weight.get(u)
            if wu is not None:  # None: visited, or not within
                weight[u] = wu + 1
                push(heap, (-wu - 1, key(u), u))
    return visited


def _verify_peo(g: Graph, order: List[str]) -> Optional[Tuple[str, str, str]]:
    """Return (v, p, w) with p, w nonadjacent later neighbours of v, or None.

    The parent test, O(n + m): the order is a PEO iff every later neighbour
    of each v is adjacent to p, the earliest (Rose, Tarjan & Lueker, 1976).
    An order of some of g's vertices is tested on the subgraph they induce.
    """
    pos = {v: i for i, v in enumerate(order)}
    at = pos.get
    for i, v in enumerate(order):
        later = [u for u in g.neighbors(v) if at(u, -1) > i]
        if later:
            p = min(later, key=at)
            adjacent = g.neighbors(p)
            for w in later:
                if w != p and w not in adjacent:
                    return (v, p, w)
    return None


def _find_hole(g: Graph) -> Optional[List[str]]:
    """Find an induced cycle of length >= 4, or None if chordal.

    Scans induced paths u-v-w and closes them through G - (N[v] \\ {u, w});
    a shortest such connection is chordless, so the closed cycle is induced.
    Each BFS runs on g's neighbour lists, sorted once, skipping the blocked.
    """
    nbrs = {v: g.sorted(g.neighbors(v)) for v in g.vertices}
    for v in g.vertices:
        closed = g.neighbors(v) | {v}
        for i, u in enumerate(nbrs[v]):
            for w in nbrs[v][i + 1 :]:
                if not g.has_edge(u, w):
                    path = _shortest_path(nbrs, closed - {u, w}, u, w)
                    if path is not None:
                        return [v] + path
    return None


def _shortest_path(
    nbrs: Dict[str, List[str]], blocked: Iterable[str], u: str, w: str
) -> Optional[List[str]]:
    """The shortest u-w path that a BFS over the sorted neighbour lists nbrs
    finds first, avoiding the blocked vertices; None if there is none."""
    prev = dict.fromkeys(blocked)  # seen, but never dequeued or on a path
    prev[u] = None
    queue = deque([u])
    while queue:
        x = queue.popleft()
        if x == w:
            path = []
            while x is not None:
                path.append(x)
                x = prev[x]
            return path[::-1]
        for y in nbrs[x]:
            if y not in prev:
                prev[y] = x
                queue.append(y)
    return None


def is_chordal(g: Graph):
    """Chordality test with certificate.

    Returns (True, EliminationOrdering) or (False, hole) where hole is an
    induced cycle of length >= 4 as a vertex list.
    """
    order = mcs_order(g)[::-1]
    if _verify_peo(g, order) is None:
        return True, EliminationOrdering(tuple(order))
    hole = _find_hole(g)
    if hole is None:
        raise InvariantViolation("PEO verification failed but no hole found")
    return False, hole


def perfect_elimination_ordering(g: Graph) -> EliminationOrdering:
    ok, cert = is_chordal(g)
    if not ok:
        raise NotChordal(cert)
    return cert


def clique_tree(g: Graph) -> CliqueTree:
    """The clique tree of a chordal graph, built once and cached on g.

    Raises NotChordal with a hole otherwise.
    """
    tree = _clique_tree_if_chordal(g)
    if tree is None:
        raise NotChordal(is_chordal(g)[1])
    return tree


def _clique_tree_if_chordal(g: Graph) -> Optional[CliqueTree]:
    """The cached clique tree of g, built on first use; None if g is not chordal."""
    if g._clique_tree is None:
        order = mcs_order(g)[::-1]
        if _verify_peo(g, order) is not None:
            return None
        g._clique_tree = _build_clique_tree(g, tuple(order))
    return g._clique_tree


def _build_clique_tree(g: Graph, peo: Tuple[str, ...]) -> CliqueTree:
    """Blair & Peyton's clique tree, read off a perfect elimination ordering.

    Vertices are visited in reverse (maximum-cardinality search) order.  A
    vertex whose earlier-visited neighbours fill the clique of the most
    recently visited one joins that clique; otherwise it opens a new
    clique, a child of that one, labelled by those neighbours.
    """
    pos = {v: i for i, v in enumerate(peo)}
    members: List[set] = []
    parent: List[int] = []
    depth: List[int] = []
    label: List[FrozenSet[str]] = []
    home: Dict[str, int] = {}
    for v in reversed(peo):
        later = frozenset(u for u in g.neighbors(v) if pos[u] > pos[v])
        if later:
            # later <= members[p], so equal sizes mean equal sets
            p = home[min(later, key=pos.__getitem__)]
            if len(later) == len(members[p]):
                members[p].add(v)
                home[v] = p
                continue
        else:
            p = 0 if members else -1  # a new component hangs from the root
        home[v] = len(members)
        members.append({v} | later)
        parent.append(p)
        depth.append(depth[p] + 1 if p >= 0 else 0)
        label.append(later)
    cliques = [frozenset(m) for m in members]
    order = sorted(range(len(cliques)), key=lambda i: sorted(map(g.key, cliques[i])))
    new = {old: i for i, old in enumerate(order)}
    return CliqueTree(
        cliques=tuple(cliques[i] for i in order),
        parent=tuple(new.get(parent[i], -1) for i in order),
        depth=tuple(depth[i] for i in order),
        label=tuple(label[i] for i in order),
        index={cliques[i]: new[i] for i in order},
    )


def maximal_cliques(g: Graph, require_chordal: bool = True) -> List[MaximalClique]:
    """All maximal cliques, duplicate-free, in canonical order.

    For chordal graphs these are the nodes of the clique tree; with
    require_chordal=False a Bron-Kerbosch fallback handles general graphs,
    and no hole is searched for.
    """
    tree = clique_tree(g) if require_chordal else _clique_tree_if_chordal(g)
    if tree is not None:
        return [MaximalClique(c) for c in tree.cliques]
    found = []
    _bron_kerbosch(g, set(), set(g.vertices), set(), found)
    uniq = sorted(set(found), key=lambda c: tuple(g.key(v) for v in g.sorted(c)))
    return [MaximalClique(c) for c in uniq]


def _bron_kerbosch(g: Graph, r, p, x, out):
    if not p and not x:
        out.append(frozenset(r))
        return
    pivot = max(p | x, key=lambda u: len(g.neighbors(u) & p))
    for v in g.sorted(p - g.neighbors(pivot)):
        _bron_kerbosch(g, r | {v}, p & g.neighbors(v), x & g.neighbors(v), out)
        p = p - {v}
        x = x | {v}


def minimal_separators(g: Graph) -> List[FrozenSet[str]]:
    """All minimal u-v separators, i.e. all sets with >= 2 full components.

    Enumerated as neighborhoods of components of G - N[v], expanded to a
    fixpoint, then filtered by the tightness criterion.
    """
    candidates = set()
    queue = []

    def add_neighborhoods(deleted):
        for comp, _ in g.components_after_deletion(deleted):
            nbhd = frozenset().union(*(g.neighbors(u) for u in comp)) - comp
            if nbhd and nbhd not in candidates:
                candidates.add(nbhd)
                queue.append(nbhd)

    for v in g.vertices:
        add_neighborhoods(g.neighbors(v) | {v})
    while queue:
        s = queue.pop()
        for x in s:
            add_neighborhoods(s | g.neighbors(x))
    tight = [
        s
        for s in candidates
        if sum(full for _, full in g.components_after_deletion(s)) >= 2
    ]
    return sorted(tight, key=lambda s: (len(s), tuple(g.key(v) for v in g.sorted(s))))


def dirac_check(g: Graph):
    """Every-minimal-separator-is-a-clique test; agrees with is_chordal.

    Returns (flag, witness) where witness is a non-clique minimal
    separator on failure, else None.
    """
    for s in minimal_separators(g):
        if not g.is_clique(s):
            return False, s
    return True, None


def is_r_chordal(g: Graph, r: int):
    """True iff g has no induced cycle of length > r; witness on failure."""
    if r < 3:
        raise ValueError("r must be >= 3")
    witness = _long_induced_cycle(g, r)
    return (witness is None), witness


def _long_induced_cycle(g: Graph, r: int) -> Optional[List[str]]:
    """Search for an induced cycle of length > r by DFS over induced paths.

    The cycle's canonically-least vertex is forced to the path start,
    which prunes rotations; exponential worst case, fine at desk scale.
    An explicit stack keeps the neighbours left to try at each path
    vertex, so the path is not bounded by the recursion limit.
    """
    if len(g) <= r:
        return None
    for start in g.vertices:
        k0 = g.key(start)
        path, on_path, left = [start], {start}, [iter(g.sorted(g.neighbors(start)))]
        while left:
            for nxt in left[-1]:
                if g.key(nxt) <= k0 or nxt in on_path:
                    continue
                # induced: nxt may not touch the path's interior
                if any(g.has_edge(nxt, p) for p in path[1:-1]):
                    continue
                if len(path) >= 2 and g.has_edge(nxt, start):
                    if len(path) + 1 > r:
                        return path + [nxt]
                    continue  # closing chord to start; nxt unusable here
                path.append(nxt)
                on_path.add(nxt)
                left.append(iter(g.sorted(g.neighbors(nxt))))
                break
            else:
                left.pop()
                on_path.discard(path.pop())
    return None


def is_r_locally_chordal(g: Graph, r: int):
    """True iff the ball of radius r/2 around every vertex is chordal.

    Each ball is tested on g's adjacency, restricted to its vertices; only
    the first failing center (canonical order) builds its ball, whose hole
    is the witness.
    """
    if r < 3:
        raise ValueError("r must be >= 3")
    for v in g.vertices:
        ball = g.distances_from(v, r // 2)
        if _verify_peo(g, mcs_order(g, ball)[::-1]) is not None:
            return False, (v, is_chordal(g.ball(v, r))[1])
    return True, None
