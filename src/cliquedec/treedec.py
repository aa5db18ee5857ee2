"""Tree-decompositions: validation, induced separations, construction from a
nested separation set, classification, and contraction to maximal cliques.

The tree of a nested proper separation set is built intrinsically: its
nodes are the stars of the set's oriented separations, so the output
depends only on the set, not on any processing order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from .chordal import maximal_cliques
from .errors import (
    ImproperSeparation,
    InvariantViolation,
    NotAClique,
    NotATree,
    NotNested,
    PreconditionViolated,
)
from .graph import Graph, _json_list, _json_object, _json_pair, _json_strings
from .separations import CROSSING, Separation, by_key, classify, relate


@dataclass(frozen=True)
class TreeDecomposition:
    """A tree with one vertex-set bag per node."""

    tree: Graph
    bags: Dict[str, FrozenSet[str]]

    def to_json_dict(self) -> dict:
        return {
            "nodes": [
                {"id": t, "bag": sorted(self.bags[t])} for t in self.tree.vertices
            ],
            "edges": [list(e) for e in self.tree.edges()],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "TreeDecomposition":
        unknown = set(_json_object(data, "tree-decomposition JSON")) - {"nodes", "edges"}
        if unknown:
            raise ValueError(f"unknown fields in tree-decomposition JSON: {sorted(unknown)}")
        bags = {}
        for node in _json_list(data.get("nodes", []), "tree-decomposition JSON 'nodes'"):
            extra = set(_json_object(node, "node JSON")) - {"id", "bag"}
            if extra:
                raise ValueError(f"unknown fields in node JSON: {sorted(extra)}")
            missing = {"id", "bag"} - set(node)
            if missing:
                raise ValueError(f"node JSON lacks the fields {sorted(missing)}")
            if not isinstance(node["id"], str):
                raise ValueError(f"node JSON 'id' must be a string, got {node['id']!r}")
            if node["id"] in bags:
                raise ValueError(f"tree-decomposition JSON repeats the node id {node['id']!r}")
            bags[node["id"]] = frozenset(_json_strings(node["bag"], "node JSON 'bag'"))
        edges = _json_list(data.get("edges", []), "tree-decomposition JSON 'edges'")
        pairs = [_json_pair(e, "a tree-decomposition edge") for e in edges]
        return TreeDecomposition(tree=Graph(list(bags), pairs), bags=bags)


@dataclass(frozen=True)
class TDClassification:
    regular: bool
    into_cliques: bool
    into_maximal_cliques: bool


def _check_tree(t: Graph) -> None:
    if len(t) == 0:
        raise NotATree("empty tree")
    if not t.is_connected():
        raise NotATree("tree is disconnected")
    if t.edge_count() != len(t) - 1:
        raise NotATree("tree contains a cycle")


def _uncovered(
    g: Graph, bags: Sequence[FrozenSet[str]]
) -> Tuple[List[str], List[Tuple[str, str]]]:
    """The vertices and the edges of g that lie in no bag: an edge lies in
    a bag iff the bitmasks of the bags holding its two ends meet."""
    holding: Dict[str, int] = {}
    for i, b in enumerate(bags):
        for v in b:
            holding[v] = holding.get(v, 0) | 1 << i
    vertices = [v for v in g.vertices if v not in holding]
    edges = [(u, v) for u, v in g.edges() if not holding.get(u, 0) & holding.get(v, 0)]
    return vertices, edges


def _bags_are_maximal_cliques(g: Graph, bags: Sequence[FrozenSet[str]]) -> bool:
    """Are the bags pairwise distinct and exactly the maximal cliques of g?"""
    cliques = {c.vertices for c in maximal_cliques(g, require_chordal=False)}
    return len(bags) == len(set(bags)) and set(bags) == cliques


def verify_td(g: Graph, td: TreeDecomposition) -> dict:
    """Check coverage (every vertex and edge in some bag) and connectivity
    of every vertex's node set; failures carry witnesses.

    The nodes holding v span a forest of (nodes - edges) trees, its edges
    being the tree edges whose adhesion holds v; so v's node set is
    connected iff it has at most one node more than such edges.
    """
    _check_tree(td.tree)
    if set(td.bags) != set(td.tree.vertices):
        raise NotATree("bags and tree nodes do not match")
    uncovered_vertices, uncovered_edges = _uncovered(g, list(td.bags.values()))
    excess = Counter(v for b in td.bags.values() for v in b)
    excess.subtract(v for t, u in td.tree.edges() for v in td.bags[t] & td.bags[u])
    report = {
        "ok": True,
        "uncovered_vertices": uncovered_vertices,
        "uncovered_edges": uncovered_edges,
        "disconnected": [v for v in g.vertices if excess[v] > 1],
    }
    report["ok"] = not (
        report["uncovered_vertices"] or report["uncovered_edges"] or report["disconnected"]
    )
    return report


def induced_separation(g: Graph, td: TreeDecomposition, f: Tuple[str, str]) -> Separation:
    """The separation {A1, A2} with Ai = union of bags on side i of tree edge f."""
    t1, t2 = f
    if not td.tree.has_edge(t1, t2):
        raise ValueError(f"{f!r} is not a tree edge")
    side1 = _tree_side(td.tree, t1, t2)
    a1 = frozenset().union(*(td.bags[t] for t in side1))
    a2 = frozenset().union(*(td.bags[t] for t in set(td.tree.vertices) - side1))
    s = Separation(a1, a2)
    if s.separator != td.bags[t1] & td.bags[t2]:
        raise InvariantViolation(f"adhesion of tree edge {f!r} is not the separator")
    return s


def _tree_side(tree: Graph, t1: str, t2: str) -> Set[str]:
    """Nodes on t1's side of the tree edge t1-t2."""
    side, stack = {t1, t2}, [t1]
    while stack:
        for w in tree.neighbors(stack.pop()) - side:
            side.add(w)
            stack.append(w)
    side.discard(t2)
    return side


# -- building the tree from a nested set --------------------------------


def build_td_from_nested(g: Graph, n: Iterable[Separation]) -> TreeDecomposition:
    """Tree-decomposition whose induced separations are exactly n.

    Each node is a star of the nested set.  Oriented towards a vertex x in
    no separator, the strict sides A - B form a laminar family; the node
    behind (A, B) is (B, A) with the maximal sides inside A - B, and the
    root holds the maximal sides.  A bag is the intersection of the B-sides
    of its star.  The edge-to-separation bijection is verified before returning.
    """
    if not g.is_connected():
        raise PreconditionViolated("graph must be connected")
    seps = sorted(set(n), key=by_key)
    for i, s in enumerate(seps):
        if s.sideA <= s.sideB or s.sideB <= s.sideA:
            raise ImproperSeparation(f"{s} is improper")
        for t in seps[i + 1 :]:
            if relate(s, t) == CROSSING:
                raise NotNested(f"{s} crosses {t}")

    if not seps:
        return TreeDecomposition(tree=Graph(["t0"]), bags={"t0": frozenset(g.vertices)})

    def ascending(p):
        return len(p[0]), -len(p[1])

    # the first in ascending order is minimal, so its strict A-side meets no separator
    first = min((p for s in seps for p in s.orientations()), key=ascending)
    x = next(iter(first[0] - first[1]))
    towards = [(s.sideB, s.sideA) if x in s.sideA else (s.sideA, s.sideB) for s in seps]

    # ascending order lists each strict side before every one that contains
    # it, so the owners of a side (owner[v]: the last side seen holding v)
    # are its children; node i is the star behind towards[i], node m the root
    m = len(seps)
    parent = dict.fromkeys(range(m), m)
    bags: Dict[int, FrozenSet[str]] = {}
    owner: Dict[str, int] = {}
    for i in sorted(range(m), key=lambda i: ascending(towards[i])):
        a, b = towards[i]
        strict = a - b
        children = {owner[v] for v in strict if v in owner}
        parent.update(dict.fromkeys(children, i))
        bags[i] = a.intersection(*(towards[c][1] for c in children))
        owner.update(dict.fromkeys(strict, i))
    bags[m] = frozenset.intersection(*(towards[i][1] for i in range(m) if parent[i] == m))

    # the nodes that (A, B) and (B, A) of each separation point at, each
    # named by the key of its last member in that order
    ends = [(i, parent[i]) if x in s.sideA else (parent[i], i) for i, s in enumerate(seps)]
    key = {}
    for s, (p, q) in zip(seps, ends):
        key[p] = s._key
        key[q] = s._key[::-1]
    nodes = sorted(key, key=key.__getitem__)
    names = {t: f"t{i}" for i, t in enumerate(nodes)}
    td = TreeDecomposition(
        tree=Graph([names[t] for t in nodes], [(names[q], names[p]) for p, q in ends]),
        bags={names[t]: bags[t] for t in nodes},
    )
    if not verify_td(g, td)["ok"]:
        raise InvariantViolation("constructed decomposition failed verify_td")
    induced = {induced_separation(g, td, e) for e in td.tree.edges()}
    if induced != set(seps):
        raise InvariantViolation("tree edges do not biject onto the separations")
    return td


# -- classification and queries -----------------------------------------


def classify_td(g: Graph, td: TreeDecomposition) -> TDClassification:
    regular = all(
        classify(g, induced_separation(g, td, e)).proper for e in td.tree.edges()
    )
    bags = list(td.bags.values())
    into_cliques = all(g.is_clique(b) for b in bags)
    return TDClassification(
        regular=regular,
        into_cliques=into_cliques,
        into_maximal_cliques=into_cliques and _bags_are_maximal_cliques(g, bags),
    )


def clique_in_bag(g: Graph, td: TreeDecomposition, k: Iterable[str]) -> str:
    """Some node whose bag contains the clique k; guaranteed to exist."""
    kf = frozenset(k)
    if not g.is_clique(kf):
        raise NotAClique(f"{sorted(kf)} is not a clique")
    for t in td.tree.vertices:
        if kf <= td.bags[t]:
            return t
    raise InvariantViolation("no bag contains the clique; decomposition invalid")


# -- contraction to maximal cliques -------------------------------------


def contract_to_maximal(
    g: Graph, td: TreeDecomposition, orbit_order: str = "canonical"
) -> TreeDecomposition:
    """Contract tree edges whose two bags are nested until none remain.

    The edges are taken in the order of their sorted node names, in passes
    until one contracts nothing; a contracted edge's bags merge by union.
    The result has no bag contained in a neighboring bag, hence is into
    maximal cliques when td was into cliques and regular.  Which cliques
    end up adjacent depends on the node names: by Example 5.1 no canonical
    decomposition into maximal cliques exists in general.  "canonical" is
    the only orbit_order.
    """
    if orbit_order != "canonical":
        raise ValueError("orbit_order must be 'canonical'")
    _check_tree(td.tree)
    parent = {t: t for t in td.tree.vertices}

    def find(t):
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    bags = dict(td.bags)
    edges = sorted(tuple(sorted(e)) for e in td.tree.edges())
    changed = True
    while changed:
        changed = False
        for u, v in edges:
            a, b = find(u), find(v)
            if a != b and (bags[a] <= bags[b] or bags[b] <= bags[a]):
                parent[a] = b
                bags[b] = bags[a] | bags[b]
                changed = True

    roots = [t for t in td.tree.vertices if find(t) == t]
    tree = Graph(roots, [(find(u), find(v)) for u, v in td.tree.edges() if find(u) != find(v)])
    out = TreeDecomposition(tree=tree, bags={t: bags[t] for t in roots})
    _check_tree(out.tree)
    for u, v in out.tree.edges():
        if out.bags[u] <= out.bags[v] or out.bags[v] <= out.bags[u]:
            raise InvariantViolation(
                f"neighboring bags {u!r} and {v!r} are nested after contraction"
            )
    return out


def disjoint_union_bags_lemma_check(g: Graph, td: TreeDecomposition) -> bool:
    """For connected g with every part a disjoint union of complete graphs:
    is every bag in fact a single clique?"""
    if not g.is_connected():
        raise PreconditionViolated("graph must be connected")
    for b in td.bags.values():
        sub = g.induced(b)
        for comp in sub.components():
            if not g.is_clique(comp):
                raise PreconditionViolated(
                    f"bag {sorted(b)} is not a disjoint union of complete graphs"
                )
    return all(g.is_clique(b) and g.induced(b).is_connected() for b in td.bags.values())
