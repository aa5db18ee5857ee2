"""Tree-decompositions: validation, induced separations, construction from a
nested separation set, classification, and contraction to maximal cliques.

The tree of a nested proper separation set is built intrinsically: its
nodes are the stars of the set's oriented separations, so the output
depends only on the set, not on any processing order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, compress
from operator import itemgetter
from typing import Dict, FrozenSet, Iterable, List, Sequence, Tuple

from .chordal import maximal_cliques
from .errors import (
    ImproperSeparation,
    InvariantViolation,
    NotAClique,
    NotATree,
    NotNested,
    PreconditionViolated,
    UnknownVertex,
)
from .graph import Graph, _all, _json_fields, _json_graph, _json_list, _json_strings
from .separations import CROSSING, Separation, by_key, relate


@dataclass(frozen=True)
class TreeDecomposition:
    """A tree with one vertex-set bag per node."""

    tree: Graph
    bags: Dict[str, FrozenSet[str]]

    def to_json_dict(self) -> dict:
        return {
            "nodes": [{"id": t, "bag": sorted(self.bags[t])} for t in self.tree.vertices],
            "edges": [list(e) for e in self.tree.edges()],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "TreeDecomposition":
        _json_fields(data, "tree-decomposition JSON", ("nodes", "edges"))
        nodes = _json_list(data.get("nodes", []), "tree-decomposition JSON 'nodes'")
        bags = {}
        try:  # one test of all nodes; the checks of each node below name an offender
            ids, members = list(map(itemgetter("id"), nodes)), list(map(itemgetter("bag"), nodes))
            if (set(map(len, nodes)) <= {2} and _all(ids, str) and _all(members, list)
                    and _all(chain.from_iterable(members), str)):
                bags = dict(zip(ids, map(frozenset, members)))
        except (KeyError, TypeError):
            pass
        if len(bags) < len(nodes):  # some node fails: check each, to name the first
            bags = {}
            for node in nodes:
                _json_fields(node, "node JSON", ("id", "bag"), ("id", "bag"))
                if not isinstance(node["id"], str):
                    raise ValueError(f"node JSON 'id' must be a string, got {node['id']!r}")
                if node["id"] in bags:
                    raise ValueError(f"tree-decomposition JSON repeats the node id {node['id']!r}")
                bags[node["id"]] = frozenset(_json_strings(node["bag"], "node JSON 'bag'"))
        edges = _json_list(data.get("edges", []), "tree-decomposition JSON 'edges'")
        tree = _json_graph(list(bags), edges, "a tree-decomposition edge")
        if len(tree) > len(bags):  # an edge names a node with no bag: name the first
            e, t = next((e, t) for e in edges for t in e if t not in bags)
            raise ValueError(f"tree-decomposition edge {e!r} names {t!r}, a node with no bag")
        return TreeDecomposition(tree, bags)


@dataclass(frozen=True)
class TDClassification:
    regular: bool
    into_cliques: bool
    into_maximal_cliques: bool


def _check_tree(t: Graph) -> Dict[str, str]:
    """The parent of each node of the tree t, in breadth-first order from its
    first node (None there).  Raises NotATree: empty, disconnected, cyclic."""
    if len(t) == 0:
        raise NotATree("empty tree")
    order, parent = list(t.vertices[:1]), dict.fromkeys(t.vertices[:1])
    for p in order:  # breadth first, growing as it goes
        for c in t._adj[p]:
            if c not in parent:
                parent[c] = p
                order.append(c)
    if len(order) < len(t):
        raise NotATree("tree is disconnected")
    if t.edge_count() != len(t) - 1:
        raise NotATree("tree contains a cycle")
    return parent


def _uncovered(
    g: Graph, reach: Dict[str, FrozenSet[str]]
) -> Tuple[List[str], List[Tuple[str, str]]]:
    """The vertices and the edges of g that lie in no bag.  reach[v] is a
    union of bags holding v, for each v in some bag, such that an edge uw
    lies in a bag iff w is in reach[u] or u in reach[w]: the union of all
    the bags holding v is one.  Only the uncovered edges are sorted."""
    key, get, none = g._index, reach.get, frozenset()
    edges = [(u, w) for u, nbrs in g._adj.items() for w in nbrs - get(u, none)
             if u not in get(w, none) and key[u] < key[w]]
    edges.sort(key=lambda e: (key[e[0]], key[e[1]]))
    return [v for v in g.vertices if v not in reach], edges


def _bags_are_maximal_cliques(g: Graph, bags: Sequence[FrozenSet[str]]) -> bool:
    """Are the bags pairwise distinct and exactly the maximal cliques of g?"""
    cliques = {c.vertices for c in maximal_cliques(g, require_chordal=False)}
    return len(bags) == len(set(bags)) and set(bags) == cliques


def verify_td(g: Graph, td: TreeDecomposition) -> dict:
    """Check coverage (every vertex and edge in some bag) and connectivity
    of every vertex's node set; failures carry witnesses.  A bag vertex
    that g lacks raises UnknownVertex.

    One pass down the tree finds the tops of each vertex v: the nodes
    holding v whose parent does not.  The nodes holding v form one subtree
    per top, so they are connected iff v has one top.  Two subtrees meet
    iff one holds the top of the other, so an edge uw lies in a bag iff w
    is in the bag of a top of u or u in the bag of a top of w.
    """
    parent, bags, none = _check_tree(td.tree), td.bags, frozenset()
    if bags.keys() != parent.keys():
        raise NotATree("bags and tree nodes do not match")
    reach, split = {}, set()  # the union of the bags at v's tops; v with two tops
    for t, p in parent.items():
        b = bags[t]
        for v in b - bags.get(p, none):
            if v in reach:
                split.add(v)
            reach[v] = reach[v] | b if v in reach else b
    odd = reach.keys() - g._index.keys()  # bag vertices that g lacks
    for t, b in bags.items() if odd else ():
        if b & odd:
            raise UnknownVertex(f"the bag of node {t!r} holds {min(b & odd)!r}, not in the graph")
    vertices, edges = _uncovered(g, reach)
    disconnected = [v for v in g.vertices if v in split]
    return {"ok": not (vertices or edges or disconnected), "uncovered_vertices": vertices,
            "uncovered_edges": edges, "disconnected": disconnected}


def _edge_sides(g: Graph, td: TreeDecomposition) -> Dict[Tuple[str, str], Tuple[int, int]]:
    """The unions of the bags on the two sides of each tree edge, keyed by both
    its orientations, as bitmasks over g.key, from the tree rooted at its first
    node: below each node by post-order, the rest by prefix and suffix unions
    over siblings.  Raises InvariantViolation if an adhesion is not the separator."""
    bag = {t: sum(1 << g.key(v) for v in b) for t, b in td.bags.items()}
    parent = _check_tree(td.tree)
    order, children = list(parent), {t: [] for t in parent}
    for c in order[1:]:
        children[parent[c]].append(c)
    below, rest, sides = dict(bag), dict.fromkeys(order, 0), {}
    for c in reversed(order[1:]):
        below[parent[c]] |= below[c]
    for p in order:
        elder, younger = rest[p] | bag[p], 0  # the prefix and the suffix
        for c, d in zip(children[p], reversed(children[p])):
            rest[c], elder = rest[c] | elder, elder | below[c]
            rest[d], younger = rest[d] | younger, younger | below[d]
        for c in children[p]:
            if below[c] & rest[c] != bag[p] & bag[c]:
                raise InvariantViolation(f"adhesion of tree edge {(p, c)!r} is not the separator")
            sides[p, c] = sides[c, p] = below[c], rest[c]
    return sides


def induced_separation(g: Graph, td: TreeDecomposition, f: Tuple[str, str]) -> Separation:
    """The separation {A1, A2} with Ai = union of bags on side i of tree edge f."""
    if not td.tree.has_edge(*f):
        raise ValueError(f"{f!r} is not a tree edge")
    # bit i of a side is the i-th binary digit from the right
    return Separation(*(frozenset(compress(g.vertices, map(int, bin(m)[:1:-1])))
                        for m in _edge_sides(g, td)[f]))


# -- building the tree from a nested set --------------------------------


def build_td_from_nested(g: Graph, n: Iterable[Separation]) -> TreeDecomposition:
    """Tree-decomposition whose induced separations are exactly n.

    Each node is a star of the nested set.  Oriented towards a vertex x in
    no separator, the strict sides A - B form a laminar family; the node
    behind (A, B) is (B, A) with the maximal sides inside A - B, and the
    root holds the maximal sides.  A bag is the intersection of the B-sides
    of its star.

    One certificate stands in for a pairwise nestedness test: the tree
    passes `verify_td` and each edge induces its own separation, so n is
    the separation set of one tree, which is nested.  Only if it fails are
    the pairs scanned, so that NotNested names a crossing pair.
    """
    if not g.is_connected():
        raise PreconditionViolated("graph must be connected")
    seps = sorted(set(n), key=by_key)
    for s in seps:
        if s.sideA <= s.sideB or s.sideB <= s.sideA:
            raise ImproperSeparation(f"{s} is improper")

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
    bit = {v: 1 << i for i, v in enumerate(g.vertices)}
    sides = _edge_sides(g, td) if verify_td(g, td)["ok"] else {}
    for s, (p, q) in zip(seps, ends):
        a, b = (sum(map(bit.__getitem__, side)) for side in (s.sideA, s.sideB))
        if sides.get((names[p], names[q])) not in ((a, b), (b, a)):
            for s1, s2 in combinations(seps, 2):
                if relate(s1, s2) == CROSSING:
                    raise NotNested(f"{s1} crosses {s2}")
            check = "its edge-to-separation bijection" if sides else "verify_td"
            raise InvariantViolation(f"constructed decomposition failed {check}")
    return td


# -- classification and queries -----------------------------------------


def classify_td(g: Graph, td: TreeDecomposition) -> TDClassification:
    """Regular (every edge's strict sides non-empty, by `_edge_sides`), into (maximal) cliques."""
    regular = all(a & ~b and b & ~a for a, b in _edge_sides(g, td).values())
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
        for comp in g.induced(b).components():
            if not g.is_clique(comp):
                raise PreconditionViolated(
                    f"bag {sorted(b)} is not a disjoint union of complete graphs"
                )
    return all(g.is_clique(b) and g.induced(b).is_connected() for b in td.bags.values())
