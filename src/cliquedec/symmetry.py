"""Automorphism groups of finite graphs and canonicity checks for
tree-decompositions.

Automorphisms are found by color refinement, twin transpositions and
backtracking; the group is handled through a strong generating set,
never by enumerating its elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Dict, FrozenSet, List, Optional, Tuple

from .errors import InvariantViolation, TooLarge
from .graph import Graph
from .treedec import TreeDecomposition, classify_td

GROUP_ORDER_BOUND = 10**6
# search nodes per automorphism_generators run: a search that fails may
# backtrack through exponentially many partial maps.
AUTOMORPHISM_BUDGET = 100_000


@dataclass(frozen=True)
class AutomorphismSet:
    """Generators of Aut(G); group_order is None when the group is large."""

    generators: Tuple[Dict[str, str], ...]
    group_order: Optional[int]


def _refine_colors(g: Graph) -> Dict[str, int]:
    """Stable coloring refined by multisets of neighbor colors."""
    color = {v: g.degree(v) for v in g.vertices}
    while True:
        sig = {
            v: (color[v], tuple(sorted(color[u] for u in g.neighbors(v))))
            for v in g.vertices
        }
        palette = {s: i for i, s in enumerate(sorted(set(sig.values())))}
        new = {v: palette[sig[v]] for v in g.vertices}
        if new == color:
            return color
        color = new


def is_automorphism(g: Graph, phi: Dict[str, str]) -> bool:
    """Is phi a bijection of V(G) that maps the neighbourhood of each vertex
    it moves onto the neighbourhood of the image?  An edge between fixed
    vertices is its own image, so this is the whole test.  O(n) plus the
    degrees of the moved vertices."""
    vertices = set(g.vertices)
    if phi.keys() != vertices or set(phi.values()) != vertices:
        return False
    return all(
        {phi[u] for u in g.neighbors(v)} == g.neighbors(w)
        for v, w in phi.items()
        if v != w
    )


def _depth_first(points, images, fits, mapping: Dict[str, str], enter=lambda: None):
    """Yield each completion of mapping to the later points, depth first:
    points[i] is tried on images[i] in order where fits(point, image,
    mapping, used) holds, `used` being the mapping's images.  An explicit
    stack keeps the images left at each level, so the depth is not bounded
    by the recursion limit.  enter() runs at each search node."""
    start, used, levels = len(mapping), set(mapping.values()), []
    while True:
        enter()
        if len(mapping) == len(points):
            yield dict(mapping)
        else:
            levels.append(iter(images[len(mapping)]))
        while levels:  # the next image at the deepest open level
            v = points[start + len(levels) - 1]
            used.discard(mapping.pop(v, None))  # its last image is done with
            for w in levels[-1]:
                if w not in used and fits(v, w, mapping, used):
                    mapping[v] = w
                    used.add(w)
                    break
            else:
                levels.pop()
                continue
            break
        else:
            return


def automorphism_generators(g: Graph) -> AutomorphismSet:
    """A strong generating set of Aut(G) via a Schreier-Sims-style
    stabilizer chain over the base `g.vertices`.

    Levels run from the deepest to the shallowest, so every generator
    found so far fixes vertices[:i].  At level i an image w of vertices[i]
    is tried only outside its orbit under those generators.  A twin w
    (N(v) - {w} == N(w) - {v}) gives the transposition (v w) outright;
    any other image starts a backtracking search, whose nodes count
    against AUTOMORPHISM_BUDGET.  The orbits live in a union-find over the
    generators' moved points, so the orbit of vertices[i] is its basic
    orbit in the pointwise stabilizer of vertices[:i], and the group order
    is the product of the orbit sizes.
    """
    color = _refine_colors(g)
    vertices = list(g.vertices)
    n = len(vertices)
    identity = {v: v for v in vertices}
    images = [vertices] * n  # every vertex may map to every vertex
    generators: List[Dict[str, str]] = []
    root: Dict[str, str] = {}  # union-find parent links, union by size
    size = dict.fromkeys(vertices, 1)
    order = 1
    nodes = 0

    def find(x: str) -> str:
        while x in root:
            x = root[x]
        return x

    def fits(v: str, w: str, mapping: Dict[str, str], used: set) -> bool:
        """Does v -> w keep the colour and every adjacency to mapped vertices?"""
        return color[w] == color[v] and {
            mapping[u] for u in g.neighbors(v) if u in mapping
        } == g.neighbors(w) & used

    def count() -> None:
        nonlocal nodes
        nodes += 1
        if nodes > AUTOMORPHISM_BUDGET:
            raise TooLarge(
                f"automorphism search budget is {AUTOMORPHISM_BUDGET} nodes, "
                f"reached {nodes} on {n} vertices"
            )

    for i in reversed(range(n)):
        v = vertices[i]
        fixed = {u: u for u in vertices[:i]}
        used = set(fixed)
        for w in vertices[i + 1:]:
            if find(w) == find(v):
                continue
            phi = None
            if g.neighbors(v) - {w} == g.neighbors(w) - {v}:
                phi = {**identity, v: w, w: v}
            elif fits(v, w, fixed, used):
                phi = next(_depth_first(vertices, images, fits, {**fixed, v: w}, count), None)
            if phi is None:
                continue
            if not is_automorphism(g, phi):
                raise InvariantViolation("search found a map that is not an automorphism")
            generators.append(phi)
            for a, b in ((find(x), find(phi[x])) for x in vertices[i:] if phi[x] != x):
                if a != b:
                    if size[a] > size[b]:
                        a, b = b, a
                    root[a] = b
                    size[b] += size[a]
        order *= size[find(v)]
    return AutomorphismSet(
        generators=tuple(generators),
        group_order=order if order <= GROUP_ORDER_BOUND else None,
    )


def _tree_automorphisms_for(
    td: TreeDecomposition, gamma: Dict[str, str], limit: int
) -> List[Dict[str, str]]:
    """Up to `limit` tree automorphisms phi with gamma(bag(t)) = bag(phi(t))
    for all t, in search order.

    Node t is tried only on the nodes whose bag is gamma(bag(t)), in node
    order, and checked only against its tree neighbours mapped before it:
    an edge-preserving bijection between two trees of one size is an
    automorphism.
    """
    tree = td.tree
    nodes = tree.vertices
    by_bag: Dict[FrozenSet[str], List[str]] = {}
    for t in nodes:
        by_bag.setdefault(td.bags[t], []).append(t)
    candidates = [by_bag.get(frozenset(gamma[v] for v in td.bags[t]), ()) for t in nodes]

    def fits(t: str, s: str, mapping: Dict[str, str], used: set) -> bool:
        return all(mapping[u] in tree.neighbors(s) for u in tree.neighbors(t) if u in mapping)

    return list(islice(_depth_first(nodes, candidates, fits, {}), limit))


def verify_canonical_td(g: Graph, td: TreeDecomposition, aut: AutomorphismSet) -> dict:
    """Does every automorphism generator act on the decomposition tree?

    For each generator a compatible tree automorphism is searched; the
    decomposition is canonical iff all generators admit one (closure under
    the subgroup follows).  For regular decompositions the witness is
    unique, which is checked by searching on for a second one
    (InvariantViolation if found); report["classification"] is classify_td(g, td).
    """
    cls = classify_td(g, td)
    report = {"canonical": True, "per_generator": [], "classification": cls}
    for gamma in aut.generators:
        actions = _tree_automorphisms_for(td, gamma, limit=2 if cls.regular else 1)
        phi = actions[0] if actions else None
        entry = {"generator": dict(gamma), "exists": phi is not None, "action": phi}
        if phi is None:
            report["canonical"] = False
        elif cls.regular:
            entry["unique"] = len(actions) == 1
            if not entry["unique"]:
                raise InvariantViolation("regular decomposition admits two tree actions")
        report["per_generator"].append(entry)
    return report
