"""Automorphism groups of finite graphs, orbits, and canonicity checks
for tree-decompositions.

Automorphisms are found by color refinement followed by backtracking;
the group is handled through generators and orbit closure, never by
enumerating all elements unless the order is small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from .errors import InvariantViolation, TooLarge
from .graph import Graph
from .separations import Separation
from .treedec import TreeDecomposition, classify_td

GROUP_ORDER_BOUND = 10**6
# extend() calls per automorphism_generators run: a search that fails may
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
    """Is phi a bijection of V(G) that maps each neighbourhood onto the
    neighbourhood of the image?  O(n + m)."""
    vertices = set(g.vertices)
    if set(phi) != vertices or set(phi.values()) != vertices:
        return False
    return all(
        {phi[u] for u in g.neighbors(v)} == g.neighbors(phi[v]) for v in g.vertices
    )


def _orbit(point: str, generators: Iterable[Dict[str, str]]) -> set:
    orbit, queue = {point}, [point]
    while queue:
        x = queue.pop()
        for phi in generators:
            if phi[x] not in orbit:
                orbit.add(phi[x])
                queue.append(phi[x])
    return orbit


def automorphism_generators(g: Graph) -> AutomorphismSet:
    """A strong generating set of Aut(G) via a Schreier-Sims-style
    stabilizer chain over the base `g.vertices`.

    Levels run from the deepest to the shallowest, so every generator
    found so far fixes vertices[:i].  At level i the backtracking search
    starts only for images of vertices[i] outside its orbit under those
    generators, and each successful search adds one generator.  The orbit
    is then the basic orbit of vertices[i] in the pointwise stabilizer of
    vertices[:i], and the group order is the product of the orbit sizes.
    The search counts its nodes against AUTOMORPHISM_BUDGET.
    """
    color = _refine_colors(g)
    vertices = list(g.vertices)
    n = len(vertices)
    generators: List[Dict[str, str]] = []
    order = 1
    nodes = 0

    def fits(v: str, w: str, mapping: Dict[str, str], used: set) -> bool:
        """Does v -> w keep the colour and every adjacency to mapped vertices?"""
        return color[w] == color[v] and {
            mapping[u] for u in g.neighbors(v) if u in mapping
        } == g.neighbors(w) & used

    def extend(mapping: Dict[str, str], used: set) -> Optional[Dict[str, str]]:
        """Complete a partial mapping to a full automorphism by backtracking."""
        nonlocal nodes
        nodes += 1
        if nodes > AUTOMORPHISM_BUDGET:
            raise TooLarge(
                f"automorphism search budget is {AUTOMORPHISM_BUDGET} nodes, "
                f"reached {nodes} on {n} vertices"
            )
        if len(mapping) == n:
            return dict(mapping)
        v = next(u for u in vertices if u not in mapping)
        for w in vertices:
            if w in used or not fits(v, w, mapping, used):
                continue
            mapping[v] = w
            used.add(w)
            res = extend(mapping, used)
            if res is not None:
                return res
            del mapping[v]
            used.discard(w)
        return None

    for i in reversed(range(n)):
        v = vertices[i]
        fixed = {u: u for u in vertices[:i]}
        used = set(fixed)
        orbit = _orbit(v, generators)
        for w in vertices[i + 1:]:
            if w in orbit or not fits(v, w, fixed, used):
                continue
            phi = extend({**fixed, v: w}, used | {w})
            if phi is not None:
                if not is_automorphism(g, phi):
                    raise InvariantViolation("search found a map that is not an automorphism")
                generators.append(phi)
                orbit = _orbit(v, generators)
        order *= len(orbit)
    return AutomorphismSet(
        generators=tuple(generators),
        group_order=order if order <= GROUP_ORDER_BOUND else None,
    )


def _canonical_object(obj: Hashable):
    if isinstance(obj, Separation):
        return obj._key
    if isinstance(obj, frozenset):
        return tuple(sorted(obj))
    return obj


def apply_to(phi: Dict[str, str], obj):
    if isinstance(obj, Separation):
        return obj.apply(phi)
    if isinstance(obj, frozenset):
        return frozenset(phi[v] for v in obj)
    raise TypeError(f"cannot apply automorphism to {type(obj).__name__}")


def orbit_closure(aut: AutomorphismSet, objects: Iterable) -> List[List]:
    """Partition objects into orbits under the generated group.

    Orbits are closed under the generators, so images outside the input
    list are included; each orbit is sorted canonically, orbits ordered by
    their representatives.
    """
    remaining = list(objects)
    seen = set()
    orbits = []
    for obj in remaining:
        if obj in seen:
            continue
        orbit = {obj}
        queue = [obj]
        while queue:
            x = queue.pop()
            for phi in aut.generators:
                y = apply_to(phi, x)
                if y not in orbit:
                    orbit.add(y)
                    queue.append(y)
        seen |= orbit
        orbits.append(sorted(orbit, key=_canonical_object))
    orbits.sort(key=lambda o: _canonical_object(o[0]))
    return orbits


def _tree_automorphisms_for(
    td: TreeDecomposition, gamma: Dict[str, str], limit: int
) -> List[Dict[str, str]]:
    """Up to `limit` tree automorphisms phi with gamma(bag(t)) = bag(phi(t))
    for all t, in search order."""
    tree = td.tree
    nodes = list(tree.vertices)
    target = {t: frozenset(gamma[v] for v in td.bags[t]) for t in nodes}
    found: List[Dict[str, str]] = []

    def backtrack(mapping: Dict[str, str], used: set) -> None:
        if len(mapping) == len(nodes):
            found.append(dict(mapping))
            return
        t = next(u for u in nodes if u not in mapping)
        for s in nodes:
            if s in used or td.bags[s] != target[t]:
                continue
            if any(
                tree.has_edge(t, u) != tree.has_edge(s, img)
                for u, img in mapping.items()
            ):
                continue
            mapping[t] = s
            used.add(s)
            backtrack(mapping, used)
            if len(found) >= limit:
                return
            del mapping[t]
            used.discard(s)

    backtrack({}, set())
    return found


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
