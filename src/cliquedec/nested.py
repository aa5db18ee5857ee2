"""Level-by-level extraction of the canonical nested separation set.

From the family of all clique-pair bottlenecks, separations are selected
order by order: within each bottleneck part of the current order, keep
the members nested with everything chosen at lower orders and, among
those, the ones crossing the fewest separations of the current order's pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, List, Sequence, Set, Tuple

from .chordal import clique_tree, maximal_cliques
from .errors import EmptyBottleneckSelection, PreconditionViolated
from .graph import Graph
from .separations import (
    CROSSING,
    NESTED,
    Bottleneck,
    Separation,
    bottleneck_part,
    by_key,
    classify,
    min_clique_separator,
    relate,
)


@dataclass
class NestedSetLevels:
    """The selected separations, per order and in total."""

    levels: Dict[int, Set[Separation]] = field(default_factory=dict)
    union: Set[Separation] = field(default_factory=set)


def crossing_count(s: Separation, pool: Sequence[Separation]) -> int:
    """Number of pool members that s crosses."""
    return sum(1 for t in pool if relate(s, t) == CROSSING)


def construct_N(g: Graph, bottlenecks: Sequence[Bottleneck] | None = None) -> NestedSetLevels:
    """Extract the canonical nested set from all clique-pair bottlenecks.

    A pair's bottleneck is the union of its parts (`bottleneck_part`), one
    per minimum separator S, so its selection is the union of the filtered
    argmins of the parts that reach its minimum.  Each part (S, C1, C2) of
    full components of G - S is the whole bottleneck of some pair: C1 has a
    vertex v1 adjacent to all of S (take v in C1 with the most neighbours
    in S; if v missed s in S, the last vertex before s on a shortest v-s
    path through C1 would, by chordality, see N(v) & S and s), so maximal
    cliques X >= S + v1 and Y >= S + v2 meet in S, their one minimum separator.
    Hence the selection runs once per part, over the distinct clique-tree
    labels in node order.  Supplied bottlenecks are each taken as one part.
    A part with one candidate selects it whatever it crosses, so crossings
    are counted only for the candidates of parts that have a choice.
    No pairwise test checks nestedness here: `build_td_from_nested`
    certifies it in one pass, and `verify_N` is the full pairwise check.
    """
    if not g.is_connected():
        raise PreconditionViolated("graph must be connected")
    by_order: Dict[int, List[Tuple[Separation, ...]]] = {}  # the parts of each order
    if bottlenecks is None:
        labels = dict.fromkeys(clique_tree(g).label)
        labels.pop(frozenset(), None)  # the root's
        for sep in labels:
            # a vertex of each full component of G - sep
            reps = [next(iter(comp)) for comp, full in g.components_after_deletion(sep) if full]
            for u, v in combinations(reps, 2):
                by_order.setdefault(len(sep), []).append(bottleneck_part(g, sep, u, v))
    else:
        for b in bottlenecks:
            by_order.setdefault(b.order, []).append(b.separations)

    result = NestedSetLevels()
    for k in sorted(by_order):
        pool = list({s for seps in by_order[k] for s in seps})
        # nested with everything chosen at the lower levels
        allowed = {s for s in pool if all(relate(s, t) == NESTED for t in result.union)}
        xk: Dict[Separation, int] = {}
        chosen_level: Set[Separation] = set()
        for seps in by_order[k]:
            candidates = [s for s in seps if s in allowed]
            if not candidates:
                named = ", ".join(sorted({str(g.sorted(s.separator)) for s in seps}))
                raise EmptyBottleneckSelection(f"no candidate at order {k}, separator {named}")
            if len(candidates) > 1:
                xk.update((s, crossing_count(s, pool)) for s in candidates if s not in xk)
                best = min(xk[s] for s in candidates)
                candidates = [s for s in candidates if xk[s] == best]
            chosen_level.update(candidates)
        result.levels[k] = chosen_level
        result.union |= chosen_level
    return result


def verify_N(g: Graph, n: NestedSetLevels, aut: Sequence[Dict[str, str]]) -> dict:
    """Check the contract of the nested set; failures are reported, not raised.

    (a) pairwise nested, (b) tight with clique separators, (c) invariant
    under the given automorphism generators, (d) efficiently distinguishes
    every pair of distinct maximal cliques, (e) point-finite.
    """
    seps = sorted(n.union, key=by_key)
    report = {"ok": True, "failures": [], "max_separator_membership": 0}

    for s, t in combinations(seps, 2):
        if relate(s, t) == CROSSING:
            report["failures"].append(("nested", (s, t)))

    for s in seps:
        cl = classify(g, s)
        if not cl.tight:
            report["failures"].append(("tight", s))
        if not g.is_clique(s.separator):
            report["failures"].append(("clique_separator", s))

    sep_set = set(seps)
    for phi in aut:
        for s in seps:
            if s.apply(phi) not in sep_set:
                report["failures"].append(("invariance", (phi, s)))

    # one max flow per pair, independent of the clique tree that built n
    cliques = [c.vertices for c in maximal_cliques(g, require_chordal=False)]
    for x, y in combinations(cliques, 2):
        k = min_clique_separator(g, x, y)[0]
        if not any(
            s.order == k
            and ((x <= s.sideA and y <= s.sideB) or (x <= s.sideB and y <= s.sideA))
            for s in seps
        ):
            report["failures"].append(("distinguishes", (x, y)))

    counts = {v: 0 for v in g.vertices}
    for s in seps:
        for v in s.separator:
            counts[v] += 1
    report["max_separator_membership"] = max(counts.values(), default=0)

    report["ok"] = not report["failures"]
    return report
