"""Level-by-level extraction of the canonical nested separation set.

From the family of all clique-pair bottlenecks, separations are selected
order by order: within each bottleneck of the current order, keep the
members nested with everything chosen at lower orders and, among those,
the ones crossing the fewest separations of the current order's pool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set

from .chordal import maximal_cliques
from .errors import (
    EmptyBottleneckSelection,
    NestednessViolation,
    PreconditionViolated,
)
from .graph import Graph
from .separations import (
    CROSSING,
    NESTED,
    Bottleneck,
    Separation,
    beta,
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

    Bottlenecks may be supplied (e.g. orbit-restricted ones on windows);
    by default all pairs of maximal cliques are used.
    """
    if not g.is_connected():
        raise PreconditionViolated("graph must be connected")
    if bottlenecks is None:
        cliques = maximal_cliques(g)
        bottlenecks = [
            beta(g, cliques[i], cliques[j], check=False)
            for i in range(len(cliques))
            for j in range(i + 1, len(cliques))
        ]

    by_order: Dict[int, List[Bottleneck]] = {}
    for b in bottlenecks:
        by_order.setdefault(b.order, []).append(b)

    result = NestedSetLevels()
    for k in sorted(by_order):
        level_bottlenecks = by_order[k]
        pool = sorted({s for b in level_bottlenecks for s in b.separations})
        xk = {s: crossing_count(s, pool) for s in pool}
        chosen_level: Set[Separation] = set()
        for b in level_bottlenecks:
            candidates = [
                s
                for s in b.separations
                if all(relate(s, t) == NESTED for t in result.union)  # lower levels
            ]
            if not candidates:
                raise EmptyBottleneckSelection(
                    f"no candidate for clique pair {b.pair} at order {k}"
                )
            best = min(xk[s] for s in candidates)
            chosen_level.update(s for s in candidates if xk[s] == best)
        # same-level mutual nestedness is guaranteed, not arranged; verify
        chosen_sorted = sorted(chosen_level)
        for i, s in enumerate(chosen_sorted):
            for t in chosen_sorted[i + 1 :]:
                if relate(s, t) == CROSSING:
                    raise NestednessViolation(f"{s} crosses {t} within level {k}")
        result.levels[k] = chosen_level
        result.union |= chosen_level
    return result


def verify_N(g: Graph, n: NestedSetLevels, aut: Sequence[Dict[str, str]]) -> dict:
    """Check the contract of the nested set; failures are reported, not raised.

    (a) pairwise nested, (b) tight with clique separators, (c) invariant
    under the given automorphism generators, (d) efficiently distinguishes
    every pair of distinct maximal cliques, (e) point-finite.
    """
    seps = sorted(n.union)
    report = {"ok": True, "failures": [], "max_separator_membership": 0}

    for i, s in enumerate(seps):
        for t in seps[i + 1 :]:
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
    cliques = maximal_cliques(g, require_chordal=False)
    for i in range(len(cliques)):
        for j in range(i + 1, len(cliques)):
            x, y = cliques[i].vertices, cliques[j].vertices
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
