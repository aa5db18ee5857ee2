"""Independent brute-force and networkx-based oracles for the test suite.

Nothing in here may import algorithmic internals beyond the Graph type,
with these exceptions: `flow_min_separators` builds on the package's
`_VertexFlow` max flow, which criterion 3 checks against brute force,
`explicit_beta` on `clique_min_separators`, `separation_from_separator`
and `classify`, which the separation tests check on their own,
`all_images_automorphisms` and `scan_automorphism_generators` on the
colour refinement `_refine_colors` (the latter also on the
`AutomorphismSet` record and the symmetry module's two bounds),
`closure_build_td` on `verify_td` and the tree check `_check_tree`,
`star_walk_build_td` on `verify_td` and the sort key `by_key`,
`first_crossing_pair` on `by_key` and `relate`, `explicit_part` on
`separation_from_separator`, `pairwise_construct_N` on `beta`
(checked against `explicit_beta`), `crossing_count` and `relate`,
`hole_searching_maximal_cliques` on `is_chordal`, `clique_tree` and the
Bron-Kerbosch search `_bron_kerbosch`, `scan_fold` and
`scan_separation_signature` on the cover's word algebra, its window
record and the `GraphDecomposition` type, `subgraph_ball_check` on
`derive_window`, `subgraph_verify_td` on the
tree check `_check_tree`, and `checked_graph_from_json` and
`checked_td_from_json` on the JSON checks of one value each,
`_json_fields`, `_json_list`, `_json_strings` and `_json_pair`.
`orientation_relate` is `relate` as it was before it became one boolean
expression: a loop over the orientations of both separations as tuples.
`explicit_part` is one bottleneck part as it was built before its
separations were keyed by component bitmasks: every side assignment
assembled afresh.  `pairwise_construct_N` is the nested-set selection as it was before it
ran once per bottleneck part: one `beta` per clique pair, filtered and
minimised over that pair's whole bottleneck.  `quadratic_mcs_order`,
`pairwise_verify_peo` and `full_bfs_ball` are the chordality kernels as
they were before the heap, the parent test and the bounded BFS; they use
only the Graph type and its unbounded `distances_from`.
`subgraph_find_hole` and `subgraph_r_locally_chordal` are the hole search
and the r-local test as they were before they ran on the host's adjacency:
one induced subgraph per probed path u-v-w, and one ball subgraph per
centre, decided by the kernels above.  `hole_searching_maximal_cliques`
is `maximal_cliques(require_chordal=False)` as it was before it skipped
the hole search.
`subgraph_ball_check` is `verify_cover`'s r/2-ball check as it was
before it compared vertex sets: both balls built as induced subgraphs, and
every pair of window ball vertices tested for an edge on both sides.
`recursive_long_induced_cycle` is the search of `is_r_chordal` as it was
before it kept its path on an explicit stack: one recursive call per path
vertex, so a cycle longer than the recursion limit raised RecursionError.
`scan_fold` is `fold` as it was before one deck-orbit key served bags and
separations: each bag keyed by the least picture over its members' word
inverses, model and co-part edges projected by separate loops, and each
vertex's lift found by a scan of the window for its shortest word.
`scan_separation_signature` is the separation key of that time, written
out on its own.  `subgraph_verify_td` is `verify_td` as it was before it
counted: one induced subtree per vertex, tested for connectivity.
`scan_uncovered` is the coverage test as it was before it indexed the
bags holding each vertex: every bag scanned for every edge.
`counting_verify_td`, `checked_graph_from_json` and `checked_td_from_json`
are `verify_td` and the graph and tree-decomposition readers as they were
before one pass over the bags read and checked them: the tree checked for
connectivity by a component search, coverage read off one bitmask per
vertex over the sorted list of all edges, connectivity of each vertex's
node set by counting its bags less its adhesions, and every node, bag,
vertex and edge of the JSON checked on its own, edges also by the graph
constructor of that time (`checked_graph`).
`scan_automorphism_generators` is `automorphism_generators` as it was
before twins and union-find orbits: every image searched by backtracking,
its generators checked pair by pair, and the orbit recomputed from
scratch after each generator.  `scan_tree_automorphisms` is the tree
action search of that time: every node tried as the image of every node,
checked for adjacency and non-adjacency against every mapped node.
`star_walk_build_td` is `build_td_from_nested` as it was before the
laminar pass: each oriented separation walks all of them in ascending
order for the minimal ones above it, and its node is read off that star.
`tree_side` and `bfs_induced_separation` are `induced_separation` as it
was before one pass over the tree gave every edge's sides: a search of
the tree for one edge's side, and the union of the bags on each side;
the tree constructions above certify their edges with it.
`first_crossing_pair` is the pairwise nestedness test that
`build_td_from_nested` ran on every input before its one-pass
certificate (`construct_N` ran the same test on each order's selection),
and `pairwise_nestedness_verdict` is that function's verdict of the time:
properness, then the pairwise test.  `pairwise_construct_N` keeps the
per-level test and its own `NestednessViolation`.
`orbit_contract_to_maximal` is `contract_to_maximal` as it was before it
contracted single edges only: it takes a partition of the tree edges into
orbits, contracts an orbit only if it is a matching, and raises its own
`OrbitNotMatching` otherwise; like `closure_build_td` it uses the tree
check `_check_tree`.
Values produced by these functions are compared against the package's
own algorithms.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import networkx as nx

from cliquedec.chordal import (
    MaximalClique,
    _bron_kerbosch,
    clique_tree,
    is_chordal,
    maximal_cliques,
)
from cliquedec.covers import (
    CoverWindow,
    GraphDecomposition,
    VoltagePresentation,
    derive_window,
    word_inv,
    word_mul,
)
from cliquedec.errors import (
    ActionMismatch,
    CliquedecError,
    EmptyBottleneckSelection,
    ImproperSeparation,
    InvariantViolation,
    LoopEdge,
    NotATree,
    NotNested,
    PreconditionViolated,
    TooLarge,
    UnknownVertex,
)
from cliquedec.graph import (
    INFINITY,
    Graph,
    _json_fields,
    _json_list,
    _json_pair,
    _json_strings,
)
from cliquedec.nested import NestedSetLevels, crossing_count
from cliquedec.separations import (
    CROSSING,
    NESTED,
    Separation,
    _VertexFlow,
    beta,
    by_key,
    classify,
    clique_min_separators,
    relate,
    separation_from_separator,
)
from cliquedec.symmetry import (
    AUTOMORPHISM_BUDGET,
    GROUP_ORDER_BOUND,
    AutomorphismSet,
    _refine_colors,
)
from cliquedec.treedec import TreeDecomposition, _check_tree, verify_td


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edges())
    return h


def nx_is_chordal(g: Graph) -> bool:
    return nx.is_chordal(to_nx(g))


def nx_maximal_cliques(g: Graph) -> Set[FrozenSet[str]]:
    return {frozenset(c) for c in nx.find_cliques(to_nx(g))}


def nx_chordal_cliques(g: Graph) -> Set[FrozenSet[str]]:
    """Maximal cliques via networkx's elimination-based chordal routine."""
    return {frozenset(c) for c in nx.chordal_graph_cliques(to_nx(g))}


def separates(g: Graph, s: FrozenSet[str], x: FrozenSet[str], y: FrozenSet[str]) -> bool:
    """Does s meet every X-Y path?  (Full Menger convention: a vertex of
    x & y is itself a path, so it must lie in s.)"""
    if not (x & y) <= s:
        return False
    comps = [c for c, _ in g.components_after_deletion(s)]
    for c in comps:
        if c & (x - s) and c & (y - s):
            return False
    return True


def brute_min_separators(
    g: Graph, x: Sequence[str], y: Sequence[str]
) -> Tuple[int, List[FrozenSet[str]]]:
    """Minimum X-Y separator size and all separators of that size, by
    exhaustive subset enumeration in increasing size."""
    xf, yf = frozenset(x), frozenset(y)
    vs = list(g.vertices)
    for k in range(len(vs) + 1):
        found = [
            frozenset(s)
            for s in itertools.combinations(vs, k)
            if separates(g, frozenset(s), xf, yf)
        ]
        if found:
            return k, found
    raise AssertionError("the whole vertex set always separates")


def flow_min_separators(g: Graph, x: Sequence[str], y: Sequence[str]) -> List[FrozenSet[str]]:
    """All X-Y separators of minimum size.

    Minimum vertex cuts correspond to the residual-closed node sets of a
    max flow; they are enumerated through the condensation DAG.
    """
    xf, yf = frozenset(x), frozenset(y)
    flow = _VertexFlow(g, xf, yf)
    k = flow.value
    nodes = list(flow.cap.keys())
    succ = {a: [b for b, c in flow.cap[a].items() if c > 0] for a in nodes}
    comp_of, comps = _scc(nodes, succ)
    m = len(comps)
    csucc = [set() for _ in range(m)]
    for a in nodes:
        for b in succ[a]:
            if comp_of[a] != comp_of[b]:
                csucc[comp_of[a]].add(comp_of[b])
    cs, ct = comp_of["s"], comp_of["t"]

    # mandatory membership: everything reachable from s; forbidden:
    # t and its ancestors (their inclusion would drag t in)
    reach_s = _closure({cs}, csucc)
    cpred = [set() for _ in range(m)]
    for i in range(m):
        for j in csucc[i]:
            cpred[j].add(i)
    anc_t = _closure({ct}, cpred)
    if reach_s & anc_t:
        raise AssertionError("t is reachable from s in the residual graph: flow not maximum")
    # components whose successor-closure would drag t in can never be chosen
    blocked = _closure(anc_t, cpred)
    free = [i for i in range(m) if i not in reach_s and i not in blocked]
    free_set = set(free)
    order = _topo(free, {i: [j for j in csucc[i] if j in free_set] for i in free})
    order.reverse()  # sinks first, so successors are decided before i

    cuts = set()

    def emit(chosen: set):
        inside = reach_s | chosen
        sep = frozenset(
            v
            for v in g.vertices
            if comp_of[("in", v)] in inside and comp_of[("out", v)] not in inside
        )
        cuts.add(sep)

    # enumerate successor-closed subsets; every DFS leaf is a valid set
    def rec(idx: int, chosen: set):
        if idx == len(order):
            emit(chosen)
            return
        c = order[idx]
        rec(idx + 1, chosen)
        if all(j in chosen or j in reach_s for j in csucc[c]):
            chosen.add(c)
            rec(idx + 1, chosen)
            chosen.discard(c)

    rec(0, set())
    out = [s for s in cuts if len(s) == k]
    if not out:
        raise AssertionError("max-flow min cut lost during enumeration")
    return sorted(out, key=lambda s: tuple(g.key(v) for v in g.sorted(s)))


def _topo(nodes, succ):
    """Topological order of a DAG (predecessors before successors)."""
    seen = set()
    out = []

    def visit(n):
        stack = [(n, iter(succ[n]))]
        seen.add(n)
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append((nxt, iter(succ[nxt])))
                    advanced = True
                    break
            if not advanced:
                out.append(node)
                stack.pop()

    for n in nodes:
        if n not in seen:
            visit(n)
    out.reverse()
    return out


def _closure(seed, succ):
    seen = set(seed)
    queue = list(seed)
    while queue:
        a = queue.pop()
        for b in succ[a]:
            if b not in seen:
                seen.add(b)
                queue.append(b)
    return seen


def _scc(nodes, succ):
    """Iterative Tarjan; returns (node -> comp index, list of comps)."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    comp_of = {}
    comps = []
    counter = [0]

    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(succ[nxt])))
                    advanced = True
                    break
                elif nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    comp_of[w] = len(comps)
                    if w == node:
                        break
                comps.append(comp)
    return comp_of, comps


def explicit_beta(g: Graph, x: MaximalClique, y: MaximalClique) -> Tuple[Separation, ...]:
    """The separations of beta(g, x, y), expanded for this pair alone.

    For each minimum separator S, every side assignment of the free
    components of G - S is built, validated and classified afresh; nothing
    is shared between pairs or cached.
    """
    xs, ys = x.vertices, y.vertices
    out = []
    for sep in clique_min_separators(g, xs, ys):
        forced = {}
        free = []
        for comp, _full in g.components_after_deletion(sep):
            if comp & xs:
                forced[comp] = "A"
            elif comp & ys:
                forced[comp] = "B"
            else:
                free.append(comp)
        for mask in range(1 << len(free)):
            assignment = dict(forced)
            for i, comp in enumerate(free):
                assignment[comp] = "A" if (mask >> i) & 1 else "B"
            s = separation_from_separator(g, sep, assignment)
            if classify(g, s).tight:
                out.append(s)
    return tuple(sorted(set(out)))


def explicit_part(g: Graph, sep: FrozenSet[str], u: str, v: str) -> Tuple[Separation, ...]:
    """The bottleneck part (S, C_u, C_v), sorted: every assignment of the
    other components of G - S to the sides, with C_u on side A and C_v on
    side B, built afresh by `separation_from_separator`."""
    comps = [comp for comp, _ in g.components_after_deletion(sep)]
    cu, cv = (next(comp for comp in comps if w in comp) for w in (u, v))
    free = [comp for comp in comps if comp not in (cu, cv)]
    part = set()
    for sides in itertools.product("AB", repeat=len(free)):
        assignment = {cu: "A", cv: "B", **dict(zip(free, sides))}
        part.add(separation_from_separator(g, sep, assignment))
    return tuple(sorted(part))


def orientation_relate(s1: Separation, s2: Separation) -> str:
    """'nested' iff some orientations satisfy A <= C and B >= D, tried in turn."""
    for a, b in s1.orientations():
        for c, d in s2.orientations():
            if a <= c and b >= d:
                return NESTED
    return CROSSING


def pairwise_is_automorphism(g: Graph, phi: Dict[str, str]) -> bool:
    """Bijection test plus one `has_edge` comparison per vertex pair: O(n^2)."""
    if sorted(phi) != sorted(phi.values()) or set(phi) != set(g.vertices):
        return False
    for u in g.vertices:
        for v in g.vertices:
            if g.has_edge(u, v) != g.has_edge(phi[u], phi[v]):
                return False
    return True


def all_images_automorphisms(g: Graph) -> Tuple[List[Dict[str, str]], List[List[str]]]:
    """Generators of Aut(G) and, per base level i, the images of
    vertices[i] under the automorphisms fixing vertices[:i] pointwise.

    The stabilizer chain that tries every image at every level, with one
    generator per image; the group order is the product of the level
    sizes.  Kept verbatim, except that it has no vertex cap and returns the
    images of each level instead of the rounded order.
    """
    color = _refine_colors(g)
    vertices = list(g.vertices)
    n = len(vertices)
    generators: List[Dict[str, str]] = []
    levels: List[List[str]] = []

    def extend(mapping: Dict[str, str], used: set) -> Optional[Dict[str, str]]:
        """Complete a partial mapping to a full automorphism by backtracking."""
        if len(mapping) == n:
            return dict(mapping)
        v = next(u for u in vertices if u not in mapping)
        for w in vertices:
            if w in used or color[w] != color[v]:
                continue
            ok = True
            for u, img in mapping.items():
                if g.has_edge(v, u) != g.has_edge(w, img):
                    ok = False
                    break
            if not ok:
                continue
            mapping[v] = w
            used.add(w)
            res = extend(mapping, used)
            if res is not None:
                return res
            del mapping[v]
            used.discard(w)
        return None

    # stabilizer chain over the canonical base: at level i, count images of
    # vertices[i] under automorphisms fixing vertices[:i] pointwise
    for i, v in enumerate(vertices):
        images = []
        for w in vertices:
            if color[w] != color[v]:
                continue
            mapping = {vertices[j]: vertices[j] for j in range(i)}
            if w in mapping.values() and w != v:
                continue
            if any(
                g.has_edge(v, u) != g.has_edge(w, u) for u in mapping
            ):
                continue
            mapping[v] = w
            res = extend(mapping, set(mapping.values()))
            if res is not None:
                images.append(w)
                if w != v:
                    generators.append(res)
        levels.append(images)
    for phi in generators:
        if not pairwise_is_automorphism(g, phi):
            raise AssertionError(f"generator {phi} is not an automorphism")
    return generators, levels


def orbit_of(point: str, generators: Iterable[Dict[str, str]]) -> Set[str]:
    """The orbit of point under the group the generators generate."""
    orbit, queue = {point}, [point]
    while queue:
        x = queue.pop()
        for phi in generators:
            if phi[x] not in orbit:
                orbit.add(phi[x])
                queue.append(phi[x])
    return orbit


def scan_automorphism_generators(g: Graph) -> AutomorphismSet:
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
        orbit = orbit_of(v, generators)
        for w in vertices[i + 1:]:
            if w in orbit or not fits(v, w, fixed, used):
                continue
            phi = extend({**fixed, v: w}, used | {w})
            if phi is not None:
                if not pairwise_is_automorphism(g, phi):
                    raise InvariantViolation("search found a map that is not an automorphism")
                generators.append(phi)
                orbit = orbit_of(v, generators)
        order *= len(orbit)
    return AutomorphismSet(
        generators=tuple(generators),
        group_order=order if order <= GROUP_ORDER_BOUND else None,
    )


def scan_tree_automorphisms(
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


def brute_minimal_separators(g: Graph) -> Set[FrozenSet[str]]:
    """All minimal u-v separators by exhaustive subset enumeration.

    S is a minimal separator iff it separates some nonadjacent pair u,v
    and no proper subset of S separates that same pair.
    """
    vs = list(g.vertices)
    out = set()
    pairs = [
        (u, v)
        for i, u in enumerate(vs)
        for v in vs[i + 1 :]
        if not g.has_edge(u, v)
    ]
    for size in range(1, len(vs) - 1):
        for s in itertools.combinations(vs, size):
            sf = frozenset(s)
            for u, v in pairs:
                if u in sf or v in sf:
                    continue
                if not _pair_separated(g, sf, u, v):
                    continue
                if any(
                    _pair_separated(g, sf - {w}, u, v) for w in sf
                ):
                    continue
                out.add(sf)
                break
    return out


def _pair_separated(g: Graph, s: FrozenSet[str], u: str, v: str) -> bool:
    for c, _ in g.components_after_deletion(s):
        if u in c and v in c:
            return False
    return True


def random_graph(n: int, p: float, rng) -> Graph:
    vs = [f"v{i}" for i in range(n)]
    edges = [
        (u, v)
        for i, u in enumerate(vs)
        for v in vs[i + 1 :]
        if rng.random() < p
    ]
    return Graph(vs, edges)


def random_clique(g: Graph, rng) -> List[str]:
    """Grow a random maximal clique greedily from a random start vertex."""
    v = rng.choice(list(g.vertices))
    clique = [v]
    candidates = set(g.neighbors(v))
    while candidates:
        w = rng.choice(sorted(candidates))
        clique.append(w)
        candidates &= g.neighbors(w)
    return clique


def connected_graphs_up_to_iso(max_n: int) -> List[Graph]:
    """All connected graphs on 1..max_n vertices, one per isomorphism class.

    Built by augmentation: every connected n-vertex graph arises from a
    connected (n-1)-vertex graph by adding a vertex joined to a nonempty
    subset (delete a non-cutvertex to descend).  Deduplication groups by
    cheap invariants and settles ties with networkx isomorphism.
    """
    levels: List[List[nx.Graph]] = [[nx.Graph([("v0", "v0")])]]
    levels[0][0].remove_edges_from(list(levels[0][0].edges))
    out = [Graph(["v0"])]
    for n in range(2, max_n + 1):
        buckets = {}
        reps = []
        new_vertex = f"v{n-1}"
        for base in levels[-1]:
            others = list(base.nodes)
            for k in range(1, len(others) + 1):
                for attach in itertools.combinations(others, k):
                    h = base.copy()
                    h.add_node(new_vertex)
                    h.add_edges_from((new_vertex, u) for u in attach)
                    key = _invariant(h)
                    bucket = buckets.setdefault(key, [])
                    if not any(nx.is_isomorphic(h, other) for other in bucket):
                        bucket.append(h)
                        reps.append(h)
        levels.append(reps)
        for h in reps:
            out.append(Graph(sorted(h.nodes), sorted(tuple(sorted(e)) for e in h.edges)))
    return out


def _invariant(h: nx.Graph):
    degs = tuple(sorted(d for _, d in h.degree()))
    tri = tuple(sorted(nx.triangles(h).values()))
    return (h.number_of_nodes(), h.number_of_edges(), degs, tri)


def closure_build_td(g: Graph, n: Iterable[Separation]) -> TreeDecomposition:
    """Tree-decomposition whose induced separations are exactly n, built
    by closure: the tree builder as it was before the star rule.

    Nodes are equivalence classes of oriented separations: (A,B) and (C,D)
    point at the same node iff (A,B) <= (D,C) with nothing strictly in
    between.  The bag of a node is the intersection of the sides pointing
    at it.  The edge-to-separation bijection is verified before returning.

    Every pair of oriented separations is tested against every third one
    (O(m^3)), the results are merged with a union-find, and each bag is
    intersected over the down-closure of its class.  From the package it
    uses `classify`, `relate` and `CROSSING` for the validation, and
    `_check_tree`, `verify_td`, `bfs_induced_separation` and
    `TreeDecomposition` for the post-checks and the result.
    """
    if not g.is_connected():
        raise PreconditionViolated("graph must be connected")
    seps = sorted(set(n))
    for i, s in enumerate(seps):
        cl = classify(g, s)
        if not cl.proper:
            raise ImproperSeparation(f"{s} is improper")
        for t in seps[i + 1 :]:
            if relate(s, t) == CROSSING:
                raise NotNested(f"{s} crosses {t}")

    if not seps:
        return TreeDecomposition(
            tree=Graph(["t0"]), bags={"t0": frozenset(g.vertices)}
        )

    oriented: List[Tuple[FrozenSet[str], FrozenSet[str]]] = []
    for s in seps:
        oriented.extend(s.orientations())

    def leq(p, q):
        return p[0] <= q[0] and p[1] >= q[1]

    def rev(p):
        return (p[1], p[0])

    def immediate(p, q):
        """p <= q with no oriented separation strictly between."""
        if not leq(p, q):
            return False
        for r in oriented:
            if r != p and r != q and leq(p, r) and leq(r, q):
                return False
        return True

    # p ~ q  iff  p = q, or p <= rev(q) immediately (and p is not rev(q))
    parent = {p: p for p in oriented}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    def union(p, q):
        rp, rq = find(p), find(q)
        if rp != rq:
            parent[rp] = rq

    for i, p in enumerate(oriented):
        for q in oriented[i + 1 :]:
            if p != rev(q) and immediate(p, rev(q)):
                union(p, q)

    classes: Dict[Tuple, List[Tuple]] = {}
    for p in oriented:
        classes.setdefault(find(p), []).append(p)

    node_of = {p: find(p) for p in oriented}
    reps = sorted(classes, key=lambda r: (tuple(sorted(r[0])), tuple(sorted(r[1]))))
    names = {rep: f"t{i}" for i, rep in enumerate(reps)}

    bags = {}
    for rep in reps:
        # everything pointing at this node: the down-closure of the class
        members = classes[rep]
        pointing = [p for p in oriented if any(leq(p, q) for q in members)]
        bag = frozenset(g.vertices)
        for p in pointing:
            bag &= p[1]
        bags[names[rep]] = bag

    edges = []
    for s in seps:
        p, q = s.orientations()
        edges.append((names[node_of[q]], names[node_of[p]]))
        # p = (A,B) points at the node on the B-side, i.e. class(p)'s bag
        # lies in B; the edge for s joins class(p) and class(rev(p))

    td = TreeDecomposition(tree=Graph([names[r] for r in reps], edges), bags=bags)
    _check_tree(td.tree)
    if not verify_td(g, td)["ok"]:
        raise InvariantViolation("constructed decomposition failed verify_td")
    induced = {bfs_induced_separation(g, td, e) for e in td.tree.edges()}
    if induced != set(seps):
        raise InvariantViolation("tree edges do not biject onto the separations")
    return td



def tree_side(tree: Graph, t1: str, t2: str) -> Set[str]:
    """Nodes on t1's side of the tree edge t1-t2."""
    side, stack = {t1, t2}, [t1]
    while stack:
        for w in tree.neighbors(stack.pop()) - side:
            side.add(w)
            stack.append(w)
    side.discard(t2)
    return side


def bfs_induced_separation(g: Graph, td: TreeDecomposition, f: Tuple[str, str]) -> Separation:
    """The separation {A1, A2} with Ai = union of bags on side i of tree
    edge f, from one search of the tree for f alone."""
    t1, t2 = f
    if not td.tree.has_edge(t1, t2):
        raise ValueError(f"{f!r} is not a tree edge")
    side1 = tree_side(td.tree, t1, t2)
    a1 = frozenset().union(*(td.bags[t] for t in side1))
    a2 = frozenset().union(*(td.bags[t] for t in set(td.tree.vertices) - side1))
    s = Separation(a1, a2)
    if s.separator != td.bags[t1] & td.bags[t2]:
        raise InvariantViolation(f"adhesion of tree edge {f!r} is not the separator")
    return s


def first_crossing_pair(seps: Iterable[Separation]) -> Optional[Tuple[Separation, Separation]]:
    """The first pair of seps in key order that crosses, by one `relate`
    per pair, or None if seps is nested."""
    for s, t in itertools.combinations(sorted(set(seps), key=by_key), 2):
        if relate(s, t) == CROSSING:
            return s, t
    return None


def pairwise_nestedness_verdict(g: Graph, n: Iterable[Separation]) -> str:
    """What `build_td_from_nested` raises on n, or "ok", by the checks it
    made before its certificate: properness of each separation, then every
    pair tested for crossing."""
    seps = set(n)
    if any(s.sideA <= s.sideB or s.sideB <= s.sideA for s in seps):
        return "ImproperSeparation"
    return "ok" if first_crossing_pair(seps) is None else "NotNested"


def star_walk_build_td(g: Graph, n: Iterable[Separation]) -> TreeDecomposition:
    """Tree-decomposition whose induced separations are exactly n, built
    by a star walk: the tree builder as it was before the laminar pass.

    Each node is a star of the nested set: an oriented separation (A,B)
    with the inverses of the minimal oriented separations strictly above
    it.  The bag of a node is the intersection of the B-sides of its star.
    The edge-to-separation bijection is verified before returning.

    Every oriented separation walks all of them in ascending order
    (O(m^2) frozenset comparisons, times the star's size).  From the
    package it uses `classify`, `relate`, `CROSSING` and `by_key` for the
    validation, and `verify_td`, `bfs_induced_separation` and
    `TreeDecomposition` for the post-checks and the result.
    """
    if not g.is_connected():
        raise PreconditionViolated("graph must be connected")
    seps = sorted(set(n), key=by_key)
    for i, s in enumerate(seps):
        cl = classify(g, s)
        if not cl.proper:
            raise ImproperSeparation(f"{s} is improper")
        for t in seps[i + 1 :]:
            if relate(s, t) == CROSSING:
                raise NotNested(f"{s} crosses {t}")

    if not seps:
        return TreeDecomposition(
            tree=Graph(["t0"]), bags={"t0": frozenset(g.vertices)}
        )

    oriented = [p for s in seps for p in s.orientations()]

    def leq(p, q):
        return p[0] <= q[0] and p[1] >= q[1]

    # every oriented separation comes after all those strictly below it
    ascending = sorted(oriented, key=lambda p: (len(p[0]), -len(p[1])))
    node_of = {}
    for p in oriented:
        minimal: List[Tuple[FrozenSet[str], FrozenSet[str]]] = []
        for r in ascending:
            if r != p and leq(p, r) and not any(leq(q, r) for q in minimal):
                minimal.append(r)
        node_of[p] = frozenset([p, *((b, a) for a, b in minimal)])

    # each node keeps its last member in `oriented`, whose sides order the names
    rep = {x: p for p, x in node_of.items()}
    nodes = sorted(rep, key=lambda x: (tuple(sorted(rep[x][0])), tuple(sorted(rep[x][1]))))
    names = {x: f"t{i}" for i, x in enumerate(nodes)}
    bags = {names[x]: frozenset.intersection(*(b for _, b in x)) for x in nodes}

    # p = (A,B) points at the node on its B-side; s joins the nodes of p and q
    edges = [
        (names[node_of[q]], names[node_of[p]]) for p, q in map(Separation.orientations, seps)
    ]

    td = TreeDecomposition(tree=Graph([names[x] for x in nodes], edges), bags=bags)
    if not verify_td(g, td)["ok"]:
        raise InvariantViolation("constructed decomposition failed verify_td")
    induced = {bfs_induced_separation(g, td, e) for e in td.tree.edges()}
    if induced != set(seps):
        raise InvariantViolation("tree edges do not biject onto the separations")
    return td

def quadratic_mcs_order(g: Graph) -> List[str]:
    """Maximum-cardinality search order; its reverse is a PEO iff g is chordal.

    Re-sorts every unvisited vertex at every step: O(n^2 log n).
    """
    weight = {v: 0 for v in g.vertices}
    visited = []
    unvisited = set(g.vertices)
    while unvisited:
        v = max(g.sorted(unvisited), key=lambda u: weight[u])
        # max() keeps the first maximum, so ties go to the canonical order
        visited.append(v)
        unvisited.discard(v)
        for w in g.neighbors(v):
            if w in unvisited:
                weight[w] += 1
    return visited


def pairwise_verify_peo(g: Graph, order: List[str]) -> Optional[Tuple[str, str, str]]:
    """Return (v, u, w) with u, w nonadjacent later neighbors of v, or None.

    Tests every pair of later neighbours of every vertex.
    """
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        later = g.sorted(u for u in g.neighbors(v) if pos[u] > pos[v])
        for i, u in enumerate(later):
            for w in later[i + 1 :]:
                if not g.has_edge(u, w):
                    return (v, u, w)
    return None


def full_bfs_ball(g: Graph, v: str, radius2: int) -> Graph:
    """Ball of radius radius2/2 around v, from an unbounded BFS over v's
    component and a scan of every host vertex."""
    if radius2 < 0:
        raise ValueError("radius2 must be nonnegative")
    k = radius2 // 2
    dist = g.distances_from(v)
    vs = [u for u in g.vertices if dist.get(u, INFINITY) <= k]
    return _scan_induced(g, vs)


def _scan_induced(g: Graph, vs: Iterable[str]) -> Graph:
    """Induced subgraph, ordered by a scan of the host's vertices."""
    keep = set(vs)
    order = [v for v in g.vertices if v in keep]
    edges = [
        (u, v)
        for u in order
        for v in g.neighbors(u)
        if v in keep and g.key(u) < g.key(v)
    ]
    return Graph(order, edges)


def subgraph_find_hole(g: Graph) -> Optional[List[str]]:
    """An induced cycle of length >= 4, or None: for each induced path
    u-v-w, a shortest u-w path in the subgraph induced by V - (N[v] - {u, w})."""
    for v in g.vertices:
        nbrs = g.sorted(g.neighbors(v))
        for i, u in enumerate(nbrs):
            for w in nbrs[i + 1 :]:
                if g.has_edge(u, w):
                    continue
                forbidden = (set(g.neighbors(v)) | {v}) - {u, w}
                sub = g.induced(set(g.vertices) - forbidden)
                if u not in sub or w not in sub:
                    continue
                path = _subgraph_shortest_path(sub, u, w)
                if path is not None:
                    return [v] + path
    return None


def _subgraph_shortest_path(g: Graph, u: str, w: str) -> Optional[List[str]]:
    prev = {u: None}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        if x == w:
            path = []
            while x is not None:
                path.append(x)
                x = prev[x]
            return path[::-1]
        for y in g.sorted(g.neighbors(x)):
            if y not in prev:
                prev[y] = x
                queue.append(y)
    return None


def subgraph_r_locally_chordal(g: Graph, r: int):
    """The first centre whose ball of radius r/2, built as a subgraph, is not
    chordal, with that ball's hole; (True, None) if there is none."""
    for v in g.vertices:
        sub = full_bfs_ball(g, v, r)
        if pairwise_verify_peo(sub, quadratic_mcs_order(sub)[::-1]) is not None:
            return False, (v, subgraph_find_hole(sub))
    return True, None


def subgraph_ball_check(pres: VoltagePresentation, r: int, L: int):
    """(centres checked, the first whose window ball the projection does not
    map isomorphically onto its base ball, or None), over the centres at
    least r // 2 voltage-steps inside the window of radius L."""
    win, g = derive_window(pres, L), pres.base
    checked = 0
    for x in win.window.vertices:
        if not win.safe(x, r // 2):
            continue
        checked += 1
        up = win.window.ball(x, r)
        down = g.ball(win.base_of[x], r)
        images = [win.base_of[y] for y in up.vertices]
        iso = (
            len(set(images)) == len(up)
            and set(images) == set(down.vertices)
            and all(
                up.has_edge(y, z) == down.has_edge(win.base_of[y], win.base_of[z])
                for y, z in itertools.combinations(up.vertices, 2)
            )
        )
        if not iso:
            return checked, x
    return checked, None


def recursive_long_induced_cycle(g: Graph, r: int) -> Optional[List[str]]:
    """An induced cycle of length > r, or None: one recursive call per path
    vertex of a depth-first search over induced paths from each start, the
    cycle's canonically least vertex being the start."""
    if len(g) <= r:
        return None
    for start in g.vertices:
        k0 = g.key(start)

        def extend(path, on_path):
            for nxt in g.sorted(g.neighbors(path[-1])):
                if g.key(nxt) <= k0 or nxt in on_path:
                    continue
                if any(g.has_edge(nxt, p) for p in path[1:-1]):
                    continue
                if len(path) >= 2 and g.has_edge(nxt, start):
                    if len(path) + 1 > r:
                        return path + [nxt]
                    continue
                path.append(nxt)
                on_path.add(nxt)
                found = extend(path, on_path)
                if found is not None:
                    return found
                path.pop()
                on_path.discard(nxt)
            return None

        res = extend([start], {start})
        if res is not None:
            return res
    return None


def hole_searching_maximal_cliques(g: Graph) -> List[MaximalClique]:
    """The clique tree's cliques if g is chordal; otherwise, once a hole has
    been found, Bron-Kerbosch in canonical order."""
    if is_chordal(g)[0]:
        return [MaximalClique(c) for c in clique_tree(g).cliques]
    found = []
    _bron_kerbosch(g, set(), set(g.vertices), set(), found)
    uniq = sorted(set(found), key=lambda c: tuple(g.key(v) for v in g.sorted(c)))
    return [MaximalClique(c) for c in uniq]


def pairwise_construct_N(g: Graph) -> NestedSetLevels:
    """The canonical nested set from one bottleneck per clique pair.

    Order by order, each pair's bottleneck is filtered against the lower
    levels and its least-crossing members are kept; O(pairs) bottlenecks,
    each filtered on its own.
    """
    if not g.is_connected():
        raise PreconditionViolated("graph must be connected")
    cliques = maximal_cliques(g)
    by_order = {}
    for i, x in enumerate(cliques):
        for y in cliques[i + 1 :]:
            b = beta(g, x, y, check=False)
            by_order.setdefault(b.order, []).append(((x, y), b))

    result = NestedSetLevels()
    for k in sorted(by_order):
        level_bottlenecks = by_order[k]
        pool = sorted({s for _, b in level_bottlenecks for s in b.separations})
        xk = {s: crossing_count(s, pool) for s in pool}
        chosen_level = set()
        for pair, b in level_bottlenecks:
            candidates = [
                s
                for s in b.separations
                if all(relate(s, t) == NESTED for t in result.union)  # lower levels
            ]
            if not candidates:
                raise EmptyBottleneckSelection(
                    f"no candidate for clique pair {pair} at order {k}"
                )
            best = min(xk[s] for s in candidates)
            chosen_level.update(s for s in candidates if xk[s] == best)
        chosen_sorted = sorted(chosen_level)
        for i, s in enumerate(chosen_sorted):
            for t in chosen_sorted[i + 1 :]:
                if relate(s, t) == CROSSING:
                    raise NestednessViolation(f"{s} crosses {t} within level {k}")
        result.levels[k] = chosen_level
        result.union |= chosen_level
    return result


def _scan_orbit_key(win: CoverWindow, vs: Iterable[str]):
    """Least picture of a vertex set over its members' word inverses."""
    members = list(vs)
    best = None
    for m in members:
        t = word_inv(win.word_of[m])
        pic = tuple(
            sorted((win.base_of[x], word_mul(t, win.word_of[x])) for x in members)
        )
        if best is None or pic < best:
            best = pic
    return best


def scan_separation_signature(win: CoverWindow, s: Separation):
    """Deck-orbit key of a separation: the least (separator picture, sorted
    side pictures) over the separator's members' word inverses."""
    sep = sorted(s.separator)
    nbrs = set()
    for x in sep:
        nbrs |= win.window.neighbors(x)
    nbrs -= set(sep)
    side_a = frozenset(nbrs & (s.sideA - s.sideB))
    side_b = frozenset(nbrs & (s.sideB - s.sideA))
    best = None
    for m in sep:
        t = word_inv(win.word_of[m])

        def pic(xs):
            return tuple(sorted((win.base_of[x], word_mul(t, win.word_of[x])) for x in xs))

        sides = tuple(sorted((pic(side_a), pic(side_b))))
        cand = (pic(sep), sides)
        if best is None or cand < best:
            best = cand
    return best


def scan_fold(
    pres: VoltagePresentation, win: CoverWindow, td: TreeDecomposition
) -> GraphDecomposition:
    """The deck quotient of td: interior nodes keyed by `_scan_orbit_key`,
    model and co-part edges projected separately, and each vertex's lift
    found as the shortest-word lift by a scan of the window."""
    g = pres.base
    interior = {
        t for t in td.tree.vertices if all(win.safe(x, 2) for x in td.bags[t])
    }
    orbit_key = {t: _scan_orbit_key(win, td.bags[t]) for t in interior}
    keys = sorted(set(orbit_key.values()))
    names = {k: f"h{i}" for i, k in enumerate(keys)}

    bags: Dict[str, FrozenSet[str]] = {}
    for t in interior:
        h = names[orbit_key[t]]
        projected = frozenset(win.base_of[x] for x in td.bags[t])
        if h in bags and bags[h] != projected:
            raise ActionMismatch(
                f"orbit {h} projects to different bags; enlarge the window"
            )
        bags[h] = projected

    model_edges = set()
    for t1, t2 in td.tree.edges():
        if t1 in interior and t2 in interior:
            h1, h2 = names[orbit_key[t1]], names[orbit_key[t2]]
            if h1 == h2:
                raise ActionMismatch("tree edge folds to a loop; enlarge the window")
            model_edges.add(tuple(sorted((h1, h2))))
    model = Graph([names[k] for k in keys], sorted(model_edges))

    coparts: Dict[str, Graph] = {}
    for v in g.vertices:
        lifts = [x for x in win.window.vertices if win.base_of[x] == v]
        x0 = min(lifts, key=lambda x: (len(win.word_of[x]), x))
        t_nodes = [t for t in td.tree.vertices if x0 in td.bags[t]]
        if not all(t in interior for t in t_nodes):
            raise ActionMismatch(
                f"the lift of {v!r} touches non-interior tree nodes; enlarge the window"
            )
        sub_nodes = sorted({names[orbit_key[t]] for t in t_nodes}, key=model.key)
        sub_edges = set()
        for t1, t2 in td.tree.edges():
            if t1 in t_nodes and t2 in t_nodes:
                sub_edges.add(
                    tuple(sorted((names[orbit_key[t1]], names[orbit_key[t2]])))
                )
        coparts[v] = Graph(sub_nodes, sorted(sub_edges))
    return GraphDecomposition(model=model, bags=bags, coparts=coparts)


def subgraph_verify_td(g: Graph, td: TreeDecomposition) -> dict:
    """Coverage and connectivity of a tree-decomposition, testing each
    vertex's node set by building the induced subtree."""
    _check_tree(td.tree)
    if set(td.bags) != set(td.tree.vertices):
        raise NotATree("bags and tree nodes do not match")
    uncovered_vertices, uncovered_edges = scan_uncovered(g, list(td.bags.values()))
    report = {
        "ok": True,
        "uncovered_vertices": uncovered_vertices,
        "uncovered_edges": uncovered_edges,
        "disconnected": [],
    }
    for v in g.vertices:
        nodes = [t for t in td.tree.vertices if v in td.bags[t]]
        if nodes and not td.tree.induced(nodes).is_connected():
            report["disconnected"].append(v)
    report["ok"] = not (
        report["uncovered_vertices"] or report["uncovered_edges"] or report["disconnected"]
    )
    return report


def scan_uncovered(
    g: Graph, bags: Sequence[FrozenSet[str]]
) -> Tuple[List[str], List[Tuple[str, str]]]:
    """The vertices and the edges of g that lie in no bag."""
    covered = frozenset().union(*bags)
    vertices = [v for v in g.vertices if v not in covered]
    edges = [(u, v) for u, v in g.edges() if not any(u in b and v in b for b in bags)]
    return vertices, edges


def counting_verify_td(g: Graph, td: TreeDecomposition) -> dict:
    """Coverage and connectivity of a tree-decomposition: bag bitmasks per
    vertex tested on every edge, and each vertex's bags less its adhesions."""
    if len(td.tree) == 0:
        raise NotATree("empty tree")
    if not td.tree.is_connected():
        raise NotATree("tree is disconnected")
    if td.tree.edge_count() != len(td.tree) - 1:
        raise NotATree("tree contains a cycle")
    if set(td.bags) != set(td.tree.vertices):
        raise NotATree("bags and tree nodes do not match")
    for t, b in td.bags.items():
        foreign = [v for v in b if v not in g]
        if foreign:
            raise UnknownVertex(f"the bag of node {t!r} holds {min(foreign)!r}, not in the graph")
    holding: Dict[str, int] = {}
    for i, b in enumerate(td.bags.values()):
        for v in b:
            holding[v] = holding.get(v, 0) | 1 << i
    excess = Counter(v for b in td.bags.values() for v in b)
    excess.subtract(v for t, u in td.tree.edges() for v in td.bags[t] & td.bags[u])
    report = {
        "uncovered_vertices": [v for v in g.vertices if v not in holding],
        "uncovered_edges": [
            (u, v) for u, v in g.edges() if not holding.get(u, 0) & holding.get(v, 0)
        ],
        "disconnected": [v for v in g.vertices if excess[v] > 1],
    }
    return {"ok": not any(report.values()), **report}


def checked_graph(vertices: Iterable[str], edges: Iterable[Tuple[str, str]]) -> Graph:
    """Graph(vertices, edges) after the checks of each vertex and edge that
    its constructor made one at a time: vertex order, loops, string ends."""
    index: Dict[str, int] = {}
    for v in vertices:
        if not isinstance(v, str):
            raise TypeError(f"vertex identifiers must be strings, got {v!r}")
        if v not in index:
            index[v] = len(index)
    edges = list(edges)
    for u, v in edges:
        if u == v:
            raise LoopEdge(f"loop at {u!r}")
        for w in (u, v):
            if w not in index:
                if not isinstance(w, str):
                    raise TypeError(f"vertex identifiers must be strings, got {w!r}")
                index[w] = len(index)
    return Graph(list(index), edges)


def checked_graph_from_json(data: dict) -> Graph:
    """The graph JSON reader, each vertex and edge checked on its own."""
    _json_fields(data, "graph JSON", ("vertices", "edges"))
    vertices = _json_strings(data.get("vertices", []), "graph JSON 'vertices'")
    edges = _json_list(data.get("edges", []), "graph JSON 'edges'")
    return checked_graph(vertices, [_json_pair(e, "a graph edge") for e in edges])


def checked_td_from_json(data: dict) -> TreeDecomposition:
    """The tree-decomposition JSON reader, each node, bag and edge checked
    on its own, and each end of each edge looked up among the nodes."""
    _json_fields(data, "tree-decomposition JSON", ("nodes", "edges"))
    bags = {}
    for node in _json_list(data.get("nodes", []), "tree-decomposition JSON 'nodes'"):
        _json_fields(node, "node JSON", ("id", "bag"), ("id", "bag"))
        if not isinstance(node["id"], str):
            raise ValueError(f"node JSON 'id' must be a string, got {node['id']!r}")
        if node["id"] in bags:
            raise ValueError(f"tree-decomposition JSON repeats the node id {node['id']!r}")
        bags[node["id"]] = frozenset(_json_strings(node["bag"], "node JSON 'bag'"))
    edges = _json_list(data.get("edges", []), "tree-decomposition JSON 'edges'")
    pairs = [_json_pair(e, "a tree-decomposition edge") for e in edges]
    tree = checked_graph(list(bags), pairs)
    for e in edges:
        for t in e:
            if t not in bags:
                raise ValueError(f"tree-decomposition edge {e!r} names {t!r}, a node with no bag")
    return TreeDecomposition(tree=tree, bags=bags)


class NestednessViolation(CliquedecError):
    """Two separations selected at one order cross."""


class OrbitNotMatching(CliquedecError):
    """An edge orbit scheduled for contraction is not a matching in the tree."""


def orbit_contract_to_maximal(
    g: Graph,
    td: TreeDecomposition,
    orbits: Optional[Sequence[Sequence[Tuple[str, str]]]] = None,
    orbit_order: str = "canonical",
) -> TreeDecomposition:
    """Contract edge orbits with comparable bags until none remain.

    Orbits partition the tree edges (default: singletons, the trivial
    group).  An orbit is contracted only if its edges form a matching;
    bags merge by union.  The result has no bag contained in a
    neighboring bag, hence is into maximal cliques when td was into
    cliques and regular.
    """
    _check_tree(td.tree)
    if orbits is None:
        orbits = [[e] for e in td.tree.edges()]
    seen_edges = set()
    for orbit in orbits:
        for u, v in orbit:
            if not td.tree.has_edge(u, v):
                raise ValueError(f"({u!r}, {v!r}) is not a tree edge")
            seen_edges.add(frozenset((u, v)))
    if len(seen_edges) != td.tree.edge_count():
        raise ValueError("orbits must partition the tree edges")

    if orbit_order == "canonical":
        orbits = sorted(
            (sorted(tuple(sorted(e)) for e in orbit) for orbit in orbits),
        )
    elif orbit_order != "input":
        raise ValueError("orbit_order must be 'canonical' or 'input'")

    parent = {t: t for t in td.tree.vertices}

    def find(t):
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    bags = dict(td.bags)

    changed = True
    while changed:
        changed = False
        for orbit in orbits:
            live = [
                (find(u), find(v)) for u, v in orbit if find(u) != find(v)
            ]
            if not live:
                continue
            ru, rv = live[0]
            if not (bags[ru] <= bags[rv] or bags[rv] <= bags[ru]):
                continue
            endpoints = [t for e in live for t in e]
            if len(endpoints) != len(set(endpoints)):
                raise OrbitNotMatching(
                    "orbit edges share a node; the action is not free on cliques"
                )
            for a, b in live:
                merged = bags[a] | bags[b]
                parent[a] = b
                bags[b] = merged
                changed = True

    roots = sorted({find(t) for t in td.tree.vertices}, key=td.tree.key)
    new_edges = set()
    for u, v in td.tree.edges():
        ru, rv = find(u), find(v)
        if ru != rv:
            new_edges.add((ru, rv) if td.tree.key(ru) < td.tree.key(rv) else (rv, ru))
    out = TreeDecomposition(
        tree=Graph(roots, sorted(new_edges)), bags={t: bags[t] for t in roots}
    )
    _check_tree(out.tree)
    for u, v in out.tree.edges():
        if out.bags[u] <= out.bags[v] or out.bags[v] <= out.bags[u]:
            raise InvariantViolation(
                f"neighboring bags {u!r} and {v!r} are nested after contraction"
            )
    return out
