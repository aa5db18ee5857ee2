"""Output checks that do not use the code under test.

Each check takes the operation, its exit code, its parsed ``--json``
output and the workload's inputs, and returns a list of problems; an empty
list means the output is correct.  Graph facts come from networkx and from
the generators, never from ``cliquedec``.
"""

from __future__ import annotations

import itertools
import json
from typing import Dict, List, Optional

import networkx as nx

from .workloads import Op


def nx_graph(data: dict) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(data["vertices"])
    g.add_edges_from(tuple(e) for e in data["edges"])
    return g


def is_clique(g: nx.Graph, vs) -> bool:
    vs = list(vs)
    return all(g.has_edge(u, v) for u, v in itertools.combinations(vs, 2))


def td_problems(g: nx.Graph, td: dict) -> List[str]:
    """A tree-decomposition of g: a tree, every vertex and edge in a bag,
    and each vertex's nodes connected."""
    bags = {node["id"]: set(node["bag"]) for node in td["nodes"]}
    tree = nx.Graph()
    tree.add_nodes_from(bags)
    tree.add_edges_from(tuple(e) for e in td["edges"])
    problems = []
    if len(bags) != len(td["nodes"]) or not bags or not nx.is_tree(tree):
        return ["the decomposition's tree is not a tree"]
    for v in g.nodes:
        nodes = [t for t, b in bags.items() if v in b]
        if not nodes:
            problems.append(f"vertex {v} is in no bag")
        elif not nx.is_connected(tree.subgraph(nodes)):
            problems.append(f"the bags holding {v} are not connected")
    for u, v in g.edges:
        if not any(u in b and v in b for b in bags.values()):
            problems.append(f"edge {u}-{v} is in no bag")
    for t, b in bags.items():
        if not b <= set(g.nodes):
            problems.append(f"bag {t} holds vertices outside the graph")
    return problems


def hole_problems(g: nx.Graph, hole) -> List[str]:
    """An induced cycle of length at least 4."""
    if len(hole) < 4 or len(set(hole)) != len(hole) or not set(hole) <= set(g.nodes):
        return [f"hole {hole} is not a cycle of >= 4 distinct vertices"]
    cycle = {frozenset((hole[i], hole[(i + 1) % len(hole)])) for i in range(len(hole))}
    for u, v in itertools.combinations(hole, 2):
        if g.has_edge(u, v) != (frozenset((u, v)) in cycle):
            return [f"hole {hole} is not an induced cycle at {u}-{v}"]
    return []


def peo_problems(g: nx.Graph, order) -> List[str]:
    """A perfect elimination ordering: later neighbours form a clique."""
    if sorted(order) != sorted(g.nodes):
        return ["the elimination ordering is not a permutation of the vertices"]
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        later = [u for u in g.neighbors(v) if pos[u] > pos[v]]
        if not is_clique(g, later):
            return [f"the later neighbours of {v} are not a clique"]
    return []


def clique_set(cliques) -> set:
    return {frozenset(c) for c in cliques}


# -- per command ----------------------------------------------------------


def check_canonical_td(op, out, inputs, g, seen) -> List[str]:
    td = out["decomposition"]
    problems = td_problems(g, td)
    bags = [set(n["bag"]) for n in td["nodes"]]
    into_cliques = all(is_clique(g, b) for b in bags)
    if not out["canonical"]:
        problems.append("decomposition reported not canonical")
    if out["into_cliques"] != into_cliques or not into_cliques:
        problems.append("decomposition is not into cliques")
    into_max = len(bags) == len(clique_set(bags)) and clique_set(bags) == clique_set(
        nx.chordal_graph_cliques(g)
    )
    if out["into_maximal_cliques"] != into_max:
        problems.append("into_maximal_cliques flag is wrong")
    return problems


def check_maximal_td(op, out, inputs, g, seen) -> List[str]:
    td = out["decomposition"]
    problems = td_problems(g, td)
    bags = [n["bag"] for n in td["nodes"]]
    if len(bags) != len(clique_set(bags)) or clique_set(bags) != clique_set(
        nx.chordal_graph_cliques(g)
    ):
        problems.append("bags are not exactly the maximal cliques")
    if out["into_maximal_cliques"] is not True:
        problems.append("into_maximal_cliques flag is not set")
    return problems


def check_check_chordal(op, out, inputs, g, seen) -> List[str]:
    if out["chordal"] != nx.is_chordal(g):
        return ["chordality verdict is wrong"]
    if out["chordal"]:
        return peo_problems(g, out["elimination_ordering"])
    return hole_problems(g, out["hole"])


def check_max_cliques(op, out, inputs, g, seen) -> List[str]:
    found = out["maximal_cliques"]
    if len(found) != len(clique_set(found)) or clique_set(found) != clique_set(nx.find_cliques(g)):
        return ["maximal cliques differ from networkx find_cliques"]
    return []


def check_local_chordal(op, out, inputs, g, seen) -> List[str]:
    radius = int(op.argv[op.argv.index("-r") + 1]) // 2
    if out["r_locally_chordal"]:
        # induced subgraphs of chordal graphs are chordal
        if nx.is_chordal(g):
            return []
        for v in g.nodes:
            ball = nx.ego_graph(g, v, radius=radius)
            if not nx.is_chordal(ball):
                return [f"the ball around {v} is not chordal"]
        return []
    center, hole = out["center"], out["hole"]
    problems = hole_problems(g, hole)
    dist = nx.single_source_shortest_path_length(g, center, cutoff=radius)
    if not all(v in dist for v in hole):
        problems.append("the hole leaves the ball around its center")
    return problems


def check_verify_td(op, out, inputs, g, seen) -> List[str]:
    td = inputs[op.argv[op.argv.index("--td") + 1][1:]]
    valid = not td_problems(g, td)
    if out["ok"] != valid:
        return [f"verify-td says ok={out['ok']}, the decomposition is valid={valid}"]
    uncovered = {v for v in g.nodes if not any(v in n["bag"] for n in td["nodes"])}
    if set(out["uncovered_vertices"]) != uncovered:
        return ["uncovered vertices are wrong"]
    return []


def gd_problems(base: nx.Graph, gd: dict) -> List[str]:
    """A graph-decomposition of the base: every vertex and edge in a bag,
    and each vertex's co-part a connected subgraph of the model on nodes
    whose bags hold the vertex."""
    bags = {node["id"]: set(node["bag"]) for node in gd["nodes"]}
    model = nx.Graph()
    model.add_nodes_from(bags)
    model.add_edges_from(tuple(e) for e in gd["edges"])
    problems = []
    for v in base.nodes:
        if not any(v in b for b in bags.values()):
            problems.append(f"base vertex {v} is in no bag")
    for u, v in base.edges:
        if not any(u in b and v in b for b in bags.values()):
            problems.append(f"base edge {u}-{v} is in no bag")
    for v in base.nodes:
        part = gd["coparts"].get(v)
        if not part or not part["nodes"]:
            problems.append(f"base vertex {v} has no co-part")
            continue
        sub = nx.Graph()
        sub.add_nodes_from(part["nodes"])
        sub.add_edges_from(tuple(e) for e in part["edges"])
        if not all(v in bags.get(h, ()) for h in sub.nodes):
            problems.append(f"co-part of {v} leaves the bags holding {v}")
        if not all(model.has_edge(a, b) for a, b in sub.edges):
            problems.append(f"co-part of {v} uses an edge outside the model")
        if not nx.is_connected(sub):
            problems.append(f"co-part of {v} is disconnected")
    return problems


def check_fold(op, out, inputs, g, seen) -> List[str]:
    base = nx_graph(inputs[op.facts["cover"]]["base"])
    problems = gd_problems(base, out["decomposition"])
    if out["ok"] is not True:
        problems.append("fold reports ok=false")
    into_cliques = all(is_clique(base, n["bag"]) for n in out["decomposition"]["nodes"])
    if out["into_cliques"] != into_cliques:
        problems.append("into_cliques flag is wrong")
    return problems


def check_verify_gd(op, out, inputs, g, seen) -> List[str]:
    if not out["ok"] or out["h1_uncovered_vertices"] or out["h1_uncovered_edges"] or out["h2_failures"]:
        return ["the folded graph-decomposition is reported invalid"]
    return []


def r_acyclic(coparts: dict, r: int) -> bool:
    """Is the union of every r or fewer co-parts a forest?"""
    vs = sorted(coparts)
    for k in range(1, min(r, len(vs)) + 1):
        for subset in itertools.combinations(vs, k):
            union = nx.Graph()
            for v in subset:
                union.add_nodes_from(coparts[v]["nodes"])
                union.add_edges_from(tuple(e) for e in coparts[v]["edges"])
            if not nx.is_forest(union):
                return False
    return True


def check_r_acyclic(op, out, inputs, g, seen) -> List[str]:
    fold_out = seen.get(op.facts["fold_op"])
    if fold_out is None:
        return ["no checked fold output of the same cover to compare with"]
    r = int(op.argv[op.argv.index("-r") + 1])
    expected = r_acyclic(fold_out["decomposition"]["coparts"], r)
    if out["r_acyclic"] != expected:
        return [f"r-acyclic verdict {out['r_acyclic']}, the folded co-parts give {expected}"]
    return []


CHECKS = {
    "canonical-td": check_canonical_td,
    "maximal-td": check_maximal_td,
    "check-chordal": check_check_chordal,
    "max-cliques": check_max_cliques,
    "local-chordal": check_local_chordal,
    "verify-td": check_verify_td,
    "fold": check_fold,
    "verify-gd": check_verify_gd,
    "r-acyclic": check_r_acyclic,
}


def check(op: Op, exit_code: int, stdout: str, inputs: Dict[str, object], seen: Dict[str, dict]) -> List[str]:
    """Problems with one operation's result.

    ``seen`` maps operation ids to outputs already checked in this run;
    a correct output is added to it for later checks that compare with it.
    """
    if exit_code != op.expect_exit:
        return [f"exit code {exit_code}, expected {op.expect_exit}"]
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"output is not JSON: {exc}"]
    if not isinstance(out, dict) or out.get("schema") != "v1":
        return ["output is not a schema v1 object"]
    graph_file: Optional[str] = None
    if "--in" in op.argv:
        graph_file = op.argv[op.argv.index("--in") + 1][1:]
    g = nx_graph(inputs[graph_file]) if graph_file else None
    try:
        problems = CHECKS[op.command](op, out, inputs, g, seen)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        problems = [f"output is malformed: {exc!r}"]
    if not problems:
        seen[op.id] = out
    return problems
