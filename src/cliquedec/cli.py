"""Command-line surface: chordality checks, canonical tree-decompositions,
folding of periodic covers, verification, and instance generation.

Exit codes: 0 success / verdict true, 1 verdict false (witness printed),
2 usage or input error.
"""

from __future__ import annotations

import argparse
import heapq
import itertools
import json
import sys
from typing import List, Optional

from .chordal import is_chordal, is_r_locally_chordal, maximal_cliques
from .covers import (
    VoltagePresentation,
    fold_pipeline,
    r_acyclic_check,
    verify_graph_decomposition,
)
from .errors import (
    CliquedecError,
    InvariantViolation,
    OutOfRange,
    PreconditionViolated,
    WindowNotChordal,
)
from .graph import Graph
from .instances import INSTANCES, make_instance, star
from .nested import construct_N
from .symmetry import automorphism_generators, verify_canonical_td
from .treedec import (
    TreeDecomposition,
    _bags_are_maximal_cliques,
    build_td_from_nested,
    contract_to_maximal,
    verify_td,
)

SCHEMA = "v1"
DEFAULT_SEED = 20240601


def _load(path: str, reader):
    """reader(the JSON value in the file at path), e.g. Graph.from_json_dict."""
    with open(path) as fh:
        return reader(json.load(fh))


def _emit(args, report: dict) -> None:
    if getattr(args, "json", False):
        print(json.dumps({"schema": SCHEMA, **report}, indent=2, sort_keys=True, default=str))
    else:
        for key, value in report.items():
            print(f"{key}: {value}")


# -- subcommand handlers ------------------------------------------------


def cmd_check_chordal(args) -> int:
    g = _load(args.infile, Graph.from_json_dict)
    ok, cert = is_chordal(g)
    if ok:
        _emit(args, {"chordal": True, "elimination_ordering": list(cert.order)})
        return 0
    _emit(args, {"chordal": False, "hole": cert})
    return 1


def cmd_max_cliques(args) -> int:
    g = _load(args.infile, Graph.from_json_dict)
    cliques = maximal_cliques(g, require_chordal=False)
    _emit(args, {"maximal_cliques": [sorted(c.vertices) for c in cliques]})
    return 0


def canonical_td_pipeline(g: Graph) -> dict:
    """construct_N, build the tree, and verify canonicity end to end."""
    n = construct_N(g)
    td = build_td_from_nested(g, n.union)
    aut = automorphism_generators(g)
    canon = verify_canonical_td(g, td, aut)
    return {
        "nested_set": n,
        "td": td,
        "aut": aut,
        "canonical": canon["canonical"],
        "classification": canon["classification"],
    }


def cmd_canonical_td(args) -> int:
    g = _load(args.infile, Graph.from_json_dict)
    res = canonical_td_pipeline(g)
    report = {
        "decomposition": res["td"].to_json_dict(),
        "canonical": res["canonical"],
        "regular": res["classification"].regular,
        "into_cliques": res["classification"].into_cliques,
        "into_maximal_cliques": res["classification"].into_maximal_cliques,
        # bottleneck separations are always tight; the key stays in the schema
        "beta_restricted_to_tight": True,
    }
    _emit(args, report)
    return 0 if res["canonical"] else 1


def cmd_maximal_td(args) -> int:
    g = _load(args.infile, Graph.from_json_dict)
    td = contract_to_maximal(g, build_td_from_nested(g, construct_N(g).union))
    # pairwise distinct bags that are the maximal cliques are all cliques
    into_maximal = _bags_are_maximal_cliques(g, list(td.bags.values()))
    _emit(args, {"decomposition": td.to_json_dict(), "into_maximal_cliques": into_maximal})
    return 0 if into_maximal else 1


def cmd_local_chordal(args) -> int:
    g = _load(args.infile, Graph.from_json_dict)
    ok, witness = is_r_locally_chordal(g, args.r)
    if ok:
        _emit(args, {"r_locally_chordal": True, "r": args.r})
        return 0
    center, hole = witness
    _emit(args, {"r_locally_chordal": False, "r": args.r, "center": center, "hole": hole})
    return 1


def cmd_fold(args) -> int:
    pres = _load(args.voltage, VoltagePresentation.from_json_dict)
    try:
        gd = fold_pipeline(pres, args.L).gd
    except WindowNotChordal as exc:
        _emit(args, {"window_chordal": False, "hole": exc.hole})
        return 1
    vr = verify_graph_decomposition(pres.base, gd)
    verdicts = {k: vr[k] for k in ("ok", "into_cliques", "into_maximal_cliques")}
    _emit(args, {"decomposition": gd.to_json_dict(), **verdicts})
    return 0 if vr["ok"] else 1


def cmd_verify_td(args) -> int:
    g = _load(args.infile, Graph.from_json_dict)
    td = _load(args.td, TreeDecomposition.from_json_dict)
    report = verify_td(g, td)
    _emit(args, report)
    return 0 if report["ok"] else 1


def _base_and_fold(args):
    """Load --in and --voltage, check that --in is the presentation's base
    graph (its vertex and edge sets, in any order), and fold the cover."""
    g = _load(args.infile, Graph.from_json_dict)
    pres = _load(args.voltage, VoltagePresentation.from_json_dict)
    for h, other, where in ((g, pres.base, "--in"), (pres.base, g, "the base")):
        only = set(h.vertices) - set(other.vertices) or [
            e for e in h.edges() if not other.has_edge(*e)
        ]
        if only:
            raise PreconditionViolated(
                f"--in is not the voltage presentation's base: {sorted(only)} only in {where}"
            )
    return g, fold_pipeline(pres, args.L).gd


def cmd_verify_gd(args) -> int:
    g, gd = _base_and_fold(args)
    report = verify_graph_decomposition(g, gd)
    _emit(args, report)
    return 0 if report["ok"] else 1


def cmd_r_acyclic(args) -> int:
    g, gd = _base_and_fold(args)
    flag, info = r_acyclic_check(g, gd, args.r, seed=args.seed)
    _emit(args, {"r_acyclic": flag, "r": args.r, **info})
    return 0 if flag else 1


def _prufer_trees(t: int):
    """All labeled trees on nodes 0..t-1, t >= 2, via Prüfer sequences."""
    for seq in itertools.product(range(t), repeat=t - 2):
        degree = [1] * t
        for x in seq:
            degree[x] += 1
        edges = []
        heap = [i for i in range(t) if degree[i] == 1]  # ascending, so a heap
        for x in seq:
            leaf = heapq.heappop(heap)
            edges.append((leaf, x))
            degree[x] -= 1
            if degree[x] == 1:
                heapq.heappush(heap, x)
        edges.append((heapq.heappop(heap), heapq.heappop(heap)))
        yield edges


def reproduce_example_51(t: int) -> dict:
    """Exhaustively test every tree over the maximal cliques of K_{1,t}.

    None of the candidate tree-decompositions into maximal cliques is
    canonical, while the star-shaped decomposition with the singleton
    center bag is canonical (and not into maximal cliques).
    """
    if not 3 <= t <= 6:
        raise OutOfRange("t must be between 3 and 6")
    g = star(t)
    aut = automorphism_generators(g)
    cliques = sorted((c.vertices for c in maximal_cliques(g)), key=lambda c: sorted(c))
    if len(cliques) != t:
        raise InvariantViolation(f"star({t}) has {len(cliques)} maximal cliques")
    candidates = 0
    canonical = 0
    for edges in _prufer_trees(t):
        bags = {f"t{i}": cliques[i] for i in range(t)}
        tree = Graph([f"t{i}" for i in range(t)], [(f"t{u}", f"t{v}") for u, v in edges])
        td = TreeDecomposition(tree=tree, bags=bags)
        if not verify_td(g, td)["ok"]:
            raise InvariantViolation(f"tree {edges} over the cliques is not a decomposition")
        candidates += 1
        if verify_canonical_td(g, td, aut)["canonical"]:
            canonical += 1
    res = canonical_td_pipeline(g)
    return {
        "t": t,
        "candidate_trees": candidates,
        "canonical_into_maximal": canonical,
        "star_decomposition_canonical": res["canonical"],
        "star_decomposition_into_maximal_cliques": res["classification"].into_maximal_cliques,
    }


def cmd_reproduce(args) -> int:
    report = reproduce_example_51(args.t)
    if not getattr(args, "json", False):
        print(
            f"no canonical tree-decomposition into maximal cliques exists "
            f"({report['candidate_trees']} candidate trees, "
            f"{report['canonical_into_maximal']} canonical)"
        )
        print(
            f"star decomposition with singleton center bag: "
            f"canonical={report['star_decomposition_canonical']}, "
            f"into_maximal_cliques={report['star_decomposition_into_maximal_cliques']}"
        )
    else:
        _emit(args, report)
    return 0


def cmd_gen(args) -> int:
    params = {"n": args.n, "t": args.t, "k": args.k, "seed": args.seed}
    g = make_instance(args.kind, {k: v for k, v in params.items() if v is not None})
    print(json.dumps(g.to_json_dict(), indent=2))
    return 0


# -- argument parsing ---------------------------------------------------


def _r_at_least_one(text: str) -> int:
    """r-acyclicity of at most r <= 0 co-parts would hold vacuously."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError("r must be >= 1")
    return int(text)


# the flags that several subcommands take
_SHARED_FLAGS = {
    "--in": {"dest": "infile", "required": True},
    "--voltage": {"required": True},
    "-L": {"type": int, "default": 6},
    "--seed": {"type": int, "default": DEFAULT_SEED},
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliquedec",
        description="Canonical tree- and graph-decompositions of chordal "
        "graphs and their periodic covers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help, *flags):
        """The subcommand, taking --json and then the flags in order: a shared
        flag by its name, any other as (name, keyword arguments)."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        for flag in flags:
            flag, spec = (flag, _SHARED_FLAGS[flag]) if isinstance(flag, str) else flag
            p.add_argument(flag, **spec)

    add("check-chordal", cmd_check_chordal, "chordality with certificate", "--in")
    add("max-cliques", cmd_max_cliques, "maximal cliques", "--in")
    add("canonical-td", cmd_canonical_td, "canonical tree-decomposition", "--in")
    add("maximal-td", cmd_maximal_td, "contract to maximal cliques", "--in")
    add("local-chordal", cmd_local_chordal, "r-local chordality",
        "--in", ("-r", {"type": int, "required": True}))
    add("fold", cmd_fold, "fold a periodic cover into a graph-decomposition", "--voltage", "-L")
    add("verify-td", cmd_verify_td, "validate a tree-decomposition",
        "--in", ("--td", {"required": True}))
    add("verify-gd", cmd_verify_gd, "validate the folded graph-decomposition",
        "--in", "--voltage", "-L")
    add("r-acyclic", cmd_r_acyclic, "r-acyclicity of the folded decomposition",
        "--in", "--voltage", "-L", ("-r", {"type": _r_at_least_one, "required": True}), "--seed")
    add("reproduce", cmd_reproduce, "reproduce worked examples",
        ("what", {"choices": ["example-5.1"]}), ("-t", {"type": int, "default": 3}))
    add("gen", cmd_gen, "emit an instance graph as JSON", ("kind", {"choices": list(INSTANCES)}),
        ("-n", {"type": int}), ("-t", {"type": int}), ("-k", {"type": int}), "--seed")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.handler(args)
    except (CliquedecError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
