"""Traced replay of CLI operations through the package's public functions.

Each replay makes the calls the CLI handler makes, in the same order, and
wraps every call into a layer in a span.  ``construct_N`` is split from
outside, exactly as it runs without supplied bottlenecks: ``is_chordal``,
``maximal_cliques``, then ``beta(..., check=False)`` per clique pair, then
``construct_N(g, bottlenecks=...)``.  The replay prints the same JSON, so
its digest must equal the untraced CLI's.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from typing import Dict, List, Tuple

from cliquedec.chordal import is_chordal, is_r_locally_chordal, maximal_cliques
from cliquedec.cli import DEFAULT_SEED, SCHEMA
from cliquedec.covers import (
    VoltagePresentation,
    derive_window,
    fold,
    r_acyclic_check,
    verify_graph_decomposition,
)
from cliquedec.errors import CliquedecError, NotChordal
from cliquedec.graph import Graph
from cliquedec.nested import construct_N
from cliquedec.separations import beta
from cliquedec.symmetry import automorphism_generators, verify_canonical_td
from cliquedec.treedec import (
    TreeDecomposition,
    build_td_from_nested,
    classify_td,
    contract_to_maximal,
    verify_td,
)

LAYERS = ("graph", "chordal", "separations", "nested", "treedec", "symmetry", "covers")
OP_SPAN = "op"


class Tracer:
    """Spans kept in memory: (name, start, end, parent index, operation id).

    The counters are the per-layer work counts recorded at the same
    boundaries as the spans.
    """

    def __init__(self):
        self.spans: List[Tuple[str, float, float, int, str]] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._op = ""

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, time.perf_counter(), 0.0, parent, self._op))
        self._stack.append(index)
        try:
            yield
        except BaseException:
            self.counts[name.split(".")[0] + ".errors"] += 1
            raise
        finally:
            self._stack.pop()
            name, start, _, parent, op = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter(), parent, op)

    @contextmanager
    def operation(self, op_id: str):
        self._op = op_id
        with self.span(OP_SPAN):
            yield

    def self_times(self, first: int, last: int) -> Dict[str, float]:
        """Self seconds per span name over spans[first:last]: duration minus
        the part covered by child spans."""
        out: Counter = Counter()
        for name, start, end, parent, _ in self.spans[first:last]:
            out[name] += end - start
            if parent >= first:
                out[self.spans[parent][0]] -= end - start
        return dict(out)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def _flags(argv) -> Dict[str, str]:
    return {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1) if argv[i].startswith("-")}


def _load(t: Tracer, path: str, name: str, parse):
    with t.span(name):
        with open(path) as fh:
            return parse(json.load(fh))


def _emit(t: Tracer, build) -> str:
    with t.span("graph.emit"):
        report = build()
        return json.dumps({"schema": SCHEMA, **report}, indent=2, sort_keys=True, default=str) + "\n"


def _nested_set(t: Tracer, g: Graph):
    """construct_N(g), split into its chordality, clique, bottleneck and
    selection stages."""
    with t.span("chordal.is_chordal"):
        ok, cert = is_chordal(g)
    t.counts["chordal.calls"] += 1
    if not ok:
        t.counts["chordal.holes"] += 1
        raise NotChordal(cert)
    with t.span("chordal.maximal_cliques"):
        cliques = maximal_cliques(g)
    t.counts["chordal.calls"] += 1
    bottlenecks = []
    for i in range(len(cliques)):
        for j in range(i + 1, len(cliques)):
            with t.span("separations.beta"):
                bottlenecks.append(beta(g, cliques[i], cliques[j], check=False))
    sizes = [len(b.separations) for b in bottlenecks]
    t.counts["separations.beta_calls"] += len(bottlenecks)
    t.counts["separations.bottleneck_seps"] += sum(sizes)
    t.counts["separations.max_bottleneck"] = max([t.counts["separations.max_bottleneck"], *sizes])
    pools: Dict[int, set] = {}
    for b in bottlenecks:
        pools.setdefault(b.order, set()).update(b.separations)
    t.counts["nested.pool_size"] += sum(len(p) for p in pools.values())
    t.counts["nested.crossing_tests"] += sum(len(p) ** 2 for p in pools.values())
    with t.span("nested.construct_N"):
        n = construct_N(g, bottlenecks=bottlenecks)
    t.counts["nested.selected"] += len(n.union)
    return n


def _tree(t: Tracer, g: Graph, n):
    with t.span("treedec.build_td_from_nested"):
        td = build_td_from_nested(g, n.union)
    t.counts["treedec.tree_nodes"] += len(td.tree)
    return td


def _canonical(t: Tracer, g: Graph):
    n = _nested_set(t, g)
    td = _tree(t, g, n)
    with t.span("symmetry.automorphism_generators"):
        aut = automorphism_generators(g)
    t.counts["symmetry.generators"] += len(aut.generators)
    with t.span("symmetry.verify_canonical_td"):
        canon = verify_canonical_td(g, td, aut)
    with t.span("treedec.classify_td"):
        cls = classify_td(g, td)
    return td, canon, cls


def _graph(t, flags, key="--in"):
    return _load(t, flags[key], "graph.parse", Graph.from_json_dict)


def _voltage(t, flags):
    return _load(t, flags["--voltage"], "covers.parse", VoltagePresentation.from_json_dict)


def _folded(t: Tracer, pres, L: int, check_window: bool):
    with t.span("covers.derive_window"):
        win = derive_window(pres, L)
    t.counts["covers.window_vertices"] += len(win.window)
    if check_window:
        with t.span("chordal.is_chordal"):
            ok, cert = is_chordal(win.window)
        t.counts["chordal.calls"] += 1
        if not ok:
            t.counts["chordal.holes"] += 1
            return None, cert
    td = _tree(t, win.window, _nested_set(t, win.window))
    with t.span("covers.fold"):
        gd = fold(pres, win, td)
    t.counts["covers.model_nodes"] += len(gd.model)
    t.counts["covers.window_tree_nodes"] += len(td.tree)
    return gd, None


def replay_canonical_td(t, flags):
    g = _graph(t, flags)
    td, canon, cls = _canonical(t, g)
    text = _emit(
        t,
        lambda: {
            "decomposition": td.to_json_dict(),
            "canonical": canon["canonical"],
            "regular": cls.regular,
            "into_cliques": cls.into_cliques,
            "into_maximal_cliques": cls.into_maximal_cliques,
            "beta_restricted_to_tight": True,
        },
    )
    return (0 if canon["canonical"] else 1), text


def replay_maximal_td(t, flags):
    g = _graph(t, flags)
    td, _canon, _cls = _canonical(t, g)
    with t.span("treedec.contract_to_maximal"):
        td = contract_to_maximal(g, td, orbit_order="canonical")
    with t.span("treedec.classify_td"):
        cls = classify_td(g, td)
    text = _emit(
        t,
        lambda: {"decomposition": td.to_json_dict(), "into_maximal_cliques": cls.into_maximal_cliques},
    )
    return (0 if cls.into_maximal_cliques else 1), text


def replay_check_chordal(t, flags):
    g = _graph(t, flags)
    with t.span("chordal.is_chordal"):
        ok, cert = is_chordal(g)
    t.counts["chordal.calls"] += 1
    if ok:
        return 0, _emit(t, lambda: {"chordal": True, "elimination_ordering": list(cert.order)})
    t.counts["chordal.holes"] += 1
    return 1, _emit(t, lambda: {"chordal": False, "hole": cert})


def replay_max_cliques(t, flags):
    g = _graph(t, flags)
    with t.span("chordal.maximal_cliques"):
        cliques = maximal_cliques(g, require_chordal=False)
    t.counts["chordal.calls"] += 1
    return 0, _emit(t, lambda: {"maximal_cliques": [sorted(c.vertices) for c in cliques]})


def replay_local_chordal(t, flags):
    g = _graph(t, flags)
    r = int(flags["-r"])
    with t.span("chordal.is_r_locally_chordal"):
        ok, witness = is_r_locally_chordal(g, r)
    t.counts["chordal.calls"] += 1
    if ok:
        return 0, _emit(t, lambda: {"r_locally_chordal": True, "r": r})
    t.counts["chordal.holes"] += 1
    center, hole = witness
    return 1, _emit(t, lambda: {"r_locally_chordal": False, "r": r, "center": center, "hole": hole})


def replay_verify_td(t, flags):
    g = _graph(t, flags)
    td = _load(t, flags["--td"], "treedec.parse", TreeDecomposition.from_json_dict)
    with t.span("treedec.verify_td"):
        report = verify_td(g, td)
    return (0 if report["ok"] else 1), _emit(t, lambda: report)


def replay_fold(t, flags):
    pres = _voltage(t, flags)
    gd, hole = _folded(t, pres, int(flags["-L"]), check_window=True)
    if gd is None:
        return 1, _emit(t, lambda: {"window_chordal": False, "hole": hole})
    with t.span("covers.verify_graph_decomposition"):
        vr = verify_graph_decomposition(pres.base, gd)
    text = _emit(
        t,
        lambda: {
            "decomposition": gd.to_json_dict(),
            "ok": vr["ok"],
            "into_cliques": vr["into_cliques"],
            "into_maximal_cliques": vr["into_maximal_cliques"],
        },
    )
    return (0 if vr["ok"] else 1), text


def replay_verify_gd(t, flags):
    g = _graph(t, flags)
    pres = _voltage(t, flags)
    gd, _ = _folded(t, pres, int(flags["-L"]), check_window=False)
    with t.span("covers.verify_graph_decomposition"):
        report = verify_graph_decomposition(g, gd)
    return (0 if report["ok"] else 1), _emit(t, lambda: dict(report))


def replay_r_acyclic(t, flags):
    g = _graph(t, flags)
    pres = _voltage(t, flags)
    gd, _ = _folded(t, pres, int(flags["-L"]), check_window=False)
    r = int(flags["-r"])
    with t.span("covers.r_acyclic_check"):
        flag, info = r_acyclic_check(g, gd, r, seed=DEFAULT_SEED)
    t.counts["covers.r_acyclic_subsets"] += info.get("checked", 0)
    return (0 if flag else 1), _emit(t, lambda: {"r_acyclic": flag, "r": r, **info})


REPLAYS = {
    "canonical-td": replay_canonical_td,
    "maximal-td": replay_maximal_td,
    "check-chordal": replay_check_chordal,
    "max-cliques": replay_max_cliques,
    "local-chordal": replay_local_chordal,
    "verify-td": replay_verify_td,
    "fold": replay_fold,
    "verify-gd": replay_verify_gd,
    "r-acyclic": replay_r_acyclic,
}


def replay(t: Tracer, op_id: str, argv) -> Tuple[int, str]:
    """Exit code and stdout of the traced replay of one CLI call.

    Errors the CLI turns into exit code 2 do the same here, with no
    output.
    """
    with t.operation(op_id):
        try:
            return REPLAYS[argv[0]](t, _flags(argv))
        except (CliquedecError, ValueError, OSError, json.JSONDecodeError, KeyError):
            return 2, ""
