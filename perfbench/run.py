"""cliquedec benchmark: one workload as a closed loop of CLI calls.

    python3 perfbench/run.py --workload chordal-random --seed 1 --seconds 30 --trace 0

One client, one thread: each operation is an in-process call to
``cliquedec.cli.main([..., "--json"])`` on a generated input file, with its
output captured.  The fixed operation list of the workload is run in
passes until the next pass would end after ``--seconds`` (see
``measure``).  Every output is checked by ``oracles`` (networkx, not the
code under test), against its expected exit code, and against the output
digest recorded for the seed in ``digests.json``; what the workloads are
and why is in ``manifest.json``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each
operation untraced and then as a traced replay (``replay``), requires both
to print the same bytes, and prints the per-layer metrics.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
Without the package sources next to this directory it exits with code 2
and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
SCRATCH = ROOT / ".perfbench"  # temporary inputs and trace files

SETUP_REPEATS = 5
OP_BUDGET_S = 20.0  # wall budget of one operation
RUN_LIMIT_S = 120.0  # no operation starts after this
MIN_PASSES = 2  # of an untraced run, so that each latency is a mean
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
DIGEST_CHARS = 16  # recorded prefix of each output's sha256


class BudgetOverrun(BaseException):
    """Raised by the alarm inside an operation that overran its budget.

    A BaseException, so that no handler in the code under test takes it.
    """


def _on_alarm(signum, frame):
    raise BudgetOverrun()


def call_with_budget(fn, budget_s: float):
    """(result, overran): fn() under a wall-clock budget."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, budget_s)
        try:
            return fn(), False
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except BudgetOverrun:
        return None, True
    finally:
        signal.signal(signal.SIGALRM, previous)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_CHARS]


class Result:
    """One execution of one operation."""

    __slots__ = ("exit", "stdout", "seconds", "error")

    def __init__(self, exit_code, stdout, seconds, error=None):
        self.exit, self.stdout, self.seconds, self.error = exit_code, stdout, seconds, error


def timed(fn, budget_s: float) -> Result:
    """Time fn() -> (exit code, stdout) under the budget; a failure is
    recorded in the result, not raised.

    A full collection first, outside the timed span, so that every call
    starts from the same collector state and pays for its own garbage, not
    for a collection that the calls before it made due.
    """
    gc.collect()
    start = time.perf_counter()
    try:
        res, overran = call_with_budget(fn, budget_s)
    except Exception as exc:  # the loop must go on; the failure is recorded
        return Result(None, "", time.perf_counter() - start, f"exception {exc!r}")
    seconds = time.perf_counter() - start
    if overran:
        return Result(None, "", seconds, f"timeout after {budget_s:g} s")
    return Result(res[0], res[1], seconds)


def run_cli(argv, budget_s: float = OP_BUDGET_S) -> Result:
    """One in-process CLI call with its output captured."""
    from cliquedec import cli

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        return code, out.getvalue()

    return timed(call, budget_s)


def run_replay(tracer, op_id, argv, budget_s: float = OP_BUDGET_S) -> Result:
    """The traced replay of one CLI call."""
    from perfbench.replay import replay

    return timed(lambda: replay(tracer, op_id, argv), budget_s)


# -- set-up -----------------------------------------------------------------


def write_inputs(workload, directory: Path):
    from perfbench.workloads import encode

    for name, obj in workload.inputs.items():
        (directory / name).write_bytes(encode(obj))


def resolve(argv, directory: Path) -> List[str]:
    return [str(directory / a[1:]) if a.startswith("@") else a for a in argv] + ["--json"]


def warm_up(workload, directory: Path) -> None:
    """One call on the input with the fewest vertices, so that first-call
    costs are paid before timing."""
    op = min(workload.ops, key=lambda o: sum(len(vertices(workload.inputs[f])) for f in o.files()))
    run_cli(resolve(op.argv, directory))


def vertices(data: dict) -> list:
    """The vertices of a graph, voltage or tree-decomposition input."""
    return data.get("vertices") or data.get("base", {}).get("vertices") or data.get("nodes", [])


def import_package() -> None:
    """Import the CLI, which imports every layer, afresh from the sources."""
    for module in [m for m in sys.modules if m == "cliquedec" or m.startswith("cliquedec.")]:
        del sys.modules[module]
    importlib.import_module("cliquedec.cli")


def set_up(name: str, seed: int, scratch: Path):
    """Import, generate, write and warm up SETUP_REPEATS times; the median
    time is the set-up time.  Every repeat must generate the same inputs."""
    from perfbench.workloads import generate

    times, digests = [], set()
    for i in range(SETUP_REPEATS):
        start = time.perf_counter()
        import_package()
        workload = generate(name, seed)
        digests.add(workload.digest())
        directory = scratch / f"inputs{i}"
        directory.mkdir()
        write_inputs(workload, directory)
        warm_up(workload, directory)
        times.append(time.perf_counter() - start)
    return workload, directory, statistics.median(times), digests


# -- measurement ------------------------------------------------------------


def measure(workload, directory: Path, seconds: float, traced: bool):
    """Run passes of the operation list until the next pass would end after
    ``seconds``, making at least MIN_PASSES untraced or one traced pass;
    returns per-op results, the measured wall time, and (traced) the tracer
    with per-pass span marks."""
    # what set-up made (modules, inputs) lives to the end: keep it out of
    # the collections, so that the one before each call scans only what the
    # calls left, and costs the same whatever the workload's input size
    gc.collect()
    gc.freeze()
    tracer = None
    if traced:
        from perfbench.replay import Tracer

        tracer = Tracer()
    results: Dict[str, List[Result]] = defaultdict(list)
    replays: Dict[str, List[Result]] = defaultdict(list)
    pass_marks = []  # (first span, counters) at the start of each pass
    start = time.perf_counter()
    passes = 0
    min_passes = 1 if traced else MIN_PASSES
    while True:
        if traced:
            pass_marks.append((len(tracer.spans), Counter(tracer.counts)))
        for op in workload.ops:
            if time.perf_counter() - start > RUN_LIMIT_S:
                # counted as failures, so that a hang still ends the run in time
                results[op.id].append(Result(None, "", 0.0, "not run: the run passed its time limit"))
                if traced:
                    replays[op.id].append(Result(None, "", 0.0, "not run"))
                continue
            argv = resolve(op.argv, directory)
            results[op.id].append(run_cli(argv))
            if traced:
                replays[op.id].append(run_replay(tracer, op.id, argv[:-1]))
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed > RUN_LIMIT_S or (
            passes >= min_passes and elapsed * (passes + 1) / passes > seconds
        ):
            break
    wall = time.perf_counter() - start
    if traced:
        pass_marks.append((len(tracer.spans), Counter(tracer.counts)))
    return results, replays, wall, passes, tracer, pass_marks


def load_digests() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


def verify(workload, seed: int, results, replays, recorded: dict) -> Dict[str, List[str]]:
    """Problems per (op id, result): oracle checks once per distinct
    output, recorded digests, and replay agreement."""
    from perfbench import oracles

    expected = recorded.get("outputs", {}).get(workload.name, {}).get(str(seed), {})
    seen: Dict[str, dict] = {}
    verdicts: Dict[Tuple[str, Optional[int], str], List[str]] = {}
    problems: Dict[str, List[str]] = {}
    for op in workload.ops:
        for i, res in enumerate(results[op.id]):
            if res.error:
                problems[f"{op.id}#{i}"] = [res.error]
                continue
            key = (op.id, res.exit, sha(res.stdout))
            if key not in verdicts:
                found = oracles.check(op, res.exit, res.stdout, workload.inputs, seen)
                if op.id in expected and expected[op.id] != [res.exit, key[2]]:
                    found.append(f"output digest {key[1:]} differs from the recorded {expected[op.id]}")
                verdicts[key] = found
            found = list(verdicts[key])
            if op.id in replays:
                rep = replays[op.id][i]
                if rep.error:
                    found.append(rep.error)
                elif (rep.exit, sha(rep.stdout)) != key[1:]:
                    found.append("the traced replay printed other bytes than the CLI")
            if found:
                problems[f"{op.id}#{i}"] = found
    return problems


# -- metrics ----------------------------------------------------------------


def tail(values: List[float]) -> Tuple[float, float, int]:
    """(value, percentile, values beyond it): the highest nearest-rank
    percentile with at least TAIL_BEYOND values beyond it; the maximum when
    there are too few values."""
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND if len(ordered) > TAIL_BEYOND else len(ordered)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def end_to_end(workload, results, wall, failed, attempted, setup_s, rss_mb):
    """Latencies are per operation, the mean of its passes: on a shared
    machine one call runs fast or slow by turns, so the fastest of a few
    passes depends on how many passes fit in the run, and the mean does
    not.  The operation list is fixed per workload, so the tail percentile
    is too."""
    per_op = [statistics.fmean(r.seconds for r in results[op.id]) for op in workload.ops]
    tail_s, tail_pct, beyond = tail(per_op)
    metrics = {
        "throughput_ops": ((attempted - failed) / wall, "ops/s"),
        "latency_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    passes = len(results[workload.ops[0].id])
    notes = {
        "throughput_ops": f"verified operations over the {wall:.2f} s of {passes} passes",
        "latency_p50_ms": f"median of {len(per_op)} operations, each the mean of its passes",
        "latency_tail_ms": f"p{tail_pct:.1f} of the same {len(per_op)} samples, {beyond} beyond it",
        "ok_ratio": f"1 - failed_ratio; failed_ratio = {failed / attempted:.6g} ({failed} of {attempted})",
    }
    return metrics, notes


def per_layer(tracer, pass_marks, results, replays):
    """Median over passes of each layer's self time, and the counters of
    the first pass (they repeat exactly)."""
    from perfbench.replay import LAYERS, OP_SPAN

    busy = defaultdict(list)
    for (first, _), (last, _) in zip(pass_marks, pass_marks[1:]):
        by_span = tracer.self_times(first, last)
        by_layer = Counter()
        for name, value in by_span.items():
            by_layer[name.split(".")[0]] += value
        for layer in (*LAYERS, OP_SPAN):
            busy[layer].append(by_layer[layer] * 1e3)
        for name in ("graph.parse", "graph.emit"):
            busy[name].append(by_span.get(name, 0.0) * 1e3)
    med = {k: statistics.median(v) for k, v in busy.items()}
    counts = pass_marks[1][1] - pass_marks[0][1]
    counts["separations.max_bottleneck"] = pass_marks[1][1]["separations.max_bottleneck"]
    pool = counts["nested.pool_size"]
    window_nodes = counts["covers.window_tree_nodes"]
    metrics = {f"{layer}.busy_ms": (med[layer], "ms") for layer in LAYERS if layer != "graph"}
    metrics.update(
        {
            "graph.parse_ms": (med["graph.parse"], "ms"),
            "graph.emit_ms": (med["graph.emit"], "ms"),
            "chordal.calls": (counts["chordal.calls"], "count"),
            "chordal.holes": (counts["chordal.holes"], "count"),
            "separations.beta_calls": (counts["separations.beta_calls"], "count"),
            "separations.bottleneck_seps": (counts["separations.bottleneck_seps"], "count"),
            "separations.max_bottleneck": (counts["separations.max_bottleneck"], "count"),
            "nested.pool_size": (pool, "count"),
            "nested.crossing_tests": (counts["nested.crossing_tests"], "computed"),
            "nested.selected": (counts["nested.selected"], "count"),
            "nested.yield": (counts["nested.selected"] / pool if pool else 0.0, "ratio"),
            "symmetry.generators": (counts["symmetry.generators"], "count"),
            "covers.window_vertices": (counts["covers.window_vertices"], "count"),
            "covers.fold_yield": (
                counts["covers.model_nodes"] / window_nodes if window_nodes else 0.0,
                "ratio",
            ),
            "covers.r_acyclic_subsets": (counts["covers.r_acyclic_subsets"], "count"),
            "treedec.tree_nodes": (counts["treedec.tree_nodes"], "count"),
        }
    )
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = (tracer.counts[f"{layer}.errors"], "count")
    cli_s = sum(r.seconds for rs in results.values() for r in rs)
    replay_s = sum(r.seconds for rs in replays.values() for r in rs)
    metrics["trace.overhead_ratio"] = (replay_s / cli_s, "ratio")
    metrics["trace.unattributed_ms"] = (med[OP_SPAN], "ms")
    return metrics


# -- command ----------------------------------------------------------------


def parse_args(argv):
    from perfbench.workloads import WORKLOADS

    p = argparse.ArgumentParser(description="cliquedec benchmark (one workload, one run)")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cliquedec" / "cli.py").is_file():
        print(f"error: no package sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    recorded = load_digests()
    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{os.getpid()}-", dir=SCRATCH))
    try:
        workload, directory, setup_s, input_digests = set_up(args.workload, args.seed, scratch)
        results, replays, wall, passes, tracer, marks = measure(
            workload, directory, args.seconds, bool(args.trace)
        )
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    problems = verify(workload, args.seed, results, replays, recorded)
    attempted = sum(len(rs) for rs in results.values())
    failed = len(problems)
    input_problems = []
    if len(input_digests) != 1:
        input_problems.append("the generator made different inputs from one seed")
    want = recorded.get("inputs", {}).get(workload.name, {}).get(str(args.seed))
    if want is not None and want != workload.digest():
        input_problems.append(f"input digest {workload.digest()} differs from the recorded {want}")
    digests_known = str(args.seed) in recorded.get("outputs", {}).get(workload.name, {})

    print(
        f"workload {workload.name}, seed {args.seed}: {passes} pass(es) over "
        f"{len(workload.ops)} operations in {wall:.2f} s, one client, one thread, closed loop"
    )
    print(
        "output digests: "
        + ("checked against digests.json" if digests_known else "none recorded for this seed; oracle checks only")
    )
    if args.trace:
        metrics = per_layer(tracer, marks, results, replays)
        out = SCRATCH / f"trace-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(out)
        print(f"spans: {len(tracer.spans)} written to {out.relative_to(ROOT)}")
        notes = {}
    else:
        metrics, notes = end_to_end(
            workload, results, wall, failed, attempted, setup_s, rss_mb
        )
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:30s} {value:14.6g} {unit}{note}")
    for key, found in list(problems.items())[:20]:
        print(f"FAILED {key}: {'; '.join(found)}", file=sys.stderr)
    for found in input_problems:
        print(f"FAILED inputs: {found}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not problems and not input_problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    sys.exit(main())
