"""Record the digests that run.py checks every run against.

    python3 perfbench/record.py FIRST_SEED END_SEED [WORKLOAD ...]

For each seed in [FIRST_SEED, END_SEED) and each workload (all by
default), runs every operation once, requires its output to pass the
oracle checks, and stores the input digest and each operation's exit code
and output sha256 prefix in digests.json.  Recorded at the commit that
defines the benchmark, they make later changes prove byte-identical output.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench import run  # noqa: E402


def record(name: str, seed: int, scratch: Path):
    from perfbench import oracles
    from perfbench.workloads import generate

    workload = generate(name, seed)
    run.write_inputs(workload, scratch)
    seen, outputs = {}, {}
    for op in workload.ops:
        res = run.run_cli(run.resolve(op.argv, scratch))
        problems = [res.error] if res.error else oracles.check(
            op, res.exit, res.stdout, workload.inputs, seen
        )
        if problems:
            raise SystemExit(f"{name} seed {seed} {op.id}: {'; '.join(problems)}")
        outputs[op.id] = [res.exit, run.sha(res.stdout)]
    return workload.digest(), outputs


def main(argv) -> int:
    first, end, *names = argv
    from perfbench.workloads import WORKLOADS

    sys.path.insert(0, str(run.SRC))
    digests = run.load_digests()
    run.SCRATCH.mkdir(exist_ok=True)
    for name in names or WORKLOADS:
        for seed in range(int(first), int(end)):
            scratch = Path(tempfile.mkdtemp(dir=run.SCRATCH))
            try:
                inputs, outputs = record(name, seed, scratch)
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
            digests.setdefault("inputs", {}).setdefault(name, {})[str(seed)] = inputs
            digests.setdefault("outputs", {}).setdefault(name, {})[str(seed)] = outputs
            with open(run.DIGESTS, "w") as fh:
                json.dump(digests, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"recorded {name} seed {seed}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
