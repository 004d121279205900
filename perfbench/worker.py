"""One benchmark child process: a set-up or one run of a workload.

    python3 perfbench/worker.py select --workload W --seed S --dir D
    python3 perfbench/worker.py setup --workload W --seed S --dir D --params JSON
    python3 perfbench/worker.py run --workload W --seed S --inputs D --dir OUT [--trace SPANS]

Each run is its own process so that ``ru_maxrss`` is the peak of that run
alone. The result goes to ``<dir>/result.json``; the program's own output
goes to the caller's stdout.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

import argparse
import json
import platform
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def environment() -> dict:
    """Interpreter, numpy, BLAS, thread pinning, CPUs and src/ size."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_lines = sum(len(p.read_text().splitlines())
                    for p in (ROOT / "src").rglob("*.py"))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": src_lines,
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("select", "setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.RUN))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--inputs", type=Path)
    parser.add_argument("--trace")
    parser.add_argument("--params", type=json.loads, default={})
    args = parser.parse_args()

    if args.mode == "select":
        select = workloads.SELECT.get(args.workload)
        result = {"params": select(args.dir, args.seed) if select else {}}
    elif args.mode == "setup":
        workloads.SETUP[args.workload](args.dir, args.seed, args.params)
        result = {"files": workloads.file_hashes(args.dir), "env": environment()}
    else:
        tracer = None
        if args.trace:
            tracer = Tracer(run_id=f"{args.workload}-{args.seed}-{os.getpid()}")
            tracer.install()
        clock = workloads.Clock()
        outcome = workloads.RUN[args.workload](args.inputs, args.dir, args.seed, clock)
        result = {
            "wall_s": clock.wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "oa": outcome.oa,
            "work_items": outcome.work_items,
            "artifacts": outcome.artifacts,
            "checks": outcome.checks,
        }
        if tracer is not None:
            tracer.write(args.trace)
            result["layers"] = tracer.layer_metrics()
    (args.dir / "result.json").write_text(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
