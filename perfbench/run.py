"""Benchmark of the hsiatl pipeline on closed-loop batch workloads.

    python3 perfbench/run.py --workload al-hybrid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One client, closed loop: the next run starts when the previous one ends.
Each run and each set-up is a fresh child process (``worker.py``) with BLAS
pinned to one thread. Inputs are made from ``--seed``; the program only
sees the generated cube, label and config files.

A selection step first picks seed-derived inputs where a workload needs it
(see ``workloads.select_transfer``); it is not part of the set-up time.
The set-up (imports, synthesis, manifest, source-checkpoint training) runs
three times and ``setup_s`` is the median of the three child wall times. Runs
then repeat for ``--seconds`` (at least two) and each end-to-end metric is
the median over runs. With ``--trace 1`` the runs alternate untraced and
traced; the per-layer metrics are medians over the traced runs and
``trace.overhead_s`` is the traced minus the untraced median wall time.

A run fails if the program exits non-zero, an output check fails, or its
artifacts differ from the first run's (repeats of one commit must be byte
identical; so must the three set-ups). ``failed / attempted`` in the last
line is the error rate. Spans of traced runs go to
``.perfbench_out/spans-<workload>-seed<seed>.ndjson``, the full record of
each invocation to ``.perfbench_out/<workload>-seed<seed>-trace<t>.json``.
The last line of stdout is one JSON object: correct, attempted, failed and
the metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # inherited by every child, before numpy loads

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402

WORKER = HERE / "worker.py"
SETUPS = 3
MIN_RUNS = 2
MIN_PAIRS = 1  # traced runs: one untraced and one traced run per pair
DEADLINE_S = 170.0  # the whole invocation must end within 180 s


class Bench:
    """One workload's set-ups and runs, with their pass/fail tally."""

    def __init__(self, workload: str, seed: int, work: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.env: dict = {}
        self.params: dict = {}

    def child(self, mode: str, name: str, *extra: str) -> tuple[dict | None, float]:
        """Run one worker; returns its result (None on failure) and wall time."""
        directory = self.work / name
        directory.mkdir()
        argv = [sys.executable, str(WORKER), mode, "--workload", self.workload,
                "--seed", str(self.seed), "--dir", str(directory), *extra]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        log_path = self.work / f"{name}.log"
        start = time.perf_counter()
        try:
            with open(log_path, "w") as log:
                code = subprocess.run(argv, env=env, cwd=ROOT, stdout=log,
                                      stderr=subprocess.STDOUT,
                                      timeout=max(1.0, self.deadline - time.monotonic())
                                      ).returncode
        except subprocess.TimeoutExpired:
            code = "timeout"
        seconds = time.perf_counter() - start
        result_path = directory / "result.json"
        if code != 0 or not result_path.exists():
            tail = log_path.read_text()[-2000:]
            self.problems.append(f"{name}: worker exited {code}")
            print(f"{self.workload} {name} exited {code}:\n{tail}", file=sys.stderr)
            return None, seconds
        return json.loads(result_path.read_text()), seconds

    def tally(self, name: str, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if why:
                self.problems.append(f"{name}: {why}")

    def setups(self) -> list[float]:
        """Select the inputs once, then set up SETUPS times; returns the times."""
        selected, _ = self.child("select", "select")
        self.tally("select", selected is not None)
        if selected is None:
            return []
        self.params = selected["params"]
        times, first = [], None
        for i in range(SETUPS):
            result, seconds = self.child("setup", f"setup{i}",
                                         "--params", json.dumps(self.params))
            times.append(seconds)
            if result is None:
                self.tally(f"setup{i}", False)
                continue
            first = first or result
            self.env = result["env"]
            self.tally(f"setup{i}", result["files"] == first["files"],
                       "set-up files differ from the first set-up")
        return times

    def run(self, i: int, spans: Path | None = None) -> dict | None:
        extra = ["--inputs", str(self.work / "setup0")]
        if spans is not None:
            extra += ["--trace", str(spans)]
        result, _ = self.child("run", f"run{i}", *extra)
        return result

    def check(self, name: str, result: dict | None, reference: dict | None) -> bool:
        """Tally one run: exit code, output checks, identical artifacts."""
        if result is None:
            self.tally(name, False)
            return False
        bad = [k for k, ok in result["checks"].items() if not ok]
        if reference is not None and result["artifacts"] != reference["artifacts"]:
            bad.append("artifacts differ from the first run")
        if "layers" in result:
            bad += layer_problems(self.workload, result)
        self.tally(name, not bad, "; ".join(bad))
        return not bad

    def loop(self, seconds: float, body, min_calls: int) -> None:
        """Call body(i) until ``seconds`` have passed and min_calls are done."""
        start = time.perf_counter()
        i, last = 0, 0.0
        while i < min_calls or time.perf_counter() - start < seconds:
            if time.monotonic() + 1.5 * last > self.deadline:
                self.problems.append(f"stopped after {i} runs: deadline")
                break
            t0 = time.perf_counter()
            if not body(i):
                break
            last = time.perf_counter() - t0
            i += 1


def layer_problems(workload: str, result: dict) -> list[str]:
    """Self-test of the wrappers on one traced run."""
    layers = result["layers"]
    used = {m for group in spec.USES[workload] for m in group}
    unused = {m for group in spec.GROUPS for m in group} - used
    bad = [f"{m} has no sample" for m in sorted(used) if not layers[m] > 0]
    bad += [f"{m} is {layers[m]}, expected 0" for m in sorted(unused) if layers[m] != 0]
    steps = {layers["training.train_model.steps"], layers["optim.Adam.step.calls"],
             layers["training.train_step.n"]}
    if len(steps) != 1:
        bad.append(f"train steps disagree: {sorted(steps)}")
    self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
    if abs(self_total - result["wall_s"]) > 0.02 * result["wall_s"] + 0.01:
        bad.append(f"self times sum to {self_total:.4f} s, wall is {result['wall_s']:.4f} s")
    return bad


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def measure(workload: str, seed: int, seconds: int, trace: bool,
            metric_specs: list[dict]) -> dict:
    """Set up, run and check one workload; returns its full record."""
    deadline = time.monotonic() + DEADLINE_S
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=scratch))
    try:
        bench = Bench(workload, seed, work, deadline)
        setup_s = bench.setups()
        plain: list[dict] = []
        traced: list[dict] = []
        if bench.failed == 0:
            spans = ROOT / ".perfbench_out" / f"spans-{workload}-seed{seed}.ndjson"

            def untraced_run(i: int) -> bool:
                result = bench.run(i)
                ok = bench.check(f"run{i}", result, plain[0] if plain else None)
                if result is not None:
                    plain.append(result)
                return ok

            def pair(i: int) -> bool:
                if not untraced_run(2 * i):
                    return False
                result = bench.run(2 * i + 1, spans)
                ok = bench.check(f"run{2 * i + 1} (traced)", result, plain[0])
                if result is not None:
                    traced.append(result)
                return ok

            if trace:
                bench.loop(seconds, pair, MIN_PAIRS)
            else:
                bench.loop(seconds, untraced_run, MIN_RUNS)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    walls = [r["wall_s"] for r in plain]
    values = {
        "wall_s": median(walls),
        "setup_s": median(setup_s),
        "throughput_per_s": median([r["work_items"] / r["wall_s"] for r in plain]),
        "oa": 100 * median([r["oa"] for r in plain]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in plain]),
    }
    if trace:
        values = {"trace.wall_s": median([r["wall_s"] for r in traced])}
        values["trace.overhead_s"] = values["trace.wall_s"] - median(walls)
        for m in metric_specs:
            if m["name"] not in values:
                values[m["name"]] = median([r["layers"][m["name"]] for r in traced])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in metric_specs}
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "correct": bench.failed == 0 and bool(plain) and (bool(traced) or not trace),
        "attempted": bench.attempted, "failed": bench.failed,
        "problems": bench.problems, "env": bench.env, "params": bench.params,
        "runs": len(plain), "traced_runs": len(traced), "setups": len(setup_s),
        "work_items": plain[0]["work_items"] if plain else 0,
        "setup_s_each": setup_s, "wall_s_each": walls,
        "metrics": metrics,
        "layers_each": [r["layers"] for r in traced],
    }


def report(record: dict) -> None:
    """Human-readable lines, before the JSON result line."""
    w = record["workload"]
    print(f"== {w} seed {record['seed']}: {record['runs']} runs, "
          f"{record['traced_runs']} traced, {record['setups']} set-ups, "
          f"closed loop, 1 client")
    print(f"stresses {spec.STRESSES[w]}; bypasses {spec.BYPASSES[w]}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    metrics = record["metrics"]
    if record["trace"]:
        for name, m in metrics.items():
            print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    else:
        n_runs, n_setups = record["runs"], record["setups"]
        throughput = spec.THROUGHPUT[w]
        for name in spec.E2E_NAMES:
            if name == "error_rate":
                value, unit = record["failed"] / max(record["attempted"], 1), "fraction"
                count = f"{record['failed']} of {record['attempted']} failed"
            elif name in spec.THROUGHPUT.values():
                if name != throughput:
                    print(f"  {name:<22} {'-':>14}")
                    continue
                m = metrics["throughput_per_s"]
                value, unit = m["value"], m["unit"]
                count = f"median of {n_runs}, {record['work_items']} per run"
            else:
                value, unit = metrics[name]["value"], metrics[name]["unit"]
                count = f"median of {n_setups if name == 'setup_s' else n_runs}"
            print(f"  {name:<22} {value:>14.6g} {unit:<8} {count}")
    for problem in record["problems"]:
        print(f"  problem: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(spec.THROUGHPUT) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hsiatl" / "cli.py").is_file():
        print(f"error: program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    metric_specs = config["per_layer" if args.trace else "end_to_end"]
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)

    names = sorted(spec.THROUGHPUT) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        record = measure(name, args.seed, args.seconds, bool(args.trace), metric_specs)
        (out_dir / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True))
        report(record)
        records.append(record)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
