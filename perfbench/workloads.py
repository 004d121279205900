"""Inputs, timed operation and output checks of each workload.

Every workload drives the program in-process through ``hsiatl.cli.main``
(and, for acquisition, ``hsiatl.queries.query_pool``). Module attributes are
looked up at call time, so a traced run sees the wrapped functions.

Inputs are synthetic cubes made from the benchmark seed: the active-learning
cube and the large scan cube from ``seed``, the shifted transfer target from
a seed-derived search (``select_transfer``). The source checkpoint is trained
on a fixed cube, so its weights do not vary with the seed. Model and split
seeds stay at the CLI default of 0.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hsiatl import checkpoint, cli, data, queries, transfer
from hsiatl.model import unfold

CLASSES = 4
SIZE = "48x48x16"
SCAN_SIZE = "96x96x16"
NOISE = 0.3
AL_EPOCHS = 3
SOURCE_EPOCHS = 4
TRANSFER_EPOCHS = 3
ROUNDS = 6
QUERY_SIZE = 16
RHO = 0.5
TARGET_FRACTION = 0.10
SAMPLE_COUNT = 1024
# Class prototypes sit 2*pi/CLASSES = pi/2 apart in phase, so a pi/2 shift
# only relabels the classes (zero-shot OA near 0). 0.5 rad is not a multiple
# of that spacing: zero-shot stays well above 0 and well below fine-tuned.
SHIFT = 0.5
SCAN_RATIOS = (0.01, 0.49, 0.50)
SCAN_STRATEGIES = ("hybrid", "entropy", "margin", "diversity_only")
OA_FLOOR = 0.70
SOURCE_SEED = 0  # the source model is one fixed artifact; seeds vary the targets
FROZEN = [0, 1]
MMD_MARGIN = 0.05
MAX_CANDIDATES = 16


class Clock:
    """Sums the wall time of the timed calls into the program."""

    def __init__(self):
        self.wall_s = 0.0

    def call(self, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.wall_s += time.perf_counter() - start


@dataclass
class Outcome:
    oa: float
    work_items: int
    artifacts: dict[str, str] = field(default_factory=dict)
    checks: dict[str, bool] = field(default_factory=dict)


def sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def file_hashes(directory: Path) -> dict[str, str]:
    return {p.name: sha256(p.read_bytes()) for p in sorted(directory.iterdir())}


def _cli(*argv: str) -> None:
    code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"hsiatl {argv[0]} exited {code}")


def _synth(d: Path, stem: str, size: str, seed: int, shift: float = 0.0) -> None:
    _cli("synth", "--cube", d / f"{stem}.hsic", "--labels", d / f"{stem}.hsil",
         "--classes", CLASSES, "--size", size, "--noise", NOISE,
         "--shift", shift, "--seed", seed)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True))


def _train_source(d: Path) -> None:
    """Source checkpoint on cube A; a 5% test split keeps set-up short."""
    _write_json(d / "source.json", {"epochs": SOURCE_EPOCHS})
    _cli("train", "--cube", d / "a.hsic", "--labels", d / "a.hsil",
         "--config", d / "source.json", "--ratios", "0.05,0.90,0.05",
         "--manifest", d / "source.manifest.json",
         "--checkpoint", d / "source.sstc", "--out", d / "source-train.json")


# --- set-up: writes every input of the timed operation into ``d`` ----------

def setup_al(d: Path, seed: int, params: dict) -> None:
    _synth(d, "a", SIZE, seed)
    labels = data.load_labels(d / "a.hsil")
    defaults = cli.RunConfig()
    data.save_manifest(data.make_split(labels, defaults.ratios, defaults.seed),
                       d / "a.manifest.json")
    _write_json(d / "al.json", {"epochs": AL_EPOCHS})


def setup_transfer(d: Path, seed: int, params: dict) -> None:
    _synth(d, "a", SIZE, SOURCE_SEED)
    _synth(d, "b", SIZE, params["target_seed"], shift=SHIFT)
    _train_source(d)
    _write_json(d / "transfer.json", {
        "epochs": TRANSFER_EPOCHS, "sample_count": SAMPLE_COUNT,
        "rho": RHO, "target_fraction": TARGET_FRACTION,
    })
    # Fine-tuning pixels: the same split run_transfer draws (CLI seed 0).
    tune = data.make_split(data.load_labels(d / "b.hsil"),
                           (TARGET_FRACTION, 0.0, 1.0 - TARGET_FRACTION), seed=0)
    _write_json(d / "meta.json", {"tune_pixels": int(tune.train.size)})


def setup_scan(d: Path, seed: int, params: dict) -> None:
    _synth(d, "a", SIZE, SOURCE_SEED)
    _train_source(d)
    _synth(d, "c", SCAN_SIZE, seed)


# --- input selection: runs once per invocation, outside set-up time --------

def _freeze_plan(model, source, target) -> transfer.FreezePlan:
    """The plan ``hsiatl transfer`` will make: same draws from the CLI seed 0."""
    rng = np.random.default_rng(0)
    window, subpatch = model.config.window, model.config.subpatch

    def sample(cube, labels):
        pixels = labels.labeled_indices()
        picked = rng.choice(pixels, size=min(SAMPLE_COUNT, pixels.size), replace=False)
        return unfold(data.extract_windows_batch(cube, picked, window), subpatch)

    return transfer.freeze_plan(model, sample(*source), sample(*target), RHO,
                                transfer.MmdConfig(sample_count=SAMPLE_COUNT))


def select_transfer(d: Path, seed: int) -> dict:
    """Draw target cubes from the seed until the freeze plan is FROZEN.

    Layer MMDs often lie within a few percent of each other, so the plan
    flips between seeds, and with it the tape length, peak memory and
    fine-tune time. Keeping only targets whose plan freezes the embedding
    and layers 0-1 by a clear margin makes every seed run the same code path
    (frozen layers record no tape) and keeps the plan stable under last-ulp
    changes to the arithmetic.
    """
    _synth(d, "a", SIZE, SOURCE_SEED)
    _train_source(d)
    model = checkpoint.load_model(d / "source.sstc")
    source = data.load_cube(d / "a.hsic"), data.load_labels(d / "a.hsil")
    for k in range(MAX_CANDIDATES):
        target_seed = MAX_CANDIDATES * seed + k
        _synth(d, "b", SIZE, target_seed, shift=SHIFT)
        plan = _freeze_plan(model, source,
                            (data.load_cube(d / "b.hsic"), data.load_labels(d / "b.hsil")))
        mmd = plan.layer_mmd
        if plan.frozen == FROZEN and min(mmd[2:]) > (1 + MMD_MARGIN) * max(mmd[:2]):
            return {"target_seed": target_seed, "candidates": k + 1}
    raise RuntimeError(f"no target cube among {MAX_CANDIDATES} freezes {FROZEN}")


# --- timed operations ------------------------------------------------------

def run_al(inputs: Path, out: Path, seed: int, clock: Clock) -> Outcome:
    rounds_path = out / "rounds.ndjson"
    code = clock.call(cli.main, [
        "al", "--cube", str(inputs / "a.hsic"), "--labels", str(inputs / "a.hsil"),
        "--manifest", str(inputs / "a.manifest.json"),
        "--config", str(inputs / "al.json"), "--strategy", "hybrid",
        "--rounds", str(ROUNDS), "--query-size", str(QUERY_SIZE),
        "--out", str(rounds_path), "--checkpoint", str(out / "al.sstc"),
    ])
    if code != 0:
        return Outcome(0.0, 0, checks={"exit 0": False})
    records = [json.loads(line) for line in rounds_path.read_text().splitlines()]
    manifest = json.loads((inputs / "a.manifest.json").read_text())
    queried = [i for r in records for i in r["queried_indices"]]
    sizes = [r["train_size"] for r in records]
    # wall_seconds is a timing, so it is left out of the byte comparison.
    stable = [{k: v for k, v in r.items() if k != "wall_seconds"} for r in records]
    return Outcome(
        oa=records[-1]["oa"],
        work_items=AL_EPOCHS * sum(sizes),
        artifacts={
            "rounds": sha256(json.dumps(stable, sort_keys=True).encode()),
            "al.sstc": sha256((out / "al.sstc").read_bytes()),
        },
        checks={
            "exit 0": True,
            f"{ROUNDS + 1} round records": len(records) == ROUNDS + 1,
            f"train_size grows by {QUERY_SIZE} per round":
                sizes == [sizes[0] + QUERY_SIZE * i for i in range(len(sizes))],
            "queried pixels distinct": len(set(queried)) == len(queried) == ROUNDS * QUERY_SIZE,
            "queried pixels from the pool": set(queried) <= set(manifest["pool"]),
            f"final oa >= {OA_FLOOR}": records[-1]["oa"] >= OA_FLOOR,
        },
    )


def run_transfer(inputs: Path, out: Path, seed: int, clock: Clock) -> Outcome:
    report_path = out / "transfer.json"
    code = clock.call(cli.main, [
        "transfer", "--cube", str(inputs / "a.hsic"), "--labels", str(inputs / "a.hsil"),
        "--source-ckpt", str(inputs / "source.sstc"),
        "--target-cube", str(inputs / "b.hsic"), "--target-labels", str(inputs / "b.hsil"),
        "--config", str(inputs / "transfer.json"),
        "--checkpoint", str(out / "tuned.sstc"), "--out", str(report_path),
    ])
    if code != 0:
        return Outcome(0.0, 0, checks={"exit 0": False})
    report = json.loads(report_path.read_text())
    meta = json.loads((inputs / "meta.json").read_text())
    tuned, zero_shot = report["fine_tuned"]["oa"], report["zero_shot"]["oa"]
    n_frozen = math.floor(RHO * cli.RunConfig().n_layers)
    return Outcome(
        oa=tuned,
        work_items=TRANSFER_EPOCHS * meta["tune_pixels"],
        artifacts={
            "transfer.json": sha256(report_path.read_bytes()),
            "tuned.sstc": sha256((out / "tuned.sstc").read_bytes()),
        },
        checks={
            "exit 0": True,
            f"{n_frozen} frozen layers": len(report["frozen"]) == n_frozen,
            "fine-tuned oa > zero-shot oa": tuned > zero_shot,
        },
    )


def run_scan(inputs: Path, out: Path, seed: int, clock: Clock) -> Outcome:
    eval_path = out / "eval.json"
    ckpt, cube_path, labels_path = (inputs / "source.sstc", inputs / "c.hsic",
                                    inputs / "c.hsil")
    code = clock.call(cli.main, [
        "eval", "--cube", str(cube_path), "--labels", str(labels_path),
        "--checkpoint", str(ckpt), "--out", str(eval_path),
    ])
    if code != 0:
        return Outcome(0.0, 0, checks={"exit 0": False})
    model = clock.call(checkpoint.load_model, ckpt)
    cube = clock.call(data.load_cube, cube_path)
    labels = clock.call(data.load_labels, labels_path)
    pool = clock.call(data.make_split, labels, SCAN_RATIOS, seed).pool
    artifacts = {"eval.json": sha256(eval_path.read_bytes())}
    checks = {"exit 0": True}
    for strategy in SCAN_STRATEGIES:
        cfg = queries.QueryConfig(query_size=QUERY_SIZE, strategy=strategy)
        picked = clock.call(queries.query_pool, model, cube, labels, pool, cfg,
                            rng=np.random.default_rng(seed)).selected
        artifacts[strategy] = sha256(np.asarray(picked, dtype="<i8").tobytes())
        checks[f"{strategy}: {QUERY_SIZE} distinct pool pixels"] = bool(
            picked.size == QUERY_SIZE and np.unique(picked).size == QUERY_SIZE
            and np.isin(picked, pool).all())
    metrics = json.loads(eval_path.read_text())["metrics"]
    checks[f"eval oa >= {OA_FLOOR}"] = metrics["oa"] >= OA_FLOOR
    # Pixels the model classified: every labeled pixel once in eval, then the
    # pool once per probability-based strategy (diversity_only scores none).
    scored = metrics["n_samples"] + (len(SCAN_STRATEGIES) - 1) * int(pool.size)
    return Outcome(oa=metrics["oa"], work_items=scored, artifacts=artifacts,
                   checks=checks)


SELECT = {"transfer-shift": select_transfer}
SETUP = {"al-hybrid": setup_al, "transfer-shift": setup_transfer, "scan-score": setup_scan}
RUN = {"al-hybrid": run_al, "transfer-shift": run_transfer, "scan-score": run_scan}
