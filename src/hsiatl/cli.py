"""Command-line pipeline driver.

Subcommands cover the whole workflow: cube synthesis, supervised training,
active-learning rounds, cross-domain transfer, checkpoint evaluation, and
the strategy/component ablation sweep.

Settings resolve in three layers: built-in defaults, then a JSON file
passed with --config, then explicit flags. The resolved settings are
printed once at startup so any run can be reproduced from its log.
Accuracy numbers on stdout and in the ablation CSV are percentages with
two decimals; JSON artifacts keep raw full-precision fractions.

Exit codes: 0 success, 1 usage error, 2 data or file-format error,
3 numerical failure during training.
"""

from __future__ import annotations

import argparse
import copy
import csv
import ctypes
import dataclasses
import functools
import json
import math
import os
import sys
import typing
from pathlib import Path

import numpy as np

from hsiatl.checkpoint import load_model, save_model
from hsiatl.data import (
    DimensionError,
    FormatError,
    HsiCube,
    LabelMap,
    SplitManifest,
    check_extent,
    load_cube,
    load_labels,
    load_manifest,
    make_split,
    save_cube,
    save_labels,
    save_manifest,
    synth_cube,
    type_mismatch,
    validate_split,
)
from hsiatl.metrics import MetricsReport
from hsiatl.model import SstConfig, SstModel, init_model
from hsiatl.queries import STRATEGIES, QueryConfig, check_neighborhood
from hsiatl.training import (
    NumericalError,
    TrainConfig,
    WindowBank,
    evaluate_pixels,
    run_active_learning,
    train_model,
)
from hsiatl.transfer import (FineTuneError, MmdConfig, check_fractions, run_transfer,
                             tune_split)


class UsageError(Exception):
    """Bad flags or flag values; maps to exit code 1."""


def _build(run, cls, **given):
    """The component config ``cls`` from the run's values of its fields;
    ``given`` supplies the data's ``bands`` and ``n_classes`` or overrides a
    run value. Fields the run lacks keep their defaults."""
    values = {f.name: getattr(run, f.name) for f in dataclasses.fields(cls) if hasattr(run, f.name)}
    return cls(**{**values, **given})


# Every tunable a subcommand draws from: the fields, types and defaults of the
# model, query, training and MMD configs (bands and n_classes come from the
# data; ln_eps is not a setting), then the run's own. Field names double as
# the --config keys; flags override file values, which override defaults.
# ``run.build(TrainConfig, seed=seed)`` projects a run onto one component.
RunConfig = dataclasses.make_dataclass("RunConfig", [
    *((f.name, typing.get_type_hints(cls)[f.name], f.default)
      for cls in (SstConfig, QueryConfig, TrainConfig, MmdConfig)
      for f in dataclasses.fields(cls) if f.name not in {"bands", "n_classes", "ln_eps"}),
    ("rounds", int, 6),
    ("rho", float, 0.5),
    ("target_fraction", float, 0.10),
    ("ratios", tuple[float, float, float], (0.01, 0.49, 0.50)),
], namespace={"build": _build, "__module__": __name__})


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_size(value: str) -> tuple[int, int, int]:
    parts = value.lower().split("x")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("size must look like 32x32x16")
    try:
        dims = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad size {value!r}") from exc
    if any(d < 1 for d in dims):
        raise argparse.ArgumentTypeError("size dimensions must be positive")
    return dims


def _parse_ratios(value: str) -> tuple[float, float, float]:
    parts = value.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("ratios must look like 0.01,0.49,0.5")
    try:
        return tuple(float(p) for p in parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad ratios {value!r}") from exc


def _parse_seeds(value: str) -> list[int]:
    try:
        seeds = [int(p) for p in value.split(",") if p != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad seed list {value!r}") from exc
    for seed in seeds:
        if seed < 0:
            raise argparse.ArgumentTypeError(f"seeds must be >= 0, got {seed}")
    return seeds


def _add_shared(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with RunConfig overrides")
    p.add_argument("--seed", type=int, help="master RNG seed (default 0)")
    p.add_argument("--cube", help="cube file (HSIC)")
    p.add_argument("--labels", help="label file (HSIL)")
    p.add_argument("--manifest", help="split manifest JSON")
    p.add_argument("--checkpoint", help="model checkpoint path")
    p.add_argument("--out", help="primary output artifact path")


def _add_al_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strategy", choices=STRATEGIES)
    p.add_argument("--query-size", dest="query_size", type=int)
    p.add_argument("--rounds", type=int)
    p.add_argument("--beta", type=int)
    p.add_argument("--neighborhood", dest="n_neighborhood", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hsiatl", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("synth", help="generate a synthetic cube + labels")
    _add_shared(p)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--size", type=_parse_size, default=(32, 32, 16),
                   help="rows x cols x bands, e.g. 32x32x16")
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--shift", type=float, default=0.0,
                   help="spectral phase shift, radians")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train on the manifest's train split")
    _add_shared(p)
    p.add_argument("--ratios", type=_parse_ratios,
                   help="train,pool,test fractions for an auto-made manifest")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("al", help="run active-learning rounds")
    _add_shared(p)
    _add_al_flags(p)
    p.set_defaults(func=cmd_al)

    p = sub.add_parser("transfer", help="adapt a source checkpoint to a new domain")
    _add_shared(p)
    p.add_argument("--source-ckpt", dest="source_ckpt")
    p.add_argument("--target-cube", dest="target_cube")
    p.add_argument("--target-labels", dest="target_labels")
    p.add_argument("--rho", type=float)
    p.add_argument("--target-fraction", dest="target_fraction", type=float)
    p.set_defaults(func=cmd_transfer)

    p = sub.add_parser("eval", help="score a checkpoint on the test split")
    _add_shared(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="strategy and component comparison sweep")
    _add_shared(p)
    _add_al_flags(p)
    p.add_argument("--seeds", type=_parse_seeds, default=[0, 1, 2],
                   help="comma-separated seed list")
    p.add_argument("--target-cube", dest="target_cube",
                   help="optional second domain; adds freezing rows")
    p.add_argument("--target-labels", dest="target_labels")
    p.add_argument("--rho", type=float)
    p.set_defaults(func=cmd_ablate)

    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    values = dataclasses.asdict(RunConfig())
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise FileNotFoundError(f"config file not found: {path}")
        try:
            loaded = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = sorted(set(loaded) - set(values))
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(unknown)}")
        hints = typing.get_type_hints(RunConfig)
        for key, value in loaded.items():
            expected = type_mismatch(hints[key], value)
            if expected is not None:
                raise UsageError(
                    f"config key {key!r} must be {expected}, got {json.dumps(value)}"
                )
        values.update(loaded)
    for name in values:
        override = getattr(args, name, None)
        if override is not None:
            values[name] = override
        if _non_finite(values[name]):
            raise UsageError(
                f"config value {name!r} must be finite, got {json.dumps(values[name])}"
            )
    if isinstance(values["ratios"], list):
        values["ratios"] = tuple(values["ratios"])
    return RunConfig(**values)


def _non_finite(value) -> bool:
    """Whether a config value is, or holds, NaN or an infinity (JSON's NaN,
    Infinity and out-of-range numbers, and float flags, can give them)."""
    items = value if isinstance(value, (list, tuple)) else [value]
    return any(isinstance(v, float) and not math.isfinite(v) for v in items)


def _require(args: argparse.Namespace, *names: str) -> None:
    missing = [n for n in names if not getattr(args, n, None)]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise UsageError(f"{args.command} requires {flags}")


def _load_pair(cube_path: str, labels_path: str) -> tuple[HsiCube, LabelMap]:
    """A cube and its label map, which must have the same extent."""
    cube, labels = load_cube(cube_path), load_labels(labels_path)
    check_extent(cube, labels)
    return cube, labels


def _load_dataset(args: argparse.Namespace) -> tuple[HsiCube, LabelMap]:
    _require(args, "cube", "labels")
    return _load_pair(args.cube, args.labels)


def _resolve_manifest(
    args: argparse.Namespace, run: RunConfig, labels: LabelMap
) -> SplitManifest:
    """Load the manifest if its file exists, otherwise create and save one."""
    path = Path(args.manifest) if args.manifest else Path(str(args.cube) + ".manifest.json")
    if path.exists():
        manifest = load_manifest(path)
        validate_split(manifest, labels, path)
        return manifest
    manifest = _split(labels, run.ratios, run.seed)
    save_manifest(manifest, path)
    print(f"manifest {path} train {manifest.train.size} "
          f"pool {manifest.pool.size} test {manifest.test.size}")
    return manifest


def _split(labels: LabelMap, ratios: tuple[float, float, float], seed: int) -> SplitManifest:
    """``make_split``, rejecting ratios that leave no pixel to test on."""
    manifest = make_split(labels, ratios, seed)
    if manifest.test.size == 0:
        raise UsageError(f"ratios {json.dumps(list(ratios))} leave no test pixel")
    return manifest


def _check_compatible(model: SstModel, cube: HsiCube, labels: LabelMap | None = None) -> None:
    """Reject a cube, or class ids, that the checkpoint cannot score."""
    cfg = model.config
    if cube.bands != cfg.bands:
        raise DimensionError(f"cube has {cube.bands} bands, the checkpoint expects {cfg.bands}")
    if cfg.window > min(cube.rows, cube.cols):
        raise DimensionError(
            f"checkpoint window {cfg.window} exceeds cube extent {(cube.rows, cube.cols)}")
    if labels is not None and labels.n_classes > cfg.n_classes:
        raise DimensionError(
            f"labels have class ids up to {labels.n_classes}, "
            f"the checkpoint has {cfg.n_classes} classes")


def _format_metrics(tag: str, report: MetricsReport) -> str:
    return (f"{tag} oa {report.oa * 100:.2f} aa {report.aa * 100:.2f} "
            f"kappa {report.kappa * 100:.2f} n {report.n_samples}")


def _write_json(path: str | None, payload: dict) -> None:
    if path:
        Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_synth(args: argparse.Namespace, run: RunConfig) -> int:
    _require(args, "cube", "labels")
    rows, cols, bands = args.size
    cube, labels = synth_cube(
        n_classes=args.classes,
        rows=rows,
        cols=cols,
        bands=bands,
        noise=args.noise,
        shift=args.shift,
        seed=run.seed,
    )
    save_cube(cube, args.cube)
    save_labels(labels, args.labels)
    print(f"cube {rows}x{cols}x{bands} classes {labels.n_classes} "
          f"noise {args.noise} -> {args.cube}, {args.labels}")
    return 0


def cmd_train(args: argparse.Namespace, run: RunConfig) -> int:
    train_cfg = run.build(TrainConfig)  # before any file is read
    cube, labels = _load_dataset(args)
    # the model's settings and the window are checked before a manifest is written
    model_cfg = run.build(SstConfig, bands=cube.bands, n_classes=labels.n_classes)
    bank = WindowBank(cube, labels, run.window, run.subpatch)
    manifest = _resolve_manifest(args, run, labels)
    model = init_model(model_cfg, seed=run.seed)
    features, targets = bank.windows(manifest.train)
    losses = train_model(model, features, targets, train_cfg)
    report = evaluate_pixels(model, bank, manifest.test)
    print(_format_metrics("test", report))
    if args.checkpoint:
        save_model(model, args.checkpoint)
    _write_json(args.out, {
        "final_loss": losses[-1] if losses else None,
        "train_size": int(manifest.train.size),
        "test": report.as_dict(),
    })
    return 0


def _check_rounds(run: RunConfig) -> None:
    if run.rounds < 0:
        raise UsageError(f"rounds must be >= 0, got {run.rounds}")


def cmd_al(args: argparse.Namespace, run: RunConfig) -> int:
    # the settings that need no data are checked before any file is read
    query_cfg, train_cfg = run.build(QueryConfig), run.build(TrainConfig)
    _check_rounds(run)
    cube, labels = _load_dataset(args)
    # the model's settings and the window are checked before a manifest is written
    model_cfg = run.build(SstConfig, bands=cube.bands, n_classes=labels.n_classes)
    bank = WindowBank(cube, labels, run.window, run.subpatch)
    check_neighborhood(cube, run.n_neighborhood)
    manifest = _resolve_manifest(args, run, labels)
    model = init_model(model_cfg, seed=run.seed)
    records = run_active_learning(
        model, cube, labels, manifest, query_cfg, run.rounds, train_cfg, bank=bank,
    )
    if args.out:
        with open(args.out, "a") as log:
            for record in records:
                log.write(json.dumps(record, sort_keys=True) + "\n")
    for record in records:
        print(f"round {record['round']} train {record['train_size']} "
              f"oa {record['oa'] * 100:.2f} aa {record['aa'] * 100:.2f} "
              f"kappa {record['kappa'] * 100:.2f}")
    if args.checkpoint:
        save_model(model, args.checkpoint)
    return 0


def cmd_transfer(args: argparse.Namespace, run: RunConfig) -> int:
    _require(args, "source_ckpt", "target_cube", "target_labels")
    # the settings are checked before any file is read
    mmd_cfg, train_cfg = run.build(MmdConfig), run.build(TrainConfig)
    check_fractions(run.rho, run.target_fraction)
    cube, labels = _load_dataset(args)
    model = load_model(args.source_ckpt)
    target_cube, target_labels = _load_pair(args.target_cube, args.target_labels)
    # the target's class count may differ: fine-tuning resets the head then
    _check_compatible(model, cube)
    _check_compatible(model, target_cube)
    try:
        model, report = run_transfer(
            model, cube, labels, target_cube, target_labels,
            rho=run.rho,
            mmd_cfg=mmd_cfg,
            train_cfg=train_cfg,
            target_fraction=run.target_fraction,
            seed=run.seed,
        )
    except FineTuneError as exc:
        raise NumericalError(f"fine-tuning: {exc}") from None
    except NumericalError as exc:
        raise NumericalError(f"{args.source_ckpt}: {exc}") from None
    report["source"] = str(args.cube)
    report["target"] = str(args.target_cube)
    if report["zero_shot"] is not None:
        print(f"zero-shot oa {report['zero_shot']['oa'] * 100:.2f}")
    print(f"fine-tuned oa {report['fine_tuned']['oa'] * 100:.2f} "
          f"frozen {report['frozen']}")
    if args.checkpoint:
        save_model(model, args.checkpoint)
    _write_json(args.out, report)
    return 0


def cmd_eval(args: argparse.Namespace, run: RunConfig) -> int:
    _require(args, "checkpoint")
    cube, labels = _load_dataset(args)
    model = load_model(args.checkpoint)
    _check_compatible(model, cube, labels)
    bank = WindowBank(cube, labels, model.config.window, model.config.subpatch)
    if args.manifest:
        manifest = load_manifest(args.manifest)
        validate_split(manifest, labels, args.manifest)
        pixels = manifest.test
        scope = "test"
    else:
        pixels = labels.labeled_indices()
        scope = "all-labeled"
    try:
        report = evaluate_pixels(model, bank, pixels)
    except NumericalError as exc:
        raise NumericalError(f"{args.checkpoint}: {exc}") from None
    print(_format_metrics(scope, report))
    print(f"{'class':>5}  {'accuracy':>8}")
    for class_id, value in enumerate(report.per_class, start=1):
        cell = "n/a" if np.isnan(value) else f"{value * 100:.2f}"
        print(f"{class_id:>5}  {cell:>8}")
    _write_json(args.out, {"scope": scope, "metrics": report.as_dict()})
    return 0


# (row label, query strategy) per ablation arm: no_al spends the whole budget
# in one random draw (no iterative refinement); no_diversity ranks by
# uncertainty alone; lambda0 disables the entropy calibration while keeping
# the hybrid query.
ABLATION_ARMS = (
    ("random", "random"), ("entropy", "entropy"), ("margin", "margin"),
    ("diversity_only", "diversity_only"), ("hybrid", "hybrid"),
    ("no_al", "random"), ("no_diversity", "uncertainty"), ("lambda0", "hybrid"),
)


def cmd_ablate(args: argparse.Namespace, run: RunConfig) -> int:
    # the settings that need no data are checked before any file is read
    train_cfgs = [run.build(TrainConfig, seed=seed) for seed in args.seeds]
    query_cfgs = {strategy: run.build(QueryConfig, strategy=strategy)
                  for _, strategy in ABLATION_ARMS}
    _check_rounds(run)
    want_transfer = bool(args.target_cube or args.target_labels)
    if want_transfer:
        _require(args, "target_cube", "target_labels")
        mmd_cfg = run.build(MmdConfig)
        check_fractions(run.rho, run.target_fraction)
    cube, labels = _load_dataset(args)
    bank = WindowBank(cube, labels, run.window, run.subpatch)
    check_neighborhood(cube, run.n_neighborhood)
    if want_transfer:
        target_cube, target_labels = _load_pair(args.target_cube, args.target_labels)
    rows_out: list[dict] = []
    budget = run.rounds * run.query_size
    model_cfg = run.build(SstConfig, bands=cube.bands, n_classes=labels.n_classes)
    manifests = [_split(labels, run.ratios, seed) for seed in args.seeds]
    for seed, manifest, train_cfg in zip(args.seeds, manifests, train_cfgs):
        for label, strategy in ABLATION_ARMS:
            calibration = 0.0 if label == "lambda0" else run.calibration
            cfg = dataclasses.replace(model_cfg, calibration=calibration)
            model = init_model(cfg, seed=seed)
            if label == "no_al":
                rounds, sizes = 1, [budget]
            else:
                rounds, sizes = run.rounds, None
            records = run_active_learning(
                model, cube, labels, manifest,
                query_cfgs[strategy], rounds,
                train_cfg, bank=bank, round_query_sizes=sizes,
            )
            last = records[-1]
            rows_out.append({
                "strategy": label, "budget": last["train_size"], "seed": seed,
                "oa": last["oa"], "aa": last["aa"], "kappa": last["kappa"],
            })
        if want_transfer:
            # one source model per seed; each arm adapts its own copy
            source = init_model(model_cfg, seed=seed)
            features, targets = bank.windows(manifest.train)
            train_model(source, features, targets, train_cfg)
            for label, rho in (("freezing", run.rho), ("no_freezing", 0.0)):
                _, report = run_transfer(
                    copy.deepcopy(source), cube, labels, target_cube, target_labels,
                    rho=rho, mmd_cfg=mmd_cfg, train_cfg=train_cfg,
                    target_fraction=run.target_fraction, seed=seed,
                )
                fine = report["fine_tuned"]
                n_tune = tune_split(target_labels, run.target_fraction, seed).train.size
                rows_out.append({
                    "strategy": label, "budget": n_tune, "seed": seed,
                    "oa": fine["oa"], "aa": fine["aa"], "kappa": fine["kappa"],
                })
    def emit(handle) -> None:
        writer = csv.writer(handle)
        writer.writerow(["strategy", "budget", "seed", "oa", "aa", "kappa"])
        for row in rows_out:
            writer.writerow([
                row["strategy"], row["budget"], row["seed"],
                f"{row['oa'] * 100:.2f}", f"{row['aa'] * 100:.2f}",
                f"{row['kappa'] * 100:.2f}",
            ])

    if args.out:
        with open(args.out, "w", newline="") as handle:
            emit(handle)
    else:
        emit(sys.stdout)
    return 0


def _libc():
    """The C library's handle, or None where ctypes cannot open it."""
    try:
        return ctypes.CDLL(None)
    except (OSError, TypeError):
        return None


@functools.cache
def _keep_freed_pages() -> None:
    """Have glibc's malloc keep freed blocks up to 32 MiB on its heaps, and
    their pages up to 64 MiB, instead of giving them back to the kernel.

    Every evaluation batch frees and reallocates the same 0.5-2 MB
    temporaries; with glibc's defaults they go back to the kernel when freed
    and the next batch faults their pages in again. Runs once per process; a
    C library without ``mallopt`` is left as it is.
    """
    mallopt = getattr(_libc(), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD in glibc's malloc.h
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def main(argv: list[str] | None = None) -> int:
    _keep_freed_pages()
    try:
        code = _dispatch(argv)
        sys.stdout.flush()  # a closed pipe fails here, not in the exit's flush
        return code
    except BrokenPipeError:
        # stdout's reader is gone: point stdout at devnull, as Python's docs
        # show for SIGPIPE, so the interpreter's last flush cannot fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def _dispatch(argv: list[str] | None) -> int:
    """Parse, resolve the settings and run the subcommand; returns the exit
    code of every failure but a closed stdout."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    if getattr(args, "func", None) is None:
        parser.print_help()
        return 1
    try:
        run = resolve_config(args)
        print("run-config " + json.dumps(dataclasses.asdict(run), sort_keys=True))
        return args.func(args, run)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (FormatError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
