"""Minibatch training, evaluation, and the active-learning driver."""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from hsiatl import autodiff as ad
from hsiatl.autodiff import Tape
from hsiatl.data import HsiCube, LabelMap, SplitManifest, check_extent, window_pad
from hsiatl.metrics import MetricsReport, confusion, report
from hsiatl.model import (  # NumericalError is re-exported
    NumericalError,
    PixelWindows,
    SstModel,
    dropout_draws,
    forward_batch,
    map_batches,
    predict_probs,
)
from hsiatl.optim import Adam
from hsiatl.queries import QueryConfig, al_round, query_pool


@dataclass
class TrainConfig:
    epochs: int = 50
    batch_size: int = 56
    lr: float = 0.001
    decay: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not self.lr > 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if self.decay < 0:
            raise ValueError(f"decay must be >= 0, got {self.decay}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


class WindowBank:
    """Windows and 0-based targets of every labeled pixel, gathered on demand.

    The bank keeps the cube, which holds its one mirror-padded copy
    (``HsiCube.padded``), and the targets; no window exists until asked
    for. ``windows`` gives a lazy ``PixelWindows`` over some labeled
    pixels, which training, evaluation and pool scoring unfold batch by
    batch, and ``take`` gathers them all at once. Raises DimensionError
    when the label map and the cube differ in extent.
    """

    def __init__(self, cube: HsiCube, labels: LabelMap, window: int, subpatch: int):
        check_extent(cube, labels)
        self.pixels = labels.labeled_indices()
        if self.pixels.size == 0:
            raise ValueError("label map has no labeled pixels")
        window_pad(cube, window)  # checks the window; pads now, so gathers only read
        self.cube, self.window, self.subpatch = cube, window, subpatch
        self.targets = labels.labels.ravel()[self.pixels].astype(np.int64) - 1
        self._row = np.full(labels.labels.size, -1, dtype=np.int64)
        self._row[self.pixels] = np.arange(self.pixels.size)

    def windows(self, pixel_indices: np.ndarray) -> tuple[PixelWindows, np.ndarray]:
        """Lazy unfolded windows and targets of labeled pixels, in their order."""
        pixel_indices = np.asarray(pixel_indices)
        rows = self._row[pixel_indices]
        if (rows < 0).any():
            raise ValueError("requested pixels that are not labeled")
        windows = PixelWindows(self.cube, pixel_indices, self.window, self.subpatch)
        return windows, self.targets[rows]

    def take(self, pixel_indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Unfolded windows [n, N_p, p*p*bands] and targets, gathered now."""
        windows, targets = self.windows(pixel_indices)
        return windows[:], targets


def train_model(
    model: SstModel,
    features: np.ndarray | PixelWindows,
    targets: np.ndarray,
    cfg: TrainConfig,
    from_block: int = 0,
) -> list[float]:
    """Train in place; returns the mean loss per epoch.

    Shuffling and dropout draw from one generator seeded by cfg.seed, so the
    run is fully deterministic. Each minibatch is gathered once from
    ``features`` (an array, or a ``PixelWindows`` that unfolds only that
    minibatch's windows) on the calling thread, then runs as two fixed
    halves, rows [0, ceil(b/2)) and the rest, on the CPU pool of
    ``map_batches``: each half does forward and backward on its own
    parameter replica and tape, with those rows of the batch's dropout
    masks, and the second half's gradient vector is added to the first's
    before one optimizer step. The split never depends on the CPU count, so
    neither does the result. With ``from_block`` above 0, ``features`` are
    the tokens ``encode_prefix`` gives for that many blocks; only the blocks
    from ``from_block`` on, the pool and the head run, so the embedding and
    the earlier blocks (the vector's head up to
    ``SstConfig.tail_start(from_block)``) keep their values, and no
    gradient, moment or scratch vector has entries for them. The two
    replicas are made once per call, on the calling thread, and their
    gradient vectors are zeroed in place before each step. Raises
    ValueError, before any step, on no windows or not one target per
    window, and NumericalError on a non-finite loss (numpy's floating-point
    warnings are off).
    """
    n = len(features)
    if len(targets) != n:
        raise ValueError(f"{len(targets)} targets for {n} windows")
    if n == 0:
        raise ValueError("no windows to train on")
    rng = np.random.default_rng(cfg.seed)
    model.apply_freeze()
    tail = model.config.tail_start(from_block)
    optimizer = Adam(model.vector[tail:], lr=cfg.lr, decay=cfg.decay)
    replicas = model.replica(tail), model.replica(tail)

    def step(batch: np.ndarray, epoch: int) -> float:
        """One optimizer step on the rows ``batch``; returns their loss sum."""
        # drawn for the whole batch, in serial order, before either half runs
        draws = dropout_draws(model.config, batch.size, rng, from_block)
        windows, labels = features[batch], targets[batch]

        def half_step(half: slice, x: np.ndarray) -> float:
            # each half is one contiguous range, so its windows and masks are views
            replica = replicas[half.start > 0]
            with Tape() as tape:
                probs = forward_batch(replica, x, True, (m[half] for m in draws), from_block)
                # weighted by row share: the halves sum to the batch mean
                loss = ad.scale(ad.cross_entropy(probs, labels[half]), len(x) / batch.size)
            value = float(loss.data)
            if not np.isfinite(value):
                raise NumericalError(f"loss became {value} at epoch {epoch}")
            ad.backward(tape, loss)
            return value

        # optimizer.grad is replaced below; zero_grad stays as the mark that
        # opens a step for perfbench's step timer, which ends at step()
        optimizer.zero_grad()
        for replica in replicas:
            replica.grad.fill(0.0)
        values = map_batches(half_step, windows, (batch.size + 1) // 2)
        # a one-row batch leaves the second gradient zero, and adding it keeps every bit
        optimizer.grad = replicas[0].grad
        optimizer.grad += replicas[1].grad
        optimizer.step()
        return sum(values) * batch.size

    history = []
    # a non-finite loss raises NumericalError, so numpy need not warn first
    with np.errstate(all="ignore"):
        for epoch in range(cfg.epochs):
            order = rng.permutation(n)
            total = 0.0
            for start in range(0, n, cfg.batch_size):
                total += step(order[start : start + cfg.batch_size], epoch)
            history.append(total / n)
    return history


def evaluate(
    models: SstModel | tuple[SstModel, ...],
    features: np.ndarray | PixelWindows,
    target_classes: np.ndarray,
    from_block: int = 0,
):
    """Score evaluation-mode predictions; target classes are 1-based.

    ``models`` and ``from_block`` are passed to ``predict_probs``: a tuple of
    models that share their first ``from_block`` blocks is scored in one
    pass and gives a tuple of reports, one per model.
    """
    probs = predict_probs(models, features, from_block=from_block)
    if isinstance(models, SstModel):
        return _score(models, probs, target_classes)
    return tuple(_score(model, p, target_classes) for model, p in zip(models, probs))


def _score(model: SstModel, probs: np.ndarray, target_classes: np.ndarray) -> MetricsReport:
    predicted = probs.argmax(axis=1) + 1
    matrix = confusion(predicted, np.asarray(target_classes), model.config.n_classes)
    return report(matrix)


def evaluate_pixels(model: SstModel, bank: WindowBank, pixels: np.ndarray) -> MetricsReport:
    windows, targets = bank.windows(pixels)
    return evaluate(model, windows, targets + 1)


def run_active_learning(
    model: SstModel,
    cube: HsiCube,
    labels: LabelMap,
    manifest: SplitManifest,
    query_cfg: QueryConfig,
    rounds: int,
    train_cfg: TrainConfig,
    bank: WindowBank | None = None,
    round_query_sizes: list[int] | None = None,
) -> list[dict]:
    """Initial training plus ``rounds`` acquisition/retrain cycles.

    The model is warm-started across rounds: each cycle continues training
    the same parameters on the grown train set with a fresh optimizer.
    Returns one record per round (round 0 is the initial fit), each with the
    train size, queried pixels, test metrics, and wall-clock seconds.

    Args:
        round_query_sizes: optional per-round override of
            query_cfg.query_size, e.g. to hit an exact label budget.
    """
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    if round_query_sizes is not None and len(round_query_sizes) != rounds:
        raise ValueError("round_query_sizes must have one entry per round")
    if bank is None:
        bank = WindowBank(cube, labels, model.config.window, model.config.subpatch)
    rng = np.random.default_rng(train_cfg.seed)
    train = manifest.train.copy()
    pool = manifest.pool.copy()
    records = []

    def fit_and_score(round_idx: int, queried: np.ndarray) -> None:
        start = time.perf_counter()
        features, targets = bank.windows(train)
        cfg = dataclasses.replace(train_cfg, seed=train_cfg.seed + round_idx)
        train_model(model, features, targets, cfg)
        scores = evaluate_pixels(model, bank, manifest.test)
        records.append(
            {
                "round": round_idx,
                "strategy": query_cfg.strategy,
                "train_size": int(train.size),
                "queried_indices": [int(i) for i in queried],
                "oa": scores.oa,
                "aa": scores.aa,
                "kappa": scores.kappa,
                "wall_seconds": time.perf_counter() - start,
            }
        )

    fit_and_score(0, np.zeros(0, dtype=np.int64))
    for round_idx in range(1, rounds + 1):
        if pool.size == 0:
            break
        cfg = query_cfg
        if round_query_sizes is not None:
            size = round_query_sizes[round_idx - 1]
            if size == 0:
                fit_and_score(round_idx, np.zeros(0, dtype=np.int64))
                continue
            cfg = dataclasses.replace(query_cfg, query_size=size)
        result = query_pool(model, cube, labels, pool, cfg, rng=rng)
        train, pool = al_round(train, pool, result.selected)
        fit_and_score(round_idx, result.selected)
    return records
