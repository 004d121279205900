"""Cross-domain transfer: distribution distance per encoder layer and
selective freezing before fine-tuning.

Layers whose source/target feature distributions already agree (low maximum
mean discrepancy) are frozen; the rest keep adapting. The embedding freezes
together with the first encoder layer, and the head always stays trainable.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from hsiatl.data import DimensionError, HsiCube, LabelMap, check_extent, make_split
from hsiatl.model import (
    NumericalError,
    PixelWindows,
    SstModel,
    encode,
    encode_prefix,
    map_batches,
    reset_head,
)
from hsiatl.training import TrainConfig, WindowBank, evaluate, train_model

logger = logging.getLogger(__name__)


@dataclass
class MmdConfig:
    """Kernel and sampling choices for the discrepancy estimate.

    bandwidth None means the median heuristic: sigma is the median pairwise
    Euclidean distance over the pooled sample (1.0 when that median is 0).
    """

    kernel: str = "rbf"
    bandwidth: float | None = None
    sample_count: int = 256

    def __post_init__(self):
        if self.kernel not in ("rbf", "linear"):
            raise ValueError(f"kernel must be rbf or linear, got {self.kernel!r}")
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if self.sample_count < 2:
            raise ValueError("sample_count must be >= 2")


@dataclass
class FreezePlan:
    """Which encoder layers to freeze, with the evidence that chose them."""

    rho: float
    layer_mmd: list[float]
    frozen: list[int]
    variance_source: list[float]
    variance_target: list[float]


def _pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aa = (a * a).sum(axis=1)[:, None]
    bb = (b * b).sum(axis=1)[None, :]
    out = aa + bb - 2.0 * (a @ b.T)
    return np.maximum(out, 0.0, out=out)


# rows per range of the pooled distance pass (see ``_row_ranges``)
_RANGE_ROWS = 256


def _row_ranges(n: int) -> list[tuple[int, int]]:
    """[start, end) ranges of at most _RANGE_ROWS rows that cover 0..n.

    A trailing lone row joins the range before it: a one-row product takes
    a different BLAS kernel (see ``model.predict_probs``), whose last
    bits differ from the multi-row one the whole block uses.
    """
    starts = list(range(0, n, _RANGE_ROWS))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def _pooled_sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Squared distances of every pooled pair: the strict upper triangles of
    the within-sample blocks, then every cross pair.

    They fill one array a row range at a time (rows s:e against columns s:
    of a within-sample block, rows s:e against all of the other sample in
    the cross block), so no whole distance block is ever held.
    """
    n, m = x.shape[0], y.shape[0]

    def pieces():
        for a in (x, y):
            for s, e in _row_ranges(a.shape[0]):
                block = _pairwise_sq_dists(a[s:e], a[s:])
                yield block[np.arange(e - s)[:, None] < np.arange(block.shape[1])]
        for s, e in _row_ranges(n):
            yield _pairwise_sq_dists(x[s:e], y).ravel()

    values = np.empty(n * (n - 1) // 2 + m * (m - 1) // 2 + n * m)
    filled = 0
    for piece in pieces():
        values[filled : filled + piece.size] = piece
        filled += piece.size
    return values


def median_bandwidth(x: np.ndarray, y: np.ndarray) -> float:
    """Median pairwise Euclidean distance over the pooled rows; 1.0 if that
    is 0.

    A partition of ``_pooled_sq_dists`` finds the middle one or two values,
    and only those are square-rooted: the root is monotone, so this is the
    median of the distances.
    """
    values = _pooled_sq_dists(x, y)
    if values.size == 0:
        return 1.0
    mid = (values.size - 1) // 2
    values.partition(mid)
    middle = [values[mid]]
    if values.size % 2 == 0:
        # the next value up is the least one past ``mid`` (fmin passes over
        # NaN, which the partition puts last); one selection and this scan
        # are several times faster than selecting both values at once
        middle.append(np.fmin.reduce(values[mid + 1 :]))
    med = float(np.mean(np.sqrt(middle)))
    return med if med > 0 else 1.0


def mmd(x: np.ndarray, y: np.ndarray, cfg: MmdConfig | None = None) -> float:
    """Squared maximum mean discrepancy between two samples, clamped at 0.

    The unbiased U-statistic estimator: within-sample kernel means leave out
    the diagonal. The three kernel blocks are built one at a time and each
    is dropped before the next, so besides the median heuristic's pooled
    distances (see ``median_bandwidth``) at most one block is held.

    Args:
        x, y: [n, d] and [m, d] feature rows; both need >= 2 rows.
        cfg: kernel settings; defaults to RBF with the median heuristic
            bandwidth.
    """
    cfg = cfg or MmdConfig()
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    if x.shape[1] != y.shape[1]:
        raise ValueError(f"feature widths differ: {x.shape} vs {y.shape}")
    n, m = x.shape[0], y.shape[0]
    if n < 2 or m < 2:
        raise ValueError("unbiased estimator needs at least 2 rows per sample")
    if cfg.kernel == "rbf":
        sigma = cfg.bandwidth if cfg.bandwidth is not None else median_bandwidth(x, y)
        scale = -1.0 / (2.0 * sigma * sigma)

    def kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if cfg.kernel == "linear":
            return a @ b.T
        # the distance block becomes the kernel block in place
        block = _pairwise_sq_dists(a, b)
        block *= scale
        return np.exp(block, out=block)

    def within_mean(a: np.ndarray, rows: int) -> float:
        k = kernel(a, a)
        return (k.sum() - np.trace(k)) / (rows * (rows - 1))

    # each block is dropped as soon as its mean is taken
    value = float(within_mean(x, n) + within_mean(y, m) - 2.0 * kernel(x, y).mean())
    return max(value, 0.0)


def _token_means(model: SstModel, features: np.ndarray | PixelWindows) -> np.ndarray:
    """Mean-over-tokens output of every encoder block, [L, n, d]: one
    contiguous [n, d] block per layer.

    Windows are encoded in parallel batches (see ``map_batches``); a row's
    features do not depend on the batch it ran in. Raises NumericalError
    when the means are not finite (numpy's floating-point warnings are
    off).
    """
    cfg = model.config
    means = np.empty((cfg.n_layers, len(features), cfg.d_model))

    def capture(rows: slice, batch: np.ndarray) -> None:
        _, captured = encode(model, batch, capture=True)
        for block, z in zip(means, captured):
            block[rows] = z.mean(axis=1)

    with np.errstate(all="ignore"):
        map_batches(capture, features)
    if not np.isfinite(means).all():
        raise NumericalError("the encoder blocks' features are not finite")
    return means


def freeze_plan(
    model: SstModel,
    source_features: np.ndarray | PixelWindows,
    target_features: np.ndarray | PixelWindows,
    rho: float,
    cfg: MmdConfig | None = None,
) -> FreezePlan:
    """Pick the floor(rho * L) layers whose features shifted least.

    Per layer, the discrepancy between mean-token source and target features
    is computed; the lowest-MMD layers freeze (ties to the lower index). The
    per-layer feature variance of both domains is recorded alongside.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [0, 1], got {rho}")
    cfg = cfg or MmdConfig()
    source_means = _token_means(model, source_features)
    target_means = _token_means(model, target_features)
    scores, var_s, var_t = [], [], []
    for i, (s, t) in enumerate(zip(source_means, target_means)):
        scores.append(mmd(s, t, cfg))
        var_s.append(float(s.var(axis=0).mean()))
        var_t.append(float(t.var(axis=0).mean()))
        logger.debug(
            "layer %d: mmd=%.6g source_var=%.6g target_var=%.6g",
            i, scores[-1], var_s[-1], var_t[-1],
        )
    n_frozen = math.floor(rho * model.config.n_layers)
    order = np.argsort(np.asarray(scores), kind="stable")
    frozen = sorted(int(i) for i in order[:n_frozen])
    return FreezePlan(
        rho=rho,
        layer_mmd=scores,
        frozen=frozen,
        variance_source=var_s,
        variance_target=var_t,
    )


def apply_freeze_plan(model: SstModel, plan: FreezePlan) -> None:
    """Set freeze flags: planned layers freeze, the embedding follows layer
    0, and the head never freezes."""
    for i in range(model.config.n_layers):
        model.freeze[f"enc{i}"] = i in plan.frozen
    model.freeze["embed"] = 0 in plan.frozen
    model.freeze["head"] = False
    model.apply_freeze()


def _frozen_prefix(plan: FreezePlan) -> int:
    """j when the plan freezes blocks 0..j-1 (and with them the embedding)
    as one unbroken run, 0 when it leaves block 0 trainable."""
    j = 0
    while j in plan.frozen:
        j += 1
    return j


def fine_tune(
    model: SstModel,
    features: np.ndarray,
    target_classes: np.ndarray,
    plan: FreezePlan,
    cfg: TrainConfig,
    n_classes: int | None = None,
    head_seed: int = 0,
    log=None,
) -> SstModel:
    """Adapt a source model to target data under a freeze plan, in place.

    If the target class count differs from the model's, the output projection
    is re-initialized first. epochs = 0 leaves every parameter untouched
    (beyond any head reset). ``target_classes`` are 1-based ids. The frozen
    prefix of the plan (see ``_frozen_prefix``) runs once, in evaluation
    mode, over ``features``; every epoch trains from the block after it.

    Returns the adapted model.
    """
    target_classes = np.asarray(target_classes)
    if n_classes is None:
        n_classes = int(target_classes.max())
    if n_classes != model.config.n_classes:
        reset_head(model, n_classes, seed=head_seed)
    apply_freeze_plan(model, plan)
    if cfg.epochs > 0:
        blocks = _frozen_prefix(plan)
        if blocks:
            features = encode_prefix(model, features, blocks)
        history = train_model(
            model, features, target_classes - 1, cfg, log=log, from_block=blocks
        )
        for epoch, value in enumerate(history):
            logger.debug("fine-tune epoch %d: loss=%.6f", epoch, value)
    return model


def run_transfer(
    model: SstModel,
    source_cube: HsiCube,
    source_labels: LabelMap,
    target_cube: HsiCube,
    target_labels: LabelMap,
    rho: float,
    mmd_cfg: MmdConfig,
    train_cfg: TrainConfig,
    target_fraction: float = 0.10,
    seed: int = 0,
) -> tuple[SstModel, dict]:
    """Freeze-plan, zero-shot score, fine-tune, re-score.

    The target labels are split (target_fraction, 0, rest) into fine-tuning
    and test pixels. Discrepancies are estimated on up to
    mmd_cfg.sample_count labeled windows per domain, drawn with ``seed``.
    Fine-tuning leaves the plan's frozen prefix as it is, so that prefix
    runs once over the test windows and both scores start after it.

    Returns the adapted model and a JSON-ready report.
    """
    if not 0.0 < target_fraction < 1.0:
        raise ValueError("target_fraction must be in (0, 1)")
    check_extent(source_cube, source_labels)
    check_extent(target_cube, target_labels)
    if source_cube.bands != target_cube.bands:
        raise DimensionError(
            f"band counts differ: source has {source_cube.bands}, "
            f"target has {target_cube.bands}"
        )
    window, subpatch = model.config.window, model.config.subpatch
    rng = np.random.default_rng(seed)

    def sample_features(cube: HsiCube, labels: LabelMap) -> PixelWindows:
        pixels = labels.labeled_indices()
        take = min(mmd_cfg.sample_count, pixels.size)
        picked = rng.choice(pixels, size=take, replace=False)
        return PixelWindows(cube, picked, window, subpatch)

    plan = freeze_plan(
        model,
        sample_features(source_cube, source_labels),
        sample_features(target_cube, target_labels),
        rho,
        mmd_cfg,
    )
    split = make_split(
        target_labels, (target_fraction, 0.0, 1.0 - target_fraction), seed=seed
    )
    bank = WindowBank(target_cube, target_labels, window, subpatch)
    test_windows, test_targets = bank.windows(split.test)
    blocks = _frozen_prefix(plan)
    if blocks:
        test_windows = encode_prefix(model, test_windows, blocks)
    zero_shot = None
    if target_labels.n_classes == model.config.n_classes:
        zero_shot = evaluate(model, test_windows, test_targets + 1, blocks).as_dict()
    tune_features, tune_targets = bank.take(split.train)
    fine_tune(
        model, tune_features, tune_targets + 1, plan, train_cfg,
        n_classes=target_labels.n_classes, head_seed=seed,
    )
    tuned = evaluate(model, test_windows, test_targets + 1, blocks).as_dict()
    report = {
        "per_layer_mmd": plan.layer_mmd,
        "per_layer_variance": {
            "source": plan.variance_source,
            "target": plan.variance_target,
        },
        "frozen": plan.frozen,
        "rho": rho,
        "target_fraction": target_fraction,
        "zero_shot": zero_shot,
        "fine_tuned": tuned,
    }
    return model, report
