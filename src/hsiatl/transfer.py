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
from hsiatl.model import PixelWindows, SstModel, encode, encode_prefix, map_batches, reset_head
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
    return np.maximum(aa + bb - 2.0 * (a @ b.T), 0.0)


def _median_distance(within_x: np.ndarray, within_y: np.ndarray, cross: np.ndarray) -> float:
    """Median pairwise distance over the pooled rows of two samples, from
    their squared-distance blocks; 1.0 if that median is 0.

    The pooled pairs are the strict upper triangles of the within-sample
    blocks plus every cross pair. One partition finds the middle one or two
    squared distances, and only those are square-rooted: the root is
    monotone, so this is the median of the distances.
    """
    values = np.concatenate(
        [row[i + 1 :] for block in (within_x, within_y) for i, row in enumerate(block)]
        + [cross.ravel()]
    )
    if values.size == 0:
        return 1.0
    mid = (values.size - 1) // 2
    picks = [mid] if values.size % 2 else [mid, mid + 1]
    values.partition(picks)
    med = float(np.mean(np.sqrt(values[picks])))
    return med if med > 0 else 1.0


def median_bandwidth(x: np.ndarray, y: np.ndarray) -> float:
    """Median pairwise distance over the pooled rows; 1.0 if that is 0."""
    return _median_distance(
        _pairwise_sq_dists(x, x), _pairwise_sq_dists(y, y), _pairwise_sq_dists(x, y)
    )


def mmd(x: np.ndarray, y: np.ndarray, cfg: MmdConfig | None = None) -> float:
    """Squared maximum mean discrepancy between two samples, clamped at 0.

    The unbiased U-statistic estimator: within-sample kernel means leave out
    the diagonal.

    Args:
        x, y: [n, d] and [m, d] feature rows; both need >= 2 rows.
        cfg: kernel settings; defaults to RBF with the median heuristic
            bandwidth, taken from the same squared distances the kernel uses.
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
        d_xx, d_yy, d_xy = (_pairwise_sq_dists(a, b) for a, b in ((x, x), (y, y), (x, y)))
        sigma = cfg.bandwidth if cfg.bandwidth is not None else _median_distance(d_xx, d_yy, d_xy)
        scale = -1.0 / (2.0 * sigma * sigma)
        # the distance blocks become the kernel blocks in place
        for block in (d_xx, d_yy, d_xy):
            block *= scale
            np.exp(block, out=block)
        k_xx, k_yy, k_xy = d_xx, d_yy, d_xy
    else:
        k_xx = x @ x.T
        k_yy = y @ y.T
        k_xy = x @ y.T
    xx = (k_xx.sum() - np.trace(k_xx)) / (n * (n - 1))
    yy = (k_yy.sum() - np.trace(k_yy)) / (m * (m - 1))
    value = float(xx + yy - 2.0 * k_xy.mean())
    return max(value, 0.0)


def _token_means(model: SstModel, features: np.ndarray | PixelWindows) -> list[np.ndarray]:
    """Mean-over-tokens output of every encoder block, one [n, d] per block.

    Windows are encoded in parallel batches (see ``map_batches``); a row's
    features do not depend on the batch it ran in.
    """

    def capture(batch: np.ndarray) -> list[np.ndarray]:
        _, captured = encode(model, batch, capture=True)
        return [z.mean(axis=1) for z in captured]

    chunks = map_batches(capture, features)
    if not chunks:
        return [np.zeros((0, model.config.d_model))] * len(model.layers)
    return [np.concatenate(per_block) for per_block in zip(*chunks)]


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
    n_frozen = math.floor(rho * len(model.layers))
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
    for i in range(len(model.layers)):
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
