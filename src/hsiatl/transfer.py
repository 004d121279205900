"""Cross-domain transfer: distribution distance per encoder layer and
selective freezing before fine-tuning.

Layers whose source/target feature distributions already agree (low maximum
mean discrepancy) are frozen; the rest keep adapting. The embedding freezes
together with the first encoder layer, and the head always stays trainable.
"""

from __future__ import annotations

import copy
import logging
import math
from dataclasses import dataclass

import numpy as np

from hsiatl.data import PIECE_VALUES, DimensionError, HsiCube, LabelMap, check_extent, make_split
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
        bandwidth = self.bandwidth
        if bandwidth is not None and not (bandwidth > 0 and math.isfinite(_rbf_scale(bandwidth))):
            raise ValueError(f"bandwidth must be positive with a finite kernel scale "
                             f"-1/(2 bandwidth^2), got {bandwidth!r}")
        if self.sample_count < 2:
            raise ValueError("sample_count must be >= 2")


def _rbf_scale(sigma: float) -> float:
    """The RBF kernel's exponent scale -1 / (2 sigma^2); -inf where 2 sigma^2
    rounds to 0."""
    var = 2.0 * sigma * sigma
    return -1.0 / var if var else -math.inf


@dataclass
class FreezePlan:
    """Which encoder layers to freeze, with the evidence that chose them."""

    rho: float
    layer_mmd: list[float]
    frozen: list[int]
    variance_source: list[float]
    variance_target: list[float]


def _pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances [n, m] of the rows of ``a`` and ``b``, clamped at 0:
    (|a_i|^2 + |b_j|^2) - 2 a_i.b_j, from one product turned into distances
    in place."""
    out = a @ b.T
    out *= 2.0
    np.subtract((a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1), out, out=out)
    return np.maximum(out, 0.0, out=out)


def _row_ranges(n: int, width: int) -> list[tuple[int, int]]:
    """[start, end) ranges that cover 0..n, each a multiple of 8 rows (the
    last one excepted) with at most ``PIECE_VALUES`` values of ``width``
    per row, or 8 rows where one row is wider than that.

    A trailing lone row joins the range before it: a one-row product takes
    a different BLAS kernel, whose last bits differ from the multi-row one
    the whole block uses.
    """
    step = max(8, PIECE_VALUES // max(width, 1) // 8 * 8)
    starts = list(range(0, n, step))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return list(zip(starts, starts[1:] + [n]))


def _pooled_pieces(x: np.ndarray, y: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, bool]]:
    """The pooled pairs of ``x`` and ``y`` as pieces ``(rows, columns,
    upper)`` of at most ``PIECE_VALUES`` distances (see ``_row_ranges``):
    the strict upper triangles of the within-sample blocks (rows s:e of a
    sample against its rows s:, ``upper`` set), then every cross pair (rows
    s:e of ``x`` against all of ``y``). ``_piece_values`` computes one; no
    whole distance block is ever held."""
    pieces = [(a[s:e], a[s:], True) for a in (x, y) for s, e in _row_ranges(len(a), len(a))]
    pieces += [(x[s:e], y, False) for s, e in _row_ranges(len(x), len(y))]
    return pieces


def _piece_values(piece: tuple[np.ndarray, np.ndarray, bool], pair=_pairwise_sq_dists):
    """``pair(rows, columns)`` over one of ``_pooled_pieces``, row by row:
    by default the squared distances."""
    rows, columns, upper = piece
    block = pair(rows, columns)
    if upper:
        return block[np.arange(len(rows))[:, None] < np.arange(block.shape[1])]
    return block.ravel()


def _map_pieces(fn, pieces: list) -> list:
    """``fn(piece)`` for every piece, one piece per ``map_batches`` slice:
    the calling thread works beside the pool, and the results come back in
    piece order whatever the CPU count."""
    return map_batches(lambda _, batch: fn(batch[0]), pieces, batch_size=1)


# the bracket pass samples every _SAMPLE_STRIDE-th row of each domain
_SAMPLE_STRIDE = 8


def _ranks_in_bracket(x: np.ndarray, y: np.ndarray, lo: float, hi: float):
    """One pass over ``_pooled_pieces``: how many pooled values are below
    ``lo``, and the values in [lo, hi] (NaN is in neither)."""

    def bracket(piece) -> tuple[int, np.ndarray]:
        values = _piece_values(piece)
        low = values < lo
        keep = values <= hi
        keep ^= low  # lo <= hi, so every value below lo is also at most hi
        # np.compress takes half the time of boolean indexing here
        return np.count_nonzero(low), np.compress(keep, values)

    counts = _map_pieces(bracket, _pooled_pieces(x, y))
    return sum(below for below, _ in counts), np.concatenate([inside for _, inside in counts])


def median_bandwidth(x: np.ndarray, y: np.ndarray) -> float:
    """Median pairwise Euclidean distance over the pooled rows; 1.0 if that
    is 0 (or NaN).

    The middle one or two of the pooled squared distances (NaN ranked last,
    as a partition puts it) are selected without holding them all: the
    pooled distances of every ``_SAMPLE_STRIDE``-th row of each domain give
    a bracket around the middle ranks, one pass over ``_pooled_pieces``
    counts the values below it and keeps those inside it, and a partition
    of those picks the middle ones. Should the ranks fall outside, the
    bracket widens and the pass runs again. Both passes compute their
    pieces through ``map_batches`` and combine them in piece order, so the
    result does not depend on the CPU count. Only the middle values are
    square-rooted: the root is monotone, so this is the median of the
    distances.
    """
    n, m = x.shape[0], y.shape[0]
    count = n * (n - 1) // 2 + m * (m - 1) // 2 + n * m
    if count == 0:
        return 1.0
    mid = (count - 1) // 2
    top = mid + 1 - count % 2  # the upper middle rank
    xs, ys = x[::_SAMPLE_STRIDE], y[::_SAMPLE_STRIDE]
    sample = np.concatenate(_map_pieces(_piece_values, _pooled_pieces(xs, ys)))
    sample = np.sort(sample[~np.isnan(sample)])
    # The middle ranks' place in the sample, and a margin on either side. A
    # sampled row enters many pairs, so the sample's rank error shrinks with
    # the root of the sampled row count r; it stayed below 0.93 / sqrt(r) in
    # 372 random Gaussian and clustered cases, so the margin is 1 / sqrt(r)
    # of the sample (6% of it at r = 256).
    centre = (mid + 0.5) / count * sample.size
    margin = [sample.size / math.sqrt(len(xs) + len(ys)) + 4.0] * 2
    while True:
        low, high = math.floor(centre - margin[0]), math.ceil(centre + margin[1])
        lo = sample[low] if low >= 0 else -np.inf
        hi = sample[high] if high < sample.size else np.inf
        below, inside = _ranks_in_bracket(x, y, lo, hi)
        if below > mid:
            margin[0] *= 4
        elif top < below + inside.size:
            break
        elif hi == np.inf:
            return 1.0  # the middle ranks hold NaN
        else:
            margin[1] *= 4
    k = mid - below
    inside.partition(k)
    middle = [inside[k]]
    if top > mid:
        # the next value up is the least one past ``k``; one selection and
        # this scan are several times faster than selecting both at once
        middle.append(inside[k + 1 :].min())
    med = float(np.mean(np.sqrt(middle)))
    return med if med > 0 else 1.0


def mmd(x: np.ndarray, y: np.ndarray, cfg: MmdConfig | None = None) -> float:
    """Squared maximum mean discrepancy between two samples, clamped at 0.

    The unbiased U-statistic estimator: within-sample kernel means leave out
    the diagonal. The kernel is symmetric, so a within-sample mean is twice
    its strict upper triangle's sum over n (n - 1). No kernel block is held
    whole: the kernel is summed over ``_pooled_pieces``, the pieces the
    median heuristic walks (x's upper triangle, y's, then every x-y pair),
    each piece with one ``np.add.reduce``, and the piece sums are added in
    piece order. The pieces run through ``map_batches``, so the result is
    the same for any CPU count; it is not bitwise a whole block's
    ``.sum()``, which adds in another order. Besides its pieces in flight,
    a call holds the median heuristic's values inside its bracket (see
    ``median_bandwidth``).

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
    rbf = cfg.kernel == "rbf"
    if rbf:
        sigma = cfg.bandwidth if cfg.bandwidth is not None else median_bandwidth(x, y)
        scale = _rbf_scale(sigma)

    def piece_sum(piece):
        if not rbf:
            return np.add.reduce(_piece_values(piece, lambda a, b: a @ b.T))
        k = _piece_values(piece)
        k *= scale
        return np.add.reduce(np.exp(k, out=k))

    sums = _map_pieces(piece_sum, _pooled_pieces(x, y))
    # x's upper-triangle pieces come first, then y's, then the cross pairs
    i = len(_row_ranges(n, n))
    j = i + len(_row_ranges(m, m))
    within_x = 2.0 * sum(sums[:i]) / (n * (n - 1))
    within_y = 2.0 * sum(sums[i:j]) / (m * (m - 1))
    return max(float(within_x + within_y - 2.0 * (sum(sums[j:]) / (n * m))), 0.0)


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
    features: np.ndarray | PixelWindows,
    target_classes: np.ndarray,
    plan: FreezePlan,
    cfg: TrainConfig,
    n_classes: int | None = None,
    head_seed: int = 0,
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
        history = train_model(model, features, target_classes - 1, cfg, from_block=blocks)
        for epoch, value in enumerate(history):
            logger.debug("fine-tune epoch %d: loss=%.6f", epoch, value)
    return model


class FineTuneError(NumericalError):
    """Fine-tuning, or the fine-tuned model's scores, became non-finite while
    the source model's own passes stayed finite."""


def check_fractions(rho: float, target_fraction: float) -> None:
    """Raise ValueError unless rho is in [0, 1] and target_fraction in
    (0, 1): the settings of ``run_transfer`` that need no data."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [0, 1], got {rho}")
    if not 0.0 < target_fraction < 1.0:
        raise ValueError(f"target_fraction must be in (0, 1), got {target_fraction}")


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
    """Freeze-plan, fine-tune, then score the target zero-shot and tuned.

    The target labels are split (target_fraction, 0, rest) into fine-tuning
    and test pixels. Discrepancies are estimated on up to
    mmd_cfg.sample_count labeled windows per domain, drawn with ``seed``.
    When the class counts match, the source parameters are copied before
    fine-tuning, and both models are scored in one pass over the test
    windows: fine-tuning leaves the plan's frozen prefix as it is, so that
    prefix runs once per batch for both. NumericalError comes from the
    source model's own passes (capture, zero-shot scores), FineTuneError
    from fine-tuning or the tuned scores.

    Returns the adapted model and a JSON-ready report.
    """
    check_fractions(rho, target_fraction)
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
    tune_features, tune_targets = bank.windows(split.train)
    # zero-shot scores need the source model as it was before fine-tuning
    zero_shot = target_labels.n_classes == model.config.n_classes
    models = (copy.deepcopy(model), model) if zero_shot else (model,)
    try:
        fine_tune(
            model, tune_features, tune_targets + 1, plan, train_cfg,
            n_classes=target_labels.n_classes, head_seed=seed,
        )
        scores = evaluate(models, test_windows, test_targets + 1, _frozen_prefix(plan))
    except NumericalError as exc:
        if zero_shot:
            # a source model whose own scores fail is at fault, not fine-tuning
            evaluate(models[0], test_windows, test_targets + 1)
        raise FineTuneError(str(exc)) from None
    report = {
        "per_layer_mmd": plan.layer_mmd,
        "per_layer_variance": {
            "source": plan.variance_source,
            "target": plan.variance_target,
        },
        "frozen": plan.frozen,
        "rho": rho,
        "target_fraction": target_fraction,
        "zero_shot": scores[0].as_dict() if zero_shot else None,
        "fine_tuned": scores[-1].as_dict(),
    }
    return model, report
