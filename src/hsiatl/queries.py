"""Active-learning acquisition: scoring, ranking, and pool bookkeeping.

The hybrid strategy shortlists the most uncertain pool pixels (top
beta * query_size by negative max-probability), then ranks the shortlist by
neighborhood spectral diversity, so the batch favors pixels that are both
ambiguous to the model and spatially heterogeneous.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from hsiatl.data import PIECE_VALUES, HsiCube, LabelMap
from hsiatl.model import PixelWindows, SstModel, predict_probs

STRATEGIES = ("hybrid", "random", "uncertainty", "entropy", "margin", "diversity_only")


@dataclass
class QueryConfig:
    query_size: int = 16
    n_neighborhood: int = 3
    beta: int = 5
    strategy: str = "hybrid"

    def __post_init__(self):
        if self.query_size < 1:
            raise ValueError("query_size must be >= 1")
        if self.n_neighborhood < 1 or self.n_neighborhood % 2 == 0:
            raise ValueError(
                f"n_neighborhood must be odd and >= 1, got {self.n_neighborhood}"
            )
        if self.beta < 1:
            raise ValueError("beta must be >= 1")
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}, pick one of {STRATEGIES}"
            )


@dataclass
class QueryResult:
    """Selected pool pixels plus the scores that drove the choice.

    ``informativeness`` holds the strategy's probability-based score for each
    selected pixel (zero for the random strategy); ``diversity`` holds the
    neighborhood diversity where the strategy computed it, else zeros.
    """

    selected: np.ndarray
    informativeness: np.ndarray = field(default_factory=lambda: np.zeros(0))
    diversity: np.ndarray = field(default_factory=lambda: np.zeros(0))


def _check_probs(probs: np.ndarray) -> np.ndarray:
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[0] == 0:
        raise ValueError(f"need a non-empty [n, C] probability array, got {probs.shape}")
    if np.any(np.abs(probs.sum(axis=1) - 1.0) > 1e-6):
        raise ValueError("probability rows must sum to 1 within 1e-6")
    return probs


def uncertainty_scores(probs: np.ndarray) -> np.ndarray:
    """Negative top-class probability; higher means less confident.

    Ranges from -1 (certain) to -1/C (uniform).
    """
    return -_check_probs(probs).max(axis=1)


def entropy_scores(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy of each row in nats."""
    probs = _check_probs(probs)
    plogp = np.where(probs > 0, probs * np.log(np.maximum(probs, 1e-300)), 0.0)
    return -plogp.sum(axis=1)


def margin_scores(probs: np.ndarray) -> np.ndarray:
    """Negative gap between the two most probable classes."""
    probs = _check_probs(probs)
    if probs.shape[1] < 2:
        raise ValueError("margin needs at least two classes")
    part = np.sort(probs, axis=1)
    return -(part[:, -1] - part[:, -2])


def check_neighborhood(cube: HsiCube, n: int) -> None:
    """Reject a neighbourhood width that is even, below 1 or wider than the
    cube's smaller side."""
    if n < 1 or n % 2 == 0:
        raise ValueError(f"n_neighborhood must be odd and >= 1, got {n}")
    if n > min(cube.rows, cube.cols):
        raise ValueError(f"n_neighborhood {n} exceeds cube extent {(cube.rows, cube.cols)}")


def neighborhood_diversity_batch(cube: HsiCube, pixels: np.ndarray, n: int) -> np.ndarray:
    """Mean pairwise Euclidean distance among the n*n spectra around each
    flattened pixel index, mirror-padded at the borders (``HsiCube.padded``).

    Averages over all ordered pairs j != k, so a window of m = n*n spectra
    divides by m * (m - 1). n = 1 gives 0 by definition; so does any window
    of identical spectra. Each pixel's [m, m] distance matrix is filled a
    block of rows at a time, from a difference array of at most
    ``PIECE_VALUES`` values (or one row of m * bands, where that is
    more), so no pass holds all m * m * bands differences at once.
    """
    check_neighborhood(cube, n)
    rows, cols, bands = cube.data.shape
    pixels = np.asarray(pixels, dtype=np.int64)
    if pixels.size and not 0 <= pixels.min() <= pixels.max() < rows * cols:
        raise ValueError(f"pixel indices must lie in [0, {rows * cols})")
    out = np.zeros(pixels.size)
    if n == 1:
        return out
    padded = cube.padded(n // 2)
    m = n * n
    step = max(1, PIECE_VALUES // (m * bands))
    distances = np.empty((m, m))
    for i, flat in enumerate(pixels):
        r, c = divmod(int(flat), cols)
        spectra = padded[r : r + n, c : c + n].reshape(m, bands)
        for j in range(0, m, step):
            diff = spectra[j : j + step, None, :] - spectra[None, :, :]
            np.sqrt((diff * diff).sum(axis=-1), out=distances[j : j + step])
        out[i] = distances.sum() / (m * (m - 1))
    return out


def neighborhood_diversity(cube: HsiCube, pixel, n: int = 3) -> float:
    """Diversity of one pixel, given as (row, col) or as a flattened index."""
    r, c = pixel if isinstance(pixel, (tuple, list)) else divmod(int(pixel), cube.cols)
    if not (0 <= r < cube.rows and 0 <= c < cube.cols):
        raise ValueError(f"pixel {(r, c)} outside cube")
    return float(neighborhood_diversity_batch(cube, [r * cube.cols + c], n)[0])


def select_top(scores: np.ndarray, k: int) -> np.ndarray:
    """Positions of the k highest scores, by one full stable argsort.

    Ties resolve to the lower original index. k is clamped to the score count.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if k < 0:
        raise ValueError("k must be non-negative")
    order = np.argsort(-scores, kind="stable")
    return order[: min(k, scores.size)]


def query_pool(
    model: SstModel,
    cube: HsiCube,
    labels: LabelMap,
    pool: np.ndarray,
    cfg: QueryConfig,
    rng: np.random.Generator | None = None,
) -> QueryResult:
    """Dispatch one acquisition round for any configured strategy.

    Args:
        pool: flattened candidate pixel indices, non-empty. Their windows are
            gathered from ``cube`` batch by batch while they are scored.

    Returns:
        QueryResult with min(query_size, len(pool)) distinct pool pixels. The
        hybrid strategy orders them by descending diversity within the
        uncertainty shortlist.
    """
    pool = np.asarray(pool)
    if pool.size == 0:
        raise ValueError("pool is empty")
    take = min(cfg.query_size, pool.size)
    if cfg.strategy == "random":
        if rng is None:
            raise ValueError("random strategy needs an rng")
        selected = rng.choice(pool, size=take, replace=False)
        return QueryResult(selected=selected, informativeness=np.zeros(take),
                           diversity=np.zeros(take))
    if cfg.strategy == "diversity_only":
        diversity = neighborhood_diversity_batch(cube, pool, cfg.n_neighborhood)
        picked = select_top(diversity, take)
        return QueryResult(selected=pool[picked], informativeness=np.zeros(take),
                           diversity=diversity[picked])
    windows = PixelWindows(cube, pool, model.config.window, model.config.subpatch)
    probs = predict_probs(model, windows)
    if cfg.strategy == "hybrid":
        informativeness = uncertainty_scores(probs)
        shortlist = select_top(informativeness, min(cfg.beta * cfg.query_size, pool.size))
        diversity = neighborhood_diversity_batch(cube, pool[shortlist], cfg.n_neighborhood)
        chosen = select_top(diversity, min(take, shortlist.size))
        picked = shortlist[chosen]
        return QueryResult(selected=pool[picked], informativeness=informativeness[picked],
                           diversity=diversity[chosen])
    scorer = {
        "uncertainty": uncertainty_scores,
        "entropy": entropy_scores,
        "margin": margin_scores,
    }[cfg.strategy]
    scores = scorer(probs)
    picked = select_top(scores, take)
    return QueryResult(selected=pool[picked], informativeness=scores[picked],
                       diversity=np.zeros(take))


def al_round(
    train: np.ndarray, pool: np.ndarray, queried: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Move queried pixels from the pool into the train set.

    Returns (train + queried, pool - queried), both sorted ascending.
    Raises if queried contains duplicates or pixels outside the pool.
    """
    train = np.asarray(train, dtype=np.int64)
    pool = np.asarray(pool, dtype=np.int64)
    queried = np.asarray(queried, dtype=np.int64)
    if np.unique(queried).size != queried.size:
        raise ValueError("queried pixels contain duplicates")
    if not np.isin(queried, pool).all():
        raise ValueError("queried pixels must come from the pool")
    new_train = np.sort(np.concatenate([train, queried]))
    if np.unique(new_train).size != new_train.size:
        raise ValueError("queried pixels overlap the train set")
    return new_train, np.setdiff1d(pool, queried)
