"""Hyperspectral cubes, label maps, window extraction, splits, synthesis.

File formats (all little-endian):

- cube file: magic ``HSIC``, three uint32 (rows, cols, bands), then
  rows*cols*bands float32 values in row-major (row, col, band) order.
- label file: magic ``HSIL``, two uint32 (rows, cols), then rows*cols
  uint16 labels, 0 meaning unlabeled.
- split manifest: JSON object with keys seed, ratios, train, pool, test;
  pixel indices are flattened row-major (index = row * cols + col).

Loading then saving a valid file reproduces it byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CUBE_MAGIC = b"HSIC"
LABEL_MAGIC = b"HSIL"
MAX_ELEMENTS = 2**31


class FormatError(Exception):
    """A binary file does not satisfy its format contract."""


class BadMagicError(FormatError):
    pass


class TruncatedPayloadError(FormatError):
    pass


class DimensionError(FormatError):
    pass


class SplitError(FormatError):
    """A split manifest does not fit its label map."""


@dataclass
class HsiCube:
    """A (rows, cols, bands) reflectance cube, float64, all values finite."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.float64)
        if self.data.ndim != 3:
            raise ValueError(f"cube must be 3-D, got shape {self.data.shape}")
        if min(self.data.shape) < 1:
            raise ValueError(f"cube dimensions must be positive: {self.data.shape}")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("cube values must be finite")

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def bands(self) -> int:
        return self.data.shape[2]


@dataclass
class LabelMap:
    """Per-pixel class ids: 0 = unlabeled, classes are exactly 1..n_classes."""

    labels: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels)
        if self.labels.ndim != 2:
            raise ValueError(f"label map must be 2-D, got shape {self.labels.shape}")
        if not np.issubdtype(self.labels.dtype, np.integer):
            raise ValueError("labels must be integers")
        if self.labels.min(initial=0) < 0:
            raise ValueError("labels must be non-negative")
        present = np.unique(self.labels[self.labels > 0])
        if present.size and not np.array_equal(present, np.arange(1, present.size + 1)):
            raise ValueError(f"class ids must be contiguous from 1, got {present}")

    @property
    def n_classes(self) -> int:
        return int(self.labels.max(initial=0))

    def labeled_indices(self) -> np.ndarray:
        """Flattened row-major indices of every labeled pixel, ascending."""
        return np.flatnonzero(self.labels.ravel() > 0)


@dataclass
class SplitManifest:
    """Disjoint train/pool/test pixel index sets plus their provenance."""

    seed: int
    ratios: tuple[float, float, float]
    train: np.ndarray
    pool: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        self.train = np.asarray(self.train, dtype=np.int64)
        self.pool = np.asarray(self.pool, dtype=np.int64)
        self.test = np.asarray(self.test, dtype=np.int64)
        self.ratios = tuple(float(r) for r in self.ratios)
        combined = np.concatenate([self.train, self.pool, self.test])
        if combined.size != np.unique(combined).size:
            raise ValueError("train/pool/test must be disjoint with no duplicates")


def save_cube(cube: HsiCube, path: str | Path) -> None:
    rows, cols, bands = cube.data.shape
    header = np.array([rows, cols, bands], dtype="<u4").tobytes()
    payload = np.ascontiguousarray(cube.data, dtype="<f4").tobytes()
    Path(path).write_bytes(CUBE_MAGIC + header + payload)


def load_cube(path: str | Path) -> HsiCube:
    raw = Path(path).read_bytes()
    if len(raw) < 4:
        raise TruncatedPayloadError(f"{path}: file shorter than magic")
    if raw[:4] != CUBE_MAGIC:
        raise BadMagicError(f"{path}: bad magic {raw[:4]!r}")
    if len(raw) < 16:
        raise TruncatedPayloadError(f"{path}: header incomplete")
    rows, cols, bands = (int(v) for v in np.frombuffer(raw[4:16], dtype="<u4"))
    if min(rows, cols, bands) < 1 or rows * cols * bands > MAX_ELEMENTS:
        raise DimensionError(f"{path}: unreasonable dimensions {(rows, cols, bands)}")
    expected = 16 + rows * cols * bands * 4
    if len(raw) < expected:
        raise TruncatedPayloadError(
            f"{path}: payload has {len(raw) - 16} bytes, need {expected - 16}"
        )
    if len(raw) > expected:
        raise FormatError(f"{path}: {len(raw) - expected} trailing bytes")
    values = np.frombuffer(raw[16:], dtype="<f4").reshape(rows, cols, bands)
    # a signalling NaN raises numpy's invalid-cast warning; HsiCube rejects it
    with np.errstate(invalid="ignore"):
        values = values.astype(np.float64)
    try:
        return HsiCube(values)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def save_labels(label_map: LabelMap, path: str | Path) -> None:
    if label_map.labels.max(initial=0) > np.iinfo(np.uint16).max:
        raise ValueError("label ids exceed uint16 range")
    rows, cols = label_map.labels.shape
    header = np.array([rows, cols], dtype="<u4").tobytes()
    payload = np.ascontiguousarray(label_map.labels, dtype="<u2").tobytes()
    Path(path).write_bytes(LABEL_MAGIC + header + payload)


def load_labels(path: str | Path) -> LabelMap:
    raw = Path(path).read_bytes()
    if len(raw) < 4:
        raise TruncatedPayloadError(f"{path}: file shorter than magic")
    if raw[:4] != LABEL_MAGIC:
        raise BadMagicError(f"{path}: bad magic {raw[:4]!r}")
    if len(raw) < 12:
        raise TruncatedPayloadError(f"{path}: header incomplete")
    rows, cols = (int(v) for v in np.frombuffer(raw[4:12], dtype="<u4"))
    if min(rows, cols) < 1 or rows * cols > MAX_ELEMENTS:
        raise DimensionError(f"{path}: unreasonable dimensions {(rows, cols)}")
    expected = 12 + rows * cols * 2
    if len(raw) < expected:
        raise TruncatedPayloadError(
            f"{path}: payload has {len(raw) - 12} bytes, need {expected - 12}"
        )
    if len(raw) > expected:
        raise FormatError(f"{path}: {len(raw) - expected} trailing bytes")
    values = np.frombuffer(raw[12:], dtype="<u2").reshape(rows, cols)
    try:
        return LabelMap(values.astype(np.int64))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def mirror_pad(data: np.ndarray, half: int) -> np.ndarray:
    """Pad rows and columns of a (rows, cols, bands) array by ``half`` per side,
    reflected without repeating the edge: ..., 2, 1, [0, 1, 2, 3], 2, 1, ..."""
    return np.pad(data, ((half, half), (half, half), (0, 0)), mode="reflect")


def window_pad(cube: HsiCube, window: int) -> np.ndarray:
    """The mirror-padded copy of the cube that ``window``-wide windows are cut
    from (``mirror_pad`` by W/2); rejects an odd window or one wider than the
    cube."""
    rows, cols, _ = cube.data.shape
    if window % 2 != 0 or window < 2:
        raise ValueError(f"window size must be even and >= 2, got {window}")
    if window > min(rows, cols):
        raise ValueError(f"window {window} exceeds cube extent {(rows, cols)}")
    return mirror_pad(cube.data, window // 2)


def extract_windows_batch(
    cube: HsiCube,
    pixel_indices: np.ndarray,
    window: int,
    padded: np.ndarray | None = None,
) -> np.ndarray:
    """Windows for many flattened pixel indices at once: [n, W, W, bands].

    The center pixel lands at position (W/2, W/2); rows span the half-open
    range [r - W/2, r + W/2) and likewise for columns. Out-of-bounds samples
    come from one mirror-padded copy of the cube: ``padded``, the
    ``window_pad(cube, window)`` a caller keeps to cut many batches from, or
    else one made here. All windows come from one fancy index over a window
    view of that copy.
    """
    rows, cols, _ = cube.data.shape
    if padded is None:
        padded = window_pad(cube, window)
    pixel_indices = np.asarray(pixel_indices, dtype=np.int64).ravel()
    if pixel_indices.size and not 0 <= pixel_indices.min() <= pixel_indices.max() < rows * cols:
        raise ValueError(f"pixel indices must lie in [0, {rows * cols})")
    # views[r, c] is padded[r : r + W, c : c + W], the window centered on (r, c)
    views = np.moveaxis(
        np.lib.stride_tricks.sliding_window_view(padded, (window, window), axis=(0, 1)),
        2, -1,
    )
    r, c = np.divmod(pixel_indices, cols)
    return views[r, c]


def check_extent(cube: HsiCube, labels: LabelMap) -> None:
    """Raise DimensionError unless the label map has the cube's rows and cols."""
    if labels.labels.shape != cube.data.shape[:2]:
        raise DimensionError(
            f"label map is {labels.labels.shape[0]}x{labels.labels.shape[1]} but "
            f"the cube is {cube.rows}x{cube.cols}"
        )


def make_split(
    labels: LabelMap, ratios: tuple[float, float, float], seed: int
) -> SplitManifest:
    """Stratified train/pool/test split of all labeled pixels.

    Within each class the pixel order is shuffled (seeded), then counts are
    rounded to nearest with the remainder going to test. Every class keeps
    at least one train pixel regardless of the train ratio.

    Args:
        labels: label map with every class holding >= 3 pixels.
        ratios: (train, pool, test) fractions, non-negative, summing to 1
            within 1e-9.
        seed: shuffle seed; the split is deterministic given it.
    """
    r_train, r_pool, r_test = (float(r) for r in ratios)
    if min(r_train, r_pool, r_test) < 0:
        raise ValueError(f"ratios must be non-negative, got {ratios}")
    if abs(r_train + r_pool + r_test - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {ratios}")
    rng = np.random.default_rng(seed)
    flat = labels.labels.ravel()
    train, pool, test = [], [], []
    for cls in range(1, labels.n_classes + 1):
        idx = np.flatnonzero(flat == cls)
        n = idx.size
        if n < 3:
            raise ValueError(f"class {cls} has only {n} pixels, need >= 3")
        perm = rng.permutation(idx)
        n_train = int(math.floor(r_train * n + 0.5))
        n_train = min(max(n_train, 1), n)
        n_pool = min(int(math.floor(r_pool * n + 0.5)), n - n_train)
        train.append(perm[:n_train])
        pool.append(perm[n_train : n_train + n_pool])
        test.append(perm[n_train + n_pool :])
    return SplitManifest(
        seed=seed,
        ratios=(r_train, r_pool, r_test),
        train=np.sort(np.concatenate(train)),
        pool=np.sort(np.concatenate(pool)),
        test=np.sort(np.concatenate(test)),
    )


def validate_split(manifest: SplitManifest, labels: LabelMap, path="manifest") -> None:
    """Check a manifest covers exactly the labeled pixels, one+ train/class.

    A SplitError names ``path`` and the lowest stray pixel index (labeled but
    not listed, or the reverse) or the first class with no train pixel.
    """
    labeled = labels.labeled_indices()
    stray = np.setxor1d(np.concatenate([manifest.train, manifest.pool, manifest.test]), labeled)
    if stray.size:
        kind = "labeled but not listed" if stray[0] in labeled else "listed but not labeled"
        raise SplitError(f"{path}: manifest does not partition the labeled pixels: "
                         f"pixel {stray[0]} is {kind}")
    classes = np.arange(1, labels.n_classes + 1)
    untrained = np.setdiff1d(classes, labels.labels.ravel()[manifest.train])
    if untrained.size:
        raise SplitError(f"{path}: every class needs at least one train pixel; "
                         f"class {untrained[0]} has none")


def save_manifest(manifest: SplitManifest, path: str | Path) -> None:
    doc = {
        "seed": manifest.seed,
        "ratios": list(manifest.ratios),
        "train": manifest.train.tolist(),
        "pool": manifest.pool.tolist(),
        "test": manifest.test.tolist(),
    }
    Path(path).write_text(json.dumps(doc))


def load_manifest(path: str | Path) -> SplitManifest:
    try:
        doc = json.loads(Path(path).read_text())
        return SplitManifest(
            seed=int(doc["seed"]),
            ratios=tuple(doc["ratios"]),
            train=np.asarray(doc["train"], dtype=np.int64),
            pool=np.asarray(doc["pool"], dtype=np.int64),
            test=np.asarray(doc["test"], dtype=np.int64),
        )
    except (ValueError, KeyError, TypeError) as exc:  # includes JSONDecodeError
        raise FormatError(f"{path}: not a valid split manifest: {exc}") from exc


def class_prototypes(n_classes: int, bands: int, shift: float = 0.0) -> np.ndarray:
    """Unit-amplitude sinusoid per class, one period across the band axis,
    phase-offset by 2*pi*c / n_classes plus a global shift in radians.
    """
    q = np.arange(bands)
    c = np.arange(n_classes)[:, None]
    return np.sin(2.0 * np.pi * q / bands + 2.0 * np.pi * c / n_classes + shift)


def synth_cube(
    n_classes: int,
    rows: int,
    cols: int,
    bands: int,
    noise: float = 0.1,
    shift: float = 0.0,
    seed: int = 0,
) -> tuple[HsiCube, LabelMap]:
    """Generate a cube whose classes tile the image as Voronoi cells.

    Class sites are n_classes distinct pixels drawn uniformly; every pixel
    takes the label of its nearest site (squared Euclidean distance over
    (row, col), ties to the lowest site index). Pixel spectra are the class
    prototype sinusoid plus i.i.d. Gaussian noise. Fully deterministic for a
    fixed seed.

    Args:
        n_classes: number of classes, >= 2, at most rows*cols and <= bands.
        rows, cols, bands: cube dimensions.
        noise: Gaussian sigma; 0 gives exact prototypes.
        shift: global phase offset in radians (domain shift knob).
        seed: generator seed.
    """
    if n_classes < 2:
        raise ValueError("need at least two classes")
    if bands < n_classes:
        raise ValueError(f"bands ({bands}) must be >= n_classes ({n_classes})")
    if n_classes > rows * cols:
        raise ValueError("more classes than pixels")
    if noise < 0:
        raise ValueError("noise sigma must be non-negative")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    sites_flat = rng.choice(rows * cols, size=n_classes, replace=False)
    site_rc = np.stack(divmod(sites_flat, cols), axis=1).astype(np.float64)
    rr, cc = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    grid = np.stack([rr.ravel(), cc.ravel()], axis=1).astype(np.float64)
    d2 = ((grid[:, None, :] - site_rc[None, :, :]) ** 2).sum(axis=2)
    labels = (d2.argmin(axis=1) + 1).reshape(rows, cols)
    protos = class_prototypes(n_classes, bands, shift)
    data = protos[labels - 1]
    if noise > 0:
        data = data + rng.normal(0.0, noise, size=(rows, cols, bands))
    return HsiCube(data), LabelMap(labels)
