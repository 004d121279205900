"""Hyperspectral cubes, label maps, window extraction, splits, synthesis.

File formats (little-endian; binary ones framed by ``read_header``/``read_payload``/``write_file``):

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
import os
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CUBE_MAGIC = b"HSIC"
LABEL_MAGIC = b"HSIL"
MAX_ELEMENTS = 2**31
# float64 values (512 KiB) in one piece of a pass that works through more
# than it holds: a block of neighbourhood differences, a range of the MMD's
# pooled pairs. A fixed size, not a setting: it bounds what a pass holds,
# not what it computes.
PIECE_VALUES = 1 << 16


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
    """A (rows, cols, bands) reflectance cube, float64, all values finite;
    it owns the one mirror-padded copy of itself that windows and
    neighbourhoods are cut from (``padded``)."""

    data: np.ndarray

    def __post_init__(self):
        self.data = self._buffer = np.asarray(self.data, dtype=np.float64)
        self._halo = 0
        if self.data.ndim != 3:
            raise ValueError(f"cube must be 3-D, got shape {self.data.shape}")
        if min(self.data.shape) < 1:
            raise ValueError(f"cube dimensions must be positive: {self.data.shape}")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("cube values must be finite")

    def padded(self, half: int) -> np.ndarray:
        """``mirror_pad(data, half)`` as a view of one buffer, padded by the
        widest halo asked for so far, whose interior is ``data``: a wider
        reflection holds every narrower one at an offset, so only a wider
        ask, or a ``data`` rebound to another array, pads again."""
        if half > self._halo or not np.may_share_memory(self.data, self._buffer):
            self._buffer = mirror_pad(self.data, half)
            self._halo = half
            self.data = self._buffer[half : half + self.rows, half : half + self.cols]
        skip = self._halo - half
        return self._buffer[skip : skip + self.rows + 2 * half, skip : skip + self.cols + 2 * half]

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
    write_file(path, CUBE_MAGIC, cube.data.shape, cube.data, "<f4")


def load_cube(path: str | Path) -> HsiCube:
    return _load(path, CUBE_MAGIC, 3, "<f4", np.float64, HsiCube)


def save_labels(label_map: LabelMap, path: str | Path) -> None:
    if label_map.labels.max(initial=0) > np.iinfo(np.uint16).max:
        raise ValueError("label ids exceed uint16 range")
    write_file(path, LABEL_MAGIC, label_map.labels.shape, label_map.labels, "<u2")


def load_labels(path: str | Path) -> LabelMap:
    return _load(path, LABEL_MAGIC, 2, "<u2", np.int64, LabelMap)


def _load(path, magic: bytes, n_dims: int, dtype: str, out_dtype, build):
    """``build`` of the ``dtype`` values of a cube or label file with ``n_dims`` uint32 sizes."""
    with open(path, "rb") as fh:
        dims = read_header(fh, path, magic, n_dims)
        if min(dims) < 1 or math.prod(dims) > MAX_ELEMENTS:
            raise DimensionError(f"{path}: unreasonable dimensions {dims}")
        values = read_payload(fh, path, dims, dtype, out_dtype)
    try:
        return build(values)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def read_header(fh, path, magic: bytes, n_words: int, block: bool = False):
    """The ``n_words`` uint32 that follow a file's ``magic``; with ``block``
    (SSTC), the header block that follows them, as long as their last says.
    The file's length is checked first, so a huge block length is never read."""
    head = fh.read(4 + 4 * n_words)
    if len(head) < 4:
        raise TruncatedPayloadError(f"{path}: file shorter than magic")
    if head[:4] != magic:
        raise BadMagicError(f"{path}: bad magic {head[:4]!r}")
    if len(head) < 4 + 4 * n_words:
        raise TruncatedPayloadError(f"{path}: header incomplete")
    words = tuple(int(v) for v in np.frombuffer(head[4:], dtype="<u4"))
    if block and words[-1] > os.fstat(fh.fileno()).st_size - fh.tell():
        raise TruncatedPayloadError(f"{path}: header incomplete")
    return fh.read(words[-1]) if block else words


def read_payload(fh, path, shape, dtype: str, out_dtype, short=None) -> np.ndarray:
    """The rest of the file, ``dtype`` values, as an ``out_dtype`` array of ``shape``, checked for
    length before anything is allocated (``short(size)`` words a ``size``-byte payload's error)
    and converted 1 MiB of file at a time, so the file is never held beside the array."""
    item = np.dtype(dtype).itemsize
    size, expected = os.fstat(fh.fileno()).st_size - fh.tell(), math.prod(shape) * item
    short = short or (lambda got: f"payload has {got} bytes, need {expected}")
    if size < expected:
        raise TruncatedPayloadError(f"{path}: {short(size)}")
    if size > expected:
        raise FormatError(f"{path}: {size - expected} trailing bytes")
    values = np.empty(shape, dtype=out_dtype)
    flat, step = values.reshape(-1), (1 << 20) // item
    # a signalling NaN raises numpy's invalid-cast warning; HsiCube rejects it
    with np.errstate(invalid="ignore"):
        for start in range(0, flat.size, step):
            part = flat[start : start + step]
            chunk = fh.read(item * part.size)
            if len(chunk) < item * part.size:  # the file shrank while it was read
                raise TruncatedPayloadError(f"{path}: {short(item * start + len(chunk))}")
            part[...] = np.frombuffer(chunk, dtype=dtype)
    return values


def write_file(path, magic: bytes, words, values: np.ndarray, dtype: str, block=b"") -> None:
    """Write ``magic``, ``words`` as uint32, ``block``, then ``values`` as ``dtype``
    in C order, converted 1 MiB of file at a time from any strides."""
    chunks = np.nditer(values, ["external_loop", "buffered", "zerosize_ok"], order="C",
                       op_dtypes=[dtype], casting="unsafe",
                       buffersize=(1 << 20) // np.dtype(dtype).itemsize)
    with open(path, "wb") as fh:
        fh.write(magic + np.array(words, dtype="<u4").tobytes() + block)
        for chunk in chunks:
            fh.write(chunk)


def mirror_pad(data: np.ndarray, half: int) -> np.ndarray:
    """Pad rows and columns of a (rows, cols, bands) array by ``half`` per side,
    reflected without repeating the edge: ..., 2, 1, [0, 1, 2, 3], 2, 1, ..."""
    return np.pad(data, ((half, half), (half, half), (0, 0)), mode="reflect")


def window_pad(cube: HsiCube, window: int) -> np.ndarray:
    """The cube mirror-padded by W/2 that ``window``-wide windows are cut
    from, as a view of ``cube.padded``; rejects an odd window or one wider
    than the cube."""
    if window % 2 != 0 or window < 2:
        raise ValueError(f"window size must be even and >= 2, got {window}")
    if window > min(cube.rows, cube.cols):
        raise ValueError(f"window {window} exceeds cube extent {(cube.rows, cube.cols)}")
    return cube.padded(window // 2)


def extract_windows_batch(cube: HsiCube, pixel_indices: np.ndarray, window: int) -> np.ndarray:
    """Windows for many flattened pixel indices at once: [n, W, W, bands].

    The center pixel lands at position (W/2, W/2); rows span the half-open
    range [r - W/2, r + W/2) and likewise for columns. Out-of-bounds samples
    come from the cube's mirror-padded buffer (``window_pad``), and all
    windows come from one fancy index over a window view of it.
    """
    rows, cols, _ = cube.data.shape
    padded = window_pad(cube, window)
    pixel_indices = np.asarray(pixel_indices, dtype=np.int64).ravel()
    if pixel_indices.size and not 0 <= pixel_indices.min() <= pixel_indices.max() < rows * cols:
        raise ValueError(f"pixel indices must lie in [0, {rows * cols})")
    # views[r, c] is padded[r : r + W, c : c + W], the window centered on (r, c)
    views = np.lib.stride_tricks.sliding_window_view(padded, (window, window), axis=(0, 1))
    return np.moveaxis(views, 2, -1)[np.divmod(pixel_indices, cols)]


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
    not listed, or the reverse), an empty test set, or the first class with
    no train pixel.
    """
    labeled = labels.labeled_indices()
    stray = np.setxor1d(np.concatenate([manifest.train, manifest.pool, manifest.test]), labeled)
    if stray.size:
        kind = "labeled but not listed" if stray[0] in labeled else "listed but not labeled"
        raise SplitError(f"{path}: manifest does not partition the labeled pixels: "
                         f"pixel {stray[0]} is {kind}")
    if manifest.test.size == 0:
        raise SplitError(f"{path}: the manifest lists no test pixel")
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


# the manifest's fields and the JSON type of each (see ``type_mismatch``)
_MANIFEST_FIELDS = {"seed": int, "ratios": tuple[float, float, float],
                    "train": list[int], "pool": list[int], "test": list[int]}


def load_manifest(path: str | Path) -> SplitManifest:
    try:
        doc = json.loads(Path(path).read_text())
        for key, hint in _MANIFEST_FIELDS.items():
            expected = type_mismatch(hint, doc[key])
            if expected is not None:
                raise FormatError(f"{path}: manifest field {key!r} must be {expected}")
        return SplitManifest(**{key: doc[key] for key in _MANIFEST_FIELDS})
    # ValueError includes JSONDecodeError; OverflowError is an index past int64
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise FormatError(f"{path}: not a valid split manifest: {exc}") from exc


def type_mismatch(hint, value) -> str | None:
    """What a field annotated ``hint`` expects, as text, when the JSON value
    ``value`` does not fit it, else None: a bool is not an int, an int fits
    a float, null fits only an optional field, a fixed-length tuple is a
    list of as many fitting values, and a list is a list of fitting values."""
    kinds = typing.get_args(hint) or (hint,)
    if typing.get_origin(hint) is list:
        # one check per distinct element type, not per element
        fits = isinstance(value, list) and not any(
            type_mismatch(kinds[0], v) for v in {type(v): v for v in value}.values())
        return None if fits else f"[{kinds[0].__name__}, ...]"
    if typing.get_origin(hint) is tuple:
        fits = isinstance(value, list) and len(value) == len(kinds)
        fits = fits and not any(map(type_mismatch, kinds, value))
        return None if fits else "[" + ", ".join(k.__name__ for k in kinds) + "]"
    numbers = kinds + (int,) if float in kinds else kinds
    if isinstance(value, bool) == (bool in kinds) and isinstance(value, numbers):
        return None
    return " or ".join("null" if k is type(None) else k.__name__ for k in kinds)


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
        rows, cols, bands: cube dimensions, at most MAX_ELEMENTS values in all.
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
    if rows * cols * bands > MAX_ELEMENTS:  # more than load_cube accepts
        raise ValueError(f"a {rows}x{cols}x{bands} cube has more than {MAX_ELEMENTS} values")
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
