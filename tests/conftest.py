"""Shared oracle helpers for the test suite.

Besides the gradient and checkpoint helpers, this holds the per-window and
per-pixel reference versions of library code that works on batches: mirror
indexing, window extraction, neighborhood diversity, single-window forward,
patch embedding, token uncertainty and per-layer features; the op-level
graphs of the attention and feed-forward sublayers (each with its dropout
and residual add) that the model runs as single tape nodes; a LayerNorm
node that keeps its normalized input instead of rebuilding it; and the
pooled-matrix median heuristic, the whole-array partition median, and the
discrepancy estimate.
"""

from __future__ import annotations

import json
import math

import numpy as np

from hsiatl import autodiff as ad
from hsiatl.autodiff import Tensor
from hsiatl.model import encode, forward_batch, unfold
from hsiatl.transfer import _pairwise_sq_dists, _pooled_pieces


def numeric_gradient(fn, arrays: list[np.ndarray], step: float = 1e-5):
    """Central-difference gradients of a scalar function, one per input array.

    ``fn`` is called with the arrays themselves; entries are perturbed in
    place and restored, so ``fn`` must not cache its inputs.
    """
    grads = []
    for base in arrays:
        g = np.zeros_like(base, dtype=np.float64)
        it = np.nditer(base, flags=["multi_index"])
        for _ in it:
            i = it.multi_index
            orig = base[i]
            base[i] = orig + step
            hi = fn(*arrays)
            base[i] = orig - step
            lo = fn(*arrays)
            base[i] = orig
            g[i] = (hi - lo) / (2.0 * step)
        grads.append(g)
    return grads


def max_relative_error(analytic, numeric, floor: float = 1e-3) -> float:
    """Largest elementwise relative error between two gradient arrays.

    The denominator is floored so that finite-difference roundoff noise in
    near-zero components does not register as a large relative error.
    """
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), floor)
    return float((np.abs(a - n) / denom).max())


def rewrite_checkpoint(src, dst, edit_header=None, nan_at=None):
    """Copy an SSTC file with its JSON header edited, or one payload value NaN."""
    raw = src.read_bytes()
    length = int.from_bytes(raw[4:8], "little")
    header = json.loads(raw[8 : 8 + length])
    payload = bytearray(raw[8 + length :])
    if edit_header is not None:
        header = edit_header(header)
    if nan_at is not None:
        payload[8 * nan_at : 8 * nan_at + 8] = np.array(np.nan, dtype="<f8").tobytes()
    blob = json.dumps(header).encode("utf-8")
    dst.write_bytes(raw[:4] + len(blob).to_bytes(4, "little") + blob + bytes(payload))


def mirror_index(i: int, n: int) -> int:
    """Reflect an out-of-range index back into [0, n) without repeating the
    edge sample, e.g. for n=4: ..., 2, 1, [0, 1, 2, 3], 2, 1, ...
    """
    if n == 1:
        return 0
    period = 2 * (n - 1)
    i = abs(i) % period
    return i if i < n else period - i


def extract_window(cube, center: tuple[int, int], window: int) -> np.ndarray:
    """The window x window x bands block centered on (row, col), sample by
    sample: rows [r - window/2, r + window/2), likewise columns, mirrored."""
    r, c = center
    rows, cols, _ = cube.data.shape
    half = window // 2
    row_idx = [mirror_index(i, rows) for i in range(r - half, r + half)]
    col_idx = [mirror_index(j, cols) for j in range(c - half, c + half)]
    return cube.data[np.ix_(row_idx, col_idx)]


def neighborhood_spectra(cube, pixel: tuple[int, int], n: int) -> np.ndarray:
    """The n*n spectra around (row, col), mirrored at the borders: [n*n, bands]."""
    r, c = pixel
    rows, cols, bands = cube.data.shape
    half = n // 2
    row_idx = [mirror_index(i, rows) for i in range(r - half, r + half + 1)]
    col_idx = [mirror_index(j, cols) for j in range(c - half, c + half + 1)]
    return cube.data[np.ix_(row_idx, col_idx)].reshape(n * n, bands)


def diversity_oracle(cube, pixel: tuple[int, int], n: int) -> float:
    """Mean pairwise spectral distance over one mirrored neighborhood."""
    if n == 1:
        return 0.0
    spectra = neighborhood_spectra(cube, pixel, n)
    m = spectra.shape[0]
    diff = spectra[:, None, :] - spectra[None, :, :]
    distances = np.sqrt((diff * diff).sum(axis=-1))
    return float(distances.sum() / (m * (m - 1)))


def forward(model, window: np.ndarray) -> np.ndarray:
    """One W x W x bands window -> evaluation-mode class probabilities [C]."""
    cfg = model.config
    if window.shape != (cfg.window, cfg.window, cfg.bands):
        raise ValueError(
            f"window shape {window.shape} does not match config "
            f"{(cfg.window, cfg.window, cfg.bands)}"
        )
    return forward_batch(model, unfold(window, cfg.subpatch)[None]).data[0]


def embed_patches(window: np.ndarray, weight: Tensor, subpatch: int) -> Tensor:
    """Linear embedding of a window's sub-patch tokens: [..., N_p, d_model]."""
    features = unfold(window, subpatch)
    if features.shape[-1] != weight.shape[0]:
        raise ValueError(
            f"token dim {features.shape[-1]} does not match embedding "
            f"fan-in {weight.shape[0]}"
        )
    return ad.matmul(Tensor(features), weight)


def token_uncertainty(attn) -> Tensor:
    """Per-token ambiguity from attention weights: [h, N, N] -> [N], the mean
    over heads of the normalized row entropy. Rows must sum to 1 within 1e-6.
    """
    attn = attn if isinstance(attn, Tensor) else Tensor(attn)
    if attn.ndim == 2:
        attn = ad.reshape(attn, (1,) + attn.shape)
    if attn.ndim != 3:
        raise ad.ShapeError(f"attention stack must be [h, N, N], got {attn.shape}")
    if np.any(np.abs(attn.data.sum(axis=-1) - 1.0) > 1e-6):
        raise ValueError("attention rows must sum to 1 within 1e-6")
    per_head = row_entropy(attn)
    return ad.reshape(ad.reduce_mean(per_head, axis=0), (attn.shape[-2],))


def row_entropy(attn: Tensor) -> Tensor:
    """Shannon entropy of each attention row, normalized by ln(row length).

    Input [..., N, N]; output [..., N, 1] with values in [0, 1]. A row of
    all-equal weights scores 1; a one-hot row scores 0.
    """
    n = attn.shape[-1]
    denominator = math.log(n) if n > 1 else 1.0
    plogp = ad.reduce_sum(ad.mul(attn, ad.log(attn)), axis=-1, keepdims=True)
    return ad.scale(plogp, -1.0 / denominator)


def calibrated_attention_ops(q, k, v, calibration: float, renormalize: bool = False) -> Tensor:
    """``calibrated_attention`` as a graph of autodiff ops, one record each."""
    q, k, v = (t if isinstance(t, Tensor) else Tensor(t) for t in (q, k, v))
    k_t = ad.transpose(k, tuple(range(k.ndim - 2)) + (k.ndim - 1, k.ndim - 2))
    scores = ad.scale(ad.matmul(q, k_t), 1.0 / math.sqrt(q.shape[-1]))
    weights = ad.softmax(scores, axis=-1)
    if calibration == 0:
        return ad.matmul(weights, v)
    boost = ad.add(ad.scale(row_entropy(weights), calibration), 1.0)
    weights = ad.mul(weights, boost)
    if renormalize:
        weights = ad.div(weights, ad.reduce_sum(weights, axis=-1, keepdims=True))
    return ad.matmul(weights, v)


def layer_norm_oracle(x, gain, bias, eps: float = 1e-6) -> Tensor:
    """``ad.layer_norm`` as a tape node that keeps the normalized input for
    its backward instead of rebuilding it from the row statistics."""
    x, gain, bias = ad._as_tensor(x), ad._as_tensor(gain), ad._as_tensor(bias)
    d = x.data.shape[-1]
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    var += eps
    inv = 1.0 / np.sqrt(var)
    xhat *= inv
    out = xhat * gain.data
    out += bias.data

    def bwd(g):
        if gain.requires_grad:
            gain.accumulate((g * xhat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            bias.accumulate(g.reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            gx_hat = g * gain.data
            m1 = gx_hat.mean(axis=-1, keepdims=True)
            m2 = (gx_hat * xhat).mean(axis=-1, keepdims=True)
            x.accumulate(inv * (gx_hat - m1 - xhat * m2))

    return ad._record(Tensor._result(out), (x, gain, bias), bwd)


def self_attention_ops(z: Tensor, layer, cfg, training: bool = False, rng=None) -> Tensor:
    """``model._self_attention`` with its dropout and residual add as a graph
    of autodiff ops: z + dropout(attention sublayer)."""

    def split_heads(t: Tensor) -> Tensor:
        b, n, d = t.shape
        return ad.transpose(ad.reshape(t, (b, n, cfg.n_heads, d // cfg.n_heads)), (0, 2, 1, 3))

    q, k, v = (
        split_heads(ad.matmul(z, layer[name])) for name in ("attn_q", "attn_k", "attn_v")
    )
    heads = calibrated_attention_ops(q, k, v, cfg.calibration, cfg.renormalize)
    b, h, n, d_k = heads.shape
    merged = ad.reshape(ad.transpose(heads, (0, 2, 1, 3)), (b, n, h * d_k))
    attn = ad.dropout(ad.matmul(merged, layer["attn_out"]), cfg.dropout, training, rng)
    return ad.add(z, attn)


def feed_forward_ops(z: Tensor, layer, cfg, training: bool = False, rng=None) -> Tensor:
    """``model._feed_forward`` with its dropout and residual add as a graph
    of autodiff ops: z + dropout(relu(z W1 + b1) W2 + b2)."""
    hidden = ad.relu(ad.add(ad.matmul(z, layer["ff_w1"]), layer["ff_b1"]))
    ff = ad.add(ad.matmul(hidden, layer["ff_w2"]), layer["ff_b2"])
    return ad.add(z, ad.dropout(ff, cfg.dropout, training, rng))


def encoder_block_ops(z: Tensor, layer, cfg, training: bool = False, rng=None) -> Tensor:
    """``encoder_block`` with both sublayers as graphs of autodiff ops."""
    z = self_attention_ops(z, layer, cfg, training, rng)
    z = ad.layer_norm(z, layer["ln1_gain"], layer["ln1_bias"], cfg.ln_eps)
    z = feed_forward_ops(z, layer, cfg, training, rng)
    return ad.layer_norm(z, layer["ln2_gain"], layer["ln2_bias"], cfg.ln_eps)


def layer_features(model, features: np.ndarray, layer_index: int) -> np.ndarray:
    """Mean-over-tokens output of encoder block ``layer_index``, captured from
    one whole-batch pass: [n, d_model]."""
    _, captured = encode(model, features, capture=True)
    return captured[layer_index].mean(axis=1)


def pooled_sq_dists_oracle(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The upper triangle of the pooled rows' squared distance matrix, built
    as one whole block."""
    pooled = np.vstack([x, y])
    return _pairwise_sq_dists(pooled, pooled)[np.triu_indices(pooled.shape[0], k=1)]


def pooled_sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Every pooled pair's squared distance in one array, from the row
    ranges ``median_bandwidth`` passes over (``_pooled_pieces``)."""
    return np.concatenate(list(_pooled_pieces(x, y)))


def median_partition_oracle(x: np.ndarray, y: np.ndarray) -> float:
    """``median_bandwidth`` from the whole array of range-built pooled
    distances: one partition at the lower middle rank (NaN last), then the
    least value past it for the upper one; 1.0 if the median is 0 or NaN."""
    values = pooled_sq_dists(x, y)
    if values.size == 0:
        return 1.0
    mid = (values.size - 1) // 2
    values.partition(mid)
    middle = [values[mid]]
    if values.size % 2 == 0:
        middle.append(np.fmin.reduce(values[mid + 1 :]))
    med = float(np.mean(np.sqrt(middle)))
    return med if med > 0 else 1.0


def median_bandwidth_oracle(x: np.ndarray, y: np.ndarray) -> float:
    """Median of the upper triangle of the pooled rows' distance matrix;
    1.0 if that is 0."""
    upper = np.sqrt(pooled_sq_dists_oracle(x, y))
    med = float(np.median(upper)) if upper.size else 0.0
    return med if med > 0 else 1.0


def mmd_oracle(x: np.ndarray, y: np.ndarray, cfg) -> float:
    """Unbiased squared MMD, clamped at 0, with the bandwidth from
    ``median_bandwidth_oracle`` unless ``cfg`` fixes one."""
    n, m = x.shape[0], y.shape[0]
    if cfg.kernel == "rbf":
        sigma = cfg.bandwidth if cfg.bandwidth is not None else median_bandwidth_oracle(x, y)
        scale = -1.0 / (2.0 * sigma * sigma)
        k_xx = np.exp(scale * _pairwise_sq_dists(x, x))
        k_yy = np.exp(scale * _pairwise_sq_dists(y, y))
        k_xy = np.exp(scale * _pairwise_sq_dists(x, y))
    else:
        k_xx, k_yy, k_xy = x @ x.T, y @ y.T, x @ y.T
    xx = (k_xx.sum() - np.trace(k_xx)) / (n * (n - 1))
    yy = (k_yy.sum() - np.trace(k_yy)) / (m * (m - 1))
    return max(float(xx + yy - 2.0 * k_xy.mean()), 0.0)
