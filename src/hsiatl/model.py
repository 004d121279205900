"""Spatial-spectral transformer classifier over hyperspectral windows.

A W x W x bands window is cut into (W/p)^2 sub-patches of p x p pixels, each
flattened (row, col, band) and linearly embedded. Tokens get a fixed
sinusoidal positional encoding, pass through L pre-norm-free encoder blocks
(residual + LayerNorm after both the attention and feed-forward sublayers),
are pooled by cross-attention against a learned class query, and classified
by a two-layer softmax head.

Attention is self-calibrated: each attention row is rescaled by
1 + calibration * U_i, where U_i is that row's Shannon entropy normalized to
[0, 1], so ambiguous tokens contribute more. calibration = 0 reproduces
plain scaled dot-product attention bitwise. One kernel (``_attend`` and
``_attend_back``) serves evaluation and training.
"""

from __future__ import annotations

import contextvars
import dataclasses
import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from hsiatl import autodiff as ad
from hsiatl.autodiff import Tensor
from hsiatl.data import DimensionError, HsiCube, extract_windows_batch, window_pad


@dataclass
class SstConfig:
    """Model hyperparameters.

    Args:
        bands: spectral band count of the input cube.
        n_classes: output classes (ids 1..n_classes).
        window: even spatial window size W.
        subpatch: sub-patch size p; must divide window.
        d_model: token width; must be divisible by n_heads.
        n_layers: encoder block count.
        n_heads: attention heads per block.
        d_ff: feed-forward hidden width; defaults to 4 * d_model.
        dropout: dropout rate on both sublayers.
        ln_eps: LayerNorm variance epsilon.
        calibration: entropy-rescaling strength (lambda), >= 0.
        renormalize: re-divide calibrated attention rows by their sum; this
            cancels the calibration, leaving plain attention bitwise.
    """

    bands: int
    n_classes: int
    window: int = 8
    subpatch: int = 2
    d_model: int = 56
    n_layers: int = 4
    n_heads: int = 8
    d_ff: int | None = None
    dropout: float = 0.1
    ln_eps: float = 1e-6
    calibration: float = 0.5
    renormalize: bool = False

    def __post_init__(self):
        if self.d_ff is None:
            self.d_ff = 4 * self.d_model
        if self.bands < 1:
            raise ValueError("bands must be positive")
        if self.n_classes < 2:
            raise ValueError("need at least two classes")
        if self.window < 2 or self.window % 2 != 0:
            raise ValueError(f"window must be even and >= 2, got {self.window}")
        if self.subpatch < 1 or self.window % self.subpatch != 0:
            raise ValueError(
                f"subpatch {self.subpatch} must divide window {self.window}"
            )
        if self.d_model < 1 or self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} must be divisible by n_heads {self.n_heads}"
            )
        if self.n_layers < 1 or self.n_heads < 1 or self.d_ff < 1:
            raise ValueError("layer/head/ff counts must be positive")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.calibration < 0:
            raise ValueError(f"calibration must be >= 0, got {self.calibration}")
        if self.ln_eps <= 0:
            raise ValueError("ln_eps must be positive")

    @property
    def n_tokens(self) -> int:
        return (self.window // self.subpatch) ** 2

    @property
    def token_dim(self) -> int:
        return self.subpatch * self.subpatch * self.bands


class NumericalError(RuntimeError):
    """A training loss or the model's probabilities became non-finite."""


# the short names of one encoder block's tensors, in checkpoint order
BLOCK_PARAMS = ("attn_q", "attn_k", "attn_v", "attn_out", "ff_w1", "ff_b1", "ff_w2", "ff_b2",
                "ln1_gain", "ln1_bias", "ln2_gain", "ln2_bias")


def param_spec(cfg: SstConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter in checkpoint order (encoder block i's
    as ``enc{i}.<a BLOCK_PARAMS name>``), from the config fields alone, so
    nothing is allocated."""
    d, f, c = cfg.d_model, cfg.d_ff, cfg.n_classes
    block = dict(zip(BLOCK_PARAMS, [(d, d)] * 4 + [(d, f), (f,), (f, d)] + [(d,)] * 5))
    spec = {"embed.weight": (cfg.token_dim, d)}
    for i in range(cfg.n_layers):
        spec.update({f"enc{i}.{name}": shape for name, shape in block.items()})
    spec.update({"pool.class_query": (1, d), "pool.k": (d, d), "pool.v": (d, d),
                 "head.w1": (d, d), "head.b1": (d,), "head.w2": (d, c), "head.b2": (c,)})
    return spec


def _twin(t: Tensor) -> Tensor:
    """A tensor over the same ``data`` with the same flag and no gradient."""
    out = Tensor._result(t.data)
    out.requires_grad = t.requires_grad
    return out


@dataclass
class SstModel:
    """Parameters, in ``param_spec`` order, plus per-group freeze flags.

    Freeze groups are "embed", "enc0".."enc{L-1}", and "head"; the head group
    also covers the cross-attention pooling parameters, since both adapt to
    the label space. ``apply_freeze`` must be called after editing ``freeze``
    for the flags to take effect on the tensors.
    """

    config: SstConfig
    params: dict[str, Tensor]
    freeze: dict[str, bool] = field(default_factory=dict)

    def __post_init__(self):
        if not self.freeze:
            self.freeze = {"embed": False, "head": False}
            self.freeze.update({f"enc{i}": False for i in range(self.config.n_layers)})

    def parameters(self) -> dict[str, Tensor]:
        """Stable name -> tensor mapping; the order defines checkpoints."""
        return self.params

    def block(self, i: int) -> dict[str, Tensor]:
        """Encoder block i's tensors by short name (see ``BLOCK_PARAMS``)."""
        return {name: self.params[f"enc{i}.{name}"] for name in BLOCK_PARAMS}

    def replica(self) -> "SstModel":
        """The same model over new parameter tensors with their own ``grad``.

        Each replica tensor shares its ``data`` array with the original and
        keeps its ``requires_grad`` flag, so in-place updates to the original
        show through while gradients accumulate apart.
        """
        return dataclasses.replace(self, params={n: _twin(t) for n, t in self.params.items()})

    def group_of(self, param_name: str) -> str:
        prefix = param_name.split(".", 1)[0]
        return "head" if prefix == "pool" else prefix

    def apply_freeze(self) -> None:
        for name, tensor in self.parameters().items():
            tensor.requires_grad = not self.freeze[self.group_of(name)]


def positional_encoding(n_positions: int, d_model: int) -> np.ndarray:
    """Fixed sinusoidal position code: sin on even columns, cos on odd.

    Column pair 2j uses wavelength 10000^(2j/d_model), so row 0 is
    [0, 1, 0, 1, ...] and entry (1, 0) equals sin(1).
    """
    pos = np.arange(n_positions, dtype=np.float64)[:, None]
    idx = np.arange(d_model, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, 2.0 * np.floor(idx / 2.0) / d_model)
    enc = np.empty((n_positions, d_model))
    enc[:, 0::2] = np.sin(angles[:, 0::2])
    enc[:, 1::2] = np.cos(angles[:, 1::2])
    return enc


@functools.lru_cache(maxsize=8)
def _positional_table(n_tokens: int, d_model: int) -> np.ndarray:
    """``positional_encoding`` for one token count, built on first use and
    shared read-only by every later call."""
    table = positional_encoding(n_tokens, d_model)
    table.flags.writeable = False
    return table


def unfold(windows: np.ndarray, subpatch: int) -> np.ndarray:
    """[..., W, W, k] -> [..., (W/p)^2, p*p*k] sub-patch tokens.

    Tokens run row-major over the sub-patch grid; within a token the values
    flatten as (patch row, patch col, band).
    """
    windows = np.asarray(windows)
    *lead, w, w2, k = windows.shape
    if w != w2 or w % subpatch != 0:
        raise ValueError(f"cannot unfold shape {windows.shape} with p={subpatch}")
    g = w // subpatch
    x = windows.reshape(*lead, g, subpatch, g, subpatch, k)
    x = np.moveaxis(x, -4, -3)
    return x.reshape(*lead, g * g, subpatch * subpatch * k)


class PixelWindows:
    """Unfolded windows of some pixels, gathered only when sliced.

    ``len()`` is the pixel count; ``windows[a:b]`` (or an index array) is
    ``unfold(extract_windows_batch(cube, pixels[a:b], window), subpatch)``,
    cut from one ``window_pad`` copy of the cube made once (or ``padded``).
    ``predict_probs`` takes it in place of an array, so only the batches
    being scored are ever unfolded.
    """

    def __init__(self, cube: HsiCube, pixels, window: int, subpatch: int, padded=None):
        self.cube, self.pixels = cube, np.asarray(pixels)
        self.window, self.subpatch = window, subpatch
        self.padded = window_pad(cube, window) if padded is None else padded

    def __len__(self) -> int:
        return self.pixels.size

    def __getitem__(self, rows) -> np.ndarray:
        windows = extract_windows_batch(self.cube, self.pixels[rows], self.window, self.padded)
        return unfold(windows, self.subpatch)


def _shifted_scores(q: np.ndarray, k: np.ndarray, lead: tuple[int, ...]) -> np.ndarray:
    """s' = c q.k - (row max), c = 1/sqrt(d_k), held keys first as
    [N_k, *lead, N_q]."""
    shifted = np.empty((k.shape[-2], *lead, q.shape[-2]))
    np.matmul(k, np.swapaxes(q, -1, -2), out=np.moveaxis(shifted, 0, -2))
    shifted *= 1.0 / math.sqrt(q.shape[-1])
    shifted -= np.maximum.reduce(shifted, axis=0)
    return shifted


def _row_stats(shifted, e, calibration: float, renormalize: bool, scratch: np.ndarray):
    """Z = sum(e), the row factor b / Z and, when the boost is on, A/Z and
    calibration / ln N_k (else None), with e = exp(s'); ``scratch`` (which
    may be ``e`` itself) receives e s'."""
    z = np.add.reduce(e, axis=0)
    if renormalize or calibration == 0:
        return z, 1.0 / z, None
    n_k = shifted.shape[0]
    slope = float(calibration) / (math.log(n_k) if n_k > 1 else 1.0)
    np.multiply(e, shifted, out=scratch)
    mean = np.add.reduce(scratch, axis=0)
    mean /= z
    boost = np.log(z)
    boost -= mean
    boost *= slope
    boost += 1.0
    return z, boost / z, (mean, slope)


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, calibration: float, renormalize: bool):
    """Self-calibrated attention on arrays [..., N, d_k], with the scores
    held keys first.

    The shifted scores s' live as [N_k, ..., N_q] (see ``_shifted_scores``),
    so every reduction over a row's keys works on whole [..., N_q] slabs.
    With e = exp(s'), Z = sum(e) and A = sum(e s') over the keys, a row's
    entropy is H = log Z - A/Z (no log of any weight), its boost is
    b = 1 + calibration * H / ln N_k, and the output is (e^T v) * b / Z.
    Renormalized rows lose their boost, so they take b = 1. Nothing is kept
    for the backward: ``_attend_back`` rebuilds s' and the row statistics
    from q and k.
    """
    lead = np.broadcast_shapes(q.shape[:-2], k.shape[:-2], v.shape[:-2])
    shifted = _shifted_scores(q, k, lead)
    e = np.exp(shifted)
    out = np.matmul(np.moveaxis(e, 0, -1), v)
    _, scale, _ = _row_stats(shifted, e, calibration, renormalize, e)
    out *= scale[..., None]
    return out


def _attend_back(g, q, k, v, calibration: float, renormalize: bool):
    """Gradients (g_q, g_k, g_v) of ``_attend`` for its output gradient ``g``,
    in closed form on the same keys-first layout, and the output itself.

    s', e and the row statistics are rebuilt from q and k by the forward's
    own ops, so they and the output (e^T v) * b / Z are bitwise the
    forward's. With P = e/Z, g_w = g v^T
    and r = sum(P g_w) over a row's keys, the shifted scores get
    P * (b (g_w - r) - slope * r * (s' - A/Z)): the softmax's and the
    entropy's terms in one expression. The row max cancels through the
    softmax, so there is no log, clamp or mask.
    """
    lead = np.broadcast_shapes(q.shape[:-2], k.shape[:-2], v.shape[:-2])
    shifted = _shifted_scores(q, k, lead)
    e = np.exp(shifted)
    product = np.empty_like(shifted)
    z, scale, entropy = _row_stats(shifted, e, calibration, renormalize, product)
    out = np.matmul(np.moveaxis(e, 0, -1), v)
    out *= scale[..., None]
    g_v = np.matmul(np.moveaxis(e, 0, -2), g * scale[..., None])
    g_s = np.empty_like(shifted)
    np.matmul(v, np.swapaxes(g, -1, -2), out=np.moveaxis(g_s, 0, -2))
    np.multiply(e, g_s, out=product)
    r = np.add.reduce(product, axis=0)
    r /= z
    # g_s becomes e * (alpha g_w - beta s' + gamma), with c in every row factor
    c = 1.0 / math.sqrt(q.shape[-1])
    alpha = scale * c
    gamma = -alpha * r
    g_s *= alpha
    if entropy is not None:
        mean, slope = entropy
        beta = r * (slope * c) / z
        gamma += beta * mean
        np.multiply(shifted, beta, out=product)
        g_s -= product
    g_s += gamma
    g_s *= e
    del shifted, e, product  # held through the two products, they set a step's peak
    g_q, g_k = np.matmul(np.moveaxis(g_s, 0, -1), k), np.matmul(np.moveaxis(g_s, 0, -2), q)
    return g_q, g_k, g_v, out


def attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """softmax(Q K^T / sqrt(d_k)) V on the last two axes."""
    return calibrated_attention(q, k, v, 0.0)


def calibrated_attention(
    q: Tensor, k: Tensor, v: Tensor, calibration: float, renormalize: bool = False
) -> Tensor:
    """Attention whose rows are amplified by their own entropy.

    Row i of the softmax weights is scaled by (1 + calibration * U_i) with
    U_i its normalized entropy. calibration = 0 skips the scaling, making the
    outputs bitwise those of ``attention``. Re-dividing the scaled rows by
    their sums (``renormalize``) cancels the scaling, so those outputs are
    bitwise those of ``attention`` too. One tape node (see ``_attend``).
    """
    if calibration < 0:
        raise ValueError(f"calibration must be >= 0, got {calibration}")
    q, k, v = (ad._as_tensor(t) for t in (q, k, v))
    out = _attend(q.data, k.data, v.data, calibration, renormalize)

    def bwd(g):
        *grads, _ = _attend_back(g, q.data, k.data, v.data, calibration, renormalize)
        # the order the op graph reaches them in: v, then q, then k
        for t, g_t in ((v, grads[2]), (q, grads[0]), (k, grads[1])):
            if t.requires_grad:
                t.accumulate(ad._unbroadcast(g_t, t.shape))

    return ad._record(Tensor._result(out), (q, k, v), bwd)


def _weight_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of the 2-D weight of ``x @ w`` as ``ad.matmul`` takes it: one
    GEMM over every stacked row of ``x``."""
    return x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])


def _keep_mask(shape: tuple[int, ...], cfg: SstConfig, training: bool, rng) -> np.ndarray | None:
    """One sublayer's dropout keep mask, ``uniform >= rate`` as ``ad.dropout``
    draws it (replayed by a ``RowDraws``), or None when no dropout runs."""
    if not training or cfg.dropout == 0:
        return None
    if rng is None:
        raise ValueError("training-mode dropout needs an rng for determinism")
    if isinstance(rng, RowDraws):
        return rng.keep_mask(shape)
    return rng.random(shape) >= cfg.dropout


def _dropout_residual(out: np.ndarray, z: Tensor, keep, rate: float) -> np.ndarray:
    """z + dropout(out), in place on ``out``: the op graph's dropout and
    residual add, bitwise (the float keep factor is rebuilt from the mask as
    ``ad.dropout`` builds it, and the add commutes)."""
    if keep is not None:
        out *= keep / (1.0 - rate)
    out += z.data
    return out


def _dropout_residual_back(g: np.ndarray, z: Tensor, keep, rate: float) -> np.ndarray:
    """Backward of ``_dropout_residual``: ``z`` takes the residual's
    gradient first, as in the op graph, and the sublayer's own chain gets
    the returned share."""
    if z.requires_grad:
        z.accumulate(g)
    return g if keep is None else g * (keep / (1.0 - rate))


def _self_attention(z: Tensor, layer: dict[str, Tensor], cfg: SstConfig, keep=None) -> Tensor:
    """z + dropout(attention sublayer) as one tape node: the q/k/v
    projections, head split, ``_attend``, head merge, output projection,
    then ``_dropout_residual`` with the keep mask ``keep`` (None: no
    dropout).

    Its backward keeps only ``z`` and the mask: it reruns the three
    projections, and ``_attend_back`` rebuilds the scores and the heads and
    takes the gradients through them in closed form. ``z`` receives the
    residual's, then the v, k and q contributions in that order, as in the
    op graph.
    """
    b, n, d = z.shape
    split = (b, n, cfg.n_heads, d // cfg.n_heads)
    projections = (layer["attn_q"], layer["attn_k"], layer["attn_v"])
    w_out = layer["attn_out"]

    def project() -> list[np.ndarray]:
        return [(z.data @ w.data).reshape(split).transpose(0, 2, 1, 3) for w in projections]

    def merge(heads: np.ndarray) -> np.ndarray:
        return heads.transpose(0, 2, 1, 3).reshape(b, n, d)

    def bwd(g):
        g = _dropout_residual_back(g, z, keep, cfg.dropout)
        g_heads = (g @ w_out.data.T).reshape(split).transpose(0, 2, 1, 3)
        *grads, heads = _attend_back(g_heads, *project(), cfg.calibration, cfg.renormalize)
        if w_out.requires_grad:
            w_out.accumulate(_weight_grad(merge(heads), g))
        for w, g_x in reversed(list(zip(projections, grads))):
            g_x = g_x.transpose(0, 2, 1, 3).reshape(b, n, d)
            if z.requires_grad:
                z.accumulate(g_x @ w.data.T)
            if w.requires_grad:
                w.accumulate(_weight_grad(z.data, g_x))

    heads = _attend(*project(), cfg.calibration, cfg.renormalize)
    out = _dropout_residual(merge(heads) @ w_out.data, z, keep, cfg.dropout)
    return ad._record(Tensor._result(out), (z, *projections, w_out), bwd)


def _feed_forward(z: Tensor, layer: dict[str, Tensor], cfg: SstConfig, keep=None) -> Tensor:
    """z + dropout(relu(z W1 + b1) W2 + b2) as one tape node that keeps only
    ``z`` and the keep mask ``keep`` (None: no dropout); its backward
    reruns the ReLU output's three ops, then the chain rule of the seven ops
    the node replaces, in their order, so values and gradients are bitwise
    the op graph's."""
    w1, b1, w2, b2 = (layer[name] for name in ("ff_w1", "ff_b1", "ff_w2", "ff_b2"))

    def relu_hidden() -> np.ndarray:
        hidden = z.data @ w1.data
        hidden += b1.data
        return np.maximum(hidden, 0.0, out=hidden)

    def bwd(g):
        g = _dropout_residual_back(g, z, keep, cfg.dropout)
        if b2.requires_grad:
            b2.accumulate(ad._unbroadcast(g, b2.shape))
        hidden = relu_hidden()
        if w2.requires_grad:
            w2.accumulate(_weight_grad(hidden, g))
        # relu's mask: the output is positive exactly where its input was
        g_pre = (g @ w2.data.T) * (hidden > 0.0)
        if b1.requires_grad:
            b1.accumulate(ad._unbroadcast(g_pre, b1.shape))
        if z.requires_grad:
            z.accumulate(g_pre @ w1.data.T)
        if w1.requires_grad:
            w1.accumulate(_weight_grad(z.data, g_pre))

    out = relu_hidden() @ w2.data
    out += b2.data
    out = _dropout_residual(out, z, keep, cfg.dropout)
    return ad._record(Tensor._result(out), (z, w1, b1, w2, b2), bwd)


def encoder_block(
    z: Tensor,
    layer: dict[str, Tensor],
    cfg: SstConfig,
    training: bool = False,
    rng=None,
) -> Tensor:
    """The attention and feed-forward sublayers, each with its dropout and
    residual add as one tape node (see ``_dropout_residual``), each closed
    by LayerNorm. Training draws the attention sublayer's keep mask from
    ``rng``, then the feed-forward one's."""
    z = _self_attention(z, layer, cfg, _keep_mask(z.shape, cfg, training, rng))
    z = ad.layer_norm(z, layer["ln1_gain"], layer["ln1_bias"], cfg.ln_eps)
    z = _feed_forward(z, layer, cfg, _keep_mask(z.shape, cfg, training, rng))
    return ad.layer_norm(z, layer["ln2_gain"], layer["ln2_bias"], cfg.ln_eps)


def dropout_draws(cfg: SstConfig, batch: int, rng, from_block: int = 0) -> list[np.ndarray]:
    """The keep masks a training ``forward_batch`` over ``batch`` windows
    draws: ``uniform >= cfg.dropout`` as bool arrays [batch, N_p, d_model],
    1 byte a value.

    The uniforms come from ``rng`` in the order ``encoder_block`` draws them
    (per block that runs, from ``from_block`` on: attention, then
    feed-forward), so the generator advances as that pass would advance it.
    There are none when dropout is 0.
    """
    if cfg.dropout == 0:
        return []
    shape = (batch, cfg.n_tokens, cfg.d_model)
    return [rng.random(shape) >= cfg.dropout for _ in range(2 * (cfg.n_layers - from_block))]


class RowDraws:
    """Generator stand-in that replays whole-batch dropout masks for some rows.

    Passed as ``rng`` to a training ``forward_batch`` over the contiguous
    rows ``rows`` (a slice) of a batch, its k-th ``keep_mask`` call returns
    those rows of the k-th ``dropout_draws`` mask, so each row is kept or
    dropped as in the whole-batch pass. The rows are a view: no mask is
    copied, and a sublayer node holds only its own rows' mask.
    """

    def __init__(self, masks: list[np.ndarray], rows: slice):
        self._masks = iter(masks)
        self._rows = rows

    def keep_mask(self, shape: tuple[int, ...]) -> np.ndarray:
        mask = next(self._masks, None)
        part = None if mask is None else mask[self._rows]
        if part is None or part.shape != tuple(shape):
            raise RuntimeError(f"no pre-drawn dropout mask of shape {shape}")
        return part


def cross_attention_pool(z: Tensor, model: SstModel) -> Tensor:
    """Collapse [B, N_p, d_model] tokens to [B, d_model] by attending a
    learned class query."""
    p = model.params
    keys = ad.matmul(z, p["pool.k"])
    values = ad.matmul(z, p["pool.v"])
    scores = ad.scale(
        ad.matmul(p["pool.class_query"], ad.transpose(keys, (0, 2, 1))),
        1.0 / math.sqrt(model.config.d_model),
    )
    pooled = ad.matmul(ad.softmax(scores, axis=-1), values)
    return ad.reshape(pooled, (pooled.shape[0], pooled.shape[-1]))


def classify(pooled: Tensor, model: SstModel) -> Tensor:
    """Two-layer softmax head: [B, d_model] -> probabilities [B, C]."""
    p = model.params
    hidden = ad.relu(ad.add(ad.matmul(pooled, p["head.w1"]), p["head.b1"]))
    logits = ad.add(ad.matmul(hidden, p["head.w2"]), p["head.b2"])
    return ad.softmax(logits, axis=-1)


def encode(
    model: SstModel,
    features: np.ndarray | Tensor,
    training: bool = False,
    rng=None,
    capture: bool = False,
    from_block: int = 0,
):
    """Run embedding + positional code + encoder stack on unfolded tokens.

    Args:
        features: [B, N_p, p*p*bands] unfolded windows (see ``unfold``), or
            with ``from_block`` above 0 the [B, N_p, d_model] tokens that
            ``encode_prefix`` gives for that many blocks.
        capture: also return the outputs of the blocks that ran as plain
            arrays.
        from_block: the first encoder block to run; the embedding and the
            blocks before it are skipped.

    Returns:
        Final [B, N_p, d_model] tensor, or (tensor, list of block outputs).

    Raises DimensionError when N_p is not the model's token count, such as
    for windows unfolded at another window size, or when tokens entering a
    later block are not ``d_model`` wide.
    """
    cfg = model.config
    x = features if isinstance(features, Tensor) else Tensor(features)
    if x.shape[-2] != cfg.n_tokens:
        raise DimensionError(
            f"windows have {x.shape[-2]} tokens, the model expects {cfg.n_tokens}"
        )
    if from_block == 0:
        positional = _positional_table(x.shape[-2], cfg.d_model)
        z = ad.add(ad.matmul(x, model.params["embed.weight"]), Tensor(positional))
    elif x.shape[-1] != cfg.d_model:
        raise DimensionError(
            f"tokens entering block {from_block} are {x.shape[-1]} wide, "
            f"the model's width is {cfg.d_model}"
        )
    else:
        z = x
    captured = []
    for i in range(from_block, cfg.n_layers):
        z = encoder_block(z, model.block(i), cfg, training, rng)
        if capture:
            captured.append(z.data)
    if capture:
        return z, captured
    return z


def forward_batch(
    model: SstModel,
    features: np.ndarray | Tensor,
    training: bool = False,
    rng=None,
    from_block: int = 0,
) -> Tensor:
    """Unfolded windows [B, N_p, p*p*bands] -> class probabilities [B, C].

    With ``from_block`` above 0 the input is tokens entering that block (see
    ``encode``).
    """
    z = encode(model, features, training, rng, from_block=from_block)
    return classify(cross_attention_pool(z, model), model)


def _cpu_count() -> int:
    """CPUs this process may run on (its affinity set where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def map_batches(fn, items: np.ndarray | PixelWindows, batch_size: int = 64) -> list:
    """``fn(rows, items[rows])`` for consecutive slices ``rows`` of
    ``batch_size`` items (the last one may be shorter).

    Batches run in rounds of one batch per available CPU (never more than
    there are batches): the calling thread slices a round's batches, hands
    all but the first to a pool of one thread fewer, and runs the first
    itself, so no more slices (for a ``PixelWindows``, gathered windows)
    exist at once than there are CPUs, and one CPU runs everything on the
    calling thread. numpy and BLAS release the GIL. Batches see the caller's
    ``np.errstate``. Tapes are per thread and every batch starts with none
    active, so nothing lands on the caller's tape and each batch's result is
    independent of the thread count. A pass that builds one output
    preallocates it and has each batch write its own ``rows``. Results come
    back in batch order; the first failing batch's exception, in batch
    order, is re-raised once the round's other batches have finished.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    n = len(items)
    slices = [slice(start, min(start + batch_size, n)) for start in range(0, n, batch_size)]
    workers = max(1, min(_cpu_count(), len(slices)))

    def run_round(pool: ThreadPoolExecutor, round_slices: list[slice]) -> list:
        # Slicing here, while no worker runs, keeps each gather apart from
        # other threads' work; perfbench's tracer keeps one span stack per
        # process and misattributes spans that overlap across threads.
        batches = [items[rows] for rows in round_slices]
        # each pool batch runs in a copy of the caller's context, which
        # carries numpy's floating-point error state (np.errstate)
        futures = [
            pool.submit(contextvars.copy_context().run, fn, rows, batch)
            for rows, batch in zip(round_slices[1:], batches[1:])
        ]
        with ad.no_tape():
            first = fn(round_slices[0], batches[0])
        return [first] + [future.result() for future in futures]

    # The pool starts its threads on first use, so one CPU starts none. Its
    # exit waits for a round's other batches before an exception leaves.
    with ThreadPoolExecutor(max_workers=max(1, workers - 1)) as pool:
        return [
            result
            for first in range(0, len(slices), workers)
            for result in run_round(pool, slices[first : first + workers])
        ]


def _prefix(model: SstModel, n_blocks: int) -> SstModel:
    """The model cut after its embedding and first ``n_blocks`` blocks."""
    return dataclasses.replace(model, config=dataclasses.replace(model.config, n_layers=n_blocks))


def predict_probs(
    models: SstModel | tuple[SstModel, ...],
    features: np.ndarray | PixelWindows,
    batch_size: int = 64,
    from_block: int = 0,
):
    """Evaluation-mode probabilities [n, C] for unfolded windows.

    Batches of ``batch_size`` windows (gathered per batch from a
    ``PixelWindows``) run on one thread per available CPU (see
    ``map_batches``); there is no setting for the thread count, and the
    result is bitwise identical for any CPU count, array or lazy source.

    ``models`` is one model or a tuple of models whose embedding and first
    ``from_block`` encoder blocks are bitwise the same, as a model's are
    before and after fine-tuning under a plan that freezes them. Each batch
    runs those once, from the first model, then every model's later blocks
    and head; a row's tokens do not depend on where a pass stops, so each
    model's result is bitwise the one a pass of its own gives. A tuple
    gives a tuple of arrays, one per model. Raises NumericalError when
    probabilities are not finite (numpy's floating-point warnings are off).
    """
    group = (models,) if isinstance(models, SstModel) else tuple(models)
    outs = tuple(np.empty((len(features), model.config.n_classes)) for model in group)
    prefix = _prefix(group[0], from_block) if from_block else None

    def write(rows: slice, batch: np.ndarray) -> None:
        # the head's one-row matrix products take other BLAS kernels, whose
        # last bits differ: a lone row runs as a duplicated pair
        runs = np.repeat(batch, 2, axis=0) if len(batch) == 1 else batch
        tokens = runs if prefix is None else encode(prefix, runs)
        for model, out in zip(group, outs):
            out[rows] = forward_batch(model, tokens, from_block=from_block).data[: len(batch)]

    with np.errstate(all="ignore"):
        map_batches(write, features, batch_size)
    if not all(np.isfinite(out).all() for out in outs):
        raise NumericalError("the model's class probabilities are not finite")
    return outs[0] if isinstance(models, SstModel) else outs


def encode_prefix(
    model: SstModel, features: np.ndarray | PixelWindows, n_blocks: int
) -> np.ndarray:
    """Evaluation-mode tokens [n, N_p, d_model] after the embedding and the
    first ``n_blocks`` encoder blocks.

    ``encode``, ``forward_batch`` and ``train_model`` continue from them
    with ``from_block=n_blocks``. Batches run as in ``predict_probs``; a
    row's tokens do not depend on the batch it ran in, so they are bitwise
    the ones a full pass computes. They take N_p * d_model * 8 bytes per
    window, written into one array as each batch finishes.
    """
    prefix = _prefix(model, n_blocks)
    out = np.empty((len(features), model.config.n_tokens, model.config.d_model))

    def write(rows: slice, batch: np.ndarray) -> None:
        out[rows] = encode(prefix, batch).data

    map_batches(write, features)
    return out


def _initial(rng, name: str, shape: tuple[int, ...]) -> Tensor:
    """A fresh parameter: ones for LayerNorm gains, zeros for biases and the
    class query, else uniform(+/- sqrt(1/fan_in)) with fan_in = shape[0]."""
    if name.endswith("_gain"):
        data = np.ones(shape)
    elif len(shape) == 1 or name == "pool.class_query":
        data = np.zeros(shape)
    else:
        bound = math.sqrt(1.0 / shape[0])
        data = rng.uniform(-bound, bound, size=shape)
    return Tensor(data, requires_grad=True)


def init_model(config: SstConfig, seed: int = 0) -> SstModel:
    """Fresh model (see ``_initial``), deterministic for a fixed seed. Every
    encoder block draws its weights before the embedding, pool and head do."""
    rng = np.random.default_rng(seed)
    spec = param_spec(config)
    # sorting is stable, so only the encoder blocks move ahead
    drawn = {n: _initial(rng, n, spec[n]) for n in sorted(spec, key=lambda n: n[:3] != "enc")}
    return SstModel(config, {name: drawn[name] for name in spec})


def reset_head(model: SstModel, n_classes: int, seed: int = 0) -> None:
    """Re-initialize the output projection for a new class count.

    Only the final projection (head.w2, head.b2) is replaced; the rest of the
    head keeps its learned values.
    """
    rng = np.random.default_rng(seed)
    model.config = dataclasses.replace(model.config, n_classes=n_classes)
    spec = param_spec(model.config)
    for name in ("head.w2", "head.b2"):
        model.params[name] = _initial(rng, name, spec[name])
    model.apply_freeze()
