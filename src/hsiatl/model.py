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
import copy
import dataclasses
import functools
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from hsiatl import autodiff as ad
from hsiatl.autodiff import Tensor
from hsiatl.data import DimensionError, HsiCube, extract_windows_batch, window_pad


# the most scalars a model may hold: 1 GiB of float64 weights, which training holds
# 7 times over (gradients, Adam's moments and scratch); the default at 16 bands has 0.17M
MAX_PARAMETERS = 2**27


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
        for name in ("d_model", "n_layers", "n_heads", "d_ff"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} must be divisible by n_heads {self.n_heads}")
        if self.n_parameters > MAX_PARAMETERS:
            raise ValueError(
                f"bands {self.bands}, subpatch {self.subpatch}, d_model {self.d_model}, "
                f"n_layers {self.n_layers}, d_ff {self.d_ff} and n_classes {self.n_classes} "
                f"give {self.n_parameters} parameters, more than {MAX_PARAMETERS}")
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

    @property
    def n_parameters(self) -> int:
        """The scalar count of ``param_spec``, by arithmetic on the fields."""
        d, f, c = self.d_model, self.d_ff, self.n_classes
        block = 4 * d * d + 2 * d * f + f + 5 * d
        return (self.token_dim + 3 * d + 2 + c) * d + c + self.n_layers * block

    def tail_start(self, from_block: int) -> int:
        """Where the parameters that train from block ``from_block`` on begin
        in ``param_spec`` order: after the embedding and blocks 0..from_block-1,
        or at 0 for block 0, since the embedding trains with it."""
        if from_block == 0:
            return 0
        head = ("embed.", *(f"enc{i}." for i in range(from_block)))
        return sum(math.prod(shape) for name, shape in param_spec(self).items()
                   if name.startswith(head))


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


@dataclass(eq=False)
class SstModel:
    """Every parameter in one float64 vector, in ``param_spec`` (checkpoint)
    order; ``params`` holds tensors over its views and ``grad``, if given,
    their gradients' views. A deepcopy copies the vector, not each view.

    Freeze groups are "embed", "enc0".."enc{L-1}", and "head"; the head group
    also covers the cross-attention pooling parameters, since both adapt to
    the label space. ``apply_freeze`` must be called after editing ``freeze``
    for the flags to take effect on the tensors.
    """

    config: SstConfig
    vector: np.ndarray
    freeze: dict[str, bool] = field(default_factory=dict)
    grad: np.ndarray | None = None
    params: dict[str, Tensor] = field(init=False)

    def __post_init__(self):
        spec = param_spec(self.config)
        if not self.freeze:
            self.freeze = dict.fromkeys(map(self.group_of, spec), False)
        self.params = {name: Tensor._result(data) for name, data in _views(self.vector, spec)}
        if self.grad is not None:
            for name, grad in _views(self.grad, spec, self.vector.size - self.grad.size):
                self.params[name].grad = grad
        self.apply_freeze()

    def __deepcopy__(self, memo) -> "SstModel":
        return SstModel(copy.copy(self.config), self.vector.copy(), dict(self.freeze))

    def parameters(self) -> dict[str, Tensor]:
        """Stable name -> tensor mapping; the order defines checkpoints."""
        return self.params

    def block(self, i: int) -> dict[str, Tensor]:
        """Encoder block i's tensors by short name (see ``BLOCK_PARAMS``)."""
        return {name: self.params[f"enc{i}.{name}"] for name in BLOCK_PARAMS}

    def replica(self, start: int = 0) -> "SstModel":
        """The same model over the same vector, with new tensors whose
        gradients accumulate apart, into a zeroed ``grad`` vector of its own
        over ``vector[start:]`` (see ``SstConfig.tail_start``); the tensors
        before ``start`` have no gradient."""
        return dataclasses.replace(self, grad=np.zeros(self.vector.size - start))

    @staticmethod
    def group_of(param_name: str) -> str:
        prefix = param_name.split(".", 1)[0]
        return "head" if prefix == "pool" else prefix

    def apply_freeze(self) -> None:
        for name, tensor in self.parameters().items():
            tensor.requires_grad = not self.freeze[self.group_of(name)]


def _views(vector: np.ndarray, spec: dict[str, tuple[int, ...]], start: int = 0) -> list:
    """(name, view) for consecutive stretches of ``vector`` with the shapes
    of ``spec``, in its order, leaving out the tensors in the first ``start``
    entries of ``spec``; raises ValueError unless they cover ``vector`` and
    ``start`` falls between two tensors."""
    sizes = [math.prod(shape) for shape in spec.values()]
    ends = list(itertools.accumulate(sizes))
    if start not in (0, *ends):
        raise ValueError(f"entry {start} does not begin a parameter tensor")
    if vector.shape != (sum(sizes) - start,):
        raise ValueError(
            f"{sum(sizes) - start} parameters cannot view an array of shape {vector.shape}")
    return [(name, vector[end - size - start : end - start].reshape(shape))
            for (name, shape), size, end in zip(spec.items(), sizes, ends) if end > start]


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
    cut from the cube's one mirror-padded buffer (``HsiCube.padded``).
    ``predict_probs``, ``encode_prefix`` and ``train_model`` take it in place
    of an array, so only the batches being run are ever unfolded; ``shape``
    is the shape the whole array would have.
    """

    def __init__(self, cube: HsiCube, pixels, window: int, subpatch: int):
        window_pad(cube, window)  # checks the window; pads now, so gathers only read
        self.cube, self.pixels = cube, np.asarray(pixels)
        self.window, self.subpatch = window, subpatch

    def __len__(self) -> int:
        return self.pixels.size

    @property
    def shape(self) -> tuple[int, int, int]:
        grid = self.window // self.subpatch
        return len(self), grid * grid, self.subpatch * self.subpatch * self.cube.bands

    def __getitem__(self, rows) -> np.ndarray:
        windows = extract_windows_batch(self.cube, self.pixels[rows], self.window)
        return unfold(windows, self.subpatch)


def _shifted_scores(q: np.ndarray, k: np.ndarray, lead: tuple[int, ...]) -> np.ndarray:
    """s' = c q.k - (row max), c = 1/sqrt(d_k), held keys first as
    [N_k, *lead, N_q]."""
    shifted = np.empty((k.shape[-2], *lead, q.shape[-2]))
    np.matmul(k, np.swapaxes(q, -1, -2), out=np.moveaxis(shifted, 0, -2))
    shifted *= 1.0 / math.sqrt(q.shape[-1])
    shifted -= np.maximum.reduce(shifted, axis=0)
    return shifted


def _row_stats(shifted, e, calibration: float, scratch: np.ndarray):
    """Z = sum(e), the row factor b / Z and, when the calibration is above
    0, A/Z and calibration / ln N_k (else None), with e = exp(s');
    ``scratch`` (which may be ``shifted`` itself) receives e s'."""
    z = np.add.reduce(e, axis=0)
    if calibration == 0:
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


def _attend(project, calibration: float):
    """Self-calibrated attention on arrays [..., N, d_k], with the scores
    held keys first; ``project(i)`` gives q, k and v for i = 0, 1 and 2.

    The shifted scores s' live as [N_k, ..., N_q] (see ``_shifted_scores``),
    so every reduction over a row's keys works on whole [..., N_q] slabs.
    With e = exp(s'), Z = sum(e) and A = sum(e s') over the keys, a row's
    entropy is H = log Z - A/Z (no log of any weight), its boost is
    b = 1 + calibration * H / ln N_k, and the output is (e^T v) * b / Z.
    Renormalized rows come as calibration 0, so they take b = 1. Each input is
    asked for when it is used and dropped after: q and k once s' exists, s'
    (whose buffer takes e s') before v is made, so no more than e and one
    other score-sized array are alive at once. Nothing is kept for the
    backward: ``_attend_back`` rebuilds s' and the row statistics from q
    and k.
    """
    q, k = project(0), project(1)
    shifted = _shifted_scores(q, k, np.broadcast_shapes(q.shape[:-2], k.shape[:-2]))
    del q, k
    e = np.exp(shifted)
    _, scale, _ = _row_stats(shifted, e, calibration, shifted)
    del shifted
    out = np.matmul(np.moveaxis(e, 0, -1), project(2))
    out *= scale[..., None]
    return out


def _attend_back(g, q, k, v, calibration: float):
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
    z, scale, entropy = _row_stats(shifted, e, calibration, product)
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
    bitwise those of ``attention`` too, and the kernel runs it as
    calibration 0. One tape node (see ``_attend``).
    """
    if calibration < 0:
        raise ValueError(f"calibration must be >= 0, got {calibration}")
    calibration = 0.0 if renormalize else calibration
    q, k, v = (ad._as_tensor(t) for t in (q, k, v))
    out = _attend((q.data, k.data, v.data).__getitem__, calibration)

    def bwd(g):
        *grads, _ = _attend_back(g, q.data, k.data, v.data, calibration)
        # the order the op graph reaches them in: v, then q, then k
        for t, g_t in ((v, grads[2]), (q, grads[0]), (k, grads[1])):
            if t.requires_grad:
                t.accumulate(ad._unbroadcast(g_t, t.shape))

    return ad._record(Tensor._result(out), (q, k, v), bwd)


def _keep_mask(shape: tuple[int, ...], cfg: SstConfig, training: bool, masks) -> np.ndarray | None:
    """One sublayer's dropout keep mask: the next of the iterator ``masks``
    (``dropout_draws`` masks, or their rows), or None when none runs."""
    if not training or cfg.dropout == 0:
        return None
    mask = None if masks is None else next(masks, None)
    if mask is None or mask.shape != shape:
        raise ValueError(f"training-mode dropout needs a keep mask of shape {shape}")
    return mask


def _inverted_dropout(x: np.ndarray, keep, rate: float) -> np.ndarray:
    """``x`` times keep / (1 - rate) in place, the factor built from the keep
    mask as ``ad.dropout`` builds it (``keep`` None: no dropout). A sublayer
    node runs it on its output, and in its backward on the output gradient
    for the sublayer's share, once the residual's share (that gradient as it
    was) is passed on, as the op graph does."""
    if keep is not None:
        x *= keep / (1.0 - rate)
    return x


def _dropout_residual(out: np.ndarray, z: Tensor, keep, rate: float) -> np.ndarray:
    """z + dropout(out), in place on ``out``: the op graph's dropout and
    residual add, bitwise (the add commutes)."""
    out = _inverted_dropout(out, keep, rate)
    out += z.data
    return out


# windows per tile of the attention backward: its score-sized arrays grow
# with the tile, not with the batch
ATTEND_BACK_TILE = 8


def _self_attention(z: Tensor, layer: dict[str, Tensor], cfg: SstConfig, keep=None) -> Tensor:
    """z + dropout(attention sublayer) as one tape node: the q/k/v
    projections, head split, ``_attend``, head merge, output projection,
    then ``_dropout_residual`` with the keep mask ``keep`` (None: no
    dropout).

    Its backward keeps only ``z`` and the mask. It runs ``_attend_back``
    on ``ATTEND_BACK_TILE`` windows at a time, rerunning the three
    projections for those windows; ``_attend_back`` rebuilds the scores and
    the heads and takes the gradients through them in closed form. Rows do
    not interact, so each tile's values are bitwise the whole batch's; the
    weight gradients are one product over every row, as in the op graph.
    ``z`` receives the residual's, then the v, k and q contributions in
    that order.
    """
    b, n, d = z.shape
    # renormalized rows lose their boost: the kernel runs them as calibration 0
    calibration = 0.0 if cfg.renormalize else cfg.calibration
    projections = (layer["attn_q"], layer["attn_k"], layer["attn_v"])
    w_out = layer["attn_out"]

    def split(x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[0], n, cfg.n_heads, d // cfg.n_heads).transpose(0, 2, 1, 3)

    def project(i: int, rows=slice(None)) -> np.ndarray:
        return split(z.data[rows] @ projections[i].data)

    def bwd(g):
        if z.requires_grad:
            z.accumulate(g)
        g = _inverted_dropout(g, keep, cfg.dropout)
        g_heads = split(g @ w_out.data.T)
        # the merged heads and the q, k and v gradients, filled a tile at a time
        merged = np.empty((4, b, n, d))
        for start in range(0, b, ATTEND_BACK_TILE):
            rows = slice(start, start + ATTEND_BACK_TILE)
            tile = _attend_back(g_heads[rows], *(project(i, rows) for i in range(3)), calibration)
            for whole, part in zip(merged, tile):
                split(whole)[rows] = part
        *grads, heads = merged
        if w_out.requires_grad:
            w_out.accumulate(ad._weight_grad(heads, g))
        for w, g_x in reversed(list(zip(projections, grads))):
            if z.requires_grad:
                z.accumulate(g_x @ w.data.T)
            if w.requires_grad:
                w.accumulate(ad._weight_grad(z.data, g_x))

    heads = _attend(project, calibration)
    merged = heads.transpose(0, 2, 1, 3).reshape(b, n, d)
    out = _dropout_residual(merged @ w_out.data, z, keep, cfg.dropout)
    return ad._record(Tensor._result(out), (z, *projections, w_out), bwd)


def _feed_forward(x: Tensor, layer: dict[str, Tensor], cfg: SstConfig, keep=None) -> Tensor:
    """z + dropout(relu(z W1 + b1) W2 + b2) with z = LN1(x), as one tape
    node that keeps only ``x`` and the keep mask ``keep`` (None: no
    dropout). ``ad.layer_norm`` makes z off the tape; the backward rebuilds
    z and x-hat with the norm's own ops, then the ReLU output, then runs
    the chain rule of the LayerNorm and the seven ops the node replaces, in
    the op graph's order, so values and gradients are bitwise the graph's."""
    gain, bias = layer["ln1_gain"], layer["ln1_bias"]
    w1, b1, w2, b2 = (layer[name] for name in ("ff_w1", "ff_b1", "ff_w2", "ff_b2"))

    def relu_hidden(z: np.ndarray) -> np.ndarray:
        hidden = z @ w1.data
        hidden += b1.data
        return np.maximum(hidden, 0.0, out=hidden)

    def bwd(g):
        xhat, _, inv = ad._normalize(x.data, cfg.ln_eps)
        z = xhat * gain.data
        z += bias.data
        normed = x.requires_grad or gain.requires_grad or bias.requires_grad
        # z's gradient starts as the residual's share, as in the op graph
        g_z = g.copy() if normed else None
        g = _inverted_dropout(g, keep, cfg.dropout)
        if b2.requires_grad:
            b2.accumulate(ad._unbroadcast(g, b2.shape))
        hidden = relu_hidden(z)
        if w2.requires_grad:
            w2.accumulate(ad._weight_grad(hidden, g))
        # relu's mask: the output is positive exactly where its input was
        positive = hidden > 0.0
        del hidden
        g_pre = g @ w2.data.T
        g_pre *= positive
        if b1.requires_grad:
            b1.accumulate(ad._unbroadcast(g_pre, b1.shape))
        if normed:
            g_z += g_pre @ w1.data.T
        if w1.requires_grad:
            w1.accumulate(ad._weight_grad(z, g_pre))
        if normed:
            ad._layer_norm_back(g_z, x, xhat, inv, gain, bias)

    with ad.no_tape():
        z = ad.layer_norm(x, gain, bias, cfg.ln_eps)
    out = relu_hidden(z.data) @ w2.data
    out += b2.data
    out = _dropout_residual(out, z, keep, cfg.dropout)
    return ad._record(Tensor._result(out), (x, gain, bias, w1, b1, w2, b2), bwd)


def encoder_block(
    z: Tensor,
    layer: dict[str, Tensor],
    cfg: SstConfig,
    training: bool = False,
    masks=None,
) -> Tensor:
    """The attention and feed-forward sublayers, each with its dropout and
    residual add as one tape node (see ``_dropout_residual``), each closed
    by LayerNorm: LN1 opens the feed-forward node, and LN2 is an op of its
    own, so training records three entries. Training takes the attention
    sublayer's keep mask from the iterator ``masks``, then the feed-forward
    one's."""
    x = _self_attention(z, layer, cfg, _keep_mask(z.shape, cfg, training, masks))
    z = _feed_forward(x, layer, cfg, _keep_mask(x.shape, cfg, training, masks))
    return ad.layer_norm(z, layer["ln2_gain"], layer["ln2_bias"], cfg.ln_eps)


def dropout_draws(cfg: SstConfig, batch: int, rng, from_block: int = 0) -> list[np.ndarray]:
    """The keep masks a training ``forward_batch`` over ``batch`` windows
    draws: ``uniform >= cfg.dropout`` as bool arrays [batch, N_p, d_model],
    1 byte a value.

    They come from ``rng`` in the order ``encoder_block`` takes them (per
    block that runs, from ``from_block`` on: attention, then feed-forward);
    a pass over some rows of the batch takes those rows of each mask. There
    are none when dropout is 0.
    """
    if cfg.dropout == 0:
        return []
    shape = (batch, cfg.n_tokens, cfg.d_model)
    return [rng.random(shape) >= cfg.dropout for _ in range(2 * (cfg.n_layers - from_block))]


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
    """Two-layer softmax head: [B, d_model] -> probabilities [B, C]. Its products
    run on [B, 1, d], one per row, so a row's bits do not depend on B."""
    p = model.params
    rows = ad.reshape(pooled, (pooled.shape[0], 1, -1))
    hidden = ad.relu(ad.add(ad.matmul(rows, p["head.w1"]), p["head.b1"]))
    logits = ad.add(ad.matmul(hidden, p["head.w2"]), p["head.b2"])
    return ad.softmax(ad.reshape(logits, (pooled.shape[0], logits.shape[-1])), axis=-1)


def encode(
    model: SstModel,
    features: np.ndarray | Tensor,
    training: bool = False,
    masks=None,
    capture: bool = False,
    from_block: int = 0,
    to_block: int | None = None,
):
    """Run embedding + positional code + encoder blocks ``from_block`` up to
    ``to_block`` on unfolded tokens.

    Args:
        features: [B, N_p, p*p*bands] unfolded windows (see ``unfold``), or
            with ``from_block`` above 0 the [B, N_p, d_model] tokens that
            ``encode_prefix`` gives for that many blocks.
        masks: in training with dropout, an iterator over the blocks' keep
            masks (see ``dropout_draws``).
        capture: also return the outputs of the blocks that ran as plain
            arrays.
        from_block: the first encoder block to run; the embedding and the
            blocks before it are skipped.
        to_block: the block to stop before (None: every block runs), so
            ``to_block=j`` gives the tokens that enter block j.

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
    for i in range(from_block, cfg.n_layers if to_block is None else to_block):
        z = encoder_block(z, model.block(i), cfg, training, masks)
        if capture:
            captured.append(z.data)
    if capture:
        return z, captured
    return z


def forward_batch(
    model: SstModel,
    features: np.ndarray | Tensor,
    training: bool = False,
    masks=None,
    from_block: int = 0,
) -> Tensor:
    """Unfolded windows [B, N_p, p*p*bands] -> class probabilities [B, C].

    With ``from_block`` above 0 the input is tokens entering that block (see
    ``encode``).
    """
    z = encode(model, features, training, masks, from_block=from_block)
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
    runs those once, as ``encode(models[0], batch, to_block=from_block)``,
    then every model's later blocks and head; a row's tokens do not depend
    on where a pass stops, so each model's result is bitwise the one a pass
    of its own gives. A tuple gives a tuple of arrays, one per model. Raises
    NumericalError when probabilities are not finite (numpy's floating-point
    warnings are off).
    """
    group = (models,) if isinstance(models, SstModel) else tuple(models)
    outs = tuple(np.empty((len(features), model.config.n_classes)) for model in group)

    def write(rows: slice, batch: np.ndarray) -> None:
        tokens = encode(group[0], batch, to_block=from_block) if from_block else batch
        for model, out in zip(group, outs):
            out[rows] = forward_batch(model, tokens, from_block=from_block).data

    with np.errstate(all="ignore"):
        map_batches(write, features, batch_size)
    if not all(np.isfinite(out).all() for out in outs):
        raise NumericalError("the model's class probabilities are not finite")
    return outs[0] if isinstance(models, SstModel) else outs


def encode_prefix(
    model: SstModel, features: np.ndarray | PixelWindows, n_blocks: int
) -> np.ndarray:
    """Evaluation-mode tokens [n, N_p, d_model] after the embedding and the
    first ``n_blocks`` encoder blocks: ``encode(model, batch,
    to_block=n_blocks)`` a batch at a time.

    ``encode``, ``forward_batch`` and ``train_model`` continue from them
    with ``from_block=n_blocks``. Batches run as in ``predict_probs``; a
    row's tokens do not depend on the batch it ran in, so they are bitwise
    the ones a full pass computes. They take N_p * d_model * 8 bytes per
    window, written into one array as each batch finishes.
    """
    out = np.empty((len(features), model.config.n_tokens, model.config.d_model))

    def write(rows: slice, batch: np.ndarray) -> None:
        out[rows] = encode(model, batch, to_block=n_blocks).data

    map_batches(write, features)
    return out


def _initialize(rng, name: str, data: np.ndarray) -> None:
    """Fill a fresh parameter: ones for LayerNorm gains, zeros for biases and
    the class query, else uniform(+/- sqrt(1/fan_in)) with fan_in = shape[0]."""
    if name.endswith("_gain"):
        data[...] = 1.0
    elif data.ndim == 1 or name == "pool.class_query":
        data[...] = 0.0
    else:
        bound = math.sqrt(1.0 / data.shape[0])
        data[...] = rng.uniform(-bound, bound, size=data.shape)


def init_model(config: SstConfig, seed: int = 0) -> SstModel:
    """Fresh model (see ``_initialize``), deterministic for a fixed seed; every
    encoder block draws its weights before the embedding, pool and head do."""
    rng = np.random.default_rng(seed)
    model = SstModel(config, np.empty(config.n_parameters))
    # sorting is stable, so only the encoder blocks move ahead
    for name in sorted(model.params, key=lambda n: n[:3] != "enc"):
        _initialize(rng, name, model.params[name].data)
    return model


def reset_head(model: SstModel, n_classes: int, seed: int = 0) -> None:
    """Re-initialize the output projection for a new class count, in a new
    vector: only head.w2 and head.b2 (its tail) are replaced; the rest of the
    head keeps its learned values."""
    rng = np.random.default_rng(seed)
    config = dataclasses.replace(model.config, n_classes=n_classes)
    kept = model.vector[: config.n_parameters - (config.d_model + 1) * n_classes]
    fresh = SstModel(config, np.concatenate((kept, np.empty(config.n_parameters - kept.size))),
                     model.freeze)
    for name in ("head.w2", "head.b2"):
        _initialize(rng, name, fresh.params[name].data)
    model.config, model.vector, model.params = fresh.config, fresh.vector, fresh.params
