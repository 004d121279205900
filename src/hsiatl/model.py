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
plain scaled dot-product attention bitwise.
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
        renormalize: re-divide calibrated attention rows by their sum.
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


@dataclass
class EncoderLayerParams:
    attn_q: Tensor
    attn_k: Tensor
    attn_v: Tensor
    attn_out: Tensor
    ff_w1: Tensor
    ff_b1: Tensor
    ff_w2: Tensor
    ff_b2: Tensor
    ln1_gain: Tensor
    ln1_bias: Tensor
    ln2_gain: Tensor
    ln2_bias: Tensor


@dataclass
class SstModel:
    """Parameters plus per-group freeze flags.

    Freeze groups are "embed", "enc0".."enc{L-1}", and "head"; the head group
    also covers the cross-attention pooling parameters, since both adapt to
    the label space. ``apply_freeze`` must be called after editing ``freeze``
    for the flags to take effect on the tensors.
    """

    config: SstConfig
    embed_weight: Tensor
    layers: list[EncoderLayerParams]
    class_query: Tensor
    pool_k: Tensor
    pool_v: Tensor
    head_w1: Tensor
    head_b1: Tensor
    head_w2: Tensor
    head_b2: Tensor
    freeze: dict[str, bool] = field(default_factory=dict)

    def __post_init__(self):
        if not self.freeze:
            self.freeze = {"embed": False, "head": False}
            self.freeze.update({f"enc{i}": False for i in range(len(self.layers))})

    def parameters(self) -> dict[str, Tensor]:
        """Stable name -> tensor mapping; the order defines checkpoints."""
        out = {"embed.weight": self.embed_weight}
        for i, layer in enumerate(self.layers):
            for fld in dataclasses.fields(EncoderLayerParams):
                out[f"enc{i}.{fld.name}"] = getattr(layer, fld.name)
        out["pool.class_query"] = self.class_query
        out["pool.k"] = self.pool_k
        out["pool.v"] = self.pool_v
        out["head.w1"] = self.head_w1
        out["head.b1"] = self.head_b1
        out["head.w2"] = self.head_w2
        out["head.b2"] = self.head_b2
        return out

    def replica(self) -> "SstModel":
        """The same model over new parameter tensors with their own ``grad``.

        Each replica tensor shares its ``data`` array with the original and
        keeps its ``requires_grad`` flag, so in-place updates to the original
        show through while gradients accumulate apart.
        """

        def twin(t: Tensor) -> Tensor:
            out = Tensor._result(t.data)
            out.requires_grad = t.requires_grad
            return out

        def twins(obj) -> dict[str, Tensor]:
            return {
                fld.name: twin(getattr(obj, fld.name))
                for fld in dataclasses.fields(obj)
                if isinstance(getattr(obj, fld.name), Tensor)
            }

        layers = [dataclasses.replace(layer, **twins(layer)) for layer in self.layers]
        return dataclasses.replace(self, layers=layers, **twins(self))

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


def _swap_last(t: Tensor) -> Tensor:
    axes = tuple(range(t.ndim - 2)) + (t.ndim - 1, t.ndim - 2)
    return ad.transpose(t, axes)


def attention(q: Tensor, k: Tensor, v: Tensor) -> Tensor:
    """softmax(Q K^T / sqrt(d_k)) V on the last two axes."""
    d_k = q.shape[-1]
    scores = ad.scale(ad.matmul(q, _swap_last(k)), 1.0 / math.sqrt(d_k))
    return ad.matmul(ad.softmax(scores, axis=-1), v)


def _row_entropy(attn: Tensor) -> Tensor:
    """Shannon entropy of each attention row, normalized by ln(row length).

    Input [..., N, N]; output [..., N, 1] with values in [0, 1]. A row of
    all-equal weights scores 1; a one-hot row scores 0.
    """
    n = attn.shape[-1]
    denominator = math.log(n) if n > 1 else 1.0
    plogp = ad.reduce_sum(ad.mul(attn, ad.log(attn)), axis=-1, keepdims=True)
    return ad.scale(plogp, -1.0 / denominator)


def calibrated_attention(
    q: Tensor, k: Tensor, v: Tensor, calibration: float, renormalize: bool = False
) -> Tensor:
    """Attention whose rows are amplified by their own entropy.

    Row i of the softmax weights is scaled by (1 + calibration * U_i) with
    U_i its normalized entropy. calibration = 0 short-circuits to the plain
    attention path, making the outputs bitwise identical. With
    ``renormalize`` the scaled rows are re-divided by their sums, which
    restores row-stochasticity (and with it, plain attention up to rounding).
    """
    if calibration < 0:
        raise ValueError(f"calibration must be >= 0, got {calibration}")
    if calibration == 0:
        return attention(q, k, v)
    d_k = q.shape[-1]
    scores = ad.scale(ad.matmul(q, _swap_last(k)), 1.0 / math.sqrt(d_k))
    weights = ad.softmax(scores, axis=-1)
    boost = ad.add(ad.scale(_row_entropy(weights), calibration), 1.0)
    weights = ad.mul(weights, boost)
    if renormalize:
        weights = ad.div(weights, ad.reduce_sum(weights, axis=-1, keepdims=True))
    return ad.matmul(weights, v)


def _split_heads(t: Tensor, n_heads: int) -> Tensor:
    b, n, d = t.shape
    return ad.transpose(
        ad.reshape(t, (b, n, n_heads, d // n_heads)), (0, 2, 1, 3)
    )


def _merge_heads(t: Tensor) -> Tensor:
    b, h, n, d_k = t.shape
    return ad.reshape(ad.transpose(t, (0, 2, 1, 3)), (b, n, h * d_k))


def _self_attention(z: Tensor, layer: EncoderLayerParams, cfg: SstConfig) -> Tensor:
    q = _split_heads(ad.matmul(z, layer.attn_q), cfg.n_heads)
    k = _split_heads(ad.matmul(z, layer.attn_k), cfg.n_heads)
    v = _split_heads(ad.matmul(z, layer.attn_v), cfg.n_heads)
    heads = calibrated_attention(q, k, v, cfg.calibration, cfg.renormalize)
    return ad.matmul(_merge_heads(heads), layer.attn_out)


def encoder_block(
    z: Tensor,
    layer: EncoderLayerParams,
    cfg: SstConfig,
    training: bool = False,
    rng=None,
) -> Tensor:
    """Residual attention and feed-forward sublayers, each closed by LayerNorm."""
    attn = ad.dropout(_self_attention(z, layer, cfg), cfg.dropout, training, rng)
    z = ad.layer_norm(ad.add(z, attn), layer.ln1_gain, layer.ln1_bias, cfg.ln_eps)
    hidden = ad.relu(ad.add(ad.matmul(z, layer.ff_w1), layer.ff_b1))
    ff = ad.add(ad.matmul(hidden, layer.ff_w2), layer.ff_b2)
    ff = ad.dropout(ff, cfg.dropout, training, rng)
    return ad.layer_norm(ad.add(z, ff), layer.ln2_gain, layer.ln2_bias, cfg.ln_eps)


def dropout_draws(cfg: SstConfig, batch: int, rng, from_block: int = 0) -> list[np.ndarray]:
    """The uniforms a training ``forward_batch`` over ``batch`` windows draws.

    They come from ``rng`` in the order ``encoder_block`` draws them (per
    block that runs, from ``from_block`` on: attention, then feed-forward);
    there are none when dropout is 0.
    """
    if cfg.dropout == 0:
        return []
    shape = (batch, cfg.n_tokens, cfg.d_model)
    return [rng.random(shape) for _ in range(2 * (cfg.n_layers - from_block))]


class RowDraws:
    """Generator stand-in that replays whole-batch dropout draws for some rows.

    Passed as ``rng`` to a training ``forward_batch`` over rows ``rows`` of a
    batch, its k-th ``random`` call returns those rows of the k-th draw of
    ``dropout_draws``, so each row gets the mask the whole-batch pass gives it.
    """

    def __init__(self, draws: list[np.ndarray], rows: np.ndarray):
        self._draws = iter(draws)
        self._rows = rows

    def random(self, shape: tuple[int, ...]) -> np.ndarray:
        draw = next(self._draws, None)
        part = None if draw is None else draw[self._rows]
        if part is None or part.shape != tuple(shape):
            raise RuntimeError(f"no pre-drawn dropout uniforms of shape {shape}")
        return part


def cross_attention_pool(z: Tensor, model: SstModel) -> Tensor:
    """Collapse [B, N_p, d_model] tokens to [B, d_model] by attending a
    learned class query."""
    keys = ad.matmul(z, model.pool_k)
    values = ad.matmul(z, model.pool_v)
    scores = ad.scale(
        ad.matmul(model.class_query, _swap_last(keys)),
        1.0 / math.sqrt(model.config.d_model),
    )
    pooled = ad.matmul(ad.softmax(scores, axis=-1), values)
    return ad.reshape(pooled, (pooled.shape[0], pooled.shape[-1]))


def classify(pooled: Tensor, model: SstModel) -> Tensor:
    """Two-layer softmax head: [B, d_model] -> probabilities [B, C]."""
    hidden = ad.relu(ad.add(ad.matmul(pooled, model.head_w1), model.head_b1))
    logits = ad.add(ad.matmul(hidden, model.head_w2), model.head_b2)
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
        z = ad.add(ad.matmul(x, model.embed_weight), Tensor(positional))
    elif x.shape[-1] != cfg.d_model:
        raise DimensionError(
            f"tokens entering block {from_block} are {x.shape[-1]} wide, "
            f"the model's width is {cfg.d_model}"
        )
    else:
        z = x
    captured = []
    for layer in model.layers[from_block:]:
        z = encoder_block(z, layer, cfg, training, rng)
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
    """``fn`` applied to consecutive ``batch_size`` slices of ``items``.

    Batches run on a thread pool with one thread per available CPU (never
    more threads than batches; a single batch or CPU runs inline), in rounds
    of one batch per thread: the calling thread slices a round's batches and
    the pool runs ``fn`` on them, so no more slices (for a ``PixelWindows``,
    gathered windows) exist at once than there are threads. numpy and BLAS
    release the GIL. Batches see the caller's ``np.errstate``. Tapes are per
    thread and every batch starts with none active, so nothing lands on the
    caller's tape and each batch's result is independent of the thread
    count. Results come back in batch order; the first failing batch's
    exception is re-raised.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    starts = range(0, len(items), batch_size)
    workers = min(_cpu_count(), len(starts))
    if workers <= 1:
        with ad.no_tape():
            return [fn(items[start : start + batch_size]) for start in starts]

    def run_round(pool: ThreadPoolExecutor, round_starts: range) -> list:
        # Slicing here, while no worker runs, keeps each gather apart from
        # other threads' work; perfbench's tracer keeps one span stack per
        # process and misattributes spans that overlap across threads.
        batches = [items[start : start + batch_size] for start in round_starts]
        # each batch runs in a copy of the caller's context, which carries
        # numpy's floating-point error state (np.errstate) as inline runs do
        contexts = [contextvars.copy_context() for _ in batches]
        return list(pool.map(lambda ctx, batch: ctx.run(fn, batch), contexts, batches))

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return [
            result
            for first in range(0, len(starts), workers)
            for result in run_round(pool, starts[first : first + workers])
        ]


def _lone_row_as_pair(fn):
    """``fn`` over a batch, with a one-row batch run as a duplicated pair.

    A one-row matrix product takes a different BLAS kernel, whose last bits
    differ from the multi-row one; running a lone row as a pair keeps every
    row's result independent of how the input was batched.
    """

    def run(batch: np.ndarray) -> np.ndarray:
        if batch.shape[0] == 1:
            return fn(np.repeat(batch, 2, axis=0))[:1]
        return fn(batch)

    return run


def predict_probs(
    model: SstModel,
    features: np.ndarray | PixelWindows,
    batch_size: int = 64,
    from_block: int = 0,
) -> np.ndarray:
    """Evaluation-mode probabilities [n, C] for unfolded windows.

    Batches of ``batch_size`` windows (gathered per batch from a
    ``PixelWindows``) run on one thread per available CPU (see
    ``map_batches``); there is no setting for the thread count, and the
    result is bitwise identical for any CPU count, array or lazy source.
    With ``from_block`` above 0, ``features`` are the tokens
    ``encode_prefix`` gives for that many blocks, and the result is bitwise
    the one the windows would give.
    """
    probs = _lone_row_as_pair(lambda batch: forward_batch(model, batch, from_block=from_block).data)
    chunks = map_batches(probs, features, batch_size)
    if not chunks:
        return np.zeros((0, model.config.n_classes))
    return np.concatenate(chunks, axis=0)


def encode_prefix(
    model: SstModel, features: np.ndarray | PixelWindows, n_blocks: int
) -> np.ndarray:
    """Evaluation-mode tokens [n, N_p, d_model] after the embedding and the
    first ``n_blocks`` encoder blocks.

    ``encode``, ``forward_batch``, ``predict_probs`` and ``train_model``
    continue from them with ``from_block=n_blocks``. Batches run as in
    ``predict_probs``, so the tokens are bitwise the ones a full pass
    computes; they take N_p * d_model * 8 bytes per window.
    """
    prefix = dataclasses.replace(model, layers=model.layers[:n_blocks])
    chunks = map_batches(_lone_row_as_pair(lambda batch: encode(prefix, batch).data), features)
    if not chunks:
        return np.zeros((0, model.config.n_tokens, model.config.d_model))
    return np.concatenate(chunks, axis=0)


def _uniform_weight(rng, fan_in: int, shape: tuple[int, ...]) -> Tensor:
    bound = math.sqrt(1.0 / fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def init_model(config: SstConfig, seed: int = 0) -> SstModel:
    """Fresh model: uniform(+/- sqrt(1/fan_in)) weights, zero biases and
    class query, unit LayerNorm gains. Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    d = config.d_model
    layers = []
    for _ in range(config.n_layers):
        layers.append(
            EncoderLayerParams(
                attn_q=_uniform_weight(rng, d, (d, d)),
                attn_k=_uniform_weight(rng, d, (d, d)),
                attn_v=_uniform_weight(rng, d, (d, d)),
                attn_out=_uniform_weight(rng, d, (d, d)),
                ff_w1=_uniform_weight(rng, d, (d, config.d_ff)),
                ff_b1=Tensor(np.zeros(config.d_ff), requires_grad=True),
                ff_w2=_uniform_weight(rng, config.d_ff, (config.d_ff, d)),
                ff_b2=Tensor(np.zeros(d), requires_grad=True),
                ln1_gain=Tensor(np.ones(d), requires_grad=True),
                ln1_bias=Tensor(np.zeros(d), requires_grad=True),
                ln2_gain=Tensor(np.ones(d), requires_grad=True),
                ln2_bias=Tensor(np.zeros(d), requires_grad=True),
            )
        )
    model = SstModel(
        config=config,
        embed_weight=_uniform_weight(rng, config.token_dim, (config.token_dim, d)),
        layers=layers,
        class_query=Tensor(np.zeros((1, d)), requires_grad=True),
        pool_k=_uniform_weight(rng, d, (d, d)),
        pool_v=_uniform_weight(rng, d, (d, d)),
        head_w1=_uniform_weight(rng, d, (d, d)),
        head_b1=Tensor(np.zeros(d), requires_grad=True),
        head_w2=_uniform_weight(rng, d, (d, config.n_classes)),
        head_b2=Tensor(np.zeros(config.n_classes), requires_grad=True),
    )
    model.apply_freeze()
    return model


def reset_head(model: SstModel, n_classes: int, seed: int = 0) -> None:
    """Re-initialize the output projection for a new class count.

    Only the final projection (head_w2, head_b2) is replaced; the rest of the
    head keeps its learned values.
    """
    rng = np.random.default_rng(seed)
    d = model.config.d_model
    model.head_w2 = _uniform_weight(rng, d, (d, n_classes))
    model.head_b2 = Tensor(np.zeros(n_classes), requires_grad=True)
    model.config = dataclasses.replace(model.config, n_classes=n_classes)
    model.apply_freeze()
