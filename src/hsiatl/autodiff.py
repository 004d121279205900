"""Dense float64 tensors with tape-based reverse-mode differentiation.

Operations executed while a ``Tape`` is active append a record (the output
tensor plus a backward closure) in execution order, which is already a valid
topological order of the graph. ``backward`` walks the records in reverse and
accumulates gradients into ``Tensor.grad``. Outside a tape the same functions
compute values only; evaluation-mode code paths rely on that to stay cheap
and bitwise deterministic.
"""

from __future__ import annotations

import contextlib
import threading
import weakref
from typing import Callable, Iterator, Sequence

import numpy as np

LOG_FLOOR = 1e-12


class ShapeError(ValueError):
    """Operand shapes violate an operation's contract."""


class GraphError(RuntimeError):
    """A backward pass was requested for a tensor the tape never recorded,
    or on a tape that was already swept."""


_active = threading.local()


def _tape_stack() -> list["Tape"]:
    stack = getattr(_active, "stack", None)
    if stack is None:
        stack = []
        _active.stack = stack
    return stack


def _current_tape() -> "Tape | None":
    stack = _tape_stack()
    return stack[-1] if stack else None


@contextlib.contextmanager
def no_tape() -> Iterator[None]:
    """Compute values only, even inside an active tape (this thread only)."""
    stack = _tape_stack()
    _active.stack = []
    try:
        yield
    finally:
        _active.stack = stack


class Tensor:
    """A dense float64 array plus an optional same-shape gradient buffer.

    Node identity within a tape is plain Python object identity; tensors are
    hashable by id and never compared structurally.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_tape")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise ValueError("tensor values must be finite")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable[[np.ndarray], None] | None = None
        self._tape: "weakref.ref[Tape] | None" = None

    @classmethod
    def _result(cls, data: np.ndarray) -> "Tensor":
        """Wrap an op output without re-validating (hot path)."""
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        out.requires_grad = False
        out._backward = None
        out._tape = None
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad += g

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


class Tape:
    """Records op outputs in execution order for one reverse sweep.

    Use as a context manager::

        with Tape() as tape:
            loss = cross_entropy(forward_batch(...), targets)
        backward(tape, loss)

    A record's backward closure keeps its inputs, not the large
    intermediates of its forward (``layer_norm`` and the model's sublayer
    nodes add per-row statistics). It rebuilds those intermediates from the
    inputs' ``data`` with the forward's own ops, so they are bitwise the
    forward's. Nothing may therefore write into a recorded tensor's
    ``data``, or an input's, between the forward and ``backward``.
    """

    def __init__(self):
        self.records: list[Tensor] = []

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        popped = _tape_stack().pop()
        assert popped is self

    def __len__(self) -> int:
        return len(self.records)


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def _record(out: Tensor, parents: Sequence[Tensor], backward_fn: Callable) -> Tensor:
    """Attach a backward closure if a tape is active and any parent needs it.

    The output refers back to its tape weakly: a strong reference would make
    a cycle (tape -> records -> out -> tape) that keeps every recorded
    activation alive until a full garbage collection.
    """
    tape = _current_tape()
    if tape is not None and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._backward = backward_fn
        out._tape = weakref.ref(tape)
        tape.records.append(out)
    return out


def backward(tape: Tape, loss: Tensor) -> None:
    """Reverse sweep: accumulate gradients of ``loss`` into ``Tensor.grad``.

    ``loss`` must be a scalar recorded on ``tape``. Gradients add into the
    leaf tensors that participated, parameters included; reset ``grad`` to
    ``None`` between steps. The sweep frees the graph as it goes: each
    record drops its backward closure (and with it the activations that
    closure holds) and, except for ``loss``, its gradient once that has
    been passed on. ``tape.records`` keeps every entry, but a swept tape
    cannot be swept again.
    """
    if loss._tape is None or loss._tape() is not tape:
        raise GraphError("loss tensor was not recorded on this tape")
    if loss.size != 1:
        raise GraphError(f"loss must be scalar, got shape {loss.shape}")
    if loss._backward is None:
        raise GraphError("this tape was already swept")
    loss.grad = np.ones_like(loss.data)
    for t in reversed(tape.records):
        if t.grad is not None:
            t._backward(t.grad)
            if t is not loss:
                t.grad = None
        t._backward = None


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` over axes that numpy broadcasting added or stretched."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor._result(a.data + b.data)

    def bwd(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g, b.data.shape))

    return _record(out, (a, b), bwd)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor._result(a.data - b.data)

    def bwd(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(-g, b.data.shape))

    return _record(out, (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor._result(a.data * b.data)

    def bwd(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _record(out, (a, b), bwd)


def div(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = Tensor._result(a.data / b.data)

    def bwd(g):
        if a.requires_grad:
            a.accumulate(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _record(out, (a, b), bwd)


def scale(a, s: float) -> Tensor:
    a = _as_tensor(a)
    s = float(s)
    out = Tensor._result(a.data * s)

    def bwd(g):
        if a.requires_grad:
            a.accumulate(g * s)

    return _record(out, (a,), bwd)


def matmul(a, b) -> Tensor:
    """Matrix product with numpy stacking semantics on leading axes."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs matrices, got {a.shape} @ {b.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    out = Tensor._result(a.data @ b.data)

    def bwd(g):
        if a.requires_grad:
            ga = g @ np.swapaxes(b.data, -1, -2)
            a.accumulate(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            if b.ndim == 2 and a.ndim > 2:
                # one GEMM over every stacked row, not one per matrix plus a sum
                k, n = b.data.shape
                b.accumulate(a.data.reshape(-1, k).T @ g.reshape(-1, n))
            else:
                gb = np.swapaxes(a.data, -1, -2) @ g
                b.accumulate(_unbroadcast(gb, b.data.shape))

    return _record(out, (a, b), bwd)


def transpose(a, axes: tuple[int, ...] | None = None) -> Tensor:
    a = _as_tensor(a)
    if axes is None:
        axes = tuple(reversed(range(a.ndim)))
    out = Tensor._result(np.transpose(a.data, axes))
    inverse = np.argsort(axes)

    def bwd(g):
        if a.requires_grad:
            a.accumulate(np.transpose(g, inverse))

    return _record(out, (a,), bwd)


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = _as_tensor(a)
    out = Tensor._result(a.data.reshape(shape))

    def bwd(g):
        if a.requires_grad:
            a.accumulate(g.reshape(a.data.shape))

    return _record(out, (a,), bwd)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = [_as_tensor(t) for t in tensors]
    if not parts:
        raise ShapeError("concat of zero tensors")
    out = Tensor._result(np.concatenate([p.data for p in parts], axis=axis))
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum(sizes)[:-1]

    def bwd(g):
        pieces = np.split(g, offsets, axis=axis)
        for p, piece in zip(parts, pieces):
            if p.requires_grad:
                p.accumulate(piece)

    return _record(out, tuple(parts), bwd)


def relu(a) -> Tensor:
    a = _as_tensor(a)
    out = Tensor._result(np.maximum(a.data, 0.0))

    def bwd(g):
        if a.requires_grad:
            a.accumulate(g * (a.data > 0.0))

    return _record(out, (a,), bwd)


def log(a, floor: float = LOG_FLOOR) -> Tensor:
    """Natural log, clamped below at ``floor`` so log never sees zero."""
    a = _as_tensor(a)
    clamped = np.maximum(a.data, floor)
    out = Tensor._result(np.log(clamped))

    def bwd(g):
        if a.requires_grad:
            a.accumulate(g * (a.data > floor) / clamped)

    return _record(out, (a,), bwd)


def reduce_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    out = Tensor._result(a.data.sum(axis=axis, keepdims=keepdims))

    def bwd(g):
        if not a.requires_grad:
            return
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        # a read-only view; accumulate copies it when it starts the buffer
        a.accumulate(np.broadcast_to(g, a.data.shape))

    return _record(out, (a,), bwd)


def reduce_mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    if axis is None:
        n = a.size
    elif isinstance(axis, int):
        n = a.data.shape[axis]
    else:
        n = int(np.prod([a.data.shape[i] for i in axis]))
    return scale(reduce_sum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable softmax: invariant to shifting logits per row."""
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)
    out = Tensor._result(s)

    def bwd(g):
        if a.requires_grad:
            inner = (g * s).sum(axis=axis, keepdims=True)
            a.accumulate((g - inner) * s)

    return _record(out, (a,), bwd)


def layer_norm(x, gain, bias, eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    The tape node keeps each row's mean and 1/sigma, not the normalized
    input; its backward rebuilds that from ``x``.
    """
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(
            f"gain/bias must have shape ({d},), got {gain.shape} and {bias.shape}"
        )
    # in place where the op-by-op expression would allocate; same bits
    mean = x.data.mean(axis=-1, keepdims=True)
    out = x.data - mean
    var = (out * out).mean(axis=-1, keepdims=True)
    var += eps
    inv = 1.0 / np.sqrt(var)
    out *= inv
    out *= gain.data
    out += bias.data

    def bwd(g):
        # x-hat, rebuilt by the forward's own two ops from the row statistics
        xhat = x.data - mean
        xhat *= inv
        if gain.requires_grad:
            gain.accumulate((g * xhat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            bias.accumulate(g.reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            gx_hat = g * gain.data
            m1 = gx_hat.mean(axis=-1, keepdims=True)
            m2 = (gx_hat * xhat).mean(axis=-1, keepdims=True)
            x.accumulate(inv * (gx_hat - m1 - xhat * m2))

    return _record(Tensor._result(out), (x, gain, bias), bwd)


def dropout(x, rate: float = 0.1, training: bool = False, rng=None) -> Tensor:
    """Inverted dropout: keep-mask scaled by 1/(1-rate) during training.

    Evaluation mode returns ``x`` unchanged (the very same tensor).
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    x = _as_tensor(x)
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("training-mode dropout needs an rng for determinism")
    keep = (rng.random(x.data.shape) >= rate) / (1.0 - rate)
    out = Tensor._result(x.data * keep)

    def bwd(g):
        if x.requires_grad:
            x.accumulate(g * keep)

    return _record(out, (x,), bwd)


def cross_entropy(probs: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer targets under ``probs``.

    Args:
        probs: [B, C] rows of class probabilities, each summing to 1
            within 1e-6.
        targets: length-B integer class indices in [0, C).

    Returns:
        Scalar tensor, -(1/B) * sum_i log max(probs[i, t_i], 1e-12).
    """
    probs = _as_tensor(probs)
    targets = np.asarray(targets)
    if probs.ndim != 2:
        raise ShapeError(f"probs must be [B, C], got {probs.shape}")
    n, c = probs.data.shape
    if targets.shape != (n,):
        raise ShapeError(f"targets must have shape ({n},), got {targets.shape}")
    if not np.issubdtype(targets.dtype, np.integer):
        raise TypeError("targets must be integers")
    if targets.min(initial=0) < 0 or targets.max(initial=0) >= c:
        raise IndexError("target class out of range")
    sums = probs.data.sum(axis=1)
    if np.any(np.abs(sums - 1.0) > 1e-6):
        raise ValueError("probability rows must sum to 1 within 1e-6")
    rows = np.arange(n)
    picked = probs.data[rows, targets]
    clamped = np.maximum(picked, LOG_FLOOR)
    out = Tensor._result(np.float64(-np.log(clamped).mean()))

    def bwd(g):
        if probs.requires_grad:
            gp = np.zeros_like(probs.data)
            live = picked > LOG_FLOOR
            gp[rows[live], targets[live]] = -g / (n * clamped[live])
            probs.accumulate(gp)

    return _record(out, (probs,), bwd)
