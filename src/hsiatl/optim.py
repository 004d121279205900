"""Adam with bias correction and inverse-time learning-rate decay.

Frozen parameters (``requires_grad`` False) and parameters that received no
gradient are skipped entirely: their values and moment buffers stay bitwise
unchanged across steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from hsiatl.autodiff import Tensor


@dataclass
class AdamState:
    """First/second moment buffers and the shared step counter."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


class Adam:
    """Bias-corrected Adam over a named parameter dict.

    Args:
        params: name -> Tensor mapping; iteration order is the update order.
        lr: base learning rate.
        beta1, beta2, eps: standard Adam constants.
        decay: decay strength; the effective rate at step t is
            lr / (1 + decay * t).
    """

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        decay: float = 0.0,
    ):
        if lr <= 0:
            raise ValueError("lr must be positive")
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.decay = decay
        self.state = AdamState()

    def effective_lr(self, t: int) -> float:
        return self.lr / (1.0 + self.decay * t)

    def step(self) -> None:
        """Apply one update to every trainable parameter with a gradient."""
        self.state.t += 1
        t = self.state.t
        lr_t = self.effective_lr(t)
        correct1 = 1.0 - self.beta1**t
        correct2 = 1.0 - self.beta2**t
        for name, p in self.params.items():
            if not p.requires_grad or p.grad is None:
                continue
            g = p.grad
            m = self.state.m.get(name)
            v = self.state.v.get(name)
            if m is None:
                m = np.zeros_like(p.data)
                v = np.zeros_like(p.data)
            m = self.beta1 * m + (1.0 - self.beta1) * g
            v = self.beta2 * v + (1.0 - self.beta2) * (g * g)
            self.state.m[name] = m
            self.state.v[name] = v
            m_hat = m / correct1
            v_hat = v / correct2
            p.data -= lr_t * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None
