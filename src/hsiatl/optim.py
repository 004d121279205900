"""Adam with bias correction and inverse-time learning-rate decay.

The optimizer updates one parameter vector in place from one gradient
vector of the same size. An entry whose gradient has been zero since the
optimizer was made (a frozen parameter, or one no loss reached) has zero
moments too, so its step is exactly 0 and its value keeps its bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(eq=False)
class Adam:
    """Bias-corrected Adam over one float64 parameter vector.

    Args:
        params: the vector, updated in place.
        lr: base learning rate.
        decay: decay strength; the effective rate at step t is
            lr / (1 + decay * t).

    ``grad`` is the gradient vector the next ``step`` reads, set by the
    caller; ``zero_grad`` drops it. ``m`` and ``v`` are the moment vectors,
    made by the first step, and ``t`` is the step count. ``beta1``, ``beta2``
    and ``eps`` are the standard Adam constants.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8  # class constants, not fields

    params: np.ndarray
    lr: float = 0.001
    decay: float = 0.0
    grad: np.ndarray | None = field(default=None, init=False)
    m: np.ndarray | None = field(default=None, init=False)
    v: np.ndarray | None = field(default=None, init=False)
    t: int = field(default=0, init=False)

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("lr must be positive")

    def effective_lr(self, t: int) -> float:
        return self.lr / (1.0 + self.decay * t)

    def step(self) -> None:
        """One update of the whole vector, in place, with two scratch vectors.

        Each operation rounds as in m = beta1 m + (1 - beta1) g,
        v = beta2 v + (1 - beta2) g^2 and
        p -= lr_t (m / (1 - beta1^t)) / (sqrt(v / (1 - beta2^t)) + eps).
        """
        if self.t == 0:
            self.m, self.v = np.zeros_like(self.params), np.zeros_like(self.params)
        self.t += 1
        g, m, v = self.grad, self.m, self.v
        scratch = g * g
        scratch *= 1.0 - self.beta2
        v *= self.beta2
        v += scratch
        np.multiply(g, 1.0 - self.beta1, out=scratch)
        m *= self.beta1
        m += scratch
        np.divide(m, 1.0 - self.beta1**self.t, out=scratch)
        scratch *= self.effective_lr(self.t)
        denominator = v / (1.0 - self.beta2**self.t)
        np.sqrt(denominator, out=denominator)
        denominator += self.eps
        scratch /= denominator
        self.params -= scratch

    def zero_grad(self) -> None:
        self.grad = None
