"""Adam against a straight-line reference implementation, freeze behavior,
and the inverse-time learning-rate schedule."""

import numpy as np
import pytest

from hsiatl import autodiff as ad
from hsiatl.autodiff import Tape, Tensor
from hsiatl.optim import Adam


def reference_adam(theta, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8, decay=0.0):
    """Textbook Adam with lr_t = lr / (1 + decay * t), applied step by step."""
    theta = theta.copy()
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    for t, g in enumerate(grads, start=1):
        lr_t = lr / (1.0 + decay * t)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        theta = theta - lr_t * m_hat / (np.sqrt(v_hat) + eps)
    return theta


class TestAdamStep:
    def test_matches_reference_over_many_steps(self):
        rng = np.random.default_rng(42)
        theta0 = rng.normal(size=(3, 4))
        grads = [rng.normal(size=(3, 4)) for _ in range(25)]
        p = Tensor(theta0.copy(), requires_grad=True)
        opt = Adam({"p": p}, lr=0.01, decay=1e-3)
        for g in grads:
            p.grad = g.copy()
            opt.step()
        expected = reference_adam(theta0, grads, lr=0.01, decay=1e-3)
        np.testing.assert_allclose(p.data, expected, rtol=1e-12, atol=1e-15)

    def test_first_step_moves_by_lr(self):
        # With bias correction the very first update is lr * sign(g) up to eps.
        p = Tensor(np.zeros(3), requires_grad=True)
        opt = Adam({"p": p}, lr=0.5)
        p.grad = np.array([1.0, -2.0, 0.5])
        opt.step()
        np.testing.assert_allclose(p.data, [-0.5, 0.5, -0.5], rtol=1e-7)

    def test_quadratic_converges_to_minimum(self):
        x = Tensor([5.0], requires_grad=True)
        opt = Adam({"x": x}, lr=0.1)
        for _ in range(500):
            x.grad = None
            with Tape() as tape:
                loss = ad.reduce_sum(ad.mul(x, x))
            ad.backward(tape, loss)
            opt.step()
        assert abs(float(x.data[0])) < 1e-3

    def test_frozen_parameter_bitwise_unchanged(self):
        frozen = Tensor(np.array([1.0, 2.0]), requires_grad=False)
        live = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        before = frozen.data.tobytes()
        opt = Adam({"frozen": frozen, "live": live}, lr=0.1)
        frozen.grad = np.ones(2)
        live.grad = np.ones(2)
        opt.step()
        assert frozen.data.tobytes() == before
        assert not np.array_equal(live.data, [1.0, 2.0])
        assert "frozen" not in opt.state.m

    def test_gradless_parameter_skipped(self):
        p = Tensor(np.array([3.0]), requires_grad=True)
        before = p.data.tobytes()
        opt = Adam({"p": p}, lr=0.1)
        opt.step()
        assert p.data.tobytes() == before

    def test_step_is_deterministic(self):
        def run():
            p = Tensor(np.arange(4.0), requires_grad=True)
            opt = Adam({"p": p}, lr=0.05, decay=1e-6)
            for i in range(10):
                p.grad = np.full(4, 0.25 * (i + 1))
                opt.step()
            return p.data.tobytes()

        assert run() == run()


class TestDecaySchedules:
    def test_effective_lr_decays_inverse_time(self):
        opt = Adam({}, lr=0.001, decay=1e-6)
        np.testing.assert_allclose(opt.effective_lr(1), 0.001 / (1 + 1e-6))
        np.testing.assert_allclose(opt.effective_lr(1000), 0.001 / (1 + 1e-3))

    def test_nonpositive_lr_rejected(self):
        with pytest.raises(ValueError):
            Adam({}, lr=0.0)
