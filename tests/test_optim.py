"""Adam against a straight-line reference implementation, entries that step
by exactly 0, and the inverse-time learning-rate schedule."""

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


def run_adam(theta0, grads, **settings) -> Adam:
    """An optimizer over a copy of ``theta0`` after one step per gradient."""
    opt = Adam(theta0.copy(), **settings)
    for g in grads:
        opt.zero_grad()
        opt.grad = g.copy()
        opt.step()
    return opt


class TestAdamStep:
    def test_matches_reference_over_many_steps(self):
        rng = np.random.default_rng(42)
        theta0 = rng.normal(size=12)
        grads = [rng.normal(size=12) for _ in range(25)]
        opt = run_adam(theta0, grads, lr=0.01, decay=1e-3)
        expected = reference_adam(theta0, grads, lr=0.01, decay=1e-3)
        np.testing.assert_allclose(opt.params, expected, rtol=1e-12, atol=1e-15)

    def test_first_step_moves_by_lr(self):
        # With bias correction the very first update is lr * sign(g) up to eps.
        theta = np.zeros(3)
        opt = Adam(theta, lr=0.5)
        opt.grad = np.array([1.0, -2.0, 0.5])
        opt.step()
        assert opt.params is theta  # updated in place
        np.testing.assert_allclose(theta, [-0.5, 0.5, -0.5], rtol=1e-7)

    def test_quadratic_converges_to_minimum(self):
        opt = Adam(np.array([5.0]), lr=0.1)
        x = Tensor(opt.params, requires_grad=True)
        for _ in range(500):
            # the tape accumulates straight into the vector the step reads
            opt.grad = x.grad = np.zeros(1)
            with Tape() as tape:
                loss = ad.reduce_sum(ad.mul(x, x))
            ad.backward(tape, loss)
            opt.step()
        assert abs(float(x.data[0])) < 1e-3

    def test_entries_without_gradient_step_by_exactly_zero(self):
        # frozen or untouched entries: zero gradient, so zero moments and a
        # zero step, whatever their sign
        theta0 = np.array([1.0, -0.0, 0.0, 2.0, 1.0, 2.0])
        grads = [np.array([0.0, 0.0, 0.0, 0.0, 1.0, -1.5])] * 3
        opt = run_adam(theta0, grads, lr=0.1, decay=1e-6)
        assert opt.params[:4].tobytes() == theta0[:4].tobytes()
        assert not np.signbit(opt.m[:4]).any() and not opt.m[:4].any()
        assert not np.signbit(opt.v[:4]).any() and not opt.v[:4].any()
        assert (opt.params[4:] != theta0[4:]).all()

    def test_steps_bitwise_as_the_per_tensor_rule(self):
        # The per-tensor rule copied the first half's gradient and added the
        # second, so two -0.0 halves summed to -0.0; each half accumulating
        # into a zeroed vector gives +0.0. Parameters and moments keep the
        # per-tensor rule's bytes all the same.
        rng = np.random.default_rng(3)
        theta0 = rng.normal(size=64)
        theta0[1] = -0.0
        halves = [(rng.normal(size=64), rng.normal(size=64)) for _ in range(5)]
        for first, second in halves:
            first[:4], second[:4] = -0.0, -0.0
        lr, beta1, beta2, eps, decay = 0.01, 0.9, 0.999, 1e-8, 1e-3
        theta, m, v = theta0.copy(), np.zeros(64), np.zeros(64)
        for t, (first, second) in enumerate(halves, start=1):
            g = first.copy()
            g += second
            m = beta1 * m + (1.0 - beta1) * g
            v = beta2 * v + (1.0 - beta2) * (g * g)
            lr_t = lr / (1.0 + decay * t)
            theta -= lr_t * (m / (1.0 - beta1**t)) / (np.sqrt(v / (1.0 - beta2**t)) + eps)
        assert np.signbit(g[:4]).all()

        def replica_grad(g):
            # a replica's tensor accumulates into its zeroed gradient vector
            t = Tensor(np.zeros(64), requires_grad=True)
            t.grad = np.zeros(64)
            t.accumulate(g)
            return t.grad

        opt = Adam(theta0.copy(), lr=lr, decay=decay)
        for first, second in halves:
            opt.zero_grad()
            opt.grad = replica_grad(first)  # summed as train_model sums the halves
            opt.grad += replica_grad(second)
            opt.step()
        assert not np.signbit(opt.grad[:4]).any()
        assert opt.params.tobytes() == theta.tobytes()
        assert opt.m.tobytes() == m.tobytes()
        assert opt.v.tobytes() == v.tobytes()

    def test_step_is_deterministic(self):
        def run():
            grads = [np.full(4, 0.25 * (i + 1)) for i in range(10)]
            return run_adam(np.arange(4.0), grads, lr=0.05, decay=1e-6).params.tobytes()

        assert run() == run()


class TestDecaySchedules:
    def test_effective_lr_decays_inverse_time(self):
        opt = Adam(np.zeros(0), lr=0.001, decay=1e-6)
        np.testing.assert_allclose(opt.effective_lr(1), 0.001 / (1 + 1e-6))
        np.testing.assert_allclose(opt.effective_lr(1000), 0.001 / (1 + 1e-3))

    def test_nonpositive_lr_rejected(self):
        with pytest.raises(ValueError):
            Adam(np.zeros(0), lr=0.0)
