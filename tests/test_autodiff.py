"""Tensor op values against hand calculations and gradients against
central finite differences (step 1e-5, float64)."""

import numpy as np
import pytest
from conftest import layer_norm_oracle, max_relative_error, numeric_gradient

from hsiatl import autodiff as ad
from hsiatl.autodiff import GraphError, ShapeError, Tape, Tensor


def scalar_loss(graph_fn, *tensors):
    """Run graph_fn under a tape, backprop, return (value, grads)."""
    for t in tensors:
        t.grad = None
    with Tape() as tape:
        out = graph_fn(*tensors)
    ad.backward(tape, out)
    return float(out.data), [t.grad for t in tensors]


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.arange(6.0).reshape(2, 3))
        eye = Tensor(np.eye(3))
        np.testing.assert_array_equal(ad.matmul(a, eye).data, a.data)

    def test_known_product(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0], [6.0]])
        np.testing.assert_array_equal(ad.matmul(a, b).data, [[17.0], [39.0]])

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeError):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_vector_operands_rejected(self):
        with pytest.raises(ShapeError):
            ad.matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        a_val = rng.normal(size=(3, 4))
        b_val = rng.normal(size=(4, 2))
        w = rng.normal(size=(3, 2))
        a, b = Tensor(a_val.copy(), requires_grad=True), Tensor(
            b_val.copy(), requires_grad=True
        )
        _, (ga, gb) = scalar_loss(
            lambda a, b: ad.reduce_sum(ad.mul(ad.matmul(a, b), Tensor(w))), a, b
        )
        num = numeric_gradient(
            lambda av, bv: float((av @ bv * w).sum()), [a_val, b_val]
        )
        assert max_relative_error(ga, num[0]) < 1e-6
        assert max_relative_error(gb, num[1]) < 1e-6

    def test_batched_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        a_val = rng.normal(size=(2, 3, 4))
        b_val = rng.normal(size=(4, 5))
        w = rng.normal(size=(2, 3, 5))
        a = Tensor(a_val.copy(), requires_grad=True)
        b = Tensor(b_val.copy(), requires_grad=True)
        _, (ga, gb) = scalar_loss(
            lambda a, b: ad.reduce_sum(ad.mul(ad.matmul(a, b), Tensor(w))), a, b
        )
        num = numeric_gradient(
            lambda av, bv: float((av @ bv * w).sum()), [a_val, b_val]
        )
        assert max_relative_error(ga, num[0]) < 1e-6
        assert max_relative_error(gb, num[1]) < 1e-6

    @pytest.mark.parametrize("a_shape", [(5, 16, 7), (2, 3, 6, 7)])
    def test_stacked_weight_gradient_matches_per_matrix_sum(self, a_shape):
        # [..., m, k] @ [k, n]: the weight gradient is one 2-D product over all
        # stacked rows; the reference is one product per matrix, then summed
        rng = np.random.default_rng(11)
        a = Tensor(rng.normal(size=a_shape), requires_grad=True)
        b = Tensor(rng.normal(size=(7, 9)), requires_grad=True)
        w = rng.normal(size=a_shape[:-1] + (9,))
        _, (_, gb) = scalar_loss(
            lambda a, b: ad.reduce_sum(ad.mul(ad.matmul(a, b), Tensor(w))), a, b
        )
        reference = (np.swapaxes(a.data, -1, -2) @ w).reshape(-1, 7, 9).sum(axis=0)
        np.testing.assert_allclose(gb, reference, rtol=1e-12, atol=1e-12)


class TestSoftmax:
    def test_equal_logits_give_uniform(self):
        out = ad.softmax(Tensor([[0.0, 0.0], [3.0, 3.0]]))
        np.testing.assert_allclose(out.data, 0.5)

    def test_shift_invariance(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(5, 7))
        base = ad.softmax(Tensor(x)).data
        shifted = ad.softmax(Tensor(x + 123.456)).data
        np.testing.assert_allclose(shifted, base, atol=1e-12)

    def test_rows_are_distributions(self):
        rng = np.random.default_rng(0)
        out = ad.softmax(Tensor(rng.normal(size=(20, 9)) * 10)).data
        assert (out >= 0).all()
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)

    def test_extreme_logits_stay_finite(self):
        out = ad.softmax(Tensor([[1000.0, 0.0, -1000.0]])).data
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out[0, 0], 1.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x_val = rng.normal(size=(4, 6))
        w = rng.normal(size=(4, 6))
        x = Tensor(x_val.copy(), requires_grad=True)
        _, (gx,) = scalar_loss(
            lambda x: ad.reduce_sum(ad.mul(ad.softmax(x), Tensor(w))), x
        )

        def value(xv):
            e = np.exp(xv - xv.max(axis=-1, keepdims=True))
            return float((e / e.sum(axis=-1, keepdims=True) * w).sum())

        num = numeric_gradient(value, [x_val])
        assert max_relative_error(gx, num[0]) < 1e-6


class TestLayerNorm:
    def test_constant_row_maps_to_bias(self):
        gain = Tensor(np.ones(4))
        bias = Tensor(np.zeros(4))
        out = ad.layer_norm(Tensor([[5.0, 5.0, 5.0, 5.0]]), gain, bias)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-9)

    def test_output_statistics(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(10, 16)) * 3 + 7
        out = ad.layer_norm(Tensor(x), Tensor(np.ones(16)), Tensor(np.zeros(16))).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-4)

    def test_forward_bytes_equal_op_by_op_expression(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(4, 16, 56)) * 3 + 1
        gain, bias = rng.normal(size=56), rng.normal(size=56)
        eps = 1e-6
        mu = x.mean(axis=-1, keepdims=True)
        centered = x - mu
        var = (centered * centered).mean(axis=-1, keepdims=True)
        expected = centered * (1.0 / np.sqrt(var + eps)) * gain + bias
        out = ad.layer_norm(Tensor(x), Tensor(gain), Tensor(bias), eps).data
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("eps", [1e-6, 1.0])
    @pytest.mark.parametrize("frozen", [(), ("gain", "bias"), ("x",)])
    def test_rebuilt_backward_bitwise_equals_kept_normalized_input(self, eps, frozen):
        # the node rebuilds x-hat from the row mean and 1/sigma; rows 0 and
        # 5 are constant, so eps alone sets their scale
        rng = np.random.default_rng(13)
        x = rng.normal(size=(2, 6, 24)) * 3 + 1
        x[:, 0] = 5.0
        x[1, 5] = -2.5
        values = [x, rng.normal(size=24), rng.normal(size=24)]
        weight = Tensor(rng.normal(size=x.shape))
        results = []
        for fn in (ad.layer_norm, layer_norm_oracle):
            tensors = [Tensor(v.copy(), requires_grad=name not in frozen)
                       for name, v in zip(("x", "gain", "bias"), values)]
            with Tape() as tape:
                out = fn(*tensors, eps)
                loss = ad.reduce_sum(ad.mul(out, weight))
            ad.backward(tape, loss)
            results.append([out.data] + [t.grad for t in tensors])
        for got, expected in zip(*results):
            assert (got is None) == (expected is None)
            if got is not None:
                assert got.tobytes() == expected.tobytes()

    def test_node_holds_row_statistics_not_the_normalized_input(self):
        # the closure keeps x and per-row arrays only: nothing of x's size
        x = Tensor(np.random.default_rng(14).normal(size=(8, 16, 56)), requires_grad=True)
        with Tape():
            out = ad.layer_norm(x, Tensor(np.ones(56)), Tensor(np.zeros(56)))
        held = [c.cell_contents for c in out._backward.__closure__]
        arrays = [a for a in held if isinstance(a, np.ndarray)]
        assert arrays and all(a.shape == (8, 16, 1) for a in arrays)

    def test_gain_bias_shape_checked(self):
        with pytest.raises(ShapeError):
            ad.layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(4)))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        x_val = rng.normal(size=(3, 8))
        g_val = rng.normal(size=8)
        b_val = rng.normal(size=8)
        w = rng.normal(size=(3, 8))
        eps = 1e-6
        x = Tensor(x_val.copy(), requires_grad=True)
        g = Tensor(g_val.copy(), requires_grad=True)
        b = Tensor(b_val.copy(), requires_grad=True)
        _, grads = scalar_loss(
            lambda x, g, b: ad.reduce_sum(ad.mul(ad.layer_norm(x, g, b, eps), Tensor(w))),
            x,
            g,
            b,
        )

        def value(xv, gv, bv):
            mu = xv.mean(axis=-1, keepdims=True)
            var = xv.var(axis=-1, keepdims=True)
            xhat = (xv - mu) / np.sqrt(var + eps)
            return float(((xhat * gv + bv) * w).sum())

        num = numeric_gradient(value, [x_val, g_val, b_val])
        for analytic, numeric in zip(grads, num):
            assert max_relative_error(analytic, numeric) < 1e-5


class TestElementwiseOps:
    def test_relu_values(self):
        out = ad.relu(Tensor([-3.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_relu_subgradient_at_zero_is_zero(self):
        x = Tensor([0.0, -1.0, 1.0], requires_grad=True)
        _, (gx,) = scalar_loss(lambda x: ad.reduce_sum(ad.relu(x)), x)
        np.testing.assert_array_equal(gx, [0.0, 0.0, 1.0])

    def test_log_clamps_below_floor(self):
        out = ad.log(Tensor([0.0, 1.0]))
        np.testing.assert_allclose(out.data, [np.log(1e-12), 0.0])

    def test_log_gradient_zero_in_clamped_region(self):
        x = Tensor([0.0, 2.0], requires_grad=True)
        _, (gx,) = scalar_loss(lambda x: ad.reduce_sum(ad.log(x)), x)
        np.testing.assert_allclose(gx, [0.0, 0.5])

    def test_broadcast_add_gradient(self):
        rng = np.random.default_rng(5)
        x_val = rng.normal(size=(3, 4))
        b_val = rng.normal(size=4)
        x = Tensor(x_val.copy(), requires_grad=True)
        b = Tensor(b_val.copy(), requires_grad=True)
        _, (gx, gb) = scalar_loss(
            lambda x, b: ad.reduce_sum(ad.mul(ad.add(x, b), ad.add(x, b))), x, b
        )
        num = numeric_gradient(
            lambda xv, bv: float(((xv + bv) ** 2).sum()), [x_val, b_val]
        )
        assert max_relative_error(gx, num[0]) < 1e-6
        assert max_relative_error(gb, num[1]) < 1e-6

    def test_div_gradient(self):
        rng = np.random.default_rng(9)
        a_val = rng.normal(size=(4, 3))
        b_val = rng.uniform(0.5, 2.0, size=(4, 1))
        a = Tensor(a_val.copy(), requires_grad=True)
        b = Tensor(b_val.copy(), requires_grad=True)
        _, (ga, gb) = scalar_loss(lambda a, b: ad.reduce_sum(ad.div(a, b)), a, b)
        num = numeric_gradient(lambda av, bv: float((av / bv).sum()), [a_val, b_val])
        assert max_relative_error(ga, num[0]) < 1e-6
        assert max_relative_error(gb, num[1]) < 1e-6

    def test_scale_and_sub(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        _, (gx,) = scalar_loss(
            lambda x: ad.reduce_sum(ad.sub(ad.scale(x, 3.0), x)), x
        )
        np.testing.assert_allclose(gx, [2.0, 2.0])

    def test_concat_roundtrip_and_gradient(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.full((3, 2), 2.0), requires_grad=True)
        out = ad.concat([a, b], axis=0)
        assert out.shape == (5, 2)
        w = np.arange(10.0).reshape(5, 2)
        _, (ga, gb) = scalar_loss(
            lambda a, b: ad.reduce_sum(ad.mul(ad.concat([a, b], axis=0), Tensor(w))),
            a,
            b,
        )
        np.testing.assert_array_equal(ga, w[:2])
        np.testing.assert_array_equal(gb, w[2:])

    def test_transpose_gradient(self):
        rng = np.random.default_rng(2)
        x_val = rng.normal(size=(2, 3, 4))
        w = rng.normal(size=(3, 4, 2))
        x = Tensor(x_val.copy(), requires_grad=True)
        _, (gx,) = scalar_loss(
            lambda x: ad.reduce_sum(ad.mul(ad.transpose(x, (1, 2, 0)), Tensor(w))), x
        )
        num = numeric_gradient(
            lambda xv: float((np.transpose(xv, (1, 2, 0)) * w).sum()), [x_val]
        )
        assert max_relative_error(gx, num[0]) < 1e-6

    def test_reshape_gradient(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        w = np.arange(6.0).reshape(3, 2)
        _, (gx,) = scalar_loss(
            lambda x: ad.reduce_sum(ad.mul(ad.reshape(x, (3, 2)), Tensor(w))), x
        )
        np.testing.assert_array_equal(gx, w.reshape(2, 3))

    def test_reduce_sum_gradient_is_an_owned_buffer(self):
        # the broadcast view backward passes on is read-only; the gradient
        # buffer must be a copy that later contributions can add into
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        _, (gx,) = scalar_loss(
            lambda x: ad.add(ad.reduce_sum(x), ad.reduce_sum(ad.reduce_sum(x, axis=1))), x
        )
        np.testing.assert_array_equal(gx, np.full((2, 3), 2.0))
        assert gx.flags.owndata and gx.flags.writeable

    def test_reduce_mean_gradient(self):
        x = Tensor(np.arange(8.0).reshape(2, 4), requires_grad=True)
        _, (gx,) = scalar_loss(lambda x: ad.reduce_mean(x), x)
        np.testing.assert_allclose(gx, 1.0 / 8.0)

    def test_nonfinite_construction_rejected(self):
        with pytest.raises(ValueError):
            Tensor([np.nan, 1.0])


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = Tensor(np.arange(5.0))
        assert ad.dropout(x, 0.1, training=False) is x

    def test_rate_zero_is_identity(self):
        x = Tensor(np.ones(4))
        assert ad.dropout(x, 0.0, training=True, rng=np.random.default_rng(0)) is x

    def test_rate_validated(self):
        for rate in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                ad.dropout(Tensor(np.ones(3)), rate, training=True,
                           rng=np.random.default_rng(0))

    def test_training_needs_rng(self):
        with pytest.raises(ValueError):
            ad.dropout(Tensor(np.ones(3)), 0.5, training=True)

    def test_kept_entries_scaled(self):
        x = Tensor(np.ones(10000))
        out = ad.dropout(x, 0.1, training=True, rng=np.random.default_rng(42)).data
        kept = out[out != 0]
        np.testing.assert_allclose(kept, 1.0 / 0.9)
        drop_fraction = 1.0 - kept.size / out.size
        assert abs(drop_fraction - 0.1) < 0.01

    def test_deterministic_given_seed(self):
        x = Tensor(np.ones(100))
        a = ad.dropout(x, 0.3, training=True, rng=np.random.default_rng(5)).data
        b = ad.dropout(x, 0.3, training=True, rng=np.random.default_rng(5)).data
        np.testing.assert_array_equal(a, b)

    def test_gradient_uses_same_mask(self):
        x = Tensor(np.ones(1000), requires_grad=True)
        x.grad = None
        with Tape() as tape:
            out = ad.dropout(x, 0.4, training=True, rng=np.random.default_rng(3))
            loss = ad.reduce_sum(out)
        ad.backward(tape, loss)
        np.testing.assert_array_equal(x.grad, out.data)


class TestCrossEntropy:
    def test_perfect_prediction_is_zero(self):
        probs = Tensor([[1.0, 0.0], [0.0, 1.0]])
        loss = ad.cross_entropy(probs, np.array([0, 1]))
        assert float(loss.data) == 0.0

    def test_uniform_prediction_is_log_c(self):
        probs = Tensor(np.full((3, 4), 0.25))
        loss = ad.cross_entropy(probs, np.array([0, 1, 2]))
        np.testing.assert_allclose(float(loss.data), np.log(4.0), rtol=1e-12)

    def test_zero_probability_hits_clamp(self):
        probs = Tensor([[0.0, 1.0]])
        loss = ad.cross_entropy(probs, np.array([0]))
        np.testing.assert_allclose(float(loss.data), -np.log(1e-12))

    def test_rows_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ad.cross_entropy(Tensor([[0.5, 0.4]]), np.array([0]))

    def test_target_range_checked(self):
        with pytest.raises(IndexError):
            ad.cross_entropy(Tensor([[0.5, 0.5]]), np.array([2]))

    def test_integer_targets_required(self):
        with pytest.raises(TypeError):
            ad.cross_entropy(Tensor([[0.5, 0.5]]), np.array([0.0]))

    def test_softmax_composite_gradient_is_probs_minus_onehot(self):
        rng = np.random.default_rng(42)
        logits_val = rng.normal(size=(5, 3))
        targets = np.array([0, 2, 1, 1, 0])
        x = Tensor(logits_val.copy(), requires_grad=True)
        _, (gx,) = scalar_loss(
            lambda x: ad.cross_entropy(ad.softmax(x), targets), x
        )
        e = np.exp(logits_val - logits_val.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        onehot = np.eye(3)[targets]
        np.testing.assert_allclose(gx, (p - onehot) / 5.0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        logits_val = rng.normal(size=(4, 5))
        targets = np.array([1, 0, 4, 2])
        x = Tensor(logits_val.copy(), requires_grad=True)
        _, (gx,) = scalar_loss(
            lambda x: ad.cross_entropy(ad.softmax(x), targets), x
        )

        def value(xv):
            e = np.exp(xv - xv.max(axis=1, keepdims=True))
            p = e / e.sum(axis=1, keepdims=True)
            picked = p[np.arange(4), targets]
            return float(-np.log(np.maximum(picked, 1e-12)).mean())

        num = numeric_gradient(value, [logits_val])
        assert max_relative_error(gx, num[0]) < 1e-6


class TestTapeMechanics:
    def test_loss_off_tape_rejected(self):
        x = Tensor([1.0], requires_grad=True)
        with Tape() as tape:
            ad.reduce_sum(ad.mul(x, x))
        stray = ad.reduce_sum(x)
        with pytest.raises(GraphError):
            ad.backward(tape, stray)

    def test_nonscalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            out = ad.mul(x, x)
        with pytest.raises(GraphError):
            ad.backward(tape, out)

    def test_no_recording_outside_tape(self):
        x = Tensor([1.0], requires_grad=True)
        out = ad.mul(x, x)
        assert out._backward is None and not out.requires_grad

    def test_no_tape_pauses_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with Tape() as tape:
            with ad.no_tape():
                paused = ad.mul(x, x)
            resumed = ad.mul(x, x)
        assert paused._backward is None and not paused.requires_grad
        assert resumed.requires_grad and len(tape) == 1

    def test_reuse_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        _, (gx,) = scalar_loss(lambda x: ad.reduce_sum(ad.add(ad.mul(x, x), x)), x)
        np.testing.assert_allclose(gx, [7.0])

    def test_constant_subgraphs_not_tracked(self):
        x = Tensor([1.0], requires_grad=True)
        c = Tensor([2.0])
        x.grad = None
        with Tape() as tape:
            loss = ad.reduce_sum(ad.mul(x, c))
        ad.backward(tape, loss)
        assert c.grad is None
        np.testing.assert_allclose(x.grad, [2.0])

    def test_sweep_releases_intermediate_grads_and_closures(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        w = Tensor([0.5, -1.0], requires_grad=True)
        with Tape() as tape:
            hidden = ad.mul(x, w)
            loss = ad.reduce_sum(ad.scale(hidden, 3.0))
        ad.backward(tape, loss)
        assert len(tape) == 3
        assert all(t._backward is None for t in tape.records)
        assert all(t.grad is None for t in tape.records if t is not loss)
        # the loss and the leaves keep their gradients
        np.testing.assert_array_equal(loss.grad, 1.0)
        np.testing.assert_array_equal(x.grad, [1.5, -3.0])
        np.testing.assert_array_equal(w.grad, [3.0, 6.0])

    def test_second_sweep_of_a_tape_raises(self):
        x = Tensor([3.0], requires_grad=True)
        with Tape() as tape:
            loss = ad.reduce_sum(ad.mul(x, x))
        ad.backward(tape, loss)
        with pytest.raises(GraphError, match="already swept"):
            ad.backward(tape, loss)
        np.testing.assert_array_equal(x.grad, [6.0])

    def test_diamond_graph_gradient(self):
        x = Tensor([2.0], requires_grad=True)
        def fn(x):
            a = ad.mul(x, x)
            b = ad.scale(x, 3.0)
            return ad.reduce_sum(ad.mul(a, b))
        _, (gx,) = scalar_loss(fn, x)
        np.testing.assert_allclose(gx, [36.0])
