"""Model operations against independent dense recomputation: a nested-loop
embedding oracle, raw-numpy attention, entropy formulas, and finite
differences through whole encoder blocks and the full classifier."""

import copy
import dataclasses
import os
import sys
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from conftest import (
    calibrated_attention_ops,
    embed_patches,
    encoder_block_ops,
    feed_forward_ops,
    forward,
    max_relative_error,
    numeric_gradient,
    self_attention_ops,
    token_uncertainty,
)

from hsiatl import autodiff as ad
from hsiatl import model as model_module
from hsiatl.autodiff import Tape, Tensor
from hsiatl.checkpoint import load_model, save_model
from hsiatl.data import DimensionError, HsiCube, extract_windows_batch
from hsiatl.model import (
    BLOCK_PARAMS,
    PixelWindows,
    SstConfig,
    SstModel,
    attention,
    calibrated_attention,
    classify,
    cross_attention_pool,
    dropout_draws,
    encode,
    encode_prefix,
    encoder_block,
    forward_batch,
    init_model,
    map_batches,
    param_spec,
    positional_encoding,
    predict_probs,
    reset_head,
    unfold,
)
from hsiatl.transfer import _token_means, freeze_plan, mmd


def tiny_config(**overrides) -> SstConfig:
    base = dict(
        bands=3,
        n_classes=3,
        window=4,
        subpatch=2,
        d_model=8,
        n_layers=2,
        n_heads=2,
        dropout=0.1,
        calibration=0.5,
    )
    base.update(overrides)
    return SstConfig(**base)


def dense_attention_oracle(q, k, v):
    scores = q @ k.T / np.sqrt(q.shape[-1])
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    weights = e / e.sum(axis=-1, keepdims=True)
    return weights @ v, weights


class TestConfig:
    def test_defaults(self):
        cfg = SstConfig(bands=100, n_classes=9)
        assert cfg.window == 8 and cfg.subpatch == 2
        assert cfg.d_model == 56 and cfg.n_heads == 8
        assert cfg.d_ff == 4 * 56
        assert cfg.n_tokens == 16

    def test_heads_must_divide_width(self):
        with pytest.raises(ValueError):
            SstConfig(bands=8, n_classes=2, d_model=54, n_heads=8)

    @pytest.mark.parametrize("field", ["d_model", "n_layers", "n_heads", "d_ff"])
    def test_counts_must_be_positive(self, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 1, got 0"):
            SstConfig(bands=8, n_classes=2, **{field: 0})

    def test_parameter_bound_counts_every_parameter(self, monkeypatch):
        fields = dict(bands=7, n_classes=5, window=4, d_model=12, n_layers=3, n_heads=3, d_ff=10)
        count = sum(int(np.prod(shape)) for shape in param_spec(SstConfig(**fields)).values())
        monkeypatch.setattr(model_module, "MAX_PARAMETERS", count)
        SstConfig(**fields)
        monkeypatch.setattr(model_module, "MAX_PARAMETERS", count - 1)
        with pytest.raises(ValueError, match=f"give {count} parameters, more than {count - 1}"):
            SstConfig(**fields)

    @pytest.mark.parametrize("fields", [
        dict(bands=7, n_classes=5, window=4, d_model=12, n_layers=3, n_heads=3, d_ff=10),
        dict(bands=16, n_classes=4),
        dict(bands=1, n_classes=2, window=2, subpatch=1, d_model=1, n_layers=1, n_heads=1),
    ])
    def test_tail_start_sums_the_sizes_before_the_block(self, fields):
        cfg = SstConfig(**fields)
        sizes = [int(np.prod(shape)) for shape in param_spec(cfg).values()]
        names = list(param_spec(cfg))
        assert cfg.tail_start(0) == 0  # the embedding trains with block 0
        for j in range(1, cfg.n_layers + 1):
            end = names.index(f"enc{j}.attn_q" if j < cfg.n_layers else "pool.class_query")
            assert cfg.tail_start(j) == sum(sizes[:end]), j

    def test_subpatch_must_divide_window(self):
        with pytest.raises(ValueError):
            SstConfig(bands=8, n_classes=2, window=8, subpatch=3)

    def test_negative_calibration_rejected(self):
        with pytest.raises(ValueError):
            SstConfig(bands=8, n_classes=2, calibration=-0.5)


class TestEmbedding:
    def test_unfold_matches_nested_loops(self):
        # oracle: token t = (u, v) collects window[u*p+m, v*p+n, q] at
        # flat position (m*p + n)*k + q
        rng = np.random.default_rng(42)
        w, p, k = 6, 2, 4
        window = rng.normal(size=(w, w, k))
        tokens = unfold(window, p)
        g = w // p
        assert tokens.shape == (g * g, p * p * k)
        for u in range(g):
            for v in range(g):
                for m in range(p):
                    for n in range(p):
                        for q in range(k):
                            expected = window[u * p + m, v * p + n, q]
                            got = tokens[u * g + v, (m * p + n) * k + q]
                            assert got == expected

    def test_embedding_equals_triple_sum(self):
        rng = np.random.default_rng(7)
        w, p, k, d = 4, 2, 3, 5
        window = rng.normal(size=(w, w, k))
        weight = rng.normal(size=(p * p * k, d))
        out = embed_patches(window, Tensor(weight), p).data
        g = w // p
        for u in range(g):
            for v in range(g):
                for col in range(d):
                    acc = 0.0
                    for m in range(p):
                        for n in range(p):
                            for q in range(k):
                                acc += (
                                    window[u * p + m, v * p + n, q]
                                    * weight[(m * p + n) * k + q, col]
                                )
                    assert abs(out[u * g + v, col] - acc) < 1e-12

    def test_zero_window_embeds_to_zero(self):
        weight = Tensor(np.random.default_rng(0).normal(size=(12, 6)))
        out = embed_patches(np.zeros((4, 4, 3)), weight, 2)
        np.testing.assert_array_equal(out.data, 0.0)

    def test_fan_in_mismatch_rejected(self):
        with pytest.raises(ValueError):
            embed_patches(np.zeros((4, 4, 3)), Tensor(np.zeros((10, 6))), 2)


class TestPositionalEncoding:
    def test_row_zero_alternates_zero_one(self):
        enc = positional_encoding(5, 8)
        np.testing.assert_array_equal(enc[0], [0, 1, 0, 1, 0, 1, 0, 1])

    def test_entry_one_zero_is_sin_one(self):
        enc = positional_encoding(4, 8)
        np.testing.assert_allclose(enc[1, 0], np.sin(1.0), rtol=1e-15)

    def test_wavelength_scaling(self):
        enc = positional_encoding(3, 8)
        np.testing.assert_allclose(enc[2, 2], np.sin(2.0 / 10000.0 ** (2.0 / 8.0)))
        np.testing.assert_allclose(enc[1, 3], np.cos(1.0 / 10000.0 ** (2.0 / 8.0)))

    def test_rows_pairwise_distinct(self):
        enc = positional_encoding(64, 4)
        for i in range(64):
            for j in range(i + 1, 64):
                assert np.abs(enc[i] - enc[j]).max() > 1e-6

    def test_values_bounded(self):
        enc = positional_encoding(100, 16)
        assert np.abs(enc).max() <= 1.0

    def test_encode_keeps_no_table_on_the_model(self):
        cfg = tiny_config()
        model = init_model(cfg, seed=1)
        forward_batch(model, unfold(np.zeros((2, 4, 4, 3)), cfg.subpatch))
        assert not hasattr(model, "positional")

    def test_windows_of_another_size_are_rejected(self):
        cfg = tiny_config()
        model = init_model(cfg, seed=1)
        wide = unfold(np.zeros((3, 2 * cfg.window, 2 * cfg.window, cfg.bands)), cfg.subpatch)
        assert wide.shape[-1] == cfg.token_dim and wide.shape[-2] != cfg.n_tokens
        with pytest.raises(DimensionError, match=f"model expects {cfg.n_tokens}"):
            forward_batch(model, wide)
        with pytest.raises(DimensionError):
            predict_probs((model,), wide)


class TestAttention:
    def test_single_key_returns_value_row(self):
        rng = np.random.default_rng(42)
        q = Tensor(rng.normal(size=(3, 4)))
        k = Tensor(rng.normal(size=(1, 4)))
        v = Tensor(rng.normal(size=(1, 4)))
        out = attention(q, k, v).data
        np.testing.assert_allclose(out, np.tile(v.data, (3, 1)), atol=1e-12)

    def test_identical_keys_average_values(self):
        rng = np.random.default_rng(1)
        q = Tensor(rng.normal(size=(2, 4)))
        k = Tensor(np.tile(rng.normal(size=(1, 4)), (5, 1)))
        v = Tensor(rng.normal(size=(5, 4)))
        out = attention(q, k, v).data
        np.testing.assert_allclose(out, np.tile(v.data.mean(axis=0), (2, 1)), atol=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        q, k, v = (rng.normal(size=(6, 4)) for _ in range(3))
        out = attention(Tensor(q), Tensor(k), Tensor(v)).data
        expected, _ = dense_attention_oracle(q, k, v)
        np.testing.assert_allclose(out, expected, atol=1e-12)


class TestTokenUncertainty:
    def test_uniform_rows_score_one(self):
        attn = np.full((2, 4, 4), 0.25)
        np.testing.assert_allclose(token_uncertainty(attn).data, 1.0, atol=1e-12)

    def test_onehot_rows_score_zero(self):
        attn = np.tile(np.eye(4)[None], (3, 1, 1))
        np.testing.assert_array_equal(token_uncertainty(attn).data, 0.0)

    def test_matches_entropy_formula(self):
        rng = np.random.default_rng(42)
        logits = rng.normal(size=(3, 5, 5)) * 2
        e = np.exp(logits)
        attn = e / e.sum(axis=-1, keepdims=True)
        got = token_uncertainty(attn).data
        expected = (-(attn * np.log(attn)).sum(axis=-1) / np.log(5)).mean(axis=0)
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_rows_must_be_distributions(self):
        with pytest.raises(ValueError):
            token_uncertainty(np.full((1, 3, 3), 0.5))

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(9)
        e = np.exp(rng.normal(size=(4, 6, 6)) * 3)
        attn = e / e.sum(axis=-1, keepdims=True)
        u = token_uncertainty(attn).data
        assert (u >= 0).all() and (u <= 1).all()


class TestCalibratedAttention:
    def test_zero_strength_is_bitwise_plain_attention(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            q, k, v = (Tensor(rng.normal(size=(5, 4))) for _ in range(3))
            plain = attention(q, k, v).data
            calibrated = calibrated_attention(q, k, v, 0.0).data
            assert plain.tobytes() == calibrated.tobytes()

    def test_onehot_rows_invariant_to_strength(self):
        # saturated logits make softmax rows exactly one-hot, so the
        # entropy boost multiplies by exactly 1.0
        q = Tensor(np.eye(3) * 1e4)
        k = Tensor(np.eye(3) * 1e4)
        v = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
        reference = calibrated_attention(q, k, v, 0.0).data.tobytes()
        for lam in (0.25, 0.5, 1.0, 5.0):
            assert calibrated_attention(q, k, v, lam).data.tobytes() == reference

    def test_matches_dense_recomputation(self):
        rng = np.random.default_rng(5)
        q, k, v = (rng.normal(size=(6, 4)) for _ in range(3))
        lam = 0.7
        out = calibrated_attention(Tensor(q), Tensor(k), Tensor(v), lam).data
        _, weights = dense_attention_oracle(q, k, v)
        entropy = -(weights * np.log(weights)).sum(axis=-1, keepdims=True) / np.log(6)
        expected = (weights * (1 + lam * entropy)) @ v
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_renormalized_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        q, k, v = (rng.normal(size=(5, 4)) for _ in range(3))
        out = calibrated_attention(
            Tensor(q), Tensor(k), Tensor(np.eye(5)), 0.9, renormalize=True
        ).data
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)

    def test_negative_strength_rejected(self):
        z = Tensor(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            calibrated_attention(z, z, z, -0.1)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        q_val = rng.normal(size=(4, 3))
        k_val = rng.normal(size=(4, 3))
        v_val = rng.normal(size=(4, 3))
        w = rng.normal(size=(4, 3))
        tensors = [Tensor(a.copy(), requires_grad=True) for a in (q_val, k_val, v_val)]
        for t in tensors:
            t.grad = None
        with Tape() as tape:
            out = calibrated_attention(*tensors, 0.6)
            loss = ad.reduce_sum(ad.mul(out, Tensor(w)))
        ad.backward(tape, loss)

        def value(qv, kv, vv):
            _, weights = dense_attention_oracle(qv, kv, vv)
            entropy = -(weights * np.log(weights)).sum(
                axis=-1, keepdims=True
            ) / np.log(4)
            return float(((weights * (1 + 0.6 * entropy)) @ vv * w).sum())

        num = numeric_gradient(value, [q_val, k_val, v_val])
        for t, n in zip(tensors, num):
            assert max_relative_error(t.grad, n) < 1e-5


class TestEncoderBlock:
    def test_output_shape_and_finiteness(self):
        cfg = tiny_config()
        model = init_model(cfg, seed=42)
        z = Tensor(np.random.default_rng(0).normal(size=(2, cfg.n_tokens, cfg.d_model)))
        out = encoder_block(z, model.block(0), cfg)
        assert out.shape == (2, cfg.n_tokens, cfg.d_model)
        assert np.isfinite(out.data).all()

    def test_zero_parameters_give_finite_output(self):
        cfg = tiny_config()
        model = init_model(cfg, seed=0)
        for t in model.parameters().values():
            t.data[...] = 0.0
        z = Tensor(np.random.default_rng(1).normal(size=(1, cfg.n_tokens, cfg.d_model)))
        out = encoder_block(z, model.block(0), cfg)
        assert np.isfinite(out.data).all()
        np.testing.assert_allclose(out.data, 0.0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        cfg = tiny_config(n_layers=1, calibration=0.5)
        model = init_model(cfg, seed=42)
        layer = model.block(0)
        rng = np.random.default_rng(2)
        z_val = rng.normal(size=(1, cfg.n_tokens, cfg.d_model))
        w = rng.normal(size=(1, cfg.n_tokens, cfg.d_model))
        z = Tensor(z_val.copy(), requires_grad=True)
        z.grad = None
        with Tape() as tape:
            loss = ad.reduce_sum(ad.mul(encoder_block(z, layer, cfg), Tensor(w)))
        ad.backward(tape, loss)

        def value(zv):
            out = encoder_block(Tensor(zv), layer, cfg)
            return float((out.data * w).sum())

        num = numeric_gradient(value, [z_val])
        assert max_relative_error(z.grad, num[0]) < 1e-4


SUBLAYER_CASES = [(0.0, False), (0.0, True), (0.5, False), (0.5, True)]

# The attention kernel is the op graph up to rounding: it takes a row's
# entropy as log Z - A/Z and scales the rows after the value product. Its
# outputs, like its gradients, must match the graph's within this share of
# the graph's largest magnitude.
ORACLE_TOL = 1e-12


def assert_close_to_oracle(got, oracle, err_msg=""):
    np.testing.assert_allclose(
        got, oracle, rtol=0, atol=ORACLE_TOL * np.abs(oracle).max(), err_msg=err_msg
    )


def weighted_sum_grads(fn, tensors, weight):
    """The output of fn(*tensors), the gradients of sum(output * weight), one
    per tensor (None where a tensor does not require them), and the number of
    records fn put on the tape."""
    for t in tensors:
        t.grad = None
    with Tape() as tape:
        out = fn(*tensors)
        n_records = len(tape)
        loss = ad.reduce_sum(ad.mul(out, Tensor(weight)))
    ad.backward(tape, loss)
    return out.data, [t.grad for t in tensors], n_records


class TestSublayerNodes:
    """The attention and feed-forward sublayers run as one tape node each;
    they must match the op-level graphs in conftest (outputs and gradients
    within ``ORACLE_TOL``), central differences, and the calibration
    identities."""

    @pytest.mark.parametrize("calibration, renormalize", SUBLAYER_CASES)
    def test_calibrated_attention_matches_op_graph(self, calibration, renormalize):
        rng = np.random.default_rng(21)
        for shape in [(5, 4), (3, 5, 4), (2, 3, 5, 4)]:
            arrays = [rng.normal(size=shape) for _ in range(3)]
            weight = rng.normal(size=shape)
            results = []
            for fn in (calibrated_attention, calibrated_attention_ops):
                tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
                results.append(weighted_sum_grads(
                    lambda q, k, v: fn(q, k, v, calibration, renormalize), tensors, weight
                ))
            (out, grads, n_records), (out_ops, grads_ops, _) = results
            assert n_records == 1
            assert_close_to_oracle(out, out_ops, err_msg=str(shape))
            for g, g_ops in zip(grads, grads_ops):
                assert_close_to_oracle(g, g_ops, err_msg=str(shape))

    @pytest.mark.parametrize("calibration, renormalize", SUBLAYER_CASES)
    def test_calibrated_attention_gradient_matches_central_differences(
        self, calibration, renormalize
    ):
        rng = np.random.default_rng(22)
        for shape in [(4, 3), (2, 4, 3), (2, 2, 4, 3)]:
            arrays = [rng.normal(size=shape) for _ in range(3)]
            weight = rng.normal(size=shape)
            tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
            _, grads, _ = weighted_sum_grads(
                lambda q, k, v: calibrated_attention(q, k, v, calibration, renormalize),
                tensors, weight,
            )

            def value(q, k, v):
                out = calibrated_attention(
                    Tensor(q), Tensor(k), Tensor(v), calibration, renormalize
                )
                return float((out.data * weight).sum())

            for g, num in zip(grads, numeric_gradient(value, arrays)):
                assert max_relative_error(g, num) < 1e-4, shape

    @pytest.mark.parametrize("shape", [(6, 4), (2, 3, 6, 4)])
    def test_renormalized_is_bitwise_plain_attention(self, shape):
        rng = np.random.default_rng(29)
        for _ in range(20):
            q, k, v = (Tensor(rng.normal(size=shape)) for _ in range(3))
            plain = attention(q, k, v).data.tobytes()
            assert calibrated_attention(q, k, v, 0.7, renormalize=True).data.tobytes() == plain

    @pytest.mark.parametrize("calibration", [0.0, 0.5])
    def test_rows_independent_of_batch_composition(self, calibration):
        # every row's output and gradients are bitwise the same whichever
        # rows share its batch
        rng = np.random.default_rng(30)
        arrays = [rng.normal(size=(7, 2, 6, 4)) for _ in range(3)]
        weight = rng.normal(size=(7, 2, 6, 4))
        cfg = tiny_config(d_model=8, n_heads=2, calibration=calibration)
        layer = init_model(cfg, seed=31).block(0)
        tokens = rng.normal(size=(7, cfg.n_tokens, cfg.d_model))

        def run(rows):
            tensors = [Tensor(a[rows], requires_grad=True) for a in arrays]
            out, grads, _ = weighted_sum_grads(
                lambda q, k, v: calibrated_attention(q, k, v, calibration), tensors, weight[rows]
            )
            block = encoder_block(Tensor(tokens[rows]), layer, cfg).data
            return [out, *grads, block]

        whole = run(slice(0, 7))
        for bounds in ((0, 1, 4, 7), (0, 3, 7), (0, 2, 4, 6, 7)):
            parts = [run(slice(a, b)) for a, b in zip(bounds, bounds[1:])]
            for got, expected in zip(zip(*parts), whole):
                assert np.concatenate(got).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("renormalize", [False, True])
    def test_zero_strength_is_bitwise_plain_attention(self, renormalize):
        rng = np.random.default_rng(23)
        for _ in range(20):
            q, k, v = (Tensor(rng.normal(size=(3, 6, 4))) for _ in range(3))
            plain = attention(q, k, v).data.tobytes()
            assert calibrated_attention(q, k, v, 0.0, renormalize).data.tobytes() == plain

    @pytest.mark.parametrize("renormalize", [False, True])
    def test_onehot_rows_invariant_to_strength(self, renormalize):
        q = Tensor(np.eye(4)[None] * 1e4)
        k = Tensor(np.eye(4)[None] * 1e4)
        v = Tensor(np.random.default_rng(24).normal(size=(1, 4, 3)))
        reference = attention(q, k, v).data.tobytes()
        for lam in (0.25, 0.5, 5.0):
            assert calibrated_attention(q, k, v, lam, renormalize).data.tobytes() == reference

    @pytest.mark.parametrize("calibration, renormalize", SUBLAYER_CASES)
    @pytest.mark.parametrize("frozen", [(), ("z",), ("attn_q", "attn_k", "ff_w1", "ff_b1"),
                                        ("z", "attn_q", "attn_k", "attn_v", "ff_w1", "ff_b1")])
    def test_encoder_block_matches_op_graph(self, calibration, renormalize, frozen):
        cfg = tiny_config(d_model=8, n_heads=2, calibration=calibration,
                          renormalize=renormalize, dropout=0.2)
        layer = init_model(cfg, seed=25).block(0)
        rng = np.random.default_rng(26)
        z_val = rng.normal(size=(3, cfg.n_tokens, cfg.d_model))
        weight = rng.normal(size=z_val.shape)
        names = ["z", *BLOCK_PARAMS]
        results = []
        # the op graph draws its masks from the generator as dropout_draws does
        draws = {encoder_block: lambda: iter(dropout_draws(cfg, 3, np.random.default_rng(27))),
                 encoder_block_ops: lambda: np.random.default_rng(27)}
        for fn, draw in draws.items():
            z = Tensor(z_val.copy(), requires_grad="z" not in frozen)
            for name in names[1:]:
                layer[name].requires_grad = name not in frozen
            tensors = [z] + [layer[name] for name in names[1:]]
            block = lambda z, *_: fn(z, layer, cfg, True, draw())
            results.append(weighted_sum_grads(block, tensors, weight))
        (out, grads, n_records), (out_ops, grads_ops, _) = results
        assert n_records == 3  # two sublayer nodes (LN1 opens the second), then LN2
        assert_close_to_oracle(out, out_ops)
        for name, g, g_ops in zip(names, grads, grads_ops):
            assert (g is None) == (name in frozen), name
            if g is not None:
                assert_close_to_oracle(g, g_ops, err_msg=name)

    @staticmethod
    def sublayer_results(node, ops, names, frozen, training):
        """(output, gradients, record count) of a sublayer node and of its op
        graph, on one training or evaluation input with dropout 0.2; both
        draw their keep masks from generators in the same state."""
        cfg = tiny_config(d_model=8, n_heads=2, dropout=0.2)
        layer = init_model(cfg, seed=32).block(0)
        rng = np.random.default_rng(33)
        z_val = rng.normal(size=(3, cfg.n_tokens, cfg.d_model))
        weight = rng.normal(size=z_val.shape)
        draw = lambda: np.random.default_rng(34)
        keep = model_module._keep_mask(z_val.shape, cfg, training,
                                       iter(dropout_draws(cfg, 3, draw())))
        runs = (lambda z: node(z, layer, cfg, keep),
                lambda z: ops(z, layer, cfg, training, draw()))
        results = []
        for fn in runs:
            z = Tensor(z_val.copy(), requires_grad="z" not in frozen)
            for name in names[1:]:
                layer[name].requires_grad = name not in frozen
            tensors = [z] + [layer[name] for name in names[1:]]
            results.append(weighted_sum_grads(lambda z, *_: fn(z), tensors, weight))
        return results

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("frozen", [(), ("z",), ("ff_w1", "ff_b1"), ("z", "ff_w2"),
                                        ("ln1_gain",), ("z", "ln1_gain", "ln1_bias")])
    def test_feed_forward_node_bitwise_equals_op_graph(self, training, frozen):
        # LN1, dropout and the residual add included: the node rebuilds z and
        # the op graph's float keep factor, so even signed zeros keep their bits
        names = ["z", "ln1_gain", "ln1_bias", "ff_w1", "ff_b1", "ff_w2", "ff_b2"]
        results = self.sublayer_results(
            model_module._feed_forward, feed_forward_ops, names, frozen, training
        )
        (out, grads, n_records), (out_ops, grads_ops, _) = results
        assert n_records == 1
        assert out.tobytes() == out_ops.tobytes()
        for name, g, g_ops in zip(names, grads, grads_ops):
            assert (g is None) == (name in frozen), name
            if g is not None:
                assert g.tobytes() == g_ops.tobytes(), name

    @pytest.mark.parametrize("training", [True, False])
    @pytest.mark.parametrize("frozen", [(), ("z",), ("attn_q", "attn_out")])
    def test_attention_node_matches_op_graph(self, training, frozen):
        names = ["z", "attn_q", "attn_k", "attn_v", "attn_out"]
        results = self.sublayer_results(
            model_module._self_attention, self_attention_ops, names, frozen, training
        )
        (out, grads, n_records), (out_ops, grads_ops, _) = results
        assert n_records == 1
        assert_close_to_oracle(out, out_ops)
        for name, g, g_ops in zip(names, grads, grads_ops):
            assert (g is None) == (name in frozen), name
            if g is not None:
                assert_close_to_oracle(g, g_ops, err_msg=name)

    @pytest.mark.parametrize("calibration, renormalize", SUBLAYER_CASES)
    def test_backward_rebuilds_the_forward_heads_bitwise(self, calibration, renormalize):
        rng = np.random.default_rng(37)
        z = rng.normal(size=(5, 16, 56))
        # contiguous arrays, and head-split views as _self_attention passes
        split = [(z @ rng.normal(size=(56, 56))).reshape(5, 16, 8, 7).transpose(0, 2, 1, 3)
                 for _ in range(3)]
        # callers hand renormalized rows to the kernel as calibration 0
        calibration = 0.0 if renormalize else calibration
        for q, k, v in ([rng.normal(size=(3, 6, 4)) for _ in range(3)], split):
            heads = model_module._attend((q, k, v).__getitem__, calibration)
            g = rng.normal(size=heads.shape)
            *_, rebuilt = model_module._attend_back(g, q, k, v, calibration)
            assert rebuilt.tobytes() == heads.tobytes()

    def test_eval_attention_holds_two_score_arrays_at_most(self):
        # q and k go once the scores exist and the scores' buffer before v is
        # made: one default-config batch of 64 peaks near 2.3 MiB above its
        # input; holding q, k and v beside two score arrays took 4.0 MiB
        cfg = SstConfig(bands=16, n_classes=4)
        block = init_model(cfg, seed=0).block(0)
        z = Tensor(np.random.default_rng(0).normal(size=(64, cfg.n_tokens, cfg.d_model)))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            model_module._self_attention(z, block, cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 3 << 20, peak

    def test_training_half_step_peaks_below_six_mib(self):
        # one default-size half step of 28 windows, tape and backward: LN1
        # inside the feed-forward node and the attention backward a tile of
        # windows at a time peak near 5.6 MiB; a fourth record per block and
        # the whole batch's scores at once peaked at 7.7 MiB
        cfg = SstConfig(bands=16, n_classes=4)
        model = init_model(cfg, seed=0).replica()
        rng = np.random.default_rng(0)
        features = rng.normal(size=(28, cfg.n_tokens, cfg.token_dim))
        targets = rng.integers(0, cfg.n_classes, size=28)
        masks = dropout_draws(cfg, 28, rng)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                probs = forward_batch(model, features, True, iter(masks))
                loss = ad.cross_entropy(probs, targets)
            ad.backward(tape, loss)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 6.0 * 2**20, peak

    def test_training_records_three_entries_per_block(self):
        # the attention node, the feed-forward node that LN1 opens, and LN2
        lengths = []
        for n_layers in (1, 2, 3):
            cfg = tiny_config(n_layers=n_layers)
            model = init_model(cfg, seed=40)
            features = np.random.default_rng(41).normal(size=(2, cfg.n_tokens, cfg.token_dim))
            with Tape() as tape:
                masks = dropout_draws(cfg, 2, np.random.default_rng(42))
                forward_batch(model, features, True, iter(masks))
            lengths.append(len(tape))
        assert np.diff(lengths).tolist() == [3, 3]

    @pytest.mark.parametrize("tile", [1, 3, 7])
    def test_attention_backward_tiles_keep_every_bit(self, monkeypatch, tile):
        # rows do not interact, so any tile gives the whole batch's gradients
        cfg = tiny_config(dropout=0.2)
        layer = init_model(cfg, seed=42).block(0)
        rng = np.random.default_rng(43)
        z_val = rng.normal(size=(7, cfg.n_tokens, cfg.d_model))
        weight = rng.normal(size=z_val.shape)
        keep = rng.random(z_val.shape) >= cfg.dropout
        names = ["attn_q", "attn_k", "attn_v", "attn_out"]
        results = []
        for size in (7, tile):
            monkeypatch.setattr(model_module, "ATTEND_BACK_TILE", size)
            tensors = [Tensor(z_val.copy(), requires_grad=True)] + [layer[n] for n in names]
            node = lambda z, *_: model_module._self_attention(z, layer, cfg, keep)
            out, grads, _ = weighted_sum_grads(node, tensors, weight)
            results.append([out, *grads])
        for whole, tiled in zip(*results):
            assert tiled.tobytes() == whole.tobytes()

    @pytest.mark.parametrize("node", [model_module._self_attention, model_module._feed_forward])
    def test_nodes_hold_their_input_and_bool_mask_only(self, node):
        # every float array the backward needs is rebuilt from z
        cfg = tiny_config()
        rng = np.random.default_rng(38)
        z = Tensor(rng.normal(size=(3, cfg.n_tokens, cfg.d_model)), requires_grad=True)
        keep = rng.random(z.shape) >= cfg.dropout
        with Tape():
            out = node(z, init_model(cfg, seed=39).block(0), cfg, keep)

        def held(value, seen):
            if id(value) in seen:
                return []
            seen.add(id(value))
            if isinstance(value, np.ndarray):
                return [value]
            if isinstance(value, (tuple, list)):
                return [a for item in value for a in held(item, seen)]
            cells = getattr(value, "__closure__", None) or ()
            return [a for cell in cells for a in held(cell.cell_contents, seen)]

        arrays = held(out._backward, set())
        assert len(arrays) == 1 and arrays[0] is keep

    def test_dropped_share_keeps_the_op_graphs_signed_zeros(self):
        # Column 0 is dropped in every row and its upstream gradient is
        # negative, so the op graph hands the sublayer -0.0 there. numpy's
        # sums and BLAS products start from +0.0, so no parameter gradient of
        # a node can show that sign: the share is compared before any sum.
        # It is scaled in place on the upstream gradient.
        cfg = tiny_config(dropout=0.2)
        rng = np.random.default_rng(35)
        upstream = rng.normal(size=(3, cfg.n_tokens, cfg.d_model))
        upstream[..., 0] = -np.abs(upstream[..., 0])
        keep = rng.random(upstream.shape) >= cfg.dropout
        keep[..., 0] = False

        class KeepDraws:
            def random(self, shape):
                return np.where(keep, 1.0, 0.0)

        x = Tensor(np.zeros(upstream.shape), requires_grad=True)
        _, (expected,), _ = weighted_sum_grads(
            lambda x: ad.dropout(x, cfg.dropout, True, KeepDraws()), [x], upstream
        )
        g = upstream.copy()
        share = model_module._inverted_dropout(g, keep, cfg.dropout)
        assert np.signbit(expected[..., 0]).all() and not expected[..., 0].any()
        assert share is g and share.tobytes() == expected.tobytes()

    def test_keep_masks_are_row_views_taken_in_order(self):
        cfg = tiny_config(dropout=0.2)
        masks = dropout_draws(cfg, 5, np.random.default_rng(36))
        shape = (2, cfg.n_tokens, cfg.d_model)
        rows = (mask[3:5] for mask in masks)
        assert model_module._keep_mask(shape, cfg, False, rows) is None
        for mask in masks:
            part = model_module._keep_mask(shape, cfg, True, rows)
            assert part.base is mask and np.array_equal(part, mask[3:5])
        # used up, absent, or of other rows: training with dropout raises
        for wrong in (rows, None, (mask[0:3] for mask in masks)):
            with pytest.raises(ValueError, match="needs a keep mask of shape"):
                model_module._keep_mask(shape, cfg, True, wrong)
        feats = np.zeros((2, cfg.n_tokens, cfg.token_dim))
        with pytest.raises(ValueError, match="needs a keep mask"):
            forward_batch(init_model(cfg), feats, training=True)


class TestPoolAndHead:
    def test_single_token_pool_returns_its_projection(self):
        cfg = tiny_config()
        model = init_model(cfg, seed=42)
        z_val = np.random.default_rng(3).normal(size=(1, 1, cfg.d_model))
        pooled = cross_attention_pool(Tensor(z_val), model).data[:, 0]
        np.testing.assert_allclose(pooled, z_val[:, 0] @ model.params["pool.v"].data, atol=1e-12)

    def test_pool_matches_dense_recomputation(self):
        cfg = tiny_config()
        model = init_model(cfg, seed=4)
        z_val = np.random.default_rng(5).normal(size=(2, cfg.n_tokens, cfg.d_model))
        got = cross_attention_pool(Tensor(z_val), model).data[:, 0]
        for b in range(2):
            keys = z_val[b] @ model.params["pool.k"].data
            values = z_val[b] @ model.params["pool.v"].data
            scores = (model.params["pool.class_query"].data @ keys.T) / np.sqrt(cfg.d_model)
            e = np.exp(scores - scores.max())
            weights = e / e.sum()
            np.testing.assert_allclose(got[b], (weights @ values)[0], atol=1e-12)

    def test_zero_model_classifies_uniformly(self):
        cfg = tiny_config()
        model = init_model(cfg, seed=0)
        for t in model.parameters().values():
            t.data[...] = 0.0
        probs = classify(Tensor(np.zeros((4, 1, cfg.d_model))), model).data
        np.testing.assert_allclose(probs, 1.0 / cfg.n_classes)

    def test_shifting_output_bias_preserves_ranking(self):
        cfg = tiny_config()
        model = init_model(cfg, seed=6)
        pooled = Tensor(np.random.default_rng(7).normal(size=(3, 1, cfg.d_model)))
        before = classify(pooled, model).data.argmax(axis=1)
        model.params["head.b2"].data += 5.0
        after = classify(pooled, model).data.argmax(axis=1)
        np.testing.assert_array_equal(before, after)


class TestForward:
    def test_probabilities_valid(self):
        cfg = tiny_config()
        model = init_model(cfg, seed=42)
        window = np.random.default_rng(0).normal(size=(4, 4, 3))
        probs = forward(model, window)
        assert probs.shape == (3,)
        assert (probs >= 0).all()
        np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-9)

    def test_window_shape_checked(self):
        model = init_model(tiny_config(), seed=1)
        with pytest.raises(ValueError):
            forward(model, np.zeros((6, 6, 3)))

    def test_eval_mode_bitwise_deterministic(self):
        cfg = tiny_config()
        model = init_model(cfg, seed=42)
        window = np.random.default_rng(1).normal(size=(4, 4, 3))
        a = forward(model, window).tobytes()
        b = forward(model, window).tobytes()
        assert a == b

    def test_batch_agrees_with_single(self):
        cfg = tiny_config()
        model = init_model(cfg, seed=9)
        rng = np.random.default_rng(2)
        windows = rng.normal(size=(5, 4, 4, 3))
        batch = forward_batch(model, unfold(windows, cfg.subpatch)).data
        for i in range(5):
            single = forward(model, windows[i])
            np.testing.assert_allclose(batch[i], single, atol=1e-12)

    def test_predict_probs_chunks_consistently(self, monkeypatch):
        cfg = tiny_config()
        model = init_model(cfg, seed=10)
        rng = np.random.default_rng(3)
        feats = unfold(rng.normal(size=(7, 4, 4, 3)), cfg.subpatch)
        monkeypatch.setattr(model_module, "EVAL_BATCH", 512)
        whole = predict_probs((model,), feats)[0]
        monkeypatch.setattr(model_module, "EVAL_BATCH", 2)
        chunked = predict_probs((model,), feats)[0]
        np.testing.assert_array_equal(whole, chunked)

    def test_head_permutation_covariance(self):
        # permuting attention heads together with the matching row blocks
        # of the output projection cannot change the forward result
        cfg = tiny_config(n_layers=1, n_heads=2)
        rng = np.random.default_rng(11)
        window = rng.normal(size=(4, 4, 3))
        base = init_model(cfg, seed=21)
        permuted = init_model(cfg, seed=21)
        d_k = cfg.d_model // cfg.n_heads
        perm = np.array([1, 0])
        cols = np.concatenate([np.arange(h * d_k, (h + 1) * d_k) for h in perm])
        params = permuted.params
        for name in ("enc0.attn_q", "enc0.attn_k", "enc0.attn_v"):
            params[name].data[...] = params[name].data[:, cols]
        params["enc0.attn_out"].data[...] = params["enc0.attn_out"].data[cols, :]
        np.testing.assert_allclose(
            forward(permuted, window),
            forward(base, window),
            atol=1e-10,
        )

    def test_full_model_gradient_matches_finite_differences(self):
        cfg = tiny_config(n_layers=1, d_model=4, n_heads=2, d_ff=8)
        model = init_model(cfg, seed=42)
        rng = np.random.default_rng(4)
        feats = unfold(rng.normal(size=(2, 4, 4, 3)), cfg.subpatch)
        targets = np.array([0, 2])
        params = model.parameters()
        for p in params.values():
            p.grad = None
        with Tape() as tape:
            loss = ad.cross_entropy(forward_batch(model, feats), targets)
        ad.backward(tape, loss)

        def value(*arrays):
            probs = forward_batch(model, feats).data
            picked = probs[np.arange(2), targets]
            return float(-np.log(np.maximum(picked, 1e-12)).mean())

        arrays = [p.data for p in params.values()]
        num = numeric_gradient(value, arrays)
        for (name, p), n in zip(params.items(), num):
            assert p.grad is not None, name
            assert max_relative_error(p.grad, n) < 1e-4, name

    def test_every_parameter_receives_gradient(self):
        cfg = tiny_config()
        model = init_model(cfg, seed=5)
        feats = unfold(np.random.default_rng(6).normal(size=(3, 4, 4, 3)), 2)
        with Tape() as tape:
            loss = ad.cross_entropy(forward_batch(model, feats), np.array([0, 1, 2]))
        ad.backward(tape, loss)
        for name, p in model.parameters().items():
            assert p.grad is not None, name
            assert np.isfinite(p.grad).all(), name

    def test_frozen_groups_receive_no_gradient(self):
        cfg = tiny_config()
        model = init_model(cfg, seed=5)
        model.freeze["enc0"] = True
        model.freeze["embed"] = True
        model.apply_freeze()
        feats = unfold(np.random.default_rng(6).normal(size=(2, 4, 4, 3)), 2)
        with Tape() as tape:
            loss = ad.cross_entropy(forward_batch(model, feats), np.array([0, 1]))
        ad.backward(tape, loss)
        for name, p in model.parameters().items():
            group = model.group_of(name)
            if group in ("enc0", "embed"):
                assert p.grad is None, name
            else:
                assert p.grad is not None, name


class TestHeadReset:
    def test_reset_replaces_only_output_projection(self):
        cfg = tiny_config()
        model = init_model(cfg, seed=42)
        w1_before = model.params["head.w1"].data.copy()
        reset_head(model, 5, seed=1)
        assert model.config.n_classes == 5
        assert model.params["head.w2"].shape == (cfg.d_model, 5)
        np.testing.assert_array_equal(model.params["head.w1"].data, w1_before)
        probs = forward(model, np.zeros((4, 4, 3)))
        assert probs.shape == (5,)


class TestParameterVector:
    """Every tensor of a model is a view of the model's one vector."""

    @staticmethod
    def assert_views(model: SstModel) -> None:
        arrays = [t.data for t in model.params.values()]
        assert all(np.shares_memory(data, model.vector) for data in arrays)
        assert sum(data.size for data in arrays) == model.vector.size == model.config.n_parameters
        assert np.concatenate([data.ravel() for data in arrays]).tobytes() == model.vector.tobytes()

    def test_every_way_to_make_a_model_gives_views(self, tmp_path):
        model = init_model(tiny_config(n_layers=2), seed=3)
        self.assert_views(model)
        save_model(model, tmp_path / "model.sstc")
        self.assert_views(load_model(tmp_path / "model.sstc"))

        replica = model.replica()
        self.assert_views(replica)
        assert replica.vector is model.vector
        assert all(np.shares_memory(t.grad, replica.grad) for t in replica.params.values())
        assert not replica.grad.any() and not np.shares_memory(replica.grad, model.vector)

        copied = copy.deepcopy(model)
        self.assert_views(copied)
        assert copied.vector.tobytes() == model.vector.tobytes()
        assert not np.shares_memory(copied.vector, model.vector)
        assert copied.freeze == model.freeze and copied.freeze is not model.freeze

        before = model.vector
        reset_head(model, 5, seed=1)
        self.assert_views(model)
        assert not np.shares_memory(model.vector, before)

    def test_a_tail_replica_has_gradients_for_the_tail_only(self):
        model = init_model(tiny_config(n_layers=2), seed=3)
        start = model.config.tail_start(1)
        replica = model.replica(start)
        assert replica.vector is model.vector
        assert replica.grad.shape == (model.config.n_parameters - start,)
        assert not replica.grad.any()
        for name, tensor in replica.params.items():
            if model.group_of(name) in ("embed", "enc0"):
                assert tensor.grad is None, name
            else:
                assert np.shares_memory(tensor.grad, replica.grad), name
        tail = [t.grad.ravel() for t in replica.params.values() if t.grad is not None]
        assert sum(g.size for g in tail) == replica.grad.size
        replica.grad[:] = np.arange(replica.grad.size)
        assert np.concatenate(tail).tobytes() == replica.grad.tobytes()

    def test_a_start_inside_a_tensor_is_rejected(self):
        model = init_model(tiny_config(), seed=3)
        with pytest.raises(ValueError, match="entry 1 does not begin a parameter tensor"):
            model.replica(1)

    def test_a_vector_of_another_size_is_rejected(self):
        cfg = tiny_config()
        with pytest.raises(ValueError, match=f"{cfg.n_parameters} parameters cannot view"):
            SstModel(cfg, np.zeros(cfg.n_parameters + 1))


class TestParallelEvaluation:
    """Threaded batched evaluation against the serial, unbatched result."""

    @staticmethod
    def problem(n=130, seed=4):
        # full-width layers: single-row products take a different BLAS
        # kernel at this size, which tiny models never reach
        cfg = SstConfig(bands=16, n_classes=4, n_layers=2)
        model = init_model(cfg, seed=seed)
        windows = np.random.default_rng(seed).normal(size=(n, 8, 8, 16))
        return model, unfold(windows, cfg.subpatch)

    @staticmethod
    def force_cpus(monkeypatch, n):
        monkeypatch.setattr(model_module, "_cpu_count", lambda: n)

    @staticmethod
    def probs(monkeypatch, model, feats, batch_size):
        """``model``'s probabilities from an evaluation pass in batches of
        ``batch_size``."""
        monkeypatch.setattr(model_module, "EVAL_BATCH", batch_size)
        return predict_probs((model,), feats)[0]

    def test_bitwise_equal_across_batch_sizes_and_pool_widths(self, monkeypatch):
        model, feats = self.problem()
        self.force_cpus(monkeypatch, 1)
        reference = self.probs(monkeypatch, model, feats, len(feats))
        assert reference.shape == (len(feats), 4)
        # frequent thread switches, and more threads than cores, give any
        # state shared between workers the chance to show up in the output
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for width in (1, 2, 4):
                self.force_cpus(monkeypatch, width)
                for batch_size in (1, 3, 64, 512):
                    probs = self.probs(monkeypatch, model, feats, batch_size)
                    assert probs.tobytes() == reference.tobytes(), (width, batch_size)
        finally:
            sys.setswitchinterval(interval)

    def test_workers_keep_callers_errstate(self, monkeypatch):
        feats = np.full((4, 1), 1e300)
        for width in (1, 2):
            self.force_cpus(monkeypatch, width)
            with np.errstate(over="raise"), pytest.raises(FloatingPointError):
                map_batches(lambda rows, batch: batch * batch, feats, batch_size=2)

    def test_cpu_count_falls_back_without_affinity(self, monkeypatch):
        assert model_module._cpu_count() >= 1
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert model_module._cpu_count() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert model_module._cpu_count() == 1

    def test_empty_input_gives_empty_rows(self, monkeypatch):
        model, feats = self.problem(n=2)
        for width in (1, 2):
            self.force_cpus(monkeypatch, width)
            assert predict_probs((model,), feats[:0])[0].shape == (0, 4)

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_batch_size_below_one_rejected(self, monkeypatch, batch_size):
        model, feats = self.problem(n=2)
        with pytest.raises(ValueError, match=f"got {batch_size}"):
            self.probs(monkeypatch, model, feats, batch_size)

    def test_nonfinite_later_batch_raises_from_worker(self, monkeypatch):
        model, feats = self.problem()
        feats = feats.copy()
        feats[100, 0, 0] = np.nan
        messages = []
        for width in (1, 2):
            self.force_cpus(monkeypatch, width)
            with pytest.raises(ValueError) as err:
                self.probs(monkeypatch, model, feats, 16)
            messages.append(str(err.value))
        assert messages[0] == messages[1] == "tensor values must be finite"

    @pytest.mark.parametrize("width,n", [(1, 130), (2, 130), (2, 10)])
    def test_nothing_recorded_on_an_active_tape(self, monkeypatch, width, n):
        model, feats = self.problem(n=n)
        self.force_cpus(monkeypatch, width)
        with Tape() as tape:
            (probs,) = predict_probs((model,), feats)
        assert len(tape) == 0
        assert probs.shape == (n, 4)

    def test_freeze_plan_on_chunked_capture_matches_whole(self, monkeypatch):
        model, feats = self.problem(n=150)
        # 129 rows leave a one-row last batch
        source, target = feats[:129], feats[20:] * 1.5
        _, source_caps = encode(model, source, capture=True)
        _, target_caps = encode(model, target, capture=True)
        whole = [
            mmd(s.mean(axis=1), t.mean(axis=1))
            for s, t in zip(source_caps, target_caps)
        ]
        for width in (1, 2):
            self.force_cpus(monkeypatch, width)
            plan = freeze_plan(model, source, target, 0.5)
            assert plan.layer_mmd == whole
            assert plan.frozen == [int(np.argmin(whole))]

    def test_lazy_source_bitwise_equal_to_array(self, monkeypatch):
        cfg = SstConfig(bands=16, n_classes=4, n_layers=2)
        model = init_model(cfg, seed=6)
        rng = np.random.default_rng(6)
        cube = HsiCube(rng.normal(size=(12, 15, 16)))
        pixels = rng.permutation(12 * 15)[:130]
        feats = unfold(extract_windows_batch(cube, pixels, cfg.window), cfg.subpatch)
        windows = PixelWindows(cube, pixels, cfg.window, cfg.subpatch)
        assert len(windows) == 130
        self.force_cpus(monkeypatch, 1)
        reference = self.probs(monkeypatch, model, feats, len(feats))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for width in (1, 2, 4):
                self.force_cpus(monkeypatch, width)
                for batch_size in (1, 3, 64):
                    probs = self.probs(monkeypatch, model, windows, batch_size)
                    assert probs.tobytes() == reference.tobytes(), (width, batch_size)
        finally:
            sys.setswitchinterval(interval)

    def test_no_more_gathered_batches_than_workers(self, monkeypatch):
        class CountingSource:
            """Rows 0..n-1; counts the slices alive at any one time."""

            def __init__(self, n):
                self.n, self.live, self.most = n, 0, 0
                self.lock = threading.Lock()

            def __len__(self):
                return self.n

            def __getitem__(self, rows):
                batch = np.arange(self.n, dtype=np.float64)[rows]
                with self.lock:
                    self.live += 1
                    self.most = max(self.most, self.live)
                weakref.finalize(batch, self.release)
                return batch

            def release(self):
                with self.lock:
                    self.live -= 1

        def slow_sum(rows, batch):
            time.sleep(0.002)
            return batch.sum()

        for width in (1, 2, 4):
            self.force_cpus(monkeypatch, width)
            source = CountingSource(200)
            sums = map_batches(slow_sum, source, batch_size=8)
            assert sum(sums) == sum(range(200))
            assert source.live == 0
            assert 1 <= source.most <= width, (width, source.most)

    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_calling_thread_runs_the_first_batch_of_each_round(self, monkeypatch, width):
        self.force_cpus(monkeypatch, width)
        threads = {}

        def record(rows, batch):
            threads[rows.start // 8] = threading.get_ident()
            time.sleep(0.001)
            return int(batch.sum())

        sums = map_batches(record, np.arange(80), batch_size=8)
        assert sums == [sum(range(s, s + 8)) for s in range(0, 80, 8)]
        caller = threading.get_ident()
        ran_here = [i for i, thread in sorted(threads.items()) if thread == caller]
        assert ran_here == list(range(0, 10, width))
        assert len(set(threads.values()) - {caller}) <= width - 1

    @pytest.mark.parametrize("failing, raised", [((1, 2), 1), ((0, 3), 0)])
    def test_first_failing_batch_is_raised_once_its_round_is_done(
        self, monkeypatch, failing, raised
    ):
        # batch 2 fails before batch 1 does, and batch 3 finishes last
        self.force_cpus(monkeypatch, 4)
        delays = {1: 0.02, 3: 0.05}
        started, finished = set(), set()

        def run(rows, batch):
            started.add(rows.start)
            time.sleep(delays.get(rows.start, 0.0))
            finished.add(rows.start)
            if rows.start in failing:
                raise ValueError(rows.start)

        with pytest.raises(ValueError) as err:
            map_batches(run, np.arange(8), batch_size=1)
        assert err.value.args == (raised,)
        assert started == finished == {0, 1, 2, 3}  # the next round never began

    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_batches_see_no_tape_and_the_callers_comes_back(self, monkeypatch, width):
        self.force_cpus(monkeypatch, width)
        seen = []

        def run(rows, batch):
            seen.append(ad._current_tape())
            if rows.start == 0:
                raise ValueError("the calling thread's batch fails")

        with Tape() as tape:
            with pytest.raises(ValueError):
                map_batches(run, np.arange(8), batch_size=2)
            assert ad._current_tape() is tape
            map_batches(lambda rows, batch: seen.append(ad._current_tape()), np.arange(8), 2)
            assert ad._current_tape() is tape
        assert len(seen) >= 5 and all(t is None for t in seen)

    def test_window_gathers_stay_on_the_calling_thread(self, monkeypatch):
        # perfbench's tracer keeps one span stack per process, so a gather
        # on a worker would overlap other threads' spans
        cfg = SstConfig(bands=16, n_classes=4, n_layers=2)
        model = init_model(cfg, seed=6)
        cube = HsiCube(np.random.default_rng(6).normal(size=(12, 15, 16)))
        windows = PixelWindows(cube, np.arange(150), cfg.window, cfg.subpatch)
        gathers = []
        gather = PixelWindows.__getitem__

        def spy(self, rows):
            gathers.append(threading.get_ident())
            return gather(self, rows)

        monkeypatch.setattr(PixelWindows, "__getitem__", spy)
        self.force_cpus(monkeypatch, 2)
        for run in (
            lambda: predict_probs((model,), windows),
            lambda: encode_prefix(model, windows, 1),
            lambda: _token_means(model, windows),
        ):
            gathers.clear()
            run()
            assert len(gathers) == 3  # batches of 64, 64 and 22 windows
            assert set(gathers) == {threading.get_ident()}


class TestEncodeFromBlock:
    """Tokens cached after the first j blocks continue to the same bytes."""

    @staticmethod
    def tuned_copy(model, j: int, seed: int = 9):
        """A copy of ``model`` whose blocks from ``j`` on, pool and head moved,
        as fine-tuning under a plan that freezes the first j blocks leaves it."""
        tuned = copy.deepcopy(model)
        rng = np.random.default_rng(seed)
        for name, tensor in tuned.parameters().items():
            group = tuned.group_of(name)
            if group == "head" or (group.startswith("enc") and int(group[3:]) >= j):
                tensor.data += rng.normal(scale=0.05, size=tensor.shape)
        return tuned

    @pytest.mark.parametrize("n", [65, 129])  # a one-row last batch of 64
    def test_cached_tokens_continue_to_the_full_pass(self, monkeypatch, n):
        model, feats = TestParallelEvaluation.problem(n=n)
        full, captured = encode(model, feats, capture=True)
        blocks = range(1, model.config.n_layers + 1)
        tuned = {j: self.tuned_copy(model, j) for j in blocks}
        alone = {j: predict_probs((tuned[j],), feats)[0].tobytes() for j in blocks}
        reference = predict_probs((model,), feats)[0].tobytes()
        for cpus in (1, 2, 4):
            TestParallelEvaluation.force_cpus(monkeypatch, cpus)
            for j in blocks:
                tokens = encode_prefix(model, feats, j)
                assert tokens.tobytes() == captured[j - 1].tobytes(), (cpus, j)
                assert encode(model, tokens, from_block=j).data.tobytes() == full.data.tobytes()
                # models sharing the first j blocks: one pass runs those once
                for batch_size in (3, 64):
                    monkeypatch.setattr(model_module, "EVAL_BATCH", batch_size)
                    shared = predict_probs((model, tuned[j]), feats, from_block=j)
                    assert [p.tobytes() for p in shared] == [reference, alone[j]], (
                        cpus, j, batch_size)

    def test_a_block_range_continues_to_the_full_pass(self):
        model = init_model(tiny_config(n_layers=3), seed=8)
        feats = unfold(np.random.default_rng(8).normal(size=(5, 4, 4, 3)), 2)
        _, captured = encode(model, feats, capture=True)
        probs = forward_batch(model, feats).data.tobytes()
        for j in range(1, 4):
            tokens = encode(model, feats, to_block=j)
            assert tokens.data.tobytes() == captured[j - 1].tobytes(), j
            assert forward_batch(model, tokens, from_block=j).data.tobytes() == probs, j

    def test_shared_prefix_passes_build_no_second_model(self, monkeypatch):
        model, feats = TestParallelEvaluation.problem(n=70)
        tuned = self.tuned_copy(model, 1)
        built = []
        post_init = SstModel.__post_init__

        def spy(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(SstModel, "__post_init__", spy)
        predict_probs((model, tuned), feats, from_block=1)
        encode_prefix(model, feats, 1)
        assert built == []

    def test_lazy_windows_give_the_same_tokens(self):
        model = init_model(SstConfig(bands=3, n_classes=3, window=4, d_model=8, n_heads=2), seed=2)
        cube = HsiCube(np.random.default_rng(6).normal(size=(9, 9, 3)))
        windows = PixelWindows(cube, np.arange(0, 81, 2), 4, 2)
        assert encode_prefix(model, windows, 2).tobytes() == encode_prefix(
            model, windows[:], 2).tobytes()

    def test_batches_fill_their_own_rows_under_frequent_switches(self, monkeypatch):
        # workers write disjoint rows of one output array; more workers than
        # cores and frequent switches would show a batch written to the
        # wrong rows or a write lost
        model, feats = TestParallelEvaluation.problem(n=321)  # a one-row last batch
        passes = (lambda: encode_prefix(model, feats, 1), lambda: _token_means(model, feats))
        TestParallelEvaluation.force_cpus(monkeypatch, 1)
        references = [run() for run in passes]
        TestParallelEvaluation.force_cpus(monkeypatch, 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(3):
                for run, reference in zip(passes, references):
                    assert run().tobytes() == reference.tobytes()
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_tokens_fill_one_array_without_a_second_copy(self, monkeypatch, cpus):
        model, feats = TestParallelEvaluation.problem(n=2048)
        TestParallelEvaluation.force_cpus(monkeypatch, cpus)
        tracemalloc.start()
        try:
            encode(model, feats[:64], to_block=1)
            _, batch_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            out_bytes = encode_prefix(model, feats, 1).nbytes
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the output, each worker's one batch in flight and a little slack;
        # a list of batch outputs joined at the end would need twice the output
        assert peak <= out_bytes + cpus * batch_peak + (1 << 20), (peak, out_bytes, batch_peak)

    def test_empty_input_gives_empty_tokens(self):
        model, feats = TestParallelEvaluation.problem(n=2)
        assert encode_prefix(model, feats[:0], 1).shape == (0, 16, 56)

    def test_tokens_of_another_width_rejected(self):
        model, feats = TestParallelEvaluation.problem(n=3)
        assert feats.shape[-1] != model.config.d_model
        with pytest.raises(DimensionError, match="entering block 1"):
            encode(model, feats, from_block=1)
        with pytest.raises(DimensionError):
            forward_batch(model, feats, from_block=2)

    def test_dropout_draws_only_for_blocks_that_run(self):
        cfg = tiny_config(n_layers=3, dropout=0.2)
        shape = (5, cfg.n_tokens, cfg.d_model)
        for j in range(4):
            ours, reference = np.random.default_rng(j), np.random.default_rng(j)
            masks = dropout_draws(cfg, 5, ours, j)
            assert len(masks) == 2 * (3 - j)
            # bool masks, each the comparison ad.dropout makes of its
            # uniforms, and the generator advanced as those draws advance it
            for mask in masks:
                assert mask.dtype == np.bool_
                assert np.array_equal(mask, reference.random(shape) >= cfg.dropout)
            assert ours.random() == reference.random()
        assert dropout_draws(tiny_config(dropout=0.0), 5, np.random.default_rng(0), 1) == []
