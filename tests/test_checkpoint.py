"""Checkpoint byte-exactness and error paths."""

import tracemalloc

import numpy as np
import pytest
from conftest import forward, rewrite_checkpoint

from hsiatl.checkpoint import _param_shape, load_model, save_model
from hsiatl.data import BadMagicError, FormatError, TruncatedPayloadError
from hsiatl.model import SstConfig, init_model


def sample_model(seed=42, **overrides):
    base = dict(bands=5, n_classes=4, window=4, subpatch=2,
                d_model=8, n_layers=2, n_heads=2, calibration=0.3)
    base.update(overrides)
    return init_model(SstConfig(**base), seed=seed)


class TestRoundTrip:
    def test_parameters_bitwise_identical(self, tmp_path):
        model = sample_model()
        path = tmp_path / "model.sstc"
        save_model(model, path)
        loaded = load_model(path)
        for (name, p), (name2, q) in zip(
            model.parameters().items(), loaded.parameters().items()
        ):
            assert name == name2
            assert p.data.tobytes() == q.data.tobytes(), name

    def test_file_bytes_stable_after_reload(self, tmp_path):
        model = sample_model(seed=9)
        first = tmp_path / "a.sstc"
        second = tmp_path / "b.sstc"
        save_model(model, first)
        save_model(load_model(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_config_and_freeze_flags_survive(self, tmp_path):
        model = sample_model()
        model.freeze["enc1"] = True
        model.freeze["embed"] = True
        model.apply_freeze()
        path = tmp_path / "frozen.sstc"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.config == model.config
        assert loaded.freeze == model.freeze
        assert not loaded.parameters()["enc1.attn_q"].requires_grad
        assert loaded.parameters()["head.w1"].requires_grad

    def test_predictions_identical_after_reload(self, tmp_path):
        model = sample_model(seed=3)
        path = tmp_path / "model.sstc"
        save_model(model, path)
        loaded = load_model(path)
        window = np.random.default_rng(0).normal(size=(4, 4, 5))
        assert (
            forward(model, window).tobytes()
            == forward(loaded, window).tobytes()
        )


class TestErrorPaths:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.sstc"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(BadMagicError):
            load_model(path)

    def test_truncated_payload(self, tmp_path):
        model = sample_model()
        path = tmp_path / "model.sstc"
        save_model(model, path)
        clipped = tmp_path / "clipped.sstc"
        clipped.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(TruncatedPayloadError):
            load_model(clipped)

    def test_trailing_bytes_rejected(self, tmp_path):
        model = sample_model()
        path = tmp_path / "model.sstc"
        save_model(model, path)
        fat = tmp_path / "fat.sstc"
        fat.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            load_model(fat)

    def test_garbage_header_rejected(self, tmp_path):
        path = tmp_path / "garbage.sstc"
        path.write_bytes(b"SSTC" + np.uint32(4).tobytes() + b"!!!!" )
        with pytest.raises(FormatError):
            load_model(path)

    def test_freeze_must_name_every_group(self, tmp_path):
        save_model(sample_model(), tmp_path / "model.sstc")

        def drop_enc1(header):
            del header["freeze"]["enc1"]
            return header

        rewrite_checkpoint(tmp_path / "model.sstc", tmp_path / "bad.sstc", drop_enc1)
        with pytest.raises(FormatError, match="'freeze' must name the groups"):
            load_model(tmp_path / "bad.sstc")

    def test_config_implied_shapes_match_a_built_model(self):
        for overrides in ({}, {"d_ff": 12, "n_layers": 3, "n_classes": 7},
                          {"window": 6, "subpatch": 3, "bands": 2}):
            model = sample_model(**overrides)
            for name, tensor in model.parameters().items():
                assert _param_shape(model.config, name) == tensor.shape, name
            n_layers = model.config.n_layers
            for name in (f"enc{n_layers}.attn_q", "enc00.attn_q", "enc0.attn", "head.w3"):
                assert _param_shape(model.config, name) is None, name

    def test_shape_checked_before_the_model_is_built(self, tmp_path):
        # a header that claims a huge model must fail on its first parameter
        save_model(sample_model(), tmp_path / "model.sstc")

        def huge(header):
            header["config"]["d_model"] = 2**40
            header["config"]["n_heads"] = 1
            return header

        rewrite_checkpoint(tmp_path / "model.sstc", tmp_path / "bad.sstc", huge)
        with pytest.raises(FormatError, match=r"parameter embed.weight has shape \[20, 8\]"):
            load_model(tmp_path / "bad.sstc")

    def test_huge_window_loads_without_a_positional_table(self, tmp_path):
        # the window is bounded by the cube only when the model meets data;
        # loading alone must not size anything by it
        save_model(sample_model(), tmp_path / "model.sstc")

        def wide(header):
            header["config"]["window"] = 65536
            return header

        rewrite_checkpoint(tmp_path / "model.sstc", tmp_path / "wide.sstc", wide)
        tracemalloc.start()
        try:
            model = load_model(tmp_path / "wide.sstc")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.config.n_tokens == 2**30
        assert peak < 4 << 20
