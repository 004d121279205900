"""Checkpoint byte-exactness and error paths."""

import hashlib
import json
import os
import tracemalloc

import numpy as np
import pytest
from conftest import forward, rewrite_checkpoint

from hsiatl.checkpoint import load_model, save_model
from hsiatl.data import FormatError, TruncatedPayloadError
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

    def test_initial_bytes_are_pinned(self, tmp_path):
        # init_model draws every encoder block before the embedding, pool and
        # head, which is not checkpoint order; these bytes pin that draw order
        cfg = SstConfig(bands=5, n_classes=4, window=4, subpatch=2, d_model=8,
                        n_layers=2, n_heads=2)
        save_model(init_model(cfg, seed=3), tmp_path / "init.sstc")
        digest = hashlib.sha256((tmp_path / "init.sstc").read_bytes()).hexdigest()
        assert digest == "3a4012771ce6efd4684996e450943effb54e535a562428ad5c92d9ea1b8d6f94"

    def test_parameters_listed_in_another_order(self, tmp_path):
        # the payload follows the header's order, whatever that order is
        model = sample_model()
        save_model(model, tmp_path / "model.sstc")
        raw = (tmp_path / "model.sstc").read_bytes()
        header = json.loads(raw[8 : 8 + int.from_bytes(raw[4:8], "little")])
        header["params"].reverse()
        blob = json.dumps(header).encode("utf-8")
        payload = b"".join(model.params[e["name"]].data.tobytes() for e in header["params"])
        path = tmp_path / "reversed.sstc"
        path.write_bytes(raw[:4] + len(blob).to_bytes(4, "little") + blob + payload)
        for name, p in load_model(path).parameters().items():
            assert p.data.tobytes() == model.params[name].data.tobytes(), name

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
    def test_truncated_payload(self, tmp_path):
        model = sample_model()
        path = tmp_path / "model.sstc"
        save_model(model, path)
        clipped = tmp_path / "clipped.sstc"
        clipped.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(TruncatedPayloadError, match="payload ends inside head.b2"):
            load_model(clipped)
        clipped.write_bytes(path.read_bytes()[:-40])  # head.b2 holds 32 bytes
        with pytest.raises(TruncatedPayloadError, match="payload ends inside head.w2"):
            load_model(clipped)

    def test_trailing_bytes_rejected(self, tmp_path):
        model = sample_model()
        path = tmp_path / "model.sstc"
        save_model(model, path)
        fat = tmp_path / "fat.sstc"
        fat.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match=": 1 trailing bytes"):
            load_model(fat)

    def test_length_checked_before_the_payload_is_read(self, tmp_path):
        # 64 MiB of zeros after a valid checkpoint fail on the file's length
        path = tmp_path / "model.sstc"
        save_model(sample_model(), path)
        os.truncate(path, path.stat().st_size + (64 << 20))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=f": {64 << 20} trailing bytes"):
                load_model(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

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

    @pytest.mark.parametrize("d_model, error", [
        # a header that claims a wider model fails on its first parameter
        (64, r"parameter embed.weight has shape \[20, 8\], expected \[20, 64\]"),
        # one that claims a huge model fails on its config, before any table
        (2**40, r"invalid config: .*d_model 1099511627776.* more than 134217728"),
    ], ids=["wider", "huge"])
    def test_shape_checked_before_the_model_is_built(self, tmp_path, d_model, error):
        save_model(sample_model(), tmp_path / "model.sstc")

        def wider(header):
            header["config"]["d_model"] = d_model
            header["config"]["n_heads"] = 1
            return header

        rewrite_checkpoint(tmp_path / "model.sstc", tmp_path / "bad.sstc", wider)
        with pytest.raises(FormatError, match=error):
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
