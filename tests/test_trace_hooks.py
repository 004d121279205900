"""The call shapes perfbench's tracer (perfbench/tracer.py) reads: the
argument positions of the functions it wraps, the optimizer calls that
bound its training-step timer, and the calls a transfer run makes that
its metric groups expect."""

import inspect
import math

import numpy as np

from hsiatl import transfer as transfer_module
from hsiatl.checkpoint import load_model, save_model
from hsiatl.data import extract_windows_batch, synth_cube
from hsiatl.model import SstConfig, encode, forward_batch, init_model, predict_probs
from hsiatl.optim import Adam
from hsiatl.queries import neighborhood_diversity_batch
from hsiatl.training import TrainConfig, WindowBank, train_model
from hsiatl.transfer import MmdConfig, run_transfer


def parameters(fn) -> list[str]:
    return list(inspect.signature(fn).parameters)


def test_traced_arguments_keep_their_positions():
    assert parameters(forward_batch).index("training") == 2
    assert parameters(encode).index("capture") == 4
    assert parameters(train_model)[1] == "features" and parameters(train_model)[3] == "cfg"
    assert parameters(predict_probs)[1] == "features"
    assert parameters(neighborhood_diversity_batch)[1] == "pixels"
    assert parameters(extract_windows_batch)[1] == "pixel_indices"
    assert parameters(save_model)[1] == "path" and parameters(load_model)[0] == "path"
    # the step counter reads train_model's features.shape[0]
    cube, labels = synth_cube(3, 10, 10, 4, seed=0)
    windows, _ = WindowBank(cube, labels, 4, 2).windows(np.arange(7))
    assert windows.shape[0] == len(windows) == 7


def test_each_step_is_zero_grad_then_step(monkeypatch):
    calls = []
    for name in ("zero_grad", "step"):
        original = getattr(Adam, name)

        def spy(self, name=name, original=original):
            calls.append(name)
            return original(self)

        monkeypatch.setattr(Adam, name, spy)
    cube, labels = synth_cube(3, 10, 10, 4, seed=0)
    cfg = SstConfig(bands=4, n_classes=3, window=4, subpatch=2, d_model=8, n_layers=1, n_heads=2)
    features, targets = WindowBank(cube, labels, 4, 2).windows(np.arange(11))
    train_cfg = TrainConfig(epochs=2, batch_size=4, seed=0)
    train_model(init_model(cfg, seed=0), features, targets, train_cfg)
    steps = train_cfg.epochs * math.ceil(features.shape[0] / train_cfg.batch_size)
    assert calls == ["zero_grad", "step"] * steps


def test_transfer_scores_through_evaluate_and_captures_features(monkeypatch):
    seen = []
    evaluate, encode_ = transfer_module.evaluate, transfer_module.encode

    def evaluate_spy(*args, **kwargs):
        seen.append("evaluate")
        return evaluate(*args, **kwargs)

    def encode_spy(*args, **kwargs):
        if kwargs.get("capture", args[4] if len(args) > 4 else False):
            seen.append("capture")
        return encode_(*args, **kwargs)

    # perfbench wraps each name where a module binds it, as these spies are
    monkeypatch.setattr(transfer_module, "evaluate", evaluate_spy)
    monkeypatch.setattr(transfer_module, "encode", encode_spy)
    source_cube, source_labels = synth_cube(3, 12, 12, 8, noise=0.2, seed=0)
    target_cube, target_labels = synth_cube(3, 12, 12, 8, noise=0.2, shift=0.5, seed=1)
    cfg = SstConfig(bands=8, n_classes=3, window=4, subpatch=2, d_model=8, n_layers=2, n_heads=2)
    run_transfer(
        init_model(cfg, seed=0), source_cube, source_labels, target_cube, target_labels,
        rho=0.5, mmd_cfg=MmdConfig(sample_count=16),
        train_cfg=TrainConfig(epochs=1, batch_size=8, seed=0), seed=3,
    )
    assert "capture" in seen and "evaluate" in seen
