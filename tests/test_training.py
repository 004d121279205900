"""Training-loop determinism, freeze behavior, failure modes, and the
active-learning driver's bookkeeping."""

import copy
import dataclasses
import gc
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from hsiatl import autodiff as ad
from hsiatl import model as model_module
from hsiatl import training as training_module
from hsiatl.autodiff import Tape
from hsiatl.data import DimensionError, LabelMap, extract_windows_batch, make_split, synth_cube
from hsiatl.model import (
    SstConfig,
    SstModel,
    _views,
    dropout_draws,
    encode_prefix,
    forward_batch,
    init_model,
    param_spec,
    unfold,
)
from hsiatl.optim import Adam
from hsiatl.queries import QueryConfig
from hsiatl.training import (
    NumericalError,
    TrainConfig,
    WindowBank,
    evaluate,
    run_active_learning,
    train_model,
)


def small_problem(seed=42, noise=0.2):
    cube, labels = synth_cube(3, 14, 14, 8, noise=noise, seed=seed)
    cfg = SstConfig(
        bands=8, n_classes=3, window=4, subpatch=2,
        d_model=8, n_layers=1, n_heads=2, dropout=0.1,
    )
    model = init_model(cfg, seed=seed)
    bank = WindowBank(cube, labels, 4, 2)
    return cube, labels, cfg, model, bank


class TestWindowBank:
    def test_rows_match_direct_extraction(self):
        cube, labels, cfg, _, bank = small_problem()
        pixels = bank.pixels[[0, 17, 100]]
        feats, targets = bank.take(pixels)
        direct = unfold(extract_windows_batch(cube, pixels, 4), 2)
        np.testing.assert_array_equal(feats, direct)
        np.testing.assert_array_equal(
            targets, labels.labels.ravel()[pixels] - 1
        )

    def test_unlabeled_pixel_rejected(self):
        cube, labels, *_ , bank = small_problem()
        labels.labels[0, 0] = 0
        fresh = WindowBank(cube, labels, 4, 2)
        with pytest.raises(ValueError):
            fresh.take(np.array([0]))

    def test_lazy_windows_equal_taken_ones(self):
        _, _, _, _, bank = small_problem()
        pixels = bank.pixels[[5, 0, 17, 100]]
        windows, targets = bank.windows(pixels)
        feats, taken_targets = bank.take(pixels)
        assert len(windows) == 4
        assert windows.shape == feats.shape
        assert windows[:].tobytes() == feats.tobytes()
        assert windows[1:3].tobytes() == feats[1:3].tobytes()
        np.testing.assert_array_equal(targets, taken_targets)

    @pytest.mark.parametrize("size", [12, 16])
    def test_label_map_of_another_extent_rejected(self, size):
        cube, labels, *_ = small_problem()
        other = LabelMap(np.resize(labels.labels, (size, size)))
        message = f"label map is {size}x{size} but the cube is 14x14"
        with pytest.raises(DimensionError, match=message):
            WindowBank(cube, other, 4, 2)


class TestTrainConfig:
    @pytest.mark.parametrize("field, value, message", [
        ("lr", 0, "lr must be > 0, got 0"),
        ("lr", -1.0, "lr must be > 0, got -1.0"),
        ("lr", float("nan"), "lr must be > 0, got nan"),
        ("seed", -1, "seed must be >= 0, got -1"),
    ])
    def test_rejects_before_any_training(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**{field: value})


class TestTrainModel:
    def test_loss_decreases(self):
        _, _, _, model, bank = small_problem()
        feats, targets = bank.take(bank.pixels[:60])
        history = train_model(
            model, feats, targets, TrainConfig(epochs=8, batch_size=16, seed=0)
        )
        assert len(history) == 8
        assert history[-1] < history[0]

    def test_bitwise_deterministic(self):
        def run():
            _, _, _, model, bank = small_problem()
            feats, targets = bank.take(bank.pixels[:40])
            train_model(model, feats, targets, TrainConfig(epochs=2, batch_size=8, seed=3))
            return b"".join(p.data.tobytes() for p in model.parameters().values())

        assert run() == run()

    def test_zero_epochs_is_noop(self):
        _, _, _, model, bank = small_problem()
        before = {k: v.data.copy() for k, v in model.parameters().items()}
        feats, targets = bank.take(bank.pixels[:20])
        history = train_model(model, feats, targets, TrainConfig(epochs=0))
        assert history == []
        for name, p in model.parameters().items():
            np.testing.assert_array_equal(p.data, before[name])

    def test_frozen_group_bitwise_unchanged(self):
        _, _, _, model, bank = small_problem()
        model.freeze["enc0"] = True
        before = {
            name: p.data.tobytes()
            for name, p in model.parameters().items()
            if name.startswith("enc0.")
        }
        feats, targets = bank.take(bank.pixels[:40])
        train_model(model, feats, targets, TrainConfig(epochs=3, batch_size=8, seed=1))
        for name, p in model.parameters().items():
            if name.startswith("enc0."):
                assert p.data.tobytes() == before[name], name
            else:
                pass

    def test_epoch_leaves_no_cyclic_garbage(self):
        # recorded tensors must not keep their tape alive through a cycle, or
        # every step's activations wait for a full collection to be freed
        _, _, _, model, bank = small_problem()
        feats, targets = bank.take(bank.pixels[:40])
        gc.collect()
        gc.disable()
        try:
            train_model(model, feats, targets, TrainConfig(epochs=1, batch_size=8))
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("n_windows, n_targets, message", [
        (0, 0, "no windows to train on"),
        (10, 12, "12 targets for 10 windows"),
        (10, 5, "5 targets for 10 windows"),
    ])
    def test_inputs_it_cannot_train_on_rejected_before_any_step(
        self, n_windows, n_targets, message
    ):
        _, _, _, model, bank = small_problem()
        feats, targets = bank.take(bank.pixels[:12])
        before = model.vector.tobytes()
        with pytest.raises(ValueError, match=message):
            train_model(model, feats[:n_windows], targets[:n_targets],
                        TrainConfig(epochs=1, batch_size=4, seed=0))
        assert model.vector.tobytes() == before

    def test_nonfinite_loss_raises_numerical_error(self):
        # overflow the embedding products so LayerNorm sees inf - inf
        _, _, _, model, bank = small_problem()
        model.params["embed.weight"].data[...] = 1e308
        feats, targets = bank.take(bank.pixels[:30])
        with np.errstate(all="ignore"), pytest.raises(NumericalError):
            train_model(
                model, feats, targets, TrainConfig(epochs=1, batch_size=8, seed=0)
            )


class TestTwoHalfStep:
    """Each minibatch runs as two fixed halves on the CPU pool."""

    @staticmethod
    def force_cpus(monkeypatch, n):
        monkeypatch.setattr(model_module, "_cpu_count", lambda: n)

    def test_bitwise_identical_across_cpu_counts(self, monkeypatch):
        # 43 rows in batches of 7: halves of 4 and 3 rows, then a lone row
        def run(cpus):
            self.force_cpus(monkeypatch, cpus)
            _, _, _, model, bank = small_problem()
            feats, targets = bank.take(bank.pixels[:43])
            history = train_model(
                model, feats, targets, TrainConfig(epochs=2, batch_size=7, seed=3)
            )
            return history, b"".join(p.data.tobytes() for p in model.parameters().values())

        # frequent thread switches give any state the halves share the
        # chance to show up in the result
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            reference = run(1)
            for cpus in (2, 4):
                assert run(cpus) == reference, cpus
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("dropout", [0.1, 0.0])
    def test_first_step_matches_one_whole_batch_pass(self, monkeypatch, dropout):
        _, _, cfg, _, bank = small_problem()
        cfg = dataclasses.replace(cfg, dropout=dropout)
        feats, targets = bank.take(bank.pixels[:24])
        serial = init_model(cfg, seed=5).replica()
        rng = np.random.default_rng(9)
        batch = rng.permutation(24)
        masks = iter(dropout_draws(cfg, 24, rng))
        with Tape() as tape:
            probs = forward_batch(serial, feats[batch], True, masks)
            loss = ad.cross_entropy(probs, targets[batch])
        ad.backward(tape, loss)

        # the one step reads the summed gradient of the two halves
        stepped, step = [], Adam.step

        def spy(opt):
            stepped.append(opt.grad.copy())
            step(opt)

        monkeypatch.setattr(Adam, "step", spy)
        halved = init_model(cfg, seed=5)
        history = train_model(
            halved, feats, targets, TrainConfig(epochs=1, batch_size=24, seed=9)
        )
        assert history[0] == pytest.approx(float(loss.data), rel=1e-15, abs=0.0)
        assert len(stepped) == 1
        for name, grad in _views(stepped[0], param_spec(cfg)):
            reference = serial.params[name].grad
            assert np.abs(grad - reference).max() <= 1e-12 * np.abs(reference).max(), name

    def test_final_batch_of_one_row(self):
        _, _, _, model, bank = small_problem()
        feats, targets = bank.take(bank.pixels[:57])  # default batches of 56, then 1
        before = model.params["head.b2"].data.copy()
        history = train_model(model, feats, targets, TrainConfig(epochs=1, seed=2))
        assert np.isfinite(history[0])
        assert not np.array_equal(model.params["head.b2"].data, before)

    def test_from_block_trains_only_the_blocks_after_the_cached_prefix(self):
        _, _, cfg, _, bank = small_problem()
        cfg = dataclasses.replace(cfg, n_layers=2)
        feats, targets = bank.take(bank.pixels[:30])

        def run():
            model = init_model(cfg, seed=4)
            model.freeze.update(embed=True, enc0=True)
            tokens = encode_prefix(model, feats, 1)
            before = {n: p.data.copy() for n, p in model.parameters().items()}
            # dropout draws are made for block 1 only; a wrong count raises
            history = train_model(model, tokens, targets,
                                  TrainConfig(epochs=2, batch_size=8, seed=1), from_block=1)
            return history, before, model

        history, before, model = run()
        assert np.isfinite(history).all()
        for name, p in model.parameters().items():
            moved = not np.array_equal(p.data, before[name])
            assert moved == (model.group_of(name) not in ("embed", "enc0")), name
        assert run()[0] == history

    def test_from_block_holds_state_for_the_trainable_tail_only(self, monkeypatch):
        _, _, cfg, _, bank = small_problem()
        cfg = dataclasses.replace(cfg, n_layers=3)
        feats, targets = bank.take(bank.pixels[:20])
        model = init_model(cfg, seed=4)
        model.freeze.update(embed=True, enc0=True, enc1=True)
        tokens = encode_prefix(model, feats, 2)
        optimizers, replicas, threads = [], [], set()

        class SpyAdam(Adam):
            def __post_init__(self):
                super().__post_init__()
                optimizers.append(self)

        make_replica = SstModel.replica

        def spy_replica(self, *args):
            threads.add(threading.get_ident())
            replicas.append(make_replica(self, *args))
            return replicas[-1]

        monkeypatch.setattr(training_module, "Adam", SpyAdam)
        monkeypatch.setattr(SstModel, "replica", spy_replica)
        train_model(model, tokens, targets, TrainConfig(epochs=2, batch_size=8, seed=1),
                    from_block=2)
        start = cfg.tail_start(2)
        tail = (cfg.n_parameters - start,)
        [optimizer] = optimizers
        assert optimizer.t == 6  # 3 steps an epoch
        assert optimizer.params.shape == optimizer.m.shape == optimizer.v.shape == tail
        assert np.shares_memory(optimizer.params, model.vector[start:])
        assert not np.shares_memory(optimizer.params, model.vector[:start])
        # two replicas for the whole call, made on the calling thread
        assert len(replicas) == 2 and threads == {threading.get_ident()}
        assert [r.grad.shape for r in replicas] == [tail, tail]

    def test_from_block_keeps_the_bytes_of_trainable_earlier_entries(self):
        # the embedding and block 0 stay trainable but no loss reaches them:
        # zero gradient and moments, so their entries step by exactly 0
        _, _, cfg, _, bank = small_problem()
        cfg = dataclasses.replace(cfg, n_layers=2)
        feats, targets = bank.take(bank.pixels[:30])
        model = init_model(cfg, seed=4)
        tokens = encode_prefix(model, feats, 1)
        before = {n: p.data.tobytes() for n, p in model.parameters().items()}
        train_model(model, tokens, targets, TrainConfig(epochs=2, batch_size=8, seed=1),
                    from_block=1)
        for name, p in model.parameters().items():
            assert p.requires_grad, name
            kept = p.data.tobytes() == before[name]
            assert kept == (model.group_of(name) in ("embed", "enc0")), name

    def test_nonfinite_loss_in_worker_raises_numerical_error(self, monkeypatch):
        # the calling thread runs the first half and stays finite; only the
        # pool thread's half overflows, and numpy does not warn about it
        self.force_cpus(monkeypatch, 2)
        threads = []

        def spy(model, *args, **kwargs):
            threads.append(threading.current_thread())
            if threading.current_thread() is not threading.main_thread():
                model = copy.deepcopy(model)
                model.params["embed.weight"].data[...] = 1e308
            return forward_batch(model, *args, **kwargs)

        monkeypatch.setattr(training_module, "forward_batch", spy)
        _, _, _, model, bank = small_problem()
        feats, targets = bank.take(bank.pixels[:30])
        with pytest.raises(NumericalError, match="loss became nan at epoch 0"):
            train_model(
                model, feats, targets, TrainConfig(epochs=1, batch_size=8, seed=0)
            )
        assert len(threads) == len(set(threads)) == 2
        assert threading.main_thread() in threads
        assert ad._current_tape() is None

    def step_peak(self, monkeypatch, cpus: int) -> int:
        """tracemalloc's peak over one default-model step of 56 windows."""
        self.force_cpus(monkeypatch, cpus)
        cfg = SstConfig(bands=16, n_classes=5)
        model = init_model(cfg, seed=0)
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(56, cfg.n_tokens, cfg.token_dim))
        targets = rng.integers(0, 5, size=56)
        tracemalloc.start()
        try:
            train_model(model, feats, targets, TrainConfig(epochs=1, batch_size=56))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_one_step_holds_only_what_backward_reads(self, monkeypatch):
        # each half's tape holds the nodes' inputs, row statistics and bool
        # dropout masks; their backwards rebuild the LayerNorm input x-hat,
        # the ReLU output, q, k, v and the heads. One CPU peaks near 10.7
        # MiB; keeping those intermediates peaked near 16 MiB
        peak = self.step_peak(monkeypatch, 1)
        assert peak < 13 << 20, peak

    def test_two_halves_at_once_hold_only_what_backward_reads(self, monkeypatch):
        # both halves' tapes are held at once: 16-18.5 MiB, against 25-29
        # MiB with the intermediates kept
        peak = self.step_peak(monkeypatch, 2)
        assert peak < 20 << 20, peak

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_caller_tape_untouched(self, monkeypatch, cpus):
        self.force_cpus(monkeypatch, cpus)
        _, _, _, model, bank = small_problem()
        feats, targets = bank.take(bank.pixels[:20])
        with Tape() as outer:
            train_model(model, feats, targets, TrainConfig(epochs=1, batch_size=8))
            assert ad._current_tape() is outer
        assert len(outer) == 0
        assert ad._current_tape() is None


class TestLazyTrainingInput:
    """``train_model`` on a ``PixelWindows`` gathers one minibatch at a time."""

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_windows_train_bitwise_like_the_array(self, monkeypatch, cpus):
        # 43 rows in batches of 7, with dropout: halves of 4 and 3 rows, then a lone row
        monkeypatch.setattr(model_module, "_cpu_count", lambda: cpus)
        _, _, cfg, _, bank = small_problem()
        assert cfg.dropout > 0
        pixels = bank.pixels[5:48]
        results = []
        for features, targets in (bank.take(pixels), bank.windows(pixels)):
            model = init_model(cfg, seed=6)
            history = train_model(
                model, features, targets, TrainConfig(epochs=2, batch_size=7, seed=3)
            )
            results.append((history, [p.data.tobytes() for p in model.parameters().values()]))
        assert results[1] == results[0]

    def test_one_minibatch_gathered_at_a_time(self, monkeypatch):
        monkeypatch.setattr(model_module, "_cpu_count", lambda: 2)
        _, _, cfg, model, bank = small_problem()
        feats, targets = bank.take(bank.pixels[:40])

        class CountingSource:
            """``feats`` gathered on demand; counts the gathers alive at once."""

            def __init__(self):
                self.sizes, self.live, self.most = [], 0, 0
                self.lock = threading.Lock()

            def __len__(self):
                return len(feats)

            def __getitem__(self, rows):
                batch = feats[rows]
                with self.lock:
                    self.sizes.append(len(batch))
                    self.live += 1
                    self.most = max(self.most, self.live)
                weakref.finalize(batch, self.release)
                return batch

            def release(self):
                with self.lock:
                    self.live -= 1

        source = CountingSource()
        train_model(model, source, targets, TrainConfig(epochs=2, batch_size=16, seed=1))
        assert source.sizes == [16, 16, 8] * 2
        assert source.most == 1 and source.live == 0


class TestEvaluate:
    def test_zero_model_predicts_first_class(self):
        _, labels, _, model, bank = small_problem()
        for p in model.parameters().values():
            p.data[...] = 0.0
        feats, targets = bank.take(bank.pixels)
        scores = evaluate(model, feats, targets + 1)
        share = (targets + 1 == 1).mean()
        np.testing.assert_allclose(scores.oa, share)


class TestActiveLearningDriver:
    def run_driver(self, strategy="hybrid", rounds=3, sizes=None):
        cube, labels, cfg, model, bank = small_problem(seed=7)
        manifest = make_split(labels, (0.08, 0.42, 0.50), seed=7)
        records = run_active_learning(
            model, cube, labels, manifest,
            QueryConfig(query_size=6, strategy=strategy),
            rounds=rounds,
            train_cfg=TrainConfig(epochs=2, batch_size=8, seed=7),
            bank=bank,
            round_query_sizes=sizes,
        )
        return manifest, records

    def test_round_records_structure(self):
        manifest, records = self.run_driver()
        assert len(records) == 4
        keys = {"round", "strategy", "train_size", "queried_indices",
                "oa", "aa", "kappa", "wall_seconds"}
        for rec in records:
            assert keys <= rec.keys()
        assert records[0]["round"] == 0
        assert records[0]["queried_indices"] == []

    def test_train_grows_by_query_size(self):
        manifest, records = self.run_driver()
        base = manifest.train.size
        for i, rec in enumerate(records):
            assert rec["train_size"] == base + 6 * i

    def test_queried_come_from_pool_without_repeats(self):
        manifest, records = self.run_driver(strategy="random")
        seen = set(manifest.train.tolist())
        pool = set(manifest.pool.tolist())
        for rec in records[1:]:
            for pixel in rec["queried_indices"]:
                assert pixel in pool
                assert pixel not in seen
                seen.add(pixel)

    def test_per_round_size_override(self):
        manifest, records = self.run_driver(rounds=3, sizes=[2, 5, 3])
        growth = [rec["train_size"] for rec in records]
        base = manifest.train.size
        assert growth == [base, base + 2, base + 7, base + 10]

    def test_deterministic(self):
        _, a = self.run_driver(strategy="hybrid")
        _, b = self.run_driver(strategy="hybrid")
        for ra, rb in zip(a, b):
            assert ra["queried_indices"] == rb["queried_indices"]
            assert ra["oa"] == rb["oa"]
