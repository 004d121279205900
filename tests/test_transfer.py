"""Discrepancy estimates against closed forms and a permutation null,
freeze-plan arithmetic, and fine-tuning's freeze contract."""

import numpy as np
import pytest
from conftest import layer_features

from hsiatl.data import DimensionError, synth_cube
from hsiatl.model import SstConfig, init_model, unfold
from hsiatl.training import TrainConfig, WindowBank
from hsiatl.transfer import (
    FreezePlan,
    MmdConfig,
    apply_freeze_plan,
    fine_tune,
    _token_means,
    freeze_plan,
    median_bandwidth,
    mmd,
    run_transfer,
)


def permutation_null(x, y, cfg, n_perm, seed):
    """Null distribution of the statistic under random relabeling."""
    pooled = np.vstack([x, y])
    rng = np.random.default_rng(seed)
    stats = []
    for _ in range(n_perm):
        perm = rng.permutation(pooled.shape[0])
        stats.append(mmd(pooled[perm[: len(x)]], pooled[perm[len(x) :]], cfg))
    return np.array(stats)


class TestMmd:
    def test_identical_samples_give_zero(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(30, 5))
        for kernel in ("rbf", "linear"):
            assert mmd(x, x.copy(), MmdConfig(kernel=kernel)) == 0.0

    def test_linear_equals_leave_diagonal_out_closed_form(self):
        # linear kernel: within-sample means over i != j are
        # (|sum x|^2 - sum |x_i|^2) / (n (n - 1)); the cross term is mean_x . mean_y
        rng = np.random.default_rng(7)
        x = rng.normal(size=(40, 6))
        y = rng.normal(size=(25, 6)) + 0.7

        def within(a):
            n = a.shape[0]
            return (a.sum(axis=0) @ a.sum(axis=0) - (a * a).sum()) / (n * (n - 1))

        expected = within(x) + within(y) - 2.0 * x.mean(axis=0) @ y.mean(axis=0)
        got = mmd(x, y, MmdConfig(kernel="linear"))
        np.testing.assert_allclose(got, expected, rtol=1e-10)

    def test_rbf_bounded_by_two(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(20, 4))
        y = rng.normal(size=(20, 4)) + 100.0
        value = mmd(x, y, MmdConfig(bandwidth=1.0))
        assert 0.0 <= value <= 2.0

    def test_separated_clouds_beat_permutation_null(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(40, 4))
        y = rng.normal(size=(40, 4)) + 1.5
        cfg = MmdConfig()
        observed = mmd(x, y, cfg)
        null = permutation_null(x, y, cfg, n_perm=100, seed=0)
        assert observed > np.quantile(null, 0.99)

    def test_same_distribution_within_null(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(40, 4))
        y = rng.normal(size=(40, 4))
        cfg = MmdConfig()
        observed = mmd(x, y, cfg)
        null = permutation_null(x, y, cfg, n_perm=100, seed=1)
        assert observed < np.quantile(null, 0.90)

    def test_median_heuristic_fallback_on_degenerate_sample(self):
        x = np.ones((5, 3))
        assert median_bandwidth(x, x) == 1.0
        assert mmd(x, x, MmdConfig()) == 0.0

    def test_fixed_bandwidth_respected(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(15, 3))
        y = rng.normal(size=(15, 3)) + 2.0
        wide = mmd(x, y, MmdConfig(bandwidth=100.0))
        narrow = mmd(x, y, MmdConfig(bandwidth=0.5))
        assert wide < narrow

    def test_unbiased_needs_two_rows(self):
        with pytest.raises(ValueError):
            mmd(np.ones((1, 3)), np.ones((5, 3)), MmdConfig())

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mmd(np.ones((4, 3)), np.ones((4, 2)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MmdConfig(kernel="laplace")
        with pytest.raises(ValueError):
            MmdConfig(bandwidth=0.0)
        with pytest.raises(ValueError):
            MmdConfig(sample_count=1)


def transfer_fixture(seed=42):
    cube, labels = synth_cube(3, 12, 12, 8, noise=0.2, seed=seed)
    cfg = SstConfig(
        bands=8, n_classes=3, window=4, subpatch=2,
        d_model=8, n_layers=4, n_heads=2, dropout=0.0,
    )
    model = init_model(cfg, seed=seed)
    bank = WindowBank(cube, labels, 4, 2)
    return cube, labels, model, bank


class TestLayerFeatures:
    def test_shape_and_determinism(self):
        _, _, model, bank = transfer_fixture()
        feats = bank.take(bank.pixels[:10])[0]
        out = layer_features(model, feats, 2)
        assert out.shape == (10, 8)
        np.testing.assert_array_equal(out, layer_features(model, feats, 2))
        # the freeze planner's parallel capture gives the same bytes
        assert _token_means(model, feats)[2].tobytes() == out.tobytes()

    def test_zero_model_yields_zero_features(self):
        _, _, model, bank = transfer_fixture()
        for p in model.parameters().values():
            p.data[...] = 0.0
        out = layer_features(model, bank.take(bank.pixels[:6])[0], 1)
        np.testing.assert_allclose(out, 0.0, atol=1e-12)


class TestFreezePlan:
    def test_frozen_count_is_floor_rho_l(self):
        _, _, model, bank = transfer_fixture()
        src, tgt = bank.take(bank.pixels[:20])[0], bank.take(bank.pixels[20:40])[0]
        for rho, expected in [(0.0, 0), (0.24, 0), (0.25, 1), (0.5, 2), (0.75, 3), (1.0, 4)]:
            plan = freeze_plan(model, src, tgt, rho)
            assert len(plan.frozen) == expected, rho

    def test_identical_domains_tie_break_to_low_indices(self):
        _, _, model, bank = transfer_fixture()
        src = bank.take(bank.pixels[:20])[0]
        plan = freeze_plan(model, src, src.copy(), 0.5)
        assert plan.layer_mmd == [0.0, 0.0, 0.0, 0.0]
        assert plan.frozen == [0, 1]

    def test_frozen_sets_nest_as_rho_grows(self):
        cube, labels, model, bank = transfer_fixture()
        shifted, shifted_labels = synth_cube(3, 12, 12, 8, noise=0.2, shift=1.0, seed=1)
        tgt_bank = WindowBank(shifted, shifted_labels, 4, 2)
        src, tgt = bank.take(bank.pixels[:30])[0], tgt_bank.take(tgt_bank.pixels[:30])[0]
        previous: set = set()
        for rho in (0.0, 0.25, 0.5, 0.75, 1.0):
            plan = freeze_plan(model, src, tgt, rho)
            current = set(plan.frozen)
            assert previous <= current
            previous = current

    def test_variances_recorded_per_layer(self):
        _, _, model, bank = transfer_fixture()
        src, tgt = bank.take(bank.pixels[:15])[0], bank.take(bank.pixels[15:30])[0]
        plan = freeze_plan(model, src, tgt, 0.5)
        assert len(plan.variance_source) == 4
        assert len(plan.variance_target) == 4
        assert all(v >= 0 for v in plan.variance_source)

    def test_rho_out_of_range_rejected(self):
        _, _, model, bank = transfer_fixture()
        with pytest.raises(ValueError):
            feats = bank.take(bank.pixels[:5])[0]
            freeze_plan(model, feats, feats, 1.1)

    def test_apply_sets_flags(self):
        _, _, model, _ = transfer_fixture()
        plan = FreezePlan(rho=0.5, layer_mmd=[0.0] * 4, frozen=[0, 2],
                          variance_source=[0.0] * 4, variance_target=[0.0] * 4)
        apply_freeze_plan(model, plan)
        assert model.freeze["enc0"] and model.freeze["enc2"]
        assert not model.freeze["enc1"] and not model.freeze["enc3"]
        assert model.freeze["embed"]  # follows layer 0
        assert not model.freeze["head"]

    def test_embedding_tracks_layer_zero_only(self):
        _, _, model, _ = transfer_fixture()
        plan = FreezePlan(rho=0.25, layer_mmd=[0.0] * 4, frozen=[1],
                          variance_source=[0.0] * 4, variance_target=[0.0] * 4)
        apply_freeze_plan(model, plan)
        assert not model.freeze["embed"]


class TestFineTune:
    def test_frozen_layers_bitwise_unchanged(self):
        _, _, model, bank = transfer_fixture()
        feats = bank.take(bank.pixels[:20])[0]
        plan = freeze_plan(model, feats, feats, 0.5)
        before = {
            name: p.data.tobytes() for name, p in model.parameters().items()
        }
        feats, targets = bank.take(bank.pixels[:30])[0], bank.targets[:30]
        fine_tune(model, feats, targets + 1, plan,
                  TrainConfig(epochs=2, batch_size=8, seed=0), n_classes=3)
        frozen_groups = {f"enc{i}" for i in plan.frozen} | {"embed"}
        for name, p in model.parameters().items():
            if model.group_of(name) in frozen_groups:
                assert p.data.tobytes() == before[name], name
        assert model.parameters()["head.w2"].data.tobytes() != before["head.w2"]

    def test_zero_epochs_changes_nothing(self):
        _, _, model, bank = transfer_fixture()
        feats = bank.take(bank.pixels[:10])[0]
        plan = freeze_plan(model, feats, feats, 0.0)
        before = {name: p.data.tobytes() for name, p in model.parameters().items()}
        fine_tune(model, feats, bank.targets[:10] + 1, plan,
                  TrainConfig(epochs=0), n_classes=3)
        for name, p in model.parameters().items():
            assert p.data.tobytes() == before[name]

    def test_class_count_mismatch_resets_head(self):
        _, _, model, bank = transfer_fixture()
        feats = bank.take(bank.pixels[:10])[0]
        plan = freeze_plan(model, feats, feats, 0.0)
        targets = np.minimum(bank.targets[:30], 1)  # pretend two classes only
        fine_tune(model, bank.take(bank.pixels[:30])[0], targets + 1, plan,
                  TrainConfig(epochs=1, batch_size=8), n_classes=2)
        assert model.config.n_classes == 2
        assert model.head_w2.shape == (8, 2)


class TestRunTransfer:
    def test_report_structure(self):
        source_cube, source_labels = synth_cube(3, 12, 12, 8, noise=0.2, seed=0)
        target_cube, target_labels = synth_cube(
            3, 12, 12, 8, noise=0.2, shift=np.pi / 2, seed=1
        )
        cfg = SstConfig(bands=8, n_classes=3, window=4, subpatch=2,
                        d_model=8, n_layers=2, n_heads=2)
        model = init_model(cfg, seed=0)
        model, doc = run_transfer(
            model, source_cube, source_labels, target_cube, target_labels,
            rho=0.5, mmd_cfg=MmdConfig(sample_count=32),
            train_cfg=TrainConfig(epochs=1, batch_size=8, seed=0),
            target_fraction=0.2, seed=3,
        )
        assert set(doc) >= {"per_layer_mmd", "frozen", "zero_shot",
                            "fine_tuned", "per_layer_variance"}
        assert len(doc["per_layer_mmd"]) == 2
        assert doc["zero_shot"] is not None
        assert 0.0 <= doc["fine_tuned"]["oa"] <= 1.0

    def test_bad_fraction_rejected(self):
        cube, labels = synth_cube(3, 12, 12, 8, seed=0)
        cfg = SstConfig(bands=8, n_classes=3, window=4, subpatch=2,
                        d_model=8, n_layers=2, n_heads=2)
        model = init_model(cfg, seed=0)
        with pytest.raises(ValueError):
            run_transfer(model, cube, labels, cube, labels, rho=0.5,
                         mmd_cfg=MmdConfig(), train_cfg=TrainConfig(epochs=0),
                         target_fraction=0.0)

    def test_band_count_mismatch_rejected(self):
        source_cube, source_labels = synth_cube(3, 12, 12, 8, seed=0)
        target_cube, target_labels = synth_cube(3, 12, 12, 10, seed=1)
        cfg = SstConfig(bands=8, n_classes=3, window=4, subpatch=2,
                        d_model=8, n_layers=2, n_heads=2)
        model = init_model(cfg, seed=0)
        with pytest.raises(DimensionError, match="band counts differ"):
            run_transfer(model, source_cube, source_labels,
                         target_cube, target_labels, rho=0.5,
                         mmd_cfg=MmdConfig(), train_cfg=TrainConfig(epochs=0))

    @pytest.mark.parametrize("side", ["source", "target"])
    def test_label_map_of_another_extent_rejected(self, side):
        cube, labels = synth_cube(3, 12, 12, 8, seed=0)
        _, small_labels = synth_cube(3, 10, 10, 8, seed=1)
        cfg = SstConfig(bands=8, n_classes=3, window=4, subpatch=2,
                        d_model=8, n_layers=2, n_heads=2)
        pairs = {"source": (cube, labels), "target": (cube, labels)}
        pairs[side] = (cube, small_labels)
        with pytest.raises(DimensionError, match="label map is 10x10 but the cube is 12x12"):
            run_transfer(init_model(cfg, seed=0), *pairs["source"], *pairs["target"],
                         rho=0.5, mmd_cfg=MmdConfig(), train_cfg=TrainConfig(epochs=0))
