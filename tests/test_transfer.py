"""Discrepancy estimates against closed forms and a permutation null,
freeze-plan arithmetic, and fine-tuning's freeze contract."""

import copy
import json
import tracemalloc

import numpy as np
import pytest
from conftest import (
    layer_features,
    median_bandwidth_oracle,
    median_partition_oracle,
    mmd_oracle,
    pooled_sq_dists,
    pooled_sq_dists_oracle,
)

from hsiatl import model as model_module
from hsiatl import transfer as transfer_module
from hsiatl.data import PIECE_VALUES, DimensionError, make_split, synth_cube
from hsiatl.model import NumericalError, SstConfig, encode_prefix, init_model, unfold
from hsiatl.training import TrainConfig, WindowBank, evaluate, train_model
from hsiatl.transfer import (
    FineTuneError,
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


# ``mmd`` adds its piece sums in piece order, the oracle each whole block
# along numpy's pairwise tree, so the two differ in the last digits: by at
# most 3.6e-12 relative in 69 shape and kernel cases whose MMD was above
# 1e-10. The absolute floor covers an MMD that cancels to near 0.
MMD_RTOL, MMD_ATOL = 1e-10, 1e-13


def assert_close_to_oracle(got, expected):
    assert got == pytest.approx(expected, rel=MMD_RTOL, abs=MMD_ATOL)


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


class TestMmdAgainstPooledOracle:
    """The bandwidth from the range-built pooled distances equals the one
    from the whole pooled distance matrix, bit for bit."""

    @pytest.mark.parametrize("n, m", [(1024, 1016), (520, 1024)])
    def test_pooled_distances_bitwise_equal_to_whole_block(self, n, m):
        # every pair, not only the median; both counts are multiples of 8
        rng = np.random.default_rng(n * 7919 + m)
        x = rng.normal(size=(n, 56))
        y = rng.normal(size=(m, 56)) + 0.4
        got = np.sort(pooled_sq_dists(x, y))
        assert got.tobytes() == np.sort(pooled_sq_dists_oracle(x, y)).tobytes()

    # Where a count is not a multiple of 8, only the median is compared. The
    # BLAS kernels (OpenBLAS's Haswell ones, for one) work in tiles of 8
    # rows or columns, and the rows left over take other kernels that round
    # differently; so a pair's squared distance can differ in the last bit
    # between a 256-row range and the whole block, as between a symmetric
    # product and a general one. Tens of pairs per million differ at
    # 1000 x 1023 rows; the median is not among them.
    @pytest.mark.parametrize(
        "n, m", [(1024, 1024), (1000, 1023), (256, 256), (129, 300), (7, 5), (2, 2)]
    )
    def test_median_heuristic_bitwise_equal(self, n, m):
        rng = np.random.default_rng(n * 7919 + m)
        x = rng.normal(size=(n, 12))
        y = rng.normal(size=(m, 12)) + 0.4
        assert median_bandwidth(x, y) == median_bandwidth_oracle(x, y)
        assert_close_to_oracle(mmd(x, y), mmd_oracle(x, y, MmdConfig()))

    def test_identical_rows_fall_back_to_unit_bandwidth(self):
        x = np.full((6, 4), 2.5)
        y = np.full((3, 4), 2.5)
        assert median_bandwidth(x, y) == median_bandwidth_oracle(x, y) == 1.0
        assert_close_to_oracle(mmd(x, y), mmd_oracle(x, y, MmdConfig()))

    @pytest.mark.parametrize("cfg", [MmdConfig(bandwidth=0.7), MmdConfig(kernel="linear")])
    def test_fixed_bandwidth_and_linear_kernel_unchanged(self, cfg):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(40, 5))
        y = rng.normal(size=(33, 5)) + 0.3
        assert_close_to_oracle(mmd(x, y, cfg), mmd_oracle(x, y, cfg))


PIECE = PIECE_VALUES


class TestMmdRowRanges:
    """The pooled distances and the kernel sums are built a row range at a
    time; the bandwidth stays the pooled oracle's, and the statistic
    within the stated tolerance of it."""

    @pytest.mark.parametrize(
        "n, m",
        [
            # odd counts: each last range is short, and the triangles' and
            # the cross pairs' ranges differ
            (257, 300),
            (513, 257),
            (769, 40),
            (40, 513),
            (255, 100),
            (3, 255),
        ],
    )
    def test_median_heuristic_equals_pooled_oracle(self, n, m):
        rng = np.random.default_rng(n * 104729 + m)
        x = rng.normal(size=(n, 12))
        y = rng.normal(size=(m, 12)) + 0.4
        assert median_bandwidth(x, y) == median_bandwidth_oracle(x, y)
        assert_close_to_oracle(mmd(x, y), mmd_oracle(x, y, MmdConfig()))

    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 513, 1024])
    def test_ranges_cover_the_rows_without_a_lone_row(self, n):
        for width in (1, 7, n, 1001, PIECE // 8, PIECE // 8 + 1, PIECE, 4 * PIECE):
            ranges = transfer_module._row_ranges(n, width)
            assert ranges[0][0] == 0 and ranges[-1][1] == n
            assert all(e == s for (_, e), (s, _) in zip(ranges, ranges[1:]))
            assert all(s % 8 == 0 for s, _ in ranges)
            sizes = [e - s for s, e in ranges]
            step = max(8, PIECE // width)
            assert all(size <= step for size in sizes[:-1]) and sizes[-1] <= step + 1
            assert n == 1 or min(sizes) >= 2

    @pytest.mark.parametrize("rows, limit_mib", [
        # 4.2-4.4 MiB: the bracket's values (about 2 MiB) and two pieces in
        # flight; one whole 8 MiB kernel block at a time peaked at 10.1 MiB
        (1024, 6),
        # 35.6 MiB, nearly all of it the bracket's values; one whole 128 MiB
        # kernel block at a time peaked at 136 MiB
        (4096, 44),
    ])
    def test_one_call_holds_bounded_pieces_and_the_bracketed_values(
        self, monkeypatch, rows, limit_mib
    ):
        # two pieces in flight, as on a 2-CPU host, whatever this host has
        monkeypatch.setattr(model_module, "_cpu_count", lambda: 2)
        rng = np.random.default_rng(3)
        x = rng.normal(size=(rows, 56))
        y = rng.normal(size=(rows, 56)) + 0.2
        tracemalloc.start()
        try:
            mmd(x, y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit_mib << 20, peak


class TestMmdLeaves:
    """``median_bandwidth`` from pieces run on any number of threads is
    bitwise its whole-block oracle at odd shapes; ``mmd`` is bitwise the
    same on every CPU count and call, and within the stated tolerance of
    its oracle."""

    @pytest.mark.parametrize("width", [56, 57])
    @pytest.mark.parametrize("n, m", [(257, 511), (1000, 1001), (1023, 1025)])
    def test_bitwise_equal_to_oracles_on_any_cpu_count(self, monkeypatch, n, m, width):
        rng = np.random.default_rng(n * 7919 + m + width)
        x = rng.normal(size=(n, width))
        y = rng.normal(size=(m, width)) + 0.3
        bandwidth = median_bandwidth_oracle(x, y)
        configs = (MmdConfig(), MmdConfig(kernel="linear"))
        results = []
        for cpus in (1, 2, 4):
            monkeypatch.setattr(model_module, "_cpu_count", lambda: cpus)
            assert median_bandwidth(x, y) == bandwidth
            for _ in range(2):  # the same on a repeated call
                results.append([mmd(x, y, cfg) for cfg in configs])
            assert [mmd(x, x, cfg) for cfg in configs] == [0.0, 0.0]
        assert all(got == results[0] for got in results)
        for value, cfg in zip(results[0], configs):
            assert_close_to_oracle(value, mmd_oracle(x, y, cfg))

    def test_every_pass_walks_the_pooled_pieces(self, monkeypatch):
        # one RBF call: the bracket's sample, one bracket pass (the sample
        # does not mislead on these rows) and the kernel pass
        rng = np.random.default_rng(12)
        x = rng.normal(size=(300, 56))
        y = rng.normal(size=(257, 56)) + 0.3
        handed = []
        map_pieces = transfer_module._map_pieces

        def spy(fn, pieces):
            handed.append(pieces)
            return map_pieces(fn, pieces)

        monkeypatch.setattr(transfer_module, "_map_pieces", spy)
        mmd(x, y)

        def layout(pieces):
            return [(np.shape(r), np.asarray(r).tobytes(), np.shape(c),
                     np.asarray(c).tobytes(), upper) for r, c, upper in pieces]

        sample = transfer_module._pooled_pieces(x[::8], y[::8])
        pooled = transfer_module._pooled_pieces(x, y)
        assert [layout(pieces) for pieces in handed] == [
            layout(sample), layout(pooled), layout(pooled)
        ]


def whole_block_sq_dists(a, b):
    """``_pairwise_sq_dists`` as one expression over whole blocks."""
    aa = (a * a).sum(axis=1)[:, None]
    bb = (b * b).sum(axis=1)[None, :]
    out = aa + bb - 2.0 * (a @ b.T)
    return np.maximum(out, 0.0, out=out)


class TestStreamedMedian:
    """The bracketed median is bitwise the whole-array partition's."""

    @staticmethod
    def spy_passes(monkeypatch) -> list[int]:
        passes = []
        bracket = transfer_module._ranks_in_bracket

        def spy(x, y, lo, hi):
            below, inside = bracket(x, y, lo, hi)
            passes.append(inside.size)
            return below, inside

        monkeypatch.setattr(transfer_module, "_ranks_in_bracket", spy)
        return passes

    @pytest.mark.parametrize("n, m", [
        (300, 301),  # 45150 + 45150 + 90300 values: even
        (300, 302),  # odd
        (2, 2), (2, 3), (9, 17), (257, 40), (40, 513),
    ])
    def test_bitwise_equal_to_whole_array_partition(self, monkeypatch, n, m):
        passes = self.spy_passes(monkeypatch)
        rng = np.random.default_rng(n * 31 + m)
        x = rng.normal(size=(n, 12))
        y = rng.normal(size=(m, 12)) + 0.4
        assert median_bandwidth(x, y) == median_partition_oracle(x, y)
        assert len(passes) == 1
        count = n * (n - 1) // 2 + m * (m - 1) // 2 + n * m
        assert count < 10**4 or passes[0] < count / 3  # the bracket keeps a part

    def test_ties(self):
        # small integer rows: every distance is one of a few values
        rng = np.random.default_rng(5)
        for n, m in ((200, 201), (200, 202), (64, 65)):
            x = rng.integers(0, 3, size=(n, 4)).astype(float)
            y = rng.integers(0, 3, size=(m, 4)).astype(float)
            assert median_bandwidth(x, y) == median_partition_oracle(x, y) != 1.0

    @pytest.mark.parametrize("n, m", [(20, 21), (20, 22)])
    def test_all_zeros_fall_back_to_unit_bandwidth(self, n, m):
        x, y = np.zeros((n, 3)), np.zeros((m, 3))
        assert median_bandwidth(x, y) == median_partition_oracle(x, y) == 1.0

    @pytest.mark.parametrize("nan_rows, unit", [
        ((3,), False),  # few NaN pairs: the median is finite
        (tuple(range(0, 60, 2)), True),  # most pairs NaN: the median is NaN
    ])
    def test_nan_rows_rank_last(self, nan_rows, unit):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(60, 5))
        y = rng.normal(size=(41, 5))
        x[list(nan_rows)] = np.nan
        with np.errstate(invalid="ignore"):
            got = median_bandwidth(x, y)
            assert got == median_partition_oracle(x, y)
        assert (got == 1.0) == unit

    def test_upper_middle_rank_nan(self):
        # 6 values, x's first row NaN: ranks 0-2 finite, ranks 3-5 NaN, so the
        # upper middle value is NaN and the bandwidth falls back to 1.0
        x = np.array([[np.nan, 0.0], [0.0, 0.0]])
        y = np.array([[1.0, 0.0], [0.0, 2.0]])
        with np.errstate(invalid="ignore"):
            assert median_bandwidth(x, y) == median_partition_oracle(x, y) == 1.0

    @pytest.mark.parametrize("sampled_rows_are", ["far", "close"])
    def test_bracket_widens_when_the_sample_misleads(self, monkeypatch, sampled_rows_are):
        # the strided sample sees only rows 0, 8, 16, ...; far apart, they
        # put the bracket above the middle ranks, bunched up, below them
        passes = self.spy_passes(monkeypatch)
        rng = np.random.default_rng(4)
        x = rng.normal(size=(400, 6))
        y = rng.normal(size=(401, 6)) + 0.3
        stride = transfer_module._SAMPLE_STRIDE
        if sampled_rows_are == "far":
            x[::stride] *= 50.0
            y[::stride] *= 50.0
        else:
            x[::stride] = 0.0
            y[::stride] = 0.0
        assert median_bandwidth(x, y) == median_partition_oracle(x, y)
        assert len(passes) > 1


class TestPairwiseSqDists:
    @pytest.mark.parametrize("n, m", [(7, 5), (300, 257), (513, 99), (1, 9), (9, 1)])
    def test_bitwise_equal_to_whole_block_expression(self, n, m):
        # counts that are not multiples of 8 take BLAS's edge kernels, and
        # more than one 256-row range splits the subtraction
        rng = np.random.default_rng(n + 1000 * m)
        a = rng.normal(size=(n, 56))
        b = rng.normal(size=(m, 56)) + 0.2
        got = transfer_module._pairwise_sq_dists(a, b)
        assert got.tobytes() == whole_block_sq_dists(a, b).tobytes()
        # a sample against itself takes the symmetric product
        got = transfer_module._pairwise_sq_dists(a, a)
        assert got.tobytes() == whole_block_sq_dists(a, a).tobytes()


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
        assert model.params["head.w2"].shape == (8, 2)


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

    def test_holds_no_test_token_array(self, monkeypatch):
        # 1439 test windows of 16 tokens of width 56 would take 9.8 MiB of
        # frozen-prefix tokens; the one scoring pass of both models builds
        # none (holding them peaked near 15 MiB on one CPU)
        monkeypatch.setattr(model_module, "_cpu_count", lambda: 1)
        source_cube, source_labels = synth_cube(3, 12, 12, 8, noise=0.2, seed=0)
        target_cube, target_labels = synth_cube(3, 40, 40, 8, noise=0.2, shift=1.0, seed=1)
        cfg = SstConfig(bands=8, n_classes=3, n_layers=2, dropout=0.0)
        tracemalloc.start()
        try:
            _, doc = run_transfer(
                init_model(cfg, seed=0), source_cube, source_labels, target_cube, target_labels,
                rho=1.0, mmd_cfg=MmdConfig(sample_count=16), train_cfg=TrainConfig(epochs=0),
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert doc["frozen"] == [0, 1] and doc["zero_shot"] is not None
        tokens = doc["fine_tuned"]["n_samples"] * cfg.n_tokens * cfg.d_model * 8
        assert peak < tokens, (peak, tokens)

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


class TestFailureAttribution:
    """A non-finite pass of the source model raises NumericalError; one of
    fine-tuning or the tuned scores raises FineTuneError."""

    @staticmethod
    def transfer(model, lr=0.001):
        cube, labels = synth_cube(3, 12, 12, 8, noise=0.2, seed=0)
        return run_transfer(model, cube, labels, cube, labels, rho=0.5,
                            mmd_cfg=MmdConfig(sample_count=16),
                            train_cfg=TrainConfig(epochs=2, batch_size=8, lr=lr),
                            target_fraction=0.2)

    def test_diverging_fine_tuning(self):
        _, _, model, _ = transfer_fixture()
        with pytest.raises(FineTuneError, match="loss became nan"):
            self.transfer(model, lr=1e300)

    def test_source_whose_own_scores_fail(self):
        # the encoder stays finite, so the freeze plan's capture passes; the
        # head overflows, so fine-tuning fails first, then the source's own
        # zero-shot scores do
        _, _, model, _ = transfer_fixture()
        for name in ("head.b1", "head.w2"):
            model.params[name].data[...] = 1e300
        with pytest.raises(NumericalError, match="class probabilities are not finite") as err:
            self.transfer(model)
        assert not isinstance(err.value, FineTuneError)


def plan_of(frozen, n_layers=4):
    return FreezePlan(rho=len(frozen) / n_layers, layer_mmd=[0.0] * n_layers,
                      frozen=frozen, variance_source=[0.0] * n_layers,
                      variance_target=[0.0] * n_layers)


class TestFrozenPrefix:
    """The plan's frozen prefix runs once; results match the uncached path
    (the prefix length forced to 0) bit for bit when dropout is 0."""

    @staticmethod
    def spy_prefix(monkeypatch) -> list[int]:
        calls = []

        def spy(model, features, n_blocks):
            calls.append(n_blocks)
            return encode_prefix(model, features, n_blocks)

        monkeypatch.setattr(transfer_module, "encode_prefix", spy)
        return calls

    @pytest.mark.parametrize("frozen", [[0, 1], [0, 1, 2, 3]])
    def test_fine_tune_bitwise_equal_to_uncached(self, monkeypatch, frozen):
        _, _, model, bank = transfer_fixture()
        feats, targets = bank.take(bank.pixels[:30])
        cfg = TrainConfig(epochs=2, batch_size=8, seed=0)

        def tuned() -> bytes:
            adapted = fine_tune(copy.deepcopy(model), feats, targets + 1,
                                plan_of(frozen), cfg, n_classes=3)
            return b"".join(p.data.tobytes() for p in adapted.parameters().values())

        calls = self.spy_prefix(monkeypatch)
        cached = tuned()
        assert calls == [len(frozen)]
        monkeypatch.setattr(transfer_module, "_frozen_prefix", lambda plan: 0)
        assert tuned() == cached

    @pytest.mark.parametrize("rho", [0.5, 1.0])
    def test_run_transfer_report_bitwise_equal_to_uncached(self, monkeypatch, rho):
        source_cube, source_labels = synth_cube(3, 12, 12, 8, noise=0.2, seed=0)
        target_cube, target_labels = synth_cube(3, 12, 12, 8, noise=0.2, shift=1.0, seed=1)
        _, _, model, _ = transfer_fixture()

        def transfer():
            adapted, doc = run_transfer(
                copy.deepcopy(model), source_cube, source_labels,
                target_cube, target_labels, rho=rho,
                mmd_cfg=MmdConfig(sample_count=32),
                train_cfg=TrainConfig(epochs=2, batch_size=8, seed=0),
                target_fraction=0.2, seed=3,
            )
            params = b"".join(p.data.tobytes() for p in adapted.parameters().values())
            return json.dumps(doc, sort_keys=True), params

        calls = self.spy_prefix(monkeypatch)
        cached = transfer()
        frozen = json.loads(cached[0])["frozen"]
        prefix = transfer_module._frozen_prefix(plan_of(frozen))
        assert prefix > 0
        # tuning windows only: the test windows' prefix runs inside the one
        # scoring pass of both models
        assert calls == [prefix]
        monkeypatch.setattr(transfer_module, "_frozen_prefix", lambda plan: 0)
        assert transfer() == cached

    def test_one_pass_scores_are_each_models_own(self):
        # the zero-shot row is the source model's own evaluation and the
        # tuned row the adapted model's, though one pass shares the prefix
        source_cube, source_labels = synth_cube(3, 12, 12, 8, noise=0.2, seed=0)
        target_cube, target_labels = synth_cube(3, 12, 12, 8, noise=0.2, shift=1.0, seed=1)
        _, _, model, _ = transfer_fixture()
        source = copy.deepcopy(model)
        tuned, doc = run_transfer(
            model, source_cube, source_labels, target_cube, target_labels, rho=0.5,
            mmd_cfg=MmdConfig(sample_count=32),
            train_cfg=TrainConfig(epochs=2, batch_size=8, seed=0),
            target_fraction=0.2, seed=3,
        )
        assert transfer_module._frozen_prefix(plan_of(doc["frozen"])) > 0
        split = make_split(target_labels, (0.2, 0.0, 0.8), seed=3)
        bank = WindowBank(target_cube, target_labels, 4, 2)
        windows, targets = bank.windows(split.test)
        assert doc["zero_shot"] == evaluate(source, windows, targets + 1).as_dict()
        assert doc["fine_tuned"] == evaluate(tuned, windows, targets + 1).as_dict()
        assert doc["zero_shot"] != doc["fine_tuned"]

    def test_plan_leaving_layer_zero_trainable_caches_nothing(self, monkeypatch):
        _, _, model, bank = transfer_fixture()
        calls = self.spy_prefix(monkeypatch)
        starts = []

        def train_spy(*args, from_block=0, **kwargs):
            starts.append(from_block)
            return train_model(*args, from_block=from_block, **kwargs)

        monkeypatch.setattr(transfer_module, "train_model", train_spy)
        feats, targets = bank.take(bank.pixels[:20])
        fine_tune(model, feats, targets + 1, plan_of([1]),
                  TrainConfig(epochs=1, batch_size=8), n_classes=3)
        assert calls == [] and starts == [0]

    @pytest.mark.parametrize("frozen, expected", [
        ([], 0), ([1], 0), ([1, 2], 0), ([0], 1), ([0, 2], 1), ([0, 1, 3], 2), ([0, 1, 2, 3], 4),
    ])
    def test_prefix_is_the_unbroken_run_from_layer_zero(self, frozen, expected):
        assert transfer_module._frozen_prefix(plan_of(frozen)) == expected
