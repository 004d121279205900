"""Acquisition scoring against closed forms and brute force, ranking
tie-breaks, hybrid degeneracies, and pool bookkeeping."""

import numpy as np
import pytest
from conftest import diversity_oracle, neighborhood_spectra

from hsiatl.data import HsiCube, extract_windows_batch, synth_cube
from hsiatl.model import SstConfig, init_model, unfold
from hsiatl.queries import (
    QueryConfig,
    al_round,
    entropy_scores,
    hybrid_query,
    margin_scores,
    neighborhood_diversity,
    neighborhood_diversity_batch,
    query_pool,
    select_top,
    uncertainty_scores,
)


class TestScores:
    def test_uncertainty_uniform_and_onehot(self):
        probs = np.array([[0.25, 0.25, 0.25, 0.25], [1.0, 0.0, 0.0, 0.0]])
        np.testing.assert_allclose(uncertainty_scores(probs), [-0.25, -1.0])

    def test_uncertainty_range(self):
        rng = np.random.default_rng(42)
        raw = rng.dirichlet(np.ones(5), size=200)
        scores = uncertainty_scores(raw)
        assert (scores >= -1.0).all() and (scores <= -1.0 / 5).all()

    def test_uncertainty_column_permutation_invariant(self):
        rng = np.random.default_rng(1)
        probs = rng.dirichlet(np.ones(4), size=50)
        permuted = probs[:, [2, 0, 3, 1]]
        np.testing.assert_array_equal(
            uncertainty_scores(probs), uncertainty_scores(permuted)
        )

    def test_entropy_closed_forms(self):
        probs = np.array([[0.5, 0.5], [1.0, 0.0]])
        np.testing.assert_allclose(entropy_scores(probs), [np.log(2), 0.0], atol=1e-12)

    def test_margin_closed_forms(self):
        probs = np.array([[0.6, 0.4], [0.9, 0.1]])
        np.testing.assert_allclose(margin_scores(probs), [-0.2, -0.8], atol=1e-12)

    def test_margin_needs_two_classes(self):
        with pytest.raises(ValueError):
            margin_scores(np.ones((3, 1)))

    def test_row_sums_validated(self):
        for fn in (uncertainty_scores, entropy_scores, margin_scores):
            with pytest.raises(ValueError):
                fn(np.array([[0.7, 0.7]]))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            uncertainty_scores(np.zeros((0, 3)))

    def test_all_agree_on_binary_ranking(self):
        # for two classes every score is a monotone function of max-prob,
        # so the three rankings coincide
        rng = np.random.default_rng(9)
        probs = rng.dirichlet(np.ones(2), size=30)
        u_rank = np.argsort(uncertainty_scores(probs))
        e_rank = np.argsort(entropy_scores(probs))
        m_rank = np.argsort(margin_scores(probs))
        np.testing.assert_array_equal(u_rank, e_rank)
        np.testing.assert_array_equal(u_rank, m_rank)


class TestNeighborhoodDiversity:
    def test_constant_window_is_zero(self):
        cube = HsiCube(np.ones((5, 5, 4)))
        assert neighborhood_diversity(cube, (2, 2), 3) == 0.0

    def test_single_pixel_window_is_zero(self):
        cube = HsiCube(np.random.default_rng(0).normal(size=(5, 5, 4)))
        assert neighborhood_diversity(cube, (2, 2), 1) == 0.0

    def test_five_four_arrangement_closed_form(self):
        # five spectra at a, four at b with |a-b| = delta: of the 72 ordered
        # pairs 40 cross the groups, so the mean distance is (40/72) delta
        delta = 2.5
        data = np.zeros((3, 3, 1))
        data[0, :, 0] = 1.0
        data[1, 0, 0] = 1.0
        data[1, 1, 0] = 1.0  # five ones
        data[1, 2, 0] = 1.0 + delta
        data[2, :, 0] = 1.0 + delta  # four offset by delta
        cube = HsiCube(data)
        got = neighborhood_diversity(cube, (1, 1), 3)
        np.testing.assert_allclose(got, 40.0 * delta / 72.0, rtol=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(42)
        cube = HsiCube(rng.normal(size=(7, 6, 5)))
        for pixel in [(0, 0), (3, 2), (6, 5), (1, 4)]:
            got = neighborhood_diversity(cube, pixel, 3)
            spectra = neighborhood_spectra(cube, pixel, 3)
            acc = 0.0
            for j in range(9):
                for k in range(9):
                    if j != k:
                        acc += np.linalg.norm(spectra[j] - spectra[k])
            np.testing.assert_allclose(got, acc / 72.0, rtol=1e-12)

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(5, 5, 6))
        one = neighborhood_diversity(HsiCube(base), (2, 2), 3)
        scaled = neighborhood_diversity(HsiCube(base * 3.0), (2, 2), 3)
        np.testing.assert_allclose(scaled, 3.0 * one, rtol=1e-12)

    def test_flat_index_matches_tuple(self):
        rng = np.random.default_rng(5)
        cube = HsiCube(rng.normal(size=(6, 7, 3)))
        assert neighborhood_diversity(cube, 2 * 7 + 3, 3) == neighborhood_diversity(
            cube, (2, 3), 3
        )

    def test_border_uses_mirror_padding(self):
        rng = np.random.default_rng(8)
        cube = HsiCube(rng.normal(size=(5, 5, 2)))
        spectra = neighborhood_spectra(cube, (0, 0), 3)
        np.testing.assert_array_equal(spectra[0], cube.data[1, 1])
        np.testing.assert_array_equal(spectra[4], cube.data[0, 0])

    def test_even_neighborhood_rejected(self):
        cube = HsiCube(np.ones((4, 4, 2)))
        with pytest.raises(ValueError):
            neighborhood_diversity(cube, (1, 1), 2)

    def test_pixel_outside_cube_rejected(self):
        cube = HsiCube(np.ones((4, 5, 2)))
        for pixel in [(4, 0), (0, 5), (-1, 2), (2, -1), 20, -1]:
            with pytest.raises(ValueError):
                neighborhood_diversity(cube, pixel, 3)
        with pytest.raises(ValueError):
            neighborhood_diversity_batch(cube, np.array([3, 20]), 3)

    def test_batch_byte_equal_to_per_pixel_oracle(self):
        # every pixel of cubes down to 1x1, neighborhoods wider than the cube
        rng = np.random.default_rng(12)
        for rows in range(1, 8):
            for cols in range(1, 8):
                cube = HsiCube(rng.normal(size=(rows, cols, 3)))
                pixels = np.arange(rows * cols)
                for n in (1, 3, 5, 7):
                    got = neighborhood_diversity_batch(cube, pixels, n)
                    expected = np.array(
                        [diversity_oracle(cube, divmod(int(p), cols), n) for p in pixels]
                    )
                    assert got.tobytes() == expected.tobytes(), (rows, cols, n)

    def test_batch_of_no_pixels(self):
        cube = HsiCube(np.ones((4, 4, 2)))
        assert neighborhood_diversity_batch(cube, np.zeros(0, dtype=np.int64), 3).shape == (0,)


class TestSelectTop:
    def test_basic_ranking(self):
        np.testing.assert_array_equal(
            select_top(np.array([0.1, 0.9, 0.5]), 2), [1, 2]
        )

    def test_ties_break_to_lower_index(self):
        np.testing.assert_array_equal(
            select_top(np.array([0.5, 0.9, 0.5, 0.9]), 3), [1, 3, 0]
        )

    def test_k_clamped_to_length(self):
        np.testing.assert_array_equal(select_top(np.array([2.0, 1.0]), 10), [0, 1])

    def test_matches_exhaustive_oracle(self):
        # the chosen set must have maximal total score among all k-subsets
        from itertools import combinations

        rng = np.random.default_rng(42)
        for _ in range(20):
            scores = rng.normal(size=7)
            k = int(rng.integers(1, 4))
            picked = select_top(scores, k)
            best = max(sum(scores[list(c)]) for c in combinations(range(7), k))
            np.testing.assert_allclose(scores[picked].sum(), best, rtol=1e-12)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            select_top(np.array([1.0]), -1)


def trained_free_model(cube, n_classes, seed=0):
    cfg = SstConfig(
        bands=cube.bands, n_classes=n_classes, window=4, subpatch=2,
        d_model=8, n_layers=1, n_heads=2,
    )
    return init_model(cfg, seed=seed)


class TestQueryStrategies:
    def setup_method(self):
        self.cube, self.labels = synth_cube(3, 12, 12, 6, noise=0.3, seed=42)
        self.pool = self.labels.labeled_indices()[10:100]
        self.model = trained_free_model(self.cube, 3)

    def test_hybrid_result_contract(self):
        cfg = QueryConfig(query_size=5, beta=3)
        res = hybrid_query(self.model, self.cube, self.pool, cfg)
        assert res.selected.size == 5
        assert np.unique(res.selected).size == 5
        assert np.isin(res.selected, self.pool).all()
        assert (np.diff(res.diversity) <= 1e-12).all()

    def test_hybrid_query_size_capped_by_pool(self):
        cfg = QueryConfig(query_size=500)
        res = hybrid_query(self.model, self.cube, self.pool, cfg)
        np.testing.assert_array_equal(np.sort(res.selected), np.sort(self.pool))

    def test_hybrid_with_huge_beta_equals_diversity_only(self):
        cfg = QueryConfig(query_size=6, beta=1000)
        hybrid = hybrid_query(self.model, self.cube, self.pool, cfg)
        div_cfg = QueryConfig(query_size=6, strategy="diversity_only")
        alone = query_pool(self.model, self.cube, self.labels, self.pool, div_cfg)
        np.testing.assert_array_equal(hybrid.selected, alone.selected)

    def test_hybrid_with_unit_neighborhood_is_pure_uncertainty(self):
        cfg = QueryConfig(query_size=6, n_neighborhood=1, beta=5)
        hybrid = hybrid_query(self.model, self.cube, self.pool, cfg)
        unc_cfg = QueryConfig(query_size=6, strategy="uncertainty")
        alone = query_pool(self.model, self.cube, self.labels, self.pool, unc_cfg)
        np.testing.assert_array_equal(hybrid.selected, alone.selected)

    @pytest.mark.parametrize("strategy", ["hybrid", "uncertainty", "entropy", "margin"])
    def test_given_windows_pick_what_gathered_ones_do(self, strategy):
        cfg = QueryConfig(query_size=6, beta=2, strategy=strategy)
        window, subpatch = self.model.config.window, self.model.config.subpatch
        features = unfold(extract_windows_batch(self.cube, self.pool, window), subpatch)
        given = query_pool(self.model, self.cube, self.labels, self.pool, cfg,
                           features=features)
        gathered = query_pool(self.model, self.cube, self.labels, self.pool, cfg)
        for field in ("selected", "informativeness", "diversity"):
            assert getattr(given, field).tobytes() == getattr(gathered, field).tobytes()
        if strategy == "hybrid":
            direct = hybrid_query(self.model, self.cube, self.pool, cfg)
            assert direct.selected.tobytes() == gathered.selected.tobytes()

    def test_hybrid_finds_planted_boundary_pixel(self):
        # a model that is clueless everywhere ranks uniformly; plant a pixel
        # whose neighborhood is wildly heterogeneous and it must win
        data = np.ones((8, 8, 4))
        data[3, 3] = 50.0
        cube = HsiCube(data)
        model = trained_free_model(cube, 3)
        pool = np.arange(64)
        cfg = QueryConfig(query_size=1, beta=64)
        res = hybrid_query(model, cube, pool, cfg)
        neighbors = {(3 + dr) * 8 + (3 + dc)
                     for dr in (-1, 0, 1) for dc in (-1, 0, 1)}
        assert res.selected[0] in neighbors

    def test_random_strategy_deterministic_given_seed(self):
        cfg = QueryConfig(query_size=8, strategy="random")
        a = query_pool(self.model, self.cube, self.labels, self.pool, cfg,
                       rng=np.random.default_rng(7))
        b = query_pool(self.model, self.cube, self.labels, self.pool, cfg,
                       rng=np.random.default_rng(7))
        np.testing.assert_array_equal(a.selected, b.selected)
        assert np.isin(a.selected, self.pool).all()
        assert np.unique(a.selected).size == 8

    def test_random_strategy_needs_rng(self):
        cfg = QueryConfig(query_size=2, strategy="random")
        with pytest.raises(ValueError):
            query_pool(self.model, self.cube, self.labels, self.pool, cfg)

    def test_probability_strategies_rank_by_their_score(self):
        for strategy in ("uncertainty", "entropy", "margin"):
            cfg = QueryConfig(query_size=4, strategy=strategy)
            res = query_pool(self.model, self.cube, self.labels, self.pool, cfg)
            assert res.selected.size == 4
            assert (np.diff(res.informativeness) <= 1e-12).all()

    def test_empty_pool_rejected(self):
        cfg = QueryConfig(query_size=1)
        with pytest.raises(ValueError):
            query_pool(self.model, self.cube, self.labels, np.array([]), cfg)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            QueryConfig(query_size=1, strategy="oracle")


class TestAlRound:
    def test_moves_queried_pixels(self):
        train, pool = al_round(
            np.array([1, 5]), np.array([2, 3, 4, 6]), np.array([3, 6])
        )
        np.testing.assert_array_equal(train, [1, 3, 5, 6])
        np.testing.assert_array_equal(pool, [2, 4])

    def test_empty_query_is_identity(self):
        train, pool = al_round(np.array([1]), np.array([2, 3]), np.array([], dtype=np.int64))
        np.testing.assert_array_equal(train, [1])
        np.testing.assert_array_equal(pool, [2, 3])

    def test_growth_arithmetic_75_plus_148(self):
        rng = np.random.default_rng(42)
        universe = rng.permutation(5000)
        train = universe[:75]
        pool = universe[75:3000]
        queried = rng.choice(pool, size=148, replace=False)
        new_train, new_pool = al_round(train, pool, queried)
        assert new_train.size == 223
        assert new_pool.size == pool.size - 148
        assert np.intersect1d(new_train, new_pool).size == 0

    def test_sizes_conserved_over_rounds(self):
        rng = np.random.default_rng(3)
        train = np.arange(10)
        pool = np.arange(10, 200)
        for _ in range(6):
            queried = rng.choice(pool, size=12, replace=False)
            train, pool = al_round(train, pool, queried)
        assert train.size == 10 + 6 * 12
        assert pool.size == 190 - 6 * 12
        assert np.intersect1d(train, pool).size == 0

    def test_queried_outside_pool_rejected(self):
        with pytest.raises(ValueError):
            al_round(np.array([1]), np.array([2, 3]), np.array([4]))

    def test_duplicate_queries_rejected(self):
        with pytest.raises(ValueError):
            al_round(np.array([1]), np.array([2, 3]), np.array([2, 2]))
