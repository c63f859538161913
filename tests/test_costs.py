import numpy as np
import pytest

from momentsearch.core import Moment, Query, VideoMeta
from momentsearch.costs import cal_costs, score_moments, sq_distances
from momentsearch.dataio import Corpus
from momentsearch.enumeration import EnumConfig, candidate_clips, enumerate_moments
from momentsearch.model import ModelDims, compute_context, init_params
from momentsearch.retrieval import RetrievalConfig, exhaustive_search
from conftest import identity_visual_params


def dyadic(rng, shape, denom=32, span=256):
    """Values i/denom with |i| < span*denom: exactly representable, and sums
    of two stay exact, so float arithmetic on them is error-free."""
    return rng.integers(-span * denom, span * denom, size=shape) / denom


def naive_cal_cost(distances, i, j):
    return float(np.mean(distances[i:j + 1]))


def all_ranges(n):
    """(firsts, lasts) of every range i < j of n clips."""
    return np.triu_indices(n, k=1)


class TestClipDistances:
    def test_zero_for_identical(self):
        q = np.array([1.0, 2.0])
        assert sq_distances(np.array([[1.0, 2.0]]), q)[0] == 0.0

    def test_worked_example(self):
        d = sq_distances(np.array([[1.0, 0.0], [0.0, 2.0]]), np.zeros(2))
        np.testing.assert_array_equal(d, [1.0, 4.0])
        np.testing.assert_array_equal(cal_costs(d, np.array([0, 0, 1]), np.array([0, 1, 1])),
                                      [1.0, 2.5, 4.0])

    def test_prefix_invariant(self, rng):
        emb = rng.standard_normal((17, 5))
        q = rng.standard_normal(5)
        d = sq_distances(emb, q)
        single = np.arange(17)
        np.testing.assert_allclose(cal_costs(d, single, single), d, rtol=1e-12)
        assert np.all(d >= 0)

    def test_dim_mismatch(self, rng):
        with pytest.raises(ValueError):
            sq_distances(rng.standard_normal((4, 5)), rng.standard_normal(3))


class TestMomentCostCal:
    def test_worked_examples(self):
        costs = cal_costs(np.array([1.0, 3.0, 5.0]), np.array([0, 0]), np.array([2, 1]))
        np.testing.assert_array_equal(costs, [3.0, 2.0])

    def test_constant_distances(self, rng):
        emb = np.tile(rng.standard_normal(4), (9, 1))
        d = sq_distances(emb, rng.standard_normal(4))
        np.testing.assert_allclose(cal_costs(d, *all_ranges(9)), d[0], rtol=1e-12)

    def test_prefix_equals_naive_on_random_videos(self):
        # all (i, j) pairs on 100 random videos with up to 128 clips
        rng = np.random.default_rng(123)
        for _ in range(100):
            n = int(rng.integers(2, 129))
            d = sq_distances(rng.standard_normal((n, 8)), rng.standard_normal(8))
            firsts, lasts = all_ranges(n)
            slow = [naive_cal_cost(d, i, j) for i, j in zip(firsts, lasts)]
            np.testing.assert_allclose(cal_costs(d, firsts, lasts), slow, rtol=1e-9)

    def test_translation_invariance_exact(self):
        # On a dyadic grid every addition is exact, so costs match bitwise.
        rng = np.random.default_rng(5)
        for _ in range(1000):
            n = int(rng.integers(2, 12))
            emb = dyadic(rng, (n, 4))
            q = dyadic(rng, (4,))
            shift = dyadic(rng, (4,))
            base = sq_distances(emb, q)
            moved = sq_distances(emb + shift, q + shift)
            np.testing.assert_array_equal(base, moved)
            np.testing.assert_array_equal(cal_costs(base, *all_ranges(n)),
                                          cal_costs(moved, *all_ranges(n)))

    def test_scaling_preserves_argmin(self):
        rng = np.random.default_rng(6)
        for trial in range(1000):
            n = int(rng.integers(3, 12))
            emb = rng.standard_normal((n, 4))
            q = rng.standard_normal(4)
            scale = float(rng.uniform(0.1, 10.0))
            base = sq_distances(emb, q)
            base_costs = cal_costs(base, *all_ranges(n))
            scaled_costs = cal_costs(sq_distances(scale * emb, scale * q), *all_ranges(n))
            assert int(np.argmin(base_costs)) == int(np.argmin(scaled_costs))
            if trial % 10 == 0:
                # power-of-two scales keep even the cost values exact
                np.testing.assert_array_equal(sq_distances(2.0 * emb, 2.0 * q), 4.0 * base)


class TestMomentCostAggregate:
    """The aggregate variant of `score_moments`, one moment at a time."""

    def _video(self, rng, n=6, dim=4):
        video = VideoMeta("v", n * 2.0, 2.0, n)
        feats = rng.standard_normal((n, dim))
        return video, feats

    @staticmethod
    def _cost(video, feats, q, variant, params, first, last):
        return score_moments(video, feats, q, variant, params,
                             np.array([first]), np.array([last]))[0]

    def test_identical_clips_match_cal_under_identity_heads(self, rng):
        params = identity_visual_params(visual_in=4)
        video, feats = self._video(rng)
        feats[1:4] = feats[1]  # moment of identical clips
        q = rng.standard_normal(4)
        agg = self._cost(video, feats, q, "aggregate", params, 1, 3)
        cal = self._cost(video, feats, q, "cal", params, 1, 3)  # embeddings == features
        assert agg == pytest.approx(cal, rel=1e-12)

    def test_zero_when_pooled_embedding_hits_query(self, rng):
        params = identity_visual_params(visual_in=4)
        video, feats = self._video(rng)
        pooled = feats[0:3].mean(axis=0)
        agg = self._cost(video, feats, pooled, "aggregate", params, 0, 2)
        assert agg == pytest.approx(0.0, abs=1e-15)

    def test_matches_independent_path(self, rng):
        dims = ModelDims(4, 4, hidden_mlp=6, embed=5, hidden_lstm=4)
        params = init_params(dims, 11)
        video, feats = self._video(rng)
        ctx = compute_context(feats)
        q = rng.standard_normal(5)
        got = self._cost(video, feats, q, "aggregate", params, 2, 4)
        # independent: pool, affine-relu-affine, squared distance
        pooled = feats[2:5].mean(axis=0)
        row = np.concatenate([pooled, ctx])
        z1 = params.mlp_w1 @ row + params.mlp_b1
        emb = params.mlp_w2 @ np.where(z1 > 0, z1, 0.0) + params.mlp_b2
        expected = float(((emb - q) ** 2).sum())
        assert got == pytest.approx(expected, rel=1e-12)


class TestScoreAllMoments:
    def _setup(self, rng, n=10):
        cfg = EnumConfig(clip_length=2.0, max_moment_clips=6, stride_seconds=2.0)
        video = VideoMeta("v", n * 2.0, 2.0, n)
        feats = rng.standard_normal((n, 4))
        dims = ModelDims(4, 4, hidden_mlp=6, embed=5, hidden_lstm=4)
        params = init_params(dims, 2)
        q = rng.standard_normal(5)
        return cfg, video, feats, params, q

    @staticmethod
    def _score_all(video, feats, q, variant, cfg, params):
        grid = candidate_clips(video.num_clips, cfg)
        return grid, score_moments(video, feats, q, variant, params, *grid.T)

    @staticmethod
    def _search_counters(video, feats, variant, cfg, params, rng):
        """Search's stage counters on a corpus of the one video."""
        corpus = Corpus([video], {video.video_id: feats})
        query = Query("q", rng.standard_normal((3, params.dims.word_in)))
        return exhaustive_search(corpus, query, params, cfg,
                                 RetrievalConfig(variant=variant)).stage_counters

    def test_cal_counts_one_distance_per_clip(self, rng):
        cfg, video, feats, params, _ = self._setup(rng)
        counters = self._search_counters(video, feats, "cal", cfg, params, rng)
        assert counters == {"stage1_distances": video.num_clips,
                            "stage1_moments": len(enumerate_moments(video, cfg))}

    def test_aggregate_counts_one_distance_per_moment(self, rng):
        cfg, video, feats, params, _ = self._setup(rng)
        counters = self._search_counters(video, feats, "aggregate", cfg, params, rng)
        assert counters["stage1_distances"] == counters["stage1_moments"] \
            == len(enumerate_moments(video, cfg))

    def test_cal_costs_match_direct_table(self, rng):
        cfg, video, feats, params, q = self._setup(rng)
        from momentsearch.model import embed_clips

        grid, costs = self._score_all(video, feats, q, "cal", cfg, params)
        d = sq_distances(embed_clips(feats, compute_context(feats), None, params), q)
        np.testing.assert_array_equal(costs, cal_costs(d, *grid.T))
        for (first, last), cost in zip(grid.tolist(), costs):
            assert cost == pytest.approx(naive_cal_cost(d, first, last), rel=1e-12)

    def test_tef_variant_costs(self, rng):
        cfg = EnumConfig(clip_length=2.0, max_moment_clips=4, stride_seconds=2.0)
        video = VideoMeta("v", 12.0, 2.0, 6)
        feats = rng.standard_normal((6, 3))
        dims = ModelDims(3, 4, hidden_mlp=5, embed=4, hidden_lstm=4, use_tef=True)
        params = init_params(dims, 3)
        q = rng.standard_normal(4)
        grid, costs = self._score_all(video, feats, q, "cal", cfg, params)
        # oracle: embed each moment's clips with its own endpoints, average
        from momentsearch.model import embed_clips, tef

        ctx = compute_context(feats)
        for (first, last), cost in zip(grid.tolist(), costs):
            m = Moment.from_clips(video, first, last)
            rows = embed_clips(feats[m.first_clip:m.last_clip + 1], ctx, tef(m, video), params)
            expected = float(np.mean(sq_distances(rows, q)))
            assert cost == pytest.approx(expected, rel=1e-12)

    def test_unknown_variant_rejected(self, rng):
        cfg, video, feats, params, q = self._setup(rng)
        with pytest.raises(ValueError):
            self._score_all(video, feats, q, "bogus", cfg, params)

    def test_costs_non_negative(self, rng):
        cfg, video, feats, params, q = self._setup(rng)
        for variant in ("cal", "aggregate"):
            _, costs = self._score_all(video, feats, q, variant, cfg, params)
            assert np.all(costs >= 0.0)
