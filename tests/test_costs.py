import numpy as np
import pytest

from momentsearch.core import Moment, VideoMeta
from momentsearch.costs import (
    CostCounters,
    clip_distances,
    moment_cost_aggregate,
    moment_cost_cal,
    score_moments,
    sq_distances,
)
from momentsearch.enumeration import EnumConfig, candidate_clips, enumerate_moments
from momentsearch.model import ModelDims, compute_context, init_params
from conftest import identity_visual_params


def dyadic(rng, shape, denom=32, span=256):
    """Values i/denom with |i| < span*denom: exactly representable, and sums
    of two stay exact, so float arithmetic on them is error-free."""
    return rng.integers(-span * denom, span * denom, size=shape) / denom


def naive_cal_cost(distances, i, j):
    return float(np.mean(distances[i:j + 1]))


class TestClipDistances:
    def test_zero_for_identical(self):
        q = np.array([1.0, 2.0])
        table = clip_distances(q, np.array([[1.0, 2.0]]))
        assert table.distances[0] == 0.0

    def test_worked_example(self):
        q = np.zeros(2)
        table = clip_distances(q, np.array([[1.0, 0.0], [0.0, 2.0]]))
        np.testing.assert_array_equal(table.distances, [1.0, 4.0])
        np.testing.assert_array_equal(table.prefix, [0.0, 1.0, 5.0])

    def test_prefix_invariant(self, rng):
        emb = rng.standard_normal((17, 5))
        q = rng.standard_normal(5)
        table = clip_distances(q, emb)
        assert table.prefix[0] == 0.0
        np.testing.assert_allclose(np.diff(table.prefix), table.distances, rtol=1e-12)
        assert np.all(table.distances >= 0)

    def test_dim_mismatch(self, rng):
        with pytest.raises(ValueError):
            clip_distances(rng.standard_normal(3), rng.standard_normal((4, 5)))


class TestMomentCostCal:
    def test_worked_examples(self):
        table = clip_distances(np.zeros(1), np.array([[1.0], [np.sqrt(3) ** 1], [0.0]]))
        table.distances = np.array([1.0, 3.0, 5.0])
        table.prefix = np.array([0.0, 1.0, 4.0, 9.0])
        assert moment_cost_cal(table, 0, 2) == pytest.approx(3.0)
        assert moment_cost_cal(table, 0, 1) == pytest.approx(2.0)

    def test_constant_distances(self, rng):
        emb = np.tile(rng.standard_normal(4), (9, 1))
        q = rng.standard_normal(4)
        table = clip_distances(q, emb)
        d = table.distances[0]
        for i in range(8):
            for j in range(i + 1, 9):
                assert moment_cost_cal(table, i, j) == pytest.approx(d, rel=1e-12)

    def test_single_clip_rejected(self, rng):
        table = clip_distances(rng.standard_normal(3), rng.standard_normal((5, 3)))
        with pytest.raises(ValueError):
            moment_cost_cal(table, 2, 2)
        with pytest.raises(ValueError):
            moment_cost_cal(table, 3, 1)

    def test_prefix_equals_naive_on_random_videos(self):
        # all (i, j) pairs on 100 random videos with up to 128 clips
        rng = np.random.default_rng(123)
        for _ in range(100):
            n = int(rng.integers(2, 129))
            emb = rng.standard_normal((n, 8))
            q = rng.standard_normal(8)
            table = clip_distances(q, emb)
            for i in range(n - 1):
                for j in range(i + 1, n):
                    fast = moment_cost_cal(table, i, j)
                    slow = naive_cal_cost(table.distances, i, j)
                    assert fast == pytest.approx(slow, rel=1e-9)

    def test_translation_invariance_exact(self):
        # On a dyadic grid every addition is exact, so costs match bitwise.
        rng = np.random.default_rng(5)
        for _ in range(1000):
            n = int(rng.integers(2, 12))
            emb = dyadic(rng, (n, 4))
            q = dyadic(rng, (4,))
            shift = dyadic(rng, (4,))
            base = clip_distances(q, emb)
            moved = clip_distances(q + shift, emb + shift)
            np.testing.assert_array_equal(base.distances, moved.distances)
            np.testing.assert_array_equal(base.prefix, moved.prefix)

    def test_scaling_preserves_argmin(self):
        rng = np.random.default_rng(6)
        for trial in range(1000):
            n = int(rng.integers(3, 12))
            emb = rng.standard_normal((n, 4))
            q = rng.standard_normal(4)
            scale = float(rng.uniform(0.1, 10.0))
            pairs = [(i, j) for i in range(n - 1) for j in range(i + 1, n)]
            base_table = clip_distances(q, emb)
            scaled_table = clip_distances(scale * q, scale * emb)
            base_costs = [moment_cost_cal(base_table, i, j) for i, j in pairs]
            scaled_costs = [moment_cost_cal(scaled_table, i, j) for i, j in pairs]
            assert int(np.argmin(base_costs)) == int(np.argmin(scaled_costs))
            if trial % 10 == 0:
                # power-of-two scales keep even the cost values exact
                t2 = clip_distances(2.0 * q, 2.0 * emb)
                np.testing.assert_array_equal(t2.distances, 4.0 * base_table.distances)


class TestMomentCostAggregate:
    def _video(self, rng, n=6, dim=4):
        video = VideoMeta("v", n * 2.0, 2.0, n)
        feats = rng.standard_normal((n, dim))
        return video, feats

    def test_identical_clips_match_cal_under_identity_heads(self, rng):
        params = identity_visual_params(visual_in=4)
        video, feats = self._video(rng)
        feats[1:4] = feats[1]  # moment of identical clips
        moment = Moment.from_clips(video, 1, 3)
        ctx = compute_context(feats)
        q = rng.standard_normal(4)
        agg = moment_cost_aggregate(q, feats, ctx, None, moment, params)
        table = clip_distances(q, feats)  # identity head: embeddings == features
        cal = moment_cost_cal(table, 1, 3)
        assert agg == pytest.approx(cal, rel=1e-12)

    def test_zero_when_pooled_embedding_hits_query(self, rng):
        params = identity_visual_params(visual_in=4)
        video, feats = self._video(rng)
        moment = Moment.from_clips(video, 0, 2)
        pooled = feats[0:3].mean(axis=0)
        agg = moment_cost_aggregate(pooled, feats, compute_context(feats), None, moment, params)
        assert agg == pytest.approx(0.0, abs=1e-15)

    def test_matches_independent_path(self, rng):
        dims = ModelDims(4, 4, hidden_mlp=6, embed=5, hidden_lstm=4)
        params = init_params(dims, 11)
        video, feats = self._video(rng)
        moment = Moment.from_clips(video, 2, 4)
        ctx = compute_context(feats)
        q = rng.standard_normal(5)
        got = moment_cost_aggregate(q, feats, ctx, None, moment, params)
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
    def _score_all(video, feats, q, variant, cfg, params, counters=None):
        grid = candidate_clips(video.num_clips, cfg)
        return grid, score_moments(video, feats, q, variant, params, *grid.T, counters)

    def test_cal_counts_one_distance_per_clip(self, rng):
        cfg, video, feats, params, q = self._setup(rng)
        counters = CostCounters()
        _, costs = self._score_all(video, feats, q, "cal", cfg, params, counters)
        assert counters.distance_evals == video.num_clips
        assert counters.moments_scored == len(costs) == len(enumerate_moments(video, cfg))

    def test_aggregate_counts_one_distance_per_moment(self, rng):
        cfg, video, feats, params, q = self._setup(rng)
        counters = CostCounters()
        _, costs = self._score_all(video, feats, q, "aggregate", cfg, params, counters)
        assert counters.distance_evals == len(costs)

    def test_cal_costs_match_direct_table(self, rng):
        cfg, video, feats, params, q = self._setup(rng)
        from momentsearch.model import embed_clips

        grid, costs = self._score_all(video, feats, q, "cal", cfg, params)
        emb = embed_clips(feats, compute_context(feats), None, params)
        table = clip_distances(q, emb, "v")
        for (first, last), cost in zip(grid.tolist(), costs):
            expect = moment_cost_cal(table, first, last)
            assert cost == expect

    def test_tef_variant_costs(self, rng):
        cfg = EnumConfig(clip_length=2.0, max_moment_clips=4, stride_seconds=2.0)
        video = VideoMeta("v", 12.0, 2.0, 6)
        feats = rng.standard_normal((6, 3))
        dims = ModelDims(3, 4, hidden_mlp=5, embed=4, hidden_lstm=4, use_tef=True)
        params = init_params(dims, 3)
        q = rng.standard_normal(4)
        grid, costs = self._score_all(video, feats, q, "cal_tef", cfg, params)
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
