import numpy as np
import pytest

from momentsearch.core import Moment, TemporalSpan, VideoMeta, offsets
from momentsearch.model import (
    ModelDims,
    ModelParams,
    assemble_visual_inputs,
    compute_context,
    embed_clips,
    embed_query,
    embed_videos,
    init_params,
    lstm_forward_batch,
    mlp_forward,
    tef,
)
from conftest import identity_visual_params


def reference_mlp(x_row, params):
    """Straightforward per-row affine-relu-affine, kept independent of the
    batched implementation."""
    z1 = params.mlp_w1 @ x_row + params.mlp_b1
    a1 = np.where(z1 > 0, z1, 0.0)
    return params.mlp_w2 @ a1 + params.mlp_b2


def reference_lstm_step(x, h, c, params):
    """One hand-unrolled LSTM step with the i/f/o/g gate layout."""
    hd = params.dims.hidden_lstm
    alpha = params.lstm_wx @ x + params.lstm_wh @ h + params.lstm_b
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    i = sig(alpha[:hd])
    f = sig(alpha[hd:2 * hd])
    o = sig(alpha[2 * hd:3 * hd])
    g = np.tanh(alpha[3 * hd:])
    c_new = f * c + i * g
    return o * np.tanh(c_new), c_new


def random_params(rng, visual_in=3, word_in=4, hidden_mlp=5, embed=4, hidden_lstm=6,
                  use_tef=False, tef_only=False):
    dims = ModelDims(visual_in, word_in, hidden_mlp, embed, hidden_lstm,
                     use_tef=use_tef, tef_only=tef_only)
    return init_params(dims, int(rng.integers(0, 10_000)))


class TestContext:
    def test_mean_of_two_rows(self):
        ctx = compute_context(np.array([[1.0, 1.0], [3.0, 3.0]]))
        np.testing.assert_array_equal(ctx, [2.0, 2.0])

    def test_single_row_identity(self):
        row = np.array([[0.5, -2.0, 7.0]])
        np.testing.assert_array_equal(compute_context(row), row[0])

    def test_zeros(self):
        np.testing.assert_array_equal(compute_context(np.zeros((4, 3))), np.zeros(3))


class TestTef:
    def test_whole_video(self):
        v = VideoMeta("v", 30.0, 2.5, 12)
        m = Moment.from_clips(v, 0, 11)
        assert tef(m, v) == (0.0, 1.0)

    def test_interior(self):
        v = VideoMeta("v", 30.0, 2.5, 12)
        m = Moment.from_clips(v, 3, 5)
        assert tef(m, v) == (0.25, 0.5)

    def test_prefix(self):
        v = VideoMeta("v", 30.0, 2.5, 12)
        m = Moment.from_clips(v, 0, 1)
        s, e = tef(m, v)
        assert s == 0.0
        assert e == pytest.approx(1.0 / 6.0)

    def test_wrong_video_rejected(self):
        v = VideoMeta("v", 30.0, 2.5, 12)
        w = VideoMeta("w", 30.0, 2.5, 12)
        m = Moment.from_clips(v, 0, 1)
        with pytest.raises(ValueError):
            tef(m, w)


class TestEmbedClips:
    def test_identity_configuration_reproduces_features(self, rng):
        params = identity_visual_params(visual_in=5)
        feats = rng.standard_normal((7, 5))
        ctx = compute_context(feats)
        out = embed_clips(feats, ctx, None, params)
        np.testing.assert_array_equal(out, feats)

    def test_zero_params_zero_rows(self, rng):
        params = identity_visual_params(visual_in=4)
        params.mlp_w1[...] = 0.0
        params.mlp_w2[...] = 0.0
        feats = rng.standard_normal((3, 4))
        out = embed_clips(feats, compute_context(feats), None, params)
        np.testing.assert_array_equal(out, np.zeros((3, 4)))

    def test_matches_reference_rows(self, rng):
        params = random_params(rng)
        feats = rng.standard_normal((3, 3))
        ctx = compute_context(feats)
        out = embed_clips(feats, ctx, None, params)
        for k in range(3):
            row_in = np.concatenate([feats[k], ctx])
            np.testing.assert_allclose(out[k], reference_mlp(row_in, params), rtol=1e-12)

    def test_row_independence_under_permutation(self, rng):
        params = random_params(rng)
        feats = rng.standard_normal((6, 3))
        ctx = compute_context(feats)
        out = embed_clips(feats, ctx, None, params)
        perm = rng.permutation(6)
        out_perm = embed_clips(feats[perm], ctx, None, params)
        np.testing.assert_array_equal(out_perm, out[perm])

    def test_tef_tiled_on_all_rows(self, rng):
        params = random_params(rng, use_tef=True)
        feats = rng.standard_normal((4, 3))
        ctx = compute_context(feats)
        out = embed_clips(feats, ctx, (0.25, 0.75), params)
        for k in range(4):
            row_in = np.concatenate([feats[k], ctx, [0.25, 0.75]])
            np.testing.assert_allclose(out[k], reference_mlp(row_in, params), rtol=1e-12)

    def test_tef_only_masks_visual_inputs(self, rng):
        params = random_params(rng, use_tef=True, tef_only=True)
        feats_a = rng.standard_normal((4, 3))
        feats_b = rng.standard_normal((4, 3))
        out_a = embed_clips(feats_a, compute_context(feats_a), (0.1, 0.9), params)
        out_b = embed_clips(feats_b, compute_context(feats_b), (0.1, 0.9), params)
        np.testing.assert_array_equal(out_a, out_b)
        # distinct endpoints still produce distinct embeddings
        out_c = embed_clips(feats_a, compute_context(feats_a), (0.4, 0.6), params)
        assert not np.allclose(out_a, out_c)

    def test_dim_mismatch_rejected(self, rng):
        params = random_params(rng)
        feats = rng.standard_normal((4, 7))
        with pytest.raises(ValueError):
            embed_clips(feats, np.zeros(7), None, params)

    def test_tef_flag_consistency(self, rng):
        params = random_params(rng)
        feats = rng.standard_normal((4, 3))
        with pytest.raises(ValueError):
            embed_clips(feats, compute_context(feats), (0.0, 1.0), params)

    def test_finite_outputs(self, rng):
        params = random_params(rng)
        feats = 100.0 * rng.standard_normal((10, 3))
        out = embed_clips(feats, compute_context(feats), None, params)
        assert np.all(np.isfinite(out))


def _refusal(call) -> str:
    with pytest.raises(ValueError) as err:
        call()
    return str(err.value)


def _flat(blocks):
    """(clip_features, starts, num_clips, contexts) of blocks laid end to end."""
    counts = np.asarray([len(b) for b in blocks], dtype=np.int64)
    return (np.concatenate(blocks), offsets(counts), counts,
            np.stack([compute_context(b) for b in blocks]))


class TestEmbedVideos:
    """`embed_videos` refuses what a per-video `embed_clips` call over
    `compute_context` refuses, with the same message. A corpus refuses
    blocks of mixed widths (test_dataio), so one flat matrix has one."""

    def test_tef_model_rejected(self, rng):
        params = random_params(rng, use_tef=True)
        feats = rng.standard_normal((4, 3))
        want = _refusal(lambda: embed_clips(feats, compute_context(feats), None, params))
        assert _refusal(lambda: embed_videos(*_flat([feats, feats[:2]]), params)) == want

    def test_video_without_clips_rejected(self, rng):
        params = random_params(rng)
        want = _refusal(lambda: compute_context(np.zeros((0, 3))))
        feats, starts, _, contexts = _flat([rng.standard_normal((4, 3))] * 2)
        assert _refusal(lambda: embed_videos(feats, starts, [4, 0], contexts, params)) == want

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_no_videos_give_an_empty_matrix(self, rng, dtype):
        params = random_params(rng)
        empty = np.zeros(0, dtype=np.int64)
        out = embed_videos(np.zeros((0, 3)), empty, empty, np.zeros((0, 3)), params, dtype)
        assert out.shape == (0, params.dims.embed) and out.dtype == dtype


class TestAssembleVisualInputs:
    @pytest.mark.parametrize("use_tef, tef_only", [(False, False), (True, False), (True, True)])
    def test_per_row_equals_tiled(self, rng, use_tef, tef_only):
        dims = ModelDims(3, 2, hidden_mlp=4, embed=2, hidden_lstm=2,
                         use_tef=use_tef, tef_only=tef_only)
        feats = rng.standard_normal((5, 3))
        ctx = rng.standard_normal(3)
        pair = np.array([0.2, 0.7]) if use_tef else None
        tiled = assemble_visual_inputs(feats, ctx, pair, dims)
        per_row = assemble_visual_inputs(feats, np.tile(ctx, (5, 1)),
                                         np.tile(pair, (5, 1)) if use_tef else None, dims)
        np.testing.assert_array_equal(per_row, tiled)
        expect = np.concatenate([feats, np.tile(ctx, (5, 1))], axis=1)
        if tef_only:
            expect[...] = 0.0
        if use_tef:
            expect = np.concatenate([expect, np.tile(pair, (5, 1))], axis=1)
        np.testing.assert_array_equal(tiled, expect)

    def test_mixed_rows_keep_their_own_values(self, rng):
        dims = ModelDims(2, 2, hidden_mlp=4, embed=2, hidden_lstm=2, use_tef=True)
        feats = rng.standard_normal((3, 2))
        ctx = rng.standard_normal((3, 2))
        pairs = np.array([[0.0, 0.5], [0.25, 0.75], [0.5, 1.0]])
        out = assemble_visual_inputs(feats, ctx, pairs, dims)
        np.testing.assert_array_equal(out, np.concatenate([feats, ctx, pairs], axis=1))

    @pytest.mark.parametrize("bad", ["context", "tef"])
    def test_per_row_of_wrong_length_rejected(self, rng, bad):
        dims = ModelDims(3, 2, hidden_mlp=4, embed=2, hidden_lstm=2, use_tef=True)
        feats = rng.standard_normal((4, 3))
        ctx = rng.standard_normal((3 if bad == "context" else 4, 3))
        pairs = np.zeros((5 if bad == "tef" else 4, 2))
        with pytest.raises(ValueError):
            assemble_visual_inputs(feats, ctx, pairs, dims)


class TestEmbedQuery:
    def test_zero_params_return_bias(self, rng):
        params = identity_visual_params(visual_in=3, word_in=4, hidden_lstm=5)
        params.proj_b[...] = rng.standard_normal(3)
        words = rng.standard_normal((6, 4))
        np.testing.assert_array_equal(embed_query(words, params), params.proj_b)

    def test_single_word_matches_hand_unrolled_step(self, rng):
        params = random_params(rng)
        word = rng.standard_normal((1, 4))
        h, _ = reference_lstm_step(word[0], np.zeros(6), np.zeros(6), params)
        expected = params.proj_w @ h + params.proj_b
        np.testing.assert_allclose(embed_query(word, params), expected, rtol=1e-12)

    def test_multi_step_matches_unrolled(self, rng):
        params = random_params(rng)
        words = rng.standard_normal((5, 4))
        h, c = np.zeros(6), np.zeros(6)
        for t in range(5):
            h, c = reference_lstm_step(words[t], h, c, params)
        expected = params.proj_w @ h + params.proj_b
        np.testing.assert_allclose(embed_query(words, params), expected, rtol=1e-12)

    def test_order_sensitivity(self, rng):
        params = random_params(rng)
        words = rng.standard_normal((2, 4))
        fwd = embed_query(words, params)
        rev = embed_query(words[::-1], params)
        assert not np.allclose(fwd, rev)

    def test_empty_sequence_rejected(self, rng):
        params = random_params(rng)
        with pytest.raises(ValueError):
            embed_query(np.zeros((0, 4)), params)

    def test_wrong_word_dim_rejected(self, rng):
        params = random_params(rng)
        with pytest.raises(ValueError):
            embed_query(np.zeros((3, 9)), params)

    def test_padded_batch_matches_lone_queries(self, rng):
        params = random_params(rng)
        seqs = [rng.standard_normal((t, 4)) for t in (2, 5, 3)]
        t_max = 5
        words = np.zeros((3, t_max, 4))
        mask = np.zeros((3, t_max))
        for b, s in enumerate(seqs):
            words[b, :s.shape[0]] = s
            mask[b, :s.shape[0]] = 1.0
        h = lstm_forward_batch(words, mask, params)
        for b, s in enumerate(seqs):
            expected = embed_query(s, params)
            got = params.proj_w @ h[b] + params.proj_b
            np.testing.assert_allclose(got, expected, rtol=1e-12)


class TestInitParams:
    def test_deterministic(self):
        dims = ModelDims(3, 4, 5, 4, 6)
        a = init_params(dims, 7)
        b = init_params(dims, 7)
        for name in ModelParams.TENSOR_NAMES:
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_seed_changes_weights(self):
        dims = ModelDims(3, 4, 5, 4, 6)
        a = init_params(dims, 0)
        b = init_params(dims, 1)
        assert any(
            not np.array_equal(getattr(a, n), getattr(b, n))
            for n in ModelParams.TENSOR_NAMES
        )

    def test_forget_gate_bias_is_one(self):
        dims = ModelDims(3, 4, 5, 4, 6)
        p = init_params(dims, 3)
        h = dims.hidden_lstm
        np.testing.assert_array_equal(p.lstm_b[h:2 * h], np.ones(h))
        np.testing.assert_array_equal(p.lstm_b[:h], np.zeros(h))
        np.testing.assert_array_equal(p.lstm_b[2 * h:], np.zeros(2 * h))

    def test_fan_based_bound(self):
        dims = ModelDims(3, 4, 5, 4, 6)
        p = init_params(dims, 3)
        bound = np.sqrt(6.0 / (dims.mlp_in + dims.hidden_mlp))
        assert np.abs(p.mlp_w1).max() <= bound

    def test_mlp_input_width_with_tef(self):
        assert ModelDims(10, 4, use_tef=True).mlp_in == 22
        assert ModelDims(10, 4).mlp_in == 20

    def test_mlp_forward_shape_checks(self, rng):
        params = random_params(rng)
        with pytest.raises(ValueError):
            mlp_forward(rng.standard_normal((2, 11)), params)
