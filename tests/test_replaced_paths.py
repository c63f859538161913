"""The per-variant cost code and the per-moment batch assembly that
`costs.score_moments` and `training._assemble_batch` replaced, kept here
verbatim as references: the merged paths must give the same bytes.

Costs are compared by `float.hex`, batch tensors by `np.array_equal`.
"""

import numpy as np
import pytest

from momentsearch.core import Moment, VideoMeta, clip_spans
from momentsearch.costs import CostCounters, score_moments, sq_distances
from momentsearch.enumeration import PRESETS, candidate_clips
from momentsearch.model import (
    ModelDims,
    assemble_visual_inputs,
    compute_context,
    embed_clips,
    init_params,
    mlp_forward,
    tef,
)
from momentsearch.training import TrainConfig, TrainDataset, _assemble_batch, sample_triples
from conftest import varied_corpus

# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def reference_moment_cost_aggregate(query_emb, video_features, context, tef_pair, moment, params):
    """Pool the moment's raw features, embed once, return the squared distance."""
    feats = np.asarray(video_features, dtype=np.float64)
    pooled = feats[moment.first_clip:moment.last_clip + 1].mean(axis=0)
    inputs = assemble_visual_inputs(pooled[None, :], context, tef_pair, params.dims)
    emb = mlp_forward(inputs, params)
    return float(sq_distances(emb, np.asarray(query_emb, dtype=np.float64))[0])


def reference_tef_costs_for_moments(video, video_features, context, query_emb, firsts, lasts,
                                    params, aggregate):
    feats = np.asarray(video_features, dtype=np.float64)
    blocks = []
    seg_ids = []
    pairs = clip_spans(video, firsts, lasts) / video.duration
    for idx, (first, last, pair) in enumerate(zip(firsts.tolist(), lasts.tolist(), pairs)):
        if aggregate:
            pooled = feats[first:last + 1].mean(axis=0)[None, :]
            blocks.append(assemble_visual_inputs(pooled, context, pair, params.dims))
            seg_ids.extend([idx])
        else:
            clip_rows = feats[first:last + 1]
            blocks.append(assemble_visual_inputs(clip_rows, context, pair, params.dims))
            seg_ids.extend([idx] * clip_rows.shape[0])
    inputs = np.concatenate(blocks, axis=0)
    emb = mlp_forward(inputs, params)
    dists = sq_distances(emb, np.asarray(query_emb, dtype=np.float64))
    seg = np.asarray(seg_ids)
    sums = np.bincount(seg, weights=dists, minlength=len(firsts))
    counts = np.bincount(seg, minlength=len(firsts)).astype(np.float64)
    return sums / counts, int(dists.shape[0])


def reference_score_moments(video, video_features, query_emb, variant, params, firsts, lasts,
                            counters):
    if len(firsts) == 0:
        return np.empty(0, dtype=np.float64)
    feats = np.asarray(video_features, dtype=np.float64)
    context = compute_context(feats)
    q = np.asarray(query_emb, dtype=np.float64)
    if params.dims.use_tef:
        costs, n_dists = reference_tef_costs_for_moments(
            video, feats, context, q, firsts, lasts, params, aggregate=variant == "aggregate"
        )
        counters.distance_evals += n_dists
    elif variant == "cal":
        emb = embed_clips(feats, context, None, params)
        d = sq_distances(np.asarray(emb, dtype=np.float64), q)
        prefix = np.zeros(d.shape[0] + 1, dtype=np.float64)
        np.cumsum(d, out=prefix[1:])
        costs = (prefix[lasts + 1] - prefix[firsts]) / (lasts - firsts + 1)
        counters.distance_evals += d.shape[0]
    elif variant == "aggregate":
        pooled = np.stack([
            feats[first:last + 1].mean(axis=0)
            for first, last in zip(firsts.tolist(), lasts.tolist())
        ])
        inputs = assemble_visual_inputs(pooled, context, None, params.dims)
        emb = mlp_forward(inputs, params)
        costs = sq_distances(emb, q)
        counters.distance_evals += len(firsts)
    counters.moments_scored += len(firsts)
    return costs


def reference_assemble_batch(dataset, triples, dims, variant):
    blocks, seg = [], []
    for t_idx, triple in enumerate(triples):
        roles = (triple.positive, triple.intra_negative, triple.inter_negative)
        for role_idx, moment in enumerate(roles):
            m_idx = 3 * t_idx + role_idx
            video = dataset.corpus.video(moment.video_id)
            feats = dataset.corpus.features_for(moment.video_id)
            ctx = dataset.context_for(moment.video_id)
            pair = tef(moment, video) if dims.use_tef else None
            clip_rows = feats[moment.first_clip:moment.last_clip + 1]
            if variant == "aggregate":
                clip_rows = clip_rows.mean(axis=0)[None, :]
            blocks.append(assemble_visual_inputs(clip_rows, ctx, pair, dims))
            seg.extend([m_idx] * blocks[-1].shape[0])
    x = np.concatenate(blocks, axis=0)
    seg = np.asarray(seg, dtype=np.int64)
    z_counts = np.bincount(seg, minlength=3 * len(triples)).astype(np.float64)

    lengths = [dataset.queries[t.query_index].word_vectors.shape[0] for t in triples]
    t_max = max(lengths)
    words = np.zeros((len(triples), t_max, dims.word_in))
    mask = np.zeros((len(triples), t_max))
    for b_idx, triple in enumerate(triples):
        wv = np.asarray(dataset.queries[triple.query_index].word_vectors, dtype=np.float64)
        words[b_idx, :wv.shape[0]] = wv
        mask[b_idx, :wv.shape[0]] = 1.0
    return x, seg, z_counts, words, mask


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------

# (variant, model input mode): each variant under a non-TEF model, a TEF
# model, and a TEF model with the visual slots masked. A case id adds "_tef"
# to the variant when its model uses TEF.
VARIANT_MODES = [
    pytest.param("cal", "plain", id="cal-plain"),
    pytest.param("aggregate", "plain", id="aggregate-plain"),
    pytest.param("cal", "tef", id="cal_tef-tef"),
    pytest.param("cal", "tef_only", id="cal_tef-tef_only"),
    pytest.param("aggregate", "tef", id="aggregate_tef-tef"),
    pytest.param("aggregate", "tef_only", id="aggregate_tef-tef_only"),
]


def _dims(mode, visual_in=5, word_in=4):
    return ModelDims(visual_in, word_in, hidden_mlp=7, embed=6, hidden_lstm=3,
                     use_tef=mode != "plain", tef_only=mode == "tef_only")


def _hex(values):
    return [float(v).hex() for v in np.asarray(values).tolist()]


@pytest.mark.parametrize("preset_name", sorted(PRESETS))
@pytest.mark.parametrize("variant, mode", VARIANT_MODES)
def test_score_moments_equals_replaced_paths(preset_name, variant, mode):
    enum_cfg = PRESETS[preset_name].enum
    params = init_params(_dims(mode), 1)
    rng = np.random.default_rng(7)
    empty = np.empty((0, 2), dtype=np.int64)
    for n in (2, 3, 7, 12, 30):
        cl = enum_cfg.clip_length
        video = VideoMeta("v", (n - 0.4) * cl, cl, n)  # partial last clip
        feats = rng.standard_normal((n, 5))
        q = rng.standard_normal(6)
        for grid in (candidate_clips(n, enum_cfg), empty):
            got_counters, want_counters = CostCounters(), CostCounters()
            got = score_moments(video, feats, q, variant, params, *grid.T, got_counters)
            want = reference_score_moments(video, feats, q, variant, params, *grid.T,
                                           want_counters)
            assert _hex(got) == _hex(want)
            assert got_counters == want_counters


@pytest.mark.parametrize("preset_name", sorted(PRESETS))
@pytest.mark.parametrize("mode", ["plain", "tef", "tef_only"])
def test_aggregate_costs_match_per_moment_reference(preset_name, mode):
    # The reference embeds one row per MLP call. A one-row matrix product
    # rounds differently from the batched one in the last bit, so this
    # comparison is to 1e-12, not bytes; it was never bytes.
    enum_cfg = PRESETS[preset_name].enum
    params = init_params(_dims(mode), 2)
    rng = np.random.default_rng(8)
    for n in (2, 7, 12):
        cl = enum_cfg.clip_length
        video = VideoMeta("v", (n - 0.25) * cl, cl, n)
        feats = rng.standard_normal((n, 5))
        q = rng.standard_normal(6)
        grid = candidate_clips(n, enum_cfg)
        got = score_moments(video, feats, q, "aggregate", params, *grid.T)
        ctx = compute_context(feats)
        want = []
        for first, last in grid.tolist():
            moment = Moment.from_clips(video, first, last)
            pair = tef(moment, video) if mode != "plain" else None
            want.append(reference_moment_cost_aggregate(q, feats, ctx, pair, moment, params))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize("preset_name", sorted(PRESETS))
@pytest.mark.parametrize("variant", ["cal", "aggregate"])
@pytest.mark.parametrize("mode", ["plain", "tef", "tef_only"])
def test_assemble_batch_equals_per_moment_reference(preset_name, variant, mode):
    enum_cfg = PRESETS[preset_name].enum
    corpus, queries = varied_corpus(np.random.default_rng(5), enum_cfg.clip_length)
    dataset = TrainDataset(corpus, queries, enum_cfg)
    dims = _dims(mode, visual_in=3, word_in=2)
    cfg = TrainConfig(batch_triples=16, variant=variant, seed=3)
    triples = sample_triples(dataset, cfg, np.random.default_rng(3))
    got = _assemble_batch(dataset, triples, dims, variant)
    want = reference_assemble_batch(dataset, triples, dims, variant)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)
