"""The per-variant cost code, the per-moment batch assembly, the
per-video ranking routes, the list-building index search and index build,
and the masked-branch sigmoid, per-step-dict LSTM and concatenating LSTM
backward that `costs.score_moments`, `training._assemble_batch`, the
candidate-table and batched approximate search, `index.ClipHits`,
`index.corpus_clip_matrix`, `model.sigmoid`, `model.lstm_forward_batch`
and `training._lstm_backward` replaced, kept here as references: the merged
paths must give the same bytes. Suppression in the references is the greedy
`temporal_iou` loop, not the product's `nms`.

Costs and distances are compared by `float.hex`, batch tensors and
gradients by `tobytes()`.
"""

import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from momentsearch.core import Moment, Query, VideoMeta, clip_spans
from momentsearch.costs import CostCounters, ScoredMoment, score_moments, sq_distances
from momentsearch.dataio import Corpus
from momentsearch.enumeration import PRESETS, EnumConfig, candidate_clips
from momentsearch.index import (
    ClipHit,
    ClipHits,
    ClipIndex,
    IvfIndex,
    build_exact,
    build_ivf,
    corpus_clip_matrix,
)
from momentsearch.model import (
    ModelDims,
    assemble_visual_inputs,
    compute_context,
    embed_clips,
    embed_query,
    init_params,
    lstm_forward_batch,
    mlp_forward,
    sigmoid,
    tef,
)
from momentsearch.retrieval import (
    RankedMoments,
    RetrievalConfig,
    baseline_scores,
    exhaustive_search,
    two_stage_search,
)
from momentsearch.training import (
    TrainConfig,
    TrainDataset,
    _assemble_batch,
    _lstm_backward,
    loss_and_grads,
    ranking_loss,
    sample_triples,
)
from conftest import greedy_nms_reference, varied_corpus

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


def reference_rank(groups, q_emb, variant, params, nms_iou, top_k):
    """Score each (video, features, firsts, lasts) group, suppress within the
    video cheapest first, and merge by (cost, video_id, first, last)."""
    counters = CostCounters()
    videos, rows = [], []
    for video, feats, firsts, lasts in groups:
        costs = score_moments(video, feats, q_emb, variant, params, firsts, lasts, counters)
        order = np.lexsort((lasts, firsts, costs))
        spans = [Moment.from_clips(video, f, l).span
                 for f, l in zip(firsts[order].tolist(), lasts[order].tolist())]
        kept = order[np.asarray(greedy_nms_reference(spans, nms_iou), dtype=np.int64)]
        rows.append((np.full(len(kept), len(videos)), firsts[kept], lasts[kept], costs[kept]))
        videos.append(video)
    if not videos:
        return [], counters
    ordinal, firsts, lasts, costs = (np.concatenate(col) for col in zip(*rows))
    id_rank = np.argsort(np.argsort(np.asarray([v.video_id for v in videos], dtype=object)))
    top = np.lexsort((lasts, firsts, id_rank[ordinal], costs))[:top_k]
    return [ScoredMoment(Moment.from_clips(videos[v], f, l), c)
            for v, f, l, c in zip(ordinal[top].tolist(), firsts[top].tolist(),
                                  lasts[top].tolist(), costs[top].tolist())], counters


def reference_exhaustive(corpus, query, params, enum_cfg, cfg):
    """Every video's candidates scored per query, then `reference_rank`."""
    q_emb = embed_query(query.word_vectors, params)
    groups = ((v, corpus.features_for(v.video_id), *candidate_clips(v.num_clips, enum_cfg).T)
              for v in corpus.videos)
    ranked, counters = reference_rank(groups, q_emb, cfg.variant, params, cfg.nms_iou,
                                      cfg.top_k)
    return ranked, {"stage1_distances": counters.distance_evals,
                    "stage1_moments": counters.moments_scored}


def reference_two_stage_moment(corpus, query, params, enum_cfg, cfg, rerank_params=None):
    """Moment-budget two-stage search that re-scores stage one's moments,
    each video's in stage-one order, with `rerank_params` when given."""
    stage1, counters = reference_exhaustive(
        corpus, query, params, enum_cfg, RetrievalConfig(
            variant=cfg.variant, nms_iou=1.0, top_k=cfg.budget, budget=cfg.budget))
    candidates = {}
    for s in stage1:
        candidates.setdefault(s.moment.video_id, []).append(
            (s.moment.first_clip, s.moment.last_clip))
    rerank = rerank_params if rerank_params is not None else params
    q2 = embed_query(query.word_vectors, rerank)
    groups = ((corpus.video(vid), corpus.features_for(vid), *np.asarray(rows).T)
              for vid, rows in candidates.items())
    ranked, stage2 = reference_rank(groups, q2, cfg.rerank_variant or cfg.variant, rerank,
                                    cfg.nms_iou, cfg.top_k)
    return ranked, {**counters, "stage2_distances": stage2.distance_evals,
                    "stage2_moments": stage2.moments_scored}


def reference_approx(corpus, index, query, params, rerank_params, enum_cfg, cfg):
    """Clip-budget two-stage search one video at a time: the `ClipHit` loop
    groups the retrieved clips by video id, each video's `candidate_clips`
    template keeps the moments whose dilated window holds one, and
    `reference_rank` re-scores them."""
    q1 = embed_query(query.word_vectors, params)
    counters = {}
    if isinstance(index, IvfIndex):
        hits, stats = index.search(q1, top_c=cfg.clip_budget,
                                   nprobe=min(cfg.nprobe, index.num_partitions))
        counters["stage1_centroid_distances"] = stats.centroid_evals
        counters["stage1_partitions_probed"] = stats.partitions_probed
    else:
        hits, stats = index.search(q1, top_c=cfg.clip_budget)
    counters["stage1_distances"] = stats.distance_evals
    retrieved = {}
    for h in hits:
        retrieved.setdefault(h.video_id, []).append(h.clip_idx)
    d = cfg.dilation_clips
    groups = []
    for video_id, clips in retrieved.items():
        video = corpus.video(video_id)
        n = video.num_clips
        grid = candidate_clips(n, enum_cfg)
        count = np.cumsum(np.bincount(np.asarray(clips) + 1, minlength=n + 1))
        hit = count[np.minimum(grid[:, 1] + d, n - 1) + 1] > count[np.maximum(grid[:, 0] - d, 0)]
        if hit.any():
            groups.append((video, corpus.features_for(video_id), *grid[hit].T))
    rerank = rerank_params if rerank_params is not None else params
    ranked, stage2 = reference_rank(groups, embed_query(query.word_vectors, rerank),
                                    cfg.rerank_variant or cfg.variant, rerank, cfg.nms_iou,
                                    cfg.top_k)
    return ranked, {**counters, "stage2_distances": stage2.distance_evals,
                    "stage2_moments": stage2.moments_scored}


def reference_index_search(index, query_emb, top_c, nprobe=None):
    """Exact or IVF search returning a list of `ClipHit`s built one by one."""
    q = np.asarray(query_emb, dtype=np.float32)
    if isinstance(index, IvfIndex):
        p = index.num_partitions
        cdiff = index.centroids - q
        cdist = np.einsum("ij,ij->i", cdiff, cdiff)
        probe = np.lexsort((np.arange(p), cdist))[:nprobe]
        idx = np.concatenate([np.arange(int(index.offsets[part]), int(index.offsets[part + 1]))
                              for part in np.sort(probe)])
    else:
        idx = np.arange(index.num_entries)
    diff = index.vectors[idx] - q
    dists = np.einsum("ij,ij->i", diff, diff)
    id_rank = np.argsort(np.argsort(np.asarray(index.video_ids)))
    id_rank = id_rank[index.keys[:, 0].astype(np.int64)]
    order = np.lexsort((index.keys[idx, 1], id_rank[idx], dists))[:top_c]
    hits = []
    for pos in order:
        entry = idx[pos]
        hits.append(ClipHit(video_id=index.video_ids[int(index.keys[entry, 0])],
                            clip_idx=int(index.keys[entry, 1]),
                            sq_distance=float(dists[pos])))
    return hits


def reference_corpus_clip_matrix(corpus, params):
    """Embed each video's clips into its own float32 block, key by key."""
    keys = []
    blocks = []
    for ordinal, video in enumerate(corpus.videos):
        feats = corpus.features_for(video.video_id)
        emb = embed_clips(feats, compute_context(feats), None, params)
        blocks.append(emb.astype(np.float32))
        for k in range(video.num_clips):
            keys.append((ordinal, k))
    return np.asarray(keys, dtype=np.uint32), np.concatenate(blocks, axis=0)


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


def reference_sigmoid(x):
    # Branch on sign to avoid overflow in exp for large |x|.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_lstm_forward_batch(words, mask, params, want_cache=False):
    words = np.asarray(words, dtype=np.float64)
    mask = np.asarray(mask, dtype=np.float64)
    b, t_max, _ = words.shape
    h_dim = params.dims.hidden_lstm
    h = np.zeros((b, h_dim))
    c = np.zeros((b, h_dim))
    steps = []
    for t in range(t_max):
        x_t = words[:, t, :]
        alpha = x_t @ params.lstm_wx.T + h @ params.lstm_wh.T + params.lstm_b
        i = reference_sigmoid(alpha[:, 0:h_dim])
        f = reference_sigmoid(alpha[:, h_dim:2 * h_dim])
        o = reference_sigmoid(alpha[:, 2 * h_dim:3 * h_dim])
        g = np.tanh(alpha[:, 3 * h_dim:])
        c_new = f * c + i * g
        tanh_c = np.tanh(c_new)
        h_new = o * tanh_c
        m = mask[:, t][:, None]
        if want_cache:
            steps.append({
                "x": x_t, "h_prev": h, "c_prev": c,
                "i": i, "f": f, "o": o, "g": g,
                "c_new": c_new, "tanh_c": tanh_c, "m": m,
            })
        h = m * h_new + (1.0 - m) * h
        c = m * c_new + (1.0 - m) * c
    if want_cache:
        return h, steps
    return h


def reference_lstm_backward(d_ht, steps, params):
    d_wx = np.zeros_like(params.lstm_wx)
    d_wh = np.zeros_like(params.lstm_wh)
    d_b = np.zeros_like(params.lstm_b)
    dh = d_ht.copy()
    dc = np.zeros_like(d_ht)
    for step in reversed(steps):
        m = step["m"]
        dh_new = m * dh
        dh_carry = (1.0 - m) * dh
        dc_new = m * dc + dh_new * step["o"] * (1.0 - step["tanh_c"] ** 2)
        do = dh_new * step["tanh_c"]
        dc_carry = (1.0 - m) * dc + dc_new * step["f"]
        di = dc_new * step["g"]
        df = dc_new * step["c_prev"]
        dg = dc_new * step["i"]
        d_alpha = np.concatenate([
            di * step["i"] * (1.0 - step["i"]),
            df * step["f"] * (1.0 - step["f"]),
            do * step["o"] * (1.0 - step["o"]),
            dg * (1.0 - step["g"] ** 2),
        ], axis=1)
        d_wx += d_alpha.T @ step["x"]
        d_wh += d_alpha.T @ step["h_prev"]
        d_b += d_alpha.sum(axis=0)
        dh = dh_carry + d_alpha @ params.lstm_wh
        dc = dc_carry
    return d_wx, d_wh, d_b


def reference_embed_query(word_vectors, params):
    words = np.asarray(word_vectors, dtype=np.float64)
    h = reference_lstm_forward_batch(words[None, :, :], np.ones((1, words.shape[0])), params)
    return h[0] @ params.proj_w.T + params.proj_b


def reference_loss_and_grads(dataset, triples, params, cfg):
    """The batch loss and gradients through the references above, with the
    query-row gradient scattered by `np.add.at`."""
    x, seg, z_counts, words, mask = reference_assemble_batch(dataset, triples, params.dims,
                                                             cfg.variant)
    emb_rows, mlp_cache = mlp_forward(x, params, want_cache=True)
    h_t, steps = reference_lstm_forward_batch(words, mask, params, want_cache=True)
    f_q = h_t @ params.proj_w.T + params.proj_b
    row_triple = seg // 3
    diff = emb_rows - f_q[row_triple]
    d = np.einsum("ij,ij->i", diff, diff)
    costs = np.bincount(seg, weights=d, minlength=z_counts.shape[0]) / z_counts
    intra_hinge = ranking_loss(costs[0::3], costs[1::3], cfg.margin)
    inter_hinge = ranking_loss(costs[0::3], costs[2::3], cfg.margin)
    loss = float(np.sort(intra_hinge + cfg.inter_weight * inter_hinge).sum())

    d_costs = np.zeros(3 * len(triples))
    intra_on = (intra_hinge > 0).astype(np.float64)
    inter_on = (inter_hinge > 0).astype(np.float64)
    d_costs[0::3] = intra_on + cfg.inter_weight * inter_on
    d_costs[1::3] = -intra_on
    d_costs[2::3] = -cfg.inter_weight * inter_on
    d_rows = (d_costs[seg] / z_counts[seg])[:, None] * 2.0 * diff
    d_fq = np.zeros_like(f_q)
    np.add.at(d_fq, row_triple, -d_rows)
    d_z1 = (d_rows @ params.mlp_w2) * (mlp_cache["z1"] > 0)
    d_wx, d_wh, d_lstm_b = reference_lstm_backward(d_fq @ params.proj_w, steps, params)
    grads = {
        "mlp_w1": d_z1.T @ mlp_cache["x"], "mlp_b1": d_z1.sum(axis=0),
        "mlp_w2": d_rows.T @ mlp_cache["a1"], "mlp_b2": d_rows.sum(axis=0),
        "lstm_wx": d_wx, "lstm_wh": d_wh, "lstm_b": d_lstm_b,
        "proj_w": d_fq.T @ h_t, "proj_b": d_fq.sum(axis=0),
    }
    return loss, grads


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
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


# Finite values at the edges of exp's range (709 is the last argument whose
# exp is finite, 746 the first whose exp(-x) underflows to 0), subnormals and
# signed zeros.
SIGMOID_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.5e-310, 1e-300, -1e-300,
                 709.0, -709.0, 709.78, -709.78, 745.0, -745.0, 746.0, -746.0,
                 1e308, -1e308, np.inf, -np.inf, 36.7, -36.7, 37.5, -37.5]


def test_sigmoid_equals_masked_branch_reference():
    rng = np.random.default_rng(11)
    edges = np.array(SIGMOID_EDGES)
    for x in (edges, edges.reshape(4, 6), rng.standard_normal((37, 12)) * 8,
              np.concatenate([edges, rng.standard_normal(100) * 800])):
        assert sigmoid(x).tobytes() == reference_sigmoid(x).tobytes()
    # One call covers the i | f | o blocks of a (batch, 4H) gate matrix: a
    # strided view.
    alpha = rng.standard_normal((64, 4 * 16)) * 6
    alpha[5, :24] = edges
    block = alpha[:, :48]
    assert sigmoid(block).tobytes() == reference_sigmoid(block).tobytes()
    assert alpha[:, :48].tobytes() == block.tobytes()  # the input is not written


def ragged_batch(rng, b, t_max, word_in):
    """Random words in every slot, padding included; rows of random lengths
    1..t_max, the last of them all padding when b > 1."""
    words = rng.standard_normal((b, t_max, word_in))
    lengths = rng.integers(1, t_max + 1, size=b)
    lengths[0] = t_max
    if b > 1:
        lengths[-1] = 0
    mask = (np.arange(t_max) < lengths[:, None]).astype(np.float64)
    return words, mask


@pytest.mark.parametrize("b", [1, 3, 64])
def test_lstm_forward_and_backward_equal_per_step_dict_reference(b):
    rng = np.random.default_rng(b)
    dims = ModelDims(5, 6, hidden_mlp=4, embed=5, hidden_lstm=16)
    params = init_params(dims, b)
    params.lstm_b[...] = rng.standard_normal(params.lstm_b.shape)
    for t_max in (1, 2, 9):
        words, mask = ragged_batch(rng, b, t_max, dims.word_in)
        h, steps = lstm_forward_batch(words, mask, params, want_cache=True)
        h_ref, steps_ref = reference_lstm_forward_batch(words, mask, params, want_cache=True)
        assert h.tobytes() == h_ref.tobytes()
        assert lstm_forward_batch(words, mask, params).tobytes() == h_ref.tobytes()
        d_ht = rng.standard_normal(h.shape)
        got = _lstm_backward(d_ht, steps, params)
        want = reference_lstm_backward(d_ht, steps_ref, params)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()


def test_embed_query_equals_reference():
    rng = np.random.default_rng(12)
    for hidden, word_in in ((3, 2), (16, 7), (64, 32)):
        params = init_params(ModelDims(4, word_in, hidden_mlp=5, embed=6, hidden_lstm=hidden),
                             hidden)
        for t in (1, 2, 5, 12):
            words = rng.standard_normal((t, word_in))
            assert embed_query(words, params).tobytes() == \
                reference_embed_query(words, params).tobytes()


@pytest.mark.parametrize("variant, mode", VARIANT_MODES)
def test_loss_and_grads_equal_reference(variant, mode):
    enum_cfg = PRESETS["didemo"].enum
    corpus, queries = varied_corpus(np.random.default_rng(13), enum_cfg.clip_length)
    queries = [Query(q.query_id, np.random.default_rng(k).standard_normal((1 + k % 6, 2)),
                     q.ground_truth) for k, q in enumerate(queries)]  # 1-6 words each
    dataset = TrainDataset(corpus, queries, enum_cfg)
    dims = ModelDims(3, 2, hidden_mlp=9, embed=6, hidden_lstm=8, use_tef=mode != "plain",
                     tef_only=mode == "tef_only")
    params = init_params(dims, 14)
    for seed, margin in ((15, 0.1), (16, 2.0)):
        cfg = TrainConfig(batch_triples=24, variant=variant, seed=seed, margin=margin,
                          inter_weight=0.4)
        triples = sample_triples(dataset, cfg, np.random.default_rng(seed))
        loss, grads = loss_and_grads(dataset, triples, params, cfg)
        want_loss, want_grads = reference_loss_and_grads(dataset, triples, params, cfg)
        assert loss.hex() == want_loss.hex()
        assert sorted(grads) == sorted(want_grads)
        for name, g in grads.items():
            assert g.tobytes() == want_grads[name].tobytes(), name


# The three presets, plus a minimum length above some videos' clip counts,
# so that some videos have no candidate.
RANKING_ENUMS = {
    **{name: preset.enum for name, preset in PRESETS.items()},
    "min-above-clips": EnumConfig(clip_length=3.0, max_moment_clips=9, stride_ratio=0.3,
                                  min_moment_clips=6),
}


def shuffled_corpus(seed, clip_length, num_videos=24, max_clips=39):
    """`varied_corpus` videos of 2-39 clips whose ids are not in corpus order."""
    corpus, queries = varied_corpus(np.random.default_rng(seed), clip_length,
                                    num_videos=num_videos, max_clips=max_clips)
    ids = [f"v{i:03d}" for i in np.random.default_rng(seed + 1).permutation(num_videos)]
    videos = [VideoMeta(new, v.duration, v.clip_length, v.num_clips)
              for new, v in zip(ids, corpus.videos)]
    features = {new: corpus.features_for(v.video_id) for new, v in zip(ids, corpus.videos)}
    return Corpus(videos, features), queries


def _ranked_hex(ranked):
    return [(s.moment, s.cost.hex()) for s in ranked]


@pytest.mark.parametrize("enum_name", sorted(RANKING_ENUMS))
@pytest.mark.parametrize("variant, mode", VARIANT_MODES)
def test_exhaustive_search_equals_per_video_route(enum_name, variant, mode):
    enum_cfg = RANKING_ENUMS[enum_name]
    corpus, queries = shuffled_corpus(3, enum_cfg.clip_length)
    params = init_params(_dims(mode, visual_in=3, word_in=2), 4)
    universe = corpus.total_candidates(enum_cfg)
    preset_nms = PRESETS[enum_name].nms_iou if enum_name in PRESETS else 0.6
    for nms_iou in sorted({preset_nms, 0.5, 1.0}):
        for top_k in (7, universe + 3):
            cfg = RetrievalConfig(variant=variant, nms_iou=nms_iou, top_k=top_k)
            for q in queries[:4]:
                got = exhaustive_search(corpus, q, params, enum_cfg, cfg)
                want, counters = reference_exhaustive(corpus, q, params, enum_cfg, cfg)
                assert _ranked_hex(got.ranked) == _ranked_hex(want)
                assert got.stage_counters == counters


@pytest.mark.parametrize("enum_name", sorted(RANKING_ENUMS))
def test_moment_two_stage_ranks_stage_one_costs_as_rescoring_would(enum_name):
    enum_cfg = RANKING_ENUMS[enum_name]
    corpus, queries = shuffled_corpus(5, enum_cfg.clip_length)
    params = init_params(_dims("plain", visual_in=3, word_in=2), 6)
    for nms_iou in (1.0, 0.5):
        for budget, top_k in ((30, 20), (corpus.total_candidates(enum_cfg), 50)):
            cfg = RetrievalConfig(nms_iou=nms_iou, top_k=top_k, budget=budget)
            for q in queries[:4]:
                got = two_stage_search(corpus, None, q, params, None, enum_cfg, cfg,
                                       mode="moment")
                want, counters = reference_two_stage_moment(corpus, q, params, enum_cfg, cfg)
                assert _ranked_hex(got.ranked) == _ranked_hex(want)
                # Stage one's costs are final: stage two evaluates no distance.
                assert got.stage_counters == {**counters, "stage2_distances": 0}


def test_ranked_moments_read_as_their_materialized_list():
    enum_cfg = PRESETS["charades-sta"].enum
    corpus, queries = shuffled_corpus(9, enum_cfg.clip_length)
    params = init_params(_dims("plain", visual_in=3, word_in=2), 2)
    ranked = exhaustive_search(corpus, queries[0], params, enum_cfg,
                               RetrievalConfig(nms_iou=0.6, top_k=37)).ranked
    assert isinstance(ranked, RankedMoments)
    items = list(ranked)
    n = len(items)
    assert len(ranked) == n == 37
    assert [ranked[i] for i in range(-n, n)] == items[-n:] + items
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            ranked[bad]
    for cut in (slice(None), slice(3, 11), slice(-5, None), slice(None, None, -2),
                slice(2, 30, 7), slice(40, 50)):
        part = ranked[cut]
        assert isinstance(part, RankedMoments)
        assert list(part) == items[cut]
        assert part == items[cut]
    assert ranked == items and ranked == tuple(items) and ranked != items[1:]
    assert [s.cost for s in ranked] == [s.cost for s in items]
    empty = ranked[n:]
    assert len(empty) == 0 and empty == [] and list(empty) == []


def reordered_ids(index, seed):
    """The same entries under an id table in another order than the corpus
    manifest's."""
    perm = np.random.default_rng(seed).permutation(len(index.video_ids))
    keys = index.keys.copy()
    keys[:, 0] = np.argsort(perm)[index.keys[:, 0]]
    ids = tuple(index.video_ids[o] for o in perm)
    if isinstance(index, IvfIndex):
        return IvfIndex(ids, keys, index.vectors, index.centroids, index.offsets)
    return ClipIndex(ids, keys, index.vectors)


# index kind -> (flavor, IVF nprobe or None for every partition, ids reordered)
APPROX_INDEXES = {
    "exact": ("exact", None, False),
    "exact-reordered": ("exact", None, True),
    "ivf-nprobe1": ("ivf", 1, False),
    "ivf-nprobe2": ("ivf", 2, False),
    "ivf-all": ("ivf", None, False),
    "ivf-nprobe2-reordered": ("ivf", 2, True),
}
# re-ranker -> (stage-two variant, its model's input mode; None reuses stage one's model)
APPROX_RERANKERS = {
    "cal": ("cal", None),
    "aggregate": ("aggregate", None),
    "cal-separate-wide-model": ("cal", "wide"),
    "cal_tef": ("cal", "tef"),
    "aggregate_tef": ("aggregate", "tef"),
}


def _rerank_model(mode):
    if mode == "wide":
        # Wide enough that one GEMM over many videos' clips rounds unlike
        # the per-video GEMMs, which the ranking must keep.
        return init_params(ModelDims(3, 2, hidden_mlp=64, embed=48, hidden_lstm=3), 14)
    return init_params(_dims(mode, visual_in=3, word_in=2), 14)


@pytest.mark.parametrize("reranker", sorted(APPROX_RERANKERS))
@pytest.mark.parametrize("index_kind", sorted(APPROX_INDEXES))
@pytest.mark.parametrize("enum_name", ["charades-sta", "min-above-clips"])
def test_approx_search_equals_per_video_route(enum_name, index_kind, reranker):
    # Under "min-above-clips" a touched video may have no candidate at all.
    enum_cfg = RANKING_ENUMS[enum_name]
    corpus, queries = shuffled_corpus(11, enum_cfg.clip_length)
    params = init_params(_dims("plain", visual_in=3, word_in=2), 12)
    flavor, nprobe, reorder = APPROX_INDEXES[index_kind]
    index = build_exact(corpus, params) if flavor == "exact" else \
        build_ivf(corpus, params, partitions=9, seed=2)
    nprobe = (nprobe or index.num_partitions) if flavor == "ivf" else 8
    if reorder:
        index = reordered_ids(index, 13)
        assert index.video_ids != tuple(v.video_id for v in corpus.videos)
    variant, mode = APPROX_RERANKERS[reranker]
    rerank = None if mode is None else _rerank_model(mode)
    for clip_budget in (12, corpus.total_clips + 5):
        for dilation in (0, 2):
            for nms_iou in (0.6, 0.5, 1.0):  # 0.6: charades-sta's preset
                cfg = RetrievalConfig(rerank_variant=variant, clip_budget=clip_budget,
                                      nprobe=nprobe, dilation_clips=dilation, nms_iou=nms_iou,
                                      top_k=60)
                for q in queries[:1]:
                    got = two_stage_search(corpus, index, q, params, rerank, enum_cfg, cfg)
                    want, counters = reference_approx(corpus, index, q, params, rerank,
                                                      enum_cfg, cfg)
                    assert _ranked_hex(got.ranked) == _ranked_hex(want)
                    assert got.stage_counters == counters


# (stage-one variant, re-ranker): stage one under the plain model re-ranked
# by each approximate-mode re-ranker, and an aggregate stage one re-ranked by
# clip alignment under the same model.
MOMENT_RERANKS = [*(("cal", r) for r in sorted(APPROX_RERANKERS)), ("aggregate", "cal")]


@pytest.mark.parametrize("stage1_variant, reranker", MOMENT_RERANKS)
@pytest.mark.parametrize("enum_name", ["charades-sta", "min-above-clips"])
def test_moment_two_stage_rerank_equals_per_video_route(enum_name, stage1_variant, reranker):
    enum_cfg = RANKING_ENUMS[enum_name]
    corpus, queries = shuffled_corpus(5, enum_cfg.clip_length)
    params = init_params(_dims("plain", visual_in=3, word_in=2), 6)
    variant, mode = APPROX_RERANKERS[reranker]
    rerank = None if mode is None else _rerank_model(mode)
    # Stage one's own costs are final: stage two evaluates no distance.
    final = stage1_variant == variant == "cal" and rerank is None
    for nms_iou in (0.6, 0.5, 1.0):
        for budget, top_k in ((30, 20), (corpus.total_candidates(enum_cfg), 50)):
            cfg = RetrievalConfig(variant=stage1_variant, rerank_variant=variant,
                                  nms_iou=nms_iou, top_k=top_k, budget=budget)
            for q in queries[:2]:
                got = two_stage_search(corpus, None, q, params, rerank, enum_cfg, cfg,
                                       mode="moment")
                want, counters = reference_two_stage_moment(corpus, q, params, enum_cfg, cfg,
                                                            rerank)
                assert _ranked_hex(got.ranked) == _ranked_hex(want)
                assert got.stage_counters == \
                    ({**counters, "stage2_distances": 0} if final else counters)


def _hits_hex(hits):
    return [(h.video_id, h.clip_idx, h.sq_distance.hex()) for h in hits]


def test_index_search_equals_list_building_search():
    corpus, _ = shuffled_corpus(15, 3.0)
    params = init_params(_dims("plain", visual_in=3, word_in=2), 16)
    exact = build_exact(corpus, params)
    ivf = build_ivf(corpus, params, partitions=7, seed=3)
    rng = np.random.default_rng(17)
    for index in (exact, ivf, reordered_ids(exact, 18), reordered_ids(ivf, 19)):
        probes = (1, 2, 7) if isinstance(index, IvfIndex) else (None,)
        for nprobe in probes:
            for top_c in (1, 9, index.num_entries, index.num_entries + 4):
                # A NaN query makes every distance NaN; such hits still rank by id and clip.
                for q in [rng.standard_normal(index.dim) for _ in range(3)] + \
                        [np.full(index.dim, np.nan)]:
                    got, _ = index.search(q, top_c=top_c, **({"nprobe": nprobe} if nprobe else {}))
                    want = reference_index_search(index, q, top_c, nprobe)
                    assert isinstance(got, ClipHits)
                    assert _hits_hex(got) == _hits_hex(want)
                    assert np.isnan(q).any() or got == want


def test_clip_hits_read_as_their_materialized_list():
    corpus, _ = shuffled_corpus(20, 3.0)
    index = build_exact(corpus, init_params(_dims("plain", visual_in=3, word_in=2), 21))
    hits, _ = index.search(np.random.default_rng(22).standard_normal(index.dim), top_c=23)
    items = list(hits)
    n = len(items)
    assert len(hits) == n == 23
    assert all(isinstance(h, ClipHit) for h in items)
    assert [hits[i] for i in range(-n, n)] == items[-n:] + items
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            hits[bad]
    for cut in (slice(None), slice(3, 11), slice(-5, None), slice(None, None, -2)):
        assert isinstance(hits[cut], ClipHits)
        assert hits[cut] == items[cut] and list(hits[cut]) == items[cut]
    assert hits == items and hits == tuple(items) and hits != items[1:]
    assert [(h.video_id, h.clip_idx) for h in hits] == [(h.video_id, h.clip_idx) for h in items]
    empty = hits[n:]
    assert len(empty) == 0 and not empty and empty == [] and list(empty) == []


@pytest.mark.parametrize("wide", [False, True])
def test_corpus_clip_matrix_equals_per_video_reference(wide):
    corpus, _ = shuffled_corpus(23, 3.0)
    assert min(v.num_clips for v in corpus.videos) == 2
    params = _rerank_model("wide") if wide else init_params(_dims("plain", 3, 2), 24)
    got, want = corpus_clip_matrix(corpus, params), reference_corpus_clip_matrix(corpus, params)
    for a, b in zip(got, want):
        assert (a.dtype, a.shape) == (b.dtype, b.shape) and a.tobytes() == b.tobytes()


def test_searched_corpus_is_freed_once_its_last_reference_drops():
    # The corpus holds its candidate table and clip matrix. A reference back
    # from them would form a cycle that only the cyclic collector frees, so
    # the collector is off here: reference counting alone must free it.
    enum_cfg = PRESETS["charades-sta"].enum
    params = init_params(_dims("plain", 3, 2), 25)
    cfg = RetrievalConfig(nms_iou=0.5, top_k=20, budget=30)
    gc.collect()
    gc.disable()
    try:
        corpus, queries = shuffled_corpus(26, enum_cfg.clip_length)
        index = build_ivf(corpus, params, partitions=5, seed=1)
        q = queries[0]
        results = [
            exhaustive_search(corpus, q, params, enum_cfg, cfg),
            exhaustive_search(corpus, q, params, enum_cfg, replace(cfg, variant="aggregate")),
            two_stage_search(corpus, None, q, params, _rerank_model("tef"), enum_cfg, cfg,
                             mode="moment"),
            two_stage_search(corpus, index, q, params, None, enum_cfg, cfg),
            baseline_scores(corpus, q, "chance", enum_cfg, cfg),
        ]
        assert corpus.candidates is not None
        freed = weakref.ref(corpus)
        del corpus
        assert freed() is None
        # The results keep what they read (the video list), not the corpus.
        assert all(len(r.ranked) > 0 for r in results)
    finally:
        gc.enable()
