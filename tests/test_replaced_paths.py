"""The per-variant cost code, the per-moment batch assembly, the
per-video ranking routes, the unbounded selection, the list-building index
search and index build, the gathering exact and IVF scan, the per-video
candidate grids, the dict-mapped hit candidates, the whole-matrix IVF
build and save, the per-video embedding loop and contexts, and the
masked-branch sigmoid, per-step-dict LSTM and concatenating LSTM backward
that `costs.score_moments`, `training._assemble_batch`, the
candidate-table and batched approximate search, `retrieval._select`'s
per-video bound, `index.ClipHits`, `ClipIndex._scan`'s in-place list
scan, `CandidateTable`'s gather from `retrieval._grid_table`,
`retrieval._hit_candidates`' ordinal map, `index.corpus_clip_matrix`, the
float32 row blocks of `index.build_ivf` (k-means++ seeding and means
included) and the row blocks of `index.save_index`,
`model.embed_videos`'s gathered chunks, `dataio.Corpus.contexts` and
`model.range_means`, `model.sigmoid`, `model.lstm_forward_batch` and
`training._lstm_backward`, and the per-file `dataio.load_corpus` /
`load_queries` and whole-payload `index.load_index` replaced, kept here as
references: the merged paths must give the same bytes. Suppression in the
references is the greedy `temporal_iou` loop, not the product's `nms`,
except in `reference_select`, which isolates the bound. `reference_generated`
replays `dataio.generate_synthetic`'s draws with every candidate built as a
`Moment`, as the generator did before it planted from `candidate_clips` pairs.

Costs and distances are compared by `float.hex`, batch tensors and
gradients by `tobytes()`.
"""

import gc
import json
import os
import weakref
from collections import namedtuple
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentsearch import index as index_mod
from momentsearch import model
from momentsearch import retrieval as retrieval_mod
from momentsearch.core import (
    GroundTruth,
    Moment,
    Query,
    TemporalSpan,
    VideoMeta,
    clip_spans,
    grid_spans,
    offsets,
    span_ious,
)
from momentsearch.costs import ScoredMoment, score_moments, sq_distances
from momentsearch import dataio
from momentsearch.dataio import (
    FORMAT_VERSION,
    Corpus,
    FormatError,
    _load_lines,
    _require,
    check_header,
    expect_eof,
    load_corpus,
    load_queries,
    read_array,
    read_features,
    read_manifest,
    save_corpus,
    write_features,
    write_jsonl,
)
from momentsearch.enumeration import (
    PRESETS,
    DatasetPreset,
    EnumConfig,
    candidate_clips,
    enumerate_moments,
)
from momentsearch.index import (
    INDEX_MAGIC,
    ClipHit,
    ClipHits,
    ClipIndex,
    IvfIndex,
    _kmeans_pp_seed,
    build_exact,
    build_ivf,
    corpus_clip_matrix,
    load_index,
    save_index,
)
from momentsearch.model import (
    ModelDims,
    assemble_visual_inputs,
    compute_context,
    embed_clips,
    embed_query,
    embed_videos,
    init_params,
    lstm_forward_batch,
    mlp_forward,
    sigmoid,
    tef,
)
from momentsearch.retrieval import (
    CandidateTable,
    RankedMoments,
    RetrievalConfig,
    _select,
    baseline_scores,
    exhaustive_search,
    nms,
    run_starts,
    two_stage_search,
)
from momentsearch.training import (
    TrainConfig,
    TrainDataset,
    _assemble_batch,
    _lstm_backward,
    batch_loss,
    exponential_rank_weights,
    loss_and_grads,
    make_rank_sampler,
    ranking_loss,
    sample_triples,
)
from conftest import greedy_nms_reference, make_corpus, varied_corpus

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


def reference_score_moments(video, video_features, query_emb, variant, params, firsts, lasts):
    if len(firsts) == 0:
        return np.empty(0, dtype=np.float64)
    feats = np.asarray(video_features, dtype=np.float64)
    context = compute_context(feats)
    q = np.asarray(query_emb, dtype=np.float64)
    if params.dims.use_tef:
        costs, _ = reference_tef_costs_for_moments(
            video, feats, context, q, firsts, lasts, params, aggregate=variant == "aggregate"
        )
    elif variant == "cal":
        emb = embed_clips(feats, context, None, params)
        d = sq_distances(np.asarray(emb, dtype=np.float64), q)
        prefix = np.zeros(d.shape[0] + 1, dtype=np.float64)
        np.cumsum(d, out=prefix[1:])
        costs = (prefix[lasts + 1] - prefix[firsts]) / (lasts - firsts + 1)
    elif variant == "aggregate":
        pooled = np.stack([
            feats[first:last + 1].mean(axis=0)
            for first, last in zip(firsts.tolist(), lasts.tolist())
        ])
        inputs = assemble_visual_inputs(pooled, context, None, params.dims)
        emb = mlp_forward(inputs, params)
        costs = sq_distances(emb, q)
    return costs


def reference_distance_count(video, variant, params, firsts, lasts):
    """Distances that pricing one video's moments evaluates: one per clip
    under clip alignment without TEF, else one per moment row (each clip,
    or one pooled row under "aggregate"); none without moments."""
    if len(firsts) == 0:
        return 0
    if variant == "cal" and not params.dims.use_tef:
        return video.num_clips
    return len(firsts) if variant == "aggregate" else int((lasts - firsts + 1).sum())


Counts = namedtuple("Counts", "distance_evals moments_scored")


def reference_rank(groups, q_emb, variant, params, nms_iou, top_k):
    """Score each (video, features, firsts, lasts) group, suppress within the
    video cheapest first, and merge by (cost, video_id, first, last)."""
    evals = scored = 0
    videos, rows = [], []
    for video, feats, firsts, lasts in groups:
        costs = score_moments(video, feats, q_emb, variant, params, firsts, lasts)
        evals += reference_distance_count(video, variant, params, firsts, lasts)
        scored += len(firsts)
        order = np.lexsort((lasts, firsts, costs))
        spans = [Moment.from_clips(video, f, l).span
                 for f, l in zip(firsts[order].tolist(), lasts[order].tolist())]
        kept = order[np.asarray(greedy_nms_reference(spans, nms_iou), dtype=np.int64)]
        rows.append((np.full(len(kept), len(videos)), firsts[kept], lasts[kept], costs[kept]))
        videos.append(video)
    if not videos:
        return [], Counts(evals, scored)
    ordinal, firsts, lasts, costs = (np.concatenate(col) for col in zip(*rows))
    id_rank = np.argsort(np.argsort(np.asarray([v.video_id for v in videos], dtype=object)))
    top = np.lexsort((lasts, firsts, id_rank[ordinal], costs))[:top_k]
    return [ScoredMoment(Moment.from_clips(videos[v], f, l), c)
            for v, f, l, c in zip(ordinal[top].tolist(), firsts[top].tolist(),
                                  lasts[top].tolist(), costs[top].tolist())], Counts(evals, scored)


def reference_select(corpus, ordinal, firsts, lasts, costs, nms_iou, top_k):
    """`retrieval._select` without the per-video bound: below NMS 1 every
    row is sorted on four keys and swept by `nms`."""
    rows = np.arange(len(costs))
    if nms_iou >= 1 and top_k < len(rows):
        rows = rows[~(costs > np.partition(costs, top_k - 1)[top_k - 1])]
    rows = rows[np.lexsort((lasts[rows], firsts[rows], costs[rows], ordinal[rows]))]
    video = ordinal[rows]
    spans = grid_spans(corpus.clip_length[video], corpus.duration[video], firsts[rows],
                       lasts[rows])
    rows = rows[nms(spans, nms_iou, np.searchsorted(video, video, side="right"))]
    top = rows[np.lexsort((lasts[rows], firsts[rows], corpus.id_rank[ordinal[rows]],
                           costs[rows]))][:top_k]
    return RankedMoments(corpus.videos, ordinal[top], firsts[top], lasts[top], costs[top])


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


def reference_gathering_search(index, query_emb, top_c, nprobe):
    """`ClipIndex.search` or `IvfIndex.search` gathering every scanned row
    (every entry, or every probed list's) into one matrix before one
    distance pass and one lexsort of all of them: (hits, stats)."""
    q = np.asarray(query_emb, dtype=np.float32)
    if isinstance(index, IvfIndex):
        p = index.num_partitions
        cdiff = index.centroids - q
        cdist = np.einsum("ij,ij->i", cdiff, cdiff)
        probe = np.lexsort((np.arange(p), cdist))[:nprobe]
        chunks = [np.arange(int(index.offsets[part]), int(index.offsets[part + 1]))
                  for part in np.sort(probe)]
        idx = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
        stats = index_mod.SearchStats(distance_evals=int(idx.shape[0]), centroid_evals=p,
                                      partitions_probed=int(nprobe))
    else:
        idx = np.arange(index.num_entries)
        stats = index_mod.SearchStats(distance_evals=index.num_entries)
    diff = index.vectors[idx] - q
    dists = np.einsum("ij,ij->i", diff, diff)
    id_rank = np.argsort(np.argsort(np.asarray(index.video_ids)))
    id_rank = id_rank[index.keys[:, 0].astype(np.int64)]
    order = np.lexsort((index.keys[idx, 1], id_rank[idx], dists))[:top_c]
    entry = idx[order]
    return ClipHits(index.video_ids, index.keys[entry, 0], index.keys[entry, 1],
                    dists[order]), stats


def reference_hit_candidates(corpus, hits, enum_cfg, dilation):
    """`retrieval._hit_candidates` mapping each touched index ordinal to the
    corpus by id through `ordinal_of`, with one `candidate_clips` grid per
    touched video."""
    hit_ordinal, clips, _ = hits.arrays()
    index_ordinal, hit_at = np.unique(hit_ordinal, return_inverse=True)
    mapped = [corpus.ordinal_of[hits.video_ids[o]] for o in index_ordinal.tolist()]
    videos, video_at = np.unique(np.asarray(mapped, dtype=np.int64), return_inverse=True)
    num_clips = corpus.num_clips[videos]
    width = int(num_clips.max()) + 1
    count = np.bincount(video_at[hit_at] * width + clips + 1, minlength=len(videos) * width)
    count = count.reshape(len(videos), width).cumsum(axis=1)
    grids = [candidate_clips(n, enum_cfg) for n in num_clips.tolist()]
    row = np.repeat(np.arange(len(videos)), [len(g) for g in grids])
    firsts, lasts = np.concatenate(grids).T
    hit = (count[row, np.minimum(lasts + dilation, num_clips[row] - 1) + 1]
           > count[row, np.maximum(firsts - dilation, 0)])
    return videos[row[hit]], firsts[hit], lasts[hit]


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


def reference_embed_videos(blocks, params, dtype=np.float64):
    """One `embed_clips` call per video, written in order into one `dtype` matrix."""
    matrix = np.empty((sum(len(b) for b in blocks), params.dims.embed), dtype=dtype)
    row = 0
    for feats in blocks:
        matrix[row:row + len(feats)] = embed_clips(feats, compute_context(feats), None, params)
        row += len(feats)
    return matrix


def reference_assign(x, centroids, chunk=16384):
    # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2; the ||x||^2 term is rank-invariant.
    c_norms = np.einsum("ij,ij->i", centroids, centroids)
    labels = np.empty(x.shape[0], dtype=np.int64)
    for lo in range(0, x.shape[0], chunk):
        block = x[lo:lo + chunk]
        scores = -2.0 * (block @ centroids.T) + c_norms
        labels[lo:lo + chunk] = np.argmin(scores, axis=1)
    return labels


def reference_kmeans_pp_seed(x, p, rng):
    """k-means++ over the whole float64 matrix: one GEMV over every row a step."""
    n = x.shape[0]
    x_norms = np.einsum("ij,ij->i", x, x)
    centroids = np.empty((p, x.shape[1]), dtype=np.float64)
    first = int(rng.integers(0, n))
    centroids[0] = x[first]
    best = np.maximum(x_norms - 2.0 * (x @ centroids[0]) + x_norms[first], 0.0)
    for i in range(1, p):
        total = best.sum()
        if total <= 0:
            pick = int(rng.integers(0, n))
        else:
            pick = int(rng.choice(n, p=best / total))
        centroids[i] = x[pick]
        d = np.maximum(x_norms - 2.0 * (x @ centroids[i]) + x_norms[pick], 0.0)
        best = np.minimum(best, d)
    return centroids


def reference_centroid_means(x, labels, centroids):
    """Per-partition means of the float64 rows; an empty partition keeps its centroid."""
    p, dim = centroids.shape
    counts = np.bincount(labels, minlength=p).astype(np.float64)
    sums = np.empty((p, dim), dtype=np.float64)
    for d in range(dim):
        sums[:, d] = np.bincount(labels, weights=x[:, d], minlength=p)
    out = centroids.copy()
    nonzero = counts > 0
    out[nonzero] = sums[nonzero] / counts[nonzero, None]
    return out


def reference_build_ivf(corpus, params, partitions=None, seed=0, kmeans_iters=10):
    """Whole float64 matrix build: (16,384, p) score blocks, full differences, one sort copy."""
    keys, vectors = corpus_clip_matrix(corpus, params)
    n = vectors.shape[0]
    p = partitions if partitions is not None else int(np.ceil(np.sqrt(n)))
    if not 1 <= p <= n:
        raise ValueError(f"partition count must lie in [1, {n}], got {p}")
    rng = np.random.default_rng(seed)
    x = vectors.astype(np.float64)
    centroids = reference_kmeans_pp_seed(x, p, rng)
    for _ in range(kmeans_iters):
        labels = reference_assign(x, centroids)
        centroids = reference_centroid_means(x, labels, centroids)
    labels = reference_assign(x, centroids)

    empty = [j for j in range(p) if not np.any(labels == j)]
    if empty:
        dist_to_own = np.einsum("ij,ij->i", x - centroids[labels], x - centroids[labels])
        order = np.argsort(-dist_to_own)
        for j, entry in zip(empty, order):
            centroids[j] = x[entry]
        labels = reference_assign(x, centroids)

    order = np.lexsort((np.arange(n), labels))
    counts = np.bincount(labels, minlength=p)
    offsets = np.zeros(p + 1, dtype=np.uint64)
    np.cumsum(counts, out=offsets[1:])
    return IvfIndex(
        tuple(v.video_id for v in corpus.videos),
        keys[order],
        vectors[order],
        centroids.astype(np.float32),
        offsets,
    )


def reference_save_index(index, path):
    """One interleaved payload array, written with one `tobytes()` copy."""
    with open(path, "wb") as f:
        f.write(INDEX_MAGIC)
        f.write(np.asarray([FORMAT_VERSION], "<u2").tobytes())
        f.write(np.asarray([index.flavor], "u1").tobytes())
        f.write(np.asarray([index.dim], "<u4").tobytes())
        f.write(np.asarray([index.num_entries], "<u8").tobytes())
        interleaved = np.empty((index.num_entries, 2 + index.dim), dtype="<u4")
        interleaved[:, :2] = index.keys
        interleaved[:, 2:] = index.vectors.astype("<f4").view("<u4")
        f.write(interleaved.tobytes())
        if isinstance(index, IvfIndex):
            f.write(np.asarray([index.num_partitions], "<u4").tobytes())
            f.write(index.centroids.astype("<f4").tobytes())
            f.write(index.offsets.astype("<u8").tobytes())


def reference_load_lines(path):
    """`dataio._load_lines` decoding every line with `json.loads`."""
    records = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append((lineno, json.loads(line)))
            except json.JSONDecodeError as e:
                raise FormatError(f"{path}:{lineno}: invalid record: {e}") from None
    return records


def reference_load_corpus(corpus_dir):
    """(videos, features): one `read_features` call and one float64 copy per video."""
    videos = read_manifest(os.path.join(corpus_dir, "manifest.jsonl"))
    features = {}
    for v in videos:
        m = read_features(os.path.join(corpus_dir, v.feature_ref)).astype(np.float64)
        features[v.video_id] = m
    return videos, features


def reference_load_queries(path, base_dir):
    """One `read_features` call and one float64 copy per words file."""
    queries = []
    seen = set()
    for lineno, rec in _load_lines(path):
        _require(rec, ("query_id", "video_id", "spans", "words_path"), path, lineno)
        if rec["query_id"] in seen:
            raise FormatError(f"{path}:{lineno}: duplicate query_id {rec['query_id']!r}")
        seen.add(rec["query_id"])
        spans = tuple(TemporalSpan(float(s), float(e)) for s, e in rec["spans"])
        words = read_features(os.path.join(base_dir, rec["words_path"])).astype(np.float64)
        queries.append(Query(
            query_id=rec["query_id"],
            word_vectors=words,
            ground_truth=GroundTruth(rec["video_id"], spans),
        ))
    return queries


def reference_load_index(path, video_ids):
    """The whole interleaved payload read at once, then keys and vectors copied out."""
    with open(path, "rb") as f:
        check_header(f, INDEX_MAGIC, path)
        flavor = int(read_array(f, "u1", 1, "flavor", path)[0])
        dim = int(read_array(f, "<u4", 1, "dim", path)[0])
        count = int(read_array(f, "<u8", 1, "entry count", path)[0])
        if count == 0:
            raise FormatError(f"{path}: entry count at byte 11 is 0; an index needs entries")
        entries = read_array(f, "<u4", count * (2 + dim), "entries", path)
        interleaved = entries.reshape(count, 2 + dim)
        keys = interleaved[:, :2].astype(np.uint32)
        vectors = interleaved[:, 2:].copy().view("<f4")
        max_ordinal = int(keys[:, 0].max())
        if max_ordinal >= len(video_ids):
            raise FormatError(f"{path}: entry references video ordinal {max_ordinal}, "
                              f"but only {len(video_ids)} ids were supplied")
        if flavor == index_mod.FLAVOR_EXACT:
            expect_eof(f, path)
            index = ClipIndex(video_ids, keys, vectors)
        elif flavor == index_mod.FLAVOR_IVF:
            p = int(read_array(f, "<u4", 1, "partition count", path)[0])
            centroids = read_array(f, "<f4", p * dim, "centroids", path).reshape(p, dim).copy()
            offsets = read_array(f, "<u8", p + 1, "offsets", path).copy()
            expect_eof(f, path)
            if offsets[0] != 0 or np.any(offsets[1:] < offsets[:-1]) or offsets[-1] != count:
                raise FormatError(f"{path}: IVF partition offsets must start at 0, never "
                                  f"decrease and end at the entry count {count}")
            index = IvfIndex(video_ids, keys, vectors, centroids, offsets)
        else:
            raise FormatError(f"{path}: unknown index flavor {flavor}")
    if not np.all(np.isfinite(index.vectors)):
        raise FormatError(f"{path}: non-finite vector payload")
    return index


class ReferenceTrainDataset:
    """The per-`Moment` training dataset: each video's `enumerate_moments`
    list, a (first, last) -> `Moment` dict and normalized endpoints."""

    def __init__(self, corpus, queries, enum_cfg):
        self.corpus = corpus
        self.candidates, self.candidate_keys, self.norm_endpoints, spans = {}, {}, {}, {}
        for video in corpus.videos:
            cands = enumerate_moments(video, enum_cfg)
            self.candidates[video.video_id] = cands
            self.candidate_keys[video.video_id] = {(m.first_clip, m.last_clip): m for m in cands}
            spans[video.video_id] = clip_spans(video, *candidate_clips(video.num_clips,
                                                                       enum_cfg).T)
            self.norm_endpoints[video.video_id] = spans[video.video_id] / video.duration
        self.enumerable_video_ids = [v.video_id for v in corpus.videos
                                     if self.candidates[v.video_id]]
        self.enumerable_pos = {vid: i for i, vid in enumerate(self.enumerable_video_ids)}
        self.queries, self.positives, self.best_ious = [], [], []
        for q in queries:
            if q.ground_truth is None or not self.candidates.get(q.ground_truth.video_id):
                continue
            best = np.max([span_ious(spans[q.ground_truth.video_id], a.start, a.end)
                           for a in q.ground_truth.annotations], axis=0)
            self.queries.append(q)
            self.positives.append(self.candidates[q.ground_truth.video_id][int(np.argmax(best))])
            self.best_ious.append(best)

    def intra_pool(self, query_index, exclusion_iou):
        q, best = self.queries[query_index], self.best_ious[query_index]
        return [self.candidates[q.ground_truth.video_id][i]
                for i in np.flatnonzero(best < exclusion_iou).tolist()]

    def nearest_candidate(self, video_id, s_norm, e_norm):
        pts = self.norm_endpoints[video_id]
        deltas = np.abs(pts[:, 0] - s_norm) + np.abs(pts[:, 1] - e_norm)
        return self.candidates[video_id][int(np.argmin(deltas))]


ReferenceTriple = namedtuple("ReferenceTriple",
                             "query_index positive intra_negative inter_negative")


def reference_sample_triples(dataset, cfg, rng, size=None, inter_sampler=None):
    """The per-`Moment` sampler, generator call for generator call."""
    if len(dataset.enumerable_video_ids) < 2:
        raise ValueError("triplet sampling needs at least two enumerable videos")
    if not dataset.queries:
        raise ValueError("no trainable queries in dataset")
    size = cfg.batch_triples if size is None else size
    pool_ids = dataset.enumerable_video_ids
    triples = []
    for _ in range(size):
        for _attempt in range(100):
            qi = int(rng.integers(len(dataset.queries)))
            pool = dataset.intra_pool(qi, cfg.intra_iou_exclusion)
            if pool:
                break
        else:
            raise RuntimeError("no query with a valid intra negative after 100 draws")
        positive = dataset.positives[qi]
        intra = pool[int(rng.integers(len(pool)))]
        inter = inter_sampler(qi, rng) if inter_sampler is not None else None
        if inter is None:
            own_pos = dataset.enumerable_pos[positive.video_id]
            pick = int(rng.integers(len(pool_ids) - 1))
            if pick >= own_pos:
                pick += 1
            other = pool_ids[pick]
            inter = dataset.candidate_keys[other].get((positive.first_clip, positive.last_clip))
            if inter is None:
                s_norm, e_norm = tef(positive, dataset.corpus.video(positive.video_id))
                inter = dataset.nearest_candidate(other, s_norm, e_norm)
        triples.append(ReferenceTriple(qi, positive, intra, inter))
    return triples


def reference_rank_sampler(dataset, retrieved, rank_rate):
    """The rank sampler that returns the retrieved `Moment` itself."""
    eligible = []
    for q in dataset.queries:
        keep = [(rank, m) for rank, m in enumerate(retrieved.get(q.query_id, []), start=1)
                if m.video_id != q.ground_truth.video_id]
        eligible.append(([m for _, m in keep],
                         exponential_rank_weights([r for r, _ in keep], rank_rate)
                         if keep else None))

    def sampler(query_index, rng):
        moments, weights = eligible[query_index]
        return moments[int(rng.choice(len(moments), p=weights))] if moments else None

    return sampler


def reference_assemble_batch(dataset, triples, dims, variant):
    blocks, seg = [], []
    for t_idx, triple in enumerate(triples):
        roles = (triple.positive, triple.intra_negative, triple.inter_negative)
        for role_idx, moment in enumerate(roles):
            m_idx = 3 * t_idx + role_idx
            video = dataset.corpus.video(moment.video_id)
            feats = dataset.corpus.features_for(moment.video_id)
            ctx = compute_context(feats)
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
    d_z1 = (d_rows @ params.mlp_w2) * (mlp_cache["a1"] > 0)
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
            got = score_moments(video, feats, q, variant, params, *grid.T)
            want = reference_score_moments(video, feats, q, variant, params, *grid.T)
            assert _hex(got) == _hex(want)


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
    reference = ReferenceTrainDataset(corpus, queries, enum_cfg)
    dims = _dims(mode, visual_in=3, word_in=2)
    cfg = TrainConfig(batch_triples=16, variant=variant, seed=3)
    got = _assemble_batch(dataset, sample_triples(dataset, cfg, np.random.default_rng(3)),
                          dims, variant)
    want = reference_assemble_batch(
        reference, reference_sample_triples(reference, cfg, np.random.default_rng(3)), dims,
        variant)
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
    reference = ReferenceTrainDataset(corpus, queries, enum_cfg)
    dims = ModelDims(3, 2, hidden_mlp=9, embed=6, hidden_lstm=8, use_tef=mode != "plain",
                     tef_only=mode == "tef_only")
    params = init_params(dims, 14)
    for seed, margin in ((15, 0.1), (16, 2.0)):
        cfg = TrainConfig(batch_triples=24, variant=variant, seed=seed, margin=margin,
                          inter_weight=0.4)
        triples = sample_triples(dataset, cfg, np.random.default_rng(seed))
        loss, grads = loss_and_grads(dataset, triples, params, cfg)
        want_loss, want_grads = reference_loss_and_grads(
            reference, reference_sample_triples(reference, cfg, np.random.default_rng(seed)),
            params, cfg)
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


def random_retrievals(corpus, queries, seed):
    """Per query, up to 8 random clip ranges of random videos, the query's own
    among them, most of them off the candidate grid; some queries get none."""
    rng = np.random.default_rng(seed)
    retrieved = {}
    for q in queries[::2]:
        moments = []
        for _ in range(int(rng.integers(0, 9))):
            video = corpus.videos[int(rng.integers(len(corpus)))]
            first = int(rng.integers(0, video.num_clips - 1))
            moments.append(Moment.from_clips(video, first,
                                             int(rng.integers(first + 1, video.num_clips))))
        retrieved[q.query_id] = moments
    return retrieved


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**20), enum_name=st.sampled_from(sorted(RANKING_ENUMS)),
       exclusion=st.sampled_from([0.35, 0.5, 1.0]), with_ranks=st.booleans(),
       variant_mode=st.sampled_from([("cal", "plain"), ("aggregate", "tef"),
                                     ("cal", "tef_only")]))
def test_sampled_batches_equal_per_moment_reference(seed, enum_name, exclusion, with_ranks,
                                                    variant_mode):
    # 2-39-clip corpora under every preset and a minimum length above some
    # videos' clip counts, with and without a rank sampler.
    enum_cfg = RANKING_ENUMS[enum_name]
    corpus, queries = varied_corpus(np.random.default_rng(seed), enum_cfg.clip_length,
                                    num_videos=10, max_clips=39)
    dataset = TrainDataset(corpus, queries, enum_cfg)
    reference = ReferenceTrainDataset(corpus, queries, enum_cfg)
    assert [q.query_id for q in dataset.queries] == [q.query_id for q in reference.queries]
    cfg = TrainConfig(batch_triples=24, intra_iou_exclusion=exclusion, variant=variant_mode[0])
    ranks = random_retrievals(corpus, queries, seed) if with_ranks else None
    got_sampler = make_rank_sampler(dataset, ranks, 0.3) if with_ranks else None
    want_sampler = reference_rank_sampler(reference, ranks, 0.3) if with_ranks else None
    try:
        want = reference_sample_triples(reference, cfg, np.random.default_rng(seed),
                                        inter_sampler=want_sampler)
    except ValueError as e:
        # Fewer than two videos with candidates, or no trainable query.
        with pytest.raises(ValueError, match="two enumerable videos" if "two" in str(e)
                           else "no trainable query has an intra negative"):
            sample_triples(dataset, cfg, np.random.default_rng(seed), inter_sampler=got_sampler)
        return
    except RuntimeError:
        # 100 draws found no query with an intra negative. With none at all
        # the sampler refuses before drawing; with some, it retries as the
        # reference does and gives up alike, with a `ValueError`.
        some_pool = any(reference.intra_pool(qi, exclusion) for qi in range(len(reference.queries)))
        with pytest.raises(ValueError,
                           match="after 100 draws" if some_pool else "no trainable query"):
            sample_triples(dataset, cfg, np.random.default_rng(seed), inter_sampler=got_sampler)
        return
    got = sample_triples(dataset, cfg, np.random.default_rng(seed), inter_sampler=got_sampler)
    ordinal_of = corpus.ordinal_of
    assert got[0].tolist() == [t.query_index for t in want]
    assert got[1].tolist() == [[[ordinal_of[m.video_id], m.first_clip, m.last_clip]
                                for m in t[1:]] for t in want]
    dims = _dims(variant_mode[1], visual_in=3, word_in=2)
    for g, w in zip(_assemble_batch(dataset, got, dims, cfg.variant),
                    reference_assemble_batch(reference, want, dims, cfg.variant)):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("variant, mode", VARIANT_MODES)
def test_off_grid_retrieved_moment_is_sampled_as_given(variant, mode):
    # didemo's grid steps lengths by 2 clips, so a 3-clip moment is never a
    # candidate; the rank sampler still draws it and training prices it.
    enum_cfg = PRESETS["didemo"].enum
    corpus, queries = varied_corpus(np.random.default_rng(21), enum_cfg.clip_length,
                                    num_videos=6, max_clips=12)
    dataset = TrainDataset(corpus, queries, enum_cfg)
    reference = ReferenceTrainDataset(corpus, queries, enum_cfg)
    retrieved = {}
    for q in dataset.queries:
        other = next(v for v in corpus.videos
                     if v.video_id != q.ground_truth.video_id and v.num_clips >= 4)
        retrieved[q.query_id] = [Moment.from_clips(other, 1, 3)]
        assert [1, 3] not in candidate_clips(other.num_clips, enum_cfg).tolist()
    cfg = TrainConfig(batch_triples=16, intra_iou_exclusion=1.0, variant=variant)
    got = sample_triples(dataset, cfg, np.random.default_rng(4),
                         inter_sampler=make_rank_sampler(dataset, retrieved, 0.02))
    want = reference_sample_triples(reference, cfg, np.random.default_rng(4),
                                    inter_sampler=reference_rank_sampler(reference, retrieved,
                                                                         0.02))
    assert got[1][:, 2].tolist() == [[corpus.ordinal_of[t.inter_negative.video_id], 1, 3]
                                     for t in want]
    params = init_params(_dims(mode, visual_in=3, word_in=2), 5)
    want_loss, _ = reference_loss_and_grads(reference, want, params, cfg)
    assert batch_loss(dataset, got, params, cfg).hex() == want_loss.hex()


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


# A few cost values, so that ties are common, and NaN.
_SELECT_COSTS = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 2.0, np.nan])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_bounded_select_equals_unbounded_reference(data):
    """Ragged videos (some of one row, some with none) whose runs come in
    any video order, each in any row order, with tied and NaN costs."""
    num_videos = data.draw(st.integers(1, 8))
    clips = data.draw(st.lists(st.integers(2, 7), min_size=num_videos, max_size=num_videos))
    ids = data.draw(st.permutations([f"v{i}" for i in range(num_videos)]))
    videos = [VideoMeta(vid, (n - 0.4) * 2.0, 2.0, n) for vid, n in zip(ids, clips)]
    corpus = Corpus(videos, {v.video_id: np.zeros((v.num_clips, 1)) for v in videos})
    runs = []
    for o in data.draw(st.permutations(range(num_videos))):
        grid = [(f, l) for f in range(clips[o]) for l in range(f + 1, clips[o])]
        picked = data.draw(st.one_of(st.just([]), st.lists(st.sampled_from(grid), min_size=1,
                                                            max_size=1),
                                     st.lists(st.sampled_from(grid), unique=True)))
        runs.extend((o, f, l) for f, l in picked)
    ordinal, firsts, lasts = np.asarray(runs, dtype=np.int64).reshape(-1, 3).T
    costs = np.asarray(data.draw(st.lists(_SELECT_COSTS, min_size=len(runs),
                                          max_size=len(runs))), dtype=np.float64)
    nms_iou = data.draw(st.one_of(st.sampled_from([1 / 3, 0.5, 2 / 3, 1.0]),
                                  st.floats(0, 1, exclude_min=True)))
    touched = len(set(ordinal.tolist()))
    top_k = data.draw(st.integers(1, touched + 2))
    got = _select(corpus, ordinal, firsts, lasts, costs, nms_iou, top_k,
                  run_starts(ordinal)).arrays()
    want = reference_select(corpus, ordinal, firsts, lasts, costs, nms_iou, top_k).arrays()
    for g, w in zip(got[:3], want[:3]):
        np.testing.assert_array_equal(g, w)
    np.testing.assert_array_equal(got[3].view(np.int64), want[3].view(np.int64))


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


def _assert_same_ivf(got, want):
    for name in ("keys", "vectors", "centroids", "offsets"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape) and a.tobytes() == b.tobytes(), name
    assert got.video_ids == want.video_ids


def _assert_same_saved_bytes(got, want, tmp_path):
    save_index(got, tmp_path / "got.calx")
    reference_save_index(want, tmp_path / "want.calx")
    assert (tmp_path / "got.calx").read_bytes() == (tmp_path / "want.calx").read_bytes()


@pytest.mark.parametrize("block_bytes", [None, 32 << 10, 40_000])
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_build_and_save_ivf_equal_whole_matrix_reference(seed, block_bytes, monkeypatch,
                                                         tmp_path):
    # Some 500 clips in one block at the default size. At 32 KB, 40 partitions
    # score 102 rows a block (4,080 scores, far above the GEMM sizes that BLAS
    # rounds with another kernel); 40,000 bytes split the rows unevenly.
    corpus, _ = shuffled_corpus(40 + seed, 3.0)
    params = init_params(_dims("plain", 3, 2), 44 + seed)
    want = reference_build_ivf(corpus, params, partitions=40, seed=seed)
    if block_bytes is not None:
        monkeypatch.setattr(index_mod, "_BLOCK_BYTES", block_bytes)
        assert len(index_mod._row_blocks(corpus.total_clips, 8 * 40)) > 1
    got = build_ivf(corpus, params, partitions=40, seed=seed)
    _assert_same_ivf(got, want)
    _assert_same_saved_bytes(got, want, tmp_path)


class _RecordingRng:
    """A Generator that keeps a copy of every weight vector `choice` draws from."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.weights = []

    def integers(self, *args):
        return self.rng.integers(*args)

    def choice(self, n, p):
        self.weights.append(p.copy())
        return self.rng.choice(n, p=p)


@pytest.mark.parametrize("dim", [1, 3, 48])
def test_blocked_seeding_equals_whole_matrix_gemv(dim, monkeypatch):
    # 5,003 rows of float32 at magnitudes 1e-3 to 1e2, cast to float64 in
    # fixed blocks of 144 rows with a short last one. Near-equal blocks of
    # 147 or 148 rows (`_row_blocks`' split) or fixed blocks of 150 rows
    # change the last bit of some 48-d products here, which moves the
    # weights even where the picks hold.
    n, p = 5003, 24
    gen = np.random.default_rng(60 + dim)
    vectors = (gen.standard_normal((n, dim))
               * 10.0 ** gen.integers(-3, 3, (n, 1))).astype(np.float32)
    monkeypatch.setattr(index_mod, "_BLOCK_BYTES", 150 * 8 * dim)
    got_rng, want_rng = _RecordingRng(dim), _RecordingRng(dim)
    got = _kmeans_pp_seed(vectors, p, got_rng)
    want = reference_kmeans_pp_seed(vectors.astype(np.float64), p, want_rng)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert len(got_rng.weights) == len(want_rng.weights) == p - 1
    for step, (a, b) in enumerate(zip(got_rng.weights, want_rng.weights)):
        assert a.tobytes() == b.tobytes(), step


def _repair_case(name):
    """(corpus, params, partitions, kmeans_iters) whose final assignment
    leaves a partition empty."""
    if name == "stays_empty":
        # Ten identical clips in one video and two in another: k-means++
        # seeds the third centroid on a point already chosen, and the repair
        # re-seeds it on a point that ties with a lower-numbered centroid.
        rng = np.random.default_rng(50)
        videos = [VideoMeta("a", 20.0, 2.0, 10), VideoMeta("b", 4.0, 2.0, 2)]
        features = {"a": np.tile(rng.standard_normal(3), (10, 1)),
                    "b": np.tile(rng.standard_normal(3), (2, 1))}
        return Corpus(videos, features), init_params(_dims("plain", 3, 2), 51), 3, 2
    # 18 distinct clips in 2-d: after two iterations one of ten partitions
    # is empty, and its re-seeded centroid takes the farthest clip.
    corpus = make_corpus(np.random.default_rng(235), num_videos=3, num_clips=6)
    params = init_params(ModelDims(6, 2, hidden_mlp=7, embed=2, hidden_lstm=3), 51)
    return corpus, params, 10, 2


@pytest.mark.parametrize("block_bytes", [None, 72])
@pytest.mark.parametrize("case", ["stays_empty", "refilled"])
def test_empty_partition_repair_equals_whole_matrix_reference(case, block_bytes, monkeypatch,
                                                              tmp_path):
    corpus, params, p, iters = _repair_case(case)
    want = reference_build_ivf(corpus, params, partitions=p, seed=0, kmeans_iters=iters)
    if block_bytes is not None:
        monkeypatch.setattr(index_mod, "_BLOCK_BYTES", block_bytes)  # blocks of a few rows
    labels = []
    assign = index_mod._assign
    monkeypatch.setattr(index_mod, "_assign",
                        lambda x, c: labels.append(assign(x, c)) or labels[-1])
    got = build_ivf(corpus, params, partitions=p, seed=0, kmeans_iters=iters)
    assert len(labels) == iters + 2  # the iterations, the final assignment, the repair's
    assert 0 in np.bincount(labels[-2], minlength=p)
    sizes = np.diff(got.offsets.astype(np.int64)).tolist()
    if case == "stays_empty":
        assert sizes == [2, 10, 0]
    else:
        assert min(sizes) > 0
    _assert_same_ivf(got, want)
    _assert_same_saved_bytes(got, want, tmp_path)
    loaded = load_index(str(tmp_path / "got.calx"), got.video_ids)
    exact = build_exact(corpus, params)
    for q in np.random.default_rng(52).standard_normal((4, exact.dim)):
        for top_c in (1, 5, corpus.total_clips):
            ivf_hits, _ = loaded.search(q, top_c=top_c, nprobe=loaded.num_partitions)
            assert ivf_hits == exact.search(q, top_c=top_c)[0]


@pytest.mark.parametrize("wide", [False, True])
def test_corpus_clip_matrix_equals_per_video_reference(wide):
    corpus, _ = shuffled_corpus(23, 3.0)
    assert min(v.num_clips for v in corpus.videos) == 2
    params = _rerank_model("wide") if wide else init_params(_dims("plain", 3, 2), 24)
    got, want = corpus_clip_matrix(corpus, params), reference_corpus_clip_matrix(corpus, params)
    for a, b in zip(got, want):
        assert (a.dtype, a.shape) == (b.dtype, b.shape) and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("row_cap", [None, 7])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("wide", [False, True])
def test_embed_videos_equals_per_video_reference(wide, dtype, row_cap, monkeypatch):
    # At a row cap of 7 the twelve 1-clip and four 3-clip videos span several
    # chunks, and every video longer than 7 clips takes a chunk of its own.
    # The videos are embedded in another order than their rows lie in.
    if row_cap is not None:
        monkeypatch.setattr(model, "_EMBED_CHUNK_ROWS", row_cap)
    corpus, _ = shuffled_corpus(29, 3.0)
    rng = np.random.default_rng(30)
    blocks = [corpus.features_for(v.video_id) for v in corpus.videos]
    for n in (1,) * 12 + (3,) * 4:
        blocks.insert(int(rng.integers(0, len(blocks) + 1)), rng.standard_normal((n, 3)))
    counts = np.asarray([len(b) for b in blocks], dtype=np.int64)
    starts = offsets(counts)
    contexts = np.stack([compute_context(b) for b in blocks])
    order = rng.permutation(len(blocks))
    params = _rerank_model("wide") if wide else init_params(_dims("plain", 3, 2), 31)
    got = embed_videos(np.concatenate(blocks), starts[order], counts[order], contexts[order],
                       params, dtype)
    want = reference_embed_videos([blocks[i] for i in order.tolist()], params, dtype)
    assert (got.dtype, got.shape) == (want.dtype, want.shape) and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("wide", [False, True])
def test_embed_ordinals_equals_per_video_reference(wide):
    # Stage two's route: corpus ordinals, the corpus's context table. Two
    # videos of 300 clips each take a chunk of their own.
    corpus, _ = shuffled_corpus(33, 3.0)
    rng = np.random.default_rng(34)
    videos = list(corpus.videos) + [VideoMeta(f"long{i}", 900.0, 3.0, 300) for i in range(2)]
    features = {v.video_id: corpus.features_for(v.video_id) for v in corpus.videos}
    features.update({f"long{i}": rng.standard_normal((300, 3)) for i in range(2)})
    corpus = Corpus(videos, features)
    params = _rerank_model("wide") if wide else init_params(_dims("plain", 3, 2), 35)
    for ordinals in (np.arange(len(corpus)), rng.permutation(len(corpus))[:9],
                     np.asarray([len(corpus) - 1, 3, 0, len(corpus) - 2])):
        got = retrieval_mod._embed_ordinals(corpus, ordinals, params)
        want = reference_embed_videos(
            [corpus.features_for(corpus.videos[o].video_id) for o in ordinals.tolist()], params)
        assert got.tobytes() == want.tobytes()


_CONTEXT_CLIPS = st.one_of(st.integers(2, 9), st.integers(255, 300))


@settings(max_examples=100, deadline=None)
@given(counts=st.lists(st.one_of(_CONTEXT_CLIPS, st.just(4)), min_size=1, max_size=9),
       width=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       chunk_rows=st.sampled_from([model._MEAN_CHUNK_ROWS, 600, 8]))
def test_corpus_contexts_equal_per_video_compute_context(counts, width, seed, chunk_rows):
    """Mixed clip counts in any order, with runs of equal counts and videos
    of more than 256 clips; features of many magnitudes, so that another
    summation order would show in the bytes. At a chunk cap of 8 rows the
    2- and 4-clip videos share chunks and every longer one takes its own;
    at 600, two videos of 255-300 clips share one."""
    rng = np.random.default_rng(seed)
    videos = [VideoMeta(f"v{i}", 2.0 * n, 2.0, n) for i, n in enumerate(counts)]
    features = {v.video_id: rng.standard_normal((v.num_clips, width))
                * 10.0 ** rng.uniform(-6, 6, (v.num_clips, 1)) for v in videos}
    with mock.patch.object(model, "_MEAN_CHUNK_ROWS", chunk_rows):
        corpus = Corpus(videos, features)
    want = np.stack([compute_context(features[v.video_id]) for v in videos])
    got = corpus.contexts
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(counts=st.lists(st.one_of(_CONTEXT_CLIPS, st.integers(1, 4), st.just(4)), max_size=12),
       width=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       chunk_rows=st.sampled_from([model._MEAN_CHUNK_ROWS, 600, 8]))
def test_range_means_equal_per_range_mean(counts, width, seed, chunk_rows):
    """Ranges as moments are: of any start, overlapping and unsorted, with
    runs of equal counts, counts of 1 and counts above the cap of 8 rows;
    rows of magnitudes 1e-6 to 1e6, so that another summation order would
    show in the bytes."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((310, width)) * 10.0 ** rng.uniform(-6, 6, (310, 1))
    counts = np.asarray(counts, dtype=np.int64)
    starts = rng.integers(0, len(values) - counts + 1) if len(counts) else counts
    with mock.patch.object(model, "_MEAN_CHUNK_ROWS", chunk_rows):
        got = model.range_means(values, starts, counts)
    want = np.array([values[s:s + n].mean(axis=0)
                     for s, n in zip(starts.tolist(), counts.tolist())]).reshape(-1, width)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert got.tobytes() == want.tobytes()


def _ivf_with_empty_partitions(seed):
    """An IVF index over a `shuffled_corpus` whose 12 partitions include
    empty ones: the first, one in the middle and the last two."""
    corpus, _ = shuffled_corpus(seed, 3.0)
    built = build_ivf(corpus, init_params(_dims("plain", 3, 2), seed + 1), partitions=8, seed=1)
    sizes = np.diff(built.offsets.astype(np.int64))
    sizes = np.concatenate([[0], sizes[:4], [0], sizes[4:], [0, 0]])
    rng = np.random.default_rng(seed + 2)
    centroids = np.concatenate([built.centroids, rng.standard_normal((4, built.dim))])
    centroids = centroids[[8, 0, 1, 2, 3, 9, 4, 5, 6, 7, 10, 11]].astype(np.float32)
    offsets_ = np.concatenate([[0], np.cumsum(sizes)]).astype(np.uint64)
    return IvfIndex(built.video_ids, built.keys, built.vectors, centroids, offsets_)


def test_index_search_scans_lists_in_place_as_the_gathering_search():
    rng = np.random.default_rng(37)
    corpus, _ = shuffled_corpus(36, 3.0)
    params = init_params(_dims("plain", 3, 2), 38)
    exact = build_exact(corpus, params)
    indexes = [build_ivf(corpus, params, partitions=7, seed=3),
               reordered_ids(build_ivf(corpus, params, partitions=5, seed=4), 39),
               _ivf_with_empty_partitions(40)]
    repair_corpus, repair_params, p, iters = _repair_case("stays_empty")
    indexes.append(build_ivf(repair_corpus, repair_params, partitions=p, seed=0,
                             kmeans_iters=iters))
    assert 0 in np.diff(indexes[-1].offsets.astype(np.int64))
    # Exact search is the scan over one list; rounded vectors give integer
    # distances under the zero query, so many entries tie on distance.
    indexes += [exact, reordered_ids(exact, 41),
                ClipIndex(exact.video_ids, exact.keys, np.round(exact.vectors))]
    # A whole list takes one difference block by default; at 5 rows a block
    # most lists are scanned in several, the last one short.
    cases = [(index, index_mod._BLOCK_BYTES) for index in indexes]
    cases += [(index, 5 * 4 * index.dim) for index in indexes]
    for index, block_bytes in cases:
        ivf = isinstance(index, IvfIndex)
        p = index.num_partitions if ivf else 0
        queries = [rng.standard_normal(index.dim) for _ in range(3)]
        queries += [index.centroids[-1]] if ivf else []
        queries += [np.zeros(index.dim), np.full(index.dim, np.nan)]
        for nprobe in sorted({1, 2, p - 1, p} - {0}) if ivf else [0]:
            for top_c in (1, 9, index.num_entries, index.num_entries + 4):
                for q in queries:
                    with mock.patch.object(index_mod, "_BLOCK_BYTES", block_bytes):
                        got, got_stats = index.search(q, top_c=top_c, nprobe=nprobe)
                    want, want_stats = reference_gathering_search(index, q, top_c, nprobe)
                    assert got_stats == want_stats
                    for a, b in zip(got.arrays(), want.arrays()):
                        assert (a.dtype, a.shape) == (b.dtype, b.shape)
                        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("flavor", ["exact", "ivf"])
@pytest.mark.parametrize("enum_name", ["charades-sta", "min-above-clips"])
def test_hit_candidates_equal_dict_mapped_reference(enum_name, flavor):
    # The index is built from the same videos in another manifest order, so
    # its ordinals are not the corpus's; and from the corpus itself.
    enum_cfg = RANKING_ENUMS[enum_name]
    corpus, _ = shuffled_corpus(41, enum_cfg.clip_length)
    params = init_params(_dims("plain", 3, 2), 42)
    perm = np.random.default_rng(43).permutation(len(corpus)).tolist()
    reordered = Corpus([corpus.videos[o] for o in perm],
                       {v.video_id: corpus.features_for(v.video_id) for v in corpus.videos})
    rng = np.random.default_rng(44)
    for source in (reordered, corpus):
        index = build_exact(source, params) if flavor == "exact" else \
            build_ivf(source, params, partitions=6, seed=5)
        identity = np.array_equal(corpus.ordinals_for(index.video_ids), np.arange(len(corpus)))
        assert identity == (source is corpus)
        for q in rng.standard_normal((3, index.dim)):
            for top_c in (1, 12, index.num_entries):
                hits, _ = index.search(q, top_c=top_c, nprobe=2)
                for dilation in (0, 2, 50):
                    got = retrieval_mod._hit_candidates(corpus, hits, enum_cfg, dilation)
                    want = reference_hit_candidates(corpus, hits, enum_cfg, dilation)
                    for a, b in zip(got, want):
                        assert (a.dtype, a.shape) == (b.dtype, b.shape)
                        assert a.tobytes() == b.tobytes()


# The ranking enumerations plus a minimum length that only the 2- and
# 3-clip videos fall below.
TABLE_ENUMS = {
    **RANKING_ENUMS,
    "min-4": EnumConfig(clip_length=3.0, max_moment_clips=9, stride_ratio=0.3,
                        min_moment_clips=4),
}


@pytest.mark.parametrize("enum_name", sorted(TABLE_ENUMS))
def test_candidate_table_equals_per_video_grids(enum_name):
    """The table's rows are every video's `candidate_clips` grid laid end to
    end in corpus order, as int32 (ordinal, first, last) arrays."""
    enum_cfg = TABLE_ENUMS[enum_name]
    corpora = [varied_corpus(np.random.default_rng(seed), enum_cfg.clip_length, num_videos=20,
                             max_clips=39)[0] for seed in range(5)]
    # One long video among short ones: its grid is read, no other count's.
    long = [VideoMeta(f"v{n}", n * enum_cfg.clip_length, enum_cfg.clip_length, n)
            for n in (3, 400, 2)]
    corpora.append(Corpus(long, {v.video_id: np.zeros((v.num_clips, 1)) for v in long}))
    without = 0  # videos with no candidate
    for corpus in corpora + [Corpus([], {})]:
        table = CandidateTable(corpus, enum_cfg)
        grids = [candidate_clips(n, enum_cfg) for n in corpus.num_clips.tolist()]
        counts = np.asarray([len(g) for g in grids], dtype=np.int64)
        rows = np.concatenate([np.empty((0, 2), np.int64), *grids]).astype(np.int32)
        want = (np.repeat(np.arange(len(corpus), dtype=np.int32), counts), rows[:, 0].copy(),
                rows[:, 1].copy())
        for a, b in zip((table.ordinal, table.firsts, table.lasts), want):
            assert (a.dtype, a.shape) == (b.dtype, b.shape)
            assert a.tobytes() == b.tobytes()
        assert table.scored.tolist() == np.flatnonzero(counts).tolist()
        assert table.starts.tolist() == offsets(counts)[table.scored].tolist()
        assert table.size == len(rows)
        without += len(corpus) - len(table.scored)
    # Every `varied_corpus` holds videos of 2 and 3 clips.
    assert without > 0 if enum_cfg.min_moment_clips > 3 else without == 0


def test_hit_on_a_video_the_corpus_lacks_names_it():
    corpus, _ = shuffled_corpus(45, 3.0)
    params = init_params(_dims("plain", 3, 2), 46)
    index = build_exact(corpus, params)
    kept = [v for v in corpus.videos if v.video_id != index.video_ids[3]]
    smaller = Corpus(kept, {v.video_id: corpus.features_for(v.video_id) for v in kept})
    hits = ClipHits(index.video_ids, index.keys[:, 0], index.keys[:, 1],
                    np.zeros(index.num_entries, dtype=np.float32))
    with pytest.raises(KeyError) as want:
        reference_hit_candidates(smaller, hits, RANKING_ENUMS["charades-sta"], 0)
    with pytest.raises(KeyError) as got:
        retrieval_mod._hit_candidates(smaller, hits, RANKING_ENUMS["charades-sta"], 0)
    assert got.value.args == want.value.args == (index.video_ids[3],)


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


def saved_corpus(root, seed):
    """Save a `shuffled_corpus` (2-39 clips of 3 features a video) and two
    queries a video of 1-8 two-feature words; return (corpus dir, queries path)."""
    corpus, queries = shuffled_corpus(seed, 3.0)
    save_corpus(root, corpus.videos,
                {v.video_id: corpus.features_for(v.video_id) for v in corpus.videos})
    rng = np.random.default_rng(seed + 2)
    records = []
    for q in queries:
        words = os.path.join("words", f"{q.query_id}.calf")
        os.makedirs(os.path.join(root, "words"), exist_ok=True)
        write_features(os.path.join(root, words),
                       rng.standard_normal((int(rng.integers(1, 9)), 2)).astype(np.float32))
        records.append({"query_id": q.query_id, "video_id": q.ground_truth.video_id,
                        "spans": [[a.start, a.end] for a in q.ground_truth.annotations],
                        "words_path": words})
    write_jsonl(os.path.join(root, "queries.jsonl"), records)
    return root, os.path.join(root, "queries.jsonl")


def _assert_same_array(got, want, what):
    assert (got.dtype, got.shape, got.flags.c_contiguous) == \
        (want.dtype, want.shape, want.flags.c_contiguous), what
    assert got.tobytes() == want.tobytes(), what


def _failing_raw_read(path, buffers):
    return -1


@pytest.mark.parametrize("raw_read", ["readv", "failing"])
@pytest.mark.parametrize("words_read_bytes", [None, 40])
@pytest.mark.parametrize("seed", [61, 62])
def test_loaders_equal_per_file_references(seed, words_read_bytes, raw_read, monkeypatch,
                                           tmp_path):
    # A 40-byte bound sends every words file of 5 or more words (and all of
    # them when raw reads fail) through `read_features`; the loaded bytes stay.
    corpus_dir, queries_path = saved_corpus(str(tmp_path), seed)
    want_videos, want_features = reference_load_corpus(corpus_dir)
    want_queries = reference_load_queries(queries_path, corpus_dir)
    if words_read_bytes is not None:
        monkeypatch.setattr(dataio, "_WORDS_READ_BYTES", words_read_bytes)
    if raw_read == "failing":
        monkeypatch.setattr(dataio, "_raw_read", _failing_raw_read)
    corpus = load_corpus(corpus_dir)
    queries = load_queries(queries_path, corpus_dir)

    assert corpus.videos == want_videos
    assert {v.num_clips for v in corpus.videos} >= {2, 3, 4}
    assert [v.video_id for v in corpus.videos] == list(want_features)
    for video_id, want in want_features.items():
        got = corpus.features_for(video_id)
        _assert_same_array(got, want, video_id)
        assert np.shares_memory(got, corpus.clip_features)
    _assert_same_array(corpus.clip_features,
                       np.concatenate([want_features[v.video_id] for v in want_videos]), "matrix")

    assert [(q.query_id, q.ground_truth) for q in queries] == \
        [(q.query_id, q.ground_truth) for q in want_queries]
    assert {len(q.word_vectors) for q in queries} == set(range(1, 9))
    for got, want in zip(queries, want_queries):
        _assert_same_array(got.word_vectors, want.word_vectors, got.query_id)


# JSON-lines bodies: accepted ones (blank lines, NaN, nesting, escapes,
# unicode whitespace around a record) and refused ones, among them lines
# that a parse of the joined lines as one array would accept.
_JSON_LINES = {
    "records": '{"a": 1, "b": [1, 2.5, {"c": null}]}\n\n  {"d": "x\\u00e9\\n"}\t\n'
               '\u00a0[NaN, -Infinity, 1e400]\u2003\n7\n"s"\ntrue\n',
    "split_array": "[1\n2]\n3, 4\n",
    "trailing_data": '{"a": 1} x\n',
    "two_values": '{"a": 1}{"b": 2}\n',
    "trailing_comma": '{"a": 1},\n',
    "unclosed": '{"a": 1}\n{"b": [1, 2\n',
    "bad_inner_value": '{"a": 1}\n{"b": tru}\n',
    "bad_escape": '{"a": "\\x"}\n',
    "bom": '\ufeff{"a": 1}\n',
    "bare_word": 'null\nnope\n',
}


@pytest.mark.parametrize("name", sorted(_JSON_LINES))
def test_load_lines_equal_per_line_json_loads(name, tmp_path):
    path = str(tmp_path / "lines.jsonl")
    with open(path, "w", encoding="utf-8") as f:
        f.write(_JSON_LINES[name])
    try:
        want = reference_load_lines(path)
    except FormatError as e:
        with pytest.raises(FormatError) as got:
            _load_lines(path)
        assert str(got.value) == str(e)
        return
    assert name == "records"
    got = _load_lines(path)
    assert repr(got) == repr(want) and [type(r) for _, r in got] == [type(r) for _, r in want]


@pytest.mark.parametrize("block_bytes", [None, 1 << 10])
@pytest.mark.parametrize("kind", ["exact", "ivf"])
def test_load_index_equals_whole_payload_reference(kind, block_bytes, monkeypatch, tmp_path):
    corpus = load_corpus(saved_corpus(str(tmp_path), 63)[0])
    params = init_params(_dims("plain", 3, 2), 64)
    built = build_exact(corpus, params) if kind == "exact" else \
        build_ivf(corpus, params, partitions=12, seed=3)
    path = str(tmp_path / "i.calx")
    save_index(built, path)
    if block_bytes is not None:
        monkeypatch.setattr(index_mod, "_BLOCK_BYTES", block_bytes)
        assert len(index_mod._row_blocks(built.num_entries, 4 * (2 + built.dim))) > 1
    got = load_index(path, built.video_ids)
    want = reference_load_index(path, built.video_ids)
    assert type(got) is type(want)
    names = ("keys", "vectors") + (("centroids", "offsets") if kind == "ivf" else ())
    for name in names:
        _assert_same_array(getattr(got, name), getattr(want, name), name)


def reference_pick_disjoint_moments(candidates, count, rng):
    """Randomly pick `count` candidate `Moment`s, preferring clip-disjoint ones."""
    if count == 0:
        return []
    order = rng.permutation(len(candidates))
    picked = []
    used = set()
    for idx in order:
        m = candidates[idx]
        clips = set(range(m.first_clip, m.last_clip + 1))
        if not clips & used:
            picked.append(m)
            used |= clips
            if len(picked) == count:
                return picked
    for idx in order:  # not enough disjoint ones; allow overlap
        if len(picked) == count:
            break
        if candidates[idx] not in picked:
            picked.append(candidates[idx])
    return picked


def reference_generated(spec, preset):
    """(clip features, planted moments) of each video `generate_synthetic`
    writes, replaying its draws with every candidate of every video built
    as a `Moment` and planted at the shortest candidate length (or at
    `planted_moment_clips`, when some candidate has it)."""
    rng = np.random.default_rng(spec.seed)
    vocab = rng.standard_normal((spec.vocab_size, spec.word_dim)).astype(np.float32)
    readout = (rng.standard_normal((spec.visual_dim, spec.word_dim))
               / np.sqrt(spec.word_dim)).astype(np.float32)
    clip_len = preset.enum.clip_length
    videos = []
    for vi in range(spec.num_videos):
        n = spec.clips_per_video if isinstance(spec.clips_per_video, int) else \
            int(rng.integers(spec.clips_per_video[0], spec.clips_per_video[1] + 1))
        video = VideoMeta(f"v{vi:05d}", n * clip_len, clip_len, n)
        feats = rng.standard_normal((n, spec.visual_dim))
        candidates = enumerate_moments(video, preset.enum)
        if candidates:
            target_len = spec.planted_moment_clips or min(m.num_clips for m in candidates)
            plantable = [m for m in candidates if m.num_clips == target_len] or candidates
        else:
            plantable = []
        planted = reference_pick_disjoint_moments(
            plantable, min(spec.queries_per_video, len(plantable)), rng)
        for m in planted:
            words = vocab[rng.integers(0, spec.vocab_size,
                                       size=int(rng.integers(spec.words_min, spec.words_max + 1)))]
            latent = readout.astype(np.float64) @ words.astype(np.float64).mean(axis=0)
            noise = spec.signal_noise * rng.standard_normal((m.num_clips, spec.visual_dim))
            feats[m.first_clip:m.last_clip + 1] = \
                latent[None, :].astype(np.float32).astype(np.float64) + noise
        videos.append((feats, planted))
    return videos


# A preset whose minimum moment exceeds the shortest videos of 2-9 clips.
_SHORT_VIDEOS = DatasetPreset(
    "min-4", EnumConfig(clip_length=2.0, max_moment_clips=6, stride_ratio=0.5,
                        min_moment_clips=4), 0.5, 1, 0.35)
# case -> (spec fields beyond the shared ones, preset)
GENERATED = {
    "mixed-counts-overlap": ({"clips_per_video": (2, 20), "queries_per_video": 3},
                             PRESETS["charades-sta"]),
    "planted-clips-overlap": ({"clips_per_video": (4, 14), "queries_per_video": 4,
                               "planted_moment_clips": 4}, PRESETS["charades-sta"]),
    "planted-clips-off-grid": ({"clips_per_video": 12, "planted_moment_clips": 5},
                               PRESETS["didemo"]),
    "videos-below-minimum": ({"clips_per_video": (2, 9), "queries_per_video": 2},
                             _SHORT_VIDEOS),
}


@pytest.mark.parametrize("case", sorted(GENERATED))
def test_generated_corpus_equals_per_moment_planting(case, tmp_path, caplog):
    fields, preset = GENERATED[case]
    spec = dataio.SyntheticSpec(num_videos=30, visual_dim=4, word_dim=3, vocab_size=9, seed=17,
                                **fields)
    with caplog.at_level("WARNING", logger="momentsearch.enumeration"):
        corpus, queries = dataio.generate_synthetic(spec, preset, str(tmp_path))
    logged = [r.args[0] for r in caplog.records if "no candidates" in r.getMessage()]
    want = reference_generated(spec, preset)
    assert corpus.num_clips.tolist() == [len(feats) for feats, _ in want]
    _assert_same_array(corpus.clip_features,
                       np.concatenate([feats for feats, _ in want]).astype(np.float32)
                       .astype(np.float64), "clip features")
    planted = [(q.query_id, q.ground_truth.video_id, q.ground_truth.annotations[0])
               for q in queries]
    assert planted == [(f"q{vi:05d}_{qi}", m.video_id, m.span)
                       for vi, (_, moments) in enumerate(want) for qi, m in enumerate(moments)]
    # Every video below the minimum logs that it has no candidates.
    short = [v.video_id for v in corpus.videos if v.num_clips < preset.enum.min_moment_clips]
    assert logged == short
    assert bool(short) == (case == "videos-below-minimum")
    if case.endswith("-overlap"):  # some video plants more queries than disjoint slots
        spans = {}
        for _, video_id, span in planted:
            spans.setdefault(video_id, []).append(span)
        assert any(a.end > b.start and b.end > a.start for s in spans.values()
                   for i, a in enumerate(s) for b in s[i + 1:])
