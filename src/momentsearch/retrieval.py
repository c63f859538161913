"""End-to-end query answering.

Three paths produce a ranked list of moments for a query:

* exhaustive: score every candidate of every video, suppress
  near-duplicates per video, merge.
* two-stage (moment budget): rank all moments with the cheap stage-one
  model, keep the top `budget`, re-score those with the re-ranking model.
* approximate (clip budget): retrieve the top clips from the index, then
  re-score the candidates of the touched videos that contain a retrieved
  clip.

Candidates travel as per-video (first_clip, last_clip) integer arrays
taken from `enumeration.candidate_clips`; costs are arrays aligned with
them, and `Moment` objects are built only for the rows a ranking returns.
Non-maximum suppression runs only at the final ranking stage. All merges
apply the deterministic (cost, video_id, first_clip, last_clip) tie-break,
a total order, so rankings are reproducible across runs and do not depend
on the order in which videos are scored.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .core import Moment, Query, clip_spans
from .costs import CostCounters, ScoredMoment, score_moments
from .dataio import Corpus, stable_u32
from .enumeration import EnumConfig, candidate_clips
from .index import ClipIndex, IvfIndex
from .model import ModelParams, embed_query

log = logging.getLogger(__name__)

BASELINES = ("chance", "moment_prior", "tef_only")


@dataclass
class RetrievalConfig:
    variant: str = "cal"
    rerank_variant: Optional[str] = None
    budget: int = 200  # moments kept from stage one
    clip_budget: int = 200  # clips retrieved in approximate mode
    nms_iou: float = 1.0
    top_k: int = 100
    nprobe: int = 8
    dilation_clips: int = 0  # widen clip containment in approximate mode

    def __post_init__(self):
        if not 0 < self.nms_iou <= 1:
            raise ValueError("nms_iou must lie in (0, 1]")
        if self.clip_budget < 1 or self.top_k < 1:
            raise ValueError("clip_budget and top_k must be positive")
        if self.dilation_clips < 0:
            raise ValueError(f"dilation_clips must be non-negative, got {self.dilation_clips}")


@dataclass
class RankedResult:
    query_id: str
    ranked: list[ScoredMoment]
    stage_counters: dict[str, int] = field(default_factory=dict)


def nms(spans: np.ndarray, iou_threshold: float) -> np.ndarray:
    """Greedy suppression within one video; returns the kept row positions.

    `spans` is an (n, 2) array of (start, end) seconds sorted cheapest
    first. A row is dropped iff its IoU with a kept cheaper row exceeds the
    threshold, computed with `core.temporal_iou`'s operations. IoU never
    exceeds 1, so a threshold of 1 or more keeps every row.
    """
    keep = np.ones(len(spans), dtype=bool)
    if iou_threshold < 1:
        for i in range(len(spans)):
            if keep[i]:
                (s, e), (s_i, e_i) = spans[i + 1:].T, spans[i]
                inter = np.minimum(e, e_i) - np.maximum(s, s_i)
                union = np.maximum(e, e_i) - np.minimum(s, s_i)
                keep[i + 1:] &= (inter <= 0) | (inter / union <= iou_threshold)
    return np.flatnonzero(keep)


def _rank(
    groups, q_emb: np.ndarray, variant: str, params: ModelParams, nms_iou: float, top_k: int,
) -> tuple[list[ScoredMoment], CostCounters]:
    """Score each (video, features, firsts, lasts) group, suppress within the
    video cheapest first, and merge by (cost, video_id, first, last); returns
    (top_k ranked, counters). Only the returned rows become `Moment`s.
    """
    counters = CostCounters()
    videos, rows = [], []
    for video, feats, firsts, lasts in groups:
        costs = score_moments(video, feats, q_emb, variant, params, firsts, lasts, counters)
        order = np.lexsort((lasts, firsts, costs))
        kept = order[nms(clip_spans(video, firsts[order], lasts[order]), nms_iou)]
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


def exhaustive_search(
    corpus: Corpus,
    query: Query,
    params: ModelParams,
    enum_cfg: EnumConfig,
    cfg: RetrievalConfig,
) -> RankedResult:
    """Score the full candidate universe with one model."""
    q_emb = embed_query(query.word_vectors, params)
    groups = ((v, corpus.features_for(v.video_id), *candidate_clips(v.num_clips, enum_cfg).T)
              for v in corpus.videos)
    ranked, counters = _rank(groups, q_emb, cfg.variant, params, cfg.nms_iou, cfg.top_k)
    return RankedResult(query.query_id, ranked, {
        "stage1_distances": counters.distance_evals,
        "stage1_moments": counters.moments_scored,
    })


def two_stage_search(
    corpus: Corpus,
    index: Optional[ClipIndex],
    query: Query,
    stage1_params: ModelParams,
    rerank_params: Optional[ModelParams],
    enum_cfg: EnumConfig,
    cfg: RetrievalConfig,
    mode: str = "approx",
) -> RankedResult:
    """Retrieve-then-re-rank; `mode` picks the stage-one currency.

    "approx" retrieves `clip_budget` clips from the index and forms the
    candidate set from moments containing a retrieved clip; "moment" keeps
    the `budget` cheapest moments under the stage-one cost. Stage two
    re-scores candidates with the re-ranking model (the stage-one model
    when none is given), applies per-video suppression, and merges.
    """
    if mode not in ("approx", "moment"):
        raise ValueError(f"unknown two-stage mode {mode!r}")
    rerank_params = rerank_params if rerank_params is not None else stage1_params
    rerank_variant = cfg.rerank_variant or cfg.variant
    counters: dict[str, int] = {}

    if mode == "approx":
        if index is None:
            raise ValueError("approximate mode needs a clip index")
        q1 = embed_query(query.word_vectors, stage1_params)
        if isinstance(index, IvfIndex):
            nprobe = min(cfg.nprobe, index.num_partitions)
            hits, stats = index.search(q1, top_c=cfg.clip_budget, nprobe=nprobe)
            counters["stage1_centroid_distances"] = stats.centroid_evals
            counters["stage1_partitions_probed"] = stats.partitions_probed
        else:
            hits, stats = index.search(q1, top_c=cfg.clip_budget)
        counters["stage1_distances"] = stats.distance_evals
        if not hits:
            log.warning("%s: empty stage-one retrieval", query.query_id)
            return RankedResult(query.query_id, [], counters)
        retrieved: dict[str, list[int]] = {}
        for h in hits:
            retrieved.setdefault(h.video_id, []).append(h.clip_idx)
        # Keep (f, l) iff a retrieved clip lies in [f - d, l + d]: a prefix
        # count of retrieved clips, read at the window clamped to the video.
        d = cfg.dilation_clips
        candidates = {}  # video_id -> (first, last) rows
        for video_id, clips in retrieved.items():
            n = corpus.video(video_id).num_clips
            grid = candidate_clips(n, enum_cfg)
            count = np.cumsum(np.bincount(np.asarray(clips) + 1, minlength=n + 1))
            hit = (count[np.minimum(grid[:, 1] + d, n - 1) + 1]
                   > count[np.maximum(grid[:, 0] - d, 0)])
            if hit.any():
                candidates[video_id] = grid[hit]
    else:
        if cfg.budget < cfg.top_k:
            raise ValueError("stage-one budget must be at least top_k")
        # NMS at IoU 1 drops nothing, so stage one is the exhaustive ranking
        # cut at the budget; its rows go to stage two in stage-one order.
        stage1 = exhaustive_search(corpus, query, stage1_params, enum_cfg,
                                   replace(cfg, nms_iou=1.0, top_k=cfg.budget))
        counters.update(stage1.stage_counters)
        candidates = {}
        for s in stage1.ranked:
            candidates.setdefault(s.moment.video_id, []).append(
                (s.moment.first_clip, s.moment.last_clip))

    q2 = embed_query(query.word_vectors, rerank_params)
    groups = ((corpus.video(vid), corpus.features_for(vid), *np.asarray(rows).T)
              for vid, rows in candidates.items())
    ranked, stage2_counters = _rank(groups, q2, rerank_variant, rerank_params,
                                    cfg.nms_iou, cfg.top_k)
    counters["stage2_distances"] = stage2_counters.distance_evals
    counters["stage2_moments"] = stage2_counters.moments_scored
    return RankedResult(query.query_id, ranked, counters)


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


@dataclass
class MomentPrior:
    """Histogram of duration-normalized (start, end) over training moments."""

    bins: int
    probabilities: np.ndarray  # (bins, bins)

    def cells(self, norm_spans: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Histogram cell (i, j) of each duration-normalized (start, end) row."""
        cell = np.minimum((norm_spans * self.bins).astype(np.int64), self.bins - 1)
        return cell[:, 0], cell[:, 1]


def fit_moment_prior(corpus: Corpus, queries: list[Query], bins: int = 10) -> MomentPrior:
    norm = []
    for q in queries:
        gt = q.ground_truth
        if gt is None:
            continue
        duration = corpus.video(gt.video_id).duration
        norm.extend((span.start / duration, span.end / duration) for span in gt.annotations)
    if not norm:
        raise ValueError("cannot fit a moment prior without ground truth")
    prior = MomentPrior(bins, np.zeros((bins, bins), dtype=np.float64))
    np.add.at(prior.probabilities, prior.cells(np.asarray(norm)), 1.0)
    prior.probabilities /= len(norm)
    return prior


def baseline_scores(
    corpus: Corpus,
    query: Query,
    kind: str,
    enum_cfg: EnumConfig,
    cfg: RetrievalConfig,
    prior: Optional[MomentPrior] = None,
    params: Optional[ModelParams] = None,
    seed: int = 0,
) -> RankedResult:
    """Chance / moment-prior / endpoint-only reference rankings.

    Chance and the prior rank every video's `candidate_clips` rows without
    suppression; only the top_k become `Moment`s. Chance costs a row its rank
    in a seeded permutation; the prior costs it minus the histogram
    probability of its normalized span, ties broken by a seeded uniform draw,
    then (video_id, first, last). The endpoint-only baseline is a full
    exhaustive run with a visually-masked model.
    """
    if kind not in BASELINES:
        raise ValueError(f"unknown baseline {kind!r}; expected one of {BASELINES}")
    if kind == "tef_only":
        if params is None or not params.dims.tef_only:
            raise ValueError("tef_only baseline needs a model trained with masked visuals")
        return exhaustive_search(corpus, query, params, enum_cfg, cfg)
    if kind == "moment_prior" and prior is None:
        raise ValueError("moment_prior baseline needs a fitted prior")

    rng = np.random.default_rng([seed, stable_u32(query.query_id)])
    videos = corpus.videos
    grids = [candidate_clips(v.num_clips, enum_cfg) for v in videos]
    ordinal = np.repeat(np.arange(len(videos)), [len(g) for g in grids])
    firsts, lasts = np.concatenate([np.empty((0, 2), np.int64), *grids]).T
    if kind == "chance":
        top = rng.permutation(len(ordinal))[:cfg.top_k]
        costs = np.arange(len(top), dtype=np.float64)
    else:
        jitter = rng.random(len(ordinal))
        norm = [clip_spans(v, *g.T) / v.duration for v, g in zip(videos, grids)]
        p = prior.probabilities[prior.cells(np.concatenate([np.empty((0, 2)), *norm]))]
        id_rank = np.argsort(np.argsort(np.asarray([v.video_id for v in videos], dtype=object)))
        top = np.lexsort((lasts, firsts, id_rank[ordinal], jitter, -p))[:cfg.top_k]
        costs = -p[top]
    ranked = [ScoredMoment(Moment.from_clips(videos[v], f, l), c)
              for v, f, l, c in zip(ordinal[top].tolist(), firsts[top].tolist(),
                                    lasts[top].tolist(), costs.tolist())]
    return RankedResult(query.query_id, ranked, {"stage1_moments": len(ordinal)})


# ---------------------------------------------------------------------------
# Batch driving
# ---------------------------------------------------------------------------


def restrict_corpus(corpus: Corpus, video_id: str) -> Corpus:
    video = corpus.video(video_id)
    return Corpus([video], {video_id: corpus.features_for(video_id)})
