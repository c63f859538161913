"""Alignment costs between a query embedding and candidate moments.

The clip-alignment cost of a moment is the mean squared Euclidean
distance between the query embedding and the moment's clip embeddings.
Because it is a mean of per-clip terms, one distance table per video
plus a prefix sum gives every moment's cost in O(1).

The aggregate baseline instead mean-pools the moment's raw clip features,
embeds the pooled vector through the same visual head, and takes a single
squared distance to the query embedding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Moment, VideoMeta, clip_spans
from .model import (
    ModelParams,
    assemble_visual_inputs,
    compute_context,
    embed_clips,
    mlp_forward,
)

VARIANTS = ("cal", "aggregate", "cal_tef", "aggregate_tef")


def sq_distances(rows: np.ndarray, query_emb: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance from each row to the query embedding."""
    rows = np.asarray(rows)
    q = np.asarray(query_emb)
    if rows.ndim != 2 or rows.shape[1] != q.shape[0]:
        raise ValueError(f"embedding dims differ: rows {rows.shape}, query {q.shape}")
    diff = rows - q
    return np.einsum("ij,ij->i", diff, diff)


@dataclass
class ClipDistanceTable:
    """Per-clip squared distances to one query, with a running-sum vector."""

    video_id: str
    distances: np.ndarray  # (num_clips,)
    prefix: np.ndarray  # (num_clips + 1,), prefix[0] == 0

    @property
    def num_clips(self) -> int:
        return self.distances.shape[0]


@dataclass(frozen=True)
class ScoredMoment:
    moment: Moment
    cost: float


@dataclass
class CostCounters:
    """Vector-distance evaluation accounting for benchmark reports."""

    distance_evals: int = 0
    moments_scored: int = 0


def clip_distances(query_emb: np.ndarray, clip_embeddings: np.ndarray, video_id: str = "") -> ClipDistanceTable:
    """Distance table for one video; prefix sums accumulate in 64-bit."""
    d = sq_distances(np.asarray(clip_embeddings, dtype=np.float64),
                     np.asarray(query_emb, dtype=np.float64))
    prefix = np.zeros(d.shape[0] + 1, dtype=np.float64)
    np.cumsum(d, out=prefix[1:])
    return ClipDistanceTable(video_id, d, prefix)


def moment_cost_cal(table: ClipDistanceTable, first_clip: int, last_clip: int) -> float:
    """Mean clip distance over [first_clip, last_clip] via the prefix sums."""
    if not 0 <= first_clip < last_clip < table.num_clips:
        raise ValueError(
            f"need 0 <= i < j < {table.num_clips}, got i={first_clip}, j={last_clip}"
        )
    z = last_clip - first_clip + 1
    return (table.prefix[last_clip + 1] - table.prefix[first_clip]) / z


def moment_cost_aggregate(
    query_emb: np.ndarray,
    video_features: np.ndarray,
    context: np.ndarray,
    tef_pair,
    moment: Moment,
    params: ModelParams,
) -> float:
    """Pool the moment's raw features, embed once, return the squared distance."""
    feats = np.asarray(video_features, dtype=np.float64)
    pooled = feats[moment.first_clip:moment.last_clip + 1].mean(axis=0)
    inputs = assemble_visual_inputs(pooled[None, :], context, tef_pair, params.dims)
    emb = mlp_forward(inputs, params)
    return float(sq_distances(emb, np.asarray(query_emb, dtype=np.float64))[0])


def _tef_costs_for_moments(
    video: VideoMeta,
    video_features: np.ndarray,
    context: np.ndarray,
    query_emb: np.ndarray,
    firsts: np.ndarray,
    lasts: np.ndarray,
    params: ModelParams,
    aggregate: bool,
) -> tuple[np.ndarray, int]:
    """Cost per moment for the TEF variants; returns (costs, distance evals).

    TEF-tiled clip embeddings depend on the containing moment, so each
    moment gets its own rows; rows for all moments are embedded in one
    batch and reduced by segment means. Endpoints are `clip_spans`
    normalized by the duration, as `model.tef` normalizes a moment's span.
    """
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


def score_moments(
    video: VideoMeta,
    video_features: np.ndarray,
    query_emb: np.ndarray,
    variant: str,
    params: ModelParams,
    firsts: np.ndarray,
    lasts: np.ndarray,
    counters: CostCounters | None = None,
) -> np.ndarray:
    """Cost of each candidate (firsts[i], lasts[i]) of one video.

    The non-TEF clip-alignment variant computes one distance per clip and
    reuses the table for every moment; the other variants pay per moment.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if len(firsts) == 0:
        return np.empty(0, dtype=np.float64)
    if counters is None:
        counters = CostCounters()
    feats = np.asarray(video_features, dtype=np.float64)
    context = compute_context(feats)
    q = np.asarray(query_emb, dtype=np.float64)

    if variant == "cal":
        emb = embed_clips(feats, context, None, params)
        table = clip_distances(q, emb, video.video_id)
        costs = (table.prefix[lasts + 1] - table.prefix[firsts]) / (lasts - firsts + 1)
        counters.distance_evals += table.num_clips
    elif variant == "aggregate":
        pooled = np.stack([
            feats[first:last + 1].mean(axis=0)
            for first, last in zip(firsts.tolist(), lasts.tolist())
        ])
        inputs = assemble_visual_inputs(pooled, context, None, params.dims)
        emb = mlp_forward(inputs, params)
        costs = sq_distances(emb, q)
        counters.distance_evals += len(firsts)
    else:
        costs, n_dists = _tef_costs_for_moments(
            video, feats, context, q, firsts, lasts, params, aggregate=variant == "aggregate_tef"
        )
        counters.distance_evals += n_dists
    counters.moments_scored += len(firsts)
    return costs
