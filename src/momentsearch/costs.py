"""Alignment costs between a query embedding and candidate moments.

The clip-alignment cost of a moment is the mean squared Euclidean
distance between the query embedding and the moment's clip embeddings.
Because it is a mean of per-clip terms, one distance per clip plus one
prefix sum gives every moment's cost in O(1) (`cal_costs`).

The variant names how a moment's rows are formed: "cal" keeps one row per
clip, "aggregate" mean-pools the moment's raw clip features into one row.
A model trained with TEF (`ModelDims.use_tef`) appends the moment's
normalized endpoints to every row; those rows depend on the moment, so each
moment's cost is then the mean squared distance over its own rows.

`score_moments` prices one video's candidates from its `VideoMeta` and
feature rows: it is the per-video reference that tests compare against.
Search and training build the same rows from the corpus's arrays with
`retrieval.moment_inputs`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Moment, VideoMeta, clip_spans
from .model import ModelParams, compute_context, embed_clips, moment_rows

VARIANTS = ("cal", "aggregate")


def sq_distances(rows: np.ndarray, query_emb: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance from each row to the query embedding."""
    rows = np.asarray(rows)
    q = np.asarray(query_emb)
    if rows.ndim != 2 or rows.shape[1] != q.shape[0]:
        raise ValueError(f"embedding dims differ: rows {rows.shape}, query {q.shape}")
    diff = rows - q
    return np.einsum("ij,ij->i", diff, diff)


@dataclass(frozen=True)
class ScoredMoment:
    moment: Moment
    cost: float


def cal_costs(distances: np.ndarray, firsts: np.ndarray, lasts: np.ndarray) -> np.ndarray:
    """Mean of distances[firsts[i]..lasts[i]] for each range, read from one
    float64 prefix sum."""
    prefix = np.zeros(len(distances) + 1, dtype=np.float64)
    np.cumsum(np.asarray(distances, dtype=np.float64), out=prefix[1:])
    return (prefix[lasts + 1] - prefix[firsts]) / (lasts - firsts + 1)


def score_moments(
    video: VideoMeta,
    video_features: np.ndarray,
    query_emb: np.ndarray,
    variant: str,
    params: ModelParams,
    firsts: np.ndarray,
    lasts: np.ndarray,
) -> np.ndarray:
    """Cost of each candidate (firsts[i], lasts[i]) of one video.

    "cal" under a non-TEF model computes one distance per clip and reuses it
    for every moment; every other case pays per moment row, with the rows
    of `model.moment_rows` (each clip, or one pooled row under "aggregate"),
    the video's context and, under TEF, the moment's endpoints.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if len(firsts) == 0:
        return np.empty(0, dtype=np.float64)
    feats = np.asarray(video_features, dtype=np.float64)
    context = compute_context(feats)
    q = np.asarray(query_emb, dtype=np.float64)

    if variant == "cal" and not params.dims.use_tef:
        return cal_costs(sq_distances(embed_clips(feats, context, None, params), q), firsts, lasts)
    n = len(firsts)
    rows, seg = moment_rows(feats, firsts, lasts - firsts + 1, variant == "aggregate")
    pairs = ((clip_spans(video, firsts, lasts) / video.duration)[seg]
             if params.dims.use_tef else None)
    dists = sq_distances(embed_clips(rows, context, pairs, params), q)
    return np.bincount(seg, weights=dists, minlength=n) / np.bincount(seg, minlength=n)
