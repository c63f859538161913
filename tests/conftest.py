"""Shared fixtures and oracle helpers."""

from __future__ import annotations

import numpy as np
import pytest

from momentsearch.core import GroundTruth, Query, TemporalSpan, VideoMeta, temporal_iou
from momentsearch.dataio import Corpus
from momentsearch.model import ModelDims, ModelParams


def identity_visual_params(visual_in: int, word_in: int = 4, hidden_lstm: int = 5) -> ModelParams:
    """A visual head that reproduces the raw clip feature exactly.

    relu(x) - relu(-x) == x, so W1 stacks [+I; -I] over the clip-feature
    slots (context slots zeroed) and W2 recombines with [I, -I].
    """
    v = visual_in
    dims = ModelDims(v, word_in, hidden_mlp=2 * v, embed=v, hidden_lstm=hidden_lstm)
    w1 = np.zeros((2 * v, dims.mlp_in))
    w1[:v, :v] = np.eye(v)
    w1[v:, :v] = -np.eye(v)
    w2 = np.concatenate([np.eye(v), -np.eye(v)], axis=1)
    h = hidden_lstm
    return ModelParams(
        dims=dims,
        mlp_w1=w1,
        mlp_b1=np.zeros(2 * v),
        mlp_w2=w2,
        mlp_b2=np.zeros(v),
        lstm_wx=np.zeros((4 * h, word_in)),
        lstm_wh=np.zeros((4 * h, h)),
        lstm_b=np.zeros(4 * h),
        proj_w=np.zeros((v, h)),
        proj_b=np.zeros(v),
    )


def greedy_nms_reference(spans: list[TemporalSpan], iou_threshold: float) -> list[int]:
    """Keep a span iff its IoU with every kept, cheaper span is at most the threshold."""
    kept = []
    for i, span in enumerate(spans):
        if all(temporal_iou(span, spans[k]) <= iou_threshold for k in kept):
            kept.append(i)
    return kept


def make_corpus(
    rng: np.random.Generator,
    num_videos: int = 4,
    num_clips: int = 8,
    visual_dim: int = 6,
    clip_length: float = 2.0,
) -> Corpus:
    videos = []
    features = {}
    for i in range(num_videos):
        vid = f"v{i:03d}"
        videos.append(VideoMeta(vid, num_clips * clip_length, clip_length, num_clips))
        features[vid] = rng.standard_normal((num_clips, visual_dim))
    return Corpus(videos, features)


def varied_corpus(
    rng: np.random.Generator,
    clip_length: float,
    num_videos: int = 16,
    max_clips: int = 30,
) -> tuple[Corpus, list[Query]]:
    """Videos of 2, 3, 4, then random up to max_clips clips, most with a
    partial last clip, and two queries per video whose 1-3 annotations lie
    on or off the clip grid."""
    videos, features, queries = [], {}, []
    for i in range(num_videos):
        n = 2 + i if i < 3 else int(rng.integers(2, max_clips + 1))
        duration = (n - float(rng.choice([0.0, 0.25, 0.6]))) * clip_length
        video = VideoMeta(f"v{i:03d}", duration, clip_length, n)
        videos.append(video)
        features[video.video_id] = rng.standard_normal((n, 3))
        for qi in range(2):
            annotations = []
            for _ in range(int(rng.integers(1, 4))):
                if rng.random() < 0.5:
                    first = int(rng.integers(0, n - 1))
                    last = int(rng.integers(first + 1, n))
                    start = first * clip_length
                    end = min((last + 1) * clip_length, duration)
                else:
                    start = float(rng.uniform(0, duration - 0.5))
                    end = float(rng.uniform(start + 0.25, duration))
                annotations.append(TemporalSpan(start, end))
            queries.append(Query(f"q{i:03d}_{qi}", rng.standard_normal((3, 2)),
                                 GroundTruth(video.video_id, tuple(annotations))))
    return Corpus(videos, features), queries


@pytest.fixture
def rng():
    return np.random.default_rng(0)
