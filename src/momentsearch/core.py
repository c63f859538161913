"""Shared domain types and temporal-interval arithmetic.

All timestamps are in seconds. Clip indices are zero-based everywhere;
clip k of a video spans [k * clip_length, (k + 1) * clip_length), with the
last clip clamped to the video duration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class TemporalSpan:
    """A time interval [start, end) inside a video, in seconds."""

    start: float
    end: float

    def __post_init__(self):
        if not (math.isfinite(self.start) and math.isfinite(self.end)):
            raise ValueError(f"span endpoints must be finite, got [{self.start}, {self.end}]")
        if self.start < 0:
            raise ValueError(f"span start must be non-negative, got {self.start}")
        if not self.start < self.end:
            raise ValueError(f"span must satisfy start < end, got [{self.start}, {self.end}]")

    @property
    def length(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class VideoMeta:
    """Per-video clip grid and a locator for its clip feature matrix."""

    video_id: str
    duration: float
    clip_length: float
    num_clips: int
    feature_ref: str = ""

    def __post_init__(self):
        if self.num_clips < 2:
            raise ValueError(f"{self.video_id}: need at least 2 clips, got {self.num_clips}")
        if self.clip_length <= 0 or self.duration <= 0:
            raise ValueError(f"{self.video_id}: durations must be positive")
        # The last clip may be partial, but the grid must not overshoot by a full clip.
        if self.num_clips * self.clip_length > self.duration + self.clip_length + 1e-9:
            raise ValueError(
                f"{self.video_id}: {self.num_clips} clips of {self.clip_length}s "
                f"do not fit a {self.duration}s video"
            )


@dataclass(frozen=True)
class Moment:
    """A contiguous run of at least two clips within one video."""

    video_id: str
    first_clip: int
    last_clip: int  # inclusive
    span: TemporalSpan

    def __post_init__(self):
        if not 0 <= self.first_clip < self.last_clip:
            raise ValueError(
                f"moment needs at least two clips: first={self.first_clip}, last={self.last_clip}"
            )

    @property
    def num_clips(self) -> int:
        return self.last_clip - self.first_clip + 1

    @property
    def sort_key(self) -> tuple:
        return (self.video_id, self.first_clip, self.last_clip)

    @classmethod
    def from_clips(cls, video: VideoMeta, first_clip: int, last_clip: int) -> "Moment":
        """Build a moment on the clip grid of `video`, validating the range."""
        if not 0 <= first_clip < last_clip < video.num_clips:
            raise ValueError(
                f"clip range [{first_clip}, {last_clip}] invalid for "
                f"{video.video_id} (N={video.num_clips})"
            )
        start = first_clip * video.clip_length
        end = min((last_clip + 1) * video.clip_length, video.duration)
        return cls(video.video_id, first_clip, last_clip, TemporalSpan(start, end))


def clip_spans(video: VideoMeta, firsts: np.ndarray, lasts: np.ndarray) -> np.ndarray:
    """(n, 2) array of the (start, end) seconds of clip ranges [firsts[i], lasts[i]],
    computed with `Moment.from_clips`'s operations; the ranges are not validated."""
    return grid_spans(video.clip_length, video.duration, firsts, lasts)


def grid_spans(clip_length, duration, firsts: np.ndarray, lasts: np.ndarray) -> np.ndarray:
    """`clip_spans` on a clip grid given as values: `clip_length` and
    `duration` are scalars or one value per range, so one call covers ranges
    of many videos."""
    return np.stack([firsts * clip_length,
                     np.minimum((lasts + 1) * clip_length, duration)], axis=1)


def offsets(counts) -> np.ndarray:
    """Start of each block when blocks of these lengths are laid end to end."""
    counts = np.asarray(counts, dtype=np.int64)
    return np.cumsum(counts) - counts


def ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenated index ranges starts[k] .. starts[k] + counts[k] - 1."""
    return np.repeat(starts - offsets(counts), counts) + np.arange(counts.sum())


@dataclass(frozen=True)
class GroundTruth:
    """Annotated spans for one query; several entries when judgments disagree."""

    video_id: str
    annotations: tuple

    def __post_init__(self):
        if len(self.annotations) == 0:
            raise ValueError("ground truth needs at least one annotation")


@dataclass(frozen=True, eq=False)
class Query:
    """A language query as a sequence of word vectors, optionally with ground truth."""

    query_id: str
    word_vectors: np.ndarray  # (T, word_dim)
    ground_truth: Optional[GroundTruth] = None

    def __post_init__(self):
        wv = np.asarray(self.word_vectors)
        if wv.ndim != 2 or wv.shape[0] == 0:
            raise ValueError(f"{self.query_id}: word vectors must form a non-empty 2-d matrix")


def temporal_iou(a: TemporalSpan, b: TemporalSpan) -> float:
    """Intersection over union of two spans; 0 when disjoint."""
    inter = min(a.end, b.end) - max(a.start, b.start)
    if inter <= 0.0:
        return 0.0
    union = max(a.end, b.end) - min(a.start, b.start)
    return inter / union


def span_ious(spans: np.ndarray, start: float, end: float) -> np.ndarray:
    """IoU of each (start, end) row of `spans` with [start, end), computed
    with `temporal_iou`'s operations; 0 where the two are disjoint."""
    s, e = spans[:, 0], spans[:, 1]
    inter = np.minimum(e, end) - np.maximum(s, start)
    union = np.maximum(e, end) - np.minimum(s, start)
    return np.where(inter > 0, inter / union, 0.0)
