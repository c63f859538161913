"""Candidate moment enumeration and index-size accounting.

Enumeration runs entirely in clip units; second-valued settings are
converted once via the clip grid to avoid floating-point drift in the
candidate sets.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import Moment, VideoMeta

log = logging.getLogger(__name__)


def _round_half_away(x: float) -> int:
    """Deterministic round-half-away-from-zero (platform-independent)."""
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


@dataclass(frozen=True)
class EnumConfig:
    """Settings that define a video's candidate moment set.

    Exactly one of `stride_seconds` (fixed stride) or `stride_ratio`
    (stride proportional to moment length) must be set. Moment lengths run
    from `min_moment_clips` to `max_moment_clips` in steps of
    `length_step_clips` clips.
    """

    clip_length: float
    max_moment_clips: int
    stride_seconds: Optional[float] = None
    stride_ratio: Optional[float] = None
    min_moment_clips: int = 2
    length_step_clips: int = 1

    def __post_init__(self):
        if (self.stride_seconds is None) == (self.stride_ratio is None):
            raise ValueError("set exactly one of stride_seconds / stride_ratio")
        if self.clip_length <= 0:
            raise ValueError("clip_length must be positive")
        if self.stride_seconds is not None:
            if _round_half_away(self.stride_seconds / self.clip_length) < 1:
                raise ValueError("fixed stride must round to at least one clip")
        if self.stride_ratio is not None and not 0 < self.stride_ratio <= 1:
            raise ValueError(f"stride_ratio must lie in (0, 1], got {self.stride_ratio}")
        if self.min_moment_clips < 2:
            raise ValueError("moments need at least two clips")
        if self.max_moment_clips < self.min_moment_clips:
            raise ValueError("max_moment_clips below min_moment_clips")
        if self.length_step_clips < 1:
            raise ValueError("length_step_clips must be positive")


def stride_clips(moment_clips: int, cfg: EnumConfig) -> int:
    """Start-position stride, in clips, for moments of `moment_clips` clips."""
    if moment_clips < cfg.min_moment_clips:
        raise ValueError(f"moment length {moment_clips} below minimum {cfg.min_moment_clips}")
    if cfg.stride_seconds is not None:
        s = _round_half_away(cfg.stride_seconds / cfg.clip_length)
    else:
        s = _round_half_away(cfg.stride_ratio * moment_clips)
    return max(1, s)


@functools.lru_cache(maxsize=None)
def candidate_clips(num_clips: int, cfg: EnumConfig) -> np.ndarray:
    """All candidate (first_clip, last_clip) pairs of a `num_clips`-clip video,
    as one shared, read-only (n, 2) int64 array sorted by (first, last).

    For each admissible length, start positions advance by the length's
    stride from clip 0; only moments that fit in the video are emitted.
    """
    pairs = [(first, first + length - 1)
             for length in range(cfg.min_moment_clips, min(cfg.max_moment_clips, num_clips) + 1,
                                 cfg.length_step_clips)
             for first in range(0, num_clips - length + 1, stride_clips(length, cfg))]
    grid = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    grid.flags.writeable = False
    return grid


def enumerate_moments(video: VideoMeta, cfg: EnumConfig) -> list[Moment]:
    """All candidate moments of a video, in `candidate_clips` order.

    A video shorter than the minimum moment yields an empty list.
    """
    n = video.num_clips
    if n < cfg.min_moment_clips:
        log.warning(
            "%s has %d clips, below the %d-clip minimum; no candidates",
            video.video_id, n, cfg.min_moment_clips,
        )
        return []
    return [Moment.from_clips(video, f, l) for f, l in candidate_clips(n, cfg).tolist()]


def aggregate_index_entries(n_clips: int, max_moment_clips: int, min_len: int = 1) -> int:
    """Entries a per-moment index needs for one video of `n_clips` clips.

    Counts contiguous spans of min_len..max_moment_clips clips. With
    min_len=1 and n_clips >= max_moment_clips this is
    n*K - K*(K-1)/2 for K = max_moment_clips.
    """
    if n_clips < 1:
        raise ValueError("n_clips must be at least 1")
    if max_moment_clips < min_len:
        raise ValueError("max_moment_clips below min_len")
    total = 0
    for length in range(min_len, min(max_moment_clips, n_clips) + 1):
        total += n_clips - length + 1
    return total


# ---------------------------------------------------------------------------
# Dataset presets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DatasetPreset:
    """Enumeration settings plus the evaluation/training knobs tied to them."""

    name: str
    enum: EnumConfig
    nms_iou: float
    min_judgments: int
    intra_iou_exclusion: float


# The didemo grid is annotated in 5 s units; modeling each unit as two
# 2.5 s clips keeps single-unit moments at two clips and yields 21
# candidates per 30 s video.
PRESETS: dict[str, DatasetPreset] = {
    "didemo": DatasetPreset(
        name="didemo",
        enum=EnumConfig(
            clip_length=2.5,
            max_moment_clips=12,
            stride_seconds=5.0,
            min_moment_clips=2,
            length_step_clips=2,
        ),
        nms_iou=1.0,
        min_judgments=2,
        intra_iou_exclusion=1.0,
    ),
    "charades-sta": DatasetPreset(
        name="charades-sta",
        enum=EnumConfig(
            clip_length=3.0,
            max_moment_clips=8,
            stride_ratio=0.3,
            min_moment_clips=2,
        ),
        nms_iou=0.6,
        min_judgments=1,
        intra_iou_exclusion=0.35,
    ),
    "activitynet": DatasetPreset(
        name="activitynet",
        enum=EnumConfig(
            clip_length=5.0,
            max_moment_clips=26,
            stride_ratio=0.3,
            min_moment_clips=2,
        ),
        nms_iou=0.5,
        min_judgments=1,
        intra_iou_exclusion=0.35,
    ),
}


def get_preset(name: str) -> DatasetPreset:
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; available: {sorted(PRESETS)}") from None
