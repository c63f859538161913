"""Corpus-scale natural-language video moment retrieval over clip embeddings."""

from .core import GroundTruth, Moment, Query, TemporalSpan, VideoMeta, temporal_iou
from .enumeration import (
    PRESETS,
    DatasetPreset,
    EnumConfig,
    aggregate_index_entries,
    enumerate_moments,
    get_preset,
    stride_clips,
)
from .model import ModelDims, ModelParams, compute_context, embed_clips, embed_query, init_params, tef

__version__ = "0.1.0"

__all__ = [
    "GroundTruth", "Moment", "Query", "TemporalSpan", "VideoMeta",
    "temporal_iou",
    "PRESETS", "DatasetPreset", "EnumConfig", "aggregate_index_entries",
    "enumerate_moments", "get_preset", "stride_clips",
    "ModelDims", "ModelParams", "compute_context", "embed_clips",
    "embed_query", "init_params", "tef",
    "__version__",
]
