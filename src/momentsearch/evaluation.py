"""Retrieval metrics: recall at K over IoU thresholds, median rank, the
oracle upper bound, and the multi-judgment consensus criteria.

Metrics consume plain (video_id, span) predictions, so they work directly
on results files without touching feature data. Recall at K and median
rank, alone or in a report, read one table of first correct ranks
(`_first_correct_ranks`): a query without a correct prediction misses at
every K and counts as universe+1 in the median.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from .core import GroundTruth, TemporalSpan, clip_spans, span_ious, temporal_iou
from .dataio import Corpus
from .enumeration import EnumConfig, candidate_clips

EXACT_MATCH_IOU = 1.0 - 1e-9


@dataclass(frozen=True)
class Prediction:
    video_id: str
    span: TemporalSpan
    cost: float = 0.0


def _first_correct_ranks(
    ranked: Sequence[Prediction],
    gt: GroundTruth,
    ious: Sequence[float],
    min_judgments: int,
) -> np.ndarray:
    """Per IoU threshold, the 1-based rank of the first prediction in the
    ground truth's video whose IoU reaches the threshold against at least
    `min_judgments` annotations; 0 when no prediction does."""
    if min_judgments < 1:
        raise ValueError("min_judgments must be at least 1")
    in_video = np.asarray([p.video_id == gt.video_id for p in ranked], dtype=bool)
    spans = np.asarray([(p.span.start, p.span.end) for p in ranked], np.float64).reshape(-1, 2)
    overlaps = np.stack([span_ious(spans, a.start, a.end)
                         for a in gt.annotations])  # (annotations, predictions)
    judged = (overlaps[None] >= np.asarray(ious, dtype=np.float64)[:, None, None]).sum(axis=1)
    correct = in_video & (judged >= min_judgments)  # (ious, predictions)
    # A trailing always-correct column sends argmax past the list when none is.
    first = np.argmax(np.pad(correct, ((0, 0), (0, 1)), constant_values=True), axis=1) + 1
    return np.where(first <= len(ranked), first, 0)


def _rank_table(
    results: dict[str, Sequence[Prediction]],
    ground_truths: dict[str, GroundTruth],
    ious: Sequence[float],
    min_judgments: int,
) -> np.ndarray:
    """(queries, ious) table of `_first_correct_ranks`, in results order."""
    if not results:
        raise ValueError("no results to evaluate")
    return np.asarray([_first_correct_ranks(ranked, ground_truths[qid], ious, min_judgments)
                       for qid, ranked in results.items()], dtype=np.int64)


def _recall(ranks: np.ndarray, k: int) -> float:
    """Share of first correct ranks in 1..k; an absent one (0) misses."""
    return float(np.mean((ranks > 0) & (ranks <= k)))


def _median(ranks: np.ndarray, universe: int) -> float:
    """Median first correct rank; an absent one counts as universe+1."""
    ordered = np.sort(np.where(ranks > 0, ranks, universe + 1))
    mid = len(ordered) // 2
    if len(ordered) % 2 == 1:
        return float(ordered[mid])
    return (float(ordered[mid - 1]) + float(ordered[mid])) / 2.0


def first_correct_rank(
    ranked: Sequence[Prediction],
    gt: GroundTruth,
    iou_thr: float,
    min_judgments: int,
    universe: int,
) -> int:
    """1-based rank of the first correct prediction; universe+1 when absent."""
    return int(_first_correct_ranks(ranked, gt, (iou_thr,), min_judgments)[0]) or universe + 1


def recall_at_k(
    results: dict[str, Sequence[Prediction]],
    ground_truths: dict[str, GroundTruth],
    k: int,
    iou_thr: float,
    min_judgments: int = 1,
) -> float:
    return _recall(_rank_table(results, ground_truths, (iou_thr,), min_judgments)[:, 0], k)


def median_rank(
    results: dict[str, Sequence[Prediction]],
    ground_truths: dict[str, GroundTruth],
    iou_thr: float,
    min_judgments: int,
    universe: int,
    declared_top_k: Optional[int] = None,
) -> float:
    """Median over queries of the first correct rank.

    Defined only for exhaustive runs: the ranked lists must have been
    allowed to cover the whole candidate universe.
    """
    if declared_top_k is not None and declared_top_k < universe:
        raise ValueError(
            f"median rank needs exhaustive rankings: top_k={declared_top_k} < universe={universe}"
        )
    return _median(_rank_table(results, ground_truths, (iou_thr,), min_judgments)[:, 0],
                   universe)


def _oracle_reach(
    corpus: Corpus,
    ground_truths: dict[str, GroundTruth],
    enum_cfg: EnumConfig,
    min_judgments: int,
) -> np.ndarray:
    """Per ground truth, the largest IoU threshold at which some candidate of
    its video overlaps `min_judgments` annotations: over the candidates, the
    largest `min_judgments`-th largest annotation IoU. -inf when the video has
    no candidate or too few annotations."""
    if min_judgments < 1:
        raise ValueError("min_judgments must be at least 1")
    reach = []
    for gt in ground_truths.values():
        video = corpus.video(gt.video_id)
        spans = clip_spans(video, *candidate_clips(video.num_clips, enum_cfg).T)
        if len(spans) == 0 or len(gt.annotations) < min_judgments:
            reach.append(-np.inf)
        else:
            ious = np.sort([span_ious(spans, a.start, a.end) for a in gt.annotations], axis=0)
            reach.append(ious[-min_judgments].max())
    if not reach:
        raise ValueError("no ground truths to evaluate")
    return np.asarray(reach)


def oracle_recall(
    corpus: Corpus,
    ground_truths: dict[str, GroundTruth],
    enum_cfg: EnumConfig,
    iou_thr: float,
    min_judgments: int = 1,
) -> float:
    """Best achievable recall: the share of ground truths whose video has a
    candidate with IoU >= `iou_thr` against `min_judgments` annotations."""
    return float(np.mean(_oracle_reach(corpus, ground_truths, enum_cfg, min_judgments) >= iou_thr))


# ---------------------------------------------------------------------------
# Consensus criteria over annotation triads
# ---------------------------------------------------------------------------


def consensus_rank(ranked: Sequence[Prediction], annotations: Sequence[TemporalSpan]) -> float:
    """Best mean rank over annotation triads, with exact-match ranks.

    Each annotation's rank is the position of the prediction matching it at
    IoU 1; predictions must cover the video's candidate set.
    """
    if len(annotations) < 3:
        raise ValueError("consensus rank needs at least three annotations")
    ranks = []
    for a in annotations:
        rank = next(
            (r for r, p in enumerate(ranked, start=1)
             if temporal_iou(p.span, a) >= EXACT_MATCH_IOU),
            None,
        )
        if rank is None:
            raise ValueError(f"no prediction matches annotation [{a.start}, {a.end}] exactly")
        ranks.append(rank)
    return min(sum(triad) / 3.0 for triad in combinations(ranks, 3))


def consensus_miou(top1: Prediction, annotations: Sequence[TemporalSpan]) -> float:
    """Best mean IoU of the top-1 prediction over annotation triads."""
    if len(annotations) < 3:
        raise ValueError("consensus mIoU needs at least three annotations")
    ious = [temporal_iou(top1.span, a) for a in annotations]
    return max(sum(triad) / 3.0 for triad in combinations(ious, 3))


# ---------------------------------------------------------------------------
# Aggregated reports
# ---------------------------------------------------------------------------


@dataclass
class MetricsReport:
    recalls: dict[tuple[int, float], float]
    median_ranks: dict[float, float] = field(default_factory=dict)
    oracle: dict[float, float] = field(default_factory=dict)
    query_count: int = 0
    config: dict = field(default_factory=dict)

    def validate(self) -> None:
        """Recalls must grow with K and shrink with the IoU threshold."""
        ks = sorted({k for k, _ in self.recalls})
        ious = sorted({t for _, t in self.recalls})
        for iou in ious:
            values = [self.recalls[(k, iou)] for k in ks if (k, iou) in self.recalls]
            if any(a > b + 1e-12 for a, b in zip(values, values[1:])):
                raise AssertionError(f"recall not monotone in K at IoU {iou}")
        for k in ks:
            values = [self.recalls[(k, iou)] for iou in ious if (k, iou) in self.recalls]
            if any(a < b - 1e-12 for a, b in zip(values, values[1:])):
                raise AssertionError(f"recall not monotone in IoU at K={k}")

    def to_kv(self) -> dict[str, str]:
        items: dict[str, str] = {"query_count": str(self.query_count)}
        for (k, iou), value in sorted(self.recalls.items()):
            items[f"recall@{k}_iou{iou:.2f}"] = f"{value:.6f}"
        for iou, value in sorted(self.median_ranks.items()):
            items[f"median_rank_iou{iou:.2f}"] = f"{value:.1f}"
        for iou, value in sorted(self.oracle.items()):
            items[f"oracle_recall_iou{iou:.2f}"] = f"{value:.6f}"
        for key, value in sorted(self.config.items()):
            items[f"config.{key}"] = str(value)
        return items


def build_report(
    results: dict[str, Sequence[Prediction]],
    ground_truths: dict[str, GroundTruth],
    ks: Sequence[int] = (1, 10, 100),
    ious: Sequence[float] = (0.5, 0.7),
    min_judgments: int = 1,
    universe: Optional[int] = None,
    declared_top_k: Optional[int] = None,
    corpus: Optional[Corpus] = None,
    enum_cfg: Optional[EnumConfig] = None,
    config: Optional[dict] = None,
) -> MetricsReport:
    """Assemble the full metrics table from per-query first-correct ranks.

    Median rank and the oracle bound are included only when their inputs
    (full-universe rankings / the corpus) are available.
    """
    ranks = _rank_table(results, ground_truths, ious, min_judgments)  # (queries, ious)
    report = MetricsReport(recalls={}, query_count=len(results), config=dict(config or {}))
    exhaustive = (universe is not None and declared_top_k is not None
                  and declared_top_k >= universe)
    reach = None
    if corpus is not None and enum_cfg is not None:
        reach = _oracle_reach(corpus, ground_truths, enum_cfg, min_judgments)
    for col, iou in enumerate(ious):
        for k in ks:
            report.recalls[(k, iou)] = _recall(ranks[:, col], k)
        if exhaustive:
            report.median_ranks[iou] = _median(ranks[:, col], universe)
        if reach is not None:
            report.oracle[iou] = float(np.mean(reach >= iou))
    report.validate()
    return report


def single_video_eval(
    results: dict[str, Sequence[Prediction]],
    ground_truths: dict[str, GroundTruth],
    ks: Sequence[int] = (1, 5),
    ious: Sequence[float] = (0.5, 0.7),
    min_judgments: int = 1,
    corpus: Optional[Corpus] = None,
    enum_cfg: Optional[EnumConfig] = None,
    config: Optional[dict] = None,
) -> MetricsReport:
    """Recall over per-video rankings (each query scored in its own video),
    with the oracle bound when the corpus is given, as `build_report`."""
    for qid, ranked in results.items():
        gt = ground_truths[qid]
        for pred in ranked:
            if pred.video_id != gt.video_id:
                raise ValueError(
                    f"{qid}: prediction in {pred.video_id} but single-video mode "
                    f"requires {gt.video_id}"
                )
    return build_report(results, ground_truths, ks=ks, ious=ious,
                        min_judgments=min_judgments, corpus=corpus, enum_cfg=enum_cfg,
                        config=config)
