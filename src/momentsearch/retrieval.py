"""End-to-end query answering.

Every search forms candidate rows, prices them and selects from them:

* exhaustive: every candidate of every video.
* two-stage (moment budget): the top `budget` moments of an exhaustive
  ranking under the cheap stage-one model, each video's rows in stage-one
  order. When the re-ranking model and variant are stage one's own
  (clip-alignment, non-TEF), stage one's costs are final and are not
  priced again.
* approximate (clip budget): the candidates of the videos holding a clip
  retrieved from the index that contain a retrieved clip. The hits arrive
  as arrays (`index.ClipHits`), and the candidates form in one pass over
  the touched videos: a padded prefix count of the retrieved clips, read
  at each `candidate_clips` row's dilated window.

Candidates travel as (video ordinal, first_clip, last_clip) integer arrays,
one run of rows per video, read against the corpus's per-ordinal arrays;
costs are arrays aligned with them. `_price` gives the costs and `_select`
the ranking. Under a clip-alignment, non-TEF model, `_price` embeds each
video's clips by their own `embed_clips` call (`model.embed_videos`), then
one distance pass and one padded prefix sum price every row
(`_padded_cal_costs`). TEF and aggregate rows depend on the moment, so
those variants score each video's run with `score_moments`.

Exhaustive search reads the corpus's `CandidateTable` (`candidate_table`,
kept on `Corpus.candidates`), built on its first search: the flat candidate
rows under one `EnumConfig` and, for a non-TEF model, every video's clip
embeddings under one model, so that a clip-alignment query takes one
distance pass over the corpus's clip matrix.

A ranked list stays in array form (`RankedMoments`) and builds a `Moment`
only for an item that is read. Non-maximum suppression runs only at the
final ranking stage, as one sweep over the rows of every video at once
(`nms`). All merges apply the deterministic (cost, video_id, first_clip,
last_clip) tie-break, a total order, so rankings are reproducible across
runs and do not depend on the order in which videos are scored.
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .core import Moment, Query, VideoMeta, grid_spans, ranges
from .costs import VARIANTS, CostCounters, ScoredMoment, score_moments, sq_distances
from .dataio import Corpus, stable_u32
from .enumeration import EnumConfig, candidate_clips
from .index import ClipHits, ClipIndex, IvfIndex
from .model import ModelParams, embed_query, embed_videos

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
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.rerank_variant not in (None, *VARIANTS):
            raise ValueError(f"unknown rerank_variant {self.rerank_variant!r}; "
                             f"expected one of {VARIANTS}")


class RankedMoments(Sequence):
    """A read-only ranked list of `ScoredMoment`s held as one array of
    (cost, key) records, where key = (ordinal * width + first) * width +
    last locates the item's (video ordinal, first_clip, last_clip) in a grid
    whose width exceeds every clip index of the list. The `ScoredMoment` of
    an item is built when the item is read; a slice is another
    `RankedMoments`. It equals any sequence holding equal items in the same
    order.

    A caller may keep many results (a benchmark keeps every first-pass one),
    so an item takes 12 bytes, or 16 where the key outgrows int32."""

    __slots__ = ("_videos", "_width", "_items")

    # One dtype object per key width: each array holds a reference to its dtype.
    _ITEMS = {key: np.dtype([("cost", np.float64), ("key", key)]) for key in (np.int32, np.int64)}

    def __init__(self, videos: Sequence[VideoMeta], ordinal, firsts, lasts, costs):
        self._videos = videos  # indexed by ordinal; shared, never copied
        ordinal, firsts, lasts = (np.asarray(a, dtype=np.int64) for a in (ordinal, firsts, lasts))
        self._width = width = int(lasts.max(initial=0)) + 1
        key = (ordinal * width + firsts) * width + lasts
        narrow = key.max(initial=0) <= np.iinfo(np.int32).max
        self._items = np.empty(len(key), dtype=self._ITEMS[np.int32 if narrow else np.int64])
        self._items["cost"], self._items["key"] = costs, key

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(ordinal, firsts, lasts, costs) arrays of the items, in rank order."""
        video_clip, lasts = np.divmod(self._items["key"].astype(np.int64), self._width)
        return (*np.divmod(video_clip, self._width), lasts, self._items["cost"])

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return RankedMoments(self._videos, *(a[i] for a in self.arrays()))
        return self._scored(*self._items[i].tolist())

    def __iter__(self):
        return (self._scored(*item) for item in self._items.tolist())

    def _scored(self, cost: float, key: int) -> ScoredMoment:
        video_clip, last = divmod(key, self._width)
        ordinal, first = divmod(video_clip, self._width)
        return ScoredMoment(Moment.from_clips(self._videos[ordinal], first, last), cost)

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"RankedMoments({list(self)!r})"


@dataclass(slots=True)
class RankedResult:
    query_id: str
    ranked: Sequence[ScoredMoment]
    stage_counters: dict[str, int] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# The candidate table
# ---------------------------------------------------------------------------

# The tensors that map a clip to its embedding; the LSTM and projection only
# embed queries.
_CLIP_TENSORS = ("mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2")
_DISTANCE_BLOCK_ROWS = 512


def _clip_model_key(params: ModelParams) -> tuple:
    """What a clip embedding depends on, bit for bit. Training updates
    `ModelParams` in place, so object identity would miss a change."""
    return (params.dims, *((t.dtype.str, t.tobytes())
                           for t in (getattr(params, n) for n in _CLIP_TENSORS)))


def _embed_ordinals(corpus: Corpus, ordinals: np.ndarray, params: ModelParams) -> np.ndarray:
    """The clip embeddings of the corpus's videos `ordinals`, stacked in that order."""
    return embed_videos([corpus.features[corpus.videos[o].video_id] for o in ordinals.tolist()],
                        params)


def _padded_layout(rows: np.ndarray, num_clips: np.ndarray, height: int
                   ) -> tuple[np.ndarray, tuple[int, int]]:
    """(slots, shape) of a zero-padded (height, longest video + 1) table
    whose row rows[b] holds a zero, then the num_clips[b] clip values of
    stacked video b: slots[j] is the flat position of stacked clip j."""
    width = int(num_clips.max(initial=0)) + 1
    return ranges(rows * width + 1, num_clips), (height, width)


def _padded_cal_costs(matrix: np.ndarray, q_emb: np.ndarray, slots: np.ndarray, shape: tuple,
                      rows: np.ndarray, firsts: np.ndarray, lasts: np.ndarray) -> np.ndarray:
    """Clip-alignment cost of clip ranges [firsts[i], lasts[i]] of table
    rows rows[i]. The query's distance to each clip embedding (`matrix`)
    lands in its slot (`_padded_layout`) of a zero-padded table of `shape`;
    row-wise prefix sums then give each cost with `costs.cal_costs`'
    operations, so the costs are the per-video costs bit for bit."""
    q = np.asarray(q_emb, dtype=np.float64)
    padded = np.zeros(shape)
    # Distances are row-wise, so blocks give the bytes of one pass while
    # bounding the difference matrix `sq_distances` allocates.
    for s in range(0, len(matrix), _DISTANCE_BLOCK_ROWS):
        block = slice(s, s + _DISTANCE_BLOCK_ROWS)
        padded.reshape(-1)[slots[block]] = sq_distances(matrix[block], q)
    prefix = np.cumsum(padded, axis=1)
    return (prefix[rows, lasts + 1] - prefix[rows, firsts]) / (lasts - firsts + 1)


class CandidateTable:
    """Every candidate of a corpus under one `EnumConfig`: `candidate_clips`
    rows of each video concatenated in corpus order, as flat (ordinal,
    first, last) arrays: one run of rows per video with candidates.

    The corpus holds its table, which therefore takes the corpus as an
    argument and keeps no reference to it: a cycle would leave an unused
    corpus to the cyclic garbage collector. `cal_costs` prices every row
    under a non-TEF model with `_padded_cal_costs`. Its clip embeddings,
    those of the videos with at least one candidate, are kept for the last
    model seen.
    """

    def __init__(self, corpus: Corpus, enum_cfg: EnumConfig):
        self.enum_cfg = enum_cfg
        grids = [candidate_clips(n, enum_cfg) for n in corpus.num_clips.tolist()]
        counts = np.asarray([len(g) for g in grids], dtype=np.int64)
        self.ordinal = np.repeat(np.arange(len(corpus), dtype=np.int32), counts)
        rows = np.concatenate([np.empty((0, 2), np.int64), *grids]).astype(np.int32)
        self.firsts, self.lasts = rows[:, 0].copy(), rows[:, 1].copy()
        self.scored = np.flatnonzero(counts)  # videos with candidates
        self._clip_slots, self._padded_shape = _padded_layout(
            self.scored, corpus.num_clips[self.scored], len(corpus))
        # Counts as int objects that every result's counters share.
        self.size, self.clips_scored = len(self.ordinal), len(self._clip_slots)
        self._model_key = None
        self._clip_matrix = None

    def clip_embeddings(self, corpus: Corpus, params: ModelParams) -> np.ndarray:
        """The scored videos' clip embeddings under `params` (`corpus` holds the table)."""
        key = _clip_model_key(params)
        if key != self._model_key:
            self._clip_matrix = None  # release the old matrix before building the new one
            self._clip_matrix = _embed_ordinals(corpus, self.scored, params)
            self._model_key = key
        return self._clip_matrix

    def cal_costs(self, corpus: Corpus, params: ModelParams, q_emb: np.ndarray) -> np.ndarray:
        """Clip-alignment cost of every row under a non-TEF model."""
        return _padded_cal_costs(self.clip_embeddings(corpus, params), q_emb, self._clip_slots,
                                 self._padded_shape, self.ordinal, self.firsts, self.lasts)


def candidate_table(corpus: Corpus, enum_cfg: EnumConfig) -> CandidateTable:
    """The corpus's table under `enum_cfg`, kept on `corpus.candidates`."""
    if corpus.candidates is None or corpus.candidates.enum_cfg != enum_cfg:
        corpus.candidates = None  # release the old table before building the new one
        corpus.candidates = CandidateTable(corpus, enum_cfg)
    return corpus.candidates


# ---------------------------------------------------------------------------
# Ranking
# ---------------------------------------------------------------------------


def nms(spans: np.ndarray, iou_threshold: float, ends: Optional[np.ndarray] = None
        ) -> np.ndarray:
    """Greedy suppression within each video; returns the kept row positions.

    `spans` is an (n, 2) array of (start, end) seconds whose rows come in
    one block per video, each block sorted cheapest first; `ends[i]` is one
    past the last row of row i's block (by default all rows are one video).
    A row is dropped iff its IoU with a kept cheaper row of its video
    exceeds the threshold, computed with `core.temporal_iou`'s operations.
    IoU never exceeds 1, so a threshold of 1 or more keeps every row.

    The blocks are padded into one (blocks, longest block) table and the
    greedy loop runs over row positions: at position i, every block whose
    row i is still kept suppresses its later rows at once. Each row meets
    the same kept rows in the same order as in a loop over one block at a
    time, so every decision is that loop's.
    """
    n = len(spans)
    if iou_threshold >= 1 or n == 0:
        return np.arange(n)
    if ends is None:
        ends = np.full(n, n)
    block_ends = np.flatnonzero(ends == np.arange(1, n + 1)) + 1  # row i closes its block
    sizes = np.diff(block_ends, prepend=0)
    block = np.repeat(np.arange(len(sizes)), sizes)
    pos = ranges(np.zeros_like(sizes), sizes)
    # Padding rows are (0, 0) spans that start unkept; against a real row
    # their union is positive, so the sweep divides by no zero.
    s, e = np.zeros((2, len(sizes), int(sizes.max())))
    s[block, pos], e[block, pos] = spans[:, 0], spans[:, 1]
    keep = np.zeros(s.shape, dtype=bool)
    keep[block, pos] = True
    for i in range(s.shape[1] - 1):
        active = np.flatnonzero(keep[:, i])
        s_i, e_i = s[active, i, None], e[active, i, None]
        s_j, e_j = s[active, i + 1:], e[active, i + 1:]
        inter = np.minimum(e_j, e_i) - np.maximum(s_j, s_i)
        union = np.maximum(e_j, e_i) - np.minimum(s_j, s_i)
        keep[active, i + 1:] &= (inter <= 0) | (inter / union <= iou_threshold)
    return np.flatnonzero(keep[block, pos])


def _select(
    corpus: Corpus, ordinal: np.ndarray, firsts: np.ndarray, lasts: np.ndarray,
    costs: np.ndarray, nms_iou: float, top_k: int,
) -> RankedMoments:
    """Suppress near-duplicates within each video, cheapest first, then keep
    the top_k candidate rows by (cost, video_id, first, last)."""
    rows = np.arange(len(costs))
    if nms_iou >= 1 and top_k < len(rows):
        # Nothing is suppressed, so only rows no dearer than the top_k-th
        # cost can place; NaN costs sort last.
        rows = rows[~(costs > np.partition(costs, top_k - 1)[top_k - 1])]
    rows = rows[np.lexsort((lasts[rows], firsts[rows], costs[rows], ordinal[rows]))]
    video = ordinal[rows]
    spans = grid_spans(corpus.clip_length[video], corpus.duration[video], firsts[rows],
                       lasts[rows])
    rows = rows[nms(spans, nms_iou, np.searchsorted(video, video, side="right"))]
    top = rows[np.lexsort((lasts[rows], firsts[rows], corpus.id_rank[ordinal[rows]],
                           costs[rows]))][:top_k]
    return RankedMoments(corpus.videos, ordinal[top], firsts[top], lasts[top], costs[top])


def _price(
    corpus: Corpus, ordinal: np.ndarray, firsts: np.ndarray, lasts: np.ndarray,
    q_emb: np.ndarray, variant: str, params: ModelParams,
) -> tuple[np.ndarray, CostCounters]:
    """(costs, counters) of candidate rows that come in one run per video.
    Under a clip-alignment, non-TEF model each run's video is embedded by its
    own `embed_clips` call and one padded gather prices every row; otherwise
    `score_moments` scores each run's rows in the order given."""
    starts = np.flatnonzero(np.diff(ordinal, prepend=-1))
    sizes = np.diff(starts, append=len(ordinal))
    videos = np.asarray(ordinal[starts], dtype=np.int64)
    if variant == "cal" and not params.dims.use_tef:
        runs = np.arange(len(videos))
        slots, shape = _padded_layout(runs, corpus.num_clips[videos], len(videos))
        costs = _padded_cal_costs(_embed_ordinals(corpus, videos, params), q_emb, slots, shape,
                                  np.repeat(runs, sizes), firsts, lasts)
        return costs, CostCounters(len(slots), len(costs))
    counters = CostCounters()
    costs = np.empty(len(ordinal))
    for o, s, e in zip(videos.tolist(), starts.tolist(), (starts + sizes).tolist()):
        video = corpus.videos[o]
        costs[s:e] = score_moments(video, corpus.features[video.video_id], q_emb, variant,
                                   params, firsts[s:e], lasts[s:e], counters)
    return costs, counters


def exhaustive_search(
    corpus: Corpus,
    query: Query,
    params: ModelParams,
    enum_cfg: EnumConfig,
    cfg: RetrievalConfig,
) -> RankedResult:
    """Score the full candidate universe with one model."""
    q_emb = embed_query(query.word_vectors, params)
    table = candidate_table(corpus, enum_cfg)
    if cfg.variant == "cal" and not params.dims.use_tef:
        costs = table.cal_costs(corpus, params, q_emb)
        counters = CostCounters(table.clips_scored, table.size)
    else:
        costs, counters = _price(corpus, table.ordinal, table.firsts, table.lasts, q_emb,
                                 cfg.variant, params)
    ranked = _select(corpus, table.ordinal, table.firsts, table.lasts, costs, cfg.nms_iou,
                     cfg.top_k)
    return RankedResult(query.query_id, ranked, {
        "stage1_distances": counters.distance_evals,
        "stage1_moments": counters.moments_scored,
    })


def _hit_candidates(corpus: Corpus, hits: ClipHits, enum_cfg: EnumConfig, dilation: int
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The candidates (f, l) of the videos holding a hit that have a hit
    clip in [f - dilation, l + dilation]: (ordinals, firsts, lasts), videos
    ascending, each video's rows in `candidate_clips` order."""
    hit_ordinal, clips, _ = hits.arrays()
    # Hits name videos by the index's ordinals; map each touched one by id.
    index_ordinal, hit_at = np.unique(hit_ordinal, return_inverse=True)
    mapped = [corpus.ordinal_of[hits.video_ids[o]] for o in index_ordinal.tolist()]
    videos, video_at = np.unique(np.asarray(mapped, dtype=np.int64), return_inverse=True)
    num_clips = corpus.num_clips[videos]
    width = int(num_clips.max()) + 1
    # count[t, k]: hits among the first k clips of touched video t.
    count = np.bincount(video_at[hit_at] * width + clips + 1, minlength=len(videos) * width)
    count = count.reshape(len(videos), width).cumsum(axis=1)
    grids = [candidate_clips(n, enum_cfg) for n in num_clips.tolist()]
    row = np.repeat(np.arange(len(videos)), [len(g) for g in grids])
    firsts, lasts = np.concatenate(grids).T
    # The window [f - d, l + d] clamped to the video holds a hit.
    hit = (count[row, np.minimum(lasts + dilation, num_clips[row] - 1) + 1]
           > count[row, np.maximum(firsts - dilation, 0)])
    return videos[row[hit]], firsts[hit], lasts[hit]


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
    when none is given), applies per-video suppression, and merges. In
    moment mode with the stage-one model and clip-alignment variant under a
    non-TEF model, the stage-one costs are those stage two would compute, so
    stage two ranks them without re-scoring (`stage2_distances` 0).
    """
    if mode not in ("approx", "moment"):
        raise ValueError(f"unknown two-stage mode {mode!r}")
    same_model = rerank_params is None or rerank_params is stage1_params
    rerank_params = rerank_params if rerank_params is not None else stage1_params
    rerank_variant = cfg.rerank_variant or cfg.variant
    counters: dict[str, int] = {}

    final = False  # stage one's costs are stage two's
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
            return RankedResult(query.query_id, RankedMoments(corpus.videos, [], [], [], []),
                                counters)
        ordinal, firsts, lasts = _hit_candidates(corpus, hits, enum_cfg, cfg.dilation_clips)
    else:
        if cfg.budget < cfg.top_k:
            raise ValueError("stage-one budget must be at least top_k")
        # NMS at IoU 1 drops nothing, so stage one is the exhaustive ranking
        # cut at the budget.
        stage1 = exhaustive_search(corpus, query, stage1_params, enum_cfg,
                                   replace(cfg, nms_iou=1.0, top_k=cfg.budget))
        counters.update(stage1.stage_counters)
        ordinal, firsts, lasts, costs = stage1.ranked.arrays()
        final = same_model and cfg.variant == rerank_variant == "cal" \
            and not stage1_params.dims.use_tef
        if not final:
            # One run per video, each in stage-one order: the batches a
            # re-scoring model embeds.
            order = np.argsort(ordinal, kind="stable")
            ordinal, firsts, lasts = ordinal[order], firsts[order], lasts[order]

    if final:
        stage2 = CostCounters(0, len(costs))
    else:
        q2 = embed_query(query.word_vectors, rerank_params)
        costs, stage2 = _price(corpus, ordinal, firsts, lasts, q2, rerank_variant,
                               rerank_params)
    counters["stage2_distances"] = stage2.distance_evals
    counters["stage2_moments"] = stage2.moments_scored
    ranked = _select(corpus, ordinal, firsts, lasts, costs, cfg.nms_iou, cfg.top_k)
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

    Chance and the prior rank the rows of the corpus's candidate table
    without suppression. Chance costs a row its rank in a seeded
    permutation; the prior costs it minus the histogram probability of its
    normalized span, ties broken by a seeded uniform draw, then (video_id,
    first, last). The endpoint-only baseline is a full exhaustive run with
    a visually-masked model.
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
    table = candidate_table(corpus, enum_cfg)
    ordinal, firsts, lasts = table.ordinal, table.firsts, table.lasts
    if kind == "chance":
        top = rng.permutation(table.size)[:cfg.top_k]
        costs = np.arange(len(top), dtype=np.float64)
    else:
        jitter = rng.random(table.size)
        duration = corpus.duration[ordinal]
        norm = grid_spans(corpus.clip_length[ordinal], duration, firsts, lasts) / duration[:, None]
        p = prior.probabilities[prior.cells(norm)]
        top = np.lexsort((lasts, firsts, corpus.id_rank[ordinal], jitter, -p))[:cfg.top_k]
        costs = -p[top]
    ranked = RankedMoments(corpus.videos, ordinal[top], firsts[top], lasts[top], costs)
    return RankedResult(query.query_id, ranked, {"stage1_moments": table.size})


# ---------------------------------------------------------------------------
# Batch driving
# ---------------------------------------------------------------------------


def restrict_corpus(corpus: Corpus, video_id: str) -> Corpus:
    video = corpus.video(video_id)
    return Corpus([video], {video_id: corpus.features_for(video_id)})
