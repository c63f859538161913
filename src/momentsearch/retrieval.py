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
  as arrays (`index.ClipHits`); one array maps the index's ordinals to the
  corpus's (`Corpus.ordinals_for`), and the candidates form in one pass
  over the touched videos: a padded prefix count of the retrieved clips,
  read at the dilated window of each of their `candidate_clips` rows, taken
  from one cached table of the grids of the corpus's clip counts.

Candidates travel as (video ordinal, first_clip, last_clip) integer arrays,
one run of rows per video, read against the corpus's per-ordinal arrays;
costs are arrays aligned with them. `_price` gives the costs and `_select`
the ranking. Under a clip-alignment, non-TEF model, `_price` embeds the
videos' clips with `model.embed_videos` from the corpus's arrays (its clip
matrix and context table, read at the videos' ordinals; one stacked call
per clip count, with each video's own bytes), then one distance pass and
one padded prefix sum price every row (`_padded_cal_costs`). TEF and
aggregate rows depend on the moment: `moment_inputs`, which also builds
training's batches, gives each video's run its MLP input rows, priced with
the per-video `costs.score_moments`' operations and bytes.

Exhaustive search and training read the corpus's `CandidateTable`
(`candidate_table`, kept on `Corpus.candidates`), built on first use: the
flat candidate rows under one `EnumConfig`, gathered from that same grid
table (`_grid_table`) at each video's clip count, and, for search under a
non-TEF model, every video's clip embeddings under one model, so that a
clip-alignment query takes one distance pass over the corpus's clip matrix.

A ranked list stays in array form (`RankedMoments`) and builds a `Moment`
only for an item that is read. Non-maximum suppression runs only at the
final ranking stage, as one sweep over the rows of every video at once
(`nms`). Before it, `_select` drops every row that cannot place, which is
exact: each video's cheapest row survives suppression, so no row dearer
than the top_k-th smallest per-video minimum cost can reach the top_k,
and a row's suppression depends only on the cheaper rows of its own
video. All merges apply the deterministic (cost, video_id, first_clip,
last_clip) tie-break, a total order, so rankings are reproducible across
runs and do not depend on the order in which videos are scored.
"""

from __future__ import annotations

import functools
import logging
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .core import Moment, Query, VideoMeta, grid_spans, offsets, ranges
from .costs import VARIANTS, ScoredMoment, sq_distances
from .dataio import Corpus, stable_u32
from .enumeration import EnumConfig, candidate_clips
from .index import ClipHits, ClipIndex, IvfIndex
from .model import (ModelDims, ModelParams, assemble_visual_inputs, embed_query, embed_videos,
                    mlp_forward, moment_rows)

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
    return embed_videos(corpus.clip_features, corpus.clip_offsets[ordinals],
                        corpus.num_clips[ordinals], corpus.contexts[ordinals], params)


def moment_inputs(corpus: Corpus, ordinal, firsts: np.ndarray, lasts: np.ndarray,
                  pooled: bool, dims: ModelDims) -> tuple[np.ndarray, np.ndarray]:
    """(MLP input rows, moment of each row) of the corpus's moments (ordinal[i],
    firsts[i], lasts[i]), or of one video's if `ordinal` is a scalar, whose one
    context row is then broadcast. Each moment gives its `model.moment_rows`, its
    video's context and, under TEF, its `model.tef` endpoints from `grid_spans`."""
    ordinal = np.asarray(ordinal)
    rows, seg = moment_rows(corpus.clip_features, corpus.clip_offsets[ordinal] + firsts,
                            lasts - firsts + 1, pooled)
    pairs = None
    if dims.use_tef:
        duration = corpus.duration[ordinal]
        pairs = grid_spans(corpus.clip_length[ordinal], duration, firsts, lasts)
        pairs = (pairs / duration[..., None])[seg]
    context = corpus.contexts[ordinal if ordinal.ndim == 0 else ordinal[seg]]
    return assemble_visual_inputs(rows, context, pairs, dims), seg


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
    """Every candidate of a corpus under one `EnumConfig`, gathered from
    `_grid_table`: each video's `candidate_clips` rows in corpus order, as
    flat (ordinal, first, last) arrays, one run per video with candidates.

    The corpus holds its table, which therefore takes the corpus as an
    argument and keeps no reference to it: a cycle would leave an unused
    corpus to the cyclic garbage collector. `cal_costs` prices every row
    under a non-TEF model with `_padded_cal_costs`. Its clip embeddings,
    those of the videos with at least one candidate, are kept for the last
    model seen.
    """

    def __init__(self, corpus: Corpus, enum_cfg: EnumConfig):
        self.enum_cfg = enum_cfg
        firsts, lasts, _, _, grid_starts, grid_sizes = _grid_table(corpus.clip_counts, enum_cfg, 0)
        counts = grid_sizes[corpus.num_clips]
        rows = ranges(grid_starts[corpus.num_clips], counts)
        self.ordinal = np.repeat(np.arange(len(corpus), dtype=np.int32), counts)
        self.firsts, self.lasts = firsts[rows].astype(np.int32), lasts[rows].astype(np.int32)
        self.scored = np.flatnonzero(counts)  # videos with candidates
        self.starts = offsets(counts)[self.scored]  # each scored video's first row
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


def run_starts(ordinal: np.ndarray) -> np.ndarray:
    """Position of the first row of each run of equal ordinals."""
    return np.flatnonzero(np.diff(ordinal, prepend=-1))


def _select(
    corpus: Corpus, ordinal: np.ndarray, firsts: np.ndarray, lasts: np.ndarray,
    costs: np.ndarray, nms_iou: float, top_k: int, starts: np.ndarray,
) -> RankedMoments:
    """Suppress near-duplicates within each video, cheapest first, then keep
    the top_k candidate rows by (cost, video_id, first, last).

    The rows come in one run per video, the runs starting at `starts`
    (`run_starts`). Only the rows that can place are sorted and suppressed.
    The witnesses are costs of rows sure to survive suppression: each
    video's cheapest cost, since nothing cheaper in its video can suppress
    that row, or every row's cost at NMS 1. With T the top_k-th smallest
    witness, at least top_k kept rows cost T or less, so no row dearer than
    T can place. A row's suppression depends only on the cheaper rows of
    its own video, which all stay, so dropping the dearer rows changes no
    decision about a row that can place. Rows that tie with T stay. NaN
    sorts last and `costs > NaN` is false: a NaN row always stays, and a
    NaN T drops nothing. `np.fmin` skips NaN, so a video's witness is NaN
    only when all its costs are."""
    rows = np.arange(len(costs))
    witness = costs if nms_iou >= 1 else np.fmin.reduceat(costs, starts)
    if top_k < len(witness):
        rows = rows[~(costs > np.partition(witness, top_k - 1)[top_k - 1])]
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
    q_emb: np.ndarray, variant: str, params: ModelParams, starts: np.ndarray,
) -> tuple[np.ndarray, int]:
    """(costs, distance evaluations) of candidate rows that come in one run
    per video, the runs starting at `starts` (`run_starts`).
    Under a clip-alignment, non-TEF model the runs' videos are embedded with
    `model.embed_videos` and one padded gather prices every row; otherwise
    each run's rows, in the order given, get their `moment_inputs`, one
    `mlp_forward` with the run's own shape and a mean distance per moment."""
    sizes = np.diff(starts, append=len(ordinal))
    videos = np.asarray(ordinal[starts], dtype=np.int64)
    if variant == "cal" and not params.dims.use_tef:
        runs = np.arange(len(videos))
        slots, shape = _padded_layout(runs, corpus.num_clips[videos], len(videos))
        costs = _padded_cal_costs(_embed_ordinals(corpus, videos, params), q_emb, slots, shape,
                                  np.repeat(runs, sizes), firsts, lasts)
        return costs, len(slots)
    evals = 0
    costs = np.empty(len(ordinal))
    for o, s, n in zip(videos.tolist(), starts.tolist(), sizes.tolist()):
        x, seg = moment_inputs(corpus, o, firsts[s:s + n], lasts[s:s + n],
                               variant == "aggregate", params.dims)
        dists = sq_distances(mlp_forward(x, params), q_emb)
        costs[s:s + n] = np.bincount(seg, weights=dists) / np.bincount(seg)
        evals += len(dists)
    return costs, evals


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
        costs, evals = table.cal_costs(corpus, params, q_emb), table.clips_scored
    else:
        costs, evals = _price(corpus, table.ordinal, table.firsts, table.lasts, q_emb,
                              cfg.variant, params, table.starts)
    ranked = _select(corpus, table.ordinal, table.firsts, table.lasts, costs, cfg.nms_iou,
                     cfg.top_k, table.starts)
    return RankedResult(query.query_id, ranked,
                        {"stage1_distances": evals, "stage1_moments": len(costs)})


@functools.lru_cache(maxsize=None)
def _grid_table(clip_counts: tuple, enum_cfg: EnumConfig, dilation: int) -> tuple[np.ndarray, ...]:
    """The `candidate_clips` grids of the clip counts `clip_counts` (a
    corpus's, `Corpus.clip_counts`) laid end to end, read-only: (firsts,
    lasts, lo, hi, starts, sizes). Count n's grid is rows starts[n] ..
    starts[n] + sizes[n] - 1, none for a count not listed. A row's window
    [f - dilation, l + dilation], clamped to a video of n clips, holds a hit
    when the video's prefix count of hits at column hi exceeds that at lo."""
    grids = [candidate_clips(n, enum_cfg) for n in clip_counts]
    sizes = np.zeros(max(clip_counts, default=0) + 1, dtype=np.int64)
    sizes[list(clip_counts)] = [len(g) for g in grids]
    firsts, lasts = np.concatenate([np.empty((0, 2), np.int64), *grids]).T.copy()
    clips = np.repeat(np.arange(len(sizes)), sizes)
    table = (firsts, lasts, np.maximum(firsts - dilation, 0),
             np.minimum(lasts + dilation, clips - 1) + 1, offsets(sizes), sizes)
    for a in table:
        a.flags.writeable = False
    return table


def _hit_candidates(corpus: Corpus, hits: ClipHits, enum_cfg: EnumConfig, dilation: int
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The candidates (f, l) of the videos holding a hit that have a hit
    clip in [f - dilation, l + dilation]: (ordinals, firsts, lasts), videos
    ascending, each video's rows in `candidate_clips` order."""
    hit_ordinal, clips, _ = hits.arrays()
    # Hits name videos by the index's ordinals; the corpus maps its id table.
    mapped = corpus.ordinals_for(hits.video_ids)[hit_ordinal]
    if mapped.min() < 0:
        raise KeyError(hits.video_ids[int(hit_ordinal[mapped < 0].min())])
    videos, video_at = np.unique(mapped, return_inverse=True)
    num_clips = corpus.num_clips[videos]
    width = int(num_clips.max()) + 1
    # count[t * width + k]: hits among the first k clips of touched video t.
    count = np.bincount(video_at * width + clips + 1, minlength=len(videos) * width)
    count = count.reshape(len(videos), width).cumsum(axis=1).ravel()
    # Every touched video's grid rows, as rows of one table of the corpus's clip counts.
    firsts, lasts, lo, hi, grid_starts, grid_sizes = _grid_table(
        corpus.clip_counts, enum_cfg, dilation)
    sizes = grid_sizes[num_clips]
    rows = ranges(grid_starts[num_clips], sizes)
    base = np.repeat(np.arange(len(videos)) * width, sizes)
    hit = count.take(base + hi.take(rows)) > count.take(base + lo.take(rows))
    keep = rows[hit]
    return videos[base[hit] // width], firsts.take(keep), lasts.take(keep)


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
    q1 = None
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
        # One run per video, each in stage-one order: the batches a
        # re-scoring model embeds, and the runs `_select` bounds.
        ordinal, firsts, lasts, costs = stage1.ranked.arrays()
        order = np.argsort(ordinal, kind="stable")
        ordinal, firsts, lasts, costs = ordinal[order], firsts[order], lasts[order], costs[order]
        final = same_model and cfg.variant == rerank_variant == "cal" \
            and not stage1_params.dims.use_tef

    starts = run_starts(ordinal)
    evals = 0
    if not final:
        # Approximate stage one embedded the query under this same model.
        q2 = q1 if same_model and q1 is not None else \
            embed_query(query.word_vectors, rerank_params)
        costs, evals = _price(corpus, ordinal, firsts, lasts, q2, rerank_variant,
                              rerank_params, starts)
    counters["stage2_distances"] = evals
    counters["stage2_moments"] = len(costs)
    ranked = _select(corpus, ordinal, firsts, lasts, costs, cfg.nms_iou, cfg.top_k, starts)
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
    return Corpus([video], corpus.stored_rows(video_id))
