"""Triplet ranking training with hand-written reverse-mode gradients.

The loss over a batch of (positive, intra-negative, inter-negative)
triples is a sum of hinge ranking terms on alignment costs; gradients are
accumulated analytically through the visual MLP, the LSTM, the output
projection, the distance average, and the hinge. The hinge subgradient at
the kink is taken as 0, so fully satisfied margins step silently.

The loop is single-threaded and deterministic given the config seed. It
stops with `TrainingDiverged` once a step's loss exceeds
`DIVERGENCE_FACTOR` times the first step's (see `train`).
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import Moment, Query, clip_spans, offsets, ranges, span_ious
from .costs import VARIANTS
from .dataio import Corpus
from .enumeration import EnumConfig, candidate_clips, enumerate_moments
from .model import (
    ModelDims,
    ModelParams,
    assemble_visual_inputs,
    compute_context,
    init_params,
    lstm_forward_batch,
    mlp_forward,
    tef,
)


# `train` raises `TrainingDiverged` when a step's loss exceeds this multiple
# of the first step's loss (floored at one margin, so that a first batch whose
# margins are nearly all met does not make every later step look divergent).
# Healthy runs stay within about 3x of their first step.
DIVERGENCE_FACTOR = 100.0


class TrainingDiverged(FloatingPointError):
    """A step's loss grew past `DIVERGENCE_FACTOR` times the first step's."""


@dataclass
class TrainConfig:
    margin: float = 0.1
    inter_weight: float = 0.4
    lr0: float = 0.05
    momentum: float = 0.95
    lr_decay: float = 0.1
    lr_decay_every: int = 30
    epochs: int = 108
    batch_triples: int = 128
    intra_iou_exclusion: float = 0.35
    seed: int = 0
    variant: str = "cal"  # one of costs.VARIANTS; TEF comes from ModelDims.use_tef

    def __post_init__(self):
        if self.margin <= 0 or self.inter_weight < 0 or self.lr0 <= 0:
            raise ValueError("need margin > 0, inter_weight >= 0, lr0 > 0")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must lie in [0, 1)")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown training variant {self.variant!r}")


@dataclass(frozen=True)
class TrainingTriple:
    query_index: int
    positive: Moment
    intra_negative: Moment
    inter_negative: Moment


def ranking_loss(x, y, b):
    """Hinge max(0, x - y + b), elementwise over arrays."""
    return np.maximum(0.0, x - y + b)


class TrainDataset:
    """Corpus + aligned queries + cached candidate sets for sampling.

    Per query, one array holds each candidate's best annotation IoU: the
    positive is its first maximum, an intra pool the rows below the exclusion.

    Batches are gathered from arrays built here: every clip feature as one
    float64 row of `clip_rows` (video v's rows start at the corpus's
    `clip_offsets[v]`, v the corpus ordinal), one context row per video in
    `contexts`, and every trainable query's word vectors as float64 rows of
    `word_rows` (query q's start at `word_offsets[q]`, `query_lengths[q]`
    of them). Video durations are the corpus's `duration` array.
    """

    def __init__(self, corpus: Corpus, queries: list[Query], enum_cfg: EnumConfig):
        self.corpus = corpus
        self.enum_cfg = enum_cfg
        self.candidates: dict[str, list[Moment]] = {}
        self.candidate_keys: dict[str, dict[tuple[int, int], Moment]] = {}
        self._norm_endpoints: dict[str, np.ndarray] = {}
        feats = [np.asarray(corpus.features_for(v.video_id), dtype=np.float64)
                 for v in corpus.videos]
        self.clip_rows = np.concatenate(feats)
        self.contexts = np.stack([compute_context(f) for f in feats])
        spans = {}
        for video in corpus.videos:
            cands = enumerate_moments(video, enum_cfg)
            self.candidates[video.video_id] = cands
            self.candidate_keys[video.video_id] = {
                (m.first_clip, m.last_clip): m for m in cands
            }
            spans[video.video_id] = clip_spans(
                video, *candidate_clips(video.num_clips, enum_cfg).T)
            self._norm_endpoints[video.video_id] = spans[video.video_id] / video.duration
        self.enumerable_video_ids = [
            v.video_id for v in corpus.videos if self.candidates[v.video_id]
        ]
        self._enumerable_pos = {vid: i for i, vid in enumerate(self.enumerable_video_ids)}

        self.queries: list[Query] = []
        self.positives: list[Moment] = []
        self._best_ious: list[np.ndarray] = []
        for q in queries:
            if q.ground_truth is None:
                continue
            cands = self.candidates.get(q.ground_truth.video_id, [])
            if not cands:
                continue
            best = np.max([span_ious(spans[q.ground_truth.video_id], a.start, a.end)
                           for a in q.ground_truth.annotations], axis=0)
            self.queries.append(q)
            self.positives.append(cands[int(np.argmax(best))])
            self._best_ious.append(best)
        self.intra_pools: list[list[Moment]] = [[] for _ in self.queries]
        self._pool_exclusion: Optional[float] = None
        words = [np.asarray(q.word_vectors, dtype=np.float64) for q in self.queries]
        self.word_rows = np.concatenate(words) if words else np.zeros((0, 0))
        self.query_lengths = np.array([w.shape[0] for w in words], dtype=np.int64)
        self.word_offsets = offsets(self.query_lengths)

    def context_for(self, video_id: str) -> np.ndarray:
        return self.contexts[self.corpus.ordinal_of[video_id]]

    def intra_pool(self, query_index: int, exclusion_iou: float) -> list[Moment]:
        if self._pool_exclusion != exclusion_iou:
            self._pool_exclusion = exclusion_iou
            self.intra_pools = [
                [self.candidates[q.ground_truth.video_id][i]
                 for i in np.flatnonzero(best < exclusion_iou).tolist()]
                for q, best in zip(self.queries, self._best_ious)
            ]
        return self.intra_pools[query_index]

    def nearest_candidate(self, video_id: str, s_norm: float, e_norm: float) -> Moment:
        pts = self._norm_endpoints[video_id]
        deltas = np.abs(pts[:, 0] - s_norm) + np.abs(pts[:, 1] - e_norm)
        return self.candidates[video_id][int(np.argmin(deltas))]


def sample_triples(
    dataset: TrainDataset,
    cfg: TrainConfig,
    rng: np.random.Generator,
    size: Optional[int] = None,
    inter_sampler: Optional[Callable[[int, np.random.Generator], Optional[Moment]]] = None,
) -> list[TrainingTriple]:
    """Uniform positives; intra negatives below the exclusion IoU; inter
    negatives at the positive's clip range in a random other video when that
    range is enumerable there, else the nearest normalized-endpoint candidate.
    """
    if len(dataset.enumerable_video_ids) < 2:
        raise ValueError("triplet sampling needs at least two enumerable videos")
    if not dataset.queries:
        raise ValueError("no trainable queries in dataset")
    size = cfg.batch_triples if size is None else size
    pool_ids = dataset.enumerable_video_ids
    triples = []
    for _ in range(size):
        qi, pool = -1, []
        for _attempt in range(100):
            qi = int(rng.integers(len(dataset.queries)))
            pool = dataset.intra_pool(qi, cfg.intra_iou_exclusion)
            if pool:
                break
        else:
            raise RuntimeError("no query with a valid intra negative after 100 draws")
        positive = dataset.positives[qi]
        intra = pool[int(rng.integers(len(pool)))]

        inter = inter_sampler(qi, rng) if inter_sampler is not None else None
        if inter is None:
            own_pos = dataset._enumerable_pos.get(positive.video_id)
            if own_pos is None:
                pick = int(rng.integers(len(pool_ids)))
            else:
                pick = int(rng.integers(len(pool_ids) - 1))
                if pick >= own_pos:
                    pick += 1
            other = pool_ids[pick]
            key = (positive.first_clip, positive.last_clip)
            inter = dataset.candidate_keys[other].get(key)
            if inter is None:
                video = dataset.corpus.video(positive.video_id)
                s_norm, e_norm = tef(positive, video)
                inter = dataset.nearest_candidate(other, s_norm, e_norm)
        triples.append(TrainingTriple(qi, positive, intra, inter))
    return triples


# ---------------------------------------------------------------------------
# Batched forward / backward
# ---------------------------------------------------------------------------


def _assemble_batch(dataset: TrainDataset, triples: list[TrainingTriple], dims: ModelDims,
                    variant: str):
    """Flatten a batch into MLP input rows plus padded query word tensors.

    Each moment contributes its clip rows (one pooled row, its clips'
    `mean(axis=0)`, under "aggregate"), its video's context and, under TEF,
    its endpoints as `tef` computes them; one `assemble_visual_inputs` call
    builds every row of the batch. Rows, contexts and words are gathered
    from the dataset's arrays, clip offsets and durations from the corpus's.
    """
    moments = [m for t in triples for m in (t.positive, t.intra_negative, t.inter_negative)]
    corpus = dataset.corpus
    vids, firsts, lasts = np.array(
        [(corpus.ordinal_of[m.video_id], m.first_clip, m.last_clip) for m in moments], dtype=np.int64).T
    if variant == "aggregate":
        counts = np.ones(len(moments), dtype=np.int64)
        rows = np.array([corpus.features_for(m.video_id)[
            m.first_clip:m.last_clip + 1].mean(axis=0) for m in moments])
    else:
        counts = lasts - firsts + 1
        rows = dataset.clip_rows[ranges(corpus.clip_offsets[vids] + firsts, counts)]
    seg = np.repeat(np.arange(len(moments)), counts)
    pairs = None
    if dims.use_tef:
        spans = np.array([(m.span.start, m.span.end) for m in moments], dtype=np.float64)
        pairs = (spans / corpus.duration[vids, None])[seg]
    x = assemble_visual_inputs(rows, dataset.contexts[vids[seg]], pairs, dims)
    z_counts = counts.astype(np.float64)

    qidx = np.array([t.query_index for t in triples], dtype=np.int64)
    lengths = dataset.query_lengths[qidx]
    mask = (np.arange(lengths.max()) < lengths[:, None]).astype(np.float64)
    words = np.zeros(mask.shape + (dims.word_in,))
    words[mask > 0] = dataset.word_rows[ranges(dataset.word_offsets[qidx], lengths)]
    return x, seg, z_counts, words, mask


def _forward(x, seg, z_counts, words, mask, params: ModelParams, cfg: TrainConfig,
             want_cache: bool):
    n_moments = z_counts.shape[0]
    batch = n_moments // 3
    emb_rows, mlp_cache = mlp_forward(x, params, want_cache=True)
    h_t, lstm_cache = lstm_forward_batch(words, mask, params, want_cache=True)
    f_q = h_t @ params.proj_w.T + params.proj_b

    row_triple = seg // 3
    diff = emb_rows - f_q[row_triple]
    d = np.einsum("ij,ij->i", diff, diff)
    costs = np.bincount(seg, weights=d, minlength=n_moments) / z_counts

    c_pos, c_intra, c_inter = costs[0::3], costs[1::3], costs[2::3]
    intra_hinge = ranking_loss(c_pos, c_intra, cfg.margin)
    inter_hinge = ranking_loss(c_pos, c_inter, cfg.margin)
    per_triple = intra_hinge + cfg.inter_weight * inter_hinge
    # Fixed reassociation: summing in sorted order makes the total independent
    # of how the batch happens to be ordered.
    loss = float(np.sort(per_triple).sum())
    if not np.isfinite(loss):
        raise FloatingPointError("non-finite training loss")
    if not want_cache:
        return loss, None
    cache = {
        "mlp": mlp_cache, "lstm": lstm_cache, "emb_rows": emb_rows,
        "h_t": h_t, "f_q": f_q, "diff": diff, "row_triple": row_triple,
        "seg": seg, "z_counts": z_counts, "batch": batch,
        "intra_hinge": intra_hinge, "inter_hinge": inter_hinge,
        "costs": costs, "per_triple": per_triple,
    }
    return loss, cache


def _lstm_backward(d_ht, steps, params: ModelParams):
    """Gradients of the LSTM weights from d(loss)/d(final hidden state).

    Walks `lstm_forward_batch`'s step tuples backwards and fills one
    (batch, 4H) d_alpha per step: the i | f | o block as (d3 * s3) * (1 - s3)
    over the cached sigmoid block, the cell block as (dc_new * i) * (1 - g**2).
    Each step's weight gradients are added in step order.
    """
    h_dim = params.dims.hidden_lstm
    h3 = 3 * h_dim
    d_wx = np.zeros_like(params.lstm_wx)
    d_wh = np.zeros_like(params.lstm_wh)
    d_b = np.zeros_like(params.lstm_b)
    dh = d_ht
    dc = np.zeros_like(d_ht)
    d_alpha = np.empty((d_ht.shape[0], 4 * h_dim))
    d_i, d_f, d_o = (d_alpha[:, k * h_dim:(k + 1) * h_dim] for k in range(3))
    d3, d_g = d_alpha[:, :h3], d_alpha[:, h3:]
    for x_t, h_prev, c_prev, s3, g, tanh_c, m, keep in reversed(steps):
        i, f, o = s3[:, :h_dim], s3[:, h_dim:2 * h_dim], s3[:, 2 * h_dim:]
        dh_new = m * dh
        dc_new = m * dc + dh_new * o * (1.0 - tanh_c ** 2)
        np.multiply(dc_new, g, out=d_i)
        np.multiply(dc_new, c_prev, out=d_f)
        np.multiply(dh_new, tanh_c, out=d_o)
        d3 *= s3
        d3 *= 1.0 - s3
        np.multiply(dc_new, i, out=d_g)
        d_g *= 1.0 - g ** 2
        d_wx += d_alpha.T @ x_t
        d_wh += d_alpha.T @ h_prev
        d_b += d_alpha.sum(axis=0)
        dh = keep * dh + d_alpha @ params.lstm_wh
        dc = keep * dc + dc_new * f
    return d_wx, d_wh, d_b


def batch_loss(dataset: TrainDataset, triples: list[TrainingTriple],
               params: ModelParams, cfg: TrainConfig) -> float:
    """Eq-style batch loss only; used directly by finite-difference oracles."""
    x, seg, z, words, mask = _assemble_batch(dataset, triples, params.dims, cfg.variant)
    loss, _ = _forward(x, seg, z, words, mask, params, cfg, want_cache=False)
    return loss


def loss_and_grads(dataset: TrainDataset, triples: list[TrainingTriple],
                   params: ModelParams, cfg: TrainConfig, activity: Optional[dict] = None):
    """Batch loss and exact gradients for every parameter tensor.

    When `activity` is a dict, it receives the number of triples whose intra
    and whose inter hinge is positive (`"intra"`, `"inter"`).
    """
    x, seg, z_counts, words, mask = _assemble_batch(dataset, triples, params.dims, cfg.variant)
    loss, cache = _forward(x, seg, z_counts, words, mask, params, cfg, want_cache=True)
    batch = cache["batch"]

    d_costs = np.zeros(3 * batch)
    intra_active = cache["intra_hinge"] > 0
    inter_active = cache["inter_hinge"] > 0
    if activity is not None:
        activity["intra"] = int(np.count_nonzero(intra_active))
        activity["inter"] = int(np.count_nonzero(inter_active))
    intra_on = intra_active.astype(np.float64)
    inter_on = inter_active.astype(np.float64)
    d_costs[0::3] = intra_on + cfg.inter_weight * inter_on
    d_costs[1::3] = -intra_on
    d_costs[2::3] = -cfg.inter_weight * inter_on

    dd_rows = d_costs[cache["seg"]] / z_counts[cache["seg"]]
    d_rows = dd_rows[:, None] * 2.0 * cache["diff"]

    # One flat bincount: each query row sums its rows' terms in row order.
    n_q, e = cache["f_q"].shape
    bins = cache["row_triple"][:, None] * e + np.arange(e)
    d_fq = np.bincount(bins.ravel(), weights=(-d_rows).ravel(),
                       minlength=n_q * e).reshape(n_q, e)

    mlp_cache = cache["mlp"]
    d_w2 = d_rows.T @ mlp_cache["a1"]
    d_b2 = d_rows.sum(axis=0)
    d_a1 = d_rows @ params.mlp_w2
    d_z1 = d_a1 * (mlp_cache["z1"] > 0)
    d_w1 = d_z1.T @ mlp_cache["x"]
    d_b1 = d_z1.sum(axis=0)

    d_proj_w = d_fq.T @ cache["h_t"]
    d_proj_b = d_fq.sum(axis=0)
    d_ht = d_fq @ params.proj_w
    d_wx, d_wh, d_lstm_b = _lstm_backward(d_ht, cache["lstm"], params)

    grads = {
        "mlp_w1": d_w1, "mlp_b1": d_b1, "mlp_w2": d_w2, "mlp_b2": d_b2,
        "lstm_wx": d_wx, "lstm_wh": d_wh, "lstm_b": d_lstm_b,
        "proj_w": d_proj_w, "proj_b": d_proj_b,
    }
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient in {name}")
    return loss, grads


def sgd_step(params: ModelParams, grads: dict[str, np.ndarray],
             velocity: dict[str, np.ndarray], epoch: int, cfg: TrainConfig) -> float:
    """In-place momentum update; returns the learning rate used."""
    lr = cfg.lr0 * cfg.lr_decay ** (epoch // cfg.lr_decay_every)
    for name in ModelParams.TENSOR_NAMES:
        v = velocity[name]
        v *= cfg.momentum
        v -= lr * grads[name]
        getattr(params, name)[...] += v
    return lr


def train(
    dataset: TrainDataset,
    cfg: TrainConfig,
    dims: Optional[ModelDims] = None,
    base_params: Optional[ModelParams] = None,
    inter_sampler=None,
) -> tuple[ModelParams, list[dict]]:
    """Full SGD loop; returns final parameters and a per-epoch loss log.

    Each epoch record holds `epoch`, `lr`, `mean_loss`, the share of the
    epoch's triples whose intra and inter hinges were active
    (`active_intra`, `active_inter`), each tensor's gradient L2 norm
    averaged over the epoch's steps (`grad_norm`), and `wall_time_s`, the
    only field that varies between runs. Raises `TrainingDiverged` before
    the update of a step whose loss exceeds `DIVERGENCE_FACTOR` times the
    first step's (floored at `cfg.margin`).
    """
    if (dims is None) == (base_params is None):
        raise ValueError("pass exactly one of dims / base_params")
    params = base_params.copy() if base_params is not None else init_params(dims, cfg.seed)
    velocity = {n: np.zeros_like(t) for n, t in params.tensors().items()}
    rng = np.random.default_rng(cfg.seed)
    steps_per_epoch = max(1, len(dataset.queries) // cfg.batch_triples)
    loss_limit = None
    history = []
    for epoch in range(cfg.epochs):
        started = time.perf_counter()
        epoch_losses = []
        active = Counter()
        norm_sums = dict.fromkeys(ModelParams.TENSOR_NAMES, 0.0)
        triples_seen = 0
        lr = cfg.lr0
        for step in range(steps_per_epoch):
            triples = sample_triples(dataset, cfg, rng, inter_sampler=inter_sampler)
            activity = {}
            loss, grads = loss_and_grads(dataset, triples, params, cfg, activity=activity)
            if loss_limit is None:
                loss_limit = DIVERGENCE_FACTOR * max(loss, cfg.margin)
            elif loss > loss_limit:
                raise TrainingDiverged(
                    f"epoch {epoch} step {step}: batch loss {loss:.6g} exceeds "
                    f"{DIVERGENCE_FACTOR:g} x the first step's; lower lr0 or momentum")
            lr = sgd_step(params, grads, velocity, epoch, cfg)
            epoch_losses.append(loss)
            triples_seen += len(triples)
            active.update(activity)
            for name, g in grads.items():
                flat = g.ravel()
                norm_sums[name] += math.sqrt(float(np.dot(flat, flat)))
        history.append({
            "epoch": epoch,
            "lr": lr,
            "mean_loss": float(np.mean(epoch_losses)),
            "active_intra": active["intra"] / triples_seen,
            "active_inter": active["inter"] / triples_seen,
            "grad_norm": {name: s / steps_per_epoch for name, s in norm_sums.items()},
            "wall_time_s": time.perf_counter() - started,
        })
    params.validate()
    return params, history


# ---------------------------------------------------------------------------
# Re-ranker fine-tuning
# ---------------------------------------------------------------------------


def exponential_rank_weights(ranks: np.ndarray, rate: float) -> np.ndarray:
    """Normalized sampling weights exp(-rate * rank) over an array of ranks.

    Computed with the best rank shifted to zero so huge rates stay finite;
    the shift cancels in the normalization.
    """
    ranks = np.asarray(ranks, dtype=np.float64)
    if ranks.size == 0:
        raise ValueError("need at least one rank")
    w = np.exp(-rate * (ranks - ranks.min()))
    return w / w.sum()


def make_rank_sampler(
    dataset: TrainDataset,
    retrieved: dict[str, list[Moment]],
    rank_rate: float,
):
    """Inter-negative sampler drawing from each query's retrieved list.

    Eligible moments come from videos other than the query's ground-truth
    video; weights decay exponentially in the original retrieval rank.
    Queries with no eligible retrieved moment fall back to corpus-uniform
    sampling (the sampler returns None).
    """
    eligible: list[tuple[list[Moment], np.ndarray]] = []
    for q in dataset.queries:
        ranked = retrieved.get(q.query_id, [])
        keep = [(rank, m) for rank, m in enumerate(ranked, start=1)
                if m.video_id != q.ground_truth.video_id]
        if keep:
            eligible.append(([m for _, m in keep],
                             exponential_rank_weights([r for r, _ in keep], rank_rate)))
        else:
            eligible.append(([], np.zeros(0)))

    def sampler(query_index: int, rng: np.random.Generator) -> Optional[Moment]:
        moments, weights = eligible[query_index]
        if not moments:
            return None
        return moments[int(rng.choice(len(moments), p=weights))]

    return sampler


def retrain_reranker(
    base_params: ModelParams,
    retrieved: dict[str, list[Moment]],
    dataset: TrainDataset,
    cfg: TrainConfig,
    rank_rate: float = 0.02,
) -> tuple[ModelParams, list[dict]]:
    """Fine-tune from the base model, biasing inter negatives toward
    highly-ranked retrievals."""
    sampler = make_rank_sampler(dataset, retrieved, rank_rate)
    return train(dataset, cfg, base_params=base_params, inter_sampler=sampler)
