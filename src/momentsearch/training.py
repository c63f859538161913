"""Triplet ranking training with hand-written reverse-mode gradients.

The loss over a batch of (positive, intra-negative, inter-negative)
triples is a sum of hinge ranking terms on alignment costs; gradients are
accumulated analytically through the visual MLP, the LSTM, the output
projection, the distance average, and the hinge. The hinge subgradient at
the kink is taken as 0, so fully satisfied margins step silently.

The loop is single-threaded and deterministic given the config seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import Moment, Query, clip_spans, span_ious
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
    """

    def __init__(self, corpus: Corpus, queries: list[Query], enum_cfg: EnumConfig):
        self.corpus = corpus
        self.enum_cfg = enum_cfg
        self.candidates: dict[str, list[Moment]] = {}
        self.candidate_keys: dict[str, dict[tuple[int, int], Moment]] = {}
        self._norm_endpoints: dict[str, np.ndarray] = {}
        self._contexts: dict[str, np.ndarray] = {}
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

    def context_for(self, video_id: str) -> np.ndarray:
        ctx = self._contexts.get(video_id)
        if ctx is None:
            ctx = compute_context(self.corpus.features_for(video_id))
            self._contexts[video_id] = ctx
        return ctx

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

    Each moment contributes its clip rows (one pooled row under "aggregate"),
    its video's context and, under TEF, its endpoints; one
    `assemble_visual_inputs` call builds every row of the batch.
    """
    moments = [m for t in triples for m in (t.positive, t.intra_negative, t.inter_negative)]
    rows, contexts, pairs = [], [], []
    for moment in moments:
        clip_rows = dataset.corpus.features_for(moment.video_id)[
            moment.first_clip:moment.last_clip + 1]
        rows.append(clip_rows.mean(axis=0)[None, :] if variant == "aggregate" else clip_rows)
        contexts.append(dataset.context_for(moment.video_id))
        if dims.use_tef:
            pairs.append(tef(moment, dataset.corpus.video(moment.video_id)))
    seg = np.repeat(np.arange(len(moments)), [len(r) for r in rows])
    x = assemble_visual_inputs(np.concatenate(rows), np.asarray(contexts)[seg],
                               np.asarray(pairs)[seg] if dims.use_tef else None, dims)
    z_counts = np.bincount(seg, minlength=3 * len(triples)).astype(np.float64)

    lengths = [dataset.queries[t.query_index].word_vectors.shape[0] for t in triples]
    t_max = max(lengths)
    words = np.zeros((len(triples), t_max, dims.word_in))
    mask = np.zeros((len(triples), t_max))
    for b_idx, triple in enumerate(triples):
        wv = np.asarray(dataset.queries[triple.query_index].word_vectors, dtype=np.float64)
        words[b_idx, :wv.shape[0]] = wv
        mask[b_idx, :wv.shape[0]] = 1.0
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
    h_dim = params.dims.hidden_lstm
    d_wx = np.zeros_like(params.lstm_wx)
    d_wh = np.zeros_like(params.lstm_wh)
    d_b = np.zeros_like(params.lstm_b)
    dh = d_ht.copy()
    dc = np.zeros_like(d_ht)
    for step in reversed(steps):
        m = step["m"]
        dh_new = m * dh
        dh_carry = (1.0 - m) * dh
        dc_new = m * dc + dh_new * step["o"] * (1.0 - step["tanh_c"] ** 2)
        do = dh_new * step["tanh_c"]
        dc_carry = (1.0 - m) * dc + dc_new * step["f"]
        di = dc_new * step["g"]
        df = dc_new * step["c_prev"]
        dg = dc_new * step["i"]
        d_alpha = np.concatenate([
            di * step["i"] * (1.0 - step["i"]),
            df * step["f"] * (1.0 - step["f"]),
            do * step["o"] * (1.0 - step["o"]),
            dg * (1.0 - step["g"] ** 2),
        ], axis=1)
        d_wx += d_alpha.T @ step["x"]
        d_wh += d_alpha.T @ step["h_prev"]
        d_b += d_alpha.sum(axis=0)
        dh = dh_carry + d_alpha @ params.lstm_wh
        dc = dc_carry
    assert dh.shape[1] == h_dim
    return d_wx, d_wh, d_b


def batch_loss(dataset: TrainDataset, triples: list[TrainingTriple],
               params: ModelParams, cfg: TrainConfig) -> float:
    """Eq-style batch loss only; used directly by finite-difference oracles."""
    x, seg, z, words, mask = _assemble_batch(dataset, triples, params.dims, cfg.variant)
    loss, _ = _forward(x, seg, z, words, mask, params, cfg, want_cache=False)
    return loss


def loss_and_grads(dataset: TrainDataset, triples: list[TrainingTriple],
                   params: ModelParams, cfg: TrainConfig):
    """Batch loss and exact gradients for every parameter tensor."""
    x, seg, z_counts, words, mask = _assemble_batch(dataset, triples, params.dims, cfg.variant)
    loss, cache = _forward(x, seg, z_counts, words, mask, params, cfg, want_cache=True)
    batch = cache["batch"]

    d_costs = np.zeros(3 * batch)
    intra_on = (cache["intra_hinge"] > 0).astype(np.float64)
    inter_on = (cache["inter_hinge"] > 0).astype(np.float64)
    d_costs[0::3] = intra_on + cfg.inter_weight * inter_on
    d_costs[1::3] = -intra_on
    d_costs[2::3] = -cfg.inter_weight * inter_on

    dd_rows = d_costs[cache["seg"]] / z_counts[cache["seg"]]
    d_rows = dd_rows[:, None] * 2.0 * cache["diff"]

    d_fq = np.zeros_like(cache["f_q"])
    np.add.at(d_fq, cache["row_triple"], -d_rows)

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
    """Full SGD loop; returns final parameters and a per-epoch loss log."""
    if (dims is None) == (base_params is None):
        raise ValueError("pass exactly one of dims / base_params")
    params = base_params.copy() if base_params is not None else init_params(dims, cfg.seed)
    velocity = {n: np.zeros_like(t) for n, t in params.tensors().items()}
    rng = np.random.default_rng(cfg.seed)
    steps_per_epoch = max(1, len(dataset.queries) // cfg.batch_triples)
    history = []
    for epoch in range(cfg.epochs):
        started = time.perf_counter()
        epoch_losses = []
        lr = cfg.lr0
        for _ in range(steps_per_epoch):
            triples = sample_triples(dataset, cfg, rng, inter_sampler=inter_sampler)
            loss, grads = loss_and_grads(dataset, triples, params, cfg)
            lr = sgd_step(params, grads, velocity, epoch, cfg)
            epoch_losses.append(loss)
        history.append({
            "epoch": epoch,
            "lr": lr,
            "mean_loss": float(np.mean(epoch_losses)),
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
