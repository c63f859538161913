"""Workload definitions and the measured runs of the momentsearch benchmark.

Every workload drives the product code path through the package's public
functions, with inputs generated from the workload seed by fixtures.py in
another process. Operations run in a closed loop with one client and no
worker threads.

Timing. The host's speed drifts in phases, by up to about 1.7x: short
ones of under a second to tens of seconds, uncorrelated between CPUs, and
episodes of minutes that slow both CPUs. A run therefore replays the same
operations in passes spread over the run, with consecutive passes pinned
to different CPUs. Each sample is read as its operation's cost times the
host's momentary slowness: an operation's cost relative to the others is
its median over the passes, and the host's fastest speed is a low
percentile of every sample's ratio to its operation's median, pooled over
all operations and passes. The reported latencies are the operations'
medians scaled to that speed. The first pass is time-boxed and fixes which
operations the later passes replay.
"""

from __future__ import annotations

import math
import os
import resource
import time
from dataclasses import dataclass, field

import numpy as np

import momentsearch.dataio as dataio
import momentsearch.index as index_mod
import momentsearch.model as model
import momentsearch.retrieval as retrieval
import momentsearch.training as training
from momentsearch.bench import BenchConfig
from momentsearch.enumeration import DatasetPreset, EnumConfig, get_preset

from tracer import ZERO_SPAN, Tracer, add, delta

clock = time.perf_counter

PASSES = 8  # replays per operation
# Percentile of the pooled sample-to-median ratios read as the host's
# fastest speed (see fast_times).
FAST_PERCENTILE = 2.0
# Variation of the host's CPU speed stays under 2x; a replay this much
# faster than the first pass points to a cache of per-operation results.
REPLAY_SPEEDUP_FLAG = 4.0

DIDEMO_DIMS = dict(visual_in=64, word_in=32, hidden_mlp=128, embed=64, hidden_lstm=64)
BENCH_DIMS = dict(visual_in=32, word_in=8, hidden_mlp=64, embed=48, hidden_lstm=16)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "exhaustive", "approx" or "train"
    preset: str
    corpus: dict  # SyntheticSpec fields except the seed
    toy_corpus: dict
    dims: dict
    min_ops: int  # smallest first pass; also the fixed sample for counts and checks
    toy_min_ops: int
    predictions: tuple = field(default=())  # (per-layer metric, the figure it should move)

    def preset_obj(self) -> DatasetPreset:
        return BenchConfig().preset() if self.preset == "bench" else get_preset(self.preset)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="didemo-exhaustive", kind="exhaustive", preset="didemo",
        corpus=dict(num_videos=200, clips_per_video=12, visual_dim=64, word_dim=32),
        toy_corpus=dict(num_videos=12, clips_per_video=12, visual_dim=64, word_dim=32),
        dims=DIDEMO_DIMS, min_ops=30, toy_min_ops=4,
        predictions=(
            ("model.embed_clips_ms", "op_p50_ms"), ("enumeration.enumerate_ms", "op_p50_ms"),
            ("costs.score_ms", "op_p50_ms"), ("retrieval.nms_ms", "op_p50_ms"),
            ("retrieval.self_ms", "op_p50_ms"), ("model.embed_query_ms", "op_p50_ms"),
            ("dataio.load_corpus_s", "setup_s"), ("dataio.read_checkpoint_s", "setup_s"),
        ),
    ),
    Workload(
        name="bench10k-approx", kind="approx", preset="bench",
        corpus=dict(num_videos=10_000, clips_per_video=20, visual_dim=32, word_dim=8,
                    queries_per_video=1, annotations_per_query=1),
        toy_corpus=dict(num_videos=150, clips_per_video=20, visual_dim=32, word_dim=8,
                        queries_per_video=1, annotations_per_query=1),
        dims=BENCH_DIMS, min_ops=12, toy_min_ops=4,
        predictions=(
            ("enumeration.enumerate_ms", "op_p50_ms"), ("retrieval.nms_ms", "op_p50_ms"),
            ("retrieval.self_ms", "op_p50_ms"), ("costs.score_ms", "op_p50_ms"),
            ("index.search_ms", "op_p50_ms"), ("index.partition_max_over_mean", "op_p75_ms"),
            ("index.clip_matrix_s", "index.build_s"), ("index.kmeans_s", "index.build_s"),
            ("index.save_s", "index.build_s"), ("index.load_s", "setup_s"),
            ("dataio.load_corpus_s", "setup_s"),
        ),
    ),
    Workload(
        name="didemo-train", kind="train", preset="didemo",
        corpus=dict(num_videos=200, clips_per_video=12, visual_dim=64, word_dim=32),
        toy_corpus=dict(num_videos=40, clips_per_video=12, visual_dim=64, word_dim=32),
        dims=DIDEMO_DIMS, min_ops=45, toy_min_ops=3,
        predictions=(
            ("model.assemble_inputs_ms", "op_p50_ms"), ("model.mlp_forward_ms", "op_p50_ms"),
            ("model.lstm_forward_ms", "op_p50_ms"), ("training.sample_ms", "op_p50_ms"),
            ("training.loss_and_grads_ms", "op_p50_ms"), ("training.sgd_step_ms", "op_p50_ms"),
            ("training.dataset_s", "setup_s"), ("dataio.load_corpus_s", "setup_s"),
        ),
    ),
)}


def train_config(seed: int, epochs: int, batch_triples: int) -> training.TrainConfig:
    """The planted-signal training recipe (cal variant)."""
    return training.TrainConfig(
        lr0=5e-4, margin=3.0, inter_weight=1.0, momentum=0.9, epochs=epochs,
        batch_triples=batch_triples, lr_decay_every=100,
        intra_iou_exclusion=get_preset("didemo").intra_iou_exclusion, seed=seed, variant="cal")


def retrieval_config(w: Workload) -> retrieval.RetrievalConfig:
    nms_iou = w.preset_obj().nms_iou
    if w.kind == "approx":
        return retrieval.RetrievalConfig(variant="cal", clip_budget=200, nprobe=8,
                                         nms_iou=nms_iou, top_k=100)
    return retrieval.RetrievalConfig(variant="cal", nms_iou=nms_iou, top_k=100)


def local_candidates(num_clips: int, enum: EnumConfig) -> list[tuple[int, int]]:
    """Candidate (first, last) clip pairs under a fixed-stride grid, computed
    without the package's enumeration code."""
    stride = max(1, int(math.floor(enum.stride_seconds / enum.clip_length + 0.5)))
    out = []
    for length in range(enum.min_moment_clips, min(enum.max_moment_clips, num_clips) + 1,
                        enum.length_step_clips):
        out.extend((f, f + length - 1) for f in range(0, num_clips - length + 1, stride))
    return sorted(out)


def fixture_paths(root: str) -> dict[str, str]:
    corpus = os.path.join(root, "corpus")
    return {"corpus": corpus, "queries": os.path.join(corpus, "queries.jsonl"),
            "ckpt": os.path.join(root, "model.calw"), "index": os.path.join(root, "clips.calx"),
            "meta": os.path.join(root, "meta.json")}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """Failure accounting plus the values one run reports."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.values: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.samples: dict[str, int] = {}

    def fail(self, what: str, n: int = 1) -> None:
        self.failed += n
        if len(self.problems) < 20:
            self.problems.append(what)


def _signature(result) -> tuple:
    return tuple((s.moment.video_id, s.moment.first_clip, s.moment.last_clip, s.cost)
                 for s in result.ranked)


def fast_times(times: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-operation times at the fastest host speed seen in the run.

    ``times`` is passes x operations in seconds, NaN where an operation
    failed. A sample is its operation's cost times the host's slowness at
    that moment. Fast moments are rare in a slow phase, so few of one
    operation's own samples catch one; pooling the ratios of all samples
    to their operations' medians finds the fast speed from every sample.
    Returns the operations' medians scaled by that ratio, and the ratio.
    """
    typical = np.nanmedian(times, axis=0)
    ratios = (times / typical)[np.isfinite(times)]
    factor = float(np.percentile(ratios, FAST_PERCENTILE))
    return typical * factor, factor


def _percentiles(times: np.ndarray, run: Run) -> np.ndarray:
    """Latency percentiles over per-operation times at the host's fastest
    speed; returns those times (seconds)."""
    best, factor = fast_times(times)
    run.values["op_p50_ms"] = float(np.percentile(best, 50)) * 1e3
    run.values["op_p75_ms"] = float(np.percentile(best, 75)) * 1e3
    run.values["fast_ratio"] = factor
    run.samples["op_p50_ms"] = run.samples["op_p75_ms"] = int(np.isfinite(times).sum())
    run.samples["operations"] = times.shape[1]
    return best


# ---------------------------------------------------------------------------
# Search workloads
# ---------------------------------------------------------------------------


def run_search(w: Workload, fx: dict, seed: int, seconds: float, trace: bool, toy: bool,
               cpus: list[int]) -> Run:
    run = Run()
    preset = w.preset_obj()
    rcfg = retrieval_config(w)
    min_ops = w.toy_min_ops if toy else w.min_ops
    tracer = Tracer() if trace else None
    approx = w.kind == "approx"

    if approx:
        # The index build is the write half of the workload. It runs once,
        # before the set-up rounds, and is reported as index.build_s only.
        corpus = dataio.load_corpus(fx["corpus"])
        params, _ = dataio.read_checkpoint(fx["ckpt"])
        if tracer:
            tracer.install()
        start = clock()
        built = index_mod.build_ivf(corpus, params, seed=seed, kmeans_iters=10)
        save_start = clock()
        index_mod.save_index(built, fx["index"])
        run.values["index.save_s"] = clock() - save_start
        run.values["index.build_s"] = clock() - start
        if tracer:
            tracer.uninstall()
            stats = tracer.snapshot()
            for metric, (stat, name) in BUILD_TRACE_METRICS.items():
                row = stats.get(name, ZERO_SPAN)
                run.values[metric] = row[2 if stat == "self" else 1]
        sizes = np.diff(built.offsets.astype(np.int64))
        run.counts["index.partitions"] = int(sizes.shape[0])
        run.counts["index.partition_max"] = int(sizes.max())
        run.counts["index.partition_max_over_mean"] = float(sizes.max() / sizes.mean())
        run.counts["index.partition_sizes_crc"] = int(dataio.stable_u32(",".join(map(str, sizes))))
        run.values["index.bytes_per_clip"] = os.path.getsize(fx["index"]) / built.num_entries
        del corpus, params, built

    # Set-up: load everything and answer the first query. A round runs
    # before every timed pass, so the set-up samples are spread over the run
    # and over the CPUs the passes are pinned to.
    setups, loads, ckpts, index_loads = [], [], [], []
    corpus = queries = params = index = None
    order: list[int] = []

    def search(q):
        if approx:
            return retrieval.two_stage_search(corpus, index, q, params, None, preset.enum, rcfg,
                                              mode="approx")
        return retrieval.exhaustive_search(corpus, q, params, preset.enum, rcfg)

    def setup_round():
        nonlocal corpus, queries, params, index
        corpus = queries = params = index = None
        start = clock()
        corpus = dataio.load_corpus(fx["corpus"])
        loads.append(clock() - start)
        queries = dataio.load_queries(fx["queries"], fx["corpus"])
        t = clock()
        params, _ = dataio.read_checkpoint(fx["ckpt"])
        ckpts.append(clock() - t)
        if approx:
            t = clock()
            index = index_mod.load_index(fx["index"], tuple(v.video_id for v in corpus.videos))
            index_loads.append(clock() - t)
        if not order:
            order.extend(int(i) for i in np.random.default_rng(seed).permutation(len(queries)))
        run.attempted += 1
        try:
            search(queries[order[0]])
        except Exception as e:  # noqa: BLE001 - a failed operation is counted, not fatal
            run.fail(f"first query: {e!r}")
        setups.append(clock() - start)

    def op_query(i: int):
        return queries[order[1 + i % (len(order) - 1)]]  # order[0] is answered in set-up

    # Timed passes. Untraced passes give the end-to-end figures; in a traced
    # run, traced passes alternate with untraced ones.
    kinds = [trace and p % 2 == 1 for p in range(PASSES)]
    budget = seconds / len(kinds)
    times = {False: [], True: []}
    op_spans: list[list[dict]] = []  # per traced pass, per operation
    first_results: list = []
    n_ops = 0
    phase_start = clock()
    for p, traced in enumerate(kinds):
        # Consecutive passes run on different CPUs, whose slow phases are independent.
        os.sched_setaffinity(0, {cpus[p % len(cpus)]})
        setup_round()
        # Later passes visit the operations in a fresh order, so that an
        # operation's samples fall at different points of the host's phases.
        visit = list(range(n_ops)) if p else []
        if p:
            np.random.default_rng([seed, p]).shuffle(visit)
        if traced:
            tracer.install()
            before = tracer.snapshot()
        pass_times = [math.nan] * n_ops
        pass_spans = [None] * n_ops
        pass_start = clock()
        k = 0
        while (k < n_ops) if p else (k < min_ops or clock() - pass_start < budget):
            i = visit[k] if p else k
            q = op_query(i)
            run.attempted += 1
            t = clock()
            try:
                result = search(q)
            except Exception as e:  # noqa: BLE001
                run.fail(f"query {q.query_id}: {e!r}")
                result, elapsed = None, math.nan
            else:
                elapsed = clock() - t
            if p:
                pass_times[i] = elapsed
            else:
                pass_times.append(elapsed)
            if p == 0:
                first_results.append(result)
            elif result is not None and first_results[i] is not None and \
                    _signature(result) != _signature(first_results[i]):
                run.fail(f"query {q.query_id}: result differs between passes")
            if traced:
                after = tracer.snapshot()
                pass_spans[i] = delta(after, before)
                before = after
            k += 1
        if p == 0:
            n_ops = k
        if traced:
            tracer.uninstall()
            op_spans.append(pass_spans)
        times[traced].append(pass_times)
    phase_s = clock() - phase_start

    untraced = np.asarray(times[False])
    if not np.isfinite(untraced).any(axis=0).all():
        raise RuntimeError("an operation failed in every pass; no latency to report")
    best = _percentiles(untraced, run)
    run.values["pass_p50_ms"] = [round(float(np.nanmedian(t)) * 1e3, 3) for t in untraced]
    # Replays of the same queries would hide a cache of per-query results.
    speedup = untraced[0] / np.nanmin(untraced[1:], axis=0)
    run.values["replay_speedup_max"] = float(np.nanmax(speedup))
    if run.values["replay_speedup_max"] > REPLAY_SPEEDUP_FLAG:
        run.problems.append(
            f"an operation ran {run.values['replay_speedup_max']:.1f}x faster on replay than in "
            "the first pass: a result cache would make op_* figures unrepresentative")
    done = np.isfinite(untraced)
    run.values["ops_per_s"] = float(done.sum() / untraced.sum(where=done))
    run.values["timed_phase_s"] = phase_s
    run.samples["passes"] = len(kinds)
    run.values["setup_s"] = float(np.median(setups))
    run.values["setup_rounds_s"] = [round(t, 4) for t in setups]
    run.values["dataio.load_corpus_s"] = float(np.median(loads))
    run.values["dataio.read_checkpoint_s"] = float(np.median(ckpts))
    if approx:
        run.values["index.load_s"] = float(np.median(index_loads))
    run.samples["setup_s"] = len(setups)

    # Deterministic counts over the fixed sample of the first pass.
    sample = [r for r in first_results[:min_ops] if r is not None]
    if sample:
        for key in sorted({k for r in sample for k in r.stage_counters}):
            run.counts[f"result.{key}"] = float(np.mean([r.stage_counters.get(key, 0)
                                                         for r in sample]))
    checker = ReferenceCheck(w, corpus, params, index, rcfg, preset)
    checked = set()
    for i in range(min(min_ops, n_ops)):
        q = op_query(i)
        if first_results[i] is None or q.query_id in checked:
            continue
        checked.add(q.query_id)
        problem = checker.check(q, first_results[i])
        if problem:
            run.fail(f"query {q.query_id}: {problem}")
    run.samples["checked_queries"] = len(checked)
    if approx:
        run.counts["index.ann_recall"] = checker.mean_recall()

    if trace:
        # Per operation, the span breakdown of its fastest traced pass.
        traced_times = np.asarray(times[True])
        fastest = np.argmin(np.where(np.isfinite(traced_times), traced_times, np.inf), axis=0)
        spans: dict = {}
        count_spans: dict = {}
        for i, p in enumerate(fastest):
            add(spans, op_spans[p][i])
            if i < min_ops:
                add(count_spans, op_spans[p][i])
        chosen = traced_times[fastest, np.arange(n_ops)]
        run.values["trace.overhead_share"] = float(
            np.median(fast_times(traced_times)[0]) / np.median(best) - 1.0)
        run.values["trace.accounted_share"] = float(
            sum(row[2] for row in spans.values()) / chosen.sum())
        layer_metrics(run, spans, n_ops, count_spans, min(min_ops, n_ops), w.kind)
        run.values["absent"] = sorted(set(METRIC_ANCHORS) - set(tracer.wrapped))
    run.values["peak_rss_mb"] = peak_rss_mb()
    return run


class ReferenceCheck:
    """Checks ranked lists against a reference computed in the benchmark."""

    def __init__(self, w, corpus, params, index, rcfg, preset):
        self.w, self.corpus, self.params, self.index = w, corpus, params, index
        self.rcfg, self.enum = rcfg, preset.enum
        self.recalls: list[float] = []
        self._emb: dict[str, np.ndarray] = {}
        self._exact = None
        if index is not None:
            self._exact = index_mod.ClipIndex(index.video_ids, index.keys, index.vectors)

    def clip_embeddings(self, video_id: str) -> np.ndarray:
        emb = self._emb.get(video_id)
        if emb is None:
            feats = self.corpus.features_for(video_id)
            emb = model.embed_clips(feats, model.compute_context(feats), None, self.params)
            self._emb[video_id] = emb
        return emb

    def cost(self, q_emb, video_id: str, first: int, last: int) -> float:
        d = self.clip_embeddings(video_id)[first:last + 1] - q_emb
        return float(np.mean(np.einsum("ij,ij->i", d, d)))

    def check(self, query, result) -> str:
        q_emb = model.embed_query(query.word_vectors, self.params)
        got = [(s.cost, s.moment.video_id, s.moment.first_clip, s.moment.last_clip)
               for s in result.ranked]
        if got != sorted(got):
            return "ranked list breaks the (cost, video_id, first, last) order"
        for cost, vid, f, l in got:
            ref = self.cost(q_emb, vid, f, l)
            if not math.isclose(cost, ref, rel_tol=1e-9, abs_tol=1e-9):
                return f"cost of {vid}[{f},{l}] is {cost!r}, reference {ref!r}"
        if self.w.kind == "exhaustive":
            return self._check_exhaustive(q_emb, got)
        return self._check_approx(q_emb, got)

    def _check_exhaustive(self, q_emb, got) -> str:
        ref = []
        for video in self.corpus.videos:
            emb = self.clip_embeddings(video.video_id) - q_emb
            d = np.einsum("ij,ij->i", emb, emb)
            ref.extend((float(np.mean(d[f:l + 1])), video.video_id, f, l)
                       for f, l in local_candidates(video.num_clips, self.enum))
        ref.sort()
        ref = ref[:self.rcfg.top_k]
        if len(ref) != len(got):
            return f"{len(got)} results, reference has {len(ref)}"
        for r, g in zip(ref, got):
            # Prefix sums and direct means may order near-ties differently.
            if r[1:] != g[1:] and not math.isclose(r[0], g[0], rel_tol=1e-9, abs_tol=1e-9):
                return f"rank differs from reference: {g[1:]} where {r[1:]} expected"
        return ""

    def _check_approx(self, q_emb, got) -> str:
        hits, _ = self.index.search(q_emb, top_c=self.rcfg.clip_budget, nprobe=self.rcfg.nprobe)
        exact, _ = self._exact.search(q_emb, top_c=self.rcfg.clip_budget)
        keys = {(h.video_id, h.clip_idx) for h in hits}
        self.recalls.append(len(keys & {(h.video_id, h.clip_idx) for h in exact})
                            / self.rcfg.clip_budget)
        retrieved: dict[str, set] = {}
        for vid, clip in keys:
            retrieved.setdefault(vid, set()).add(clip)
        kept: dict[str, list] = {}
        for _, vid, f, l in got:
            video = self.corpus.video(vid)
            if vid not in retrieved:
                return f"{vid} holds no retrieved clip"
            if (f, l) not in set(local_candidates(video.num_clips, self.enum)):
                return f"{vid}[{f},{l}] is not an enumerated candidate"
            if not any(f <= c <= l for c in retrieved[vid]):
                return f"{vid}[{f},{l}] contains no retrieved clip"
            span = (f * video.clip_length, min((l + 1) * video.clip_length, video.duration))
            for other in kept.setdefault(vid, []):
                inter = min(span[1], other[1]) - max(span[0], other[0])
                union = max(span[1], other[1]) - min(span[0], other[0])
                if inter > 0 and inter / union > self.rcfg.nms_iou:
                    return f"{vid}: kept moments overlap above IoU {self.rcfg.nms_iou}"
            kept[vid].append(span)
        return ""

    def mean_recall(self) -> float:
        return float(np.mean(self.recalls)) if self.recalls else 0.0


# ---------------------------------------------------------------------------
# Training workload
# ---------------------------------------------------------------------------


def run_train(w: Workload, fx: dict, seed: int, seconds: float, trace: bool, toy: bool,
              cpus: list[int]) -> Run:
    """Each pass loads the inputs, builds the dataset and calls train(); its
    epoch 0 (which also builds the lazy negative pools) is set-up, the other
    epochs are the timed operations. Identical calls must give identical
    losses."""
    run = Run()
    preset = w.preset_obj()
    min_epochs = (w.toy_min_ops if toy else w.min_ops) + 1
    batch = 8 if toy else 64
    tracer = Tracer() if trace else None
    setups, loads, ckpts, datasets = [], [], [], []

    def train_pass(epochs: int, traced: bool):
        start = clock()
        corpus = dataio.load_corpus(fx["corpus"])
        loads.append(clock() - start)
        queries = dataio.load_queries(fx["queries"], fx["corpus"])
        t = clock()
        params, _ = dataio.read_checkpoint(fx["ckpt"])
        ckpts.append(clock() - t)
        t = clock()
        dataset = training.TrainDataset(corpus, queries, preset.enum)
        datasets.append(clock() - t)
        before_train = clock() - start
        run.attempted += epochs
        if traced:
            tracer.install()
            before = tracer.snapshot()
        t = clock()
        try:
            _, history = training.train(dataset, train_config(seed, epochs, batch),
                                        base_params=params)
        except Exception as e:  # noqa: BLE001 - a failed operation is counted, not fatal
            run.fail(f"train call: {e!r}", epochs)
            return None, None, None
        finally:
            if traced:
                tracer.uninstall()
        elapsed = clock() - t
        setups.append(before_train + history[0]["wall_time_s"])
        summed = sum(h["wall_time_s"] for h in history)
        if not (summed <= elapsed and elapsed - summed <= 0.05 * elapsed + 0.05):
            run.fail(f"epoch wall times sum to {summed:.4f} s, the call took {elapsed:.4f} s")
        spans = delta(tracer.snapshot(), before) if traced else None
        return history, elapsed, spans

    # A short first pass sizes the timed passes; it counts as set-up only.
    probe, _, _ = train_pass(4, False)
    if probe is None:
        raise RuntimeError("training failed in set-up")
    epoch_s = float(np.median([h["wall_time_s"] for h in probe[1:]]))
    kinds = [trace and p % 2 == 1 for p in range(PASSES)]
    epochs = max(min_epochs, 1 + int(seconds / len(kinds) / max(epoch_s, 1e-6)))
    passes = {False: [], True: []}
    phase_start = clock()
    for p, traced in enumerate(kinds):
        os.sched_setaffinity(0, {cpus[p % len(cpus)]})
        history, elapsed, spans = train_pass(epochs, traced)
        if history is not None:
            passes[traced].append((history, elapsed, spans))
    run.values["timed_phase_s"] = clock() - phase_start
    if not passes[False]:
        raise RuntimeError("every timed training call failed")

    histories = [h for h, _, _ in passes[False] + passes[True]]
    reference = [h["mean_loss"] for h in histories[0]]
    for history in [probe] + histories[1:]:
        losses = [h["mean_loss"] for h in history]
        if losses != reference[:len(losses)]:
            run.fail("epoch losses differ between identical training calls",
                     sum(a != b for a, b in zip(losses, reference)))
    bad = [e for e, loss in enumerate(reference) if not math.isfinite(loss)]
    if bad:
        run.fail(f"non-finite loss in epochs {bad[:5]}", len(bad))

    walls = np.asarray([[h["wall_time_s"] for h in hist[1:]] for hist, _, _ in passes[False]])
    best = _percentiles(walls, run)
    run.values["pass_p50_ms"] = [round(float(np.median(t)) * 1e3, 3) for t in walls]
    run.values["ops_per_s"] = float(walls.size / walls.sum())
    run.values["setup_s"] = float(np.median(setups))
    run.values["setup_rounds_s"] = [round(t, 4) for t in setups]
    run.values["dataio.load_corpus_s"] = float(np.median(loads))
    run.values["dataio.read_checkpoint_s"] = float(np.median(ckpts))
    run.values["training.dataset_s"] = float(np.median(datasets))
    run.samples.update(setup_s=len(setups), passes=len(kinds), epochs_per_call=epochs)
    run.counts["training.final_loss"] = reference[min_epochs - 1]

    if trace:
        traced_walls = np.asarray([[h["wall_time_s"] for h in hist[1:]]
                                   for hist, _, _ in passes[True]])
        run.values["trace.overhead_share"] = float(
            np.median(fast_times(traced_walls)[0]) / np.median(best) - 1.0)
        # The span breakdown of the fastest traced call.
        _, elapsed, spans = min(passes[True], key=lambda p: p[1])
        run.values["trace.accounted_share"] = float(
            sum(row[2] for row in spans.values()) / elapsed)
        layer_metrics(run, spans, epochs, spans, epochs, "train")
        run.values["absent"] = sorted(set(METRIC_ANCHORS) - set(tracer.wrapped))
    run.values["peak_rss_mb"] = peak_rss_mb()
    return run


# ---------------------------------------------------------------------------
# Per-layer metrics from the trace
# ---------------------------------------------------------------------------

# metric -> (statistic, traced functions). Statistics: "self" sums self
# time, "incl" inclusive time, "calls" call counts, "out" result sizes,
# "kept" result size over argument size; a trailing "*" matches a prefix.
# Times are per operation (query or epoch); counts are per operation over
# the fixed sample of the first min_ops operations.
TRACE_METRICS = {
    "model.embed_query_ms": ("incl", ("model.embed_query",)),
    "model.embed_clips_ms": ("incl", ("model.embed_clips",)),
    "model.embed_clips_calls": ("calls", ("model.embed_clips",)),
    "model.assemble_inputs_ms": ("self", ("model.assemble_visual_inputs",)),
    "model.assemble_inputs_calls": ("calls", ("model.assemble_visual_inputs",)),
    "model.mlp_forward_ms": ("self", ("model.mlp_forward",)),
    "model.lstm_forward_ms": ("incl", ("model.lstm_forward_batch",)),
    "enumeration.enumerate_ms": ("incl", ("enumeration.enumerate_moments",)),
    "enumeration.calls_per_query": ("calls", ("enumeration.enumerate_moments",)),
    "enumeration.moments_per_query": ("out", ("enumeration.enumerate_moments",)),
    "costs.score_ms": ("self", ("costs.*",)),
    "costs.moments_scored_per_query": ("out", ("costs.score_moments",)),
    "retrieval.nms_ms": ("self", ("retrieval.nms",)),
    "retrieval.nms_kept_share": ("kept", ("retrieval.nms",)),
    "retrieval.self_ms": ("self", ("retrieval.exhaustive_search", "retrieval.two_stage_search")),
    "retrieval.videos_touched_per_query": ("calls", ("costs.score_moments",)),
    "index.search_ms": ("incl", ("index.IvfIndex.search", "index.ClipIndex.search")),
    "training.sample_ms": ("incl", ("training.sample_triples",)),
    "training.loss_and_grads_ms": ("self", ("training.loss_and_grads",)),
    "training.sgd_step_ms": ("incl", ("training.sgd_step",)),
}
# Per-layer metrics of the one index build: (statistic, traced function).
BUILD_TRACE_METRICS = {
    "index.clip_matrix_s": ("incl", "index.corpus_clip_matrix"),
    "index.kmeans_s": ("self", "index.build_ivf"),
}
METRIC_ANCHORS = sorted({name for _, names in TRACE_METRICS.values()
                         for name in names if not name.endswith("*")}
                        | {name for _, name in BUILD_TRACE_METRICS.values()})

# Per-layer metrics taken from the products' own counters and artifacts.
RESULT_COUNTS = {
    "exhaustive": {"costs.distance_evals_per_query": "result.stage1_distances",
                   "retrieval.candidates_per_query": "result.stage1_moments"},
    "approx": {"costs.distance_evals_per_query": "result.stage2_distances",
               "retrieval.candidates_per_query": "result.stage2_moments",
               "index.distance_evals_per_query": "result.stage1_distances",
               "index.centroid_evals_per_query": "result.stage1_centroid_distances"},
}


def _select(stats: dict, names: tuple) -> list[tuple]:
    out = []
    for name in names:
        if name.endswith("*"):
            out.extend(v for k, v in stats.items() if k.startswith(name[:-1]))
        elif name in stats:
            out.append(stats[name])
    return out


def layer_metrics(run: Run, stats: dict, n_ops: int, count_stats: dict, n_count_ops: int,
                  kind: str) -> None:
    """Fill per-layer values from aggregated spans (calls, incl, self, in, out)."""
    for metric, (stat, names) in TRACE_METRICS.items():
        if stat in ("self", "incl"):
            col = 2 if stat == "self" else 1
            value = sum(s[col] for s in _select(stats, names)) * 1e3 / max(n_ops, 1)
        elif stat == "kept":
            sel = _select(count_stats, names)
            items_in = sum(s[3] for s in sel)
            value = sum(s[4] for s in sel) / items_in if items_in else 0.0
        else:
            col = 0 if stat == "calls" else 4
            value = sum(s[col] for s in _select(count_stats, names)) / max(n_count_ops, 1)
        run.values[metric] = value
    for metric, source in RESULT_COUNTS.get(kind, {}).items():
        run.values[metric] = run.counts.get(source, 0.0)


def run_workload(w: Workload, fx: dict, seed: int, seconds: float, trace: bool,
                 toy: bool) -> Run:
    runner = run_train if w.kind == "train" else run_search
    cpus = sorted(os.sched_getaffinity(0))
    try:
        return runner(w, fx, seed, seconds, trace, toy, cpus)
    finally:
        os.sched_setaffinity(0, cpus)
