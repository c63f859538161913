"""Run-time, operation-count, and index-size accounting.

Compares three retrieval routes on one synthetic corpus:

* clip-alignment, exhaustive ("cal"): times the product's
  `exhaustive_search`, which prices every candidate row of the corpus's
  candidate table (one distance per clip, then a padded prefix-sum
  gather) and selects from the rows that can place (`retrieval._select`).
  The build time covers the query-independent part of
  `exhaustive_search`, the corpus's candidate table and clip matrix, so
  the query times are steady-state, and the exact clip index, cast from
  that matrix when every video has candidates; the size is the exact
  index's.
* aggregate, exhaustive scan: one indexed entry and one distance per
  candidate span (all lengths 1..K), the cost of indexing pooled moment
  features. It times the distance pass and a top-200 selection.
* clip-alignment, approximate two-stage ("approx"): times the product's
  `two_stage_search(mode="approx")`, inverted-file clip retrieval followed
  by pricing and selection of the candidates of the touched videos.

Distance counts are deterministic and machine-independent; wall times,
one timer's (`time_search`) around each route's answer to each query, are
reported for context and never asserted. The desk-scale default corpus is
10,000 videos of 20 clips with a max moment of 14 clips; the 1M-video
figures in the report are arithmetic extrapolations from per-entry costs,
not executed runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import time
from dataclasses import asdict, dataclass

import numpy as np

from .costs import sq_distances
from .dataio import SyntheticSpec, generate_synthetic
from .enumeration import DatasetPreset, EnumConfig, aggregate_index_entries
from .index import build_exact, build_ivf, save_index
from .model import (
    ModelDims,
    assemble_visual_inputs,
    embed_query,
    init_params,
    mlp_forward,
)
from .retrieval import RetrievalConfig, candidate_table, exhaustive_search, two_stage_search

# Reported large-scale reference measurements (1M videos x 20 clips, max
# moment 14): recorded beside our arithmetic for context, never asserted.
REFERENCE_1M_INDEX_GB = {"aggregate": 63.3, "clip": 7.45}
METHODS = ("cal", "aggregate", "approx")


@dataclass
class BenchConfig:
    num_videos: int = 10_000
    clips_per_video: int = 20
    max_moment_clips: int = 14
    clip_length: float = 3.0
    visual_dim: int = 64
    word_dim: int = 32
    embed: int = 100
    hidden_mlp: int = 128
    hidden_lstm: int = 64
    n_queries: int = 5
    clip_budget: int = 200
    nprobe: int = 8
    kmeans_iters: int = 4
    seed: int = 0

    def __post_init__(self):
        # Refused before any corpus is generated or file written.
        for name, low in (("n_queries", 1), ("nprobe", 1), ("clip_budget", 1), ("kmeans_iters", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}, got {getattr(self, name)}")

    def enum_config(self) -> EnumConfig:
        return EnumConfig(
            clip_length=self.clip_length,
            max_moment_clips=self.max_moment_clips,
            stride_seconds=self.clip_length,  # stride of one clip: full enumeration
            min_moment_clips=2,
        )

    def preset(self) -> DatasetPreset:
        return DatasetPreset("bench", self.enum_config(), nms_iou=0.6,
                             min_judgments=1, intra_iou_exclusion=0.35)


def _git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def _config_hash(cfg: BenchConfig) -> str:
    blob = json.dumps(asdict(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


@dataclass
class MethodStats:
    build_s: float = 0.0
    index_bytes: int = 0
    entries: int = 0
    mean_query_s: float = 0.0
    p50_query_s: float = 0.0
    p90_query_s: float = 0.0
    distance_evals_per_query: int = 0


def _span_table(n: int, k_max: int):
    """All (first, last) spans of 1..k_max clips in an n-clip video."""
    firsts, lasts = [], []
    for length in range(1, min(k_max, n) + 1):
        for first in range(0, n - length + 1):
            firsts.append(first)
            lasts.append(first + length - 1)
    return np.asarray(firsts), np.asarray(lasts)


def run_bench(cfg: BenchConfig, workdir: str, methods=METHODS) -> dict:
    """Generate a corpus, run each method, and return the report mapping."""
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ValueError(f"unknown bench method(s) {', '.join(map(repr, unknown))}; "
                         f"expected some of {METHODS}")
    os.makedirs(workdir, exist_ok=True)
    corpus_dir = os.path.join(workdir, "bench_corpus")
    spec = SyntheticSpec(
        num_videos=cfg.num_videos,
        clips_per_video=cfg.clips_per_video,
        visual_dim=cfg.visual_dim,
        word_dim=cfg.word_dim,
        queries_per_video=1,
        signal_noise=0.1,
        seed=cfg.seed,
        annotations_per_query=1,
    )
    preset = cfg.preset()
    corpus, queries = generate_synthetic(spec, preset, corpus_dir)
    queries = queries[:cfg.n_queries]
    dims = ModelDims(cfg.visual_dim, cfg.word_dim, hidden_mlp=cfg.hidden_mlp,
                     embed=cfg.embed, hidden_lstm=cfg.hidden_lstm)
    params = init_params(dims, cfg.seed)

    n, k_max = cfg.clips_per_video, cfg.max_moment_clips
    entries_clip = n  # a clip index holds one entry per clip
    entries_agg = aggregate_index_entries(n, k_max, min_len=1)
    stats: dict[str, MethodStats] = {}

    def time_search(build_s, path, entries_per_video, answer) -> MethodStats:
        """A route's stats; `answer(i)` answers query i and returns its
        distance evaluations, and only that call is timed."""
        latencies = []
        evals = 0
        for i in range(len(queries)):
            t1 = time.perf_counter()
            evals += answer(i)
            latencies.append(time.perf_counter() - t1)
        return MethodStats(
            build_s=build_s, index_bytes=os.path.getsize(path),
            entries=entries_per_video * len(corpus.videos),
            mean_query_s=float(np.mean(latencies)),
            p50_query_s=float(np.percentile(latencies, 50)),
            p90_query_s=float(np.percentile(latencies, 90)),
            distance_evals_per_query=int(round(evals / len(queries))),
        )

    if "cal" in methods:
        t0 = time.perf_counter()
        # `exhaustive_search`'s query-independent part, so that the timed queries are alike.
        table = candidate_table(corpus, preset.enum)
        matrix = table.clip_embeddings(corpus, params)
        # With every video scored, the table's matrix holds every clip: embed once.
        exact = build_exact(corpus, params, matrix if len(table.scored) == len(corpus) else None)
        path = os.path.join(workdir, "bench_clip.calx")
        save_index(exact, path)
        build_s = time.perf_counter() - t0
        rcfg = RetrievalConfig(variant="cal", nms_iou=preset.nms_iou, top_k=100)
        stats["cal"] = time_search(
            build_s, path, entries_clip,
            lambda i: exhaustive_search(corpus, queries[i], params, preset.enum,
                                        rcfg).stage_counters["stage1_distances"])

    if "aggregate" in methods:
        # One embedded entry per span of 1..K clips, every video.
        firsts, lasts = _span_table(n, k_max)
        t0 = time.perf_counter()
        blocks = []
        for video, ctx in zip(corpus.videos, corpus.contexts):
            feats = corpus.features_for(video.video_id)
            fp = np.vstack([np.zeros(cfg.visual_dim), np.cumsum(feats, axis=0)])
            pooled = (fp[lasts + 1] - fp[firsts]) / (lasts - firsts + 1)[:, None]
            inputs = assemble_visual_inputs(pooled, ctx, None, dims)
            blocks.append(mlp_forward(inputs, params).astype(np.float32))
        agg_matrix = np.concatenate(blocks, axis=0)
        build_s = time.perf_counter() - t0
        agg_path = os.path.join(workdir, "bench_aggregate.bin")
        with open(agg_path, "wb") as f:
            f.write(agg_matrix.tobytes())
        query_embs = [embed_query(q.word_vectors, params).astype(np.float32) for q in queries]

        def scan(i):
            d = sq_distances(agg_matrix, query_embs[i])
            np.argpartition(d, min(200, d.shape[0] - 1))[:200]
            return agg_matrix.shape[0]

        stats["aggregate"] = time_search(build_s, agg_path, entries_agg, scan)

    if "approx" in methods:
        t0 = time.perf_counter()
        ivf = build_ivf(corpus, params, seed=cfg.seed, kmeans_iters=cfg.kmeans_iters)
        ivf_path = os.path.join(workdir, "bench_ivf.calx")
        save_index(ivf, ivf_path)
        build_s = time.perf_counter() - t0
        rcfg = RetrievalConfig(variant="cal", clip_budget=cfg.clip_budget, nprobe=cfg.nprobe,
                               nms_iou=preset.nms_iou, top_k=100)

        def approx(i):
            c = two_stage_search(corpus, ivf, queries[i], params, None, preset.enum, rcfg,
                                 mode="approx").stage_counters
            return (c["stage1_distances"] + c["stage1_centroid_distances"]
                    + c.get("stage2_distances", 0))

        stats["approx"] = time_search(build_s, ivf_path, entries_clip, approx)

    bytes_per_entry = cfg.embed * 4 + 8  # float32 payload + (ordinal, clip) key
    report: dict[str, object] = {
        "seed": cfg.seed,
        "config_hash": _config_hash(cfg),
        "git_revision": _git_revision(),
        "corpus.num_videos": cfg.num_videos,
        "corpus.clips_per_video": cfg.clips_per_video,
        "corpus.max_moment_clips": cfg.max_moment_clips,
        "embed_dim": cfg.embed,
        "entries_per_video.clip": entries_clip,
        "entries_per_video.aggregate": entries_agg,
        "entry_ratio.aggregate_over_clip": round(entries_agg / entries_clip, 6),
        "extrapolated_1m_videos.clip_index_gb": round(
            1_000_000 * entries_clip * bytes_per_entry / 1e9, 3),
        "extrapolated_1m_videos.aggregate_index_gb": round(
            1_000_000 * entries_agg * bytes_per_entry / 1e9, 3),
        "reference_1m_videos.clip_index_gb": REFERENCE_1M_INDEX_GB["clip"],
        "reference_1m_videos.aggregate_index_gb": REFERENCE_1M_INDEX_GB["aggregate"],
        "reference_1m_videos.ratio": round(
            REFERENCE_1M_INDEX_GB["aggregate"] / REFERENCE_1M_INDEX_GB["clip"], 6),
        "reference_note": "reported large-scale values recorded for context, not asserted",
        "n_queries": len(queries),
    }
    for name, s in stats.items():
        report[f"{name}.build_s"] = round(s.build_s, 6)
        report[f"{name}.index_bytes"] = s.index_bytes
        report[f"{name}.entries"] = s.entries
        report[f"{name}.mean_query_s"] = round(s.mean_query_s, 6)
        report[f"{name}.p50_query_s"] = round(s.p50_query_s, 6)
        report[f"{name}.p90_query_s"] = round(s.p90_query_s, 6)
        report[f"{name}.distance_evals_per_query"] = s.distance_evals_per_query

    return report

