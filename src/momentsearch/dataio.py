"""File formats, corpus persistence, and the synthetic corpus generator.

Binary layouts are little-endian and versioned; every loader validates
magic bytes, consumes the file fully, and rejects non-finite payloads.
Exact byte layouts live in FORMATS.md at the repo root.
"""

from __future__ import annotations

import io
import json
import math
import os
import zlib
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import BinaryIO, Optional, Union

import numpy as np

from .core import GroundTruth, Query, TemporalSpan, VideoMeta, offsets
from .enumeration import DatasetPreset, candidate_clips, enumerate_moments
from .model import ModelDims, ModelParams

FEATURE_MAGIC = b"CALF"
CHECKPOINT_MAGIC = b"CALW"
FORMAT_VERSION = 1


class FormatError(ValueError):
    """A file failed structural validation; message carries the position."""


def stable_u32(text: str) -> int:
    """Platform-independent 32-bit hash used to derive per-item rng seeds."""
    return zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF


# ---------------------------------------------------------------------------
# Binary reading helpers, shared by every binary loader
# ---------------------------------------------------------------------------


def _read_exact(f: BinaryIO, n: int, what: str, path: str) -> bytes:
    """Read exactly `n` bytes. A length of more than one buffer is first
    compared with the bytes left in the file, so a corrupted size field is
    refused before that many bytes are requested."""
    if n > io.DEFAULT_BUFFER_SIZE and n > os.fstat(f.fileno()).st_size - f.tell():
        data = b""
    else:
        data = f.read(n)
    if len(data) != n:
        raise FormatError(f"{path}: truncated while reading {what} at byte "
                          f"{f.tell() - len(data)} ({n} bytes declared)")
    return data


def read_array(f: BinaryIO, dtype: str, count: int, what: str, path: str) -> np.ndarray:
    """Read `count` items of `dtype`; the byte length follows from the
    dtype's itemsize. The returned array is read-only."""
    dtype = np.dtype(dtype)
    return np.frombuffer(_read_exact(f, int(count) * dtype.itemsize, what, path), dtype)


def _decode(data: bytes, what: str, path: str) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: {what} is not UTF-8: {e}") from None


def expect_eof(f: BinaryIO, path: str) -> None:
    extra = f.read(1)
    if extra:
        raise FormatError(f"{path}: trailing bytes starting at {f.tell() - 1}")


def check_header(f: BinaryIO, magic: bytes, path: str) -> None:
    """Read and check a file's magic bytes and format version."""
    got = _read_exact(f, len(magic), "magic", path)
    if got != magic:
        raise FormatError(f"{path}: bad magic {got!r}, expected {magic!r}")
    version = int(read_array(f, "<u2", 1, "version", path)[0])
    if version != FORMAT_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")


# ---------------------------------------------------------------------------
# Feature files: float32 matrices
# ---------------------------------------------------------------------------


def write_features(path: str, matrix: np.ndarray) -> None:
    m = np.ascontiguousarray(np.asarray(matrix), dtype="<f4")
    if m.ndim != 2:
        raise ValueError(f"feature matrix must be 2-d, got shape {m.shape}")
    with open(path, "wb") as f:
        f.write(FEATURE_MAGIC)
        f.write(np.asarray([FORMAT_VERSION], "<u2").tobytes())
        f.write(np.asarray(m.shape, "<u4").tobytes())
        f.write(m.tobytes())


def read_features(path: str) -> np.ndarray:
    with open(path, "rb") as f:
        check_header(f, FEATURE_MAGIC, path)
        rows, dim = read_array(f, "<u4", 2, "shape", path).tolist()
        m = read_array(f, "<f4", rows * dim, "payload", path).reshape(rows, dim)
        expect_eof(f, path)
    if not np.all(np.isfinite(m)):
        bad = int(np.flatnonzero(~np.isfinite(m))[0])
        raise FormatError(f"{path}: non-finite value at element {bad}")
    return m.copy()


# ---------------------------------------------------------------------------
# Checkpoints: named float64 tensors plus a trailing config record
# ---------------------------------------------------------------------------


def write_checkpoint(path: str, params: ModelParams, meta: Optional[dict] = None) -> None:
    params.validate()
    tensors = params.tensors()
    config = {"dims": asdict(params.dims)}
    config.update(meta or {})
    blob = json.dumps(config, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(np.asarray([FORMAT_VERSION], "<u2").tobytes())
        f.write(np.asarray([len(tensors)], "<u4").tobytes())
        for name, tensor in tensors.items():
            t = np.ascontiguousarray(tensor, dtype="<f8")
            encoded = name.encode("utf-8")
            f.write(np.asarray([len(encoded)], "<u2").tobytes())
            f.write(encoded)
            f.write(np.asarray([t.ndim], "u1").tobytes())
            f.write(np.asarray(t.shape, "<u4").tobytes())
            f.write(t.tobytes())
        f.write(np.asarray([len(blob)], "<u4").tobytes())
        f.write(blob)


def read_checkpoint(path: str) -> tuple[ModelParams, dict]:
    with open(path, "rb") as f:
        check_header(f, CHECKPOINT_MAGIC, path)
        count = int(read_array(f, "<u4", 1, "tensor count", path)[0])
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            name_at = f.tell()
            name_len = int(read_array(f, "<u2", 1, "name length", path)[0])
            name = _decode(_read_exact(f, name_len, "tensor name", path), "tensor name", path)
            if name not in ModelParams.TENSOR_NAMES or name in tensors:
                raise FormatError(f"{path}: {'repeated' if name in tensors else 'unknown'} "
                                  f"tensor {name!r} at byte {name_at}")
            rank = int(read_array(f, "u1", 1, "rank", path)[0])
            shape_at = f.tell()
            shape = tuple(read_array(f, "<u4", rank, "dims", path).tolist())
            payload = read_array(f, "<f8", math.prod(shape), f"payload of {name}", path)
            try:
                tensors[name] = payload.reshape(shape).copy()
            except ValueError as e:  # e.g. a zero dim beside dims too large for numpy
                raise FormatError(
                    f"{path}: shape {shape} of {name} at byte {shape_at}: {e}") from None
        cfg_len = int(read_array(f, "<u4", 1, "config length", path)[0])
        config_at = f.tell()
        blob = _decode(_read_exact(f, cfg_len, "config", path), "config", path)
        expect_eof(f, path)
    try:
        config = json.loads(blob)
    except ValueError as e:
        raise FormatError(f"{path}: invalid config record at byte {config_at}: {e}") from None
    if not isinstance(config, dict) or not isinstance(config.get("dims"), dict):
        raise FormatError(f"{path}: config record at byte {config_at} must be a JSON object "
                          "with a 'dims' object")
    try:
        dims = ModelDims(**config.pop("dims"))
    except (TypeError, ValueError) as e:
        raise FormatError(f"{path}: bad 'dims' in the config record: {e}") from None
    missing = [n for n in ModelParams.TENSOR_NAMES if n not in tensors]
    if missing:
        raise FormatError(f"{path}: checkpoint missing tensors {missing}")
    params = ModelParams(dims, *(tensors[n] for n in ModelParams.TENSOR_NAMES))
    try:
        params.validate()
    except ValueError as e:
        raise FormatError(f"{path}: {e}") from None
    return params, config


# ---------------------------------------------------------------------------
# Line-delimited records: manifest, queries, results, loss log
# ---------------------------------------------------------------------------


def _dump_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


def _load_lines(path: str) -> list[tuple[int, dict]]:
    """(line number, record) for each non-blank line of a JSON-lines file."""
    records = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append((lineno, json.loads(line)))
            except json.JSONDecodeError as e:
                raise FormatError(f"{path}:{lineno}: invalid record: {e}") from None
    return records


def _require(record: dict, keys: tuple, path: str, lineno: int) -> None:
    missing = [k for k in keys if k not in record]
    if missing:
        raise FormatError(f"{path}:{lineno}: record missing keys {missing}")


def write_manifest(path: str, videos: list[VideoMeta]) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for v in videos:
            f.write(_dump_line({
                "video_id": v.video_id,
                "duration_s": v.duration,
                "clip_length_s": v.clip_length,
                "num_clips": v.num_clips,
                "features_path": v.feature_ref,
            }))


def read_manifest(path: str) -> list[VideoMeta]:
    videos = []
    for lineno, rec in _load_lines(path):
        _require(rec, ("video_id", "duration_s", "clip_length_s", "num_clips", "features_path"),
                 path, lineno)
        videos.append(VideoMeta(
            video_id=rec["video_id"],
            duration=float(rec["duration_s"]),
            clip_length=float(rec["clip_length_s"]),
            num_clips=int(rec["num_clips"]),
            feature_ref=rec["features_path"],
        ))
    return videos


def write_jsonl(path: str, records: list[dict]) -> None:
    """One sorted-key JSON record per line (queries files, loss logs)."""
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(_dump_line(rec))


def load_queries(path: str, base_dir: str) -> list[Query]:
    queries = []
    seen = set()
    for lineno, rec in _load_lines(path):
        _require(rec, ("query_id", "video_id", "spans", "words_path"), path, lineno)
        if rec["query_id"] in seen:
            raise FormatError(f"{path}:{lineno}: duplicate query_id {rec['query_id']!r}")
        seen.add(rec["query_id"])
        spans = tuple(TemporalSpan(float(s), float(e)) for s, e in rec["spans"])
        words = read_features(os.path.join(base_dir, rec["words_path"])).astype(np.float64)
        queries.append(Query(
            query_id=rec["query_id"],
            word_vectors=words,
            ground_truth=GroundTruth(rec["video_id"], spans),
        ))
    return queries


def write_results(path: str, results: list, seed: int, universe: int, top_k: int) -> None:
    """Ranked lists per query; `results` holds retrieval RankedResult objects."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(_dump_line({"seed": seed, "universe": universe, "top_k": top_k}))
        for r in results:
            f.write(_dump_line({
                "query_id": r.query_id,
                "ranked": [
                    [s.moment.video_id, s.moment.span.start, s.moment.span.end, s.cost]
                    for s in r.ranked
                ],
            }))


def read_results(path: str) -> tuple[dict, list[dict]]:
    records = _load_lines(path)
    if not records or "universe" not in records[0][1]:
        raise FormatError(f"{path}:1: missing results header")
    header, body = records[0][1], [rec for _, rec in records[1:]]
    seen = set()
    for lineno, rec in records[1:]:
        _require(rec, ("query_id", "ranked"), path, lineno)
        if rec["query_id"] in seen:
            raise FormatError(f"{path}:{lineno}: duplicate query_id {rec['query_id']!r}")
        seen.add(rec["query_id"])
    return header, body


def write_kv_report(path: str, items: dict) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for key in sorted(items):
            f.write(f"{key} = {items[key]}\n")


def read_kv_report(path: str) -> dict[str, str]:
    out = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if " = " not in line:
                raise FormatError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split(" = ", 1)
            out[key] = value
    return out


# ---------------------------------------------------------------------------
# Corpus container
# ---------------------------------------------------------------------------


class Corpus:
    """An ordered set of videos with their clip feature matrices (float64).

    Video `videos[o]` has ordinal o, and `ordinal_of` maps its id to o. The
    per-ordinal arrays are `num_clips`, `clip_length`, `duration`,
    `clip_offsets` (where video o's clips start when every video's clips are
    laid end to end in corpus order) and `id_rank` (the lexicographic rank
    of the id, the tie-break of every ranking; built on first read).
    `candidates` holds search's `retrieval.CandidateTable`, built by the
    first search that needs it.
    """

    def __init__(self, videos: list[VideoMeta], features: dict[str, np.ndarray]):
        self.videos = list(videos)
        self.ordinal_of = {v.video_id: o for o, v in enumerate(self.videos)}
        if len(self.ordinal_of) != len(self.videos):
            raise ValueError("duplicate video ids in corpus")
        self.features = features
        self.candidates = None
        self.num_clips = np.asarray([v.num_clips for v in self.videos], dtype=np.int64)
        self.clip_length = np.asarray([v.clip_length for v in self.videos], dtype=np.float64)
        self.duration = np.asarray([v.duration for v in self.videos], dtype=np.float64)
        self.clip_offsets = offsets(self.num_clips)
        for v in self.videos:
            feats = features[v.video_id]
            if feats.shape[0] != v.num_clips:
                raise ValueError(
                    f"{v.video_id}: feature rows {feats.shape[0]} != num_clips {v.num_clips}"
                )

    def __len__(self) -> int:
        return len(self.videos)

    def video(self, video_id: str) -> VideoMeta:
        return self.videos[self.ordinal_of[video_id]]

    def features_for(self, video_id: str) -> np.ndarray:
        return self.features[video_id]

    @cached_property
    def id_rank(self) -> np.ndarray:
        return np.argsort(np.argsort(np.asarray([v.video_id for v in self.videos], dtype=object)))

    @property
    def total_clips(self) -> int:
        return int(self.num_clips.sum())

    def total_candidates(self, enum_cfg) -> int:
        return sum(len(candidate_clips(v.num_clips, enum_cfg)) for v in self.videos)


def save_corpus(out_dir: str, videos: list[VideoMeta], features: dict[str, np.ndarray]) -> None:
    os.makedirs(os.path.join(out_dir, "features"), exist_ok=True)
    stamped = []
    for v in videos:
        rel = os.path.join("features", f"{v.video_id}.calf")
        write_features(os.path.join(out_dir, rel), features[v.video_id])
        stamped.append(VideoMeta(v.video_id, v.duration, v.clip_length, v.num_clips, rel))
    write_manifest(os.path.join(out_dir, "manifest.jsonl"), stamped)


def load_corpus(corpus_dir: str) -> Corpus:
    manifest = os.path.join(corpus_dir, "manifest.jsonl")
    if not os.path.exists(manifest):
        raise FormatError(f"{manifest}: manifest not found")
    videos = read_manifest(manifest)
    features = {}
    for v in videos:
        m = read_features(os.path.join(corpus_dir, v.feature_ref)).astype(np.float64)
        features[v.video_id] = m
    return Corpus(videos, features)


# ---------------------------------------------------------------------------
# Synthetic corpus generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSpec:
    """Settings for the planted-signal corpus generator.

    Each query gets its own planted moment: the moment's clip features are
    set to a latent vector (a fixed linear read-out of the query's mean
    word vector) plus isotropic noise of scale `signal_noise`. Distractor
    clips and the vocabulary are drawn independently.

    Planted moments use the shortest admissible candidate length unless
    `planted_moment_clips` says otherwise: a mean-distance cost cannot
    separate sub-moments of a uniformly planted region, so minimal-length
    planting keeps the planted span identifiable by a trained model.
    """

    num_videos: int = 200
    clips_per_video: Union[int, tuple[int, int]] = 12
    visual_dim: int = 64
    word_dim: int = 32
    vocab_size: int = 128
    queries_per_video: int = 2
    signal_noise: float = 0.1
    seed: int = 0
    words_min: int = 3
    words_max: int = 8
    annotations_per_query: int = 2
    planted_moment_clips: Optional[int] = None

    def __post_init__(self):
        if self.num_videos < 1 or self.visual_dim < 1 or self.word_dim < 1:
            raise ValueError("corpus dimensions must be positive")
        if self.vocab_size < 1 or self.queries_per_video < 0:
            raise ValueError("vocab_size must be positive, queries_per_video non-negative")
        if self.signal_noise < 0:
            raise ValueError("signal_noise must be non-negative")
        if not 1 <= self.words_min <= self.words_max:
            raise ValueError("need 1 <= words_min <= words_max")
        if self.annotations_per_query < 1:
            raise ValueError("annotations_per_query must be at least 1")

    @classmethod
    def from_dict(cls, data: dict) -> "SyntheticSpec":
        if "clips_per_video" in data and isinstance(data["clips_per_video"], list):
            data = dict(data, clips_per_video=tuple(data["clips_per_video"]))
        return cls(**data)


def _pick_disjoint_moments(candidates, count, rng):
    """Randomly pick `count` candidates, preferring clip-disjoint ones."""
    order = rng.permutation(len(candidates))
    picked = []
    used = set()
    for idx in order:
        m = candidates[idx]
        clips = set(range(m.first_clip, m.last_clip + 1))
        if not clips & used:
            picked.append(m)
            used |= clips
            if len(picked) == count:
                return picked
    for idx in order:  # not enough disjoint ones; allow overlap
        if len(picked) == count:
            break
        if candidates[idx] not in picked:
            picked.append(candidates[idx])
    return picked


def generate_synthetic(
    spec: SyntheticSpec, preset: DatasetPreset, out_dir: str
) -> tuple[Corpus, list[Query]]:
    """Write a planted corpus plus queries under `out_dir`, then reload it.

    Word vectors and the read-out matrix are quantized to float32 before
    planting so that, at signal_noise=0, the stored clip features equal the
    float32 latent exactly.
    """
    rng = np.random.default_rng(spec.seed)
    clip_len = preset.enum.clip_length
    vocab = rng.standard_normal((spec.vocab_size, spec.word_dim)).astype(np.float32)
    readout = (rng.standard_normal((spec.visual_dim, spec.word_dim))
               / np.sqrt(spec.word_dim)).astype(np.float32)

    videos: list[VideoMeta] = []
    features: dict[str, np.ndarray] = {}
    query_records: list[dict] = []
    os.makedirs(os.path.join(out_dir, "words"), exist_ok=True)

    for vi in range(spec.num_videos):
        if isinstance(spec.clips_per_video, int):
            n = spec.clips_per_video
        else:
            lo, hi = spec.clips_per_video
            n = int(rng.integers(lo, hi + 1))
        video_id = f"v{vi:05d}"
        video = VideoMeta(video_id, n * clip_len, clip_len, n)
        feats = rng.standard_normal((n, spec.visual_dim))

        candidates = enumerate_moments(video, preset.enum)
        if candidates:
            target_len = spec.planted_moment_clips or min(m.num_clips for m in candidates)
            plantable = [m for m in candidates if m.num_clips == target_len] or candidates
        else:
            plantable = []
        planted = _pick_disjoint_moments(
            plantable, min(spec.queries_per_video, len(plantable)), rng)
        for qi, moment in enumerate(planted):
            query_id = f"q{vi:05d}_{qi}"
            t = int(rng.integers(spec.words_min, spec.words_max + 1))
            word_ids = rng.integers(0, spec.vocab_size, size=t)
            words = vocab[word_ids]
            latent = readout.astype(np.float64) @ words.astype(np.float64).mean(axis=0)
            z = moment.num_clips
            noise = spec.signal_noise * rng.standard_normal((z, spec.visual_dim))
            feats[moment.first_clip:moment.last_clip + 1] = (
                latent[None, :].astype(np.float32).astype(np.float64) + noise
            )
            words_rel = os.path.join("words", f"{query_id}.calf")
            write_features(os.path.join(out_dir, words_rel), words)
            span = [moment.span.start, moment.span.end]
            query_records.append({
                "query_id": query_id,
                "video_id": video_id,
                "spans": [span] * spec.annotations_per_query,
                "words_path": words_rel,
            })
        videos.append(video)
        features[video_id] = feats

    save_corpus(out_dir, videos, features)
    write_jsonl(os.path.join(out_dir, "queries.jsonl"), query_records)
    write_features(os.path.join(out_dir, "readout.calf"), readout)
    with open(os.path.join(out_dir, "gen_meta.json"), "w", encoding="utf-8") as f:
        spec_dict = asdict(spec)
        if isinstance(spec_dict["clips_per_video"], tuple):
            spec_dict["clips_per_video"] = list(spec_dict["clips_per_video"])
        json.dump({"seed": spec.seed, "preset": preset.name, "spec": spec_dict},
                  f, sort_keys=True, indent=2)
        f.write("\n")

    corpus = load_corpus(out_dir)
    queries = load_queries(os.path.join(out_dir, "queries.jsonl"), out_dir)
    return corpus, queries
