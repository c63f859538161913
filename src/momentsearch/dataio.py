"""File formats, corpus persistence, and the synthetic corpus generator.

Binary layouts are little-endian and versioned; every loader validates
magic bytes, consumes the file fully, and rejects non-finite payloads.
Exact byte layouts live in FORMATS.md at the repo root. A `Corpus` holds
one flat clip matrix; its context table comes from `model.range_means`.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
import zlib
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import repeat
from typing import BinaryIO, Callable, Optional, Union

import numpy as np

from .core import GroundTruth, Moment, Query, TemporalSpan, VideoMeta, offsets
from .enumeration import DatasetPreset, candidate_clips, enumerate_moments
from .model import ModelDims, ModelParams, range_means

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


def _truncated(f: BinaryIO, got: int, n: int, what: str, path: str) -> FormatError:
    return FormatError(f"{path}: truncated while reading {what} at byte "
                       f"{f.tell() - got} ({n} bytes declared)")


def check_length(f: BinaryIO, n: int, what: str, path: str) -> None:
    """Refuse a declared length of more than one buffer that runs past the
    end of the file, before that many bytes are requested or allocated."""
    if n > io.DEFAULT_BUFFER_SIZE and n > os.fstat(f.fileno()).st_size - f.tell():
        raise _truncated(f, 0, n, what, path)


def _read_exact(f: BinaryIO, n: int, what: str, path: str) -> bytes:
    """Read exactly `n` bytes; a corrupted size field is refused first."""
    check_length(f, n, what, path)
    data = f.read(n)
    if len(data) != n:
        raise _truncated(f, len(data), n, what, path)
    return data


def read_into(f: BinaryIO, out: np.ndarray, what: str, path: str) -> None:
    """Fill the C-contiguous array `out` with exactly its size in bytes."""
    got = f.readinto(out.reshape(-1).view(np.uint8))
    if got != out.nbytes:
        raise _truncated(f, got, out.nbytes, what, path)


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
    _check_finite(m.reshape(-1), [0], lambda k: path)
    return m.copy()


def _check_finite(values: np.ndarray, starts, path_of: Callable[[int], str]) -> None:
    """Refuse the first non-finite element of the flat array `values`,
    naming its file and its element within it; file k, `path_of(k)`, has
    its elements start at `starts[k]`."""
    # Any non-finite element makes the sum non-finite, so a finite sum
    # clears the payload without an (n,) mask; an overflow only costs one.
    if np.isfinite(values.sum()):
        return
    finite = np.isfinite(values)
    if finite.all():
        return
    bad = int(np.argmin(finite))
    k = int(np.searchsorted(starts, bad, side="right")) - 1
    raise FormatError(f"{path_of(k)}: non-finite value at element {bad - int(starts[k])}")


# A feature file's header: magic, version, rows, dim (14 bytes).
_FEATURE_HEADER = struct.Struct("<4sHII")


def _raw_read(path: str, buffers: tuple) -> int:
    """The bytes one `os.readv` of the file at `path` put into `buffers`,
    or -1 if it cannot be opened or read (its loader then says why)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return -1
    try:
        return os.readv(fd, buffers)
    except OSError:
        return -1
    finally:
        os.close(fd)


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


# Decodes one JSON value at a position: (value, end), as `json.loads` would.
_scan_value = json.JSONDecoder().scan_once


def _load_lines(path: str) -> list[tuple[int, dict]]:
    """(line number, record) for each non-blank line of a JSON-lines file.

    A line is taken from one `_scan_value` call only when the value it
    decodes ends the line; any other line goes through `json.loads`, which
    accepts exactly those lines and words every refusal."""
    records = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record, end = _scan_value(line, 0)
            except (StopIteration, ValueError):
                end = -1
            if end != len(line):
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as e:
                    raise FormatError(f"{path}:{lineno}: invalid record: {e}") from None
            records.append((lineno, record))
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
    """The manifest's videos; a record with a missing key or a bad value
    is refused with its file and line."""
    videos = []
    for lineno, rec in _load_lines(path):
        _require(rec, ("video_id", "duration_s", "clip_length_s", "num_clips", "features_path"),
                 path, lineno)
        try:
            num_clips = int(rec["num_clips"])
            if num_clips != rec["num_clips"]:
                raise ValueError(f"num_clips must be a whole number, got {rec['num_clips']!r}")
            videos.append(VideoMeta(rec["video_id"], float(rec["duration_s"]),
                                    float(rec["clip_length_s"]), num_clips, rec["features_path"]))
        except (TypeError, ValueError, OverflowError) as e:
            raise FormatError(f"{path}:{lineno}: {e}") from None
    return videos


def write_jsonl(path: str, records: list[dict]) -> None:
    """One sorted-key JSON record per line (queries files, loss logs)."""
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(_dump_line(rec))


# Bytes one raw read of a words file may fill: more than 1,600 words of
# 10 float32s, or 50 of 300. A longer file is read through `read_features`.
_WORDS_READ_BYTES = 64 << 10


def load_queries(path: str, base_dir: str) -> list[Query]:
    """Load a queries file; every query's word vectors are C-contiguous
    float64 row views of one flat array.

    Each words file takes one raw `os.readv` of at most _WORDS_READ_BYTES
    into the header buffer and the end of one flat byte buffer; its header
    must hold the magic and the version, and the bytes read must end where
    its shape says the payload ends, short of the bound. A file that fails
    is read again by `read_features`, whose `FormatError` it gets (or whose
    matrix is appended, when the file was only longer than the bound). One
    finiteness check and one float64 cast cover every word vector.
    """
    records, seen = [], set()  # (query_id, ground truth, words path, rows, dim)
    header = bytearray(_FEATURE_HEADER.size)
    buf, used = np.empty(4 * _WORDS_READ_BYTES, dtype=np.uint8), 0
    for lineno, rec in _load_lines(path):
        _require(rec, ("query_id", "video_id", "spans", "words_path"), path, lineno)
        if rec["query_id"] in seen:
            raise FormatError(f"{path}:{lineno}: duplicate query_id {rec['query_id']!r}")
        seen.add(rec["query_id"])
        try:
            truth = GroundTruth(rec["video_id"],
                                tuple(TemporalSpan(float(s), float(e)) for s, e in rec["spans"]))
        except (TypeError, ValueError) as e:
            raise FormatError(f"{path}:{lineno}: bad spans: {e}") from None
        words_path = os.path.join(base_dir, rec["words_path"])
        if len(buf) - used < _WORDS_READ_BYTES:
            buf = np.concatenate([buf[:used], np.empty(len(buf), dtype=np.uint8)])
        got = _raw_read(words_path, (header, buf[used:used + _WORDS_READ_BYTES]))
        magic, version, rows, dim = _FEATURE_HEADER.unpack(header)
        size = 4 * rows * dim
        if (got != len(header) + size or size >= _WORDS_READ_BYTES
                or (magic, version) != (FEATURE_MAGIC, FORMAT_VERSION)):
            m = read_features(words_path)
            (rows, dim), size = m.shape, m.nbytes
            if len(buf) - used < size:
                buf = np.concatenate([buf[:used], np.empty(size, dtype=np.uint8)])
            buf[used:used + size] = m.reshape(-1).view(np.uint8)
        records.append((rec["query_id"], truth, rec["words_path"], rows, dim))
        used += size
    starts = offsets([rows * dim for *_, rows, dim in records])
    flat = buf[:used].view("<f4")
    _check_finite(flat, starts, lambda k: os.path.join(base_dir, records[k][2]))
    words = flat.astype(np.float64)
    return [Query(query_id, words[lo:lo + rows * dim].reshape(rows, dim), truth)
            for (query_id, truth, _, rows, dim), lo in zip(records, starts.tolist())]


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
    """An ordered set of videos with their clip features.

    Video `videos[o]` has ordinal o, and `ordinal_of` maps its id to o. The
    per-ordinal arrays are `num_clips`, `clip_length`, `duration`,
    `clip_offsets` (where video o's clips start when every video's clips are
    laid end to end in corpus order) and `id_rank` (the lexicographic rank
    of the id, the tie-break of every ranking; built on first read);
    `clip_counts` is the tuple of distinct clip counts, ascending.
    `clip_features` is every clip's features as one C-contiguous
    (total_clips, visual_in) matrix laid out by `clip_offsets`: float32 when
    given as a float32 matrix (as `load_corpus` reads the `.calf` files),
    float64 otherwise. Only `model.py` cuts it, and every cut reaches float64
    before any arithmetic, so both dtypes give the same bytes downstream.
    `features_for(video_id)` is one video's clips as float64 rows.
    `contexts` is the (videos, visual_in) float64 table of each video's
    `model.compute_context`, with the bytes of a per-video call
    (`model.range_means`). `candidates` holds the `retrieval.CandidateTable`
    that search and training read, built by the first that needs it.

    The constructor takes the flat matrix, or a dict of per-video blocks of
    one width, which it concatenates once into float64.
    """

    def __init__(self, videos: list[VideoMeta],
                 features: Union[np.ndarray, dict[str, np.ndarray]]):
        self.videos = list(videos)
        self.ordinal_of = {v.video_id: o for o, v in enumerate(self.videos)}
        if len(self.ordinal_of) != len(self.videos):
            raise ValueError("duplicate video ids in corpus")
        self.candidates = None
        self.num_clips = np.asarray([v.num_clips for v in self.videos], dtype=np.int64)
        self.clip_counts = tuple(np.unique(self.num_clips).tolist())
        self.clip_length = np.asarray([v.clip_length for v in self.videos], dtype=np.float64)
        self.duration = np.asarray([v.duration for v in self.videos], dtype=np.float64)
        self.clip_offsets = offsets(self.num_clips)
        if isinstance(features, dict):
            features = _concatenate_blocks(self.videos, features)
        if features.ndim != 2 or features.shape[0] != self.total_clips:
            raise ValueError(f"clip features of shape {features.shape} for "
                             f"{self.total_clips} clips")
        dtype = np.float32 if features.dtype == np.float32 else np.float64
        self.clip_features = np.ascontiguousarray(features, dtype=dtype)
        self.contexts = range_means(self.clip_features, self.clip_offsets, self.num_clips)
        self._mapped_ids = self._mapped = None  # `ordinals_for`'s last id table and its map

    def __len__(self) -> int:
        return len(self.videos)

    def video(self, video_id: str) -> VideoMeta:
        return self.videos[self.ordinal_of[video_id]]

    def features_for(self, video_id: str) -> np.ndarray:
        return self.stored_rows(video_id).astype(np.float64, copy=False)

    def stored_rows(self, video_id: str) -> np.ndarray:
        """The row view of one video's clips in `clip_features`, of its dtype."""
        o = self.ordinal_of[video_id]
        lo = int(self.clip_offsets[o])
        return self.clip_features[lo:lo + int(self.num_clips[o])]

    def ordinals_for(self, video_ids: tuple[str, ...]) -> np.ndarray:
        """The corpus ordinal of each id of an index's id table, -1 for an id
        the corpus lacks. The map of the last table seen is kept."""
        if video_ids is not self._mapped_ids:
            self._mapped = np.fromiter(map(self.ordinal_of.get, video_ids, repeat(-1)),
                                       dtype=np.int64, count=len(video_ids))
            self._mapped_ids = video_ids
        return self._mapped

    @cached_property
    def id_rank(self) -> np.ndarray:
        return np.argsort(np.argsort(np.asarray([v.video_id for v in self.videos], dtype=object)))

    @property
    def total_clips(self) -> int:
        return int(self.num_clips.sum())

    def total_candidates(self, enum_cfg) -> int:
        return sum(len(candidate_clips(v.num_clips, enum_cfg)) for v in self.videos)


def _concatenate_blocks(videos: list[VideoMeta], features: dict[str, np.ndarray]) -> np.ndarray:
    blocks = [features[v.video_id] for v in videos]
    for v, block in zip(videos, blocks):
        shape = np.shape(block)
        if shape[0] != v.num_clips:
            raise ValueError(f"{v.video_id}: feature rows {shape[0]} != num_clips {v.num_clips}")
        if shape[1:] != np.shape(blocks[0])[1:]:
            raise ValueError(f"{v.video_id}: feature block of shape {shape} beside "
                             f"{videos[0].video_id}'s {np.shape(blocks[0])}; the blocks of a "
                             "corpus share one width")
    return np.concatenate(blocks, dtype=np.float64) if blocks else np.zeros((0, 0))


def save_corpus(out_dir: str, videos: list[VideoMeta], features: dict[str, np.ndarray]) -> None:
    os.makedirs(os.path.join(out_dir, "features"), exist_ok=True)
    stamped = []
    for v in videos:
        rel = os.path.join("features", f"{v.video_id}.calf")
        write_features(os.path.join(out_dir, rel), features[v.video_id])
        stamped.append(VideoMeta(v.video_id, v.duration, v.clip_length, v.num_clips, rel))
    write_manifest(os.path.join(out_dir, "manifest.jsonl"), stamped)


def _member_features(path: str, video: VideoMeta, width: Optional[int],
                     width_path: str = "") -> np.ndarray:
    """`read_features(path)`, refused unless it holds the video's clips and,
    when `width` is given, that many features per clip (as `width_path`)."""
    m = read_features(path)
    if m.shape[0] != video.num_clips:
        raise ValueError(f"{video.video_id}: feature rows {m.shape[0]} != "
                         f"num_clips {video.num_clips}")
    if width is not None and m.shape[1] != width:
        raise FormatError(f"{path}: {m.shape[1]} features per clip, but {width_path} "
                          f"has {width}; the feature files of a corpus share one width")
    return m


def load_corpus(corpus_dir: str) -> Corpus:
    """Load a corpus directory into one flat float32 clip-feature matrix,
    the dtype the feature files store (see `Corpus`).

    The first feature file is read by `read_features` and fixes the width.
    Each later one takes one raw `os.readv`: its 14-byte header, its
    video's rows of the matrix itself and a 1-byte end-of-file probe, so no
    size is taken from a header and no row passes through a staging buffer;
    the header must then hold the magic, the version, `num_clips` rows and
    the first file's width. A file that fails is read again by
    `read_features`, whose `FormatError` it gets; one that `read_features`
    accepts is refused for its rows or width (or kept, if only the raw read
    came up short). One finiteness check covers the whole matrix.
    """
    manifest = os.path.join(corpus_dir, "manifest.jsonl")
    if not os.path.exists(manifest):
        raise FormatError(f"{manifest}: manifest not found")
    videos = read_manifest(manifest)
    if not videos:
        return Corpus([], {})

    def path_of(o: int) -> str:  # built per file: 10,000 kept paths cost 1 MB of RSS
        return os.path.join(corpus_dir, videos[o].feature_ref)

    first = _member_features(path_of(0), videos[0], None)
    width = first.shape[1]
    counts = [v.num_clips for v in videos]
    starts = offsets(counts)
    try:
        features = np.empty((sum(counts), width), dtype="<f4")
    except MemoryError:
        # Refuse a manifest count too large to hold as its file's rows error.
        for o, v in enumerate(videos):
            _member_features(path_of(o), v, width, path_of(0))
        raise
    features[:len(first)] = first
    header, probe = bytearray(_FEATURE_HEADER.size), bytearray(1)
    for v, lo in zip(videos[1:], starts[1:].tolist()):
        path = os.path.join(corpus_dir, v.feature_ref)
        rows = features[lo:lo + v.num_clips]
        if (_raw_read(path, (header, rows, probe)) != len(header) + rows.nbytes
                or _FEATURE_HEADER.unpack(header)
                != (FEATURE_MAGIC, FORMAT_VERSION, v.num_clips, width)):
            rows[...] = _member_features(path, v, width, path_of(0))
    _check_finite(features.reshape(-1), starts * width, path_of)
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
        clips = self.clips_per_video
        bounds = (clips, clips) if isinstance(clips, int) else tuple(clips)
        if len(bounds) != 2 or not 2 <= bounds[0] <= bounds[1]:
            raise ValueError("clips_per_video must be at least 2, or a [low, high] range with "
                             f"2 <= low <= high; got {clips}")

    @classmethod
    def from_dict(cls, data: dict) -> "SyntheticSpec":
        if "clips_per_video" in data and isinstance(data["clips_per_video"], list):
            data = dict(data, clips_per_video=tuple(data["clips_per_video"]))
        return cls(**data)


def _pick_disjoint_moments(pairs: list, count: int, rng) -> list:
    """Randomly pick `count` of the (first, last) clip ranges `pairs`,
    preferring clip-disjoint ones."""
    if count == 0:
        return []
    order = rng.permutation(len(pairs))
    picked = []
    used = set()
    for idx in order:
        first, last = pairs[idx]
        if used.isdisjoint(range(first, last + 1)):
            picked.append(pairs[idx])
            used.update(range(first, last + 1))
            if len(picked) == count:
                return picked
    for idx in order:  # not enough disjoint ones; allow overlap
        if len(picked) == count:
            break
        if pairs[idx] not in picked:
            picked.append(pairs[idx])
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

        if n < preset.enum.min_moment_clips:
            enumerate_moments(video, preset.enum)  # logs that it has no candidates
        grid = candidate_clips(n, preset.enum)
        # Every video of min_moment_clips or more clips has candidates of that length.
        lengths = grid[:, 1] - grid[:, 0] + 1
        target = lengths == (spec.planted_moment_clips or preset.enum.min_moment_clips)
        plantable = (grid[target] if target.any() else grid).tolist()
        planted = _pick_disjoint_moments(
            plantable, min(spec.queries_per_video, len(plantable)), rng)
        for qi, (first, last) in enumerate(planted):
            moment = Moment.from_clips(video, first, last)
            query_id = f"q{vi:05d}_{qi}"
            t = int(rng.integers(spec.words_min, spec.words_max + 1))
            word_ids = rng.integers(0, spec.vocab_size, size=t)
            words = vocab[word_ids]
            latent = readout.astype(np.float64) @ words.astype(np.float64).mean(axis=0)
            noise = spec.signal_noise * rng.standard_normal((moment.num_clips, spec.visual_dim))
            feats[first:last + 1] = latent[None, :].astype(np.float32).astype(np.float64) + noise
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
