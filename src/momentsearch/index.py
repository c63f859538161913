"""Exact and inverted-file nearest-neighbor indexes over clip embeddings.

Only moment-independent (non-TEF) clip embeddings are indexable. Vectors
are stored as float32; all comparisons use squared Euclidean distance, so
ordering matches the alignment cost without square roots. Ties are broken
by (video_id, clip_idx).

Searches are read-only after build; each search returns its hits as a
`ClipHits` sequence and its own SearchStats. One step, `ClipIndex._scan`,
scans and ranks lists of entries, each a contiguous slice of the vectors
read in place: an IVF search's probed inverted lists (as FAISS does), or
an exact search's one list of every entry.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import ranges
from .dataio import (
    FORMAT_VERSION,
    Corpus,
    FormatError,
    check_header,
    check_length,
    expect_eof,
    read_array,
    read_into,
)
from .model import ModelParams, embed_videos

INDEX_MAGIC = b"CALX"
FLAVOR_EXACT = 0
FLAVOR_IVF = 1


@dataclass
class SearchStats:
    distance_evals: int = 0
    centroid_evals: int = 0
    partitions_probed: int = 0


@dataclass
class ClipHit:
    """One retrieved index entry: a (video, clip) key plus its distance."""

    video_id: str
    clip_idx: int
    sq_distance: float


class ClipHits(Sequence):
    """A read-only ranked sequence of `ClipHit`s held as (video ordinal,
    clip, distance) arrays, the ordinals indexing `video_ids`. The `ClipHit`
    of an item is built when the item is read; it equals any sequence
    holding equal items in the same order."""

    __slots__ = ("video_ids", "_ordinal", "_clip", "_distance")

    def __init__(self, video_ids: tuple[str, ...], ordinal: np.ndarray, clip: np.ndarray,
                 distance: np.ndarray):
        self.video_ids = video_ids  # shared with the index, never copied
        self._ordinal, self._clip, self._distance = ordinal, clip, distance

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(video ordinal, clip, squared distance) arrays, in rank order."""
        return self._ordinal, self._clip, self._distance

    def __len__(self) -> int:
        return len(self._ordinal)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ClipHits(self.video_ids, self._ordinal[i], self._clip[i], self._distance[i])
        return ClipHit(self.video_ids[int(self._ordinal[i])], int(self._clip[i]),
                       float(self._distance[i]))

    def __iter__(self):
        for o, clip, distance in zip(self._ordinal.tolist(), self._clip.tolist(),
                                     self._distance.tolist()):
            yield ClipHit(self.video_ids[o], clip, distance)

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None

    def __repr__(self) -> str:
        return f"ClipHits({list(self)!r})"


class ClipIndex:
    """Flat store over clip embeddings; subclass adds IVF partitioning."""

    flavor = FLAVOR_EXACT

    def __init__(self, video_ids: tuple[str, ...], keys: np.ndarray, vectors: np.ndarray):
        if vectors.ndim != 2 or vectors.shape[0] == 0:
            raise ValueError("index needs a non-empty (entries, dim) matrix")
        if keys.shape != (vectors.shape[0], 2):
            raise ValueError("keys must be an (entries, 2) array of (video ordinal, clip idx)")
        self.video_ids = tuple(video_ids)
        self.keys = np.ascontiguousarray(keys, dtype=np.uint32)
        self.vectors = np.ascontiguousarray(vectors, dtype=np.float32)
        # Lexicographic rank of each ordinal, so tie-breaks follow video_id strings.
        order = np.argsort(np.argsort(np.asarray(self.video_ids)))
        self._id_rank = order[self.keys[:, 0].astype(np.int64)]

    @property
    def num_entries(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def _scan(self, q: np.ndarray, starts: np.ndarray, sizes: np.ndarray, top_c: int) -> ClipHits:
        """The top_c entries of lists [starts[k], starts[k] + sizes[k]) by
        (distance, video_id, clip). Each list is one contiguous slice of
        `vectors`, scanned in place through one reused difference buffer of
        at most _BLOCK_BYTES, a longer list in blocks of that many rows."""
        if top_c < 1:
            raise ValueError("top_c must be at least 1")
        idx = ranges(starts, sizes)
        dists = np.empty(len(idx), dtype=np.float32)
        rows = max(1, _BLOCK_BYTES // (4 * self.dim))
        diff = np.empty((min(int(sizes.max()), rows), self.dim), dtype=np.float32)
        at = 0
        for start, size in zip(starts.tolist(), sizes.tolist()):
            for lo in range(start, start + size, rows):
                n = min(rows, start + size - lo)
                part = np.subtract(self.vectors[lo:lo + n], q, out=diff[:n])
                dists[at:at + n] = np.einsum("ij,ij->i", part, part)
                at += n
        if top_c < len(dists):
            # Only entries no farther than the top_c-th distance can place;
            # NaN distances sort last.
            near = np.flatnonzero(~(dists > np.partition(dists, top_c - 1)[top_c - 1]))
            idx, dists = idx[near], dists[near]
        order = np.lexsort((
            self.keys[idx, 1],
            self._id_rank[idx],
            dists,
        ))[:top_c]
        entry = idx[order]
        return ClipHits(self.video_ids, self.keys[entry, 0], self.keys[entry, 1], dists[order])

    def _query(self, query_emb: np.ndarray) -> np.ndarray:
        q = np.asarray(query_emb, dtype=np.float32)
        if q.shape != (self.dim,):
            raise ValueError(f"query of shape {q.shape} for an index of {self.dim}-d vectors")
        return q

    def search(self, query_emb: np.ndarray, top_c: int, nprobe: int = 0):
        """Scan every entry, as one list; returns (hits, stats). `nprobe` is ignored."""
        n = self.num_entries
        hits = self._scan(self._query(query_emb), np.array([0]), np.array([n]), top_c)
        return hits, SearchStats(distance_evals=n)


class IvfIndex(ClipIndex):
    """Inverted-file index: entries grouped by nearest k-means centroid."""

    flavor = FLAVOR_IVF

    def __init__(self, video_ids, keys, vectors, centroids: np.ndarray, offsets: np.ndarray):
        super().__init__(video_ids, keys, vectors)
        self.centroids = np.ascontiguousarray(centroids, dtype=np.float32)
        self.offsets = np.ascontiguousarray(offsets, dtype=np.uint64)
        p = self.centroids.shape[0]
        if self.offsets.shape != (p + 1,) or int(self.offsets[-1]) != self.num_entries:
            raise ValueError("partition offsets inconsistent with entry count")

    @property
    def num_partitions(self) -> int:
        return self.centroids.shape[0]

    def search(self, query_emb: np.ndarray, top_c: int, nprobe: int = 8):
        p = self.num_partitions
        if not 1 <= nprobe <= p:
            raise ValueError(f"nprobe must lie in [1, {p}], got {nprobe}")
        q = self._query(query_emb)
        cdiff = self.centroids - q
        cdist = np.einsum("ij,ij->i", cdiff, cdiff)
        probe = np.lexsort((np.arange(p), cdist))[:nprobe]
        starts = self.offsets[probe].astype(np.int64)
        sizes = self.offsets[probe + 1].astype(np.int64) - starts
        stats = SearchStats(
            distance_evals=int(sizes.sum()),
            centroid_evals=p,
            partitions_probed=int(nprobe),
        )
        return self._scan(q, starts, sizes, top_c), stats


# ---------------------------------------------------------------------------
# Building
# ---------------------------------------------------------------------------


def corpus_clip_matrix(corpus: Corpus, params: ModelParams,
                       embeddings: Optional[np.ndarray] = None, lo: int = 0,
                       hi: Optional[int] = None):
    """Embed every clip of videos lo .. hi - 1 (manifest order; by default
    every video) with the non-TEF head: (keys, vectors), one (video ordinal,
    clip) uint32 key per float32 row. A video's rows keep their bytes in any
    range. `embeddings`, every clip's float64 embedding under `params` in
    that order (`model.embed_videos`), is cast instead when already at hand
    and the range is the whole corpus: the same cast that embedding into
    float32 makes."""
    hi = len(corpus) if hi is None else hi
    num_clips = corpus.num_clips[lo:hi]
    if embeddings is None:
        vectors = embed_videos(corpus.clip_features, corpus.clip_offsets[lo:hi], num_clips,
                               corpus.contexts[lo:hi], params, np.float32)
    else:
        vectors = embeddings.astype(np.float32)
    keys = np.empty((len(vectors), 2), dtype=np.uint32)
    keys[:, 0] = np.repeat(np.arange(lo, hi), num_clips)
    keys[:, 1] = ranges(np.zeros_like(num_clips), num_clips)
    return keys, vectors


def build_exact(corpus: Corpus, params: ModelParams,
                embeddings: Optional[np.ndarray] = None) -> ClipIndex:
    keys, vectors = corpus_clip_matrix(corpus, params, embeddings)
    return ClipIndex(tuple(v.video_id for v in corpus.videos), keys, vectors)


def _kmeans_pp_seed(vectors: np.ndarray, p: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeds over float32 `vectors`, as float64 centroids.

    Distances come from |x|^2 - 2 x.c + |c|^2 (clamped at 0), so no step
    makes an (entries, dim) difference. Each step casts the rows to float64
    one fixed block at a time through one reused buffer: blocks of a
    multiple of 16 rows, only the last one short, so the GEMV gives every
    row the bytes of a whole-matrix product (see _BLOCK_BYTES).
    """
    n, dim = vectors.shape
    rows = max(16, _BLOCK_BYTES // (8 * dim) // 16 * 16)
    blocks = [(lo, min(lo + rows, n)) for lo in range(0, n, rows)]
    buf = np.empty((min(rows, n), dim), dtype=np.float64)
    x_norms = np.empty(n, dtype=np.float64)
    for lo, hi in blocks:
        x = buf[:hi - lo]
        x[...] = vectors[lo:hi]
        x_norms[lo:hi] = np.einsum("ij,ij->i", x, x)
    centroids = np.empty((p, dim), dtype=np.float64)
    best = np.full(n, np.inf)
    pick = int(rng.integers(0, n))
    for i in range(p):
        if i:
            total = best.sum()
            if total <= 0:  # all points coincide with chosen centroids
                pick = int(rng.integers(0, n))
            else:
                pick = int(rng.choice(n, p=best / total))
        centroids[i] = vectors[pick]
        if i == p - 1:
            break
        for lo, hi in blocks:
            x = buf[:hi - lo]
            x[...] = vectors[lo:hi]
            d = x_norms[lo:hi] - 2.0 * (x @ centroids[i]) + x_norms[pick]
            np.minimum(best[lo:hi], np.maximum(d, 0.0), out=best[lo:hi])
    return centroids


# Bytes that one block of rows may take while `build_ivf` casts, scores and
# measures its clips, while a search takes differences and while
# `save_index` and `load_index` move the payload: 2,340 rows of float64
# scores at 448 partitions, 21,840 float64 rows of 48-d in seeding. Measured
# on scipy-openblas 0.3.31 (Haswell kernels, one thread): a GEMM of under
# about a thousand outputs is rounded on another code path, and blocks stay
# far above that; a GEMV gives a row the bytes of a whole-matrix product
# only when its block starts at a multiple of 16 rows (blocks of 21,845 or
# 1,000 rows changed the last bit of some products, blocks of 21,840 did
# not), so seeding walks fixed 16-row-multiple blocks, not `_row_blocks`.
_BLOCK_BYTES = 8 << 20


def _row_blocks(n: int, row_bytes: int) -> list[tuple[int, int]]:
    """(lo, hi) bounds of ceil(n / rows) near-equal blocks over n rows, where
    rows = _BLOCK_BYTES // row_bytes (at least 1). No block is longer than
    rows and, unless one block holds all n, none is shorter than rows / 2."""
    rows = max(1, _BLOCK_BYTES // row_bytes)
    count = max(1, -(-n // rows))
    bounds = (np.arange(count + 1) * n // count).tolist()
    return list(zip(bounds[:-1], bounds[1:]))


def _assign(vectors: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Each row's nearest centroid, the lowest index on ties.

    Scores -2 x.c + ||c||^2 (||x - c||^2 less the rank-invariant ||x||^2)
    in place, in row blocks of at most _BLOCK_BYTES, each cast to float64
    on its own, so the transient is one (rows, p) float64 block and its
    float64 rows whatever n is. Each block takes the same IEEE operations
    in the same order as a whole-matrix pass, and a GEMM above the small
    size gives a row the same dot products in any block, so the labels
    keep their bytes.
    """
    c_norms = np.einsum("ij,ij->i", centroids, centroids)
    labels = np.empty(vectors.shape[0], dtype=np.int64)
    for lo, hi in _row_blocks(vectors.shape[0], 8 * max(centroids.shape)):
        scores = vectors[lo:hi].astype(np.float64) @ centroids.T
        scores *= -2.0
        scores += c_norms
        labels[lo:hi] = np.argmin(scores, axis=1)
    return labels


def _centroid_means(vectors: np.ndarray, labels: np.ndarray,
                    centroids: np.ndarray) -> np.ndarray:
    p, dim = centroids.shape
    counts = np.bincount(labels, minlength=p).astype(np.float64)
    sums = np.empty((p, dim), dtype=np.float64)
    for d in range(dim):  # bincount sums its weights in float64
        sums[:, d] = np.bincount(labels, weights=vectors[:, d], minlength=p)
    out = centroids.copy()
    nonzero = counts > 0
    out[nonzero] = sums[nonzero] / counts[nonzero, None]
    return out


def build_ivf(
    corpus: Corpus,
    params: ModelParams,
    partitions: int | None = None,
    seed: int = 0,
    kmeans_iters: int = 10,
) -> IvfIndex:
    """Lloyd's k-means (k-means++ seeding, fixed iteration count) over clips.

    An empty partition after the final assignment is repaired once by
    re-seeding its centroid at the entry farthest from its own centroid.

    Memory: the peak is 4 x n x dim bytes, one float32 clip matrix at a
    time, plus O(n) keys, labels, norms and distances and a few blocks of
    about _BLOCK_BYTES. No float64 clip matrix is made: seeding, assignment,
    the repair and the means cast the float32 rows one block (or one column)
    at a time. The clip matrix is released after the final assignment, and
    the partition-sorted vectors are filled in place by a second embedding
    pass, `corpus_clip_matrix` over blocks of whole videos, each scattered
    to its sorted rows: a video's embedding is its own stacked GEMM, so the
    second pass repeats the first's bytes. Keys, vectors, centroids and
    offsets keep the bytes of a float64 build over whole matrices.
    """
    if kmeans_iters < 0:
        raise ValueError(f"kmeans_iters must be non-negative, got {kmeans_iters}")
    keys, vectors = corpus_clip_matrix(corpus, params)
    n, dim = vectors.shape
    p = partitions if partitions is not None else int(np.ceil(np.sqrt(n)))
    if not 1 <= p <= n:
        raise ValueError(f"partition count must lie in [1, {n}], got {p}")
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_seed(vectors, p, rng)
    for _ in range(kmeans_iters):
        labels = _assign(vectors, centroids)
        centroids = _centroid_means(vectors, labels, centroids)
    labels = _assign(vectors, centroids)
    counts = np.bincount(labels, minlength=p)

    empty = np.flatnonzero(counts == 0)
    if empty.size:
        dist_to_own = np.empty(n)
        for lo, hi in _row_blocks(n, 8 * dim):
            diff = vectors[lo:hi] - centroids[labels[lo:hi]]
            dist_to_own[lo:hi] = np.einsum("ij,ij->i", diff, diff)
        for j, entry in zip(empty, np.argsort(-dist_to_own)):
            centroids[j] = vectors[entry]
        labels = _assign(vectors, centroids)
        counts = np.bincount(labels, minlength=p)

    del vectors
    order = np.argsort(labels, kind="stable")
    del labels
    offsets = np.zeros(p + 1, dtype=np.uint64)
    np.cumsum(counts, out=offsets[1:])
    position = np.empty(n, dtype=np.int64)  # the sorted row of each clip
    position[order] = np.arange(n)
    sorted_vectors = np.empty((n, dim), dtype=np.float32)
    bounds = [lo for lo, _ in _row_blocks(n, 4 * dim)] + [n]
    cuts = np.unique(np.searchsorted(corpus.clip_offsets, bounds)).tolist()
    for lo, hi in zip(cuts[:-1], cuts[1:]):  # blocks of whole videos
        _, block = corpus_clip_matrix(corpus, params, lo=lo, hi=hi)
        first = int(corpus.clip_offsets[lo])
        sorted_vectors[position[first:first + len(block)]] = block
    return IvfIndex(
        tuple(v.video_id for v in corpus.videos),
        keys[order],
        sorted_vectors,
        centroids.astype(np.float32),
        offsets,
    )


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save_index(index: ClipIndex, path: str) -> None:
    """Write `index` as a `.calx` file (FORMATS.md).

    The interleaved key|vector payload goes out in row blocks of at most
    _BLOCK_BYTES through one reused buffer, so saving holds one block on top
    of the index. The file's bytes equal those of one whole-payload write.
    """
    with open(path, "wb") as f:
        f.write(INDEX_MAGIC)
        f.write(np.asarray([FORMAT_VERSION], "<u2").tobytes())
        f.write(np.asarray([index.flavor], "u1").tobytes())
        f.write(np.asarray([index.dim], "<u4").tobytes())
        f.write(np.asarray([index.num_entries], "<u8").tobytes())
        blocks = _row_blocks(index.num_entries, 4 * (2 + index.dim))
        buf = np.empty((max(hi - lo for lo, hi in blocks), 2 + index.dim), dtype="<u4")
        for lo, hi in blocks:
            block = buf[:hi - lo]
            block[:, :2] = index.keys[lo:hi]
            block[:, 2:] = index.vectors[lo:hi].astype("<f4", copy=False).view("<u4")
            f.write(block)
        if isinstance(index, IvfIndex):
            f.write(np.asarray([index.num_partitions], "<u4").tobytes())
            f.write(index.centroids.astype("<f4").tobytes())
            f.write(index.offsets.astype("<u8").tobytes())


def _read_entries(f, count: int, dim: int, path: str) -> tuple[np.ndarray, np.ndarray, bool]:
    """The interleaved key|vector payload of `count` entries as (keys,
    vectors, whether every vector is finite), read in row blocks of at most
    _BLOCK_BYTES through one reused buffer straight into the two arrays the
    index keeps, each block checked as it lands. A count that runs past the
    end of the file is refused before anything is allocated."""
    row_bytes = 4 * (2 + dim)
    check_length(f, count * row_bytes, "entries", path)
    keys = np.empty((count, 2), dtype=np.uint32)
    vectors = np.empty((count, dim), dtype=np.float32)
    blocks = _row_blocks(count, row_bytes)
    buf = np.empty((max(hi - lo for lo, hi in blocks), 2 + dim), dtype="<u4")
    finite = True
    for lo, hi in blocks:
        block = buf[:hi - lo]
        read_into(f, block, "entries", path)
        keys[lo:hi] = block[:, :2]
        vectors[lo:hi] = block[:, 2:].view("<f4")
        finite = finite and bool(np.isfinite(vectors[lo:hi]).all())
    return keys, vectors, finite


def load_index(path: str, video_ids: tuple[str, ...]):
    """Load an index; `video_ids` supplies the manifest-order id table."""
    with open(path, "rb") as f:
        check_header(f, INDEX_MAGIC, path)
        flavor = int(read_array(f, "u1", 1, "flavor", path)[0])
        dim = int(read_array(f, "<u4", 1, "dim", path)[0])
        count = int(read_array(f, "<u8", 1, "entry count", path)[0])
        if count == 0:
            raise FormatError(f"{path}: entry count at byte 11 is 0; an index needs entries")
        keys, vectors, finite = _read_entries(f, count, dim, path)
        max_ordinal = int(keys[:, 0].max())
        if max_ordinal >= len(video_ids):
            raise FormatError(f"{path}: entry references video ordinal {max_ordinal}, "
                              f"but only {len(video_ids)} ids were supplied")
        if flavor == FLAVOR_EXACT:
            expect_eof(f, path)
            index = ClipIndex(video_ids, keys, vectors)
        elif flavor == FLAVOR_IVF:
            p = int(read_array(f, "<u4", 1, "partition count", path)[0])
            centroids = read_array(f, "<f4", p * dim, "centroids", path).reshape(p, dim).copy()
            offsets = read_array(f, "<u8", p + 1, "offsets", path).copy()
            expect_eof(f, path)
            if offsets[0] != 0 or np.any(offsets[1:] < offsets[:-1]) or offsets[-1] != count:
                raise FormatError(f"{path}: IVF partition offsets must start at 0, never "
                                  f"decrease and end at the entry count {count}")
            index = IvfIndex(video_ids, keys, vectors, centroids, offsets)
        else:
            raise FormatError(f"{path}: unknown index flavor {flavor}")
    if not finite:  # refused last, after every structural check
        raise FormatError(f"{path}: non-finite vector payload")
    return index
