"""Exact and inverted-file nearest-neighbor indexes over clip embeddings.

Only moment-independent (non-TEF) clip embeddings are indexable. Vectors
are stored as float32; all comparisons use squared Euclidean distance, so
ordering matches the alignment cost without square roots. Ties are broken
by (video_id, clip_idx).

Searches are read-only after build; each search returns its hits as a
`ClipHits` sequence and its own SearchStats.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import ranges
from .dataio import FORMAT_VERSION, Corpus, FormatError, check_header, expect_eof, read_array
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

    def _rank_hits(self, idx: np.ndarray, dists: np.ndarray, top_c: int) -> ClipHits:
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
        """Scan every entry; returns (hits, stats). `nprobe` is ignored."""
        if top_c < 1:
            raise ValueError("top_c must be at least 1")
        q = self._query(query_emb)
        diff = self.vectors - q
        dists = np.einsum("ij,ij->i", diff, diff)
        stats = SearchStats(distance_evals=self.num_entries)
        idx = np.arange(self.num_entries)
        return self._rank_hits(idx, dists, top_c), stats


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
        if top_c < 1:
            raise ValueError("top_c must be at least 1")
        p = self.num_partitions
        if not 1 <= nprobe <= p:
            raise ValueError(f"nprobe must lie in [1, {p}], got {nprobe}")
        q = self._query(query_emb)
        cdiff = self.centroids - q
        cdist = np.einsum("ij,ij->i", cdiff, cdiff)
        probe = np.lexsort((np.arange(p), cdist))[:nprobe]
        chunks = [
            np.arange(int(self.offsets[part]), int(self.offsets[part + 1]))
            for part in np.sort(probe)
        ]
        idx = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
        diff = self.vectors[idx] - q
        dists = np.einsum("ij,ij->i", diff, diff)
        stats = SearchStats(
            distance_evals=int(idx.shape[0]),
            centroid_evals=p,
            partitions_probed=int(nprobe),
        )
        return self._rank_hits(idx, dists, top_c), stats


# ---------------------------------------------------------------------------
# Building
# ---------------------------------------------------------------------------


def corpus_clip_matrix(corpus: Corpus, params: ModelParams):
    """Embed every clip of every video (manifest order) with the non-TEF head:
    (keys, vectors), one (video ordinal, clip) uint32 key per float32 row."""
    vectors = embed_videos([corpus.features_for(v.video_id) for v in corpus.videos], params,
                           np.float32)
    num_clips = corpus.num_clips
    keys = np.empty((len(vectors), 2), dtype=np.uint32)
    keys[:, 0] = np.repeat(np.arange(len(num_clips)), num_clips)
    keys[:, 1] = ranges(np.zeros_like(num_clips), num_clips)
    return keys, vectors


def build_exact(corpus: Corpus, params: ModelParams) -> ClipIndex:
    keys, vectors = corpus_clip_matrix(corpus, params)
    return ClipIndex(tuple(v.video_id for v in corpus.videos), keys, vectors)


def _kmeans_pp_seed(x: np.ndarray, p: int, rng: np.random.Generator) -> np.ndarray:
    # distances via |x|^2 - 2 x.c + |c|^2 (clamped at 0) to avoid
    # materializing an (entries, dim) difference per seeding step
    n = x.shape[0]
    x_norms = np.einsum("ij,ij->i", x, x)
    centroids = np.empty((p, x.shape[1]), dtype=np.float64)
    first = int(rng.integers(0, n))
    centroids[0] = x[first]
    best = np.maximum(x_norms - 2.0 * (x @ centroids[0]) + x_norms[first], 0.0)
    for i in range(1, p):
        total = best.sum()
        if total <= 0:  # all points coincide with chosen centroids
            pick = int(rng.integers(0, n))
        else:
            pick = int(rng.choice(n, p=best / total))
        centroids[i] = x[pick]
        d = np.maximum(x_norms - 2.0 * (x @ centroids[i]) + x_norms[pick], 0.0)
        best = np.minimum(best, d)
    return centroids


def _assign(x: np.ndarray, centroids: np.ndarray, chunk: int = 16384) -> np.ndarray:
    # ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2; the ||x||^2 term is rank-invariant.
    c_norms = np.einsum("ij,ij->i", centroids, centroids)
    labels = np.empty(x.shape[0], dtype=np.int64)
    for lo in range(0, x.shape[0], chunk):
        block = x[lo:lo + chunk]
        scores = -2.0 * (block @ centroids.T) + c_norms
        labels[lo:lo + chunk] = np.argmin(scores, axis=1)
    return labels


def _centroid_means(x: np.ndarray, labels: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    p, dim = centroids.shape
    counts = np.bincount(labels, minlength=p).astype(np.float64)
    sums = np.empty((p, dim), dtype=np.float64)
    for d in range(dim):
        sums[:, d] = np.bincount(labels, weights=x[:, d], minlength=p)
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
    """
    keys, vectors = corpus_clip_matrix(corpus, params)
    n = vectors.shape[0]
    p = partitions if partitions is not None else int(np.ceil(np.sqrt(n)))
    if not 1 <= p <= n:
        raise ValueError(f"partition count must lie in [1, {n}], got {p}")
    rng = np.random.default_rng(seed)
    x = vectors.astype(np.float64)
    centroids = _kmeans_pp_seed(x, p, rng)
    for _ in range(kmeans_iters):
        labels = _assign(x, centroids)
        centroids = _centroid_means(x, labels, centroids)
    labels = _assign(x, centroids)

    empty = [j for j in range(p) if not np.any(labels == j)]
    if empty:
        dist_to_own = np.einsum("ij,ij->i", x - centroids[labels], x - centroids[labels])
        order = np.argsort(-dist_to_own)
        for j, entry in zip(empty, order):
            centroids[j] = x[entry]
        labels = _assign(x, centroids)

    order = np.lexsort((np.arange(n), labels))
    counts = np.bincount(labels, minlength=p)
    offsets = np.zeros(p + 1, dtype=np.uint64)
    np.cumsum(counts, out=offsets[1:])
    return IvfIndex(
        tuple(v.video_id for v in corpus.videos),
        keys[order],
        vectors[order],
        centroids.astype(np.float32),
        offsets,
    )


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def save_index(index: ClipIndex, path: str) -> None:
    with open(path, "wb") as f:
        f.write(INDEX_MAGIC)
        f.write(np.asarray([FORMAT_VERSION], "<u2").tobytes())
        f.write(np.asarray([index.flavor], "u1").tobytes())
        f.write(np.asarray([index.dim], "<u4").tobytes())
        f.write(np.asarray([index.num_entries], "<u8").tobytes())
        interleaved = np.empty((index.num_entries, 2 + index.dim), dtype="<u4")
        interleaved[:, :2] = index.keys
        interleaved[:, 2:] = index.vectors.astype("<f4").view("<u4")
        f.write(interleaved.tobytes())
        if isinstance(index, IvfIndex):
            f.write(np.asarray([index.num_partitions], "<u4").tobytes())
            f.write(index.centroids.astype("<f4").tobytes())
            f.write(index.offsets.astype("<u8").tobytes())


def load_index(path: str, video_ids: tuple[str, ...]):
    """Load an index; `video_ids` supplies the manifest-order id table."""
    with open(path, "rb") as f:
        check_header(f, INDEX_MAGIC, path)
        flavor = int(read_array(f, "u1", 1, "flavor", path)[0])
        dim = int(read_array(f, "<u4", 1, "dim", path)[0])
        count = int(read_array(f, "<u8", 1, "entry count", path)[0])
        if count == 0:
            raise FormatError(f"{path}: entry count at byte 11 is 0; an index needs entries")
        entries = read_array(f, "<u4", count * (2 + dim), "entries", path)
        interleaved = entries.reshape(count, 2 + dim)
        keys = interleaved[:, :2].astype(np.uint32)
        vectors = interleaved[:, 2:].copy().view("<f4")
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
    if not np.all(np.isfinite(index.vectors)):
        raise FormatError(f"{path}: non-finite vector payload")
    return index
