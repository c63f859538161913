import numpy as np
import pytest

from momentsearch.core import VideoMeta
from momentsearch.dataio import Corpus, FormatError
from momentsearch.index import (
    ClipIndex,
    IvfIndex,
    build_exact,
    build_ivf,
    corpus_clip_matrix,
    load_index,
    save_index,
)
from momentsearch.model import ModelDims, init_params
from conftest import make_corpus


def brute_force_top(vectors, keys, video_ids, q, top_c):
    """Independent oracle: full scan, sort by (distance, video_id, clip)."""
    diff = vectors.astype(np.float32) - q.astype(np.float32)
    dists = (diff * diff).sum(axis=1)
    rows = [
        (float(dists[e]), video_ids[int(keys[e, 0])], int(keys[e, 1]))
        for e in range(vectors.shape[0])
    ]
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    return rows[:top_c]


def small_params(visual_dim=6):
    return init_params(ModelDims(visual_dim, 4, hidden_mlp=8, embed=5, hidden_lstm=4), 0)


class TestExactIndex:
    def test_single_entry_always_returned(self):
        video_ids = ("only",)
        keys = np.array([[0, 0]], dtype=np.uint32)
        vectors = np.array([[1.0, 2.0]], dtype=np.float32)
        index = ClipIndex(video_ids, keys, vectors)
        hits, _ = index.search(np.zeros(2), top_c=3)
        assert len(hits) == 1
        assert hits[0].video_id == "only" and hits[0].clip_idx == 0

    def test_distance_counter_counts_full_scan(self, rng):
        corpus = make_corpus(rng, num_videos=3, num_clips=5)
        index = build_exact(corpus, small_params())
        _, stats = index.search(rng.standard_normal(5), top_c=4)
        assert stats.distance_evals == 15

    def test_matches_brute_force(self, rng):
        corpus = make_corpus(rng, num_videos=5, num_clips=9)
        params = small_params()
        index = build_exact(corpus, params)
        keys, vectors = corpus_clip_matrix(corpus, params)
        for trial in range(20):
            q = rng.standard_normal(5).astype(np.float32)
            hits, _ = index.search(q, top_c=7)
            expected = brute_force_top(vectors, keys, index.video_ids, q, 7)
            assert [(h.video_id, h.clip_idx) for h in hits] == \
                [(vid, clip) for _, vid, clip in expected]
            # float32 accumulation order may differ between the scan paths
            np.testing.assert_allclose(
                [h.sq_distance for h in hits], [d for d, _, _ in expected], rtol=1e-5)

    def test_tie_break_by_video_then_clip(self):
        video_ids = ("b", "a")
        keys = np.array([[0, 1], [0, 0], [1, 3]], dtype=np.uint32)
        vectors = np.ones((3, 2), dtype=np.float32)
        index = ClipIndex(video_ids, keys, vectors)
        hits, _ = index.search(np.zeros(2), top_c=3)
        # equal distances: lexicographic video_id, then clip
        assert [(h.video_id, h.clip_idx) for h in hits] == [("a", 3), ("b", 0), ("b", 1)]


    def test_query_of_another_width_refused(self, rng):
        corpus = make_corpus(rng, num_videos=3, num_clips=5)
        exact = build_exact(corpus, small_params())
        ivf = build_ivf(corpus, small_params(), partitions=3, seed=0)
        narrow = ClipIndex(("only",), np.array([[0, 0], [0, 1]], dtype=np.uint32),
                           np.array([[1.0], [2.0]], dtype=np.float32))
        for index, width in ((exact, 4), (exact, 6), (ivf, 1), (narrow, 5)):
            for q in (np.zeros(width), np.zeros((1, index.dim))):
                with pytest.raises(ValueError, match=f"{index.dim}-d vectors"):
                    index.search(q, top_c=2, nprobe=1)
        assert len(narrow.search(np.zeros(1), top_c=2)[0]) == 2


class TestIvfIndex:
    def test_nprobe_full_equals_exact(self, rng):
        for seed in range(10):
            corpus = make_corpus(np.random.default_rng(seed), num_videos=6, num_clips=8)
            params = small_params()
            exact = build_exact(corpus, params)
            ivf = build_ivf(corpus, params, partitions=5, seed=seed)
            q = np.random.default_rng(seed + 50).standard_normal(5)
            exact_hits, _ = exact.search(q, top_c=10)
            ivf_hits, _ = ivf.search(q, top_c=10, nprobe=ivf.num_partitions)
            assert [(h.video_id, h.clip_idx, h.sq_distance) for h in exact_hits] == \
                [(h.video_id, h.clip_idx, h.sq_distance) for h in ivf_hits]

    def test_partial_probe_scans_strictly_fewer(self, rng):
        corpus = make_corpus(rng, num_videos=8, num_clips=10)
        params = small_params()
        ivf = build_ivf(corpus, params, partitions=8, seed=1)
        exact = build_exact(corpus, params)
        q = rng.standard_normal(5)
        _, exact_stats = exact.search(q, top_c=5)
        _, ivf_stats = ivf.search(q, top_c=5, nprobe=2)
        assert ivf_stats.distance_evals < exact_stats.distance_evals
        assert ivf_stats.partitions_probed == 2

    def test_build_is_deterministic(self, rng):
        corpus = make_corpus(rng, num_videos=6, num_clips=8)
        params = small_params()
        a = build_ivf(corpus, params, partitions=4, seed=9)
        b = build_ivf(corpus, params, partitions=4, seed=9)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        np.testing.assert_array_equal(a.vectors, b.vectors)
        np.testing.assert_array_equal(a.offsets, b.offsets)

    def test_separated_blobs_land_in_distinct_partitions(self):
        # two far-apart clusters; k-means with P=2 must split them cleanly
        rng = np.random.default_rng(3)
        video_ids = ("a", "b")
        blob_a = rng.standard_normal((20, 4)) * 0.05
        blob_b = rng.standard_normal((20, 4)) * 0.05 + 50.0
        vectors = np.vstack([blob_a, blob_b]).astype(np.float32)
        keys = np.array([(0, i) for i in range(20)] + [(1, i) for i in range(20)],
                        dtype=np.uint32)
        videos = [VideoMeta("a", 20.0, 1.0, 20), VideoMeta("b", 20.0, 1.0, 20)]
        corpus = Corpus(videos, {"a": blob_a, "b": blob_b})
        from conftest import identity_visual_params

        ivf = build_ivf(corpus, identity_visual_params(4), partitions=2, seed=0)
        sizes = np.diff(ivf.offsets.astype(np.int64))
        assert sorted(sizes.tolist()) == [20, 20]
        # entries in one partition all come from one blob
        first_part = ivf.vectors[:int(sizes[0])]
        assert (np.abs(first_part.mean()) < 5.0) or (np.abs(first_part.mean() - 50.0) < 5.0)

    def test_all_entries_partitioned_once(self, rng):
        corpus = make_corpus(rng, num_videos=5, num_clips=7)
        params = small_params()
        ivf = build_ivf(corpus, params, partitions=6, seed=2)
        assert int(ivf.offsets[-1]) == 35
        seen = {(int(v), int(c)) for v, c in ivf.keys}
        assert len(seen) == 35

    def test_nprobe_bounds(self, rng):
        corpus = make_corpus(rng, num_videos=3, num_clips=5)
        ivf = build_ivf(corpus, small_params(), partitions=3, seed=0)
        with pytest.raises(ValueError):
            ivf.search(np.zeros(5), top_c=1, nprobe=0)
        with pytest.raises(ValueError):
            ivf.search(np.zeros(5), top_c=1, nprobe=4)

    def test_default_partition_count(self, rng):
        corpus = make_corpus(rng, num_videos=5, num_clips=20)  # 100 entries
        ivf = build_ivf(corpus, small_params(), seed=0)
        assert ivf.num_partitions == 10


class TestPersistence:
    def test_exact_round_trip(self, tmp_path, rng):
        corpus = make_corpus(rng, num_videos=4, num_clips=6)
        params = small_params()
        index = build_exact(corpus, params)
        path = str(tmp_path / "i.calx")
        save_index(index, path)
        loaded = load_index(path, index.video_ids)
        q = rng.standard_normal(5)
        hits_a, _ = index.search(q, top_c=5)
        hits_b, stats = loaded.search(q, top_c=5)
        assert [(h.video_id, h.clip_idx, h.sq_distance) for h in hits_a] == \
            [(h.video_id, h.clip_idx, h.sq_distance) for h in hits_b]
        assert stats.distance_evals == 24

    def test_ivf_round_trip(self, tmp_path, rng):
        corpus = make_corpus(rng, num_videos=4, num_clips=6)
        params = small_params()
        index = build_ivf(corpus, params, partitions=3, seed=4)
        path = str(tmp_path / "i.calx")
        save_index(index, path)
        loaded = load_index(path, index.video_ids)
        assert isinstance(loaded, IvfIndex)
        q = rng.standard_normal(5)
        hits_a, _ = index.search(q, top_c=6, nprobe=2)
        hits_b, _ = loaded.search(q, top_c=6, nprobe=2)
        assert [(h.video_id, h.clip_idx, h.sq_distance) for h in hits_a] == \
            [(h.video_id, h.clip_idx, h.sq_distance) for h in hits_b]

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "x.calx")
        with open(path, "wb") as f:
            f.write(b"NOPE" + b"\x00" * 40)
        with pytest.raises(FormatError, match="magic"):
            load_index(path, ("v",))

    def test_truncated_entries(self, tmp_path, rng):
        corpus = make_corpus(rng, num_videos=3, num_clips=5)
        index = build_exact(corpus, small_params())
        path = str(tmp_path / "x.calx")
        save_index(index, path)
        data = open(path, "rb").read()
        with open(path, "wb") as f:
            f.write(data[:-3])
        with pytest.raises(FormatError, match="truncated"):
            load_index(path, index.video_ids)

    def test_declared_entry_count_past_the_file_rejected(self, tmp_path, rng):
        corpus = make_corpus(rng, num_videos=3, num_clips=5)
        index = build_exact(corpus, small_params())
        path = str(tmp_path / "x.calx")
        save_index(index, path)
        data = open(path, "rb").read()
        with open(path, "wb") as f:  # the u8 entry count follows magic, version, flavor, dim
            f.write(data[:11] + (2 ** 40).to_bytes(8, "little") + data[19:])
        with pytest.raises(FormatError, match="truncated while reading entries at byte 19"):
            load_index(path, index.video_ids)

    def test_empty_index_rejected_as_format_error(self, tmp_path, rng):
        corpus = make_corpus(rng, num_videos=3, num_clips=5)
        index = build_exact(corpus, small_params())
        path = str(tmp_path / "x.calx")
        save_index(index, path)
        data = open(path, "rb").read()
        with open(path, "wb") as f:  # header only, declaring zero entries
            f.write(data[:11] + (0).to_bytes(8, "little"))
        with pytest.raises(FormatError, match="entry count at byte 11 is 0"):
            load_index(path, index.video_ids)

    def test_ordinal_out_of_range(self, tmp_path, rng):
        corpus = make_corpus(rng, num_videos=3, num_clips=5)
        index = build_exact(corpus, small_params())
        path = str(tmp_path / "x.calx")
        save_index(index, path)
        with pytest.raises(FormatError, match="ordinal"):
            load_index(path, ("v000",))  # fewer ids than ordinals reference

    @pytest.mark.parametrize("offsets", [
        [0, 3, 35, 17, 61, 68, 72],  # partitions 2 and 3 swapped: decreasing
        [2, 3, 17, 35, 61, 68, 72],  # does not start at 0
    ])
    def test_ivf_offsets_out_of_order(self, tmp_path, rng, offsets):
        corpus = make_corpus(rng, num_videos=6, num_clips=12)
        good = build_ivf(corpus, small_params(), partitions=6, seed=1)
        bad = IvfIndex(good.video_ids, good.keys, good.vectors, good.centroids,
                       np.asarray(offsets, dtype=np.uint64))
        path = str(tmp_path / "x.calx")
        save_index(bad, path)
        with pytest.raises(FormatError, match=r"x\.calx: IVF partition offsets"):
            load_index(path, good.video_ids)
