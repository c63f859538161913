import dataclasses
import json
import math
import os
import re
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from momentsearch.core import TemporalSpan
from momentsearch.core import VideoMeta
from momentsearch.dataio import (
    Corpus,
    FormatError,
    SyntheticSpec,
    generate_synthetic,
    load_corpus,
    load_queries,
    read_array,
    read_checkpoint,
    read_features,
    read_kv_report,
    read_manifest,
    read_results,
    save_corpus,
    write_checkpoint,
    write_features,
    write_jsonl,
    write_kv_report,
    write_manifest,
    write_results,
)
from momentsearch.enumeration import get_preset
from momentsearch.index import build_ivf, load_index, save_index
from momentsearch.model import ModelDims, ModelParams, init_params
from conftest import make_corpus


class TestFeatureFiles:
    def test_round_trip(self, tmp_path, rng):
        path = str(tmp_path / "m.calf")
        matrix = rng.standard_normal((7, 5)).astype(np.float32)
        write_features(path, matrix)
        np.testing.assert_array_equal(read_features(path), matrix)

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "bad.calf")
        with open(path, "wb") as f:
            f.write(b"XXXX" + b"\x00" * 20)
        with pytest.raises(FormatError, match="magic"):
            read_features(path)

    def test_truncation_rejected(self, tmp_path, rng):
        path = str(tmp_path / "t.calf")
        write_features(path, rng.standard_normal((4, 4)).astype(np.float32))
        data = open(path, "rb").read()
        with open(path, "wb") as f:
            f.write(data[:-5])
        with pytest.raises(FormatError, match="truncated"):
            read_features(path)

    def test_trailing_garbage_rejected(self, tmp_path, rng):
        path = str(tmp_path / "g.calf")
        write_features(path, rng.standard_normal((4, 4)).astype(np.float32))
        with open(path, "ab") as f:
            f.write(b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            read_features(path)

    def test_declared_shape_past_the_file_rejected_before_reading(self, tmp_path):
        path = str(tmp_path / "huge.calf")
        with open(path, "wb") as f:
            f.write(b"CALF" + struct.pack("<HII", 1, 2 ** 31, 2 ** 20) + b"\x00" * 16)
        with pytest.raises(FormatError, match=r"truncated while reading payload at byte 14"):
            read_features(path)

    def test_nan_rejected(self, tmp_path):
        path = str(tmp_path / "nan.calf")
        m = np.ones((2, 2), dtype=np.float32)
        m[1, 0] = np.nan
        write_features(path, m)
        with pytest.raises(FormatError, match="non-finite"):
            read_features(path)


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        dims = ModelDims(3, 4, hidden_mlp=5, embed=4, hidden_lstm=6, use_tef=True)
        params = init_params(dims, 5)
        path = str(tmp_path / "m.calw")
        write_checkpoint(path, params, {"seed": 5, "variant": "cal"})
        loaded, meta = read_checkpoint(path)
        assert loaded.dims == dims
        assert meta == {"seed": 5, "variant": "cal"}
        for name in ModelParams.TENSOR_NAMES:
            np.testing.assert_array_equal(getattr(loaded, name), getattr(params, name))

    def test_bitwise_deterministic_files(self, tmp_path):
        dims = ModelDims(3, 4, hidden_mlp=5, embed=4, hidden_lstm=6)
        params = init_params(dims, 1)
        a, b = str(tmp_path / "a.calw"), str(tmp_path / "b.calw")
        write_checkpoint(a, params, {"seed": 1})
        write_checkpoint(b, params, {"seed": 1})
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_corrupt_magic(self, tmp_path):
        dims = ModelDims(3, 4, hidden_mlp=5, embed=4, hidden_lstm=6)
        path = str(tmp_path / "m.calw")
        write_checkpoint(path, init_params(dims, 0), {})
        data = bytearray(open(path, "rb").read())
        data[0] = ord("X")
        with open(path, "wb") as f:
            f.write(bytes(data))
        with pytest.raises(FormatError, match="magic"):
            read_checkpoint(path)

    def test_trailing_garbage(self, tmp_path):
        dims = ModelDims(3, 4, hidden_mlp=5, embed=4, hidden_lstm=6)
        path = str(tmp_path / "m.calw")
        write_checkpoint(path, init_params(dims, 0), {})
        with open(path, "ab") as f:
            f.write(b"junk")
        with pytest.raises(FormatError, match="trailing"):
            read_checkpoint(path)


    @staticmethod
    def _rewrite_first_shape(path, dims):
        """Give the first tensor (mlp_w1, rank 2) a declared shape of `dims`."""
        data = open(path, "rb").read()
        name_len = struct.unpack_from("<H", data, 10)[0]
        rank_at = 12 + name_len
        assert data[rank_at] == 2
        shape = struct.pack("<B", len(dims)) + struct.pack(f"<{len(dims)}I", *dims)
        with open(path, "wb") as f:
            f.write(data[:rank_at] + shape + data[rank_at + 9:])

    @pytest.mark.parametrize("shape", [
        (2 ** 30, 2 ** 30),          # 2^63 payload bytes
        (2 ** 16,) * 4,              # 2^64 elements: an int64 product wraps to 0
    ])
    def test_declared_tensor_shape_past_the_file_rejected(self, tmp_path, shape):
        path = str(tmp_path / "m.calw")
        write_checkpoint(path, init_params(ModelDims(3, 4, hidden_mlp=5, embed=4,
                                                     hidden_lstm=6), 0), {})
        self._rewrite_first_shape(path, shape)
        with pytest.raises(FormatError, match="truncated while reading payload of mlp_w1"):
            read_checkpoint(path)

    def test_tensors_disagreeing_with_dims_rejected(self, tmp_path):
        path = str(tmp_path / "m.calw")
        write_checkpoint(path, init_params(ModelDims(3, 4, hidden_mlp=5, embed=4,
                                                     hidden_lstm=6), 0), {})
        data = open(path, "rb").read()
        with open(path, "wb") as f:
            f.write(data.replace(b'"visual_in": 3', b'"visual_in": 4'))
        with pytest.raises(FormatError, match=r"m\.calw: mlp_w1: expected shape"):
            read_checkpoint(path)

    @pytest.mark.parametrize("record", [
        "[1, 2]",
        '{"dims": 5}',
        '{"dims": {"visual_in": 3, "word_in": 4, "colour": 1}}',
        '{"seed": 1}',
        '{"dims": {"visual_in": 0, "word_in": 4}}',
        '{"dims": ',
    ])
    def test_malformed_config_record_rejected(self, tmp_path, record):
        dims = ModelDims(3, 4, hidden_mlp=5, embed=4, hidden_lstm=6)
        path = str(tmp_path / "m.calw")
        write_checkpoint(path, init_params(dims, 0), {})
        blob = json.dumps({"dims": vars(dims)}, sort_keys=True).encode()
        data = open(path, "rb").read()
        assert data.endswith(struct.pack("<I", len(blob)) + blob)
        new_blob = record.encode()
        with open(path, "wb") as f:
            f.write(data[:-len(blob) - 4] + struct.pack("<I", len(new_blob)) + new_blob)
        with pytest.raises(FormatError, match=r"m\.calw: .*config record|m\.calw: bad 'dims'"):
            read_checkpoint(path)

    @staticmethod
    def _insert_tensor_before(path, before, name, tensor):
        """Insert one more tensor record ahead of tensor `before`, bump the
        count, and return the inserted record's byte offset."""
        data = open(path, "rb").read()
        count, pos = struct.unpack_from("<I", data, 6)[0], 10
        for _ in range(count):
            name_len = struct.unpack_from("<H", data, pos)[0]
            if data[pos + 2:pos + 2 + name_len].decode() == before:
                break
            rank = data[pos + 2 + name_len]
            shape = struct.unpack_from(f"<{rank}I", data, pos + 3 + name_len)
            pos += 3 + name_len + 4 * rank + 8 * math.prod(shape)
        t = np.asarray(tensor, dtype="<f8")
        record = (struct.pack("<H", len(name)) + name.encode() + struct.pack("<B", t.ndim)
                  + struct.pack(f"<{t.ndim}I", *t.shape) + t.tobytes())
        with open(path, "wb") as f:
            f.write(data[:6] + struct.pack("<I", count + 1) + data[10:pos] + record + data[pos:])
        return pos

    @pytest.mark.parametrize("name, kind, value", [("junk", "unknown", np.nan),
                                                   ("mlp_b1", "repeated", 1.0)])
    def test_unknown_or_repeated_tensor_rejected(self, tmp_path, name, kind, value):
        # Both used to load silently: a NaN `junk` was never checked, and a
        # second, finite `mlp_b1` replaced the first.
        dims = ModelDims(3, 4, hidden_mlp=5, embed=4, hidden_lstm=6)
        path = str(tmp_path / "m.calw")
        write_checkpoint(path, init_params(dims, 0), {})
        before = "mlp_w2" if kind == "repeated" else "mlp_b1"
        at = self._insert_tensor_before(path, before, name, np.full(5, value))
        with pytest.raises(FormatError, match=rf"m\.calw: {kind} tensor '{name}' at byte {at}$"):
            read_checkpoint(path)


def test_read_array_sizes_reads_by_itemsize(tmp_path):
    path = str(tmp_path / "a.bin")
    with open(path, "wb") as f:
        f.write(np.arange(3, dtype="<u8").tobytes() + np.array([1.5], "<f4").tobytes())
    with open(path, "rb") as f:
        np.testing.assert_array_equal(read_array(f, "<u8", 3, "counts", path), [0, 1, 2])
        assert read_array(f, "<f4", 1, "value", path).tolist() == [1.5]
        with pytest.raises(FormatError, match=r"truncated while reading tail at byte 28 "
                                              r"\(8 bytes declared\)"):
            read_array(f, "<u4", 2, "tail", path)


class TestLineFormats:
    def test_manifest_round_trip(self, tmp_path):
        from momentsearch.core import VideoMeta

        videos = [VideoMeta("a", 30.0, 2.5, 12, "features/a.calf"),
                  VideoMeta("b", 29.0, 5.0, 6, "features/b.calf")]
        path = str(tmp_path / "manifest.jsonl")
        write_manifest(path, videos)
        assert read_manifest(path) == videos

    def test_manifest_missing_key_positioned(self, tmp_path):
        path = str(tmp_path / "manifest.jsonl")
        with open(path, "w") as f:
            f.write(json.dumps({"video_id": "a"}) + "\n")
        with pytest.raises(FormatError, match=":1:"):
            read_manifest(path)

    def test_manifest_bad_json_line_number(self, tmp_path):
        path = str(tmp_path / "manifest.jsonl")
        with open(path, "w") as f:
            f.write('{"video_id": "a", "duration_s": 10, "clip_length_s": 1, '
                    '"num_clips": 10, "features_path": "x"}\n')
            f.write("not json\n")
        with pytest.raises(FormatError, match=":2:"):
            read_manifest(path)

    @pytest.mark.parametrize("field, value", [("duration_s", "abc"), ("num_clips", 4.7),
                                              ("num_clips", 1), ("clip_length_s", None)])
    def test_manifest_bad_value_positioned(self, tmp_path, field, value):
        path = str(tmp_path / "manifest.jsonl")
        good = {"video_id": "a", "duration_s": 10.0, "clip_length_s": 2.0, "num_clips": 5,
                "features_path": "features/a.calf"}
        write_jsonl(path, [good, dict(good, video_id="b", **{field: value})])
        with pytest.raises(FormatError, match=re.escape(f"{path}:2: ")):
            read_manifest(path)

    @pytest.mark.parametrize("spans", [[[2.0, 1.0]], [], [[1.0]], 3, [["x", 1.0]]])
    def test_queries_bad_spans_positioned(self, tmp_path, spans):
        spec = SyntheticSpec(num_videos=3, clips_per_video=12, visual_dim=4, word_dim=3,
                             vocab_size=8, queries_per_video=1, seed=0)
        corpus_dir = str(tmp_path / "c")
        generate_synthetic(spec, get_preset("didemo"), corpus_dir)
        path = os.path.join(corpus_dir, "queries.jsonl")
        with open(path) as f:
            records = [json.loads(line) for line in f]
        records[1]["spans"] = spans
        write_jsonl(path, records)
        with pytest.raises(FormatError, match=re.escape(f"{path}:2: bad spans: ")):
            load_queries(path, corpus_dir)

    def test_results_round_trip(self, tmp_path):
        from momentsearch.core import Moment, VideoMeta
        from momentsearch.costs import ScoredMoment
        from momentsearch.retrieval import RankedResult

        video = VideoMeta("v", 10.0, 1.0, 10)
        ranked = [ScoredMoment(Moment.from_clips(video, 0, 3), 0.25),
                  ScoredMoment(Moment.from_clips(video, 2, 5), 0.5)]
        path = str(tmp_path / "results.jsonl")
        write_results(path, [RankedResult("q0", ranked)], seed=7, universe=30, top_k=10)
        header, body = read_results(path)
        assert header == {"seed": 7, "universe": 30, "top_k": 10}
        assert body[0]["query_id"] == "q0"
        assert body[0]["ranked"] == [["v", 0.0, 4.0, 0.25], ["v", 2.0, 6.0, 0.5]]

    def test_results_header_required(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        with open(path, "w") as f:
            f.write(json.dumps({"query_id": "q", "ranked": []}) + "\n")
        with pytest.raises(FormatError, match="header"):
            read_results(path)

    def test_results_duplicate_query_id_rejected(self, tmp_path):
        path = str(tmp_path / "r.jsonl")
        with open(path, "w") as f:
            f.write(json.dumps({"seed": 0, "universe": 1, "top_k": 1}) + "\n\n")
            for qid in ("q0", "q1", "q0"):
                f.write(json.dumps({"query_id": qid, "ranked": []}) + "\n")
        # the blank second line counts: positions are file lines, not record numbers
        with pytest.raises(FormatError, match=r"r\.jsonl:5: duplicate query_id 'q0'"):
            read_results(path)

    def test_queries_duplicate_query_id_rejected(self, tmp_path):
        spec = SyntheticSpec(num_videos=3, clips_per_video=12, visual_dim=4, word_dim=3,
                             vocab_size=8, queries_per_video=1, seed=0)
        corpus_dir = str(tmp_path / "c")
        generate_synthetic(spec, get_preset("didemo"), corpus_dir)
        path = os.path.join(corpus_dir, "queries.jsonl")
        with open(path) as f:
            lines = f.readlines()
        with open(path, "w") as f:
            f.writelines(lines + lines[1:2])
        with pytest.raises(FormatError, match=r"queries\.jsonl:4: duplicate query_id"):
            load_queries(path, corpus_dir)

    def test_kv_report_round_trip(self, tmp_path):
        path = str(tmp_path / "report.txt")
        write_kv_report(path, {"recall@1_iou0.50": "0.81", "seed": 3})
        assert read_kv_report(path) == {"recall@1_iou0.50": "0.81", "seed": "3"}


class TestSyntheticGenerator:
    def test_same_seed_bit_identical_outputs(self, tmp_path):
        spec = SyntheticSpec(num_videos=6, clips_per_video=12, visual_dim=8,
                             word_dim=6, vocab_size=20, queries_per_video=2, seed=3)
        preset = get_preset("didemo")
        dir_a, dir_b = str(tmp_path / "a"), str(tmp_path / "b")
        generate_synthetic(spec, preset, dir_a)
        generate_synthetic(spec, preset, dir_b)
        for rel_root, _dirs, files in os.walk(dir_a):
            for name in files:
                path_a = os.path.join(rel_root, name)
                path_b = path_a.replace(dir_a, dir_b, 1)
                assert open(path_a, "rb").read() == open(path_b, "rb").read(), name

    def test_zero_queries_per_video_plants_nothing(self, tmp_path):
        spec = SyntheticSpec(num_videos=3, clips_per_video=12, queries_per_video=0, seed=0)
        out = str(tmp_path / "c")
        corpus, queries = generate_synthetic(spec, get_preset("didemo"), out)
        assert len(corpus) == 3 and queries == []
        assert os.path.getsize(os.path.join(out, "queries.jsonl")) == 0
        assert os.listdir(os.path.join(out, "words")) == []

    def test_planted_spans_on_clip_grid(self, tmp_path):
        spec = SyntheticSpec(num_videos=10, clips_per_video=(8, 14), visual_dim=6,
                             word_dim=4, vocab_size=16, queries_per_video=2, seed=9)
        preset = get_preset("charades-sta")
        corpus, queries = generate_synthetic(spec, preset, str(tmp_path / "c"))
        for q in queries:
            video = corpus.video(q.ground_truth.video_id)
            for span in q.ground_truth.annotations:
                first = span.start / video.clip_length
                assert first == pytest.approx(round(first), abs=1e-9)
                assert span.end <= video.duration + 1e-9

    def test_zero_noise_plants_latent_exactly(self, tmp_path):
        spec = SyntheticSpec(num_videos=4, clips_per_video=12, visual_dim=6,
                             word_dim=4, vocab_size=16, queries_per_video=1,
                             signal_noise=0.0, seed=5)
        preset = get_preset("didemo")
        out = str(tmp_path / "c")
        corpus, queries = generate_synthetic(spec, preset, out)
        readout = read_features(os.path.join(out, "readout.calf")).astype(np.float64)
        for q in queries:
            video = corpus.video(q.ground_truth.video_id)
            span = q.ground_truth.annotations[0]
            first = int(round(span.start / video.clip_length))
            last = int(round(span.end / video.clip_length)) - 1
            latent = np.float32(readout @ q.word_vectors.mean(axis=0))
            feats = corpus.features_for(video.video_id)
            for k in range(first, last + 1):
                np.testing.assert_array_equal(feats[k], latent.astype(np.float64))

    def test_corpus_reload_matches_generated(self, tmp_path):
        spec = SyntheticSpec(num_videos=5, clips_per_video=12, visual_dim=6,
                             word_dim=4, vocab_size=16, seed=1)
        out = str(tmp_path / "c")
        corpus, queries = generate_synthetic(spec, get_preset("didemo"), out)
        reloaded = load_corpus(out)
        assert [v.video_id for v in reloaded.videos] == [v.video_id for v in corpus.videos]
        for v in corpus.videos:
            np.testing.assert_array_equal(
                reloaded.features_for(v.video_id), corpus.features_for(v.video_id))
        reloaded_queries = load_queries(os.path.join(out, "queries.jsonl"), out)
        assert [q.query_id for q in reloaded_queries] == [q.query_id for q in queries]

    def test_annotation_copies_for_judgment_rule(self, tmp_path):
        spec = SyntheticSpec(num_videos=3, clips_per_video=12, visual_dim=4,
                             word_dim=4, vocab_size=8, annotations_per_query=3, seed=2)
        _, queries = generate_synthetic(spec, get_preset("didemo"), str(tmp_path / "c"))
        for q in queries:
            assert len(q.ground_truth.annotations) == 3

    def test_planted_moments_disjoint_within_video(self, tmp_path):
        spec = SyntheticSpec(num_videos=8, clips_per_video=12, visual_dim=4,
                             word_dim=4, vocab_size=8, queries_per_video=2, seed=4)
        _, queries = generate_synthetic(spec, get_preset("didemo"), str(tmp_path / "c"))
        by_video: dict[str, list[TemporalSpan]] = {}
        for q in queries:
            by_video.setdefault(q.ground_truth.video_id, []).append(
                q.ground_truth.annotations[0])
        for spans in by_video.values():
            for i in range(len(spans)):
                for j in range(i + 1, len(spans)):
                    overlap = min(spans[i].end, spans[j].end) - max(spans[i].start, spans[j].start)
                    assert overlap <= 0


# ---------------------------------------------------------------------------
# Malformed binary files: truncation at every byte, corrupted size fields
# ---------------------------------------------------------------------------


def _corpus_member_loader(root, rng):
    """(path, loader): the middle feature file of a three-video corpus, and
    `load_corpus` of that corpus with the middle file read from the path given."""
    corpus_dir = os.path.join(root, "corpus")
    corpus = make_corpus(rng, num_videos=3, num_clips=3, visual_dim=2)
    save_corpus(corpus_dir, corpus.videos,
                {v.video_id: corpus.features_for(v.video_id) for v in corpus.videos})
    videos = [dataclasses.replace(v, feature_ref=os.path.join(corpus_dir, "features",
                                                              f"{v.video_id}.calf"))
              for v in corpus.videos]

    def load(path):
        member_dir = os.path.join(root, "member_corpus")
        os.makedirs(member_dir, exist_ok=True)
        write_manifest(os.path.join(member_dir, "manifest.jsonl"),
                       [videos[0], dataclasses.replace(videos[1], feature_ref=path), videos[2]])
        return load_corpus(member_dir)

    return videos[1].feature_ref, load


def _words_loader(root, rng):
    """(path, loader): the middle words file of three queries, and `load_queries`
    of those queries with the middle words read from the path given."""
    paths = [os.path.join(root, f"w{k}.calf") for k in range(3)]
    for k, path in enumerate(paths):
        write_features(path, rng.standard_normal((2 + k, 2)).astype(np.float32))

    def load(path):
        queries = os.path.join(root, "words_queries.jsonl")
        write_jsonl(queries, [{"query_id": f"q{k}", "video_id": "v000", "spans": [[0.0, 2.0]],
                               "words_path": path if k == 1 else p}
                              for k, p in enumerate(paths)])
        return load_queries(queries, root)

    return paths[1], load


def _small_binaries(root):
    """Write one small file of each binary format, plus a corpus member and a
    words file read through their loaders; return {kind: (path, loader)}."""
    rng = np.random.default_rng(0)
    calf = os.path.join(root, "m.calf")
    write_features(calf, rng.standard_normal((3, 2)).astype(np.float32))
    calw = os.path.join(root, "m.calw")
    params = init_params(ModelDims(2, 2, hidden_mlp=2, embed=2, hidden_lstm=1), 0)
    write_checkpoint(calw, params, {"seed": 0})
    corpus = make_corpus(rng, num_videos=2, num_clips=3, visual_dim=2)
    index = build_ivf(corpus, params, partitions=2, seed=0)
    calx = os.path.join(root, "m.calx")
    save_index(index, calx)
    return {
        "calf": (calf, read_features),
        "calw": (calw, read_checkpoint),
        "calx": (calx, lambda path: load_index(path, index.video_ids)),
        "member": _corpus_member_loader(root, rng),
        "words": _words_loader(root, rng),
    }


def _size_fields(kind, data):
    """(offset, width) of every length, count or shape field of a file."""
    if kind in ("calf", "member", "words"):
        return [(6, 4), (10, 4)]
    if kind == "calx":
        dim, count = struct.unpack_from("<IQ", data, 7)
        return [(7, 4), (11, 8), (19 + count * (2 + dim) * 4, 4)]
    fields, pos = [(6, 4)], 10
    for _ in range(struct.unpack_from("<I", data, 6)[0]):
        name_len = struct.unpack_from("<H", data, pos)[0]
        fields.append((pos, 2))
        pos += 2 + name_len
        rank = data[pos]
        fields.append((pos, 1))
        shape = struct.unpack_from(f"<{rank}I", data, pos + 1)
        fields += [(pos + 1 + 4 * k, 4) for k in range(rank)]
        pos += 1 + 4 * rank + 8 * math.prod(shape)
    return fields + [(pos, 4)]


@pytest.fixture(scope="module")
def small_binaries(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("binaries"))
    return root, _small_binaries(root)


@pytest.mark.parametrize("kind", ["calf", "calw", "calx", "member", "words"])
def test_truncation_at_every_byte_rejected(small_binaries, kind):
    root, files = small_binaries
    path, load = files[kind]
    data = open(path, "rb").read()
    cut_path = os.path.join(root, f"cut.{kind}")
    for cut in range(len(data)):
        with open(cut_path, "wb") as f:
            f.write(data[:cut])
        with pytest.raises(FormatError):
            load(cut_path)


@pytest.mark.parametrize("kind", ["calf", "calw", "calx", "member", "words"])
@settings(max_examples=150, deadline=None)
@given(pick=st.data())
def test_corrupted_size_field_rejected(small_binaries, kind, pick):
    root, files = small_binaries
    path, load = files[kind]
    data = open(path, "rb").read()
    offset, width = pick.draw(st.sampled_from(_size_fields(kind, data)))
    value = pick.draw(st.integers(0, 2 ** (8 * width) - 1))
    assume(value != int.from_bytes(data[offset:offset + width], "little"))
    bad_path = os.path.join(root, f"bad.{kind}")
    with open(bad_path, "wb") as f:
        f.write(data[:offset] + value.to_bytes(width, "little") + data[offset + width:])
    with pytest.raises(FormatError, match=r"bad\." + kind):
        load(bad_path)


# ---------------------------------------------------------------------------
# Corpus and queries loaded as one flat array each
# ---------------------------------------------------------------------------


def _save_shapes(root, widths, clips=3):
    """Save a corpus of one video per width, `clips` clips each; return its paths."""
    rng = np.random.default_rng(1)
    videos = [VideoMeta(f"v{k}", 2.0 * clips, 2.0, clips) for k in range(len(widths))]
    save_corpus(root, videos, {v.video_id: rng.standard_normal((clips, w))
                               for v, w in zip(videos, widths)})
    return [os.path.join(root, "features", f"{v.video_id}.calf") for v in videos]


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("k", [0, 3])
def test_non_finite_feature_names_its_file_and_element(tmp_path, k, value):
    paths = _save_shapes(str(tmp_path), [4] * 5)
    m = read_features(paths[k])
    m[1, 3] = value  # element 7 of the file
    write_features(paths[k], m)
    with pytest.raises(FormatError, match=re.escape(f"{paths[k]}: non-finite value at element 7")):
        load_corpus(str(tmp_path))


@pytest.mark.parametrize("k", [0, 2])
def test_non_finite_word_names_its_file_and_element(tmp_path, k):
    rng = np.random.default_rng(2)
    records = []
    for q in range(4):
        words = rng.standard_normal((3, 2)).astype(np.float32)
        if q == k:
            words[2, 0] = np.nan  # element 4 of the file
        write_features(str(tmp_path / f"w{q}.calf"), words)
        records.append({"query_id": f"q{q}", "video_id": "v", "spans": [[0, 1]],
                        "words_path": f"w{q}.calf"})
    write_jsonl(str(tmp_path / "queries.jsonl"), records)
    path = os.path.join(str(tmp_path), f"w{k}.calf")
    with pytest.raises(FormatError, match=re.escape(f"{path}: non-finite value at element 4")):
        load_queries(str(tmp_path / "queries.jsonl"), str(tmp_path))


def test_mixed_feature_widths_rejected_naming_the_file(tmp_path):
    paths = _save_shapes(str(tmp_path), [4, 4, 6, 4])
    with pytest.raises(FormatError, match=re.escape(f"{paths[2]}: 6 features per clip, but "
                                                    f"{paths[0]} has 4")):
        load_corpus(str(tmp_path))


def test_mixed_block_widths_rejected(rng):
    videos = [VideoMeta(f"v{k}", 6.0, 2.0, 3) for k in range(2)]
    with pytest.raises(ValueError, match="v1: feature block of shape \\(3, 6\\)"):
        Corpus(videos, {"v0": rng.standard_normal((3, 4)), "v1": rng.standard_normal((3, 6))})


def test_feature_rows_must_equal_num_clips(tmp_path):
    paths = _save_shapes(str(tmp_path), [4, 4])
    write_features(paths[1], np.zeros((5, 4), dtype=np.float32))
    with pytest.raises(ValueError, match="v1: feature rows 5 != num_clips 3"):
        load_corpus(str(tmp_path))


def test_num_clips_too_large_to_hold_refused_as_a_rows_error(tmp_path):
    # 10^9 clips of 4 features would take 30 GB: the loader must not stop
    # at the allocation but name the video whose file holds 3 rows.
    _save_shapes(str(tmp_path), [4, 4])
    manifest = str(tmp_path / "manifest.jsonl")
    videos = read_manifest(manifest)
    videos[1] = dataclasses.replace(videos[1], num_clips=10 ** 9, duration=2.0 * 10 ** 9)
    write_manifest(manifest, videos)
    with pytest.raises(ValueError, match="v1: feature rows 3 != num_clips 1000000000"):
        load_corpus(str(tmp_path))
