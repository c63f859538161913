import pytest

import momentsearch.bench as bench
import momentsearch.index as index
import momentsearch.retrieval as retrieval
from momentsearch.bench import BenchConfig, run_bench
from momentsearch.dataio import load_corpus
from momentsearch.model import ModelDims, init_params


@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    # the corpus must dwarf the clip budget for the approximate route to win
    cfg = BenchConfig(num_videos=150, clips_per_video=20, max_moment_clips=14,
                      visual_dim=12, word_dim=6, embed=8, hidden_mlp=10,
                      hidden_lstm=6, n_queries=3, clip_budget=40, nprobe=2,
                      kmeans_iters=3, seed=0)
    workdir = str(tmp_path_factory.mktemp("bench"))
    return cfg, run_bench(cfg, workdir)


class TestBenchCounts:
    def test_entries_per_video(self, small_report):
        _, report = small_report
        assert report["entries_per_video.clip"] == 20
        assert report["entries_per_video.aggregate"] == 189
        assert report["entry_ratio.aggregate_over_clip"] == pytest.approx(9.45)

    def test_distance_evals_reflect_entry_ratio(self, small_report):
        cfg, report = small_report
        assert report["cal.distance_evals_per_query"] == cfg.num_videos * 20
        assert report["aggregate.distance_evals_per_query"] == cfg.num_videos * 189
        ratio = report["aggregate.distance_evals_per_query"] / \
            report["cal.distance_evals_per_query"]
        assert ratio == pytest.approx(9.45)

    def test_approx_evaluates_fewer_distances(self, small_report):
        _, report = small_report
        assert report["approx.distance_evals_per_query"] < \
            report["cal.distance_evals_per_query"]

    def test_index_bytes_ordering(self, small_report):
        _, report = small_report
        assert report["aggregate.index_bytes"] > report["cal.index_bytes"]

    def test_reference_values_recorded_not_asserted(self, small_report):
        _, report = small_report
        assert report["reference_1m_videos.aggregate_index_gb"] == 63.3
        assert report["reference_1m_videos.clip_index_gb"] == 7.45
        assert report["reference_1m_videos.ratio"] == pytest.approx(8.497, abs=1e-3)
        # our extrapolation is arithmetic from entry counts, not forced to match
        extr_ratio = report["extrapolated_1m_videos.aggregate_index_gb"] / \
            report["extrapolated_1m_videos.clip_index_gb"]
        assert extr_ratio == pytest.approx(9.45, abs=0.01)

    def test_every_route_reports_the_same_keys(self, small_report):
        _, report = small_report
        keys = {m: sorted(k[len(m) + 1:] for k in report if k.startswith(m + "."))
                for m in bench.METHODS}
        assert len(keys["cal"]) == 7
        assert keys["cal"] == keys["aggregate"] == keys["approx"]

    def test_provenance_fields_present(self, small_report):
        _, report = small_report
        assert "seed" in report and "config_hash" in report and "git_revision" in report


class TestBenchDeterminism:
    def test_non_timing_fields_reproduce(self, tmp_path):
        cfg = BenchConfig(num_videos=20, clips_per_video=20, visual_dim=8, word_dim=4,
                          embed=6, hidden_mlp=8, hidden_lstm=4, n_queries=2,
                          nprobe=2, kmeans_iters=2, seed=1)
        r1 = run_bench(cfg, str(tmp_path / "a"))
        r2 = run_bench(cfg, str(tmp_path / "b"))
        timing_suffixes = ("_s", "query_s")
        for key in r1:
            if any(key.endswith(sfx) for sfx in timing_suffixes):
                continue
            assert r1[key] == r2[key], key


class TestCalRoute:
    def test_times_exhaustive_search_and_reports_its_distances(self, tmp_path, monkeypatch):
        cfg = BenchConfig(num_videos=20, clips_per_video=20, visual_dim=8, word_dim=4,
                          embed=6, hidden_mlp=8, hidden_lstm=4, n_queries=2, seed=1)
        calls = []
        search = bench.exhaustive_search

        def spy(corpus, query, params, enum_cfg, rcfg):
            result = search(corpus, query, params, enum_cfg, rcfg)
            calls.append((query.query_id, enum_cfg, rcfg.variant, rcfg.nms_iou, rcfg.top_k))
            # A count the route can only report by reading it from the result.
            result.stage_counters["stage1_distances"] += 2 * len(calls)
            return result

        monkeypatch.setattr(bench, "exhaustive_search", spy)
        report = run_bench(cfg, str(tmp_path), methods=("cal",))
        preset = cfg.preset()
        assert [c[1:] for c in calls] == [(preset.enum, "cal", preset.nms_iou, 100)] * 2
        assert len({c[0] for c in calls}) == 2
        assert report["cal.distance_evals_per_query"] == 20 * 20 + 3

    def test_builds_the_candidate_table_before_the_timed_queries(self, tmp_path, monkeypatch):
        cfg = BenchConfig(num_videos=20, clips_per_video=20, visual_dim=8, word_dim=4,
                          embed=6, hidden_mlp=8, hidden_lstm=4, n_queries=2, seed=1)
        embeds = []
        embed_videos = retrieval.embed_videos
        monkeypatch.setattr(retrieval, "embed_videos",
                            lambda *a: embeds.append(len(a[2])) or embed_videos(*a))
        seen = []
        search = bench.exhaustive_search

        def spy(corpus, query, params, enum_cfg, rcfg):
            table = corpus.candidates
            seen.append((table is not None and table.enum_cfg == enum_cfg, len(embeds)))
            return search(corpus, query, params, enum_cfg, rcfg)

        monkeypatch.setattr(bench, "exhaustive_search", spy)
        run_bench(cfg, str(tmp_path), methods=("cal",))
        # The table and its clip matrix exist before the first timed query,
        # and no query embeds a clip again.
        assert seen == [(True, 1), (True, 1)]

    def test_exact_index_is_cast_from_the_table_matrix(self, tmp_path, monkeypatch):
        cfg = BenchConfig(num_videos=20, clips_per_video=20, visual_dim=8, word_dim=4,
                          embed=6, hidden_mlp=8, hidden_lstm=4, n_queries=1, seed=1)
        embeds = []
        embed_videos = index.embed_videos
        monkeypatch.setattr(index, "embed_videos",
                            lambda *a: embeds.append(len(a[2])) or embed_videos(*a))
        run_bench(cfg, str(tmp_path), methods=("cal",))
        assert embeds == []  # every video has candidates: the table's pass feeds the index
        corpus = load_corpus(str(tmp_path / "bench_corpus"))
        params = init_params(ModelDims(8, 4, hidden_mlp=8, embed=6, hidden_lstm=4), cfg.seed)
        index.save_index(index.build_exact(corpus, params), str(tmp_path / "embedded.calx"))
        assert embeds == [20]
        assert (tmp_path / "bench_clip.calx").read_bytes() == \
            (tmp_path / "embedded.calx").read_bytes()
        assert embeds == [20]
