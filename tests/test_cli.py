import argparse
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from momentsearch.cli import build_parser, main
from momentsearch.core import VideoMeta
from momentsearch.dataio import (
    read_checkpoint,
    read_kv_report,
    read_results,
    save_corpus,
    write_checkpoint,
    write_features,
    write_jsonl,
)
from momentsearch.model import ModelDims, ModelParams, init_params


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen -> train -> index, shared by the search/eval tests below."""
    root = tmp_path_factory.mktemp("cli")
    corpus_dir = str(root / "corpus")
    spec_path = str(root / "gen.json")
    train_cfg_path = str(root / "train.json")
    ckpt = str(root / "model.calw")
    idx = str(root / "clips.calx")
    with open(spec_path, "w") as f:
        json.dump({"num_videos": 6, "clips_per_video": 12, "visual_dim": 8,
                   "word_dim": 6, "vocab_size": 24, "queries_per_video": 1,
                   "signal_noise": 0.05, "seed": 3}, f)
    with open(train_cfg_path, "w") as f:
        json.dump({"lr0": 0.01, "momentum": 0.9, "epochs": 2, "batch_triples": 6,
                   "dims": {"hidden_mlp": 8, "embed": 6, "hidden_lstm": 6}}, f)
    assert main(["gen", "--spec", spec_path, "--out", corpus_dir]) == 0
    assert main(["train", "--corpus", corpus_dir, "--preset", "didemo",
                 "--config", train_cfg_path, "--out", ckpt, "--seed", "0"]) == 0
    assert main(["index", "--corpus", corpus_dir, "--ckpt", ckpt,
                 "--flavor", "exact", "--out", idx]) == 0
    return {"root": root, "corpus": corpus_dir, "ckpt": ckpt, "index": idx,
            "queries": os.path.join(corpus_dir, "queries.jsonl"),
            "train_cfg": train_cfg_path}


class TestPipeline:
    def test_gen_outputs_exist(self, pipeline):
        for rel in ("manifest.jsonl", "queries.jsonl", "readout.calf", "gen_meta.json"):
            assert os.path.exists(os.path.join(pipeline["corpus"], rel))

    def test_checkpoint_carries_seed_and_dims(self, pipeline):
        params, meta = read_checkpoint(pipeline["ckpt"])
        assert meta["seed"] == 0
        assert params.dims.visual_in == 8

    def test_loss_log_written(self, pipeline):
        log_path = pipeline["ckpt"] + ".loss.jsonl"
        lines = [json.loads(line) for line in open(log_path)]
        assert lines[0]["seed"] == 0
        assert len(lines) == 3  # header + 2 epochs
        assert {"epoch", "lr", "mean_loss", "active_intra", "active_inter", "grad_norm",
                "wall_time_s"} <= set(lines[1])
        assert sorted(lines[1]["grad_norm"]) == sorted(ModelParams.TENSOR_NAMES)

    def test_search_eval_end_to_end(self, pipeline, tmp_path):
        results = str(tmp_path / "results.jsonl")
        report = str(tmp_path / "report.txt")
        assert main(["search", "--corpus", pipeline["corpus"], "--ckpt", pipeline["ckpt"],
                     "--queries", pipeline["queries"], "--mode", "exhaustive",
                     "--preset", "didemo", "--top-k", "50", "--budget", "130",
                     "--out", results, "--seed", "1"]) == 0
        header, body = read_results(results)
        assert header["seed"] == 1
        assert header["universe"] == 6 * 21
        assert len(body) == 6
        assert main(["eval", "--results", results, "--gt", pipeline["queries"],
                     "--preset", "didemo", "--corpus", pipeline["corpus"],
                     "--out", report]) == 0
        kv = read_kv_report(report)
        assert "recall@1_iou0.50" in kv
        assert float(kv["oracle_recall_iou0.50"]) == 1.0
        assert kv["config.seed"] == "1"

    def test_two_stage_full_budget_byte_identical(self, pipeline, tmp_path):
        universe = 6 * 21
        out_a = str(tmp_path / "a.jsonl")
        out_b = str(tmp_path / "b.jsonl")
        out_c = str(tmp_path / "c.jsonl")
        common = ["--corpus", pipeline["corpus"], "--ckpt", pipeline["ckpt"],
                  "--queries", pipeline["queries"], "--preset", "didemo",
                  "--top-k", "40", "--seed", "0"]
        assert main(["search", *common, "--mode", "exhaustive",
                     "--budget", str(universe), "--out", out_a]) == 0
        assert main(["search", *common, "--mode", "two-stage",
                     "--budget", str(universe), "--out", out_b]) == 0
        assert main(["search", *common, "--mode", "approx", "--index", pipeline["index"],
                     "--budget", str(universe), "--clip-budget", str(6 * 12),
                     "--out", out_c]) == 0
        bytes_a = open(out_a, "rb").read()
        assert bytes_a == open(out_b, "rb").read()
        assert bytes_a == open(out_c, "rb").read()

    def test_single_video_search_and_eval(self, pipeline, tmp_path):
        results = str(tmp_path / "sv.jsonl")
        report = str(tmp_path / "sv_report.txt")
        assert main(["search", "--corpus", pipeline["corpus"], "--ckpt", pipeline["ckpt"],
                     "--queries", pipeline["queries"], "--mode", "exhaustive",
                     "--preset", "didemo", "--top-k", "21", "--budget", "21",
                     "--single-video", "--out", results]) == 0
        assert main(["eval", "--results", results, "--gt", pipeline["queries"],
                     "--preset", "didemo", "--single-video", "--ks", "1,5",
                     "--out", report]) == 0
        kv = read_kv_report(report)
        assert "recall@5_iou0.50" in kv
        assert kv["config.mode"] == "single_video"
        assert "oracle_recall_iou0.50" not in kv
        # With the corpus, the report carries the oracle bound as corpus mode does.
        assert main(["eval", "--results", results, "--gt", pipeline["queries"],
                     "--preset", "didemo", "--single-video", "--ks", "1,5",
                     "--corpus", pipeline["corpus"], "--out", report]) == 0
        kv = read_kv_report(report)
        assert float(kv["oracle_recall_iou0.50"]) == 1.0
        assert "oracle_recall_iou0.70" in kv

    def test_retrain_rerank_runs(self, pipeline, tmp_path):
        results = str(tmp_path / "r.jsonl")
        rerank_ckpt = str(tmp_path / "rerank.calw")
        cfg = str(tmp_path / "rr.json")
        with open(cfg, "w") as f:
            json.dump({"lr0": 0.005, "momentum": 0.9, "epochs": 1, "batch_triples": 6,
                       "dims": {"hidden_mlp": 8, "embed": 6, "hidden_lstm": 6}}, f)
        assert main(["search", "--corpus", pipeline["corpus"], "--ckpt", pipeline["ckpt"],
                     "--queries", pipeline["queries"], "--mode", "exhaustive",
                     "--preset", "didemo", "--top-k", "30", "--out", results]) == 0
        assert main(["retrain-rerank", "--base", pipeline["ckpt"],
                     "--retrievals", results, "--corpus", pipeline["corpus"],
                     "--queries", pipeline["queries"], "--preset", "didemo",
                     "--config", cfg, "--out", rerank_ckpt]) == 0
        params, meta = read_checkpoint(rerank_ckpt)
        assert meta["rank_rate"] == 0.02
        assert meta["retrained_from"] == os.path.basename(pipeline["ckpt"])

    def test_rerank_ckpt_in_search(self, pipeline, tmp_path):
        # TEF re-ranker on top of the non-TEF stage-one model
        tef_ckpt = str(tmp_path / "tef.calw")
        cfg = str(tmp_path / "t.json")
        with open(cfg, "w") as f:
            json.dump({"lr0": 0.005, "momentum": 0.9, "epochs": 1, "batch_triples": 6,
                       "dims": {"hidden_mlp": 8, "embed": 6, "hidden_lstm": 6}}, f)
        assert main(["train", "--corpus", pipeline["corpus"], "--preset", "didemo",
                     "--config", cfg, "--out", tef_ckpt, "--tef"]) == 0
        out = str(tmp_path / "tef_results.jsonl")
        stats = str(tmp_path / "stats.jsonl")
        assert main(["search", "--corpus", pipeline["corpus"], "--ckpt", pipeline["ckpt"],
                     "--rerank-ckpt", tef_ckpt, "--queries", pipeline["queries"],
                     "--mode", "approx", "--index", pipeline["index"],
                     "--preset", "didemo", "--top-k", "10", "--clip-budget", "20",
                     "--stats-out", stats, "--out", out]) == 0
        _, body = read_results(out)
        assert body
        stat_lines = [json.loads(line) for line in open(stats)]
        assert "stage2_distances" in stat_lines[0]

    def test_determinism_across_runs(self, pipeline, tmp_path):
        ckpt_b = str(tmp_path / "again.calw")
        assert main(["train", "--corpus", pipeline["corpus"], "--preset", "didemo",
                     "--config", pipeline["train_cfg"], "--out", ckpt_b,
                     "--seed", "0"]) == 0
        assert open(pipeline["ckpt"], "rb").read() == open(ckpt_b, "rb").read()


class TestEvalFixture:
    def test_hand_computed_recalls(self, tmp_path):
        """Three hand-written queries with worked-out recall arithmetic."""
        import numpy as np

        from momentsearch.dataio import write_features

        os.makedirs(tmp_path / "words")
        gt_lines = []
        for qid, vid in (("q1", "v_a"), ("q2", "v_b"), ("q3", "v_c")):
            words_rel = os.path.join("words", f"{qid}.calf")
            write_features(str(tmp_path / words_rel), np.ones((2, 3), dtype=np.float32))
            gt_lines.append({"query_id": qid, "video_id": vid,
                             "spans": [[0.0, 10.0]], "words_path": words_rel})
        gt_path = str(tmp_path / "queries.jsonl")
        with open(gt_path, "w") as f:
            for line in gt_lines:
                f.write(json.dumps(line) + "\n")

        results_path = str(tmp_path / "results.jsonl")
        with open(results_path, "w") as f:
            f.write(json.dumps({"seed": 0, "universe": 100, "top_k": 10}) + "\n")
            # q1: correct at rank 1; q2: correct at rank 2; q3: never correct
            f.write(json.dumps({"query_id": "q1",
                                "ranked": [["v_a", 0.0, 10.0, 0.1]]}) + "\n")
            f.write(json.dumps({"query_id": "q2",
                                "ranked": [["v_b", 20.0, 30.0, 0.1],
                                           ["v_b", 0.0, 10.0, 0.2]]}) + "\n")
            f.write(json.dumps({"query_id": "q3",
                                "ranked": [["v_a", 0.0, 10.0, 0.1]]}) + "\n")

        report_path = str(tmp_path / "report.txt")
        assert main(["eval", "--results", results_path, "--gt", gt_path,
                     "--preset", "charades-sta", "--out", report_path]) == 0
        kv = read_kv_report(report_path)
        assert float(kv["recall@1_iou0.50"]) == pytest.approx(1 / 3)
        assert float(kv["recall@10_iou0.50"]) == pytest.approx(2 / 3)
        assert float(kv["recall@1_iou0.70"]) == pytest.approx(1 / 3)
        # truncated run (top_k < universe): no median-rank rows emitted
        assert not any(k.startswith("median_rank") for k in kv)

    def test_approx_eval_recall_past_the_universe(self, pipeline, tmp_path):
        """recall@K with K above the universe equals `recall_at_k`: a query
        whose correct moment is missing from its list misses at every K."""
        from momentsearch.core import TemporalSpan
        from momentsearch.dataio import load_queries
        from momentsearch.evaluation import Prediction, recall_at_k

        corpus, spec = str(tmp_path / "corpus"), str(tmp_path / "gen.json")
        index, results = str(tmp_path / "clips.calx"), str(tmp_path / "r.jsonl")
        report = str(tmp_path / "report.txt")
        with open(spec, "w") as f:  # same dims as the pipeline model
            json.dump({"num_videos": 6, "clips_per_video": [8, 14], "visual_dim": 8,
                       "word_dim": 6, "vocab_size": 24, "queries_per_video": 2,
                       "signal_noise": 0.05, "seed": 3}, f)
        queries = os.path.join(corpus, "queries.jsonl")
        assert main(["gen", "--spec", spec, "--out", corpus]) == 0
        assert main(["index", "--corpus", corpus, "--ckpt", pipeline["ckpt"],
                     "--out", index]) == 0
        assert main(["search", "--corpus", corpus, "--ckpt", pipeline["ckpt"],
                     "--queries", queries, "--mode", "approx", "--index", index,
                     "--preset", "didemo", "--top-k", "20", "--clip-budget", "20",
                     "--out", results]) == 0
        assert main(["eval", "--results", results, "--gt", queries, "--preset", "didemo",
                     "--out", report]) == 0
        header, body = read_results(results)
        assert header["universe"] < 100
        gts = {q.query_id: q.ground_truth for q in load_queries(queries, corpus)}
        ranked = {rec["query_id"]: [Prediction(v, TemporalSpan(s, e), c)
                                    for v, s, e, c in rec["ranked"]] for rec in body}
        kv = read_kv_report(report)
        for iou in (0.5, 0.7):
            want = recall_at_k(ranked, gts, 100, iou, min_judgments=2)
            assert want < 1.0
            assert float(kv[f"recall@100_iou{iou:.2f}"]) == pytest.approx(want, abs=1e-6)


class TestBenchAndReportCommands:
    def test_bench_and_report_show(self, tmp_path, capsys):
        spec = str(tmp_path / "bench.json")
        out = str(tmp_path / "bench_report.txt")
        with open(spec, "w") as f:
            json.dump({"num_videos": 12, "clips_per_video": 20, "visual_dim": 6,
                       "word_dim": 4, "embed": 6, "hidden_mlp": 8, "hidden_lstm": 4,
                       "n_queries": 1, "nprobe": 2, "kmeans_iters": 2}, f)
        assert main(["bench", "--spec", spec, "--methods", "cal,aggregate",
                     "--workdir", str(tmp_path / "w"), "--out", out]) == 0
        kv = read_kv_report(out)
        assert kv["entries_per_video.aggregate"] == "189"
        capsys.readouterr()
        assert main(["report", "show", "--report", out]) == 0
        shown = capsys.readouterr().out
        assert "entry_ratio.aggregate_over_clip = 9.45" in shown


class TestErrorHandling:
    def test_missing_corpus_nonzero_with_code(self, capsys):
        rc = main(["search", "--corpus", "/nonexistent", "--ckpt", "x",
                   "--queries", "y", "--preset", "didemo", "--out", "/tmp/zz.jsonl"])
        assert rc != 0
        err = capsys.readouterr().err
        assert err.startswith("E_")
        assert err.count("\n") == 1  # single line

    def test_bad_spec_json(self, tmp_path, capsys):
        bad = str(tmp_path / "bad.json")
        with open(bad, "w") as f:
            f.write("{not json")
        rc = main(["gen", "--spec", bad, "--out", str(tmp_path / "c")])
        assert rc != 0
        assert capsys.readouterr().err.startswith("E_FORMAT")

    @pytest.mark.parametrize("spec", [{"bogus": 1}, {"clips_per_video": 12.0}])
    def test_gen_bad_spec_field_is_one_config_line(self, tmp_path, capsys, spec):
        path = str(tmp_path / "spec.json")
        with open(path, "w") as f:
            json.dump(spec, f)
        out = tmp_path / "c"
        rc = main(["gen", "--spec", path, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("E_CONFIG: bad synthetic spec: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    def test_bench_unknown_method_rejected(self, tmp_path, capsys):
        out = str(tmp_path / "bench_report.txt")
        rc = main(["bench", "--methods", "cal,aprox", "--workdir", str(tmp_path / "w"),
                   "--out", out])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("E_INVALID: unknown bench method(s) 'aprox'")
        assert err.count("\n") == 1
        assert not os.path.exists(out) and not os.path.exists(tmp_path / "w")

    def test_bench_without_queries_rejected(self, tmp_path, capsys):
        spec = str(tmp_path / "bench.json")
        with open(spec, "w") as f:
            json.dump({"num_videos": 12, "n_queries": 0}, f)
        out = str(tmp_path / "bench_report.txt")
        rc = main(["bench", "--spec", spec, "--workdir", str(tmp_path / "w"), "--out", out])
        assert rc == 1
        assert capsys.readouterr().err == "E_INVALID: n_queries must be at least 1, got 0\n"
        assert not os.path.exists(out) and not os.path.exists(tmp_path / "w")

    @pytest.mark.parametrize("field, value, message", [
        ("kmeans_iters", -1, "kmeans_iters must be at least 0, got -1"),
        ("nprobe", 0, "nprobe must be at least 1, got 0"),
        ("clip_budget", 0, "clip_budget must be at least 1, got 0"),
    ])
    def test_bad_bench_setting_rejected_before_any_file(self, tmp_path, capsys, field, value,
                                                         message):
        spec = str(tmp_path / "bench.json")
        with open(spec, "w") as f:
            json.dump({"num_videos": 12, field: value}, f)
        out = str(tmp_path / "bench_report.txt")
        rc = main(["bench", "--spec", spec, "--workdir", str(tmp_path / "w"), "--out", out])
        assert rc == 1
        assert capsys.readouterr().err == f"E_INVALID: {message}\n"
        assert not os.path.exists(out) and not os.path.exists(tmp_path / "w")

    @pytest.mark.parametrize("clips, shown", [(1, "1"), ([1, 39], "(1, 39)"), ([5, 3], "(5, 3)")])
    def test_bad_clips_per_video_rejected_before_any_file(self, tmp_path, capsys, clips, shown):
        spec = str(tmp_path / "gen.json")
        with open(spec, "w") as f:
            json.dump({"num_videos": 200, "clips_per_video": clips}, f)
        out = tmp_path / "c"
        rc = main(["gen", "--spec", spec, "--preset", "charades-sta", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == ("E_INVALID: clips_per_video must be at least 2, or "
                                           "a [low, high] range with 2 <= low <= high; "
                                           f"got {shown}\n")
        assert not os.path.exists(out)

    def test_approx_without_index(self, pipeline, capsys):
        rc = main(["search", "--corpus", pipeline["corpus"], "--ckpt", pipeline["ckpt"],
                   "--queries", pipeline["queries"], "--mode", "approx",
                   "--preset", "didemo", "--out", "/tmp/zz.jsonl"])
        assert rc != 0
        assert capsys.readouterr().err.startswith("E_NO_INDEX")

    def test_single_video_approx_rejected(self, pipeline, tmp_path, capsys):
        out = str(tmp_path / "sv_approx.jsonl")
        rc = main(["search", "--corpus", pipeline["corpus"], "--ckpt", pipeline["ckpt"],
                   "--queries", pipeline["queries"], "--mode", "approx",
                   "--index", pipeline["index"], "--clip-budget", "10", "--single-video",
                   "--preset", "didemo", "--out", out])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("E_INVALID: --single-video")
        assert err.count("\n") == 1
        assert not os.path.exists(out)

    def test_index_of_another_corpus_rejected(self, pipeline, tmp_path, capsys):
        # Same video ids and feature width, 20 clips per video instead of 12.
        spec = str(tmp_path / "long.json")
        with open(spec, "w") as f:
            json.dump({"num_videos": 6, "clips_per_video": 20, "visual_dim": 8,
                       "word_dim": 6, "vocab_size": 24, "queries_per_video": 1,
                       "signal_noise": 0.05, "seed": 3}, f)
        long_corpus = str(tmp_path / "long")
        stale = str(tmp_path / "long.calx")
        assert main(["gen", "--spec", spec, "--out", long_corpus]) == 0
        assert main(["index", "--corpus", long_corpus, "--ckpt", pipeline["ckpt"],
                     "--out", stale]) == 0
        capsys.readouterr()
        out = str(tmp_path / "stale.jsonl")
        rc = main(["search", "--corpus", pipeline["corpus"], "--ckpt", pipeline["ckpt"],
                   "--queries", pipeline["queries"], "--mode", "approx", "--index", stale,
                   "--clip-budget", "10", "--preset", "didemo", "--out", out])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("E_STALE_INDEX: ")
        assert err.count("\n") == 1
        assert not os.path.exists(out)

    def test_index_of_another_width_rejected(self, pipeline, tmp_path, capsys):
        # An index whose vectors are wider or narrower than the stage-one
        # model's embedding would broadcast against the query.
        params, meta = read_checkpoint(pipeline["ckpt"])
        narrow = str(tmp_path / "narrow.calw")
        dims = ModelDims(params.dims.visual_in, params.dims.word_in, hidden_mlp=8, embed=1,
                         hidden_lstm=6)
        write_checkpoint(narrow, init_params(dims, 1), meta)
        narrow_index = str(tmp_path / "narrow.calx")
        assert main(["index", "--corpus", pipeline["corpus"], "--ckpt", narrow,
                     "--out", narrow_index]) == 0
        capsys.readouterr()
        for ckpt, index in ((pipeline["ckpt"], narrow_index), (narrow, pipeline["index"])):
            for mode in ("approx", "two-stage"):
                out = str(tmp_path / f"w-{mode}.jsonl")
                rc = main(["search", "--corpus", pipeline["corpus"], "--ckpt", ckpt,
                           "--queries", pipeline["queries"], "--mode", mode, "--index", index,
                           "--clip-budget", "10", "--preset", "didemo", "--out", out])
                assert rc == 1
                err = capsys.readouterr().err
                assert err.startswith("E_STALE_INDEX: ") and "-d vectors" in err
                assert err.count("\n") == 1
                assert not os.path.exists(out)

    def test_index_with_a_duplicate_clip_rejected(self, pipeline, tmp_path, capsys):
        from momentsearch.dataio import load_corpus
        from momentsearch.index import ClipIndex, load_index, save_index

        ids = tuple(v.video_id for v in load_corpus(pipeline["corpus"]).videos)
        good = load_index(pipeline["index"], ids)
        keys = good.keys.copy()
        keys[1] = keys[0]  # clip (v0, 0) twice, clip (v0, 1) missing
        dup = str(tmp_path / "dup.calx")
        save_index(ClipIndex(ids, keys, good.vectors), dup)
        out = str(tmp_path / "dup.jsonl")
        rc = main(["search", "--corpus", pipeline["corpus"], "--ckpt", pipeline["ckpt"],
                   "--queries", pipeline["queries"], "--mode", "approx", "--index", dup,
                   "--clip-budget", "10", "--preset", "didemo", "--out", out])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("E_STALE_INDEX: ")
        assert err.count("\n") == 1
        assert not os.path.exists(out)

    def test_negative_dilation_rejected(self, pipeline, tmp_path, capsys):
        for dilation in ("-1", "-5"):
            out = str(tmp_path / f"d{dilation}.jsonl")
            rc = main(["search", "--corpus", pipeline["corpus"], "--ckpt", pipeline["ckpt"],
                       "--queries", pipeline["queries"], "--mode", "approx",
                       "--index", pipeline["index"], "--clip-budget", "10",
                       "--dilation", dilation, "--preset", "didemo", "--out", out])
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith("E_INVALID: dilation_clips must be non-negative")
            assert err.count("\n") == 1
            assert not os.path.exists(out)

    def test_duplicate_query_ids_rejected(self, pipeline, tmp_path, capsys):
        with open(pipeline["queries"]) as f:
            lines = f.readlines()
        dup_queries = str(tmp_path / "queries.jsonl")
        with open(dup_queries, "w") as f:
            f.writelines(lines + lines[:1])
        common = ["--corpus", pipeline["corpus"], "--ckpt", pipeline["ckpt"],
                  "--preset", "didemo", "--top-k", "5"]
        rc = main(["search", *common, "--queries", dup_queries,
                   "--out", str(tmp_path / "never.jsonl")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("E_FORMAT: ")
        results = str(tmp_path / "r.jsonl")
        assert main(["search", *common, "--queries", pipeline["queries"],
                     "--out", results]) == 0
        with open(results) as f:
            records = f.readlines()
        with open(results, "w") as f:
            f.writelines(records + records[1:2])
        capsys.readouterr()
        rc = main(["eval", "--results", results, "--gt", pipeline["queries"],
                   "--preset", "didemo", "--out", str(tmp_path / "report.txt")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("E_FORMAT: ") and "duplicate query_id" in err
        assert err.count("\n") == 1

    def test_diverging_training_writes_no_checkpoint(self, tmp_path, capsys):
        # The default lr0 0.05 and momentum 0.95 on the default planted didemo
        # corpus: the batch loss grows 6.7 -> 84.5 -> 3.4e3 -> ... -> 1.2e241.
        corpus = str(tmp_path / "corpus")
        cfg = str(tmp_path / "train.json")
        with open(cfg, "w") as f:
            json.dump({"epochs": 1, "batch_triples": 64,
                       "dims": {"hidden_mlp": 128, "embed": 64, "hidden_lstm": 64}}, f)
        assert main(["gen", "--preset", "didemo", "--out", corpus, "--seed", "0"]) == 0
        capsys.readouterr()
        ckpt = str(tmp_path / "model.calw")
        rc = main(["train", "--corpus", corpus, "--preset", "didemo", "--config", cfg,
                   "--out", ckpt, "--seed", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("E_DIVERGED: epoch 0 step 2: ")
        assert err.count("\n") == 1
        assert not os.path.exists(ckpt) and not os.path.exists(ckpt + ".loss.jsonl")

    @pytest.mark.parametrize("bad", [{"batch_triples": 0}, {"lr_decay_every": 0},
                                     {"epochs": -1}, {"intra_iou_exclusion": 0.0}])
    def test_untrainable_config_is_invalid(self, pipeline, tmp_path, capsys, bad):
        cfg = str(tmp_path / "bad.json")
        with open(cfg, "w") as f:
            json.dump({"epochs": 1, "batch_triples": 6, **bad,
                       "dims": {"hidden_mlp": 8, "embed": 6, "hidden_lstm": 6}}, f)
        ckpt = str(tmp_path / "bad.calw")
        capsys.readouterr()
        rc = main(["train", "--corpus", pipeline["corpus"], "--preset", "didemo",
                   "--config", cfg, "--out", ckpt])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("E_INVALID: ") and err.count("\n") == 1
        assert not os.path.exists(ckpt)

    @pytest.mark.parametrize("empty", ["manifest", "queries"])
    def test_training_on_an_empty_corpus_or_queries_file_is_invalid(
            self, pipeline, tmp_path, capsys, empty):
        corpus = str(tmp_path / "corpus")
        shutil.copytree(pipeline["corpus"], corpus)
        open(os.path.join(corpus, "queries.jsonl"), "w").close()
        if empty == "manifest":
            open(os.path.join(corpus, "manifest.jsonl"), "w").close()
        ckpt = str(tmp_path / "model.calw")
        capsys.readouterr()
        rc = main(["train", "--corpus", corpus, "--preset", "didemo", "--out", ckpt])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("E_INVALID: ") and err.count("\n") == 1
        assert ("no videos" if empty == "manifest" else "queries.jsonl: no queries") in err
        assert not os.path.exists(ckpt) and not os.path.exists(ckpt + ".loss.jsonl")

    def test_training_with_too_few_intra_negatives_is_invalid(self, tmp_path, capsys):
        # Under charades-sta a two-clip video's one candidate is its query's
        # positive, so only the four-clip video's query has an intra negative:
        # 100 query draws in a row miss it within the first batch.
        rng = np.random.default_rng(5)
        videos = [VideoMeta(f"v{i:03d}", 6.0, 3.0, 2) for i in range(200)]
        videos.append(VideoMeta("v200", 12.0, 3.0, 4))
        corpus = str(tmp_path / "corpus")
        save_corpus(corpus, videos, {v.video_id: rng.standard_normal((v.num_clips, 3))
                                     for v in videos})
        os.makedirs(os.path.join(corpus, "words"))
        records = []
        for v in videos:
            words = os.path.join("words", f"q{v.video_id}.calf")
            write_features(os.path.join(corpus, words),
                           rng.standard_normal((3, 2)).astype(np.float32))
            records.append({"query_id": f"q{v.video_id}", "video_id": v.video_id,
                            "spans": [[0.0, 6.0]], "words_path": words})
        write_jsonl(os.path.join(corpus, "queries.jsonl"), records)
        cfg = str(tmp_path / "train.json")
        with open(cfg, "w") as f:
            json.dump({"epochs": 1, "batch_triples": 64,
                       "dims": {"hidden_mlp": 8, "embed": 6, "hidden_lstm": 6}}, f)
        ckpt = str(tmp_path / "model.calw")
        capsys.readouterr()
        rc = main(["train", "--corpus", corpus, "--preset", "charades-sta", "--config", cfg,
                   "--out", ckpt])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "E_INVALID: no query with a valid intra negative after 100 draws\n"
        assert not os.path.exists(ckpt) and not os.path.exists(ckpt + ".loss.jsonl")

    def test_negative_kmeans_iters_rejected(self, pipeline, tmp_path, capsys):
        out = str(tmp_path / "ivf.calx")
        rc = main(["index", "--corpus", pipeline["corpus"], "--ckpt", pipeline["ckpt"],
                   "--flavor", "ivf", "--kmeans-iters", "-3", "--out", out])
        assert rc == 1
        assert capsys.readouterr().err == \
            "E_INVALID: kmeans_iters must be non-negative, got -3\n"
        assert not os.path.exists(out)

    def test_tef_model_rejected_for_index(self, pipeline, tmp_path, capsys):
        cfg = str(tmp_path / "t.json")
        with open(cfg, "w") as f:
            json.dump({"epochs": 0, "dims": {"hidden_mlp": 8, "embed": 6,
                                             "hidden_lstm": 6}}, f)
        tef_ckpt = str(tmp_path / "tef.calw")
        # epochs=0 keeps this instant; checkpoint still carries use_tef
        rc = main(["train", "--corpus", pipeline["corpus"], "--preset", "didemo",
                   "--config", cfg, "--out", tef_ckpt, "--tef"])
        assert rc == 0
        rc = main(["index", "--corpus", pipeline["corpus"], "--ckpt", tef_ckpt,
                   "--out", str(tmp_path / "i.calx")])
        assert rc != 0
        assert capsys.readouterr().err.startswith("E_TEF_INDEX")


HELP_FLAGS = {
    "gen": ["--spec", "--out", "--preset", "--seed"],
    "train": ["--corpus", "--preset", "--config", "--out", "--variant", "--tef",
              "--tef-only", "--loss-log", "--seed"],
    "index": ["--corpus", "--ckpt", "--flavor", "--out", "--partitions",
              "--kmeans-iters", "--seed"],
    "search": ["--corpus", "--index", "--ckpt", "--rerank-ckpt", "--queries", "--mode",
               "--preset", "--variant", "--rerank-variant", "--top-k", "--budget",
               "--clip-budget", "--nprobe", "--dilation", "--single-video",
               "--stats-out", "--out", "--seed"],
    "retrain-rerank": ["--base", "--retrievals", "--corpus", "--queries", "--preset",
                       "--config", "--rank-rate", "--loss-log", "--out", "--seed"],
    "eval": ["--results", "--gt", "--preset", "--corpus", "--ks", "--ious",
             "--single-video", "--out"],
    "bench": ["--spec", "--methods", "--workdir", "--out", "--seed"],
}


class TestHelp:
    @pytest.mark.parametrize("command", sorted(HELP_FLAGS))
    def test_help_enumerates_every_flag(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for flag in HELP_FLAGS[command]:
            assert flag in text, f"{command} --help missing {flag}"
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        declared = {flag for action in sub.choices[command]._actions
                    for flag in action.option_strings if flag not in ("-h", "--help")}
        assert declared == set(HELP_FLAGS[command]), f"{command}: flags not in HELP_FLAGS"

    def test_console_script_runs(self):
        proc = subprocess.run([sys.executable, "-m", "momentsearch.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "momentsearch" in proc.stdout
