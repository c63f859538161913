"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Slow system-level checks (planted-signal learning, the operation-count
benchmark) sit at the end so the cheap verdicts land first.
"""

import itertools
import json
import os
import time

import numpy as np
import pytest

from momentsearch.core import GroundTruth, TemporalSpan, VideoMeta, temporal_iou
from momentsearch.costs import cal_costs, sq_distances
from momentsearch.dataio import (
    SyntheticSpec,
    generate_synthetic,
    read_results,
    write_results,
)
from momentsearch.enumeration import (
    PRESETS,
    aggregate_index_entries,
    enumerate_moments,
    get_preset,
)
from momentsearch.evaluation import (
    Prediction,
    build_report,
    consensus_miou,
    consensus_rank,
    median_rank,
    oracle_recall,
    recall_at_k,
)
from momentsearch.index import build_exact, build_ivf
from momentsearch.model import ModelDims, init_params
from momentsearch.retrieval import (
    RetrievalConfig,
    baseline_scores,
    exhaustive_search,
    fit_moment_prior,
    two_stage_search,
)
from momentsearch.training import TrainConfig, TrainDataset, sample_triples, train

from test_costs import dyadic
from test_enumeration import brute_force_moments
from test_evaluation import brute_force_hit, random_fixture
from test_training import finite_difference_grads, max_relative_error, tiny_dataset


def announce(number: int, title: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"[{verdict}] criterion {number}: {title}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def results_as_predictions(ranked_results):
    return {
        r.query_id: [Prediction(s.moment.video_id, s.moment.span, s.cost)
                     for s in r.ranked]
        for r in ranked_results
    }


def test_criterion_01_gradient_fidelity():
    """Every parameter gradient of the ranking loss matches finite differences."""
    from momentsearch.training import loss_and_grads

    started = time.monotonic()
    worst = 0.0
    for seed, variant, use_tef in ((0, "cal", False), (1, "aggregate", False),
                                   (2, "cal", True)):
        dataset = tiny_dataset(seed)
        dims = ModelDims(3, 4, hidden_mlp=5, embed=4, hidden_lstm=6, use_tef=use_tef)
        params = init_params(dims, seed)
        cfg = TrainConfig(seed=seed, variant=variant, batch_triples=2,
                          intra_iou_exclusion=0.5)
        triples = sample_triples(dataset, cfg, np.random.default_rng(seed + 100), size=2)
        _, grads = loss_and_grads(dataset, triples, params, cfg)
        fd = finite_difference_grads(dataset, triples, params, cfg, h=1e-5)
        worst = max(worst, max_relative_error(grads, fd))
    elapsed = time.monotonic() - started
    announce(1, "gradient fidelity vs finite differences",
             worst <= 1e-4 and elapsed < 60,
             f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_cost_engine_oracle():
    """Prefix-sum costs equal naive sums; exact translation/scale behavior."""
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 129))
        d = sq_distances(rng.standard_normal((n, 8)), rng.standard_normal(8))
        firsts, lasts = np.triu_indices(n, k=1)
        fast = cal_costs(d, firsts, lasts)
        slow = np.array([np.mean(d[i:j + 1]) for i, j in zip(firsts, lasts)])
        worst = max(worst, float(np.max(np.abs(fast - slow) / np.maximum(np.abs(slow), 1e-300))))
    ok_naive = worst <= 1e-9

    ok_invariance = True
    rng = np.random.default_rng(203)
    for trial in range(1000):
        n = int(rng.integers(2, 10))
        emb = dyadic(rng, (n, 4))
        q = dyadic(rng, (4,))
        shift = dyadic(rng, (4,))
        pairs = np.triu_indices(n, k=1)
        base = sq_distances(emb, q)
        moved = sq_distances(emb + shift, q + shift)
        base_costs = cal_costs(base, *pairs)
        if not (np.array_equal(base, moved)
                and np.array_equal(base_costs, cal_costs(moved, *pairs))):
            ok_invariance = False
            break
        scale = float(rng.uniform(0.1, 10.0))
        scaled_costs = cal_costs(sq_distances(scale * emb, scale * q), *pairs)
        if int(np.argmin(base_costs)) != int(np.argmin(scaled_costs)):
            ok_invariance = False
            break
    announce(2, "cost engine: prefix equals naive, invariances exact",
             ok_naive and ok_invariance, f"max rel err {worst:.2e}")


def test_criterion_03_enumeration_oracle():
    """Brute-force enumeration equality on all presets; didemo yields 21."""
    rng = np.random.default_rng(303)
    checked = 0
    ok = True
    names = sorted(PRESETS)
    for trial in range(500):
        preset = PRESETS[names[trial % len(names)]]
        n = int(rng.integers(2, 65))
        clip_len = preset.enum.clip_length
        duration = max(n * clip_len - float(rng.uniform(0, clip_len * 0.9)),
                       (n - 1) * clip_len + 1e-3)
        video = VideoMeta(f"r{trial}", duration, clip_len, n)
        got = {(m.first_clip, m.last_clip) for m in enumerate_moments(video, preset.enum)}
        if got != brute_force_moments(video, preset.enum):
            ok = False
            break
        checked += 1
    didemo_count = len(enumerate_moments(VideoMeta("d", 30.0, 2.5, 12),
                                         PRESETS["didemo"].enum))
    announce(3, "enumeration equals brute force; didemo 21 per 30s video",
             ok and didemo_count == 21,
             f"{checked} random videos, didemo count {didemo_count}")


def test_criterion_04_index_size_accounting(tmp_path):
    """Entry formula matches counting; bench records 9.45x beside 8.5x."""
    ok_counting = all(
        aggregate_index_entries(n, k, 1) ==
        sum(1 for i in range(n) for j in range(i, n) if j - i + 1 <= k)
        for n in range(1, 51) for k in range(1, 31)
    )
    ratio = aggregate_index_entries(20, 14, 1) / 20
    from momentsearch.bench import BenchConfig, run_bench

    cfg = BenchConfig(num_videos=12, clips_per_video=20, visual_dim=6, word_dim=4,
                      embed=6, hidden_mlp=8, hidden_lstm=4, n_queries=1,
                      nprobe=2, kmeans_iters=2, seed=0)
    report = run_bench(cfg, str(tmp_path), methods=("cal",))
    recorded = (report["entry_ratio.aggregate_over_clip"] == pytest.approx(9.45)
                and report["reference_1m_videos.aggregate_index_gb"] == 63.3
                and report["reference_1m_videos.clip_index_gb"] == 7.45)
    announce(4, "index-size accounting and recorded reference ratio",
             ok_counting and ratio == pytest.approx(9.45) and recorded,
             f"per-video ratio {ratio:.2f}, reference ratio "
             f"{report['reference_1m_videos.ratio']}")


@pytest.fixture(scope="module")
def thousand_video_corpus(tmp_path_factory):
    spec = SyntheticSpec(num_videos=1000, clips_per_video=12, visual_dim=16,
                         word_dim=8, vocab_size=64, queries_per_video=1,
                         signal_noise=0.1, seed=42)
    out = str(tmp_path_factory.mktemp("corpus1k"))
    corpus, queries = generate_synthetic(spec, get_preset("didemo"), out)
    dims = ModelDims(16, 8, hidden_mlp=24, embed=12, hidden_lstm=10)
    return corpus, queries, init_params(dims, 0)


def test_criterion_05_two_stage_equivalence(thousand_video_corpus, tmp_path):
    """Full clip budget + exact index + same variant == exhaustive, bytewise."""
    corpus, queries, params = thousand_video_corpus
    preset = get_preset("didemo")
    index = build_exact(corpus, params)
    universe = corpus.total_candidates(preset.enum)
    cfg = RetrievalConfig(nms_iou=preset.nms_iou, top_k=100, budget=universe,
                          clip_budget=corpus.total_clips)
    subset = queries[:5]
    exhaustive = [exhaustive_search(corpus, q, params, preset.enum, cfg)
                  for q in subset]
    staged = [two_stage_search(corpus, index, q, params, None, preset.enum, cfg,
                               mode="approx") for q in subset]
    path_a = str(tmp_path / "exhaustive.jsonl")
    path_b = str(tmp_path / "two_stage.jsonl")
    write_results(path_a, exhaustive, seed=0, universe=universe, top_k=100)
    write_results(path_b, staged, seed=0, universe=universe, top_k=100)
    identical = open(path_a, "rb").read() == open(path_b, "rb").read()
    announce(5, "two-stage at full budget byte-identical to exhaustive",
             identical, f"{len(subset)} queries over {len(corpus)} videos")


def test_criterion_06_ann_degeneracy():
    """IVF with nprobe=P reproduces exact search; fewer probes scan less."""
    from conftest import make_corpus

    ok_equal, ok_fewer = True, True
    for seed in range(10):
        rng = np.random.default_rng(seed)
        corpus = make_corpus(rng, num_videos=int(rng.integers(4, 9)),
                             num_clips=int(rng.integers(6, 14)), visual_dim=6)
        dims = ModelDims(6, 4, hidden_mlp=8, embed=5, hidden_lstm=4)
        params = init_params(dims, seed)
        exact = build_exact(corpus, params)
        p = max(2, int(np.sqrt(exact.num_entries)))
        ivf = build_ivf(corpus, params, partitions=p, seed=seed)
        q = rng.standard_normal(5)
        exact_hits, exact_stats = exact.search(q, top_c=10)
        full_hits, _ = ivf.search(q, top_c=10, nprobe=p)
        if [(h.video_id, h.clip_idx, h.sq_distance) for h in exact_hits] != \
           [(h.video_id, h.clip_idx, h.sq_distance) for h in full_hits]:
            ok_equal = False
        _, partial_stats = ivf.search(q, top_c=10, nprobe=max(1, p // 4))
        if not partial_stats.distance_evals < exact_stats.distance_evals:
            ok_fewer = False
    announce(6, "IVF degenerates to exact at full probe; partial probes scan less",
             ok_equal and ok_fewer)


def test_criterion_07_oracle_upper_bound(tmp_path):
    """On-grid corpus gives oracle recall 1.0; methods never beat the oracle."""
    preset = get_preset("didemo")
    spec = SyntheticSpec(num_videos=20, clips_per_video=12, visual_dim=8,
                         word_dim=6, vocab_size=32, queries_per_video=2, seed=7)
    corpus, queries = generate_synthetic(spec, preset, str(tmp_path / "grid"))
    gts = {q.query_id: q.ground_truth for q in queries}
    oracle_05 = oracle_recall(corpus, gts, preset.enum, 0.5, preset.min_judgments)
    oracle_07 = oracle_recall(corpus, gts, preset.enum, 0.7, preset.min_judgments)

    dims = ModelDims(8, 6, hidden_mlp=12, embed=6, hidden_lstm=6)
    params = init_params(dims, 0)
    cfg = RetrievalConfig(nms_iou=preset.nms_iou, top_k=100, budget=100)
    results = results_as_predictions(
        [exhaustive_search(corpus, q, params, preset.enum, cfg) for q in queries])

    bounded = True
    for test_gts in (gts, {
        # second corpus view: annotations nudged off the clip grid
        qid: GroundTruth(gt.video_id, tuple(
            TemporalSpan(a.start + 1.26, min(a.end + 1.26,
                                             corpus.video(gt.video_id).duration))
            for a in gt.annotations))
        for qid, gt in gts.items()
    },):
        for iou in (0.5, 0.7):
            bound = oracle_recall(corpus, test_gts, preset.enum, iou, preset.min_judgments)
            for k in (1, 10, 100):
                if recall_at_k(results, test_gts, k, iou, preset.min_judgments) > bound + 1e-12:
                    bounded = False
    announce(7, "oracle recall 1.0 on grid; methods bounded by the oracle",
             oracle_05 == 1.0 and oracle_07 == 1.0 and bounded,
             f"oracle {oracle_05:.2f}/{oracle_07:.2f} at IoU 0.5/0.7")


def test_criterion_09_metric_oracles():
    """Recall, median rank, and consensus metrics match brute-force forms."""
    rng = np.random.default_rng(909)
    ok = True
    for _ in range(50):
        results, gts = random_fixture(rng, n_queries=5, universe=25)
        k = int(rng.integers(1, 10))
        iou = float(rng.choice([0.3, 0.5, 0.7]))
        mj = int(rng.integers(1, 3))
        direct = float(np.mean([
            brute_force_hit(results[qid], gts[qid], k, iou, mj) for qid in results
        ]))
        if recall_at_k(results, gts, k, iou, mj) != pytest.approx(direct):
            ok = False
        ranks = sorted(
            next((r for r, p in enumerate(results[qid], 1)
                  if brute_force_hit([p], gts[qid], 1, iou, mj)), 26)
            for qid in results
        )
        expect_median = float(ranks[len(ranks) // 2]) if len(ranks) % 2 else \
            (ranks[len(ranks) // 2 - 1] + ranks[len(ranks) // 2]) / 2
        if median_rank(results, gts, iou, mj, universe=25) != pytest.approx(expect_median):
            ok = False

    for _ in range(50):
        n_annos = int(rng.integers(3, 9))
        grid = [TemporalSpan(float(i), float(i + 1)) for i in range(12)]
        preds = [Prediction("v", s) for s in grid]
        annos = [grid[int(rng.integers(0, 12))] for _ in range(n_annos)]
        ranks = [next(r for r, p in enumerate(preds, 1) if p.span == a) for a in annos]
        want_rank = min(sum(t) / 3 for t in itertools.combinations(ranks, 3))
        if consensus_rank(preds, annos) != pytest.approx(want_rank):
            ok = False
        top1 = Prediction("v", TemporalSpan(3.0, 9.0))
        ious = [temporal_iou(top1.span, a) for a in annos]
        want_miou = max(sum(t) / 3 for t in itertools.combinations(ious, 3))
        if consensus_miou(top1, annos) != pytest.approx(want_miou):
            ok = False

    monotone = True
    for _ in range(10):
        results, gts = random_fixture(rng, n_queries=8, universe=30)
        report = build_report(results, gts, ks=(1, 5, 10), ious=(0.3, 0.5, 0.7),
                              universe=30, declared_top_k=30)
        try:
            report.validate()
        except AssertionError:
            monotone = False
    announce(9, "metric implementations match brute-force definitions",
             ok and monotone)


def test_criterion_10_determinism(tmp_path):
    """Fixed seeds give byte-identical artifacts across runs."""
    from momentsearch.cli import main

    spec_path = str(tmp_path / "spec.json")
    cfg_path = str(tmp_path / "train.json")
    with open(spec_path, "w") as f:
        json.dump({"num_videos": 8, "clips_per_video": 12, "visual_dim": 8,
                   "word_dim": 6, "vocab_size": 24, "queries_per_video": 1,
                   "signal_noise": 0.1, "seed": 11}, f)
    with open(cfg_path, "w") as f:
        json.dump({"lr0": 0.005, "momentum": 0.9, "epochs": 3, "batch_triples": 8,
                   "dims": {"hidden_mlp": 10, "embed": 6, "hidden_lstm": 6}}, f)

    artifacts = {}
    for run in ("one", "two"):
        base = tmp_path / run
        os.makedirs(base)
        corpus_dir = str(base / "corpus")
        ckpt = str(base / "m.calw")
        idx = str(base / "i.calx")
        results = str(base / "r.jsonl")
        exhaustive = str(base / "ex.jsonl")
        report = str(base / "report.txt")
        assert main(["gen", "--spec", spec_path, "--out", corpus_dir]) == 0
        assert main(["train", "--corpus", corpus_dir, "--preset", "didemo",
                     "--config", cfg_path, "--out", ckpt, "--seed", "0"]) == 0
        assert main(["index", "--corpus", corpus_dir, "--ckpt", ckpt, "--flavor", "ivf",
                     "--partitions", "6", "--out", idx, "--seed", "0"]) == 0
        assert main(["search", "--corpus", corpus_dir, "--ckpt", ckpt,
                     "--queries", os.path.join(corpus_dir, "queries.jsonl"),
                     "--mode", "approx", "--index", idx, "--preset", "didemo",
                     "--top-k", "20", "--clip-budget", "30", "--out", results,
                     "--seed", "0"]) == 0
        assert main(["search", "--corpus", corpus_dir, "--ckpt", ckpt,
                     "--queries", os.path.join(corpus_dir, "queries.jsonl"),
                     "--mode", "exhaustive", "--preset", "didemo", "--top-k", "20",
                     "--out", exhaustive, "--seed", "0"]) == 0
        assert main(["eval", "--results", results, "--gt",
                     os.path.join(corpus_dir, "queries.jsonl"), "--preset", "didemo",
                     "--out", report]) == 0
        artifacts[run] = {
            "manifest": open(os.path.join(corpus_dir, "manifest.jsonl"), "rb").read(),
            "features": open(os.path.join(corpus_dir, "features", "v00000.calf"),
                             "rb").read(),
            "ckpt": open(ckpt, "rb").read(),
            "index": open(idx, "rb").read(),
            "results": open(results, "rb").read(),
            "exhaustive": open(exhaustive, "rb").read(),
            "report": open(report, "rb").read(),
        }
    runs_match = artifacts["one"] == artifacts["two"]
    announce(10, "byte-identical artifacts across runs", runs_match)


def test_criterion_08_planted_signal_learning():
    """Training on the default planted corpus reaches R@1 >= 0.8 and beats
    the reference baselines; clip alignment keeps its R@10 edge."""
    started = time.monotonic()
    preset = get_preset("didemo")
    spec = SyntheticSpec()  # 200 videos x 12 clips, visual 64, noise 0.1
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        corpus, queries = generate_synthetic(spec, preset, tmp)
    dataset = TrainDataset(corpus, queries, preset.enum)
    dims = ModelDims(64, 32, hidden_mlp=128, embed=64, hidden_lstm=64)
    gts = {q.query_id: q.ground_truth for q in queries}

    def corpus_recalls(params, variant):
        cfg = RetrievalConfig(variant=variant, nms_iou=preset.nms_iou,
                              top_k=10, budget=10)
        ranked = [exhaustive_search(corpus, q, params, preset.enum, cfg) for q in queries]
        report = build_report(results_as_predictions(ranked), gts, ks=(1, 10),
                              ious=(0.5,), min_judgments=preset.min_judgments)
        return report.recalls[(1, 0.5)], report.recalls[(10, 0.5)]

    recalls = {}
    for variant in ("cal", "aggregate"):
        cfg = TrainConfig(lr0=5e-4, margin=3.0, inter_weight=1.0, momentum=0.9,
                          epochs=300, batch_triples=64, lr_decay_every=100,
                          intra_iou_exclusion=preset.intra_iou_exclusion,
                          seed=0, variant=variant)
        params, _ = train(dataset, cfg, dims=dims)
        recalls[variant] = corpus_recalls(params, variant)

    prior = fit_moment_prior(corpus, queries, bins=10)
    baseline_r1 = {}
    bcfg = RetrievalConfig(nms_iou=preset.nms_iou, top_k=10, budget=10)
    for kind in ("chance", "moment_prior"):
        ranked = [baseline_scores(corpus, q, kind, preset.enum, bcfg, prior=prior, seed=0)
                  for q in queries]
        report = build_report(results_as_predictions(ranked), gts, ks=(1,),
                              ious=(0.5,), min_judgments=preset.min_judgments)
        baseline_r1[kind] = report.recalls[(1, 0.5)]

    elapsed = time.monotonic() - started
    cal_r1, cal_r10 = recalls["cal"]
    agg_r10 = recalls["aggregate"][1]
    ok = (cal_r1 >= 0.8
          and cal_r1 > baseline_r1["chance"]
          and cal_r1 > baseline_r1["moment_prior"]
          and cal_r10 >= agg_r10
          and elapsed < 600)
    announce(8, "planted-signal learning reaches R@1 >= 0.8 and beats baselines",
             ok,
             f"cal R@1 {cal_r1:.3f}, cal R@10 {cal_r10:.3f} vs aggregate "
             f"{agg_r10:.3f}, chance {baseline_r1['chance']:.4f}, "
             f"prior {baseline_r1['moment_prior']:.4f}, {elapsed:.0f}s")


def test_criterion_11_performance_direction(tmp_path):
    """Distance-evaluation asymmetry on the 10k x 20-clip corpus."""
    from momentsearch.bench import BenchConfig, run_bench

    cfg = BenchConfig(num_videos=10_000, clips_per_video=20, max_moment_clips=14,
                      visual_dim=32, word_dim=8, embed=48, hidden_mlp=64,
                      hidden_lstm=16, n_queries=2, nprobe=8, kmeans_iters=10, seed=0)
    report = run_bench(cfg, str(tmp_path))
    cal = report["cal.distance_evals_per_query"]
    agg = report["aggregate.distance_evals_per_query"]
    approx = report["approx.distance_evals_per_query"]
    ratio_agg = agg / cal
    ratio_approx = cal / approx
    announce(11, "fewer distance evals: aggregate ~9.45x CAL; approx >= 10x less",
             ratio_agg == pytest.approx(9.45) and ratio_approx >= 10.0,
             f"aggregate/cal {ratio_agg:.2f}, cal/approx {ratio_approx:.1f}, "
             f"timings cal {report['cal.mean_query_s']:.3f}s "
             f"agg {report['aggregate.mean_query_s']:.3f}s "
             f"approx {report['approx.mean_query_s']:.4f}s (reported, not gated)")
