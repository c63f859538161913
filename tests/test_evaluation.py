import itertools

import numpy as np
import pytest

from momentsearch.core import GroundTruth, TemporalSpan, temporal_iou
from momentsearch.evaluation import (
    MetricsReport,
    Prediction,
    build_report,
    consensus_miou,
    consensus_rank,
    first_correct_rank,
    median_rank,
    oracle_recall,
    recall_at_k,
    single_video_eval,
)


def span(a, b):
    return TemporalSpan(float(a), float(b))


def random_fixture(rng, n_queries=6, universe=40):
    """Random ranked lists and ground truths on a small grid."""
    results, gts = {}, {}
    for qi in range(n_queries):
        qid = f"q{qi}"
        video = f"v{rng.integers(0, 3)}"
        preds = []
        for _ in range(universe):
            s = float(rng.integers(0, 20))
            e = s + float(rng.integers(1, 8))
            preds.append(Prediction(f"v{rng.integers(0, 3)}", span(s, e), float(rng.random())))
        annos = []
        for _ in range(int(rng.integers(1, 4))):
            s = float(rng.integers(0, 20))
            annos.append(span(s, s + float(rng.integers(1, 8))))
        results[qid] = preds
        gts[qid] = GroundTruth(video, tuple(annos))
    return results, gts


def brute_force_hit(preds, gt, k, iou_thr, min_judgments):
    """Definition-level oracle: count qualifying annotations per prediction."""
    for p in preds[:k]:
        if p.video_id != gt.video_id:
            continue
        good = 0
        for a in gt.annotations:
            inter = min(p.span.end, a.end) - max(p.span.start, a.start)
            union = max(p.span.end, a.end) - min(p.span.start, a.start)
            if inter > 0 and inter / union >= iou_thr:
                good += 1
        if good >= min_judgments:
            return 1
    return 0


class TestQueryHit:
    """A query hits at k when its first correct rank is at most k."""

    def test_rank1_exact_match(self):
        gt = GroundTruth("v", (span(0, 10),))
        preds = [Prediction("v", span(0, 10))]
        for k in (1, 5):
            for iou in (0.5, 0.7, 0.99):
                assert first_correct_rank(preds, gt, iou, 1, universe=1) == 1
                assert recall_at_k({"q": preds}, {"q": gt}, k, iou) == 1.0

    def test_wrong_video_is_zero(self):
        gt = GroundTruth("v", (span(0, 10),))
        preds = [Prediction("w", span(0, 10))]
        assert first_correct_rank(preds, gt, 0.5, 1, universe=7) == 8
        assert recall_at_k({"q": preds}, {"q": gt}, 1, 0.5) == 0.0

    def test_min_judgments_two_annotations(self):
        gt = GroundTruth("v", (span(0, 10), span(20, 30)))
        preds = [Prediction("v", span(0, 10))]
        assert recall_at_k({"q": preds}, {"q": gt}, 1, 0.5, min_judgments=1) == 1.0
        assert recall_at_k({"q": preds}, {"q": gt}, 1, 0.5, min_judgments=2) == 0.0
        assert first_correct_rank(preds, gt, 0.5, 2, universe=1) == 2

    def test_matches_brute_force_on_random_fixtures(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            results, gts = random_fixture(rng)
            k = int(rng.integers(1, 12))
            iou = float(rng.choice([0.3, 0.5, 0.7]))
            mj = int(rng.integers(1, 3))
            for qid in results:
                preds, gt = results[qid], gts[qid]
                hit = brute_force_hit(preds, gt, k, iou, mj)
                assert recall_at_k({qid: preds}, {qid: gt}, k, iou, mj) == hit
                assert (first_correct_rank(preds, gt, iou, mj, universe=len(preds)) <= k) \
                    == hit


class TestRecall:
    def test_all_hits(self):
        gt = GroundTruth("v", (span(0, 10),))
        results = {f"q{i}": [Prediction("v", span(0, 10))] for i in range(4)}
        gts = {f"q{i}": gt for i in range(4)}
        assert recall_at_k(results, gts, 1, 0.5) == 1.0

    def test_no_hits(self):
        gt = GroundTruth("v", (span(0, 10),))
        results = {f"q{i}": [Prediction("w", span(0, 10))] for i in range(4)}
        gts = {f"q{i}": gt for i in range(4)}
        assert recall_at_k(results, gts, 1, 0.5) == 0.0

    def test_three_of_four(self):
        gts = {}
        results = {}
        for i in range(4):
            gts[f"q{i}"] = GroundTruth("v", (span(0, 10),))
            hit = Prediction("v", span(0, 10)) if i < 3 else Prediction("v", span(12, 20))
            results[f"q{i}"] = [hit]
        assert recall_at_k(results, gts, 1, 0.5) == pytest.approx(0.75)

    def test_missing_ground_truth_rejected(self):
        results = {"q0": [Prediction("v", span(0, 10))]}
        with pytest.raises(KeyError):
            recall_at_k(results, {}, 1, 0.5)


class TestMedianRank:
    def test_all_rank_one(self):
        gts = {f"q{i}": GroundTruth("v", (span(0, 10),)) for i in range(3)}
        results = {f"q{i}": [Prediction("v", span(0, 10))] for i in range(3)}
        assert median_rank(results, gts, 0.5, 1, universe=1) == 1.0

    def test_odd_count_median(self):
        gts, results = {}, {}
        for i, rank in enumerate((1, 3, 100)):
            gts[f"q{i}"] = GroundTruth("v", (span(0, 10),))
            preds = [Prediction("v", span(50, 60))] * (rank - 1) + [Prediction("v", span(0, 10))]
            results[f"q{i}"] = preds
        assert median_rank(results, gts, 0.5, 1, universe=200) == 3.0

    def test_even_count_mean_of_middles(self):
        gts, results = {}, {}
        for i, rank in enumerate((2, 4)):
            gts[f"q{i}"] = GroundTruth("v", (span(0, 10),))
            preds = [Prediction("v", span(50, 60))] * (rank - 1) + [Prediction("v", span(0, 10))]
            results[f"q{i}"] = preds
        assert median_rank(results, gts, 0.5, 1, universe=100) == 3.0

    def test_absent_counts_universe_plus_one(self):
        gts = {"q0": GroundTruth("v", (span(0, 10),))}
        results = {"q0": [Prediction("v", span(50, 60))]}
        assert median_rank(results, gts, 0.5, 1, universe=30) == 31.0

    def test_truncated_results_rejected(self):
        gts = {"q0": GroundTruth("v", (span(0, 10),))}
        results = {"q0": [Prediction("v", span(0, 10))]}
        with pytest.raises(ValueError):
            median_rank(results, gts, 0.5, 1, universe=50, declared_top_k=10)

    def test_chance_median_matches_analytic_expectation(self):
        # a single correct item uniformly placed among U candidates: the
        # median over queries concentrates near (U + 1) / 2
        universe = 101
        n_queries = 51
        medians = []
        for seed in range(40):
            rng = np.random.default_rng(seed)
            gts, results = {}, {}
            for qi in range(n_queries):
                correct_at = int(rng.integers(0, universe))
                preds = [Prediction("v", span(50, 60))] * universe
                preds[correct_at] = Prediction("v", span(0, 10))
                gts[f"q{qi}"] = GroundTruth("v", (span(0, 10),))
                results[f"q{qi}"] = preds
            medians.append(median_rank(results, gts, 0.99, 1, universe=universe))
        medians = np.asarray(medians)
        expected = (universe + 1) / 2
        stderr = medians.std(ddof=1) / np.sqrt(len(medians))
        assert abs(medians.mean() - expected) <= 3 * stderr


class TestFirstCorrectRank:
    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            results, gts = random_fixture(rng, n_queries=3)
            for qid in results:
                preds, gt = results[qid], gts[qid]
                oracle = next(
                    (r for r, p in enumerate(preds, start=1)
                     if brute_force_hit([p], gt, 1, 0.5, 1)),
                    len(preds) + 1,
                )
                assert first_correct_rank(preds, gt, 0.5, 1, len(preds)) == oracle


class TestConsensus:
    def test_rank_identical_annotations(self):
        preds = [Prediction("v", span(0, 5)), Prediction("v", span(5, 10))]
        annos = [span(0, 5)] * 4
        assert consensus_rank(preds, annos) == 1.0

    def test_rank_best_triad(self):
        # annotations matched at ranks 1, 2, 3, 100: best triad averages 2
        preds = [Prediction("v", span(i, i + 1)) for i in range(100)]
        annos = [span(0, 1), span(1, 2), span(2, 3), span(99, 100)]
        assert consensus_rank(preds, annos) == 2.0

    def test_rank_single_triad(self):
        preds = [Prediction("v", span(i, i + 1)) for i in range(10)]
        annos = [span(4, 5)] * 3
        assert consensus_rank(preds, annos) == 5.0

    def test_rank_matches_exhaustive_triads(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(3, 9))
            grid = [span(i, i + 1) for i in range(12)]
            preds = [Prediction("v", s) for s in grid]
            annos = [grid[int(rng.integers(0, 12))] for _ in range(n)]
            ranks = [next(r for r, p in enumerate(preds, 1)
                          if p.span == a) for a in annos]
            expected = min(
                sum(t) / 3 for t in itertools.combinations(ranks, 3))
            assert consensus_rank(preds, annos) == pytest.approx(expected)

    def test_rank_needs_three(self):
        preds = [Prediction("v", span(0, 1))]
        with pytest.raises(ValueError):
            consensus_rank(preds, [span(0, 1), span(0, 1)])

    def test_rank_requires_exact_match(self):
        preds = [Prediction("v", span(0, 2))]
        with pytest.raises(ValueError):
            consensus_rank(preds, [span(0, 1)] * 3)

    def test_miou_identical(self):
        top1 = Prediction("v", span(0, 5))
        assert consensus_miou(top1, [span(0, 5)] * 3) == 1.0

    def test_miou_best_triad_ignores_outlier(self):
        top1 = Prediction("v", span(0, 10))
        annos = [span(0, 10), span(0, 10), span(0, 10), span(50, 60)]
        assert consensus_miou(top1, annos) == 1.0

    def test_miou_single_triad_mean(self):
        top1 = Prediction("v", span(0, 10))
        annos = [span(0, 10), span(0, 4), span(20, 30)]
        expected = (1.0 + 0.4 + 0.0) / 3
        assert consensus_miou(top1, annos) == pytest.approx(expected)

    def test_miou_matches_exhaustive_triads(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(3, 9))
            top1 = Prediction("v", span(3, 9))
            annos = []
            for _ in range(n):
                s = float(rng.integers(0, 10))
                annos.append(span(s, s + float(rng.integers(1, 6))))
            ious = [temporal_iou(top1.span, a) for a in annos]
            expected = max(sum(t) / 3 for t in itertools.combinations(ious, 3))
            assert consensus_miou(top1, annos) == pytest.approx(expected)


class TestOracleRecall:
    def test_on_grid_annotation_always_counted(self, rng):
        from conftest import make_corpus
        from momentsearch.enumeration import get_preset

        preset = get_preset("didemo")
        corpus = make_corpus(rng, num_videos=3, num_clips=12, clip_length=2.5)
        gts = {}
        for i, video in enumerate(corpus.videos):
            gts[f"q{i}"] = GroundTruth(video.video_id, (span(5.0, 10.0),) * 2)
        for iou in (0.5, 0.7, 1.0):
            assert oracle_recall(corpus, gts, preset.enum, iou, min_judgments=2) == 1.0

    def test_min_judgments_below_one_rejected(self, rng):
        from conftest import make_corpus
        from momentsearch.enumeration import get_preset

        corpus = make_corpus(rng, num_videos=1, num_clips=12, clip_length=2.5)
        gts = {"q": GroundTruth(corpus.videos[0].video_id, (span(5.0, 10.0),))}
        with pytest.raises(ValueError, match="min_judgments"):
            oracle_recall(corpus, gts, get_preset("didemo").enum, 0.5, min_judgments=0)

    def test_matches_brute_force_max_iou(self, rng):
        from conftest import make_corpus
        from momentsearch.enumeration import enumerate_moments, get_preset

        preset = get_preset("charades-sta")
        corpus = make_corpus(rng, num_videos=4, num_clips=10, clip_length=3.0)
        gts = {}
        for i in range(8):
            video = corpus.videos[i % 4]
            s = float(rng.uniform(0, video.duration - 2))
            e = float(rng.uniform(s + 0.5, video.duration))
            gts[f"q{i}"] = GroundTruth(video.video_id, (TemporalSpan(s, e),))
        for iou_thr in (0.3, 0.5, 0.7):
            got = oracle_recall(corpus, gts, preset.enum, iou_thr)
            hits = 0
            for gt in gts.values():
                video = corpus.video(gt.video_id)
                best = max(
                    temporal_iou(m.span, gt.annotations[0])
                    for m in enumerate_moments(video, preset.enum)
                )
                hits += best >= iou_thr
            assert got == pytest.approx(hits / len(gts))


def oracle_recall_reference(corpus, gts, enum_cfg, iou_thr, min_judgments):
    """The per-`Moment` loop that `oracle_recall` replaced."""
    from momentsearch.enumeration import enumerate_moments

    hits = []
    for gt in gts.values():
        ok = any(
            sum(1 for a in gt.annotations if temporal_iou(m.span, a) >= iou_thr) >= min_judgments
            for m in enumerate_moments(corpus.video(gt.video_id), enum_cfg)
        )
        hits.append(1 if ok else 0)
    return float(np.mean(hits))


@pytest.mark.parametrize("preset_name", ["didemo", "charades-sta", "activitynet"])
def test_oracle_recall_equals_per_moment_reference(preset_name):
    from conftest import varied_corpus
    from momentsearch.enumeration import EnumConfig, get_preset

    enum = get_preset(preset_name).enum
    # The second grid's minimum length exceeds some videos' clip counts.
    for enum_cfg in (enum, EnumConfig(enum.clip_length, 9, stride_ratio=0.3,
                                      min_moment_clips=6)):
        corpus, queries = varied_corpus(np.random.default_rng(5), enum_cfg.clip_length)
        gts = {q.query_id: q.ground_truth for q in queries}
        for iou_thr in (0.3, 0.5, 0.7, 1.0):
            for min_judgments in (1, 2, 3):
                got = oracle_recall(corpus, gts, enum_cfg, iou_thr, min_judgments)
                assert got == oracle_recall_reference(corpus, gts, enum_cfg, iou_thr,
                                                      min_judgments)


@pytest.mark.parametrize("min_judgments", [1, 2, 3])
def test_report_oracle_equals_oracle_recall(min_judgments):
    from conftest import varied_corpus
    from momentsearch.enumeration import get_preset

    enum_cfg = get_preset("charades-sta").enum
    corpus, queries = varied_corpus(np.random.default_rng(9), enum_cfg.clip_length)
    gts = {q.query_id: q.ground_truth for q in queries}
    results = {qid: [] for qid in gts}
    ious = (0.1, 0.3, 0.5, 0.7, 1.0)
    report = build_report(results, gts, ks=(1,), ious=ious, min_judgments=min_judgments,
                          corpus=corpus, enum_cfg=enum_cfg)
    assert report.oracle == {
        iou: oracle_recall(corpus, gts, enum_cfg, iou, min_judgments) for iou in ious}
    assert 0.0 < report.oracle[0.1] and report.oracle[1.0] < 1.0


class TestReports:
    def test_monotone_invariants_on_random_reports(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            results, gts = random_fixture(rng, n_queries=8, universe=30)
            report = build_report(results, gts, ks=(1, 5, 10), ious=(0.3, 0.5, 0.7),
                                  universe=30, declared_top_k=30)
            report.validate()
            for iou in (0.3, 0.5, 0.7):
                assert report.recalls[(1, iou)] <= report.recalls[(5, iou)] \
                    <= report.recalls[(10, iou)]
            for k in (1, 5, 10):
                assert report.recalls[(k, 0.3)] >= report.recalls[(k, 0.5)] \
                    >= report.recalls[(k, 0.7)]

    def test_report_recalls_equal_direct_recall_at_k(self):
        rng = np.random.default_rng(9)
        results, gts = random_fixture(rng, n_queries=10, universe=25)
        report = build_report(results, gts, ks=(1, 5), ious=(0.5,))
        assert report.recalls[(1, 0.5)] == recall_at_k(results, gts, 1, 0.5)
        assert report.recalls[(5, 0.5)] == recall_at_k(results, gts, 5, 0.5)

    @pytest.mark.parametrize("universe", [3, 8, 30])
    def test_report_equals_recall_at_k_and_median_rank(self, universe):
        # K runs past the universe: an absent correct moment must still miss.
        rng = np.random.default_rng(universe)
        ks, ious = (1, 5, 10, 50, 100), (0.3, 0.5, 0.7)
        for _ in range(20):
            results, gts = random_fixture(rng, n_queries=7, universe=universe)
            results["q_empty"] = []
            gts["q_empty"] = gts["q0"]
            mj = int(rng.integers(1, 3))
            report = build_report(results, gts, ks=ks, ious=ious, min_judgments=mj,
                                  universe=universe, declared_top_k=universe)
            for iou in ious:
                for k in ks:
                    assert report.recalls[(k, iou)] == recall_at_k(results, gts, k, iou, mj)
                assert report.median_ranks[iou] == median_rank(results, gts, iou, mj,
                                                               universe=universe)

    def test_absent_correct_moment_misses_past_the_universe(self):
        gts = {"q0": GroundTruth("v", (span(0, 10),)), "q1": GroundTruth("v", (span(0, 10),))}
        results = {"q0": [Prediction("v", span(0, 10))], "q1": [Prediction("v", span(50, 60))]}
        report = build_report(results, gts, ks=(1, 100), ious=(0.5,), universe=2,
                              declared_top_k=2)
        assert report.recalls[(100, 0.5)] == 0.5
        assert report.median_ranks[0.5] == (1 + 3) / 2
        assert first_correct_rank([], gts["q0"], 0.5, 1, universe=2) == 3

    def test_kv_round_trip_keys(self):
        rng = np.random.default_rng(11)
        results, gts = random_fixture(rng, n_queries=4)
        report = build_report(results, gts, ks=(1, 10), ious=(0.5, 0.7),
                              config={"preset": "didemo"})
        kv = report.to_kv()
        assert kv["query_count"] == "4"
        assert "recall@1_iou0.50" in kv
        assert "recall@10_iou0.70" in kv
        assert kv["config.preset"] == "didemo"

    def test_validation_catches_bad_table(self):
        report = MetricsReport(recalls={(1, 0.5): 0.9, (10, 0.5): 0.2})
        with pytest.raises(AssertionError):
            report.validate()


class TestSingleVideoEval:
    def test_single_candidate_correct(self):
        gts = {"q0": GroundTruth("v", (span(0, 10),))}
        results = {"q0": [Prediction("v", span(0, 10))]}
        report = single_video_eval(results, gts)
        assert report.recalls[(1, 0.5)] == 1.0
        assert report.recalls[(5, 0.7)] == 1.0

    def test_correct_at_rank_three(self):
        gts = {"q0": GroundTruth("v", (span(0, 10),))}
        results = {"q0": [Prediction("v", span(20, 30)), Prediction("v", span(40, 50)),
                          Prediction("v", span(0, 10))]}
        report = single_video_eval(results, gts)
        assert report.recalls[(1, 0.5)] == 0.0
        assert report.recalls[(5, 0.5)] == 1.0

    def test_report_schema_matches_corpus_mode(self):
        gts = {"q0": GroundTruth("v", (span(0, 10),))}
        results = {"q0": [Prediction("v", span(0, 10))]}
        single = single_video_eval(results, gts, ks=(1, 5), ious=(0.5, 0.7))
        corpus_style = build_report(results, gts, ks=(1, 5), ious=(0.5, 0.7))
        assert set(single.to_kv()) == set(corpus_style.to_kv())

    def test_foreign_video_rejected(self):
        gts = {"q0": GroundTruth("v", (span(0, 10),))}
        results = {"q0": [Prediction("w", span(0, 10))]}
        with pytest.raises(ValueError):
            single_video_eval(results, gts)
