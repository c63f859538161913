import numpy as np
import pytest

from momentsearch.core import Moment, Query, TemporalSpan, VideoMeta, temporal_iou
from momentsearch.costs import ScoredMoment
from momentsearch.dataio import SyntheticSpec, generate_synthetic
from momentsearch.enumeration import enumerate_moments, get_preset
from momentsearch.index import build_exact, build_ivf
from momentsearch.model import ModelDims, init_params
from momentsearch.retrieval import (
    RetrievalConfig,
    baseline_scores,
    exhaustive_search,
    fit_moment_prior,
    nms,
    restrict_corpus,
    two_stage_search,
)


@pytest.fixture(scope="module")
def planted():
    import tempfile

    preset = get_preset("didemo")
    spec = SyntheticSpec(num_videos=12, clips_per_video=12, visual_dim=8, word_dim=6,
                         vocab_size=24, queries_per_video=1, signal_noise=0.02, seed=8)
    with tempfile.TemporaryDirectory() as tmp:
        corpus, queries = generate_synthetic(spec, preset, tmp)
    dims = ModelDims(8, 6, hidden_mlp=12, embed=6, hidden_lstm=8)
    params = init_params(dims, 8)
    return preset, corpus, queries, params


def _video(n=10, clip_len=1.0, vid="v"):
    return VideoMeta(vid, n * clip_len, clip_len, n)


class TestNms:
    def _scored(self, video, triples):
        return [ScoredMoment(Moment.from_clips(video, i, j), c) for i, j, c in triples]

    def test_threshold_one_keeps_everything(self):
        video = _video()
        scored = self._scored(video, [(0, 3, 0.1), (0, 2, 0.2), (1, 3, 0.3), (0, 4, 0.4)])
        assert nms(scored, 1.0) == scored

    def test_identical_spans_suppressed(self):
        video = _video()
        cheap = ScoredMoment(Moment.from_clips(video, 2, 5), 0.1)
        dear = ScoredMoment(Moment.from_clips(video, 2, 5), 0.9)
        assert nms([cheap, dear], 0.6) == [cheap]

    def test_low_overlap_pair_survives(self):
        video = _video(20)
        a = ScoredMoment(Moment.from_clips(video, 0, 9), 0.1)   # [0, 10)
        b = ScoredMoment(Moment.from_clips(video, 5, 14), 0.2)  # [5, 15), IoU 1/3
        assert nms([a, b], 0.5) == [a, b]

    def test_greedy_cascade(self):
        video = _video(20)
        a = ScoredMoment(Moment.from_clips(video, 0, 9), 0.1)
        b = ScoredMoment(Moment.from_clips(video, 1, 10), 0.2)   # IoU with a: 9/11 > 0.5
        c = ScoredMoment(Moment.from_clips(video, 2, 11), 0.3)   # IoU with a: 8/12 > 0.5
        assert nms([a, b, c], 0.5) == [a]

    def test_retained_pairs_respect_constraint(self, rng):
        video = _video(16)
        moments = enumerate_moments(
            video, get_preset("charades-sta").enum.__class__(
                clip_length=1.0, max_moment_clips=8, stride_seconds=1.0))
        scored = sorted(
            (ScoredMoment(m, float(rng.random())) for m in moments),
            key=lambda s: s.sort_key,
        )
        for thr in (0.3, 0.5, 0.7):
            kept = nms(scored, thr)
            for i in range(len(kept)):
                for j in range(i + 1, len(kept)):
                    assert temporal_iou(kept[i].moment.span, kept[j].moment.span) <= thr


class TestExhaustive:
    def test_single_candidate_ranks_first(self, rng):
        preset = get_preset("didemo")
        video = VideoMeta("v0", 5.0, 2.5, 2)
        corpus_features = {"v0": rng.standard_normal((2, 4))}
        from momentsearch.dataio import Corpus

        corpus = Corpus([video], corpus_features)
        dims = ModelDims(4, 4, hidden_mlp=6, embed=4, hidden_lstm=4)
        params = init_params(dims, 0)
        query = Query("q", rng.standard_normal((3, 4)))
        cfg = RetrievalConfig(nms_iou=preset.nms_iou, top_k=5, budget=5)
        result = exhaustive_search(corpus, query, params, preset.enum, cfg)
        assert len(result.ranked) == 1
        assert result.ranked[0].moment.sort_key == ("v0", 0, 1)

    def test_planted_corpus_rank1_overlaps_truth(self, planted):
        preset, corpus, queries, _ = planted
        # identity-strength signal: score with an oracle-configured model that
        # reproduces raw features, querying with the planted latent directly
        from conftest import identity_visual_params
        from momentsearch.retrieval import _rank

        params = identity_visual_params(visual_in=8)
        import os

        # recompute each query's latent from its words and the stored readout
        spec_rng = np.random.default_rng(8)
        vocab = spec_rng.standard_normal((24, 6)).astype(np.float32)
        readout = (spec_rng.standard_normal((8, 6)) / np.sqrt(6)).astype(np.float32)
        for q in queries[:6]:
            latent = readout.astype(np.float64) @ q.word_vectors.mean(axis=0)
            groups = ((v, corpus.features_for(v.video_id), enumerate_moments(v, preset.enum))
                      for v in corpus.videos)
            ranked, _ = _rank(groups, latent, "cal", params, preset.nms_iou, 10)
            top = ranked[0].moment
            gt = q.ground_truth
            assert top.video_id == gt.video_id
            assert max(temporal_iou(top.span, a) for a in gt.annotations) >= 0.5

    def test_counter_asymmetry_cal_vs_aggregate(self, planted):
        preset, corpus, queries, params = planted
        cfg = RetrievalConfig(nms_iou=preset.nms_iou, top_k=10, budget=10)
        res_cal = exhaustive_search(corpus, queries[0], params, preset.enum, cfg)
        cfg_agg = RetrievalConfig(variant="aggregate", nms_iou=preset.nms_iou,
                                  top_k=10, budget=10)
        res_agg = exhaustive_search(corpus, queries[0], params, preset.enum, cfg_agg)
        assert res_cal.stage_counters["stage1_distances"] == corpus.total_clips
        assert res_agg.stage_counters["stage1_distances"] == \
            corpus.total_candidates(preset.enum)
        assert res_cal.stage_counters["stage1_distances"] < \
            res_agg.stage_counters["stage1_distances"]


class TestTwoStage:
    def test_full_clip_budget_equals_exhaustive(self, planted):
        preset, corpus, queries, params = planted
        index = build_exact(corpus, params)
        universe = corpus.total_candidates(preset.enum)
        for nms_iou in (preset.nms_iou, 0.5):  # didemo's 1.0 never suppresses; 0.5 does
            cfg = RetrievalConfig(nms_iou=nms_iou, top_k=universe, budget=universe,
                                  clip_budget=corpus.total_clips)
            for q in queries[:4]:
                ex = exhaustive_search(corpus, q, params, preset.enum, cfg)
                ts = two_stage_search(corpus, index, q, params, None, preset.enum, cfg,
                                      mode="approx")
                assert (len(ex.ranked) < universe) == (nms_iou < 1)
                assert [(s.moment.sort_key, s.cost) for s in ex.ranked] == \
                    [(s.moment.sort_key, s.cost) for s in ts.ranked]

    def test_full_moment_budget_equals_exhaustive(self, planted):
        preset, corpus, queries, params = planted
        universe = corpus.total_candidates(preset.enum)
        for nms_iou in (preset.nms_iou, 0.5):  # didemo's 1.0 never suppresses; 0.5 does
            cfg = RetrievalConfig(nms_iou=nms_iou, top_k=universe, budget=universe)
            for q in queries[:4]:
                ex = exhaustive_search(corpus, q, params, preset.enum, cfg)
                ts = two_stage_search(corpus, None, q, params, None, preset.enum, cfg,
                                      mode="moment")
                assert (len(ex.ranked) < universe) == (nms_iou < 1)
                assert [(s.moment.sort_key, s.cost) for s in ex.ranked] == \
                    [(s.moment.sort_key, s.cost) for s in ts.ranked]

    def test_truncated_moment_budget_keeps_cheapest_stage_one_moments(self, planted):
        from momentsearch.costs import moment_cost_aggregate
        from momentsearch.model import compute_context, embed_query

        preset, corpus, queries, params = planted
        budget = 30
        q = queries[0]
        q_emb = embed_query(q.word_vectors, params)
        brute = []
        for video in corpus.videos:
            feats = corpus.features_for(video.video_id)
            context = compute_context(feats)
            for m in enumerate_moments(video, preset.enum):
                brute.append((moment_cost_aggregate(q_emb, feats, context, None, m, params),
                              m.sort_key))
        assert len(brute) == 252 > budget
        brute.sort()
        expected = {key for _, key in brute[:budget]}
        # NMS at 1.0 keeps every candidate, so the ranked list is the stage-two set
        cfg = RetrievalConfig(variant="aggregate", rerank_variant="cal", nms_iou=1.0,
                              top_k=budget, budget=budget)
        ts = two_stage_search(corpus, None, q, params, None, preset.enum, cfg, mode="moment")
        assert {s.moment.sort_key for s in ts.ranked} == expected
        touched = {video_id for video_id, _, _ in expected}
        assert ts.stage_counters == {
            "stage1_distances": len(brute),  # aggregate: one distance per moment
            "stage1_moments": len(brute),
            "stage2_distances": sum(corpus.video(v).num_clips for v in touched),
            "stage2_moments": budget,
        }

    def test_top_k_above_budget_allowed_outside_moment_mode(self, planted):
        preset, corpus, queries, params = planted
        index = build_exact(corpus, params)
        cfg = RetrievalConfig(nms_iou=preset.nms_iou, top_k=50, budget=10)
        ex = exhaustive_search(corpus, queries[0], params, preset.enum, cfg)
        ts = two_stage_search(corpus, index, queries[0], params, None, preset.enum, cfg,
                              mode="approx")
        assert len(ex.ranked) == len(ts.ranked) == 50

    def test_moment_budget_below_top_k_rejected(self, planted):
        preset, corpus, queries, params = planted
        cfg = RetrievalConfig(nms_iou=preset.nms_iou, top_k=50, budget=10)
        with pytest.raises(ValueError, match="budget"):
            two_stage_search(corpus, None, queries[0], params, None, preset.enum, cfg,
                             mode="moment")

    def test_candidates_contain_every_retrieved_clip(self, planted):
        preset, corpus, queries, params = planted
        index = build_exact(corpus, params)
        cfg = RetrievalConfig(nms_iou=1.0, top_k=10, budget=10, clip_budget=12)
        q = queries[0]
        from momentsearch.model import embed_query

        hits, _ = index.search(embed_query(q.word_vectors, params), top_c=12)
        ts = two_stage_search(corpus, index, q, params, None, preset.enum, cfg,
                              mode="approx")
        # brute-force containment: every enumerated moment holding a retrieved
        # clip must have been scored (visible through stage-two counters)
        expected = 0
        by_video = {}
        for h in hits:
            by_video.setdefault(h.video_id, set()).add(h.clip_idx)
        for video in corpus.videos:
            clips = by_video.get(video.video_id)
            if not clips:
                continue
            for m in enumerate_moments(video, preset.enum):
                if any(m.first_clip <= k <= m.last_clip for k in clips):
                    expected += 1
        assert ts.stage_counters["stage2_moments"] == expected

    def test_monotone_clip_budget(self, planted):
        preset, corpus, queries, params = planted
        index = build_exact(corpus, params)
        q = queries[1]
        universe = corpus.total_candidates(preset.enum)
        scored_sets = []
        for budget in (4, 16, 64):
            # top_k covers the universe so the ranked list is the candidate set
            cfg = RetrievalConfig(nms_iou=1.0, top_k=universe, budget=universe,
                                  clip_budget=budget)
            ts = two_stage_search(corpus, index, q, params, None, preset.enum, cfg,
                                  mode="approx")
            scored_sets.append({s.moment.sort_key for s in ts.ranked})
        assert scored_sets[0] <= scored_sets[1] <= scored_sets[2]

    def test_stage2_cheaper_than_corpus_scan(self, planted):
        preset, corpus, queries, params = planted
        ivf = build_ivf(corpus, params, partitions=12, seed=0)
        cfg = RetrievalConfig(nms_iou=preset.nms_iou, top_k=10, budget=10,
                              clip_budget=6, nprobe=3)
        ts = two_stage_search(corpus, ivf, queries[2], params, None, preset.enum, cfg,
                              mode="approx")
        assert ts.stage_counters["stage1_distances"] < corpus.total_clips
        assert ts.stage_counters["stage2_distances"] < corpus.total_clips

    def test_rerank_params_used_for_stage_two(self, planted):
        preset, corpus, queries, params = planted
        rerank = init_params(
            ModelDims(8, 6, hidden_mlp=12, embed=6, hidden_lstm=8, use_tef=True), 99)
        index = build_exact(corpus, params)
        cfg = RetrievalConfig(nms_iou=preset.nms_iou, top_k=10, budget=10,
                              clip_budget=24, rerank_variant="cal_tef")
        ts = two_stage_search(corpus, index, queries[0], params, rerank, preset.enum,
                              cfg, mode="approx")
        assert ts.ranked  # TEF re-ranking path executes end to end

    def test_tef_rerank_requires_tef_model(self, planted):
        preset, corpus, queries, params = planted
        index = build_exact(corpus, params)
        cfg = RetrievalConfig(nms_iou=1.0, top_k=5, budget=5, rerank_variant="cal_tef")
        with pytest.raises(ValueError):
            two_stage_search(corpus, index, queries[0], params, None, preset.enum,
                             cfg, mode="approx")


class TestBaselines:
    def test_chance_is_permutation(self, planted):
        preset, corpus, queries, _ = planted
        universe = corpus.total_candidates(preset.enum)
        cfg = RetrievalConfig(nms_iou=1.0, top_k=universe, budget=universe)
        res = baseline_scores(corpus, queries[0], "chance", preset.enum, cfg, seed=3)
        keys = [s.moment.sort_key for s in res.ranked]
        assert len(keys) == universe
        assert len(set(keys)) == universe

    def test_chance_deterministic_per_seed(self, planted):
        preset, corpus, queries, _ = planted
        cfg = RetrievalConfig(nms_iou=1.0, top_k=30, budget=30)
        a = baseline_scores(corpus, queries[0], "chance", preset.enum, cfg, seed=3)
        b = baseline_scores(corpus, queries[0], "chance", preset.enum, cfg, seed=3)
        c = baseline_scores(corpus, queries[0], "chance", preset.enum, cfg, seed=4)
        assert [s.moment.sort_key for s in a.ranked] == [s.moment.sort_key for s in b.ranked]
        assert [s.moment.sort_key for s in a.ranked] != [s.moment.sort_key for s in c.ranked]

    def test_prior_whole_video_bin(self, planted):
        preset, corpus, queries, _ = planted
        # every ground truth is the whole video: the prior concentrates there
        whole = []
        for q in queries:
            video = corpus.video(q.ground_truth.video_id)
            span = TemporalSpan(0.0, video.duration)
            whole.append(Query(q.query_id, q.word_vectors,
                               q.ground_truth.__class__(q.ground_truth.video_id, (span,))))
        prior = fit_moment_prior(corpus, whole, bins=10)
        cfg = RetrievalConfig(nms_iou=1.0, top_k=len(corpus.videos), budget=999)
        res = baseline_scores(corpus, whole[0], "moment_prior", preset.enum, cfg,
                              prior=prior, seed=0)
        for s in res.ranked[:len(corpus.videos)]:
            video = corpus.video(s.moment.video_id)
            assert s.moment.span.start == 0.0
            assert s.moment.span.end == video.duration

    def test_prior_requires_fit(self, planted):
        preset, corpus, queries, _ = planted
        cfg = RetrievalConfig(nms_iou=1.0, top_k=5, budget=5)
        with pytest.raises(ValueError):
            baseline_scores(corpus, queries[0], "moment_prior", preset.enum, cfg)

    def test_tef_only_equal_endpoints_equal_scores(self, planted):
        preset, corpus, queries, _ = planted
        dims = ModelDims(8, 6, hidden_mlp=12, embed=6, hidden_lstm=8,
                         use_tef=True, tef_only=True)
        params = init_params(dims, 1)
        cfg = RetrievalConfig(variant="cal_tef", nms_iou=1.0, top_k=500, budget=500)
        res = baseline_scores(corpus, queries[0], "tef_only", preset.enum, cfg,
                              params=params)
        costs = {}
        for s in res.ranked:
            video = corpus.video(s.moment.video_id)
            key = (s.moment.span.start / video.duration, s.moment.span.end / video.duration)
            costs.setdefault(key, set()).add(round(s.cost, 12))
        # equal normalized endpoints in equal-duration videos share one score
        assert all(len(v) == 1 for v in costs.values())

    def test_tef_only_requires_masked_model(self, planted):
        preset, corpus, queries, params = planted
        cfg = RetrievalConfig(nms_iou=1.0, top_k=5, budget=5)
        with pytest.raises(ValueError):
            baseline_scores(corpus, queries[0], "tef_only", preset.enum, cfg,
                            params=params)


class TestSingleVideo:
    def test_restrict_corpus(self, planted):
        _, corpus, queries, _ = planted
        vid = queries[0].ground_truth.video_id
        mini = restrict_corpus(corpus, vid)
        assert len(mini) == 1
        assert mini.videos[0].video_id == vid
