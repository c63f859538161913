import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentsearch.core import Moment, Query, TemporalSpan, VideoMeta, temporal_iou
from momentsearch.dataio import Corpus, SyntheticSpec, generate_synthetic, stable_u32
from momentsearch.enumeration import EnumConfig, candidate_clips, enumerate_moments, get_preset
from momentsearch.index import build_exact, build_ivf
from momentsearch.model import ModelDims, init_params
from momentsearch.retrieval import (
    MomentPrior,
    RetrievalConfig,
    _grid_table,
    baseline_scores,
    exhaustive_search,
    fit_moment_prior,
    candidate_table,
    nms,
    restrict_corpus,
    run_starts,
    two_stage_search,
)
from conftest import greedy_nms_reference, varied_corpus


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


def _spans(moments) -> np.ndarray:
    return np.array([[m.span.start, m.span.end] for m in moments])


class TestNms:
    def _spans(self, video, pairs):
        return _spans(Moment.from_clips(video, i, j) for i, j in pairs)

    def test_threshold_one_keeps_everything(self):
        video = _video()
        spans = self._spans(video, [(0, 3), (0, 2), (1, 3), (0, 4)])
        assert nms(spans, 1.0).tolist() == [0, 1, 2, 3]

    def test_identical_spans_suppressed(self):
        video = _video()
        assert nms(self._spans(video, [(2, 5), (2, 5)]), 0.6).tolist() == [0]

    def test_low_overlap_pair_survives(self):
        video = _video(20)
        spans = self._spans(video, [(0, 9), (5, 14)])  # [0, 10), [5, 15): IoU 1/3
        assert nms(spans, 0.5).tolist() == [0, 1]

    def test_greedy_cascade(self):
        video = _video(20)
        # IoU of the 2nd with the 1st is 9/11, of the 3rd with the 1st 8/12: both > 0.5
        spans = self._spans(video, [(0, 9), (1, 10), (2, 11)])
        assert nms(spans, 0.5).tolist() == [0]

    def test_retained_pairs_respect_constraint(self, rng):
        video = _video(16)
        moments = enumerate_moments(
            video, get_preset("charades-sta").enum.__class__(
                clip_length=1.0, max_moment_clips=8, stride_seconds=1.0))
        costs = rng.random(len(moments))
        moments = [moments[i] for i in np.argsort(costs)]
        for thr in (0.3, 0.5, 0.7):
            kept = [moments[i] for i in nms(_spans(moments), thr)]
            for i in range(len(kept)):
                for j in range(i + 1, len(kept)):
                    assert temporal_iou(kept[i].span, kept[j].span) <= thr

    def test_blocks_suppress_only_within_their_video(self, rng):
        from momentsearch.core import clip_spans

        enum = get_preset("charades-sta").enum
        blocks, want = [], []
        for n in (2, 9, 16, 5):
            grid = candidate_clips(n, enum)
            spans = clip_spans(VideoMeta(f"v{n}", n * 3.0, 3.0, n),
                               *grid[np.argsort(rng.random(len(grid)))].T)
            want.extend(sum(map(len, blocks)) + nms(spans, 0.4))
            blocks.append(spans)
        sizes = [len(b) for b in blocks]
        ends = np.repeat(np.cumsum(sizes), sizes)
        assert nms(np.concatenate(blocks), 0.4, ends).tolist() == want
        # Every video has the candidate [0, 6): without the blocks one video suppresses another.
        assert len(nms(np.concatenate(blocks), 0.4)) < len(want)

    @settings(max_examples=60, deadline=None)
    @given(preset_name=st.sampled_from(["charades-sta", "activitynet"]),
           num_clips=st.integers(2, 80), short_by=st.floats(0.0, 0.95),
           tied=st.booleans(), seed=st.integers(0, 2**32 - 1),
           thr=st.sampled_from([0.3, 0.5, 0.6, 1.0]))
    def test_matches_greedy_temporal_iou_loop(self, preset_name, num_clips, short_by, tied,
                                              seed, thr):
        enum = get_preset(preset_name).enum
        video = VideoMeta("v", (num_clips - short_by) * enum.clip_length, enum.clip_length,
                          num_clips)
        grid = candidate_clips(num_clips, enum)
        rng = np.random.default_rng(seed)
        costs = rng.integers(0, 3, len(grid)) if tied else rng.random(len(grid))
        order = np.lexsort((grid[:, 1], grid[:, 0], costs))
        moments = [Moment.from_clips(video, f, l) for f, l in grid[order].tolist()]
        assert nms(_spans(moments), thr).tolist() == \
            greedy_nms_reference([m.span for m in moments], thr)

    @settings(max_examples=80, deadline=None)
    @given(sizes=st.lists(st.integers(1, 40), max_size=8), tied=st.booleans(),
           seed=st.integers(0, 2**32 - 1), thr=st.sampled_from([0.3, 0.5, 0.6, 1.0]))
    def test_blocks_match_per_block_greedy_loop(self, sizes, tied, seed, thr):
        # Each block holds random clip ranges of its own video, repeats
        # included, sorted cheapest first; one-row blocks and no blocks at all
        # are drawn too.
        rng = np.random.default_rng(seed)
        blocks, want = [], []
        for size in sizes:
            n = int(rng.integers(2, 30))
            clip_length = float(rng.choice([1.0, 2.5, 3.0]))
            video = VideoMeta("v", (n - float(rng.choice([0.0, 0.25, 0.6]))) * clip_length,
                              clip_length, n)
            firsts = rng.integers(0, n - 1, size)
            lasts = firsts + 1 + rng.integers(0, n - 1 - firsts)
            costs = rng.integers(0, 3, size) if tied else rng.random(size)
            order = np.lexsort((lasts, firsts, costs))
            moments = [Moment.from_clips(video, f, l)
                       for f, l in zip(firsts[order].tolist(), lasts[order].tolist())]
            offset = sum(map(len, blocks))
            want.extend(offset + k for k in greedy_nms_reference([m.span for m in moments], thr))
            blocks.append(_spans(moments))
        spans = np.concatenate([np.empty((0, 2)), *blocks])
        ends = np.repeat(np.cumsum(sizes, dtype=np.int64), sizes)
        assert nms(spans, thr, ends).tolist() == want

    def test_empty_input_keeps_nothing(self):
        for thr in (0.5, 1.0):
            assert nms(np.empty((0, 2)), thr).tolist() == []
            assert nms(np.empty((0, 2)), thr, np.empty(0, dtype=np.int64)).tolist() == []


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
        from momentsearch.retrieval import _price, _select

        params = identity_visual_params(visual_in=8)

        # recompute each query's latent from its words and the stored readout
        spec_rng = np.random.default_rng(8)
        vocab = spec_rng.standard_normal((24, 6)).astype(np.float32)
        readout = (spec_rng.standard_normal((8, 6)) / np.sqrt(6)).astype(np.float32)
        table = candidate_table(corpus, preset.enum)
        rows = (table.ordinal, table.firsts, table.lasts)
        for q in queries[:6]:
            latent = readout.astype(np.float64) @ q.word_vectors.mean(axis=0)
            costs, _ = _price(corpus, *rows, latent, "cal", params, table.starts)
            ranked = _select(corpus, *rows, costs, preset.nms_iou, 10, table.starts)
            top = ranked[0].moment
            gt = q.ground_truth
            assert top.video_id == gt.video_id
            assert max(temporal_iou(top.span, a) for a in gt.annotations) >= 0.5

    def test_cost_ties_break_by_clips_within_and_video_id_across(self):
        from momentsearch.retrieval import _select

        enum = get_preset("charades-sta").enum
        grid = candidate_clips(10, enum)
        videos = [VideoMeta(vid, 30.0, 3.0, 10) for vid in ("vb", "va")]
        corpus = Corpus(videos, {v.video_id: np.zeros((10, 1)) for v in videos})
        ordinal = np.repeat([0, 1], len(grid))
        firsts, lasts = np.tile(grid, (2, 1)).T
        ranked = _select(corpus, ordinal, firsts, lasts, np.zeros(len(ordinal)), 0.3,
                         len(grid) * 2, run_starts(ordinal))
        # every cost ties: suppression walks each video in (first, last) order
        kept = greedy_nms_reference(
            [Moment.from_clips(videos[0], f, l).span for f, l in grid.tolist()], 0.3)
        assert [(s.moment.video_id, s.moment.first_clip, s.moment.last_clip)
                for s in ranked] == [(vid, *grid[k].tolist()) for vid in ("va", "vb")
                                     for k in kept]

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

    @pytest.mark.parametrize("row_cap", [None, 40])
    def test_approx_embeds_once_per_clip_count_and_chunk(self, monkeypatch, row_cap):
        # Stage two embeds the touched videos of each clip count together,
        # not one `embed_clips` call per video.
        from momentsearch import model

        rng = np.random.default_rng(41)
        sizes = [12, 20] * 7 + [12] * 2
        videos = [_video(n, 3.0, f"v{i:02d}") for i, n in enumerate(sizes)]
        corpus = Corpus(videos, {v.video_id: rng.standard_normal((v.num_clips, 3))
                                 for v in videos})
        params = init_params(ModelDims(3, 2, hidden_mlp=8, embed=5, hidden_lstm=3), 42)
        index = build_exact(corpus, params)
        if row_cap is not None:
            monkeypatch.setattr(model, "_EMBED_CHUNK_ROWS", row_cap)
        calls = []
        real_embed_clips = model.embed_clips

        def counting_embed_clips(feats, *args):
            calls.append(np.shape(feats))
            return real_embed_clips(feats, *args)

        monkeypatch.setattr(model, "embed_clips", counting_embed_clips)
        cfg = RetrievalConfig(clip_budget=corpus.total_clips, nms_iou=0.5, top_k=10)
        q = Query("q", rng.standard_normal((3, 2)))
        res = two_stage_search(corpus, index, q, params, None, get_preset("charades-sta").enum,
                               cfg)
        assert len(res.ranked) == 10
        chunks = sum(-(-sizes.count(n) // max(1, model._EMBED_CHUNK_ROWS // n))
                     for n in set(sizes))
        assert 0 < len(calls) <= chunks == (2 if row_cap is None else 7)
        # A chunk holds at most the row cap, or one video.
        assert all(k == 1 or k * n <= model._EMBED_CHUNK_ROWS for k, n, _ in calls)

    def test_moment_mode_scores_each_video_in_stage_one_order(self, monkeypatch):
        from dataclasses import replace

        from momentsearch import retrieval

        enum_cfg = get_preset("charades-sta").enum
        corpus, queries = varied_corpus(np.random.default_rng(31), enum_cfg.clip_length,
                                        num_videos=10)
        params = init_params(ModelDims(3, 2, hidden_mlp=6, embed=4, hidden_lstm=3), 5)
        calls = []
        score_moments = retrieval.score_moments

        def spy(video, feats, q_emb, variant, p, firsts, lasts, counters=None):
            calls.append((video.video_id, list(zip(firsts.tolist(), lasts.tolist()))))
            return score_moments(video, feats, q_emb, variant, p, firsts, lasts, counters)

        monkeypatch.setattr(retrieval, "score_moments", spy)
        cfg = RetrievalConfig(rerank_variant="aggregate", nms_iou=0.5, top_k=20, budget=60)
        for q in queries[:3]:
            stage1 = exhaustive_search(corpus, q, params, enum_cfg,
                                       replace(cfg, nms_iou=1.0, top_k=cfg.budget))
            by_video = {}
            for s in stage1.ranked:
                by_video.setdefault(s.moment.video_id, []).append(
                    (s.moment.first_clip, s.moment.last_clip))
            calls.clear()
            two_stage_search(corpus, None, q, params, None, enum_cfg, cfg, mode="moment")
            # One call per video, videos in corpus order, rows in stage-one order.
            assert calls == [(v, by_video[v]) for v in sorted(by_video, key=corpus.ordinal_of.get)]
            assert any(rows != sorted(rows) for _, rows in calls)

    def test_truncated_moment_budget_keeps_cheapest_stage_one_moments(self, planted):
        from momentsearch.costs import score_moments
        from momentsearch.model import embed_query

        preset, corpus, queries, params = planted
        budget = 30
        q = queries[0]
        q_emb = embed_query(q.word_vectors, params)
        brute = []
        for video in corpus.videos:
            feats = corpus.features_for(video.video_id)
            for m in enumerate_moments(video, preset.enum):
                cost = score_moments(video, feats, q_emb, "aggregate", params,
                                     np.array([m.first_clip]), np.array([m.last_clip]))[0]
                brute.append((cost, m.sort_key))
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

    @pytest.mark.parametrize("rerank", ["same", "other"])
    def test_approx_embeds_the_query_once_per_model(self, planted, rerank, monkeypatch):
        import momentsearch.retrieval as retrieval_mod

        preset, corpus, queries, params = planted
        index = build_exact(corpus, params)
        rerank_params = params if rerank == "same" else init_params(params.dims, 9)
        cfg = RetrievalConfig(nms_iou=preset.nms_iou, top_k=10, clip_budget=12)
        want = two_stage_search(corpus, index, queries[0], params, rerank_params, preset.enum,
                                cfg, mode="approx")
        embedded, embed_query = [], retrieval_mod.embed_query

        def counting(word_vectors, p):
            embedded.append(p)
            return embed_query(word_vectors, p)

        monkeypatch.setattr(retrieval_mod, "embed_query", counting)
        got = two_stage_search(corpus, index, queries[0], params, rerank_params, preset.enum,
                               cfg, mode="approx")
        assert [p is params for p in embedded] == ([True] if rerank == "same" else [True, False])
        assert list(got.ranked) == list(want.ranked) and got.stage_counters == want.stage_counters

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

    def test_dilated_containment_matches_brute_force(self, planted):
        from momentsearch.model import embed_query

        preset, corpus, queries, params = planted
        index = build_exact(corpus, params)
        universe = corpus.total_candidates(preset.enum)
        q = queries[0]
        hits, _ = index.search(embed_query(q.word_vectors, params), top_c=12)
        by_video = {}
        for h in hits:
            by_video.setdefault(h.video_id, set()).add(h.clip_idx)
        sizes = []
        for d in range(4):
            # NMS at 1.0 and top_k covering the universe: the ranked list is the candidate set
            cfg = RetrievalConfig(nms_iou=1.0, top_k=universe, clip_budget=12, dilation_clips=d)
            ts = two_stage_search(corpus, index, q, params, None, preset.enum, cfg,
                                  mode="approx")
            expected = {
                m.sort_key for video in corpus.videos
                for m in enumerate_moments(video, preset.enum)
                if any(m.first_clip - d <= k <= m.last_clip + d
                       for k in by_video.get(video.video_id, ()))
            }
            assert {s.moment.sort_key for s in ts.ranked} == expected
            sizes.append(len(expected))
        assert sizes[0] < sizes[3]

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
                              clip_budget=24, rerank_variant="cal")
        ts = two_stage_search(corpus, index, queries[0], params, rerank, preset.enum,
                              cfg, mode="approx")
        assert ts.ranked  # TEF re-ranking path executes end to end


# Enumeration settings for the reference comparisons below: the three
# presets, plus a minimum length that exceeds some videos' clip counts.
REFERENCE_ENUMS = {
    **{name: get_preset(name).enum for name in ("didemo", "charades-sta", "activitynet")},
    "min-above-clips": EnumConfig(clip_length=3.0, max_moment_clips=9, stride_ratio=0.3,
                                  min_moment_clips=6),
}


def fit_moment_prior_reference(corpus, queries, bins):
    """The per-annotation binning loop that `fit_moment_prior` replaced."""
    counts = np.zeros((bins, bins), dtype=np.float64)
    total = 0
    for q in queries:
        duration = corpus.video(q.ground_truth.video_id).duration
        for span in q.ground_truth.annotations:
            i = min(int(span.start / duration * bins), bins - 1)
            j = min(int(span.end / duration * bins), bins - 1)
            counts[i, j] += 1
            total += 1
    return counts / total


def baseline_reference(corpus, query, kind, enum_cfg, top_k, prior, seed):
    """The per-`Moment` chance and prior rankings that `baseline_scores` replaced."""
    rng = np.random.default_rng([seed, stable_u32(query.query_id)])
    all_moments, durations = [], []
    for video in corpus.videos:
        for m in enumerate_moments(video, enum_cfg):
            all_moments.append(m)
            durations.append(video.duration)
    if kind == "chance":
        order = rng.permutation(len(all_moments))
        ranked = [(all_moments[i], float(r)) for r, i in enumerate(order)]
    else:
        jitter = rng.random(len(all_moments))
        scored = []
        for idx, m in enumerate(all_moments):
            s_norm, e_norm = m.span.start / durations[idx], m.span.end / durations[idx]
            i = min(int(s_norm * prior.bins), prior.bins - 1)
            j = min(int(e_norm * prior.bins), prior.bins - 1)
            scored.append((-float(prior.probabilities[i, j]), jitter[idx], m))
        scored.sort(key=lambda t: (t[0], t[1], t[2].sort_key))
        ranked = [(m, float(cost)) for cost, _, m in scored]
    return ranked[:top_k], len(all_moments)


class TestBaselines:
    @pytest.mark.parametrize("enum_name", sorted(REFERENCE_ENUMS))
    def test_equal_to_per_moment_reference(self, enum_name):
        from conftest import varied_corpus

        enum_cfg = REFERENCE_ENUMS[enum_name]
        corpus, queries = varied_corpus(np.random.default_rng(11), enum_cfg.clip_length)
        prior = fit_moment_prior(corpus, queries, bins=7)
        assert prior.probabilities.tobytes() == \
            fit_moment_prior_reference(corpus, queries, 7).tobytes()
        universe = corpus.total_candidates(enum_cfg)
        for top_k in (1, 25, universe + 5):
            cfg = RetrievalConfig(nms_iou=1.0, top_k=top_k, budget=max(top_k, 200))
            for kind in ("chance", "moment_prior"):
                for q in queries[:5]:
                    got = baseline_scores(corpus, q, kind, enum_cfg, cfg, prior=prior, seed=2)
                    want, total = baseline_reference(corpus, q, kind, enum_cfg, top_k, prior, 2)
                    assert got.stage_counters == {"stage1_moments": total}
                    assert [(s.moment, s.cost.hex()) for s in got.ranked] == \
                        [(m, cost.hex()) for m, cost in want]

    def test_no_candidates_ranks_nothing(self):
        enum_cfg = REFERENCE_ENUMS["min-above-clips"]
        short = VideoMeta("v0", 12.0, 3.0, 4)
        prior = MomentPrior(10, np.full((10, 10), 0.01))
        cfg = RetrievalConfig(nms_iou=1.0, top_k=10, budget=10)
        query = Query("q", np.ones((2, 3)))
        for corpus in (Corpus([], {}), Corpus([short], {"v0": np.zeros((4, 3))})):
            for kind in ("chance", "moment_prior"):
                res = baseline_scores(corpus, query, kind, enum_cfg, cfg, prior=prior)
                assert res.ranked == []
                assert res.stage_counters == {"stage1_moments": 0}

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
        cfg = RetrievalConfig(variant="cal", nms_iou=1.0, top_k=500, budget=500)
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


def _keys(result):
    return [(s.moment, s.cost.hex()) for s in result.ranked]


def _fresh(corpus):
    """A new corpus object over the same videos and features: no candidate table."""
    return Corpus(list(corpus.videos),
                  {v.video_id: corpus.features_for(v.video_id) for v in corpus.videos})


class TestRetrievalConfig:
    @pytest.mark.parametrize("field", ["variant", "rerank_variant"])
    def test_unknown_variant_refused(self, field):
        # Refused up front: an empty corpus or an approximate search without
        # hits scores no row, so scoring would never see the name.
        with pytest.raises(ValueError, match=f"unknown {field} 'tef'"):
            RetrievalConfig(**{field: "tef"})


class TestCandidateTable:
    def test_empty_corpus_ranks_nothing(self):
        enum_cfg = get_preset("charades-sta").enum
        params = init_params(ModelDims(3, 2, hidden_mlp=4, embed=3, hidden_lstm=2), 0)
        query = Query("q", np.ones((2, 2)))
        for variant in ("cal", "aggregate"):
            cfg = RetrievalConfig(variant=variant, nms_iou=0.5, top_k=5, budget=5)
            ex = exhaustive_search(Corpus([], {}), query, params, enum_cfg, cfg)
            assert ex.ranked == []
            assert ex.stage_counters == {"stage1_distances": 0, "stage1_moments": 0}
            ts = two_stage_search(Corpus([], {}), None, query, params, None, enum_cfg, cfg,
                                  mode="moment")
            assert ts.ranked == []

    def test_videos_without_candidates_evaluate_no_distance(self, rng):
        enum_cfg = REFERENCE_ENUMS["min-above-clips"]  # moments of at least 6 clips
        videos = [VideoMeta(vid, n * 3.0, 3.0, n) for vid, n in (("a", 4), ("b", 10), ("c", 5))]
        corpus = Corpus(videos, {v.video_id: rng.standard_normal((v.num_clips, 3))
                                 for v in videos})
        params = init_params(ModelDims(3, 2, hidden_mlp=4, embed=3, hidden_lstm=2), 0)
        query = Query("q", rng.standard_normal((2, 2)))
        cfg = RetrievalConfig(nms_iou=1.0, top_k=100)
        res = exhaustive_search(corpus, query, params, enum_cfg, cfg)
        assert res.stage_counters == {"stage1_distances": 10,
                                      "stage1_moments": len(candidate_clips(10, enum_cfg))}
        table = candidate_table(corpus, enum_cfg)
        np.testing.assert_array_equal(table.starts, run_starts(table.ordinal))
        assert {s.moment.video_id for s in res.ranked} == {"b"}
        short = Corpus([videos[0], videos[2]], {v: corpus.features_for(v) for v in ("a", "c")})
        res = exhaustive_search(short, query, params, enum_cfg, cfg)
        assert res.ranked == []
        assert res.stage_counters == {"stage1_distances": 0, "stage1_moments": 0}

    def test_grid_table_holds_only_the_corpus_clip_counts(self):
        # A table of every count up to the longest video grows with its square.
        enum_cfg = get_preset("activitynet").enum
        videos = [VideoMeta(vid, n * 5.0, 5.0, n) for vid, n in (("a", 3), ("b", 400), ("c", 3))]
        corpus = Corpus(videos, {v.video_id: np.zeros((v.num_clips, 2)) for v in videos})
        assert corpus.clip_counts == (3, 400)
        firsts, _, _, _, _, sizes = _grid_table(corpus.clip_counts, enum_cfg, 0)
        grid_rows = [len(candidate_clips(n, enum_cfg)) for n in (3, 400)]
        assert len(firsts) == sum(grid_rows)
        assert np.flatnonzero(sizes).tolist() == [3, 400]
        assert candidate_table(corpus, enum_cfg).size == 2 * grid_rows[0] + grid_rows[1]

    def test_single_video_search_builds_a_table_per_restricted_corpus(self, planted):
        preset, corpus, queries, params = planted
        universe = corpus.total_candidates(preset.enum)
        full_table = candidate_table(corpus, preset.enum)
        for nms_iou in (1.0, 0.5):
            cfg = RetrievalConfig(nms_iou=nms_iou, top_k=universe, budget=universe)
            for q in queries[:4]:
                vid = q.ground_truth.video_id
                mini = restrict_corpus(corpus, vid)
                assert mini.candidates is None
                res = exhaustive_search(mini, q, params, preset.enum, cfg)
                assert mini.candidates is not None
                full = exhaustive_search(corpus, q, params, preset.enum, cfg)
                assert _keys(res) == [k for k in _keys(full) if k[0].video_id == vid]
        assert corpus.candidates is full_table

    def test_model_updated_in_place_is_not_served_stale(self, planted):
        from momentsearch.training import TrainConfig, sgd_step

        preset, corpus, queries, params = planted
        corpus, params = _fresh(corpus), params.copy()
        cfg = RetrievalConfig(nms_iou=0.5, top_k=40)
        before = exhaustive_search(corpus, queries[0], params, preset.enum, cfg)
        tensors = params.tensors()
        sgd_step(params, {n: np.ones_like(t) for n, t in tensors.items()},
                 {n: np.zeros_like(t) for n, t in tensors.items()}, 0, TrainConfig(lr0=0.01))
        after_step = exhaustive_search(corpus, queries[0], params, preset.enum, cfg)
        assert _keys(after_step) != _keys(before)
        params.mlp_w1[0, 0] += 0.5
        for q in queries[:3]:
            assert _keys(exhaustive_search(corpus, q, params, preset.enum, cfg)) == \
                _keys(exhaustive_search(_fresh(corpus), q, params, preset.enum, cfg))

    def test_second_enumeration_on_the_same_corpus(self, planted):
        preset, corpus, queries, params = planted
        corpus = _fresh(corpus)
        other = EnumConfig(clip_length=2.5, max_moment_clips=7, stride_ratio=0.3)
        for enum_cfg in (preset.enum, other, preset.enum):
            cfg = RetrievalConfig(nms_iou=0.6, top_k=60)
            for q in queries[:2]:
                res = exhaustive_search(corpus, q, params, enum_cfg, cfg)
                assert _keys(res) == \
                    _keys(exhaustive_search(_fresh(corpus), q, params, enum_cfg, cfg))
                assert res.stage_counters["stage1_moments"] == corpus.total_candidates(enum_cfg)

    def test_alternating_models_keep_one_table(self):
        import tracemalloc

        from conftest import make_corpus

        corpus = make_corpus(np.random.default_rng(4), num_videos=50, num_clips=20,
                             visual_dim=6)
        enum_cfg = get_preset("didemo").enum
        dims = ModelDims(6, 4, hidden_mlp=16, embed=64, hidden_lstm=4)
        models = (init_params(dims, 1), init_params(dims, 2))
        query = Query("q", np.random.default_rng(5).standard_normal((3, 4)))
        cfg = RetrievalConfig(nms_iou=1.0, top_k=20)
        table = candidate_table(corpus, enum_cfg)
        tracemalloc.start()
        try:
            for params in models * 2:
                assert _keys(exhaustive_search(corpus, query, params, enum_cfg, cfg)) == \
                    _keys(exhaustive_search(_fresh(corpus), query, params, enum_cfg, cfg))
            settled = tracemalloc.get_traced_memory()[0]
            for params in models * 5:
                exhaustive_search(corpus, query, params, enum_cfg, cfg)
            grown = tracemalloc.get_traced_memory()[0] - settled
        finally:
            tracemalloc.stop()
        assert corpus.candidates is table
        # One clip matrix (50 videos x 20 clips x 64 x 8 bytes) is 512 KB.
        assert grown < corpus.total_clips * dims.embed * 8 // 4
