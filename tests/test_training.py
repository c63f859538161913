import numpy as np
import pytest

from momentsearch.core import GroundTruth, Moment, Query, TemporalSpan, VideoMeta, temporal_iou
from momentsearch.costs import cal_costs, sq_distances
from momentsearch.dataio import Corpus, SyntheticSpec, generate_synthetic
from momentsearch.enumeration import EnumConfig, enumerate_moments, get_preset
from momentsearch.model import (
    ModelDims,
    ModelParams,
    compute_context,
    embed_clips,
    embed_query,
    init_params,
)
import momentsearch.training as training
from momentsearch.training import (
    DIVERGENCE_FACTOR,
    TrainConfig,
    TrainDataset,
    TrainingDiverged,
    _assemble_batch,
    _forward,
    batch_loss,
    exponential_rank_weights,
    loss_and_grads,
    make_rank_sampler,
    ranking_loss,
    retrain_reranker,
    sample_triples,
    sgd_step,
    train,
)
from conftest import identity_visual_params, varied_corpus


def tiny_dataset(seed: int, num_videos: int = 3, num_clips: int = 5,
                 visual_dim: int = 3, word_dim: int = 4) -> TrainDataset:
    rng = np.random.default_rng(seed)
    videos, features, queries = [], {}, []
    cfg = EnumConfig(clip_length=2.0, max_moment_clips=4, stride_seconds=2.0)
    for i in range(num_videos):
        vid = f"v{i:02d}"
        video = VideoMeta(vid, num_clips * 2.0, 2.0, num_clips)
        videos.append(video)
        features[vid] = rng.standard_normal((num_clips, visual_dim))
        first = int(rng.integers(0, num_clips - 1))
        last = int(rng.integers(first + 1, num_clips))
        span = Moment.from_clips(video, first, last).span
        words = rng.standard_normal((int(rng.integers(2, 5)), word_dim))
        queries.append(Query(f"q{i:02d}", words, GroundTruth(vid, (span,))))
    return TrainDataset(Corpus(videos, features), queries, cfg)


def align_reference(query, candidates):
    """The per-candidate loop that picked the aligned positive."""
    best, best_iou = candidates[0], -1.0
    for m in candidates:
        iou = max(temporal_iou(m.span, a) for a in query.ground_truth.annotations)
        if iou > best_iou:
            best, best_iou = m, iou
    return best


def intra_pool_reference(query, candidates, exclusion_iou):
    """The per-candidate loop that built an intra-negative pool."""
    return [m for m in candidates
            if max(temporal_iou(m.span, a) for a in query.ground_truth.annotations)
            < exclusion_iou]


def row_moment(dataset, row):
    """The `Moment` of a row of the dataset's candidate table."""
    table = dataset.table
    return Moment.from_clips(dataset.corpus.videos[int(table.ordinal[row])],
                             int(table.firsts[row]), int(table.lasts[row]))


def batch_moments(dataset, batch):
    """Per triple: (query index, positive, intra negative, inter negative)."""
    query_index, moments = batch
    return [(qi, *(Moment.from_clips(dataset.corpus.videos[o], f, l) for o, f, l in triple))
            for qi, triple in zip(query_index.tolist(), moments.tolist())]


@pytest.mark.parametrize("preset_name", ["didemo", "charades-sta", "activitynet"])
def test_dataset_equals_per_candidate_reference(preset_name):
    enum = get_preset(preset_name).enum
    # The second grid's minimum length exceeds some videos' clip counts.
    for enum_cfg in (enum, EnumConfig(enum.clip_length, 9, stride_ratio=0.3,
                                      min_moment_clips=6)):
        corpus, queries = varied_corpus(np.random.default_rng(7), enum_cfg.clip_length)
        dataset = TrainDataset(corpus, queries, enum_cfg)
        cands = {v.video_id: enumerate_moments(v, enum_cfg) for v in corpus.videos}
        table_moments = [row_moment(dataset, r) for r in range(dataset.table.size)]
        assert table_moments == [m for v in corpus.videos for m in cands[v.video_id]]
        kept = [q for q in queries if cands[q.ground_truth.video_id]]
        assert [q.query_id for q in dataset.queries] == [q.query_id for q in kept]
        for qi, q in enumerate(kept):
            assert row_moment(dataset, dataset.positives[qi]) == \
                align_reference(q, cands[q.ground_truth.video_id])
        for exclusion in (0.35, 0.5, 1.0, 0.0):
            for qi, q in enumerate(kept):
                assert [row_moment(dataset, r) for r in dataset.intra_pools(exclusion)[qi]] == \
                    intra_pool_reference(q, cands[q.ground_truth.video_id], exclusion)


def ordinal_key(dataset, moment):
    """A `Moment` as the (ordinal, first, last) a rank sampler returns."""
    return (dataset.corpus.ordinal_of[moment.video_id], moment.first_clip, moment.last_clip)


def finite_difference_grads(dataset, triples, params, cfg, h=1e-5):
    fd = {}
    for name, tensor in params.tensors().items():
        grad = np.zeros_like(tensor)
        flat = tensor.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = batch_loss(dataset, triples, params, cfg)
            flat[idx] = orig - h
            down = batch_loss(dataset, triples, params, cfg)
            flat[idx] = orig
            grad.reshape(-1)[idx] = (up - down) / (2 * h)
        fd[name] = grad
    return fd


def max_relative_error(analytic, numeric, floor=1e-6):
    err = 0.0
    for name in analytic:
        a, b = analytic[name], numeric[name]
        denom = np.maximum(floor, np.maximum(np.abs(a), np.abs(b)))
        err = max(err, float((np.abs(a - b) / denom).max()))
    return err


class TestRankingLoss:
    def test_inactive(self):
        assert ranking_loss(0.2, 0.5, 0.1) == 0.0

    def test_active(self):
        assert ranking_loss(0.5, 0.2, 0.1) == pytest.approx(0.4)

    def test_equal_costs_give_margin(self):
        for x in (0.0, 1.7, 42.0):
            assert ranking_loss(x, x, 0.1) == pytest.approx(0.1)

    def test_worked_triple(self):
        # C_p=0, C_n=1, C_n'=0.05, b=0.1, lambda=0.4
        loss = ranking_loss(0.0, 1.0, 0.1) + 0.4 * ranking_loss(0.0, 0.05, 0.1)
        assert loss == pytest.approx(0.02)

    def test_elementwise_over_arrays(self):
        x = np.array([0.2, 0.5, 1.7, 0.0])
        y = np.array([0.5, 0.2, 1.7, 0.05])
        np.testing.assert_array_equal(
            ranking_loss(x, y, 0.1),
            [ranking_loss(float(a), float(b), 0.1) for a, b in zip(x, y)])
        np.testing.assert_allclose(ranking_loss(x, y, 0.1), [0.0, 0.4, 0.1, 0.05])


class TestGradientFidelity:
    """Analytic gradients against central finite differences; the single
    most important correctness check in the repo."""

    @pytest.mark.parametrize("seed,variant,use_tef", [
        (0, "cal", False),
        (1, "aggregate", False),
        (2, "cal", True),
    ])
    def test_matches_finite_differences(self, seed, variant, use_tef):
        dataset = tiny_dataset(seed)
        dims = ModelDims(3, 4, hidden_mlp=5, embed=4, hidden_lstm=6,
                         use_tef=use_tef, tef_only=False)
        params = init_params(dims, seed)
        cfg = TrainConfig(seed=seed, variant=variant, batch_triples=2,
                          intra_iou_exclusion=0.5)
        rng = np.random.default_rng(seed + 100)
        triples = sample_triples(dataset, cfg, rng, size=2)
        loss, grads = loss_and_grads(dataset, triples, params, cfg)
        assert np.isfinite(loss)
        fd = finite_difference_grads(dataset, triples, params, cfg)
        assert max_relative_error(grads, fd) <= 1e-4

    def test_all_margins_satisfied_gives_zero_grads(self, rng):
        # positives sit exactly on the query embedding, negatives far away;
        # planted spans differ per video so inter negatives are never planted
        params = identity_visual_params(visual_in=3, word_in=4)
        videos, features, queries = [], {}, []
        cfg_enum = EnumConfig(clip_length=1.0, max_moment_clips=2, stride_seconds=1.0)
        for vid, first in (("a", 0), ("b", 2)):
            video = VideoMeta(vid, 4.0, 1.0, 4)
            videos.append(video)
            feats = np.full((4, 3), 100.0) + rng.standard_normal((4, 3))
            feats[first:first + 2] = params.proj_b  # zero-LSTM query embedding is proj_b
            features[vid] = feats
            span = Moment.from_clips(video, first, first + 1).span
            queries.append(Query(f"q_{vid}", rng.standard_normal((2, 4)),
                                 GroundTruth(vid, (span,))))
        dataset = TrainDataset(Corpus(videos, features), queries, cfg_enum)
        cfg = TrainConfig(variant="cal", intra_iou_exclusion=0.5)
        rng2 = np.random.default_rng(0)
        triples = sample_triples(dataset, cfg, rng2, size=4)
        loss, grads = loss_and_grads(dataset, triples, params, cfg)
        assert loss == 0.0
        for g in grads.values():
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_inter_weight_scales_linearly_when_intra_inactive(self):
        dataset = tiny_dataset(9)
        dims = ModelDims(3, 4, hidden_mlp=5, embed=4, hidden_lstm=6)
        params = init_params(dims, 9)
        rng = np.random.default_rng(5)
        cfg1 = TrainConfig(variant="cal", inter_weight=0.4, intra_iou_exclusion=0.5)
        triples = sample_triples(dataset, cfg1, rng, size=3)
        # make every intra hinge inactive by reusing the positive as intra negative
        triples[1][:, 1] = triples[1][:, 0]
        # identical costs mean intra_arg == margin > 0: still active. Use
        # margin 0 so x - y + b == 0 sits exactly on the (flat) kink.
        cfg1 = TrainConfig(variant="cal", inter_weight=0.4, margin=1e-12,
                           intra_iou_exclusion=0.5)
        cfg2 = TrainConfig(variant="cal", inter_weight=0.8, margin=1e-12,
                           intra_iou_exclusion=0.5)
        loss1, grads1 = loss_and_grads(dataset, triples, params, cfg1)
        loss2, grads2 = loss_and_grads(dataset, triples, params, cfg2)
        assert loss2 == pytest.approx(2 * loss1, rel=1e-9)
        for name in grads1:
            np.testing.assert_allclose(grads2[name], 2 * grads1[name], rtol=1e-9, atol=1e-18)

    def test_lambda_zero_ignores_inter_negatives(self):
        dataset = tiny_dataset(4)
        dims = ModelDims(3, 4, hidden_mlp=5, embed=4, hidden_lstm=6)
        params = init_params(dims, 4)
        cfg = TrainConfig(variant="cal", inter_weight=0.0, intra_iou_exclusion=0.5)
        rng = np.random.default_rng(1)
        triples = sample_triples(dataset, cfg, rng, size=3)
        swapped = (triples[0], triples[1].copy())
        swapped[1][:, 2] = swapped[1][:, 1]
        loss_a, grads_a = loss_and_grads(dataset, triples, params, cfg)
        loss_b, grads_b = loss_and_grads(dataset, swapped, params, cfg)
        assert loss_a == loss_b
        for name in grads_a:
            np.testing.assert_array_equal(grads_a[name], grads_b[name])

    def test_loss_invariant_under_batch_permutation(self):
        dataset = tiny_dataset(6)
        dims = ModelDims(3, 4, hidden_mlp=5, embed=4, hidden_lstm=6)
        params = init_params(dims, 6)
        cfg = TrainConfig(variant="cal", intra_iou_exclusion=0.5)
        rng = np.random.default_rng(2)
        triples = sample_triples(dataset, cfg, rng, size=6)
        loss_fwd = batch_loss(dataset, triples, params, cfg)
        loss_rev = batch_loss(dataset, (triples[0][::-1], triples[1][::-1]), params, cfg)
        assert loss_fwd == loss_rev

    def test_all_equal_costs_forced_loss(self):
        # zero visual weights and zero language path: every cost identical
        dataset = tiny_dataset(3)
        dims = ModelDims(3, 4, hidden_mlp=5, embed=4, hidden_lstm=6)
        params = init_params(dims, 3)
        for name in ModelParams.TENSOR_NAMES:
            getattr(params, name)[...] = 0.0
        cfg = TrainConfig(variant="cal", margin=0.1, inter_weight=0.4,
                          intra_iou_exclusion=0.5)
        rng = np.random.default_rng(3)
        triples = sample_triples(dataset, cfg, rng, size=5)
        loss = batch_loss(dataset, triples, params, cfg)
        assert loss == pytest.approx(5 * (0.1 + 0.4 * 0.1))


class TestSampling:
    def test_deterministic_given_rng_state(self):
        dataset = tiny_dataset(11)
        cfg = TrainConfig(intra_iou_exclusion=0.5)
        batch_a = sample_triples(dataset, cfg, np.random.default_rng(42), size=8)
        batch_b = sample_triples(dataset, cfg, np.random.default_rng(42), size=8)
        for a, b in zip(batch_a, batch_b):
            assert a.dtype == b.dtype == np.int64
            np.testing.assert_array_equal(a, b)
        assert batch_a[0].shape == (8,) and batch_a[1].shape == (8, 3, 3)

    def test_exclusion_one_never_duplicates_ground_truth(self):
        dataset = tiny_dataset(12)
        cfg = TrainConfig(intra_iou_exclusion=1.0)
        rng = np.random.default_rng(0)
        for _, pos, neg, _ in batch_moments(dataset, sample_triples(dataset, cfg, rng, size=200)):
            assert (neg.first_clip, neg.last_clip) != (pos.first_clip, pos.last_clip)
            assert neg.video_id == pos.video_id

    def test_exclusion_threshold_respected(self):
        from momentsearch.core import temporal_iou

        dataset = tiny_dataset(13, num_videos=4, num_clips=8)
        cfg = TrainConfig(intra_iou_exclusion=0.35)
        rng = np.random.default_rng(1)
        for qi, _, neg, _ in batch_moments(dataset, sample_triples(dataset, cfg, rng, size=2000)):
            q = dataset.queries[qi]
            iou = max(temporal_iou(neg.span, a) for a in q.ground_truth.annotations)
            assert iou < 0.35

    def test_inter_negative_from_other_video(self):
        dataset = tiny_dataset(14)
        cfg = TrainConfig(intra_iou_exclusion=0.5)
        rng = np.random.default_rng(2)
        for _, pos, _, inter in batch_moments(dataset, sample_triples(dataset, cfg, rng, size=300)):
            assert inter.video_id != pos.video_id

    def test_inter_prefers_same_clip_range(self):
        # equal-length videos: the positive's clip range exists everywhere
        dataset = tiny_dataset(15, num_videos=5, num_clips=6)
        cfg = TrainConfig(intra_iou_exclusion=0.5)
        rng = np.random.default_rng(3)
        for _, pos, _, inter in batch_moments(dataset, sample_triples(dataset, cfg, rng, size=200)):
            assert (inter.first_clip, inter.last_clip) == (pos.first_clip, pos.last_clip)

    def test_nearest_endpoint_fallback(self):
        # other video too short for the positive's range: nearest candidate used
        cfg_enum = EnumConfig(clip_length=1.0, max_moment_clips=8, stride_seconds=1.0)
        long_video = VideoMeta("long", 8.0, 1.0, 8)
        short_video = VideoMeta("short", 2.0, 1.0, 2)
        rng = np.random.default_rng(4)
        features = {"long": rng.standard_normal((8, 3)), "short": rng.standard_normal((2, 3))}
        span = Moment.from_clips(long_video, 5, 7).span
        queries = [Query("q0", rng.standard_normal((3, 4)), GroundTruth("long", (span,)))]
        dataset = TrainDataset(Corpus([long_video, short_video], features), queries, cfg_enum)
        cfg = TrainConfig(intra_iou_exclusion=0.5)
        triples = sample_triples(dataset, cfg, np.random.default_rng(0), size=20)
        for _, _, _, inter in batch_moments(dataset, triples):
            assert inter.video_id == "short"
            assert (inter.first_clip, inter.last_clip) == (0, 1)


def test_video_too_short_for_the_grid_is_logged(caplog):
    cfg_enum = EnumConfig(clip_length=1.0, max_moment_clips=8, stride_seconds=1.0,
                          min_moment_clips=3)
    videos = [VideoMeta("long", 8.0, 1.0, 8), VideoMeta("tiny", 2.0, 1.0, 2)]
    rng = np.random.default_rng(5)
    features = {v.video_id: rng.standard_normal((v.num_clips, 3)) for v in videos}
    queries = [Query(f"q{v.video_id}", rng.standard_normal((2, 4)),
                     GroundTruth(v.video_id, (Moment.from_clips(v, 0, 1).span,))) for v in videos]
    with caplog.at_level("WARNING"):
        dataset = TrainDataset(Corpus(videos, features), queries, cfg_enum)
    assert [r.getMessage() for r in caplog.records] == [
        "tiny has 2 clips, below the 3-clip minimum; no candidates"]
    assert [q.query_id for q in dataset.queries] == ["qlong"]


def test_no_intra_negative_anywhere_fails_before_any_draw():
    dataset = tiny_dataset(16)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="no trainable query has an intra negative"):
        sample_triples(dataset, TrainConfig(intra_iou_exclusion=0.0), rng, size=4)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("field, value", [("batch_triples", 0), ("batch_triples", -3),
                                          ("lr_decay_every", 0), ("epochs", -1)])
def test_config_refuses_counts_out_of_range(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be >= \d, got {value}$"):
        TrainConfig(**{field: value})


class TestSgdStep:
    def _params(self):
        dims = ModelDims(3, 4, hidden_mlp=5, embed=4, hidden_lstm=6)
        return init_params(dims, 0)

    def test_zero_gradients_leave_params(self):
        params = self._params()
        before = {n: t.copy() for n, t in params.tensors().items()}
        zeros = {n: np.zeros_like(t) for n, t in params.tensors().items()}
        sgd_step(params, zeros, {n: np.zeros_like(t) for n, t in params.tensors().items()},
                 epoch=0, cfg=TrainConfig())
        for name, t in params.tensors().items():
            np.testing.assert_array_equal(t, before[name])

    def test_learning_rate_schedule(self):
        params = self._params()
        zeros = {n: np.zeros_like(t) for n, t in params.tensors().items()}
        vel = {n: np.zeros_like(t) for n, t in params.tensors().items()}
        cfg = TrainConfig()
        assert sgd_step(params, zeros, vel, 0, cfg) == pytest.approx(0.05)
        assert sgd_step(params, zeros, vel, 29, cfg) == pytest.approx(0.05)
        assert sgd_step(params, zeros, vel, 30, cfg) == pytest.approx(0.005)
        assert sgd_step(params, zeros, vel, 107, cfg) == pytest.approx(5e-5)

    def test_single_scalar_step(self):
        params = self._params()
        params.proj_b[...] = 0.0
        grads = {n: np.zeros_like(t) for n, t in params.tensors().items()}
        grads["proj_b"] = np.ones_like(params.proj_b)
        vel = {n: np.zeros_like(t) for n, t in params.tensors().items()}
        cfg = TrainConfig(lr0=0.1, momentum=0.0)
        sgd_step(params, grads, vel, 0, cfg)
        np.testing.assert_allclose(params.proj_b, -0.1)


def planted_training_run(seed=0, variant="cal"):
    preset = get_preset("charades-sta")
    spec = SyntheticSpec(num_videos=24, clips_per_video=8, visual_dim=8, word_dim=6,
                         vocab_size=40, queries_per_video=1, signal_noise=0.05,
                         seed=seed, annotations_per_query=1)
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        corpus, queries = generate_synthetic(spec, preset, tmp)
    dataset = TrainDataset(corpus, queries, preset.enum)
    dims = ModelDims(8, 6, hidden_mlp=16, embed=8, hidden_lstm=12)
    cfg = TrainConfig(lr0=0.01, momentum=0.9, epochs=20, batch_triples=24,
                      intra_iou_exclusion=preset.intra_iou_exclusion,
                      seed=seed, variant=variant)
    params, history = train(dataset, cfg, dims=dims)
    return dataset, cfg, params, history


class TestTrainLoop:
    def test_loss_trend_and_separation_on_planted_data(self):
        dataset, cfg, params, history = planted_training_run()
        losses = [h["mean_loss"] for h in history]
        windows = [np.mean(losses[i:i + 10]) for i in range(0, len(losses), 10)]
        assert all(a >= b - 1e-9 for a, b in zip(windows, windows[1:]))
        # held-out triples: positives must now cost less than intra negatives
        rng = np.random.default_rng(999)
        triples = sample_triples(dataset, cfg, rng, size=64)
        pos_costs, neg_costs = [], []
        for qi, positive, intra, _ in batch_moments(dataset, triples):
            q = dataset.queries[qi]
            q_emb = embed_query(q.word_vectors, params)
            feats = dataset.corpus.features_for(positive.video_id)
            d = sq_distances(embed_clips(feats, compute_context(feats), None, params), q_emb)
            pos, neg = cal_costs(d, np.array([positive.first_clip, intra.first_clip]),
                                 np.array([positive.last_clip, intra.last_clip]))
            pos_costs.append(pos)
            neg_costs.append(neg)
        assert np.mean(pos_costs) < np.mean(neg_costs)

    def test_training_is_deterministic(self):
        _, _, params_a, hist_a = planted_training_run(seed=7)
        _, _, params_b, hist_b = planted_training_run(seed=7)
        for name in ModelParams.TENSOR_NAMES:
            np.testing.assert_array_equal(getattr(params_a, name), getattr(params_b, name))
        assert [h["mean_loss"] for h in hist_a] == [h["mean_loss"] for h in hist_b]
        strip = [{k: v for k, v in h.items() if k != "wall_time_s"} for h in hist_a]
        assert strip == [{k: v for k, v in h.items() if k != "wall_time_s"} for h in hist_b]

    def test_epoch_telemetry_matches_the_steps(self, monkeypatch):
        # Record each step's hinges (from the forward pass, before the
        # update) and gradients, then rebuild the epoch records from them.
        steps = []

        def recording(dataset, triples, params, cfg, activity=None):
            batch = _assemble_batch(dataset, triples, params.dims, cfg.variant)
            _, cache = _forward(*batch, params, cfg, want_cache=True)
            loss, grads = loss_and_grads(dataset, triples, params, cfg, activity=activity)
            steps.append((cache["intra_hinge"], cache["inter_hinge"],
                          {n: g.copy() for n, g in grads.items()}, dict(activity)))
            return loss, grads

        monkeypatch.setattr(training, "loss_and_grads", recording)
        dataset = tiny_dataset(5, num_videos=12)
        cfg = TrainConfig(lr0=0.01, momentum=0.9, epochs=3, batch_triples=4,
                          intra_iou_exclusion=0.5, seed=5)
        _, history = train(dataset, cfg, dims=ModelDims(3, 4, hidden_mlp=5, embed=4,
                                                        hidden_lstm=6))
        per_epoch = len(dataset.queries) // cfg.batch_triples
        assert len(steps) == per_epoch * cfg.epochs
        for epoch, record in enumerate(history):
            mine = steps[epoch * per_epoch:(epoch + 1) * per_epoch]
            intra = np.concatenate([s[0] for s in mine])
            inter = np.concatenate([s[1] for s in mine])
            assert record["active_intra"] == np.mean(intra > 0)
            assert record["active_inter"] == np.mean(inter > 0)
            for s in mine:
                assert s[3] == {"intra": int((s[0] > 0).sum()), "inter": int((s[1] > 0).sum())}
            assert sorted(record["grad_norm"]) == sorted(ModelParams.TENSOR_NAMES)
            for name, norm in record["grad_norm"].items():
                want = np.mean([np.linalg.norm(s[2][name]) for s in mine])
                assert norm == pytest.approx(want, rel=1e-12, abs=0)

    def test_every_hinge_active_under_a_huge_margin(self):
        dataset = tiny_dataset(6, num_videos=8)
        cfg = TrainConfig(lr0=1e-4, momentum=0.0, epochs=2, batch_triples=4, margin=1e6,
                          intra_iou_exclusion=0.5, seed=6)
        _, history = train(dataset, cfg, dims=ModelDims(3, 4, hidden_mlp=5, embed=4,
                                                        hidden_lstm=6))
        assert [(h["active_intra"], h["active_inter"]) for h in history] == [(1.0, 1.0)] * 2
        assert all(n > 0 for n in history[0]["grad_norm"].values())


class TestDivergenceGuard:
    def _run(self, monkeypatch, scripted_losses, margin=0.1):
        """Train one step per epoch with scripted batch losses; returns the
        number of updates made and the exception raised, if any."""
        losses = iter(scripted_losses)
        updates = []

        def scripted(*args, **kwargs):
            _, grads = loss_and_grads(*args, **kwargs)
            return next(losses), grads

        monkeypatch.setattr(training, "loss_and_grads", scripted)
        monkeypatch.setattr(training, "sgd_step", lambda *a: updates.append(a) or 0.01)
        dataset = tiny_dataset(7)
        cfg = TrainConfig(epochs=len(scripted_losses), batch_triples=4, margin=margin,
                          intra_iou_exclusion=0.5)
        try:
            train(dataset, cfg, dims=ModelDims(3, 4, hidden_mlp=5, embed=4, hidden_lstm=6))
        except TrainingDiverged as e:
            return len(updates), e
        return len(updates), None

    def test_stops_before_the_update_of_the_first_step_past_the_limit(self, monkeypatch):
        limit = DIVERGENCE_FACTOR * 2.0
        updates, error = self._run(monkeypatch, [2.0, 0.5, limit, limit * 1.001, 1.0])
        assert updates == 3
        assert isinstance(error, FloatingPointError)
        assert str(error).startswith("epoch 3 step 0: batch loss ")

    def test_a_small_first_loss_is_floored_at_the_margin(self, monkeypatch):
        assert self._run(monkeypatch, [0.0, 0.5 * DIVERGENCE_FACTOR], margin=0.5) == (2, None)
        updates, error = self._run(monkeypatch, [1e-3, 0.51 * DIVERGENCE_FACTOR], margin=0.5)
        assert updates == 1 and error is not None


class TestReranker:
    def test_rank_weights_limits(self):
        w_inf = exponential_rank_weights(np.arange(1, 11), 50.0)
        assert w_inf[0] == pytest.approx(1.0, abs=1e-12)
        w_zero = exponential_rank_weights(np.arange(1, 11), 0.0)
        np.testing.assert_allclose(w_zero, np.full(10, 0.1))
        # Gaps in the ranks keep their weight ratios; an offset cancels.
        ranks = np.array([3, 4, 9])
        raw = np.exp(-0.5 * ranks)
        np.testing.assert_allclose(exponential_rank_weights(ranks, 0.5), raw / raw.sum(),
                                   rtol=1e-12)
        with pytest.raises(ValueError):
            exponential_rank_weights([], 0.5)

    def test_empirical_frequencies_match_exponential(self):
        dataset = tiny_dataset(21, num_videos=4, num_clips=6)
        gt_video = dataset.queries[0].ground_truth.video_id
        distinct = [m for v in dataset.corpus.videos if v.video_id != gt_video
                    for m in enumerate_moments(v, dataset.table.enum_cfg)]
        ranked = distinct[:30]
        assert len({(m.video_id, m.first_clip, m.last_clip) for m in ranked}) == 30
        sampler = make_rank_sampler(dataset, {dataset.queries[0].query_id: ranked}, 0.02)
        rng = np.random.default_rng(0)
        draws = 100_000
        counts = np.zeros(30)
        key = {ordinal_key(dataset, m): r for r, m in enumerate(ranked)}
        for _ in range(draws):
            counts[key[sampler(0, rng)]] += 1
        expected = exponential_rank_weights(np.arange(1, 31), 0.02) * draws
        sigma = np.sqrt(expected * (1 - expected / draws))
        assert np.all(np.abs(counts - expected) <= 3 * sigma)

    def test_high_rate_collapses_to_top_rank(self):
        dataset = tiny_dataset(22, num_videos=3, num_clips=6)
        gt_video = dataset.queries[0].ground_truth.video_id
        other = next(v for v in dataset.corpus.videos if v.video_id != gt_video)
        ranked = enumerate_moments(other, dataset.table.enum_cfg)[:5]
        sampler = make_rank_sampler(dataset, {dataset.queries[0].query_id: ranked}, 1000.0)
        rng = np.random.default_rng(1)
        for _ in range(50):
            assert sampler(0, rng) == ordinal_key(dataset, ranked[0])

    def test_same_video_moments_excluded(self):
        dataset = tiny_dataset(23, num_videos=3, num_clips=6)
        q = dataset.queries[0]
        enum_cfg = dataset.table.enum_cfg
        own = enumerate_moments(dataset.corpus.video(q.ground_truth.video_id), enum_cfg)[:3]
        other = next(v for v in dataset.corpus.videos if v.video_id != q.ground_truth.video_id)
        ranked = own + enumerate_moments(other, enum_cfg)[:2]
        sampler = make_rank_sampler(dataset, {q.query_id: ranked}, 0.0)
        rng = np.random.default_rng(2)
        got = {sampler(0, rng) for _ in range(100)}
        assert got == {ordinal_key(dataset, m) for m in ranked[3:]}

    def test_empty_retrieval_falls_back_to_none(self):
        dataset = tiny_dataset(24)
        sampler = make_rank_sampler(dataset, {}, 0.02)
        assert sampler(0, np.random.default_rng(0)) is None

    def test_retrain_initializes_from_base(self):
        dataset = tiny_dataset(25)
        dims = ModelDims(3, 4, hidden_mlp=5, embed=4, hidden_lstm=6)
        base = init_params(dims, 25)
        cfg = TrainConfig(epochs=0, intra_iou_exclusion=0.5)
        params, history = retrain_reranker(base, {}, dataset, cfg)
        assert history == []
        for name in ModelParams.TENSOR_NAMES:
            np.testing.assert_array_equal(getattr(params, name), getattr(base, name))
        # and the base is not aliased
        params.proj_b[...] = 123.0
        assert not np.allclose(base.proj_b, 123.0)
