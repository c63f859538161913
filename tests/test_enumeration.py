import numpy as np
import pytest

from momentsearch.core import Moment, VideoMeta, clip_spans
from momentsearch.enumeration import (
    PRESETS,
    EnumConfig,
    aggregate_index_entries,
    candidate_clips,
    enumerate_moments,
    get_preset,
    stride_clips,
)


def brute_force_moments(video: VideoMeta, cfg: EnumConfig) -> set[tuple[int, int]]:
    """Independent oracle: try every (start, length), filter by the rules."""
    out = set()
    n = video.num_clips
    for length in range(1, n + 1):
        if length < cfg.min_moment_clips or length > min(cfg.max_moment_clips, n):
            continue
        if (length - cfg.min_moment_clips) % cfg.length_step_clips != 0:
            continue
        stride = stride_clips(length, cfg)
        for start in range(0, n):
            if start + length > n:
                continue
            if start % stride != 0:
                continue
            out.add((start, start + length - 1))
    return out


class TestStrideClips:
    def test_didemo_fixed_stride(self):
        cfg = PRESETS["didemo"].enum
        assert stride_clips(2, cfg) == 2  # 5 s on a 2.5 s grid

    def test_proportional_examples(self):
        cfg = EnumConfig(clip_length=3.0, max_moment_clips=8, stride_ratio=0.3)
        assert stride_clips(8, cfg) == 2  # round(2.4)
        assert stride_clips(2, cfg) == 1  # round(0.6)

    def test_round_half_away_from_zero(self):
        cfg = EnumConfig(clip_length=1.0, max_moment_clips=10, stride_ratio=0.5)
        assert stride_clips(5, cfg) == 3  # 2.5 rounds away from zero

    def test_minimum_one_clip(self):
        cfg = EnumConfig(clip_length=1.0, max_moment_clips=10, stride_ratio=0.05)
        assert stride_clips(2, cfg) == 1

    def test_below_minimum_rejected(self):
        cfg = PRESETS["didemo"].enum
        with pytest.raises(ValueError):
            stride_clips(1, cfg)


class TestEnumerateMoments:
    def test_didemo_30s_video_has_21_candidates(self):
        video = VideoMeta("v", 30.0, 2.5, 12)
        moments = enumerate_moments(video, PRESETS["didemo"].enum)
        assert len(moments) == 21

    def test_two_clip_video_single_moment(self):
        cfg = EnumConfig(clip_length=1.0, max_moment_clips=2, stride_seconds=1.0)
        video = VideoMeta("v", 2.0, 1.0, 2)
        moments = enumerate_moments(video, cfg)
        assert len(moments) == 1
        assert (moments[0].first_clip, moments[0].last_clip) == (0, 1)
        assert moments[0].span.end == video.duration

    @pytest.mark.parametrize("preset_name", sorted(PRESETS))
    def test_matches_brute_force_on_random_videos(self, preset_name):
        preset = get_preset(preset_name)
        rng = np.random.default_rng(42)
        for _ in range(200):
            n = int(rng.integers(2, 65))
            clip_len = preset.enum.clip_length
            # durations end off-grid now and then, like real footage
            duration = n * clip_len - float(rng.uniform(0, clip_len * 0.9))
            duration = max(duration, (n - 1) * clip_len + 1e-3)
            video = VideoMeta(f"r{n}", duration, clip_len, n)
            got = {(m.first_clip, m.last_clip) for m in enumerate_moments(video, preset.enum)}
            assert got == brute_force_moments(video, preset.enum)

    def test_sorted_no_duplicates_and_valid(self):
        preset = get_preset("charades-sta")
        video = VideoMeta("v", 60.0, 3.0, 20)
        moments = enumerate_moments(video, preset.enum)
        keys = [(m.first_clip, m.last_clip) for m in moments]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        for m in moments:
            assert m.first_clip < m.last_clip < video.num_clips
            assert m.span.end <= video.duration + 1e-9

    def test_too_short_video_yields_empty(self, caplog):
        cfg = EnumConfig(clip_length=1.0, max_moment_clips=8, stride_seconds=1.0,
                         min_moment_clips=4)
        video = VideoMeta("tiny", 2.0, 1.0, 2)
        with caplog.at_level("WARNING"):
            assert enumerate_moments(video, cfg) == []
        assert any("tiny" in rec.message for rec in caplog.records)


def nested_loop_grid(n: int, cfg: EnumConfig) -> list[list[int]]:
    """The per-video enumeration loop that `candidate_clips` replaced."""
    out = []
    for length in range(cfg.min_moment_clips, min(cfg.max_moment_clips, n) + 1,
                        cfg.length_step_clips):
        s = stride_clips(length, cfg)
        for first in range(0, n - length + 1, s):
            out.append([first, first + length - 1])
    out.sort()
    return out


class TestCandidateClips:
    @pytest.mark.parametrize("preset_name", sorted(PRESETS))
    def test_equals_nested_loop(self, preset_name):
        cfg = get_preset(preset_name).enum
        for n in range(2, 61):
            grid = candidate_clips(n, cfg)
            assert grid.dtype == np.int64 and grid.shape[1] == 2
            assert grid.tolist() == nested_loop_grid(n, cfg)

    @pytest.mark.parametrize("preset_name", sorted(PRESETS))
    def test_clip_spans_equal_moment_spans(self, preset_name):
        cfg = get_preset(preset_name).enum
        for n in range(2, 61):
            # The last clip is partial: the duration stops 0.4 clips short.
            video = VideoMeta("v", (n - 0.4) * cfg.clip_length, cfg.clip_length, n)
            grid = candidate_clips(n, cfg)
            spans = clip_spans(video, grid[:, 0], grid[:, 1])
            assert spans.shape == (len(grid), 2)
            assert [tuple(row) for row in spans.tolist()] == \
                [(m.span.start, m.span.end)
                 for m in (Moment.from_clips(video, f, l) for f, l in grid.tolist())]

    def test_shared_and_read_only(self):
        cfg = PRESETS["didemo"].enum
        grid = candidate_clips(12, cfg)
        assert candidate_clips(12, cfg) is grid
        with pytest.raises(ValueError):
            grid[0, 0] = 5


class TestIndexAccounting:
    def test_closed_form_at_bench_shape(self):
        assert aggregate_index_entries(20, 14, 1) == 20 * 14 - 14 * 13 // 2 == 189

    def test_six_by_six(self):
        assert aggregate_index_entries(6, 6, 1) == 21

    def test_single_clip_moments_only(self):
        assert aggregate_index_entries(5, 1, 1) == 5

    def test_matches_direct_counting(self):
        for n in range(1, 51):
            for k in range(1, 31):
                direct = sum(
                    1
                    for i in range(n)
                    for j in range(i, n)
                    if j - i + 1 <= k
                )
                assert aggregate_index_entries(n, k, 1) == direct

    def test_min_two_counting(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            k = int(rng.integers(2, 20))
            direct = sum(
                1
                for i in range(n)
                for j in range(i + 1, n)
                if j - i + 1 <= k
            )
            assert aggregate_index_entries(n, k, 2) == direct

    def test_clip_entries(self):
        # A clip index holds one entry per clip of every video.
        from conftest import identity_visual_params, make_corpus
        from momentsearch.index import build_exact

        corpus = make_corpus(np.random.default_rng(0), num_videos=3, num_clips=5)
        assert build_exact(corpus, identity_visual_params(6)).num_entries == 15
        # corpus-scale totals: 1M videos of 20 clips
        assert 1_000_000 * aggregate_index_entries(20, 14, 1) == 189_000_000


class TestEnumConfigValidation:
    def test_requires_exactly_one_stride_mode(self):
        with pytest.raises(ValueError):
            EnumConfig(clip_length=1.0, max_moment_clips=4)
        with pytest.raises(ValueError):
            EnumConfig(clip_length=1.0, max_moment_clips=4,
                       stride_seconds=1.0, stride_ratio=0.3)

    def test_ratio_bounds(self):
        with pytest.raises(ValueError):
            EnumConfig(clip_length=1.0, max_moment_clips=4, stride_ratio=0.0)
        with pytest.raises(ValueError):
            EnumConfig(clip_length=1.0, max_moment_clips=4, stride_ratio=1.5)

    def test_presets_well_formed(self):
        for name, preset in PRESETS.items():
            assert preset.enum.min_moment_clips >= 2
            assert 0 < preset.nms_iou <= 1
            assert preset.min_judgments >= 1
