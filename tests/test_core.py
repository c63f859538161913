import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentsearch.core import (
    GroundTruth,
    Moment,
    Query,
    TemporalSpan,
    VideoMeta,
    span_ious,
    temporal_iou,
)

# Endpoints on a 2.5 s grid make touching and identical spans common.
_endpoint = st.one_of(st.integers(0, 12).map(lambda k: k * 2.5),
                      st.floats(0.0, 30.0, allow_nan=False, allow_infinity=False))
_span = st.tuples(_endpoint, _endpoint).filter(lambda p: p[0] != p[1]).map(sorted)


class TestTemporalIou:
    def test_identical_spans(self):
        a = TemporalSpan(0.0, 10.0)
        assert temporal_iou(a, TemporalSpan(0.0, 10.0)) == 1.0

    def test_disjoint_spans(self):
        assert temporal_iou(TemporalSpan(0, 5), TemporalSpan(5, 10)) == 0.0

    def test_partial_overlap(self):
        # intersection 5, union 15
        got = temporal_iou(TemporalSpan(0, 10), TemporalSpan(5, 15))
        assert got == pytest.approx(5.0 / 15.0)

    def test_symmetry_and_self_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            s1, s2 = np.sort(rng.uniform(0, 100, 2))
            s3, s4 = np.sort(rng.uniform(0, 100, 2))
            if s1 == s2 or s3 == s4:
                continue
            a, b = TemporalSpan(s1, s2), TemporalSpan(s3, s4)
            assert temporal_iou(a, b) == temporal_iou(b, a)
            assert temporal_iou(a, a) == 1.0

    def test_shift_and_scale_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            s1, s2 = np.sort(rng.uniform(0, 50, 2))
            s3, s4 = np.sort(rng.uniform(0, 50, 2))
            if s1 == s2 or s3 == s4:
                continue
            a, b = TemporalSpan(s1, s2), TemporalSpan(s3, s4)
            base = temporal_iou(a, b)
            shift = float(rng.uniform(0, 20))
            scale = float(rng.uniform(0.1, 10))
            shifted = temporal_iou(
                TemporalSpan(s1 + shift, s2 + shift), TemporalSpan(s3 + shift, s4 + shift)
            )
            scaled = temporal_iou(
                TemporalSpan(s1 * scale, s2 * scale), TemporalSpan(s3 * scale, s4 * scale)
            )
            assert shifted == pytest.approx(base, rel=1e-9)
            assert scaled == pytest.approx(base, rel=1e-9)

    def test_result_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            pts = np.sort(rng.uniform(0, 30, 4))
            a = TemporalSpan(pts[0], pts[1] + 1e-6)
            b = TemporalSpan(pts[2], pts[3] + 1e-6)
            assert 0.0 <= temporal_iou(a, b) <= 1.0


class TestSpanIous:
    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(_span, min_size=1, max_size=12), other=_span)
    def test_bit_equal_to_temporal_iou(self, rows, other):
        got = span_ious(np.asarray(rows, dtype=np.float64), *other)
        want = [temporal_iou(TemporalSpan(*row), TemporalSpan(*other)) for row in rows]
        assert [x.hex() for x in got.tolist()] == [x.hex() for x in want]

    def test_touching_and_disjoint_are_zero(self):
        rows = np.array([[0.0, 5.0], [10.0, 12.5], [5.0, 10.0]])
        assert span_ious(rows, 5.0, 10.0).tolist() == [0.0, 0.0, 1.0]


class TestSpanValidation:
    def test_rejects_reversed(self):
        with pytest.raises(ValueError):
            TemporalSpan(5.0, 5.0)
        with pytest.raises(ValueError):
            TemporalSpan(6.0, 5.0)

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            TemporalSpan(-1.0, 5.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            TemporalSpan(0.0, float("inf"))
        with pytest.raises(ValueError):
            TemporalSpan(float("nan"), 5.0)


class TestVideoMeta:
    def test_rejects_single_clip(self):
        with pytest.raises(ValueError):
            VideoMeta("v", 10.0, 5.0, 1)

    def test_rejects_grid_overshoot(self):
        # 7 clips of 5 s need more than 30 + 5 seconds
        with pytest.raises(ValueError):
            VideoMeta("v", 30.0, 5.0, 8)

    def test_partial_last_clip_allowed(self):
        VideoMeta("v", 29.0, 5.0, 6)


class TestMoment:
    def test_from_clips_derives_span(self):
        v = VideoMeta("v", 30.0, 2.5, 12)
        m = Moment.from_clips(v, 2, 5)
        assert m.span == TemporalSpan(5.0, 15.0)
        assert m.num_clips == 4

    def test_span_clamped_to_duration(self):
        v = VideoMeta("v", 29.0, 5.0, 6)
        m = Moment.from_clips(v, 4, 5)
        assert m.span.end == 29.0

    def test_requires_two_clips(self):
        v = VideoMeta("v", 30.0, 2.5, 12)
        with pytest.raises(ValueError):
            Moment.from_clips(v, 3, 3)

    def test_rejects_out_of_range(self):
        v = VideoMeta("v", 30.0, 2.5, 12)
        with pytest.raises(ValueError):
            Moment.from_clips(v, 10, 12)


class TestQueryAndGroundTruth:
    def test_query_needs_words(self):
        with pytest.raises(ValueError):
            Query("q", np.zeros((0, 4)))

    def test_ground_truth_needs_annotations(self):
        with pytest.raises(ValueError):
            GroundTruth("v", ())
        gt = GroundTruth("v", (TemporalSpan(0, 5), TemporalSpan(5, 10)))
        assert len(gt.annotations) == 2
