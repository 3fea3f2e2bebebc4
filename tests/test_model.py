import pickle

import pytest

from svageval.model import (
    BoundingBox,
    Detection,
    HotaComponents,
    PredictionSet,
    Query,
    Referent,
    ScoredSegment,
    TemporalMetrics,
    TemporalSegment,
    Track,
    ValidationError,
)


class TestBoundingBox:
    def test_negative_origin_allowed(self):
        BoundingBox(-5, -3, 10, 10)

    @pytest.mark.parametrize("w,h", [(0, 10), (-1, 10), (10, 0), (10, -2)])
    def test_rejects_non_positive_extent(self, w, h):
        with pytest.raises(ValidationError):
            BoundingBox(0, 0, w, h)

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError) as exc:
            BoundingBox(float("nan"), 0, 1, 1)
        assert exc.value.field == "x"

    def test_value_semantics(self):
        assert BoundingBox(1, 2, 3, 4) == BoundingBox(1, 2, 3, 4)
        assert BoundingBox(1, 2, 3, 4) != BoundingBox(1, 2, 3, 5)


class TestDetection:
    def test_frame_must_be_positive(self):
        with pytest.raises(ValidationError) as exc:
            Detection(0, 1, BoundingBox(0, 0, 1, 1))
        assert exc.value.field == "frame"

    def test_score_range(self):
        with pytest.raises(ValidationError):
            Detection(1, 1, BoundingBox(0, 0, 1, 1), score=1.5)
        assert Detection(1, 1, BoundingBox(0, 0, 1, 1), score=0.5).score == 0.5


class TestTrack:
    def test_rejects_duplicate_frames(self):
        det = Detection(1, 3, BoundingBox(0, 0, 1, 1))
        with pytest.raises(ValidationError):
            Track(3, (det, det))

    def test_rejects_unsorted_frames(self):
        dets = (Detection(2, 3, BoundingBox(0, 0, 1, 1)),
                Detection(1, 3, BoundingBox(0, 0, 1, 1)))
        with pytest.raises(ValidationError):
            Track(3, dets)

    def test_rejects_foreign_id(self):
        with pytest.raises(ValidationError):
            Track(3, (Detection(1, 4, BoundingBox(0, 0, 1, 1)),))


class TestTemporalSegment:
    def test_start_exceeds_end(self):
        with pytest.raises(ValidationError):
            TemporalSegment(10, 5)


class TestReferent:
    def test_segments_sorted(self):
        ref = Referent(1, (TemporalSegment(10, 20), TemporalSegment(1, 5)))
        assert ref.gt_segments[0].start == 1

    def test_rejects_overlap(self):
        with pytest.raises(ValidationError):
            Referent(1, (TemporalSegment(1, 10), TemporalSegment(10, 20)))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            Referent(1, ())


class TestQuery:
    def test_rejects_duplicate_referents(self):
        ref = Referent(1, (TemporalSegment(1, 5),))
        with pytest.raises(ValidationError):
            Query("q1", "v1", "a person walks", (ref, ref))


class TestPredictionSet:
    def test_rejects_dangling_temporal_key(self):
        with pytest.raises(ValidationError):
            PredictionSet("q1", "v1", (), {
                7: (ScoredSegment(TemporalSegment(1, 5), 0.9),)})

    def test_accepts_consistent(self):
        track = Track(5, (Detection(1, 5, BoundingBox(0, 0, 1, 1)),))
        ps = PredictionSet("q1", "v1", (track,), {
            5: (ScoredSegment(TemporalSegment(1, 5), 0.9),)})
        assert ps.temporal[5][0].score == 0.9


class TestHotaComponents:
    def test_single_alpha_identity_enforced(self):
        with pytest.raises(ValidationError):
            HotaComponents(hota=0.9, det_a=0.5, ass_a=0.5, det_re=1,
                           det_pr=1, ass_re=1, ass_pr=1, loc_a=1,
                           tp=1, fn=0, fp=0)

    def test_alpha_averaged_relaxes_identity(self):
        c = HotaComponents(hota=0.9, det_a=0.5, ass_a=0.5, det_re=1,
                           det_pr=1, ass_re=1, ass_pr=1, loc_a=1,
                           tp=1, fn=0, fp=0, alpha_averaged=True)
        assert c.hota == 0.9

    def test_ratio_range(self):
        with pytest.raises(ValidationError):
            HotaComponents(hota=1, det_a=1, ass_a=1, det_re=1.2,
                           det_pr=1, ass_re=1, ass_pr=1, loc_a=1,
                           tp=1, fn=0, fp=0)


class TestTemporalMetrics:
    def _tables(self, r1v, r5v, r10v):
        taus = (0.1, 0.3, 0.5)
        return (dict.fromkeys(taus, r1v), dict.fromkeys(taus, r5v),
                dict.fromkeys(taus, r10v))

    def test_recall_monotone_in_k_enforced(self):
        r1, r5, r10 = self._tables(0.8, 0.5, 0.9)
        with pytest.raises(ValidationError):
            TemporalMetrics(r1, r5, r10, dict.fromkeys((0.1, 0.3, 0.5), 0.5),
                            miou=0.5)

    def test_valid(self):
        r1, r5, r10 = self._tables(0.2, 0.5, 0.9)
        m = TemporalMetrics(r1, r5, r10, dict.fromkeys((0.1, 0.3, 0.5), 0.5),
                            miou=0.5)
        assert m.miou == 0.5


class TestValidationError:
    def test_pickle_round_trip(self):
        """The error survives pickling, as a worker process sends it."""
        error = pickle.loads(pickle.dumps(ValidationError("w", "must be > 0")))
        assert type(error) is ValidationError
        assert str(error) == "w: must be > 0"
        assert error.field == "w"
