import random

import pytest

from svageval.model import (BoundingBox, PredictionSet, Query, Referent,
                            ScoredSegment, TemporalSegment, ValidationError)
from svageval.spatial import hota_sweep
from svageval.synth import oracle_temporal
from svageval.temporal import (
    RECALL_KS,
    TAUS,
    TemporalPair,
    build_temporal_pairs,
    evaluate_temporal,
    nms,
    temporal_iou,
)

from conftest import constant_track, random_pairs


def seg(start, end):
    return TemporalSegment(start, end)


def cand(start, end, score):
    return ScoredSegment(seg(start, end), score)


class TestTemporalIou:
    def test_identical(self):
        assert temporal_iou(seg(10, 19), seg(10, 19)) == 1.0

    def test_inclusive_endpoints(self):
        # [1,10] vs [10,19]: single shared frame, union 19
        assert temporal_iou(seg(1, 10), seg(10, 19)) == pytest.approx(1 / 19)

    def test_disjoint_adjacent(self):
        assert temporal_iou(seg(1, 10), seg(11, 20)) == 0.0

    def test_nested(self):
        assert temporal_iou(seg(1, 20), seg(6, 10)) == 0.25

    def test_single_frame(self):
        assert temporal_iou(seg(5, 5), seg(5, 5)) == 1.0

    def test_segments_longer_than_len_allows(self):
        """Segments of 2**63 frames or more, past a C ssize_t, have an
        exact IoU."""
        assert temporal_iou(seg(1, 2**64), seg(1, 2**63)) == 0.5


class TestTemporalPair:
    def test_candidates_ranked_on_construction(self):
        pair = TemporalPair("q", 1, (seg(1, 5),), (
            cand(9, 12, 0.4), cand(1, 4, 0.9), cand(1, 2, 0.9)))
        assert [c.segment.start for c in pair.predictions] == [1, 1, 9]
        assert [c.segment.end for c in pair.predictions] == [2, 4, 12]

    def test_no_gt_segments_rejected(self):
        """A pair without GT segments is refused as ``Referent`` refuses
        it, not divided by zero later."""
        with pytest.raises(ValidationError) as refused:
            TemporalPair("q", 1, (), ())
        with pytest.raises(ValidationError) as expected:
            Referent(1, ())
        assert str(refused.value) == str(expected.value)
        assert refused.value.field == "gt_segments"


class TestBuildTemporalPairs:
    """Pairs built from the identity map ``hota_sweep`` votes."""

    @staticmethod
    def _fixtures(unit_box):
        gt = [constant_track(1, unit_box, range(1, 6)),
              constant_track(2, BoundingBox(50, 50, 5, 5), range(1, 6))]
        pred_tracks = (constant_track(3, unit_box, range(1, 6)),)
        temporal = {3: (cand(1, 4, 0.8),)}
        preds = PredictionSet("q1", "v1", pred_tracks, temporal)
        query = Query("q1", "v1", "text", (
            Referent(1, (seg(1, 5),)),
            Referent(2, (seg(2, 3),)),
        ))
        return hota_sweep(gt, list(pred_tracks)).id_map, preds, query

    def test_mapped_and_unmapped(self, unit_box):
        id_map, preds, query = self._fixtures(unit_box)
        pairs = build_temporal_pairs(id_map, query, preds)
        assert len(pairs) == 2
        assert pairs[0].gt_track_id == 1
        assert pairs[0].predictions[0].score == 0.8
        # referent 2 never matched: empty candidate list, still present
        assert pairs[1].gt_track_id == 2
        assert pairs[1].predictions == ()

    def test_missing_prediction_set(self, unit_box):
        id_map, _, query = self._fixtures(unit_box)
        pairs = build_temporal_pairs(id_map, query, None)
        assert all(p.predictions == () for p in pairs)

    def test_mapped_id_without_temporal_entry(self, unit_box):
        id_map, preds, query = self._fixtures(unit_box)
        bare = PredictionSet("q1", "v1", preds.tracks, {})
        pairs = build_temporal_pairs(id_map, query, bare)
        assert pairs[0].predictions == ()

    def test_pair_names_its_mapped_track(self, unit_box):
        """Each pair carries the vote winner of its referent, and ``None``
        for an unmapped referent."""
        id_map, preds, query = self._fixtures(unit_box)
        pairs = build_temporal_pairs(id_map, query, preds)
        assert [p.pred_track_id for p in pairs] == [3, None]


class TestRecall:
    def test_grid_shape(self):
        assert TAUS == (0.1, 0.3, 0.5)
        assert RECALL_KS == (1, 5, 10)

    def test_hit_counts_once_per_pair(self):
        pair = TemporalPair("q", 1, (seg(1, 10),), (
            cand(1, 10, 0.9), cand(1, 10, 0.8)))
        assert evaluate_temporal([pair]).r1[0.5] == 1.0

    def test_top1_miss_top5_hit(self):
        pair = TemporalPair("q", 1, (seg(1, 10),), (
            cand(50, 60, 0.9), cand(1, 10, 0.4)))
        m = evaluate_temporal([pair])
        assert m.r1[0.5] == 0.0
        assert m.r5[0.5] == 1.0

    def test_first_hit_at_rank_six(self):
        misses = tuple(cand(40 + 10 * i, 45 + 10 * i, 0.9 - 0.1 * i)
                       for i in range(5))
        pair = TemporalPair("q", 1, (seg(1, 10),),
                            misses + (cand(1, 10, 0.1),))
        m = evaluate_temporal([pair])
        assert (m.r1[0.5], m.r5[0.5], m.r10[0.5]) == (0.0, 0.0, 1.0)

    def test_no_hit_counts_nowhere(self):
        pair = TemporalPair("q", 1, (seg(1, 10),), (cand(50, 60, 0.9),))
        m = evaluate_temporal([pair])
        assert (m.r1[0.1], m.r5[0.1], m.r10[0.1]) == (0.0, 0.0, 0.0)

    def test_threshold_inclusive(self):
        # IoU exactly 0.5: [1,10] vs [1,5] -> 5/10
        pair = TemporalPair("q", 1, (seg(1, 10),), (cand(1, 5, 0.9),))
        assert evaluate_temporal([pair]).r1[0.5] == 1.0

    def test_any_gt_segment_counts(self):
        pair = TemporalPair("q", 1, (seg(1, 5), seg(50, 60)),
                            (cand(50, 60, 0.9),))
        assert evaluate_temporal([pair]).r1[0.5] == 1.0


class TestAveragePrecision:
    def test_single_gt_first_hit_rank_three(self):
        pair = TemporalPair("q", 1, (seg(1, 10),), (
            cand(40, 50, 0.9), cand(60, 70, 0.8), cand(1, 10, 0.7)))
        assert evaluate_temporal([pair]).map_at[0.5] == pytest.approx(1 / 3)

    def test_two_gt_hits_at_ranks_one_and_four(self):
        pair = TemporalPair("q", 1, (seg(1, 10), seg(30, 40)), (
            cand(1, 10, 0.9), cand(60, 70, 0.8), cand(80, 90, 0.7),
            cand(30, 40, 0.6)))
        # (1/1 + 2/4) / 2
        assert evaluate_temporal([pair]).map_at[0.5] == 0.75

    def test_gt_claimed_only_once(self):
        pair = TemporalPair("q", 1, (seg(1, 10),), (
            cand(1, 10, 0.9), cand(1, 10, 0.8)))
        assert evaluate_temporal([pair]).map_at[0.5] == 1.0

    def test_claims_highest_iou_unclaimed_gt(self):
        # candidate overlaps both GT segments; it must claim the closer one,
        # leaving the other for the later exact candidate
        pair = TemporalPair("q", 1, (seg(1, 10), seg(11, 20)), (
            cand(3, 12, 0.9),   # IoU 8/12 with gt0, 2/18 with gt1
            cand(11, 20, 0.8)))
        assert evaluate_temporal([pair]).map_at[0.1] == pytest.approx(1.0)

    def test_no_candidates(self):
        pair = TemporalPair("q", 1, (seg(1, 10),), ())
        assert evaluate_temporal([pair]).map_at[0.5] == 0.0

    def test_map_example(self):
        pairs = [
            TemporalPair("a", 1, (seg(1, 10),), (cand(1, 10, 0.9),)),
            TemporalPair("b", 1, (seg(1, 10),), (
                cand(40, 50, 0.9), cand(60, 70, 0.8), cand(1, 10, 0.7))),
            TemporalPair("c", 1, (seg(1, 10), seg(30, 40)), (
                cand(1, 10, 0.9), cand(60, 70, 0.8), cand(80, 90, 0.7),
                cand(30, 40, 0.6))),
        ]
        assert evaluate_temporal(pairs).map_at[0.5] == pytest.approx(
            (1.0 + 1 / 3 + 0.75) / 3)


class TestMiou:
    def test_top1_best_gt(self):
        pair = TemporalPair("q", 1, (seg(1, 10), seg(30, 40)),
                            (cand(28, 40, 0.9),))
        assert evaluate_temporal([pair]).miou == pytest.approx(11 / 13)

    def test_empty_candidates_contribute_zero(self):
        pairs = [
            TemporalPair("a", 1, (seg(1, 10),), (cand(1, 10, 0.9),)),
            TemporalPair("b", 1, (seg(1, 10),), ()),
        ]
        assert evaluate_temporal(pairs).miou == 0.5


class TestNms:
    def test_suppresses_overlapping_lower_score(self):
        kept = nms([cand(1, 10, 0.9), cand(2, 11, 0.8), cand(50, 60, 0.7)],
                   0.5)
        assert [(c.segment.start, c.score) for c in kept] == [
            (1, 0.9), (50, 0.7)]

    def test_threshold_boundary_keeps_equal_overlap(self):
        # IoU([1,10], [6,15]) = 5/15 = 1/3; kept at threshold 1/3 (strictly
        # greater overlap is required for suppression)
        kept = nms([cand(1, 10, 0.9), cand(6, 15, 0.8)], 1 / 3)
        assert len(kept) == 2

    def test_exact_duplicates_collapse(self):
        kept = nms([cand(1, 10, 0.9), cand(1, 10, 0.5)], 0.7)
        assert len(kept) == 1 and kept[0].score == 0.9

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(50):
            for pair in random_pairs(rng):
                once = nms(pair.predictions, 0.7)
                assert nms(once, 0.7) == once

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            nms([], 1.5)


class TestEvaluateTemporal:
    def test_perfect(self):
        pair = TemporalPair("q", 1, (seg(1, 10),), (cand(1, 10, 1.0),))
        m = evaluate_temporal([pair])
        assert m.miou == 1.0
        assert all(v == 1.0 for v in m.r1.values())
        assert all(v == 1.0 for v in m.map_at.values())

    def test_nms_never_hurts_r1_or_miou(self):
        rng = random.Random(11)
        for _ in range(100):
            pairs = random_pairs(rng)
            base = evaluate_temporal(pairs)
            pruned = evaluate_temporal(pairs, nms_threshold=0.7)
            assert pruned.r1 == base.r1
            assert pruned.miou == base.miou

    def test_empty_scope_rejected(self):
        with pytest.raises(ValueError, match="no referents"):
            evaluate_temporal([])


@pytest.mark.parametrize("score", (evaluate_temporal, oracle_temporal),
                         ids=("engine", "oracle"))
class TestExactThresholds:
    """τ is read as its decimal and each IoU as its exact ratio: an IoU that
    only rounds to τ misses it, in the engine and in the oracle alike."""

    def test_iou_that_rounds_to_tau_misses(self, score):
        # The exact IoU (3·10**16 - 1) / 10**17 is below 3/10, and its
        # float is 0.3.
        gt, candidate = seg(1, 10**17), seg(1, 3 * 10**16 - 1)
        assert temporal_iou(candidate, gt) == 0.3
        metrics = score([TemporalPair("q", 1, (gt,), (
            ScoredSegment(candidate, 0.9),))])
        for table in (metrics.r1, metrics.r5, metrics.r10, metrics.map_at):
            assert table == {0.1: 1.0, 0.3: 0.0, 0.5: 0.0}

    def test_iou_of_exactly_tau_hits(self, score):
        metrics = score([TemporalPair("q", 1, (seg(1, 10),),
                                      (cand(1, 3, 0.9),))])
        for table in (metrics.r1, metrics.r5, metrics.r10, metrics.map_at):
            assert table == {0.1: 1.0, 0.3: 1.0, 0.5: 0.0}

    def test_claim_goes_to_the_exactly_larger_iou(self, score):
        # The first candidate's IoUs with the two GT segments are
        # n / (2n + 2), just below 1/2, and 1/2, and both round to the float
        # 0.5. It claims the second segment, so the second candidate, equal
        # to that segment, finds nothing left to claim.
        n = 10**17
        gt = (seg(1, n), seg(n + 2, 2 * n + 2))
        pair = TemporalPair("q", 1, gt, (cand(1, 2 * n + 2, 0.9),
                                         cand(n + 2, 2 * n + 2, 0.8)))
        assert temporal_iou(pair.predictions[0].segment, gt[0]) == 0.5
        assert score([pair]).map_at[0.1] == 0.5
