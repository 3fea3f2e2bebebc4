from fractions import Fraction

import pytest

from svageval.idmap import (
    MAPPING_ALPHA,
    TemporalPair,
    build_id_map,
    build_temporal_pairs,
)
from svageval.model import (
    BoundingBox,
    PredictionSet,
    Query,
    Referent,
    ScoredSegment,
    TemporalSegment,
)
from svageval.pipeline import _duplicate_winners
from svageval.spatial import match_at_alpha

from conftest import constant_track, make_track


def _match(gt, pred, alpha=MAPPING_ALPHA):
    return match_at_alpha(gt, pred, alpha)


class TestBuildIdMap:
    def test_majority_vote(self, unit_box):
        far = BoundingBox(50, 50, 10, 10)
        gt = [constant_track(1, unit_box, range(1, 6))]
        # pred 7 covers 3 frames, pred 8 covers the other 2 elsewhere-placed
        pred = [make_track(7, [(1, unit_box), (2, unit_box), (3, unit_box),
                               (4, far), (5, far)]),
                make_track(8, [(4, unit_box), (5, unit_box)])]
        assert build_id_map(_match(gt, pred)) == {1: 7}

    def test_vote_tie_goes_to_smaller_pred_id(self, unit_box):
        gt = [constant_track(1, unit_box, range(1, 5))]
        pred = [make_track(9, [(1, unit_box), (2, unit_box)]),
                make_track(4, [(3, unit_box), (4, unit_box)])]
        assert build_id_map(_match(gt, pred)) == {1: 4}

    def test_unmatched_gt_stays_unmapped(self, unit_box):
        gt = [constant_track(1, unit_box, range(1, 3)),
              constant_track(2, BoundingBox(50, 50, 5, 5), range(1, 3))]
        pred = [constant_track(1, unit_box, range(1, 3))]
        assert build_id_map(_match(gt, pred)) == {1: 1}

    def test_not_globally_one_to_one(self, unit_box):
        """One predicted track can win the vote for several GT ids; that is
        reported, not prevented."""
        near = BoundingBox(0, 1, 10, 10)
        gt = [make_track(1, [(1, unit_box), (2, unit_box)]),
              make_track(2, [(3, near), (4, near)])]
        pred = [constant_track(5, unit_box, range(1, 5))]
        id_map = build_id_map(_match(gt, pred))
        assert id_map == {1: 5, 2: 5}
        query = Query("q", "v", "", (Referent(1, (TemporalSegment(1, 2),)),
                                     Referent(2, (TemporalSegment(3, 4),))))
        pairs = build_temporal_pairs(id_map, query, None)
        assert _duplicate_winners(pairs) == {5: [1, 2]}

    def test_wrong_alpha_rejected(self, unit_box):
        gt = [constant_track(1, unit_box, range(1, 3))]
        with pytest.raises(ValueError, match="alpha=0.5"):
            build_id_map(_match(gt, gt, Fraction(1, 4)))


class TestTemporalPair:
    def test_candidates_ranked_on_construction(self):
        seg = TemporalSegment
        pair = TemporalPair("q", 1, (seg(1, 5),), (
            ScoredSegment(seg(9, 12), 0.4),
            ScoredSegment(seg(1, 4), 0.9),
            ScoredSegment(seg(1, 2), 0.9),
        ))
        assert [c.segment.start for c in pair.predictions] == [1, 1, 9]
        assert [c.segment.end for c in pair.predictions] == [2, 4, 12]


class TestBuildTemporalPairs:
    def _fixtures(self, unit_box):
        gt = [constant_track(1, unit_box, range(1, 6)),
              constant_track(2, BoundingBox(50, 50, 5, 5), range(1, 6))]
        pred_tracks = (constant_track(3, unit_box, range(1, 6)),)
        temporal = {3: (ScoredSegment(TemporalSegment(1, 4), 0.8),)}
        preds = PredictionSet("q1", "v1", pred_tracks, temporal)
        query = Query("q1", "v1", "text", (
            Referent(1, (TemporalSegment(1, 5),)),
            Referent(2, (TemporalSegment(2, 3),)),
        ))
        return gt, preds, query

    def test_mapped_and_unmapped(self, unit_box):
        gt, preds, query = self._fixtures(unit_box)
        id_map = build_id_map(_match(gt, list(preds.tracks)))
        pairs = build_temporal_pairs(id_map, query, preds)
        assert len(pairs) == 2
        assert pairs[0].gt_track_id == 1
        assert pairs[0].predictions[0].score == 0.8
        # referent 2 never matched: empty candidate list, still present
        assert pairs[1].gt_track_id == 2
        assert pairs[1].predictions == ()

    def test_missing_prediction_set(self, unit_box):
        gt, preds, query = self._fixtures(unit_box)
        id_map = build_id_map(_match(gt, list(preds.tracks)))
        pairs = build_temporal_pairs(id_map, query, None)
        assert all(p.predictions == () for p in pairs)

    def test_mapped_id_without_temporal_entry(self, unit_box):
        gt, preds, query = self._fixtures(unit_box)
        bare = PredictionSet("q1", "v1", preds.tracks, {})
        id_map = build_id_map(_match(gt, list(preds.tracks)))
        pairs = build_temporal_pairs(id_map, query, bare)
        assert pairs[0].predictions == ()

    def test_pair_names_its_mapped_track(self, unit_box):
        """Each pair carries the vote winner of its referent, and ``None``
        for an unmapped referent."""
        gt, preds, query = self._fixtures(unit_box)
        id_map = build_id_map(_match(gt, list(preds.tracks)))
        pairs = build_temporal_pairs(id_map, query, preds)
        assert [p.pred_track_id for p in pairs] == [3, None]
