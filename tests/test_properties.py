"""Randomized property suites for the metric engine.

Absolute leaderboard numbers from trained submissions cannot be checked
here, so these properties pin down the behavior class instead: exact
agreement with brute-force oracles, the per-threshold geometric-mean
identity, bounds, determinism, and input-order invariance.
"""
import dataclasses
import random

from hypothesis import assume, given, settings, strategies as st

from svageval.ingest import VideoGroundTruth
from svageval.model import (
    BoundingBox,
    Detection,
    PredictionSet,
    Query,
    Referent,
    ScoredSegment,
    TemporalSegment,
    Track,
)
from svageval.pipeline import evaluate_query
from svageval.spatial import ALPHAS, MAPPING_ALPHA, FrameMatch, hota_sweep
from svageval.synth import oracle_hota, oracle_temporal
from svageval.temporal import evaluate_temporal, nms

from conftest import float_scenarios, random_pairs, random_tracks


def _scenario(rng):
    gt = random_tracks(rng, 3, 6, id_base=1)
    pred = random_tracks(rng, 3, 6, id_base=rng.choice((1, 10)))
    return gt, pred


class TestEngineMatchesOracle:
    def test_spatial_exact(self):
        rng = random.Random(2024)
        for _ in range(150):
            gt, pred = _scenario(rng)
            assert hota_sweep(gt, pred).components == oracle_hota(gt, pred)

    @settings(max_examples=60, deadline=None)
    @given(float_scenarios())
    def test_spatial_exact_on_float_coordinates(self, scenario):
        """Two-decimal floats, ints and extreme exponents, all scaled by one
        power of two per query, give the oracle's exact components."""
        gt, pred = scenario
        assert hota_sweep(gt, pred).components == oracle_hota(gt, pred)

    def test_temporal_exact(self):
        rng = random.Random(2025)
        for _ in range(200):
            pairs = random_pairs(rng)
            assert evaluate_temporal(pairs) == oracle_temporal(pairs)


class TestHotaIdentity:
    def test_per_alpha_geometric_mean(self):
        rng = random.Random(7)
        for _ in range(50):
            gt, pred = _scenario(rng)
            sweep = hota_sweep(gt, pred)
            for alpha in ALPHAS:
                c = sweep.at(alpha)[0]
                assert abs(c.hota ** 2 - c.det_a * c.ass_a) <= 1e-9


class TestBoundsAndDeterminism:
    def test_components_in_unit_interval(self):
        rng = random.Random(13)
        for _ in range(100):
            gt, pred = _scenario(rng)
            c = hota_sweep(gt, pred).components
            for name in ("hota", "det_a", "ass_a", "det_re", "det_pr",
                         "ass_re", "ass_pr", "loc_a"):
                assert 0.0 <= getattr(c, name) <= 1.0

    def test_repeat_evaluation_identical(self):
        rng = random.Random(17)
        for _ in range(30):
            gt, pred = _scenario(rng)
            assert hota_sweep(gt, pred) == hota_sweep(gt, pred)

    def test_track_order_irrelevant(self):
        rng = random.Random(19)
        for _ in range(50):
            gt, pred = _scenario(rng)
            shuffled_gt = list(gt)
            shuffled_pred = list(pred)
            rng.shuffle(shuffled_gt)
            rng.shuffle(shuffled_pred)
            assert (hota_sweep(gt, pred).components
                    == hota_sweep(shuffled_gt, shuffled_pred).components)


def _increasing_map(data, ids):
    """A strictly increasing map from the given ids onto fresh ones."""
    ids = sorted(set(ids))
    new = data.draw(st.sets(st.integers(0, 10 ** 6), min_size=len(ids),
                            max_size=len(ids)))
    return dict(zip(ids, sorted(new)))


def _renamed(tracks, new_id):
    return [Track(new_id[t.track_id],
                  tuple(Detection(d.frame, new_id[t.track_id], d.box, d.score)
                        for d in t.detections))
            for t in tracks]


def _with_twins(tracks):
    """The tracks plus an identical copy of each under the id + 100."""
    return tracks + _renamed(tracks, {t.track_id: t.track_id + 100
                                      for t in tracks})


def _alternating(tracks):
    """Each track split into its odd and its even frames, the even ones
    under the id + 200, so that a referent's vote can tie."""
    halves = []
    for track in tracks:
        for parity, offset in ((1, 0), (0, 200)):
            tid = track.track_id + offset
            dets = tuple(Detection(d.frame, tid, d.box, d.score)
                         for d in track.detections if d.frame % 2 == parity)
            if dets:
                halves.append(Track(tid, dets))
    return halves


def _segment(rng, longest):
    start = rng.randint(1, 8)
    return TemporalSegment(start, start + rng.randint(0, longest))


class TestIdRenaming:
    """Tie-breaks look only at the order of ids, never at their values.
    The tracks of one side or both get identical twins, so exact ties,
    1 x k and k x 1 ones among them, are everywhere."""

    @settings(max_examples=100, deadline=None)
    @given(rng=st.randoms(use_true_random=False), data=st.data())
    def test_order_preserving_renaming_changes_nothing(self, rng, data):
        gt, pred = _scenario(rng)
        twins = data.draw(st.sampled_from(("gt", "pred", "both")))
        if twins != "pred":
            gt = _with_twins(gt)
        if twins != "gt":
            pred = _with_twins(pred)
        gt_map = _increasing_map(data, [t.track_id for t in gt])
        pred_map = _increasing_map(data, [t.track_id for t in pred])
        renamed_gt = _renamed(gt, gt_map)
        renamed_pred = _renamed(pred, pred_map)
        sweep = hota_sweep(gt, pred)
        renamed = hota_sweep(renamed_gt, renamed_pred)
        assert renamed.components == sweep.components
        assert list(renamed.id_map.items()) == [
            (gt_map[g], pred_map[p]) for g, p in sweep.id_map.items()]
        expected = tuple(
            FrameMatch(fm.frame, tuple((gt_map[g], pred_map[p], iou)
                                       for g, p, iou in fm.matches))
            for fm in sweep.at(MAPPING_ALPHA)[1])
        assert renamed.at(MAPPING_ALPHA)[1] == expected


    @settings(max_examples=100, deadline=None)
    @given(rng=st.randoms(use_true_random=False), data=st.data())
    def test_renaming_leaves_query_scores_unchanged(self, rng, data):
        """``evaluate_query`` gives the same components, and the same
        temporal pairs up to the renamed ``gt_track_id``. The predictions
        include a copy of every GT track, the predicted tracks may
        alternate frame by frame between two ids, and each predicted
        track carries candidates of its own, so the vote's tie-break
        decides which candidates a referent gets."""
        gt, pred = _scenario(rng)
        assume(gt)
        pred = pred + _renamed(gt, {t.track_id: t.track_id + 50 for t in gt})
        if data.draw(st.booleans()):
            pred = _alternating(pred)
        twins = data.draw(st.sampled_from(("gt", "pred", "both")))
        if twins != "pred":
            gt = _with_twins(gt)
        if twins != "gt":
            pred = _with_twins(pred)
        segments = {t.track_id: (_segment(rng, 3),) for t in gt}
        temporal = {t.track_id: tuple(
            ScoredSegment(_segment(rng, 6), round(rng.random(), 1))
            for _ in range(rng.randint(0, 4))) for t in pred}

        def score(gt_map, pred_map):
            video = VideoGroundTruth("v", {
                t.track_id: t for t in _renamed(gt, gt_map)}, [])
            query = Query("q", "v", "", tuple(
                Referent(gt_map[gid], segs) for gid, segs in segments.items()))
            predset = PredictionSet("q", "v", _renamed(pred, pred_map), {
                pred_map[pid]: cands for pid, cands in temporal.items()})
            return evaluate_query(video, query, predset)

        gt_map = _increasing_map(data, [t.track_id for t in gt])
        pred_map = _increasing_map(data, [t.track_id for t in pred])
        components, pairs = score({g: g for g in gt_map},
                                  {p: p for p in pred_map})
        renamed, renamed_pairs = score(gt_map, pred_map)
        assert renamed == components
        assert renamed_pairs == [
            dataclasses.replace(
                p, gt_track_id=gt_map[p.gt_track_id],
                pred_track_id=None if p.pred_track_id is None
                else pred_map[p.pred_track_id])
            for p in pairs]
        for threshold in (None, 0.7):
            assert (evaluate_temporal(renamed_pairs, threshold)
                    == evaluate_temporal(pairs, threshold))


class TestStructuralMonotonicity:
    def test_extra_false_positive_track_never_helps_detection(self):
        rng = random.Random(23)
        for _ in range(50):
            gt, pred = _scenario(rng)
            if not gt:
                continue
            extra = Track(99, (Detection(1, 99, BoundingBox(
                500, 500, 5, 5)),))
            base = hota_sweep(gt, pred).components
            worse = hota_sweep(gt, pred + [extra]).components
            assert worse.det_a <= base.det_a
            assert worse.det_pr <= base.det_pr
            assert worse.fp > base.fp

    def test_perfect_predictions_score_one(self):
        rng = random.Random(29)
        for _ in range(50):
            gt = random_tracks(rng, 3, 6, id_base=1)
            if not gt:
                continue
            pred = [Track(t.track_id, t.detections) for t in gt]
            c = hota_sweep(gt, pred).components
            assert c.hota == 1.0 and c.loc_a == 1.0


class TestNmsProperties:
    def test_nms_only_removes(self):
        rng = random.Random(31)
        for _ in range(100):
            for pair in random_pairs(rng):
                kept = nms(pair.predictions, rng.random())
                assert set(kept) <= set(pair.predictions)

    @settings(max_examples=200, deadline=None)
    @given(rng=st.randoms(use_true_random=False), threshold=st.floats(0, 1))
    def test_nms_path_matches_oracle(self, rng, threshold):
        """``evaluate_temporal`` with a threshold scores exactly what the
        oracle scores on the suppressed candidates."""
        pairs = random_pairs(rng)
        suppressed = [dataclasses.replace(
            p, predictions=tuple(nms(p.predictions, threshold)))
            for p in pairs]
        assert (evaluate_temporal(pairs, threshold)
                == oracle_temporal(suppressed))

    def test_recall_never_drops_at_higher_k(self):
        rng = random.Random(37)
        for _ in range(100):
            m = evaluate_temporal(random_pairs(rng))
            for tau in m.r1:
                assert m.r1[tau] <= m.r5[tau] <= m.r10[tau]

    def test_recall_never_rises_at_stricter_tau(self):
        rng = random.Random(41)
        for _ in range(100):
            m = evaluate_temporal(random_pairs(rng))
            for table in (m.r1, m.r5, m.r10, m.map_at):
                assert table[0.1] >= table[0.3] >= table[0.5]
