"""Randomized property suites for the metric engine.

Absolute leaderboard numbers from trained submissions cannot be checked
here, so these properties pin down the behavior class instead: exact
agreement with brute-force oracles, the per-threshold geometric-mean
identity, bounds, determinism, and input-order invariance.
"""
import math
import random

import pytest

from svageval.model import BoundingBox, Detection, Track
from svageval.spatial import (
    ALPHAS,
    hota_at_alpha,
    hota_sweep,
    match_at_alpha,
)
from svageval.synth import oracle_hota, oracle_temporal
from svageval.temporal import evaluate_temporal, nms

from conftest import random_pairs, random_tracks


def _scenario(rng):
    gt = random_tracks(rng, 3, 6, id_base=1)
    pred = random_tracks(rng, 3, 6, id_base=rng.choice((1, 10)))
    return gt, pred


class TestEngineMatchesOracle:
    def test_spatial_exact(self):
        rng = random.Random(2024)
        for _ in range(150):
            gt, pred = _scenario(rng)
            assert hota_sweep(gt, pred)[0] == oracle_hota(gt, pred)

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
            for alpha in ALPHAS:
                c = hota_at_alpha(match_at_alpha(gt, pred, alpha))
                assert abs(c.hota ** 2 - c.det_a * c.ass_a) <= 1e-9


class TestBoundsAndDeterminism:
    def test_components_in_unit_interval(self):
        rng = random.Random(13)
        for _ in range(100):
            gt, pred = _scenario(rng)
            c = hota_sweep(gt, pred)[0]
            for name in ("hota", "det_a", "ass_a", "det_re", "det_pr",
                         "ass_re", "ass_pr", "loc_a"):
                assert 0.0 <= getattr(c, name) <= 1.0

    def test_repeat_evaluation_identical(self):
        rng = random.Random(17)
        for _ in range(30):
            gt, pred = _scenario(rng)
            assert hota_sweep(gt, pred)[0] == hota_sweep(gt, pred)[0]

    def test_track_order_irrelevant(self):
        rng = random.Random(19)
        for _ in range(50):
            gt, pred = _scenario(rng)
            shuffled_gt = list(gt)
            shuffled_pred = list(pred)
            rng.shuffle(shuffled_gt)
            rng.shuffle(shuffled_pred)
            assert hota_sweep(gt, pred)[0] == hota_sweep(
                shuffled_gt, shuffled_pred)[0]


class TestStructuralMonotonicity:
    def test_extra_false_positive_track_never_helps_detection(self):
        rng = random.Random(23)
        for _ in range(50):
            gt, pred = _scenario(rng)
            if not gt:
                continue
            extra = Track(99, (Detection(1, 99, BoundingBox(
                500, 500, 5, 5)),))
            base = hota_sweep(gt, pred)[0]
            worse = hota_sweep(gt, pred + [extra])[0]
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
            c = hota_sweep(gt, pred)[0]
            assert c.hota == 1.0 and c.loc_a == 1.0


class TestNmsProperties:
    def test_nms_only_removes(self):
        rng = random.Random(31)
        for _ in range(100):
            for pair in random_pairs(rng):
                kept = nms(pair.predictions, rng.random())
                assert set(kept) <= set(pair.predictions)

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
