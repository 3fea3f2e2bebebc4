import pytest

from svageval.model import ValidationError
from svageval.pipeline import evaluate_query
from svageval.synth import (
    MAX_ORACLE_CANDIDATES,
    MAX_ORACLE_FRAMES,
    MAX_ORACLE_TRACKS,
    ScenarioSpec,
    generate,
    oracle_hota,
    oracle_temporal,
    write_split,
)
from svageval.temporal import TemporalPair
from svageval.model import ScoredSegment, TemporalSegment

from conftest import constant_track


class TestScenarioSpec:
    def test_defaults_valid(self):
        ScenarioSpec()

    @pytest.mark.parametrize("kwargs", [
        {"frames": 0}, {"frames": 51}, {"gt_tracks": 0}, {"gt_tracks": 5},
        {"queries": 0}, {"id_switch_prob": 1.5}, {"drop_prob": -0.1},
        {"box_jitter": -1.0}, {"segment_noise": -1},
        {"distractor_tracks": -1},
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValidationError):
            ScenarioSpec(seed=1, **kwargs)


class TestGenerate:
    def test_deterministic_in_seed(self):
        a_bundle, a_preds = generate(ScenarioSpec(seed=42, queries=4,
                                                  box_jitter=0.5,
                                                  id_switch_prob=0.2,
                                                  drop_prob=0.1,
                                                  segment_noise=2,
                                                  distractor_tracks=2))
        b_bundle, b_preds = generate(ScenarioSpec(seed=42, queries=4,
                                                  box_jitter=0.5,
                                                  id_switch_prob=0.2,
                                                  drop_prob=0.1,
                                                  segment_noise=2,
                                                  distractor_tracks=2))
        assert a_bundle.videos == b_bundle.videos
        assert a_preds == b_preds

    def test_seeds_differ(self):
        a = generate(ScenarioSpec(seed=1, queries=3, box_jitter=0.5))
        b = generate(ScenarioSpec(seed=2, queries=3, box_jitter=0.5))
        assert a != b

    def test_zero_corruption_scores_one(self):
        bundle, preds = generate(ScenarioSpec(seed=9, queries=3, gt_tracks=3))
        video = bundle.videos["video0001"]
        for query, predset in zip(video.queries, preds):
            spatial, pairs = evaluate_query(video, query, predset)
            assert spatial.hota == 1.0
            assert spatial.det_a == spatial.ass_a == spatial.loc_a == 1.0
            for pair in pairs:
                assert len(pair.predictions) == len(pair.gt_segments)
                for cand, gt in zip(pair.predictions, pair.gt_segments):
                    assert cand.segment == gt and cand.score == 1.0

    def test_corruption_degrades_spatial(self):
        clean_bundle, clean_preds = generate(ScenarioSpec(seed=3, queries=5))
        bundle, preds = generate(ScenarioSpec(
            seed=3, queries=5, box_jitter=2.0, id_switch_prob=0.2,
            drop_prob=0.2, distractor_tracks=2))
        video = bundle.videos["video0001"]
        degraded = [evaluate_query(video, q, p)[0].hota
                    for q, p in zip(video.queries, preds)]
        assert min(degraded) < 1.0

    def test_distractors_create_false_positives(self):
        bundle, preds = generate(ScenarioSpec(seed=5, queries=2,
                                              distractor_tracks=2))
        video = bundle.videos["video0001"]
        spatial, _ = evaluate_query(video, video.queries[0], preds[0])
        assert spatial.fp > 0


class TestWriteSplit:
    def test_byte_deterministic(self, tmp_path):
        bundle, preds = generate(ScenarioSpec(seed=12, queries=2,
                                              box_jitter=0.5,
                                              distractor_tracks=1))
        write_split(tmp_path / "a", "ovis", bundle, preds)
        write_split(tmp_path / "b", "ovis", bundle, preds)
        files_a = sorted(p.relative_to(tmp_path / "a")
                         for p in (tmp_path / "a").rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(tmp_path / "b")
                         for p in (tmp_path / "b").rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (tmp_path / "a" / rel).read_bytes() == \
                (tmp_path / "b" / rel).read_bytes()


class TestOracleHota:
    def test_perfect(self, unit_box):
        track = constant_track(1, unit_box, range(1, 5))
        c = oracle_hota([track], [track])
        assert c.hota == 1.0 and c.det_a == 1.0 and c.ass_a == 1.0

    def test_track_limit(self, unit_box):
        tracks = [constant_track(t, unit_box, [1])
                  for t in range(1, MAX_ORACLE_TRACKS + 2)]
        with pytest.raises(ValueError, match="tracks"):
            oracle_hota(tracks, [])

    def test_frame_limit(self, unit_box):
        track = constant_track(1, unit_box, range(1, MAX_ORACLE_FRAMES + 2))
        with pytest.raises(ValueError, match="frames"):
            oracle_hota([track], [])


class TestOracleTemporal:
    def test_perfect(self):
        pair = TemporalPair("q", 1, (TemporalSegment(1, 10),),
                            (ScoredSegment(TemporalSegment(1, 10), 1.0),))
        m = oracle_temporal([pair])
        assert m.miou == 1.0
        assert all(v == 1.0 for v in m.map_at.values())

    def test_candidate_limit(self):
        cands = tuple(ScoredSegment(TemporalSegment(i, i), 0.5)
                      for i in range(1, MAX_ORACLE_CANDIDATES + 2))
        pair = TemporalPair("q", 1, (TemporalSegment(1, 2),), cands)
        with pytest.raises(ValueError, match="candidates"):
            oracle_temporal([pair])
