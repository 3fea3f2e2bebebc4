import json
import pickle
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from svageval.ingest import (
    DatasetSplit,
    Diagnostic,
    GroundTruthBundle,
    IngestError,
    VideoGroundTruth,
    compute_stats,
    load_split,
    parse_prediction_bundle,
    parse_query_json,
    parse_track_csv,
    validate_split,
)
from svageval.model import (
    BoundingBox,
    Detection,
    PredictionSet,
    Query,
    Referent,
    TemporalSegment,
    Track,
)
from svageval.synth import (
    ScenarioSpec,
    generate,
    write_split,
)

from conftest import generate_count_bundle


class TestParseTrackCsv:
    def test_single_line(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("1,3,10,20,30,40\n")
        tracks = parse_track_csv(path)
        assert len(tracks) == 1
        assert tracks[0].track_id == 3
        assert tracks[0].detections[0] == Detection(
            1, 3, BoundingBox(10, 20, 30, 40))

    def test_non_positive_width(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("1,3,10,20,0,40\n")
        with pytest.raises(IngestError, match="line 1: w: must be positive"):
            parse_track_csv(path)

    def test_duplicate_frame(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("1,3,10,20,30,40\n1,3,11,21,31,41\n")
        with pytest.raises(IngestError, match="duplicate"):
            parse_track_csv(path)

    def test_blank_line_located(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("1,3,10,20,30,40\n\n2,3,10,20,30,40\n")
        with pytest.raises(IngestError, match="gt.txt:line 2: blank line$"):
            parse_track_csv(path)

    def test_crlf_and_no_trailing_newline(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("1,3,10,20,30,40\r\n2,3,10,20,30,40")
        tracks = parse_track_csv(path)
        assert tracks[0].frames == (1, 2)

    def test_field_count_error_carries_line(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("1,3,10,20,30,40\n1,4,10,20\n")
        with pytest.raises(IngestError, match="line 2"):
            parse_track_csv(path)

    def test_with_score(self, tmp_path):
        path = tmp_path / "pred.txt"
        path.write_text("1,3,10,20,30,40,0.75\n")
        tracks = parse_track_csv(path, with_score=True)
        assert tracks[0].detections[0].score == 0.75

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError, match="cannot read"):
            parse_track_csv(tmp_path / "nope.txt")

    def test_invalid_utf8_located(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_bytes(b"1,3,10,20,30,40\n\xff\n")
        with pytest.raises(IngestError, match="byte 16: invalid UTF-8"):
            parse_track_csv(path)

    @pytest.mark.parametrize("token", ["1_0", "\u0663", "\uff11",
                                       "1\u00a0"])
    def test_underscore_or_non_ascii_located(self, tmp_path, token):
        """``int`` and ``float`` would read these as numbers."""
        path = tmp_path / "gt.txt"
        path.write_text(f"1,3,10,20,30,40\n2,3,{token},20,30,40\n",
                        encoding="utf-8")
        with pytest.raises(IngestError,
                           match="line 2: underscore or non-ASCII"):
            parse_track_csv(path)

    def test_lone_cr_ends_a_line(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_bytes(b"1,3,10,20,30,40\r2,3,10,20,30,40\r")
        assert parse_track_csv(path)[0].frames == (1, 2)


def _write_queries(tmp_path, doc):
    path = tmp_path / "queries.json"
    path.write_text(json.dumps(doc))
    return path


class TestParseQueryJson:
    def test_single_query_single_referent(self, tmp_path):
        path = _write_queries(tmp_path, {
            "video_id": "v1",
            "queries": [{"query_id": "q1", "text": "a person is dancing",
                         "referents": [{"track_id": 4,
                                        "segments": [[2543, 2782]]}]}]})
        queries = parse_query_json(path)
        assert queries == [Query("q1", "v1", "a person is dancing",
                                 (Referent(4, (TemporalSegment(2543, 2782),)),))]

    def test_start_exceeds_end(self, tmp_path):
        path = _write_queries(tmp_path, {
            "video_id": "v1",
            "queries": [{"query_id": "q1", "text": "t",
                         "referents": [{"track_id": 4,
                                        "segments": [[10, 5]]}]}]})
        with pytest.raises(IngestError, match="segment start exceeds end"):
            parse_query_json(path)

    def test_duplicate_referent(self, tmp_path):
        path = _write_queries(tmp_path, {
            "video_id": "v1",
            "queries": [{"query_id": "q1", "text": "t",
                         "referents": [
                             {"track_id": 4, "segments": [[1, 5]]},
                             {"track_id": 4, "segments": [[7, 9]]}]}]})
        with pytest.raises(IngestError, match="duplicate referent track_id"):
            parse_query_json(path)

    def test_missing_field_names_json_path(self, tmp_path):
        path = _write_queries(tmp_path, {
            "video_id": "v1",
            "queries": [{"query_id": "q1",
                         "referents": [{"track_id": 4,
                                        "segments": [[1, 2]]}]}]})
        with pytest.raises(IngestError, match=r"queries\[0\]"):
            parse_query_json(path)

    def test_duplicate_key_refused(self, tmp_path):
        """A key given twice is refused, naming the key, instead of the last
        one being scored."""
        path = tmp_path / "queries.json"
        path.write_text('{"video_id": "v1", "queries": [{"query_id": "q1", '
                        '"text": "t", "referents": [{"track_id": 4, '
                        '"segments": [[1, 2]], "segments": [[2, 2]]}]}]}')
        with pytest.raises(IngestError, match=(
                r"queries.json: invalid JSON: duplicate key 'segments'$")):
            parse_query_json(path)

    def test_top_level_array_located(self, tmp_path):
        path = _write_queries(tmp_path, [{"video_id": "v1", "queries": []}])
        with pytest.raises(IngestError, match=(
                r"queries.json:\$: top-level value must be an object$")):
            parse_query_json(path)

    def test_unknown_fields_ignored(self, tmp_path):
        path = _write_queries(tmp_path, {
            "video_id": "v1", "extra": 42,
            "queries": [{"query_id": "q1", "text": "t", "rank": 7,
                         "referents": [{"track_id": 4, "segments": [[1, 2]],
                                        "color": "red"}]}]})
        assert len(parse_query_json(path)) == 1


class TestParsePredictionBundle:
    def _write(self, tmp_path, csv_text, doc):
        csv_path = tmp_path / "pred.txt"
        csv_path.write_text(csv_text)
        json_path = tmp_path / "pred_temporal.json"
        json_path.write_text(json.dumps(doc))
        return csv_path, json_path

    def test_dangling_temporal_reference_dropped(self, tmp_path):
        csv_path, json_path = self._write(
            tmp_path, "1,5,10,20,30,40,1.0\n",
            {"query_id": "q1", "video_id": "v1",
             "tracks": [{"track_id": 7,
                         "segments": [{"start": 1, "end": 5, "score": 0.9}]}]})
        predset, warnings = parse_prediction_bundle(csv_path, json_path)
        assert predset.temporal == {}
        assert len(warnings) == 1

    def test_empty_segments_accepted(self, tmp_path):
        csv_path, json_path = self._write(
            tmp_path, "1,5,10,20,30,40,1.0\n",
            {"query_id": "q1", "video_id": "v1",
             "tracks": [{"track_id": 5, "segments": []}]})
        predset, warnings = parse_prediction_bundle(csv_path, json_path)
        assert predset.temporal == {5: ()}
        assert warnings == []

    def test_repeated_temporal_entry_located(self, tmp_path):
        entry = {"track_id": 5,
                 "segments": [{"start": 1, "end": 2, "score": 0.5}]}
        csv_path, json_path = self._write(
            tmp_path, "1,5,10,20,30,40,1.0\n",
            {"query_id": "q1", "video_id": "v1", "tracks": [entry, entry]})
        with pytest.raises(IngestError, match=(
                r"\$\.tracks\[1\]: duplicate temporal entry for track 5$")):
            parse_prediction_bundle(csv_path, json_path)

    def test_duplicate_key_refused(self, tmp_path):
        csv_path, json_path = self._write(tmp_path, "1,5,10,20,30,40,1.0\n",
                                          {})
        json_path.write_text('{"query_id": "q1", "video_id": "v1", '
                             '"query_id": "q2", "tracks": []}')
        with pytest.raises(IngestError, match=(
                r"pred_temporal.json: invalid JSON: duplicate key "
                r"'query_id'$")):
            parse_prediction_bundle(csv_path, json_path)

    def test_huge_integer_score_located(self, tmp_path):
        csv_path, json_path = self._write(
            tmp_path, "1,5,10,20,30,40,1.0\n",
            {"query_id": "q1", "video_id": "v1",
             "tracks": [{"track_id": 5,
                         "segments": [{"start": 1, "end": 2,
                                       "score": 10 ** 400}]}]})
        with pytest.raises(IngestError) as info:
            parse_prediction_bundle(csv_path, json_path)
        assert info.value.location == "$.tracks[0].segments[0].score"

    def test_invalid_utf8_json_located(self, tmp_path):
        csv_path, json_path = self._write(tmp_path, "1,5,10,20,30,40,1.0\n",
                                          {})
        json_path.write_bytes(b'{"query_id": "q\xc3"}')
        with pytest.raises(IngestError) as info:
            parse_prediction_bundle(csv_path, json_path)
        assert info.value.location == "byte 15"

    def test_round_trip_identity(self, tmp_path):
        csv_path, json_path = self._write(
            tmp_path, "1,5,10,20,30,40,1.0\n2,5,11,21,30,40,0.5\n",
            {"query_id": "q1", "video_id": "v1",
             "tracks": [{"track_id": 5,
                         "segments": [{"start": 1, "end": 2, "score": 0.8}]}]})
        predset, warnings = parse_prediction_bundle(csv_path, json_path)
        assert warnings == []
        assert len(predset.tracks) == 1
        assert predset.tracks[0].frames == (1, 2)
        assert predset.temporal[5][0].segment == TemporalSegment(1, 2)


def _toy_split():
    box = BoundingBox(0, 0, 10, 10)
    track = Track(1, (Detection(1, 1, box), Detection(2, 1, box)))
    query = Query("q1", "v1", "toy", (Referent(1, (TemporalSegment(1, 2),)),))
    bundle = GroundTruthBundle(videos={"v1": VideoGroundTruth(
        "v1", {1: track}, [query])})
    predset = PredictionSet("q1", "v1", (track,), {})
    return DatasetSplit("ovis", bundle, [predset])


class TestValidateSplit:
    def test_clean(self):
        assert validate_split(_toy_split()) == []

    def test_unresolved_referent(self):
        split = _toy_split()
        bad_query = Query("q2", "v1", "bad",
                          (Referent(99, (TemporalSegment(1, 2),)),))
        split.bundle.videos["v1"].queries.append(bad_query)
        diags = validate_split(split)
        assert any("unresolved referent" in d.message for d in diags)

    def test_orphan_prediction(self):
        split = _toy_split()
        split.predictions.append(
            PredictionSet("q9", "v1", (), {}))
        diags = validate_split(split)
        assert any("orphan prediction" in d.message for d in diags)

    def test_duplicate_prediction_set(self):
        split = _toy_split()
        split.predictions.append(split.predictions[0])
        diags = validate_split(split)
        assert any(d.severity == "error" and "duplicate" in d.message
                   for d in diags)

    def test_duplicate_query_id(self):
        """A query id given twice in one video is an error at that query,
        reported once, not a second scoring of the same prediction."""
        split = _toy_split()
        video = split.bundle.videos["v1"]
        video.queries.append(Query("q1", "v1", "again",
                                   video.queries[0].referents))
        assert validate_split(split) == [Diagnostic(
            severity="error", location="ovis/v1/q1",
            message="duplicate query id")]

    def test_video_without_queries_warns(self):
        split = _toy_split()
        split.bundle.videos["v2"] = VideoGroundTruth("v2", {}, [])
        assert validate_split(split) == [Diagnostic(
            severity="warning", location="ovis/v2",
            message="video has no queries")]

    def test_segment_past_track_end_warns(self):
        split = _toy_split()
        long_query = Query("q3", "v1", "long",
                           (Referent(1, (TemporalSegment(1, 50),)),))
        split.bundle.videos["v1"].queries.append(long_query)
        diags = validate_split(split)
        assert any(d.severity == "warning" and "extends past" in d.message
                   for d in diags)


class TestComputeStats:
    def test_benchmark_density(self):
        bundle = generate_count_bundle(videos=688, queries=19590, tracks=9781)
        stats = compute_stats(bundle)
        assert stats["videos"] == 688
        assert stats["queries"] == 19590
        assert stats["tracks"] == 9781
        assert stats["queries_per_video"] == 28.47
        assert stats["tracks_per_video"] == 14.22

    def test_single_video(self):
        bundle = generate_count_bundle(videos=1, queries=1, tracks=1)
        stats = compute_stats(bundle)
        assert stats["queries_per_video"] == 1.0
        assert stats["tracks_per_video"] == 1.0

    def test_zero_videos(self):
        with pytest.raises(ValueError):
            compute_stats(GroundTruthBundle())


class TestGenerateCountBundle:
    def test_counts(self):
        bundle = generate_count_bundle(videos=3, queries=10, tracks=7)
        assert len(bundle.videos) == 3
        assert sum(len(v.queries) for v in bundle.videos.values()) == 10
        ref_pairs = {
            (vid, r.gt_track_id)
            for vid, v in bundle.videos.items()
            for q in v.queries for r in q.referents}
        assert len(ref_pairs) == 7

    def test_invalid_ordering(self):
        with pytest.raises(ValueError):
            generate_count_bundle(videos=3, queries=2, tracks=4)


class TestLoadGroundTruth:
    @pytest.mark.parametrize("kept", [0, 1])
    def test_video_id_must_name_the_directory(self, tmp_path, kept):
        """A queries.json names its video directory even when it lists no
        query."""
        bundle, _ = generate(ScenarioSpec(seed=3, queries=6))
        write_split(tmp_path, "ovis", bundle)
        path = tmp_path / "gt" / "ovis" / "video0001" / "queries.json"
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({"video_id": "wrong",
                                    "queries": doc["queries"][:kept]}))
        with pytest.raises(IngestError, match=(
                r"queries.json:\$\.video_id: video_id 'wrong' does not "
                r"match directory 'video0001'$")):
            load_split(tmp_path / "gt", None, "ovis")


class TestIngestError:
    @pytest.mark.parametrize("location, text", [
        ("line 3", "gt.txt:line 3: bad row"), ("", "gt.txt: bad row")])
    def test_pickle_round_trip(self, location, text):
        """The error survives pickling, as a worker process sends it."""
        error = pickle.loads(pickle.dumps(
            IngestError(Path("gt.txt"), location, "bad row")))
        assert type(error) is IngestError
        assert str(error) == text
        assert (error.path, error.location) == ("gt.txt", location)


class TestLoadRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(spec=st.builds(
        ScenarioSpec,
        seed=st.integers(0, 2**32),
        frames=st.integers(1, 50),
        gt_tracks=st.integers(1, 4),
        queries=st.integers(1, 6),
        box_jitter=st.floats(0, 5),
        id_switch_prob=st.floats(0, 1),
        drop_prob=st.floats(0, 1),
        segment_noise=st.integers(0, 5),
        distractor_tracks=st.integers(0, 4)))
    def test_write_then_load_then_write_is_fixpoint(self, spec):
        """Any generated split, predictions included, loads back equal and
        without diagnostics, and writing it again gives the same bytes."""
        bundle, preds = generate(spec)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "a"), Path(tmp, "b")
            write_split(first, "ovis", bundle, preds)
            loaded, diagnostics = load_split(first / "gt", first / "pred",
                                             "ovis")
            assert diagnostics == [] and validate_split(loaded) == []
            assert loaded.bundle.videos == bundle.videos
            assert loaded.predictions == preds
            # serialize the reloaded split: bytes must match the first write
            write_split(second, "ovis", loaded.bundle, loaded.predictions)
            files = sorted(p.relative_to(first)
                           for p in first.rglob("*") if p.is_file())
            assert files == sorted(p.relative_to(second)
                                   for p in second.rglob("*") if p.is_file())
            for rel in files:
                assert (first / rel).read_bytes() == (second / rel).read_bytes()
