"""Parsing and validation of ground-truth and prediction files.

File formats:
  - Box tracks: CSV lines ``frame,track_id,x,y,w,h[,score]`` (LF or CRLF)
    of plain ASCII numbers, without digit-group underscores.
  - Queries: one JSON document per video,
    ``{"video_id": ..., "queries": [{"query_id", "text", "referents":
    [{"track_id", "segments": [[start, end], ...]}]}]}``.
  - Predicted temporal segments: ``{"query_id", "video_id", "tracks":
    [{"track_id", "segments": [{"start", "end", "score"}]}]}``.

Directory layout:
  - GT: ``<root>/<dataset>/<video_id>/gt.txt`` and ``queries.json``.
  - Predictions: ``<pred_root>/<dataset>/<video_id>/<query_id>/pred.txt``
    and ``pred_temporal.json``.

Every parse error carries the file path plus a line number or JSON path.
Unknown extra JSON fields are ignored (forward compatibility).
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path

from ._util import format_fixed
from .model import (
    BoundingBox,
    Detection,
    PredictionSet,
    Query,
    Referent,
    ScoredSegment,
    TemporalSegment,
    Track,
    ValidationError,
)

log = logging.getLogger(__name__)

GT_TRACKS_FILENAME = "gt.txt"
QUERIES_FILENAME = "queries.json"
PRED_TRACKS_FILENAME = "pred.txt"
PRED_TEMPORAL_FILENAME = "pred_temporal.json"


class IngestError(Exception):
    """A file could not be parsed; message carries path and location."""

    def __init__(self, path, location: str, message: str):
        self.path = str(path)
        self.location = location
        where = f"{self.path}:{location}" if location else self.path
        super().__init__(f"{where}: {message}")


@dataclass(frozen=True)
class Diagnostic:
    """A cross-file inconsistency found during validation."""

    severity: str  # "error" or "warning"
    location: str
    message: str

    def __str__(self):
        return f"[{self.severity}] {self.location}: {self.message}"


@dataclass
class VideoGroundTruth:
    video_id: str
    tracks: dict[int, Track]
    queries: list[Query]


@dataclass
class GroundTruthBundle:
    """Per-video GT tracks (all annotated objects, referent or not) plus
    the queries over them."""

    videos: dict[str, VideoGroundTruth] = field(default_factory=dict)


@dataclass
class DatasetSplit:
    name: str
    bundle: GroundTruthBundle
    predictions: list[PredictionSet] = field(default_factory=list)


def _read_text(path: Path) -> str:
    """The file decoded as UTF-8, with CRLF and CR line ends read as LF."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise IngestError(path, "", f"cannot read file: {exc}") from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IngestError(path, f"byte {exc.start}",
                          f"invalid UTF-8: {exc.reason}") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")


def parse_track_csv(path, with_score: bool = False) -> list[Track]:
    """Parse ``frame,track_id,x,y,w,h[,score]`` lines into Tracks grouped by
    track_id. Duplicate (frame, track_id) lines are a hard error."""
    path = Path(path)
    text = _read_text(path)
    expected = 7 if with_score else 6
    per_track: dict[int, dict[int, Detection]] = {}
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()  # optional trailing newline
    for lineno, line in enumerate(lines, start=1):
        if line == "":
            raise IngestError(path, f"line {lineno}", "blank line")
        if "_" in line or not line.isascii():
            raise IngestError(path, f"line {lineno}",
                              "underscore or non-ASCII character")
        parts = line.split(",")
        if len(parts) != expected:
            raise IngestError(
                path, f"line {lineno}",
                f"expected {expected} comma-separated fields, got {len(parts)}")
        try:
            frame = int(parts[0])
            track_id = int(parts[1])
        except ValueError as exc:
            raise IngestError(path, f"line {lineno}",
                              f"non-integer frame or track_id: {exc}") from exc
        try:
            x, y, w, h = (float(parts[i]) for i in range(2, 6))
        except ValueError as exc:
            raise IngestError(path, f"line {lineno}",
                              f"non-numeric box field: {exc}") from exc
        score = None
        if with_score:
            try:
                score = float(parts[6])
            except ValueError as exc:
                raise IngestError(path, f"line {lineno}",
                                  f"non-numeric score: {exc}") from exc
        if w <= 0:
            raise IngestError(path, f"line {lineno}",
                              f"non-positive width at line {lineno}")
        if h <= 0:
            raise IngestError(path, f"line {lineno}",
                              f"non-positive height at line {lineno}")
        try:
            det = Detection(frame=frame, track_id=track_id,
                            box=BoundingBox(x=x, y=y, w=w, h=h), score=score)
        except ValidationError as exc:
            raise IngestError(path, f"line {lineno}", str(exc)) from exc
        frames = per_track.setdefault(track_id, {})
        if frame in frames:
            raise IngestError(
                path, f"line {lineno}",
                f"duplicate detection for (frame {frame}, track {track_id})")
        frames[frame] = det
    return [
        Track(track_id=tid,
              detections=tuple(dets[f] for f in sorted(dets)))
        for tid, dets in sorted(per_track.items())
    ]


def _json_load(path) -> dict:
    path = Path(path)
    try:
        data = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise IngestError(path, f"line {exc.lineno}",
                          f"invalid JSON: {exc.msg}") from exc
    except ValueError as exc:  # an integer past Python's digit limit
        raise IngestError(path, "", f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise IngestError(path, "", "invalid JSON: nested too deeply") from exc
    if not isinstance(data, dict):
        raise IngestError(path, "$", "top-level value must be an object")
    return data


def _get(data: dict, key: str, kind, path, where: str):
    if key not in data:
        raise IngestError(path, where, f"missing field '{key}'")
    value = data[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError as exc:
            raise IngestError(path, f"{where}.{key}",
                              "number too large for a float") from exc
    if not isinstance(value, kind) or isinstance(value, bool):
        raise IngestError(path, f"{where}.{key}",
                          f"expected {kind.__name__}")
    return value


def parse_query_json(path) -> list[Query]:
    """Parse one video's query annotations."""
    path = Path(path)
    data = _json_load(path)
    video_id = _get(data, "video_id", str, path, "$")
    raw_queries = _get(data, "queries", list, path, "$")
    queries = []
    for qi, raw_q in enumerate(raw_queries):
        where = f"$.queries[{qi}]"
        if not isinstance(raw_q, dict):
            raise IngestError(path, where, "expected object")
        query_id = _get(raw_q, "query_id", str, path, where)
        text = _get(raw_q, "text", str, path, where)
        raw_refs = _get(raw_q, "referents", list, path, where)
        if not raw_refs:
            raise IngestError(path, f"{where}.referents",
                              "referents must be non-empty")
        referents = []
        for ri, raw_r in enumerate(raw_refs):
            rwhere = f"{where}.referents[{ri}]"
            if not isinstance(raw_r, dict):
                raise IngestError(path, rwhere, "expected object")
            track_id = _get(raw_r, "track_id", int, path, rwhere)
            raw_segs = _get(raw_r, "segments", list, path, rwhere)
            segments = []
            for si, raw_s in enumerate(raw_segs):
                swhere = f"{rwhere}.segments[{si}]"
                if (not isinstance(raw_s, list) or len(raw_s) != 2
                        or not all(isinstance(v, int) and
                                   not isinstance(v, bool) for v in raw_s)):
                    raise IngestError(path, swhere,
                                      "expected a [start, end] integer pair")
                start, end = raw_s
                try:
                    segments.append(TemporalSegment(start=start, end=end))
                except ValidationError as exc:
                    raise IngestError(path, swhere, str(exc)) from exc
            try:
                referents.append(Referent(gt_track_id=track_id,
                                          gt_segments=tuple(segments)))
            except ValidationError as exc:
                raise IngestError(path, rwhere, str(exc)) from exc
        try:
            queries.append(Query(query_id=query_id, video_id=video_id,
                                 text=text, referents=tuple(referents)))
        except ValidationError as exc:
            raise IngestError(path, where, str(exc)) from exc
    return queries


def parse_prediction_bundle(track_csv_path, temporal_json_path
                            ) -> tuple[PredictionSet, list[Diagnostic]]:
    """Parse one (video, query) prediction: box tracks plus scored temporal
    segments. Temporal entries referencing unknown predicted track ids are
    dropped with a warning diagnostic."""
    tracks = parse_track_csv(track_csv_path, with_score=True)
    known = {t.track_id for t in tracks}
    path = Path(temporal_json_path)
    data = _json_load(path)
    query_id = _get(data, "query_id", str, path, "$")
    video_id = _get(data, "video_id", str, path, "$")
    raw_tracks = _get(data, "tracks", list, path, "$")
    temporal: dict[int, tuple[ScoredSegment, ...]] = {}
    warnings: list[Diagnostic] = []
    for ti, raw_t in enumerate(raw_tracks):
        where = f"$.tracks[{ti}]"
        if not isinstance(raw_t, dict):
            raise IngestError(path, where, "expected object")
        track_id = _get(raw_t, "track_id", int, path, where)
        raw_segs = _get(raw_t, "segments", list, path, where)
        segments = []
        for si, raw_s in enumerate(raw_segs):
            swhere = f"{where}.segments[{si}]"
            if not isinstance(raw_s, dict):
                raise IngestError(path, swhere, "expected object")
            start = _get(raw_s, "start", int, path, swhere)
            end = _get(raw_s, "end", int, path, swhere)
            score = _get(raw_s, "score", float, path, swhere)
            try:
                segments.append(ScoredSegment(
                    segment=TemporalSegment(start=start, end=end),
                    score=score))
            except ValidationError as exc:
                raise IngestError(path, swhere, str(exc)) from exc
        if track_id in temporal:
            raise IngestError(path, where,
                              f"duplicate temporal entry for track {track_id}")
        if track_id not in known:
            diag = Diagnostic(
                severity="warning", location=str(path),
                message=f"temporal entry for unknown predicted track "
                        f"{track_id} dropped")
            warnings.append(diag)
            log.warning("%s", diag)
            continue
        temporal[track_id] = tuple(segments)
    return (PredictionSet(query_id=query_id, video_id=video_id,
                          tracks=tuple(tracks), temporal=temporal),
            warnings)


def load_ground_truth(root, dataset: str) -> GroundTruthBundle:
    """Load every video directory under ``<root>/<dataset>``."""
    base = Path(root) / dataset
    if not base.is_dir():
        raise IngestError(base, "", "dataset directory not found")
    bundle = GroundTruthBundle()
    video_dirs = sorted(p for p in base.iterdir() if p.is_dir())
    if not video_dirs:
        raise IngestError(base, "", "no video directories found")
    for video_dir in video_dirs:
        video_id = video_dir.name
        tracks = parse_track_csv(video_dir / GT_TRACKS_FILENAME)
        queries = parse_query_json(video_dir / QUERIES_FILENAME)
        for query in queries:
            if query.video_id != video_id:
                raise IngestError(
                    video_dir / QUERIES_FILENAME, "$.video_id",
                    f"video_id {query.video_id!r} does not match directory "
                    f"{video_id!r}")
        bundle.videos[video_id] = VideoGroundTruth(
            video_id=video_id,
            tracks={t.track_id: t for t in tracks},
            queries=queries,
        )
    return bundle


def load_predictions(pred_root, dataset: str
                     ) -> tuple[list[PredictionSet], list[Diagnostic]]:
    """Load every ``<pred_root>/<dataset>/<video_id>/<query_id>/`` pair.
    The root itself must be a directory; a missing dataset, video or query
    directory under it is tolerated (those queries score 0)."""
    if not Path(pred_root).is_dir():
        raise IngestError(pred_root, "", "prediction root not found")
    base = Path(pred_root) / dataset
    predictions: list[PredictionSet] = []
    diagnostics: list[Diagnostic] = []
    if not base.is_dir():
        return predictions, diagnostics
    for video_dir in sorted(p for p in base.iterdir() if p.is_dir()):
        for query_dir in sorted(p for p in video_dir.iterdir() if p.is_dir()):
            track_path = query_dir / PRED_TRACKS_FILENAME
            temporal_path = query_dir / PRED_TEMPORAL_FILENAME
            if not track_path.is_file() or not temporal_path.is_file():
                diagnostics.append(Diagnostic(
                    severity="warning", location=str(query_dir),
                    message="incomplete prediction directory skipped"))
                continue
            predset, warnings = parse_prediction_bundle(track_path,
                                                        temporal_path)
            diagnostics.extend(warnings)
            if predset.video_id != video_dir.name:
                raise IngestError(
                    temporal_path, "$.video_id",
                    f"video_id {predset.video_id!r} does not match directory "
                    f"{video_dir.name!r}")
            if predset.query_id != query_dir.name:
                raise IngestError(
                    temporal_path, "$.query_id",
                    f"query_id {predset.query_id!r} does not match directory "
                    f"{query_dir.name!r}")
            predictions.append(predset)
    return predictions, diagnostics


def load_split(gt_root, pred_root, dataset: str
               ) -> tuple[DatasetSplit, list[Diagnostic]]:
    """Ground truth plus predictions of one dataset, with the loader's
    diagnostics. ``pred_root=None`` loads the ground truth alone."""
    bundle = load_ground_truth(gt_root, dataset)
    predictions, diagnostics = (load_predictions(pred_root, dataset)
                                if pred_root is not None else ([], []))
    return DatasetSplit(name=dataset, bundle=bundle,
                        predictions=predictions), diagnostics


def validate_split(split: DatasetSplit) -> list[Diagnostic]:
    """All cross-file inconsistencies; an empty list means clean."""
    diagnostics: list[Diagnostic] = []
    known_queries: set[tuple[str, str]] = set()
    for video_id, video in sorted(split.bundle.videos.items()):
        if not video.queries:
            diagnostics.append(Diagnostic(
                severity="warning", location=f"{split.name}/{video_id}",
                message="video has no queries"))
        for query in video.queries:
            known_queries.add((video_id, query.query_id))
            for referent in query.referents:
                track = video.tracks.get(referent.gt_track_id)
                if track is None:
                    diagnostics.append(Diagnostic(
                        severity="error",
                        location=f"{split.name}/{video_id}/{query.query_id}",
                        message=f"unresolved referent: track "
                                f"{referent.gt_track_id} not in GT tracks"))
                    continue
                if track.detections:
                    last = track.detections[-1].frame
                    for seg in referent.gt_segments:
                        if seg.end > last:
                            diagnostics.append(Diagnostic(
                                severity="warning",
                                location=(f"{split.name}/{video_id}/"
                                          f"{query.query_id}"),
                                message=f"segment [{seg.start},{seg.end}] of "
                                        f"referent {referent.gt_track_id} "
                                        f"extends past last annotated frame "
                                        f"{last}"))
    seen: set[tuple[str, str]] = set()
    for predset in split.predictions:
        key = (predset.video_id, predset.query_id)
        location = f"{split.name}/{predset.video_id}/{predset.query_id}"
        if key in seen:
            diagnostics.append(Diagnostic(
                severity="error", location=location,
                message="duplicate prediction set for this query"))
        seen.add(key)
        if key not in known_queries:
            diagnostics.append(Diagnostic(
                severity="error", location=location,
                message="orphan prediction: no such GT query"))
    return diagnostics


def compute_stats(bundle: GroundTruthBundle) -> dict:
    """Benchmark density statistics: query and referent-track counts per
    video, rounded half-away-from-zero to 2 decimals."""
    n_videos = len(bundle.videos)
    if n_videos == 0:
        raise ValueError("no videos in bundle")
    n_queries = 0
    referent_pairs: set[tuple[str, int]] = set()
    for video_id, video in bundle.videos.items():
        n_queries += len(video.queries)
        for query in video.queries:
            for referent in query.referents:
                referent_pairs.add((video_id, referent.gt_track_id))
    n_tracks = len(referent_pairs)
    return {
        "videos": n_videos,
        "queries": n_queries,
        "tracks": n_tracks,
        "queries_per_video": float(format_fixed(n_queries / n_videos, 2)),
        "tracks_per_video": float(format_fixed(n_tracks / n_videos, 2)),
    }
