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

Rules are owned in two places. The constructors in :mod:`svageval.model`
decide whether a value is valid (a positive width, a frame >= 1, a
non-empty referent list) and name the field; this module decides where
the value was read and raises :class:`IngestError` with the file path
plus a ``line N`` or a ``$.``-rooted JSON path. What only the file format
knows stays here: field counts, plain-ASCII numbers, JSON types, the
``[start, end]`` pair, duplicate lines, entries and keys, and directory names.
Unknown extra JSON fields are ignored (forward compatibility).
"""
from __future__ import annotations

import json
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

GT_TRACKS_FILENAME = "gt.txt"
QUERIES_FILENAME = "queries.json"
PRED_TRACKS_FILENAME = "pred.txt"
PRED_TEMPORAL_FILENAME = "pred_temporal.json"


class IngestError(Exception):
    """A file could not be parsed; message carries path and location."""

    def __init__(self, path, location: str, message: str):
        self.path = str(path)
        self.location = location
        self.message = message
        where = f"{self.path}:{location}" if location else self.path
        super().__init__(f"{where}: {message}")

    def __reduce__(self):
        # As ValidationError: rebuilt from its fields, not its text.
        return type(self), (self.path, self.location, self.message)


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
        where = f"line {lineno}"
        if line == "":
            raise IngestError(path, where, "blank line")
        if "_" in line or not line.isascii():
            raise IngestError(path, where, "underscore or non-ASCII character")
        parts = line.split(",")
        if len(parts) != expected:
            raise IngestError(
                path, where,
                f"expected {expected} comma-separated fields, got {len(parts)}")
        try:
            det = Detection(
                frame=int(parts[0]), track_id=int(parts[1]),
                box=BoundingBox(*map(float, parts[2:6])),
                score=float(parts[6]) if with_score else None)
        except ValueError as exc:  # a ValidationError also names the field
            raise IngestError(path, where, str(exc)) from exc
        frames = per_track.setdefault(det.track_id, {})
        if det.frame in frames:
            raise IngestError(
                path, where, f"duplicate detection for (frame {det.frame}, "
                             f"track {det.track_id})")
        frames[det.frame] = det
    return [
        Track(track_id=tid,
              detections=tuple(dets[f] for f in sorted(dets)))
        for tid, dets in sorted(per_track.items())
    ]


def _unique_keys(pairs) -> dict:
    """A JSON object's members; a key given twice raises ValueError."""
    data = dict(pairs)
    if len(data) < len(pairs):
        seen = set()
        dup = next(key for key, _ in pairs if key in seen or seen.add(key))
        raise ValueError(f"duplicate key {dup!r}")
    return data


def _json_load(path) -> dict:
    path = Path(path)
    try:
        data = json.loads(_read_text(path), object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise IngestError(path, f"line {exc.lineno}",
                          f"invalid JSON: {exc.msg}") from exc
    except ValueError as exc:  # a repeated key, or an overlong integer
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


def _objects(data: dict, key: str, path, where: str):
    """``(json_path, item)`` for each item of the list field ``key``; an
    item that is not an object is an error at its path."""
    for i, item in enumerate(_get(data, key, list, path, where)):
        item_where = f"{where}.{key}[{i}]"
        if not isinstance(item, dict):
            raise IngestError(path, item_where, "expected object")
        yield item_where, item


def _build(path, where: str, kind, *args):
    """``kind(*args)``, with its ValidationError raised again at ``where``."""
    try:
        return kind(*args)
    except ValidationError as exc:
        raise IngestError(path, where, str(exc)) from exc


def parse_query_json(path) -> list[Query]:
    """Parse one video's query annotations."""
    return _parse_query_file(path)[1]


def _parse_query_file(path) -> tuple[str, list[Query]]:
    """One video's query annotations and the ``video_id`` they name, which
    the file holds even when it lists no query."""
    path = Path(path)
    data = _json_load(path)
    video_id = _get(data, "video_id", str, path, "$")
    queries = []
    for where, raw_q in _objects(data, "queries", path, "$"):
        query_id = _get(raw_q, "query_id", str, path, where)
        text = _get(raw_q, "text", str, path, where)
        referents = []
        for rwhere, raw_r in _objects(raw_q, "referents", path, where):
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
                segments.append(_build(path, swhere, TemporalSegment, *raw_s))
            referents.append(_build(path, rwhere, Referent, track_id,
                                    tuple(segments)))
        queries.append(_build(path, where, Query, query_id, video_id, text,
                              tuple(referents)))
    return video_id, queries


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
    temporal: dict[int, tuple[ScoredSegment, ...]] = {}
    warnings: list[Diagnostic] = []
    for where, raw_t in _objects(data, "tracks", path, "$"):
        track_id = _get(raw_t, "track_id", int, path, where)
        segments = []
        for swhere, raw_s in _objects(raw_t, "segments", path, where):
            start = _get(raw_s, "start", int, path, swhere)
            end = _get(raw_s, "end", int, path, swhere)
            score = _get(raw_s, "score", float, path, swhere)
            segment = _build(path, swhere, TemporalSegment, start, end)
            segments.append(_build(path, swhere, ScoredSegment, segment,
                                   score))
        if track_id in temporal:
            raise IngestError(path, where,
                              f"duplicate temporal entry for track {track_id}")
        if track_id not in known:
            warnings.append(Diagnostic(
                severity="warning", location=str(path),
                message=f"temporal entry for unknown predicted track "
                        f"{track_id} dropped"))
            continue
        temporal[track_id] = tuple(segments)
    return (PredictionSet(query_id=query_id, video_id=video_id,
                          tracks=tuple(tracks), temporal=temporal),
            warnings)


def _match_directory(path, key: str, value: str, directory: Path) -> None:
    """A JSON id must name the directory its file sits under."""
    if value != directory.name:
        raise IngestError(path, f"$.{key}",
                          f"{key} {value!r} does not match directory "
                          f"{directory.name!r}")


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
        queries_path = video_dir / QUERIES_FILENAME
        named, queries = _parse_query_file(queries_path)
        _match_directory(queries_path, "video_id", named, video_dir)
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
            _match_directory(temporal_path, "video_id", predset.video_id,
                             video_dir)
            _match_directory(temporal_path, "query_id", predset.query_id,
                             query_dir)
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
            key = (video_id, query.query_id)
            location = f"{split.name}/{video_id}/{query.query_id}"
            if key in known_queries:
                diagnostics.append(Diagnostic(
                    severity="error", location=location,
                    message="duplicate query id"))
            known_queries.add(key)
            for referent in query.referents:
                track = video.tracks.get(referent.gt_track_id)
                if track is None:
                    diagnostics.append(Diagnostic(
                        severity="error", location=location,
                        message=f"unresolved referent: track "
                                f"{referent.gt_track_id} not in GT tracks"))
                    continue
                if track.detections:
                    last = track.detections[-1].frame
                    for seg in referent.gt_segments:
                        if seg.end > last:
                            diagnostics.append(Diagnostic(
                                severity="warning", location=location,
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
