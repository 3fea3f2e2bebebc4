"""Domain types shared by ingest, spatial, temporal and aggregation code.

All types are immutable value objects: equal field values compare equal and
instances are safe to share between threads. Constructors enforce the
validity invariants, raising :class:`ValidationError` naming the offending
field.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field


class ValidationError(ValueError):
    """A domain object was constructed from invalid values."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name
        self.message = message

    def __reduce__(self):
        # pickle would call the class with the one formatted argument; a
        # worker's error must reach the caller of the pool intact.
        return type(self), (self.field, self.message)


def _require(cond: bool, field_name: str, message: str) -> None:
    if not cond:
        raise ValidationError(field_name, message)


def _finite_number(value, field_name: str) -> None:
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool)
        and math.isfinite(value),
        field_name, "must be a finite number",
    )


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned pixel box. Negative x/y are allowed (boxes may extend
    past frame edges, MOT convention); width and height must be positive."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        for name in ("x", "y", "w", "h"):
            _finite_number(getattr(self, name), name)
        _require(self.w > 0, "w", "must be positive")
        _require(self.h > 0, "h", "must be positive")


@dataclass(frozen=True)
class Detection:
    """One box of one track identity in one frame (frames are 1-based)."""

    frame: int
    track_id: int
    box: BoundingBox
    score: float | None = None

    def __post_init__(self):
        _require(isinstance(self.frame, int) and self.frame >= 1,
                 "frame", "must be an integer >= 1")
        _require(isinstance(self.track_id, int) and self.track_id >= 0,
                 "track_id", "must be a non-negative integer")
        if self.score is not None:
            _finite_number(self.score, "score")
            _require(0.0 <= self.score <= 1.0, "score", "must be in [0, 1]")


@dataclass(frozen=True)
class Track:
    """Frame-ordered detections sharing one identity, at most one per frame."""

    track_id: int
    detections: tuple[Detection, ...]

    def __post_init__(self):
        object.__setattr__(self, "detections", tuple(self.detections))
        prev = 0
        for det in self.detections:
            _require(det.track_id == self.track_id, "detections",
                     f"detection track_id {det.track_id} != {self.track_id}")
            _require(det.frame > prev, "detections",
                     f"detections not strictly ascending by frame "
                     f"(frame {det.frame})")
            prev = det.frame

    @property
    def frames(self) -> tuple[int, ...]:
        return tuple(d.frame for d in self.detections)


@dataclass(frozen=True)
class TemporalSegment:
    """Inclusive 1-based frame interval; [k, k] has length 1."""

    start: int
    end: int

    def __post_init__(self):
        _require(isinstance(self.start, int) and self.start >= 1,
                 "start", "must be an integer >= 1")
        _require(isinstance(self.end, int) and self.end >= 1,
                 "end", "must be an integer >= 1")
        _require(self.start <= self.end, "start", "segment start exceeds end")

    def covers(self, frame: int) -> bool:
        return self.start <= frame <= self.end


@dataclass(frozen=True)
class ScoredSegment:
    """Predicted temporal interval with a confidence (higher = better)."""

    segment: TemporalSegment
    score: float

    def __post_init__(self):
        _finite_number(self.score, "score")


@dataclass(frozen=True)
class Referent:
    """One ground-truth object satisfying a query, with the segments in
    which its action occurs. Segments are stored sorted and must be
    pairwise non-overlapping."""

    gt_track_id: int
    gt_segments: tuple[TemporalSegment, ...]

    def __post_init__(self):
        segs = tuple(sorted(self.gt_segments, key=lambda s: (s.start, s.end)))
        _require(len(segs) > 0, "gt_segments", "must be non-empty")
        for a, b in zip(segs, segs[1:]):
            _require(a.end < b.start, "gt_segments",
                     f"segments [{a.start},{a.end}] and [{b.start},{b.end}] "
                     "overlap")
        object.__setattr__(self, "gt_segments", segs)


@dataclass(frozen=True)
class Query:
    """Natural-language action description binding a video to its referents."""

    query_id: str
    video_id: str
    text: str
    referents: tuple[Referent, ...]

    def __post_init__(self):
        object.__setattr__(self, "referents", tuple(self.referents))
        _require(len(self.referents) > 0, "referents", "must be non-empty")
        ids = [r.gt_track_id for r in self.referents]
        _require(len(ids) == len(set(ids)), "referents",
                 "duplicate referent track_id")


@dataclass(frozen=True, eq=True)
class PredictionSet:
    """A system's output for one (video, query): predicted tracks plus
    scored temporal segments keyed by predicted track_id."""

    query_id: str
    video_id: str
    tracks: tuple[Track, ...]
    temporal: dict[int, tuple[ScoredSegment, ...]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "tracks", tuple(self.tracks))
        object.__setattr__(
            self, "temporal",
            {tid: tuple(segs) for tid, segs in self.temporal.items()})
        known = {t.track_id for t in self.tracks}
        for tid in self.temporal:
            _require(tid in known, "temporal",
                     f"temporal entry references unknown track_id {tid}")

    __hash__ = None  # dict field; identity-free value type, not hashable


_RATIO_FIELDS = ("hota", "det_a", "ass_a", "det_re", "det_pr",
                 "ass_re", "ass_pr", "loc_a")
_COUNT_FIELDS = ("tp", "fn", "fp")


@dataclass(frozen=True)
class HotaComponents:
    """Spatial tracking quality decomposition.

    At a single localization threshold, hota must equal
    sqrt(det_a * ass_a); the threshold-averaged aggregate relaxes this
    (set alpha_averaged=True). tp/fn/fp are detection counts; in averaged
    aggregates they are means over thresholds and may be fractional.
    """

    hota: float
    det_a: float
    ass_a: float
    det_re: float
    det_pr: float
    ass_re: float
    ass_pr: float
    loc_a: float
    tp: float
    fn: float
    fp: float
    alpha_averaged: bool = False

    def __post_init__(self):
        for name in _RATIO_FIELDS:
            v = getattr(self, name)
            _finite_number(v, name)
            _require(0.0 <= v <= 1.0, name, "must be in [0, 1]")
        for name in _COUNT_FIELDS:
            v = getattr(self, name)
            _finite_number(v, name)
            _require(v >= 0, name, "must be non-negative")
        if not self.alpha_averaged:
            expected = math.sqrt(self.det_a * self.ass_a)
            _require(abs(self.hota - expected) <= 1e-9, "hota",
                     f"must equal sqrt(det_a * ass_a) = {expected!r}")


@dataclass(frozen=True)
class TemporalMetrics:
    """Temporal grounding metrics: recall@k and mAP per IoU threshold,
    plus mean top-1 IoU."""

    r1: dict[float, float]
    r5: dict[float, float]
    r10: dict[float, float]
    map_at: dict[float, float]
    miou: float

    def __post_init__(self):
        for name in ("r1", "r5", "r10", "map_at"):
            table = dict(getattr(self, name))
            object.__setattr__(self, name, table)
            for tau, v in table.items():
                _finite_number(v, name)
                _require(0.0 <= v <= 1.0, name,
                         f"value at tau={tau} must be in [0, 1]")
        _require(set(self.r1) == set(self.r5) == set(self.r10),
                 "r5", "recall tables must share the same thresholds")
        for tau in self.r1:
            _require(self.r1[tau] <= self.r5[tau] <= self.r10[tau], "r5",
                     f"recall must be non-decreasing in k at tau={tau}")
        _finite_number(self.miou, "miou")
        _require(0.0 <= self.miou <= 1.0, "miou", "must be in [0, 1]")

    __hash__ = None
