"""Seeded inputs for the benchmark workloads.

The generator writes the svageval ingest formats itself and never calls
``svageval.synth``, so a change to the package cannot change the inputs.
The same ``(workload, seed)`` always gives byte-identical files. The
make-up of each workload (datasets, videos, queries, frames, tracks) is
fixed, and so are the lengths of the action segments and which predicted
tracks switch id, so that the work per run hardly depends on the seed. The
seed moves boxes, segment positions, switch frames, drops and scores.

Coordinates are written with two decimals and scores with four, and the
in-memory values are the floats those strings parse to, so the reference
in ``checks.py`` sees exactly what the program reads.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

FRAME_W, FRAME_H = 1920.0, 1080.0
PROPOSALS = 10                   # scored segments per predicted track


@dataclass(frozen=True)
class Shape:
    """The make-up of one workload's inputs."""

    datasets: tuple[str, ...]
    videos: int                  # per dataset
    frames: int
    queries: tuple[int, ...]     # queries per video, cycled over videos
    referents: tuple[int, ...]   # referents per query, cycled over queries
    ref_tracks: int              # GT tracks referents are drawn from
    crowd: bool = False          # referents in a tight formation
    companions: bool = False     # a non-referent GT track beside each one
    distractors: int = 0         # predicted tracks far from every referent
    whole_clip: bool = False     # every referent acts over the whole clip
    switch_every: int = 3        # every n-th referent's prediction changes
                                 # id once
    drop: float = 0.1            # chance a predicted box is missing


WORKLOADS: dict[str, Shape] = {
    # Paper density: 28.47 queries and 14.22 referent tracks per video.
    "split": Shape(datasets=("ovis", "mot17"), videos=1, frames=6,
                   queries=(28, 29), referents=(1, 2, 3, 2),
                   ref_tracks=14, companions=True),
    "crowd": Shape(datasets=("mot20",), videos=2, frames=8, queries=(1,),
                   referents=(6,), ref_tracks=6, crowd=True,
                   whole_clip=True, switch_every=2, drop=0.05),
    "distractors": Shape(datasets=("mot17",), videos=2, frames=6,
                         queries=(1,), referents=(3,), ref_tracks=3,
                         distractors=10, whole_clip=True),
}


@dataclass
class Query:
    query_id: str
    referents: list[tuple[int, list[tuple[int, int]]]]  # (track, segments)


@dataclass
class Video:
    video_id: str
    tracks: dict[int, list[tuple]]      # track id -> [(frame, x, y, w, h)]
    queries: list[Query]


@dataclass
class Prediction:
    tracks: dict[int, list[tuple]]      # id -> [(frame, x, y, w, h, score)]
    temporal: dict[int, list[tuple]]    # id -> [(start, end, score)]


@dataclass
class Dataset:
    name: str
    videos: list[Video]
    predictions: dict[tuple[str, str], Prediction] = field(
        default_factory=dict)


def _q2(value: float) -> float:
    return float(f"{value:.2f}")


def _q4(value: float) -> float:
    return float(f"{value:.4f}")


def _walk(rng, frames, cx, cy, w, h, step, box):
    """A box whose centre wanders inside ``box = (x0, y0, x1, y1)``."""
    x0, y0, x1, y1 = box
    out = []
    for frame in range(1, frames + 1):
        out.append((frame, _q2(cx - w / 2), _q2(cy - h / 2), _q2(w), _q2(h)))
        cx = min(x1, max(x0, cx + rng.uniform(-step, step)))
        cy = min(y1, max(y0, cy + rng.uniform(-step, step)))
    return out


def _gt_tracks(rng, shape: Shape) -> dict[int, list[tuple]]:
    tracks = {}
    if shape.crowd:
        # A tight formation that drifts as one: slots 22 px apart across and
        # 45 px down, so every pair overlaps and the feasible graphs keep
        # the same density whatever the seed.
        cx, cy = rng.uniform(600, 1300), rng.uniform(300, 700)
        vx, vy = rng.uniform(-3, 3), rng.uniform(-2, 2)
        for tid in range(1, shape.ref_tracks + 1):
            col, row = (tid - 1) % 3, (tid - 1) // 3
            w, h = 80 * rng.uniform(0.97, 1.03), 180 * rng.uniform(0.97, 1.03)
            tracks[tid] = [
                (f, _q2(cx + vx * f + 22 * col + rng.uniform(-2, 2) - w / 2),
                 _q2(cy + vy * f + 45 * row + rng.uniform(-2, 2) - h / 2),
                 _q2(w), _q2(h)) for f in range(1, shape.frames + 1)]
        return tracks
    # Referents keep to slots 200 px apart in the left half, where they
    # never overlap one another; distractors use the right half.
    for tid in range(1, shape.ref_tracks + 1):
        col, row = (tid - 1) % 4, (tid - 1) // 4
        cx, cy = 150 + 200 * col, 150 + 220 * row
        w, h = rng.uniform(50, 110), rng.uniform(90, 200)
        tracks[tid] = _walk(rng, shape.frames, cx, cy, w, h, 4,
                            (cx - 10, cy - 10, cx + 10, cy + 10))
    if shape.companions:
        # Beside each referent track: overlaps it at low thresholds only.
        for tid in range(1, shape.ref_tracks + 1):
            shift = 0.5 * tracks[tid][0][3]
            tracks[100 + tid] = [
                (f, _q2(x + shift), _q2(y + rng.uniform(-4, 4)), w, h)
                for f, x, y, w, h in tracks[tid]]
    return tracks


def _segments(rng, frames: int, two: bool) -> list[tuple[int, int]]:
    """One segment over two thirds of the clip, or two of a third each."""
    if two:
        length = frames // 3
        start = rng.randint(1, frames - 2 * length)
        return [(start, start + length - 1),
                (start + length + 1, start + 2 * length)]
    length = frames * 2 // 3
    start = rng.randint(1, frames - length + 1)
    return [(start, start + length - 1)]


def _jitter(rng, det, score):
    frame, x, y, w, h = det
    sw, sh = 1 + rng.gauss(0, 0.05), 1 + rng.gauss(0, 0.05)
    return (frame, _q2(x + rng.gauss(0, 0.04 * w)),
            _q2(y + rng.gauss(0, 0.04 * h)), _q2(max(5.0, w * sw)),
            _q2(max(5.0, h * sh)), score)


def _proposals(rng, shape: Shape, segments) -> list[tuple]:
    """Scored segments: jittered copies of the GT segments, the rest
    random over the clip."""
    out = []
    for start, end in segments:
        for _ in range(2):
            s = min(shape.frames, max(1, start + rng.randint(-2, 2)))
            e = min(shape.frames, max(s, end + rng.randint(-2, 2)))
            out.append((s, e, _q4(rng.uniform(0.3, 1.0))))
    while len(out) < PROPOSALS:
        s = rng.randint(1, shape.frames)
        e = rng.randint(s, min(shape.frames, s + shape.frames // 2))
        out.append((s, e, _q4(rng.uniform(0.0, 0.9))))
    return out


def _predict(rng, shape: Shape, video: Video, query: Query,
             switched: list[bool]) -> Prediction:
    """``switched`` says, per referent, whether its prediction changes id."""
    tracks: dict[int, list[tuple]] = {}
    temporal: dict[int, list[tuple]] = {}
    next_id = 1

    def add(boxes, segments):
        nonlocal next_id
        if boxes:
            tracks[next_id] = boxes
            temporal[next_id] = _proposals(rng, shape, segments)
            next_id += 1

    for (tid, segments), switch in zip(query.referents, switched):
        boxes = [_jitter(rng, det, _q4(rng.uniform(0.5, 1.0)))
                 for det in video.tracks[tid] if rng.random() >= shape.drop]
        if len(boxes) > 2 and switch:
            cut = rng.randint(1, len(boxes) - 1)
            add(boxes[:cut], segments)
            add(boxes[cut:], segments)
        else:
            add(boxes, segments)
    if shape.companions:
        first = query.referents[0][0]
        add([_jitter(rng, det, _q4(rng.uniform(0.2, 0.8)))
             for det in video.tracks[100 + first]], [])
    right = (FRAME_W / 2 + 150, 100.0, FRAME_W - 100, FRAME_H - 100)
    for _ in range(shape.distractors):
        w, h = rng.uniform(50, 110), rng.uniform(90, 200)
        walk = _walk(rng, shape.frames, rng.uniform(right[0], right[2]),
                     rng.uniform(right[1], right[3]), w, h, 8, right)
        add([det + (_q4(rng.uniform(0.1, 0.9)),) for det in walk], [])
    return Prediction(tracks=tracks, temporal=temporal)


def generate(workload: str, seed: int) -> list[Dataset]:
    """The inputs of ``workload`` for ``seed``; same seed, same values."""
    return build(WORKLOADS[workload], random.Random(f"{workload}:{seed}"))


def build(shape: Shape, rng: random.Random) -> list[Dataset]:
    datasets = []
    vcount = qcount = rcount = 0
    for name in shape.datasets:
        dataset = Dataset(name=name, videos=[])
        for vi in range(shape.videos):
            video = Video(video_id=f"v{vi + 1:04d}",
                          tracks=_gt_tracks(rng, shape), queries=[])
            ref_ids = list(range(1, shape.ref_tracks + 1))
            rng.shuffle(ref_ids)
            for qi in range(shape.queries[vcount % len(shape.queries)]):
                n_ref = shape.referents[qcount % len(shape.referents)]
                qcount += 1
                # Walk the shuffled ids so that every referent track is used.
                chosen = sorted({ref_ids[(qi * 3 + k) % len(ref_ids)]
                                 for k in range(n_ref)})
                referents = [(tid, [(1, shape.frames)] if shape.whole_clip
                               else _segments(rng, shape.frames,
                                              (qcount + k) % 3 == 0))
                             for k, tid in enumerate(chosen)]
                video.queries.append(Query(f"q{qi + 1:03d}", referents))
            vcount += 1
            for query in video.queries:
                switched = [(rcount + k) % shape.switch_every == 0
                            for k in range(len(query.referents))]
                rcount += len(switched)
                dataset.predictions[(video.video_id, query.query_id)] = \
                    _predict(rng, shape, video, query, switched)
            dataset.videos.append(video)
        datasets.append(dataset)
    return datasets


def write(datasets: list[Dataset], gt_root: Path, pred_root: Path) -> None:
    """Write the ingest layout under the two roots."""
    for ds in datasets:
        for video in ds.videos:
            vdir = gt_root / ds.name / video.video_id
            vdir.mkdir(parents=True, exist_ok=True)
            rows = sorted((det[0], tid) + det[1:]
                          for tid, dets in video.tracks.items()
                          for det in dets)
            (vdir / "gt.txt").write_text("".join(
                f"{f},{tid},{x:.2f},{y:.2f},{w:.2f},{h:.2f}\n"
                for f, tid, x, y, w, h in rows), encoding="utf-8")
            (vdir / "queries.json").write_text(json.dumps({
                "video_id": video.video_id,
                "queries": [{
                    "query_id": q.query_id,
                    "text": f"query {q.query_id} of {video.video_id}",
                    "referents": [{"track_id": tid,
                                   "segments": [list(s) for s in segs]}
                                  for tid, segs in q.referents],
                } for q in video.queries],
            }, indent=1), encoding="utf-8")
            for query in video.queries:
                pred = ds.predictions[(video.video_id, query.query_id)]
                qdir = pred_root / ds.name / video.video_id / query.query_id
                qdir.mkdir(parents=True, exist_ok=True)
                rows = sorted((det[0], pid) + det[1:]
                              for pid, dets in pred.tracks.items()
                              for det in dets)
                (qdir / "pred.txt").write_text("".join(
                    f"{f},{pid},{x:.2f},{y:.2f},{w:.2f},{h:.2f},{s:.4f}\n"
                    for f, pid, x, y, w, h, s in rows), encoding="utf-8")
                (qdir / "pred_temporal.json").write_text(json.dumps({
                    "query_id": query.query_id,
                    "video_id": video.video_id,
                    "tracks": [{"track_id": pid,
                                "segments": [{"start": s, "end": e,
                                              "score": sc}
                                             for s, e, sc in segs]}
                               for pid, segs in pred.temporal.items()],
                }, indent=1), encoding="utf-8")


def in_segments(frame: int, segments) -> bool:
    return any(s <= frame <= e for s, e in segments)


def counts(datasets: list[Dataset]) -> dict:
    """What the generator wrote, counted from its own values."""
    out = {"queries": 0, "csv_lines": 0, "frame_problems": 0,
           "gt_boxes": {}, "pred_boxes": {}}
    for ds in datasets:
        gt_boxes = pred_boxes = 0
        for video in ds.videos:
            out["csv_lines"] += sum(len(d) for d in video.tracks.values())
            for query in video.queries:
                out["queries"] += 1
                pred = ds.predictions[(video.video_id, query.query_id)]
                frames = set()
                for tid, segs in query.referents:
                    inside = [d[0] for d in video.tracks[tid]
                              if in_segments(d[0], segs)]
                    gt_boxes += len(inside)
                    frames.update(inside)
                for dets in pred.tracks.values():
                    pred_boxes += len(dets)
                    frames.update(d[0] for d in dets)
                out["csv_lines"] += sum(len(d) for d in pred.tracks.values())
                out["frame_problems"] += len(frames)
        out["gt_boxes"][ds.name] = gt_boxes
        out["pred_boxes"][ds.name] = pred_boxes
    return out
