"""Synthetic scenario generation and exhaustive brute-force metric oracles.

The generator builds small ground-truth/prediction splits with
controllable corruption; with all corruption parameters at zero the
predictions reproduce the ground truth exactly (tracks clipped to the
referent action segments, scores 1.0), so the full pipeline must score
1.0 everywhere.

The oracles re-derive the metrics by exhaustive enumeration and naive
rescanning. They share only the domain types with the engine, never
matching or metric code; arithmetic is exact rationals so agreement with
the engine is exact, not approximate.

Randomness comes from ``random.Random`` (the Mersenne Twister MT19937,
whose algorithm and seeding are documented in the Python library
reference), so a seed reproduces the same scenario everywhere.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .ingest import GroundTruthBundle, VideoGroundTruth
from .model import (
    BoundingBox,
    Detection,
    HotaComponents,
    PredictionSet,
    Query,
    Referent,
    ScoredSegment,
    TemporalMetrics,
    TemporalSegment,
    Track,
    ValidationError,
)

_SYNTH_VIDEO_ID = "video0001"


@dataclass(frozen=True)
class ScenarioSpec:
    """Knobs for one synthetic (video, queries, predictions) scenario."""

    seed: int = 0
    frames: int = 12
    gt_tracks: int = 3
    queries: int = 2
    box_jitter: float = 0.0
    id_switch_prob: float = 0.0
    drop_prob: float = 0.0
    segment_noise: int = 0
    distractor_tracks: int = 0

    def __post_init__(self):
        def bad(name, msg):
            raise ValidationError(name, msg)
        if not 1 <= self.frames <= 50:
            bad("frames", "must be in 1..50")
        if not 1 <= self.gt_tracks <= 4:
            bad("gt_tracks", "must be in 1..4")
        if self.queries < 1:
            bad("queries", "must be positive")
        for name in ("id_switch_prob", "drop_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                bad(name, "must be in [0, 1]")
        if self.box_jitter < 0:
            bad("box_jitter", "must be non-negative")
        if self.segment_noise < 0:
            bad("segment_noise", "must be non-negative")
        if self.distractor_tracks < 0:
            bad("distractor_tracks", "must be non-negative")


def _make_track(rng: random.Random, track_id: int, frames: int) -> Track:
    x0 = rng.randint(0, 20)
    y0 = rng.randint(0, 20)
    w = rng.randint(4, 10)
    h = rng.randint(4, 10)
    vx = rng.choice((-1, 0, 1))
    vy = rng.choice((-1, 0, 1))
    dets = tuple(
        Detection(frame=t, track_id=track_id,
                  box=BoundingBox(x=x0 + vx * (t - 1), y=y0 + vy * (t - 1),
                                  w=w, h=h))
        for t in range(1, frames + 1))
    return Track(track_id=track_id, detections=dets)


def _make_segments(rng: random.Random, frames: int) -> tuple[TemporalSegment, ...]:
    if frames >= 8 and rng.random() < 0.3:
        cut = rng.randint(3, frames - 4)
        first_end = rng.randint(1, cut - 1) if cut > 1 else 1
        second_start = rng.randint(cut + 1, frames - 1)
        return (TemporalSegment(1, max(1, first_end)),
                TemporalSegment(second_start, rng.randint(second_start, frames)))
    start = rng.randint(1, frames)
    return (TemporalSegment(start, rng.randint(start, frames)),)


def generate(spec: ScenarioSpec
             ) -> tuple[GroundTruthBundle, list[PredictionSet]]:
    """Deterministic in the seed: same spec, same output objects."""
    rng = random.Random(spec.seed)
    frames = spec.frames
    n_ref = spec.gt_tracks
    total_tracks = n_ref + spec.distractor_tracks
    tracks = {tid: _make_track(rng, tid, frames)
              for tid in range(1, total_tracks + 1)}
    referent_ids = list(range(1, n_ref + 1))

    queries = []
    for qi in range(1, spec.queries + 1):
        chosen = sorted(rng.sample(referent_ids, rng.randint(1, n_ref)))
        referents = tuple(
            Referent(gt_track_id=tid, gt_segments=_make_segments(rng, frames))
            for tid in chosen)
        queries.append(Query(
            query_id=f"q{qi:03d}", video_id=_SYNTH_VIDEO_ID,
            text=f"synthetic action query {qi}", referents=referents))

    predictions = [_predict(spec, rng, tracks, query, frames)
                   for query in queries]
    bundle = GroundTruthBundle(videos={_SYNTH_VIDEO_ID: VideoGroundTruth(
        video_id=_SYNTH_VIDEO_ID, tracks=tracks, queries=queries)})
    return bundle, predictions


def _predict(spec: ScenarioSpec, rng: random.Random, tracks, query: Query,
             frames: int) -> PredictionSet:
    corrupted = (spec.box_jitter > 0 or spec.id_switch_prob > 0
                 or spec.drop_prob > 0 or spec.segment_noise > 0)
    ref_ids = [r.gt_track_id for r in query.referents]
    # Per-frame identity permutation; a switch swaps two identities from
    # that frame onward.
    identity = {tid: tid for tid in ref_ids}
    per_track_dets: dict[int, list[Detection]] = {}
    for frame in range(1, frames + 1):
        if len(ref_ids) >= 2 and rng.random() < spec.id_switch_prob:
            a, b = rng.sample(ref_ids, 2)
            identity[a], identity[b] = identity[b], identity[a]
        for referent in query.referents:
            tid = referent.gt_track_id
            if not any(s.covers(frame) for s in referent.gt_segments):
                continue
            if rng.random() < spec.drop_prob:
                continue
            det = next(d for d in tracks[tid].detections if d.frame == frame)
            box = det.box
            if spec.box_jitter > 0:
                box = BoundingBox(
                    x=box.x + rng.gauss(0.0, spec.box_jitter),
                    y=box.y + rng.gauss(0.0, spec.box_jitter),
                    w=box.w, h=box.h)
            pid = identity[tid]
            per_track_dets.setdefault(pid, []).append(
                Detection(frame=frame, track_id=pid, box=box, score=1.0))
    # Predictions also track the distractor objects (false positives by the
    # per-query evaluation rule).
    for tid, track in tracks.items():
        if tid <= spec.gt_tracks or spec.distractor_tracks == 0:
            continue
        per_track_dets[tid] = [
            Detection(frame=d.frame, track_id=tid, box=d.box, score=1.0)
            for d in track.detections]
    pred_tracks = tuple(
        Track(track_id=tid,
              detections=tuple(sorted(dets, key=lambda d: d.frame)))
        for tid, dets in sorted(per_track_dets.items()))
    known = {t.track_id for t in pred_tracks}

    temporal: dict[int, tuple[ScoredSegment, ...]] = {}
    for referent in query.referents:
        tid = referent.gt_track_id
        if tid not in known:
            continue
        segments = []
        for seg in referent.gt_segments:
            start, end = seg.start, seg.end
            if spec.segment_noise > 0:
                start = min(frames, max(1, start + rng.randint(
                    -spec.segment_noise, spec.segment_noise)))
                end = min(frames, max(start, end + rng.randint(
                    -spec.segment_noise, spec.segment_noise)))
            score = 1.0 if not corrupted else round(rng.uniform(0.5, 1.0), 3)
            segments.append(ScoredSegment(
                segment=TemporalSegment(start, end), score=score))
        temporal[tid] = tuple(segments)
    for tid in sorted(known):
        if tid > spec.gt_tracks:
            temporal[tid] = (ScoredSegment(
                segment=TemporalSegment(1, frames), score=0.3),)
    return PredictionSet(query_id=query.query_id, video_id=_SYNTH_VIDEO_ID,
                         tracks=pred_tracks, temporal=temporal)


def _num(value) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def write_split(out_dir, dataset: str, bundle: GroundTruthBundle,
                predictions=None) -> None:
    """Write a bundle (and optionally predictions) in the exact ingest
    formats, so generated scenarios double as format conformance tests.
    Deterministic: same inputs give byte-identical directories."""
    import json
    from pathlib import Path

    from .ingest import (GT_TRACKS_FILENAME, PRED_TEMPORAL_FILENAME,
                         PRED_TRACKS_FILENAME, QUERIES_FILENAME)

    root = Path(out_dir)
    gt_base = root / "gt" / dataset
    for video_id in sorted(bundle.videos):
        video = bundle.videos[video_id]
        video_dir = gt_base / video_id
        video_dir.mkdir(parents=True, exist_ok=True)
        lines = []
        for tid in sorted(video.tracks):
            for det in video.tracks[tid].detections:
                box = det.box
                lines.append(",".join([
                    str(det.frame), str(tid), _num(box.x), _num(box.y),
                    _num(box.w), _num(box.h)]))
        (video_dir / GT_TRACKS_FILENAME).write_text(
            "\n".join(lines) + "\n", encoding="utf-8")
        doc = {
            "video_id": video_id,
            "queries": [
                {
                    "query_id": q.query_id,
                    "text": q.text,
                    "referents": [
                        {"track_id": r.gt_track_id,
                         "segments": [[s.start, s.end] for s in r.gt_segments]}
                        for r in q.referents
                    ],
                }
                for q in video.queries
            ],
        }
        (video_dir / QUERIES_FILENAME).write_text(
            json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    if not predictions:
        return
    pred_base = root / "pred" / dataset
    for predset in predictions:
        query_dir = pred_base / predset.video_id / predset.query_id
        query_dir.mkdir(parents=True, exist_ok=True)
        lines = []
        for track in sorted(predset.tracks, key=lambda t: t.track_id):
            for det in track.detections:
                box = det.box
                score = 1.0 if det.score is None else det.score
                lines.append(",".join([
                    str(det.frame), str(track.track_id), _num(box.x),
                    _num(box.y), _num(box.w), _num(box.h), _num(score)]))
        (query_dir / PRED_TRACKS_FILENAME).write_text(
            "\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
        doc = {
            "query_id": predset.query_id,
            "video_id": predset.video_id,
            "tracks": [
                {"track_id": tid,
                 "segments": [{"start": s.segment.start,
                               "end": s.segment.end,
                               "score": s.score}
                              for s in predset.temporal[tid]]}
                for tid in sorted(predset.temporal)
            ],
        }
        (query_dir / PRED_TEMPORAL_FILENAME).write_text(
            json.dumps(doc, indent=2) + "\n", encoding="utf-8")


# --------------------------------------------------------------------------
# Brute-force oracles (independent of the engine's matching/metric code).
# --------------------------------------------------------------------------

_ORACLE_ALPHAS = tuple(Fraction(step, 100) for step in range(5, 100, 5))
_ORACLE_EPS = Fraction(1, 10000)

MAX_ORACLE_TRACKS = 4
MAX_ORACLE_FRAMES = 10
MAX_ORACLE_CANDIDATES = 20


def _oracle_iou(a: BoundingBox, b: BoundingBox) -> Fraction:
    fx = Fraction
    left = max(fx(a.x), fx(b.x))
    right = min(fx(a.x) + fx(a.w), fx(b.x) + fx(b.w))
    top = max(fx(a.y), fx(b.y))
    bottom = min(fx(a.y) + fx(a.h), fx(b.y) + fx(b.h))
    if right <= left or bottom <= top:
        return Fraction(0)
    inter = (right - left) * (bottom - top)
    return inter / (fx(a.w) * fx(a.h) + fx(b.w) * fx(b.h) - inter)


def _enumerate_matchings(gids, pids, allowed):
    """Every one-to-one partial matching over the allowed pairs."""
    if not gids:
        yield []
        return
    g, rest = gids[0], gids[1:]
    for matching in _enumerate_matchings(rest, pids, allowed):
        yield matching
    for p in pids:
        if (g, p) not in allowed:
            continue
        for matching in _enumerate_matchings(
                rest, [q for q in pids if q != p], allowed):
            yield [(g, p)] + matching


def oracle_hota(gt_tracks, pred_tracks) -> HotaComponents:
    """Exhaustive re-derivation of the threshold-averaged HOTA family:
    enumerates all per-frame one-to-one assignments among pairs reaching
    the threshold, selects by (cardinality, alignment-plus-scaled-IoU sum,
    lexicographically smallest pair list), then applies the component
    formulas directly."""
    if len(gt_tracks) > MAX_ORACLE_TRACKS or len(pred_tracks) > MAX_ORACLE_TRACKS:
        raise ValueError("oracle supports at most "
                         f"{MAX_ORACLE_TRACKS} tracks per side")
    gt_by_frame: dict[int, dict[int, BoundingBox]] = {}
    pred_by_frame: dict[int, dict[int, BoundingBox]] = {}
    gt_presence: dict[int, set[int]] = {}
    pred_presence: dict[int, set[int]] = {}
    for track in gt_tracks:
        for det in track.detections:
            gt_by_frame.setdefault(det.frame, {})[track.track_id] = det.box
            gt_presence.setdefault(track.track_id, set()).add(det.frame)
    for track in pred_tracks:
        for det in track.detections:
            pred_by_frame.setdefault(det.frame, {})[track.track_id] = det.box
            pred_presence.setdefault(track.track_id, set()).add(det.frame)
    frames = sorted(set(gt_by_frame) | set(pred_by_frame))
    if len(frames) > MAX_ORACLE_FRAMES:
        raise ValueError(f"oracle supports at most {MAX_ORACLE_FRAMES} frames")

    iou_at: dict[tuple[int, int, int], Fraction] = {}
    for frame in frames:
        for gid, gbox in gt_by_frame.get(frame, {}).items():
            for pid, pbox in pred_by_frame.get(frame, {}).items():
                iou_at[(frame, gid, pid)] = _oracle_iou(gbox, pbox)

    ratio_sums = {name: Fraction(0) for name in
                  ("det_a", "det_re", "det_pr", "ass_a", "ass_re", "ass_pr",
                   "loc_a")}
    hota_values = []
    tp_sum = fn_sum = fp_sum = 0
    for alpha in _ORACLE_ALPHAS:
        align: dict[tuple[int, int], Fraction] = {}
        for gid, gframes in gt_presence.items():
            for pid, pframes in pred_presence.items():
                hits = sum(
                    1 for frame in gframes & pframes
                    if iou_at.get((frame, gid, pid), Fraction(0)) >= alpha)
                if hits:
                    align[(gid, pid)] = Fraction(
                        hits, len(gframes | pframes))

        matched: list[tuple[int, int, int]] = []  # (frame, gid, pid)
        gt_total = pred_total = 0
        for frame in frames:
            gids = sorted(gt_by_frame.get(frame, {}))
            pids = sorted(pred_by_frame.get(frame, {}))
            gt_total += len(gids)
            pred_total += len(pids)
            allowed = {
                (g, p) for g in gids for p in pids
                if iou_at[(frame, g, p)] >= alpha}
            best = None
            best_key = None
            for matching in _enumerate_matchings(gids, pids, allowed):
                pairs = sorted(matching)
                objective = sum(
                    (align[(g, p)] + _ORACLE_EPS * iou_at[(frame, g, p)]
                     for g, p in pairs), Fraction(0))
                key = (len(pairs), objective)
                if (best is None or key > best_key
                        or (key == best_key and pairs < best)):
                    best, best_key = pairs, key
            for g, p in best:
                matched.append((frame, g, p))

        tp = len(matched)
        fn = gt_total - tp
        fp = pred_total - tp
        tp_sum += tp
        fn_sum += fn
        fp_sum += fp
        if gt_total == 0 and pred_total == 0:
            for name in ratio_sums:
                ratio_sums[name] += 1
            hota_values.append(math.sqrt(float(Fraction(1))))
            continue
        det_a = Fraction(tp, tp + fn + fp) if tp + fn + fp else Fraction(0)
        det_re = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
        det_pr = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
        if tp == 0:
            ass_a = ass_re = ass_pr = loc_a = Fraction(0)
        else:
            ass_a = ass_re = ass_pr = Fraction(0)
            loc_a = Fraction(0)
            for frame, g, p in matched:
                tpa = sum(1 for f2, g2, p2 in matched
                          if g2 == g and p2 == p)
                gd = sum(1 for f in gt_presence[g])
                pd = sum(1 for f in pred_presence[p])
                fna = gd - tpa
                fpa = pd - tpa
                ass_a += Fraction(tpa, tpa + fna + fpa)
                ass_re += Fraction(tpa, tpa + fna)
                ass_pr += Fraction(tpa, tpa + fpa)
                loc_a += iou_at[(frame, g, p)]
            ass_a /= tp
            ass_re /= tp
            ass_pr /= tp
            loc_a /= tp
        ratio_sums["det_a"] += det_a
        ratio_sums["det_re"] += det_re
        ratio_sums["det_pr"] += det_pr
        ratio_sums["ass_a"] += ass_a
        ratio_sums["ass_re"] += ass_re
        ratio_sums["ass_pr"] += ass_pr
        ratio_sums["loc_a"] += loc_a
        hota_values.append(math.sqrt(float(det_a * ass_a)))

    count = len(_ORACLE_ALPHAS)
    return HotaComponents(
        hota=sum(hota_values) / count,
        det_a=float(ratio_sums["det_a"] / count),
        ass_a=float(ratio_sums["ass_a"] / count),
        det_re=float(ratio_sums["det_re"] / count),
        det_pr=float(ratio_sums["det_pr"] / count),
        ass_re=float(ratio_sums["ass_re"] / count),
        ass_pr=float(ratio_sums["ass_pr"] / count),
        loc_a=float(ratio_sums["loc_a"] / count),
        tp=tp_sum / count, fn=fn_sum / count, fp=fp_sum / count,
        alpha_averaged=True,
    )


def _oracle_interval_iou(a: TemporalSegment,
                         b: TemporalSegment) -> Fraction:
    overlap = min(a.end, b.end) - max(a.start, b.start) + 1
    if overlap <= 0:
        return Fraction(0)
    total = (a.end - a.start + 1) + (b.end - b.start + 1) - overlap
    return Fraction(overlap, total)


def _oracle_ranking(candidates) -> list[ScoredSegment]:
    """Rank by repeated best-candidate selection (no sort shortcuts)."""
    remaining = list(candidates)
    ranked = []
    while remaining:
        best = remaining[0]
        for cand in remaining[1:]:
            better = (cand.score > best.score
                      or (cand.score == best.score
                          and (cand.segment.start, cand.segment.end)
                          < (best.segment.start, best.segment.end)))
            if better:
                best = cand
        ranked.append(best)
        remaining.remove(best)
    return ranked


def oracle_temporal(pairs) -> TemporalMetrics:
    """Naive quadratic re-computation of every temporal metric, exactly."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("no referents in scope")
    for pair in pairs:
        if len(pair.predictions) > MAX_ORACLE_CANDIDATES:
            raise ValueError("oracle supports at most "
                             f"{MAX_ORACLE_CANDIDATES} candidates per pair")
    taus = (0.1, 0.3, 0.5)
    exact = {tau: Fraction(str(tau)) for tau in taus}
    n = len(pairs)
    recalls: dict[int, dict[float, float]] = {}
    for k in (1, 5, 10):
        recalls[k] = {}
        for tau in taus:
            hits = 0
            for pair in pairs:
                ranked = _oracle_ranking(pair.predictions)[:k]
                hit = False
                for cand in ranked:
                    for seg in pair.gt_segments:
                        if _oracle_interval_iou(cand.segment,
                                                seg) >= exact[tau]:
                            hit = True
                if hit:
                    hits += 1
            recalls[k][tau] = hits / n
    maps = {}
    for tau in taus:
        total_ap = 0.0
        for pair in pairs:
            ranked = _oracle_ranking(pair.predictions)
            claimed = [False] * len(pair.gt_segments)
            found = 0
            ap = 0.0
            for rank, cand in enumerate(ranked, start=1):
                choice = -1
                choice_iou = Fraction(0)
                for idx, seg in enumerate(pair.gt_segments):
                    if claimed[idx]:
                        continue
                    value = _oracle_interval_iou(cand.segment, seg)
                    if value >= exact[tau] and value > choice_iou:
                        choice = idx
                        choice_iou = value
                if choice >= 0:
                    claimed[choice] = True
                    found += 1
                    ap += found / rank
            total_ap += ap / len(pair.gt_segments)
        maps[tau] = total_ap / n
    miou_total = 0.0
    for pair in pairs:
        ranked = _oracle_ranking(pair.predictions)
        if ranked:
            best = Fraction(0)
            for seg in pair.gt_segments:
                value = _oracle_interval_iou(ranked[0].segment, seg)
                if value > best:
                    best = value
            miou_total += float(best)
    return TemporalMetrics(
        r1=recalls[1], r5=recalls[5], r10=recalls[10],
        map_at=maps, miou=miou_total / n,
    )
