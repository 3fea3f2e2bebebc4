"""End-to-end evaluation: ingest output -> spatial HOTA per query ->
identity mapping -> temporal metrics -> per-dataset report.

Per-(video, query) evaluations are pure functions over immutable inputs
and may run in parallel; every reduction happens in canonical
(video_id, query position) order, so the report bytes never depend on the
worker count.
"""
from __future__ import annotations

import logging
import os
from concurrent.futures import ProcessPoolExecutor

from .idmap import TemporalPair, build_id_map, build_temporal_pairs
from .ingest import DatasetSplit, VideoGroundTruth
from .model import HotaComponents, PredictionSet, Query
from .report import DatasetReport, FinalReport, build_final_report
from .spatial import hota_sweep, mean_components, restrict_track
from .temporal import evaluate_temporal

log = logging.getLogger(__name__)


def evaluate_query(video: VideoGroundTruth, query: Query,
                   predset: PredictionSet | None
                   ) -> tuple[HotaComponents, list[TemporalPair]]:
    """Spatial components and temporal pairs for one (video, query).

    GT is the query's referent tracks restricted to their action segments;
    every predicted detection participates, so predictions tracking
    non-referent objects become false positives. A missing prediction set
    scores zero."""
    gt_tracks = []
    for referent in query.referents:
        track = video.tracks.get(referent.gt_track_id)
        if track is None:
            continue  # surfaced by validate_split
        gt_tracks.append(restrict_track(track, referent.gt_segments))
    pred_tracks = list(predset.tracks) if predset is not None else []
    components, match_05 = hota_sweep(gt_tracks, pred_tracks)
    id_map = build_id_map(match_05)
    pairs = build_temporal_pairs(id_map, [query], predset)
    return components, pairs


def _query_units(split: DatasetSplit):
    pred_index = {}
    for predset in split.predictions:
        key = (predset.video_id, predset.query_id)
        if key in pred_index:
            raise ValueError(f"dataset {split.name!r} has two prediction "
                             f"sets for {key[0]}/{key[1]}")
        pred_index[key] = predset
    known = set()
    for video_id in sorted(split.bundle.videos):
        video = split.bundle.videos[video_id]
        for query in video.queries:
            known.add((video_id, query.query_id))
            yield video, query, pred_index.get((video_id, query.query_id))
    orphans = [key for key in pred_index if key not in known]
    for video_id, query_id in sorted(orphans):
        log.warning("skipping prediction for unknown query %s/%s",
                    video_id, query_id)


def _evaluate_unit(unit):
    video, query, predset = unit
    return evaluate_query(video, query, predset)


def evaluate_split(split: DatasetSplit, nms_threshold: float | None,
                   jobs: int = 1) -> DatasetReport:
    """Evaluate every query of one dataset and aggregate. Queries without
    predictions score 0 (logged); two prediction sets for one (video,
    query) raise ValueError. The worker count changes wall time only, never
    output values."""
    units = list(_query_units(split))
    if not units:
        raise ValueError(f"dataset {split.name!r} has no queries")
    for video, query, predset in units:
        if predset is None:
            log.warning("no predictions for %s/%s; query scores 0",
                        video.video_id, query.query_id)
    if jobs > 1 and len(units) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_evaluate_unit, units,
                                    chunksize=max(1, len(units) // (4 * jobs))))
    else:
        results = [_evaluate_unit(u) for u in units]
    components = [c for c, _ in results]
    pairs = [p for _, query_pairs in results for p in query_pairs]
    return DatasetReport(
        name=split.name,
        spatial=mean_components(components),
        temporal=evaluate_temporal(pairs, nms_threshold),
        query_count=len(units),
        referent_count=len(pairs),
    )


def evaluate_datasets(splits, nms_threshold: float | None,
                      jobs: int = 1) -> FinalReport:
    reports = [evaluate_split(split, nms_threshold, jobs=jobs)
               for split in splits]
    return build_final_report(reports)


def resolve_jobs(value: str | int | None) -> int:
    if value in (None, "auto"):
        return max(1, os.cpu_count() or 1)
    jobs = int(value)
    if jobs < 1:
        raise ValueError("--jobs must be >= 1")
    return jobs
