"""End-to-end evaluation: ingest output -> spatial HOTA per query ->
identity mapping -> temporal metrics -> per-dataset report.

The layers meet in three steps per query: ``hota_sweep`` matches each
frame at threshold 0.5 (among the others) and maps each ground-truth
identity to its most frequent predicted counterpart there by majority
vote; ``build_temporal_pairs`` then pairs every referent's ground-truth
segments with the scored segments of its mapped track, naming it.

``evaluate_datasets`` is the one scorer of in-memory splits. It first
refuses an NMS threshold outside [0, 1], then runs ``validate_split`` on
every split and refuses, with a ``ValueError`` listing them, any error
diagnostic (a duplicate query id, an unresolved referent, a duplicate or
orphan prediction set), so no such input is scored. ``evaluate_query``
scores each (video, query) once, as a pure function over immutable inputs.
Before anything is scored, the queries of all datasets become one list of
tasks in canonical (dataset, video_id, query position) order: each task is
one video that has queries, with all of them. ``_evaluate_video`` runs
every task, in this process when there is one worker and otherwise in one
pool of at most ``jobs`` workers, and no more than there are tasks or CPUs
this process may run on; a pool receives each video once. The worker
count decides only where a task runs. Every reduction, the duplicate vote
winners read from each query's temporal pairs included, walks the same
task list, so the report bytes and the log never depend on the worker
count.
"""
from __future__ import annotations

import logging

from ._util import usable_cpus
from .ingest import VideoGroundTruth, validate_split
from .model import HotaComponents, PredictionSet, Query
from .report import DatasetReport, FinalReport, build_final_report
from .spatial import hota_sweep, mean_components, restrict_track
from .temporal import (TemporalPair, build_temporal_pairs, evaluate_temporal,
                       nms)

log = logging.getLogger(__name__)


def evaluate_query(video: VideoGroundTruth, query: Query,
                   predset: PredictionSet | None
                   ) -> tuple[HotaComponents, list[TemporalPair]]:
    """Spatial components and temporal pairs for one (video, query).

    GT is the query's referent tracks restricted to their action segments;
    every predicted detection participates, so predictions tracking
    non-referent objects become false positives. A missing prediction set
    scores zero. A referent whose track is not in the video raises
    ValueError, as ``validate_split`` reports it."""
    gt_tracks = []
    for referent in query.referents:
        track = video.tracks.get(referent.gt_track_id)
        if track is None:
            raise ValueError(
                f"{video.video_id}/{query.query_id}: unresolved referent: "
                f"track {referent.gt_track_id} not in GT tracks")
        gt_tracks.append(restrict_track(track, referent.gt_segments))
    pred_tracks = list(predset.tracks) if predset is not None else []
    sweep = hota_sweep(gt_tracks, pred_tracks)
    return sweep.components, build_temporal_pairs(sweep.id_map, query,
                                                  predset)


def _evaluate_video(video: VideoGroundTruth, items
                    ) -> list[tuple[HotaComponents, list[TemporalPair]]]:
    """``evaluate_query`` over one video's (query, prediction set or
    None) items, in order: one task, run here or in a pool worker."""
    return [evaluate_query(video, query, predset) for query, predset in items]


def _duplicate_winners(pairs) -> dict[int, list[int]]:
    """Predicted ids that won the vote for more than one referent of a
    query, each with those referents' GT ids in ascending order."""
    by_pred: dict[int, list[int]] = {}
    for pair in pairs:
        if pair.pred_track_id is not None:
            by_pred.setdefault(pair.pred_track_id, []).append(
                pair.gt_track_id)
    return {pid: sorted(gids) for pid, gids in by_pred.items()
            if len(gids) > 1}


def evaluate_datasets(splits, nms_threshold: float | None,
                      jobs: int = 1) -> FinalReport:
    """Validate every split, score all their queries and aggregate each
    dataset. An NMS threshold outside [0, 1], or a split with error
    diagnostics or without queries, raises ValueError before anything is
    scored; queries without predictions score 0 (logged). The worker count
    changes wall time only, never output values."""
    if nms_threshold is not None:
        nms((), nms_threshold)  # raises on a threshold outside [0, 1]
    splits = list(splits)
    names = [split.name for split in splits]
    for name in names:
        if names.count(name) > 1:
            raise ValueError(f"dataset {name!r} is given more than once")
    errors = [diag for split in splits for diag in validate_split(split)
              if diag.severity == "error"]
    if errors:
        raise ValueError(f"{len(errors)} validation error(s):\n"
                         + "\n".join(str(diag) for diag in errors))
    tasks = []  # (dataset, video, [(query, predset or None), ...])
    for split in splits:
        pred_index = {(p.video_id, p.query_id): p for p in split.predictions}
        split_tasks = [(split.name, video, [
            (query, pred_index.get((video_id, query.query_id)))
            for query in video.queries])
            for video_id, video in sorted(split.bundle.videos.items())
            if video.queries]
        if not split_tasks:
            raise ValueError(f"dataset {split.name!r} has no queries")
        tasks += split_tasks
    for name, video, items in tasks:
        for query, predset in items:
            if predset is None:
                log.warning("no predictions for %s/%s/%s; query scores 0",
                            name, video.video_id, query.query_id)
    _, videos, item_lists = zip(*tasks)
    workers = min(jobs, len(tasks), usable_cpus())
    if workers > 1:
        # Imported here: it loads multiprocessing, which one worker, the
        # set-up probe and library users never need.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_evaluate_video, videos, item_lists))
    else:
        results = list(map(_evaluate_video, videos, item_lists))
    scored = {split.name: [] for split in splits}
    for (name, video, items), video_results in zip(tasks, results):
        for (query, _), (_, query_pairs) in zip(items, video_results):
            for pid, gids in sorted(_duplicate_winners(query_pairs).items()):
                log.warning("%s/%s/%s: predicted id %d won the vote for GT "
                            "ids %s", name, video.video_id, query.query_id,
                            pid, gids)
        scored[name] += video_results
    reports = []
    for name, split_results in scored.items():
        pairs = [p for _, query_pairs in split_results for p in query_pairs]
        reports.append(DatasetReport(
            name=name,
            spatial=mean_components([c for c, _ in split_results]),
            temporal=evaluate_temporal(pairs, nms_threshold),
            query_count=len(split_results),
            referent_count=len(pairs),
        ))
    return build_final_report(reports)
