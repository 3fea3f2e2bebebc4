import concurrent.futures
import dataclasses
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import svageval
from svageval import _util, pipeline
from svageval.ingest import DatasetSplit, GroundTruthBundle, VideoGroundTruth
from svageval.model import Referent, TemporalSegment, ValidationError
from svageval.pipeline import evaluate_datasets
from svageval.synth import ScenarioSpec, generate
from svageval.temporal import TemporalPair, nms


def _split(name="synth", queries=4, videos=1):
    """A split of ``videos`` generated videos, ``video0001`` onwards, the
    n-th from seed 2 + n, each with ``queries`` queries."""
    bundle = GroundTruthBundle()
    predictions = []
    for index in range(videos):
        generated, predsets = generate(ScenarioSpec(
            seed=3 + index, queries=queries, id_switch_prob=0.2,
            box_jitter=1.5))
        (video,) = generated.videos.values()
        video_id = f"video{index + 1:04d}"
        bundle.videos[video_id] = VideoGroundTruth(
            video_id, video.tracks,
            [dataclasses.replace(q, video_id=video_id) for q in video.queries])
        predictions += [dataclasses.replace(p, video_id=video_id)
                        for p in predsets]
    return DatasetSplit(name, bundle, predictions)


class TestEvaluateSplit:
    def test_duplicate_prediction_set_rejected(self):
        """A second prediction set for one (video, query) is an error, not
        a silent replacement of the first."""
        bundle, predictions = generate(ScenarioSpec(
            seed=3, queries=4, id_switch_prob=0.2, box_jitter=1.5))
        first = predictions[0]
        copy = dataclasses.replace(predictions[1], query_id=first.query_id)
        split = DatasetSplit("synth", bundle, predictions + [copy])
        with pytest.raises(ValueError,
                           match=f"{first.video_id}/{first.query_id}"):
            evaluate_datasets([split], 0.7)

    def test_duplicate_query_id_rejected(self):
        """A query id repeated in one video is refused, not scored twice
        against one prediction set."""
        split = _split()
        video = split.bundle.videos["video0001"]
        video.queries[1] = dataclasses.replace(
            video.queries[1], query_id=video.queries[0].query_id)
        with pytest.raises(ValueError, match=(
                f"synth/video0001/{video.queries[0].query_id}: "
                f"duplicate query id")):
            evaluate_datasets([split], 0.7)

    def test_unresolved_referent_rejected(self):
        """A referent without a GT track is refused, not scored without
        its spatial part."""
        split = _split()
        video = split.bundle.videos["video0001"]
        query = video.queries[0]
        video.queries[0] = dataclasses.replace(
            query, referents=query.referents
            + (Referent(99, (TemporalSegment(1, 2),)),))
        with pytest.raises(ValueError, match=(
                f"synth/video0001/{query.query_id}: unresolved referent: "
                f"track 99")):
            evaluate_datasets([split], 0.7)

    def test_orphan_prediction_set_rejected(self):
        split = _split()
        orphan = dataclasses.replace(split.predictions[0], query_id="q999")
        split.predictions.append(orphan)
        with pytest.raises(ValueError, match=(
                f"synth/{orphan.video_id}/q999: orphan prediction")):
            evaluate_datasets([split], 0.7)

    def test_repeated_dataset_rejected(self):
        """A split given twice is refused, not weighted twice in the
        cross-dataset mean."""
        with pytest.raises(ValueError, match="'ovis' is given more than once"):
            evaluate_datasets([_split("ovis"), _split("mot17"),
                               _split("ovis")], 0.7)

    def test_one_pool_for_all_datasets(self, monkeypatch):
        """All datasets' queries go through a single worker pool."""
        pools = _inline_pools(monkeypatch, cpus=4)
        splits = [_split("ovis"), _split("mot17")]
        pooled = evaluate_datasets(splits, 0.7, jobs=2)
        assert pools == [2]
        assert pooled == evaluate_datasets(splits, 0.7, jobs=1)

    def test_unresolved_referent_named_by_evaluate_query(self):
        """Library input with a referent outside the video's tracks is a
        ValueError naming the query, not a bare KeyError."""
        video = _split().bundle.videos["video0001"]
        query = video.queries[0]
        query = dataclasses.replace(query, referents=query.referents
                                    + (Referent(99, (TemporalSegment(1, 2),)),))
        with pytest.raises(ValueError, match=(
                f"^video0001/{query.query_id}: unresolved referent: "
                f"track 99 not in GT tracks$")):
            pipeline.evaluate_query(video, query, None)

    def test_bad_nms_threshold_refused_before_scoring(self, monkeypatch):
        """A threshold outside [0, 1] is refused, with the message
        ``nms`` gives, before any query is scored."""
        calls = []
        score = pipeline.evaluate_query

        def counting(*unit):
            calls.append(unit)
            return score(*unit)

        monkeypatch.setattr(pipeline, "evaluate_query", counting)
        with pytest.raises(ValueError) as expected:
            nms([], 1.5)
        with pytest.raises(ValueError) as refused:
            evaluate_datasets([_split()], 1.5)
        assert str(refused.value) == str(expected.value)
        assert calls == []


def _inline_pools(monkeypatch, cpus):
    """Make ``evaluate_datasets`` see ``cpus`` usable CPUs and map through
    an in-process pool; returns the ``max_workers`` of each pool started."""
    pools = []

    class InlinePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    # `evaluate_datasets` imports the pool class from here when it uses it.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(pipeline, "usable_cpus", lambda: cpus)
    return pools


def _record_tasks(monkeypatch):
    """Record each task ``_evaluate_video`` runs as (video_id, query ids);
    the task still runs."""
    tasks = []
    evaluate_video = pipeline._evaluate_video

    def recording(video, items):
        tasks.append((video.video_id, [q.query_id for q, _ in items]))
        return evaluate_video(video, items)

    monkeypatch.setattr(pipeline, "_evaluate_video", recording)
    return tasks


def _add_video_without_queries(split):
    """Add ``video0099``, with the tracks of ``video0001`` and no queries."""
    tracks = split.bundle.videos["video0001"].tracks
    split.bundle.videos["video0099"] = VideoGroundTruth("video0099", tracks,
                                                        [])


def _start_methods():
    return [pytest.param(method, marks=pytest.mark.skipif(
        method not in multiprocessing.get_all_start_methods(),
        reason=f"no {method} start method here"))
        for method in ("spawn", "forkserver")]


class TestWorkerPool:
    @pytest.mark.parametrize("cpus, videos, started", [
        (8, 4, [4]), (3, 4, [3]), (1, 4, []), (8, 1, [])],
        ids=["videos", "cpus", "one_cpu", "one_video"])
    def test_workers_capped_by_videos_and_cpus(self, monkeypatch, cpus,
                                               videos, started):
        """A huge ``jobs`` starts no more workers than there are videos
        or usable CPUs, and no pool when that leaves one worker: a
        one-video split is scored in this process however many queries
        it has."""
        pools = _inline_pools(monkeypatch, cpus=cpus)
        split = _split(queries=4, videos=videos)
        pooled = evaluate_datasets([split], 0.7, jobs=10**6)
        assert pools == started
        assert pooled == evaluate_datasets([split], 0.7, jobs=1)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_query_scored_once(self, monkeypatch, jobs):
        """Both paths score each query through ``evaluate_query``, once,
        in canonical order; the pool's tasks are whole videos."""
        pools = _inline_pools(monkeypatch, cpus=2)
        calls = []
        score = pipeline.evaluate_query

        def counting(video, query, predset):
            calls.append((video.video_id, query.query_id))
            return score(video, query, predset)

        monkeypatch.setattr(pipeline, "evaluate_query", counting)
        split = _split(videos=3)
        evaluate_datasets([split], 0.7, jobs=jobs)
        assert pools == ([2] if jobs == 2 else [])
        assert calls == [(video_id, query.query_id)
                         for video_id, video in sorted(
                             split.bundle.videos.items())
                         for query in video.queries]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_task_per_video(self, monkeypatch, jobs):
        """Either worker count runs the same tasks: one per video with
        queries, holding all of them, in canonical order."""
        pools = _inline_pools(monkeypatch, cpus=2)
        tasks = _record_tasks(monkeypatch)
        splits = [_split("ovis", videos=2), _split("mot17", queries=3)]
        _add_video_without_queries(splits[0])
        evaluate_datasets(splits, 0.7, jobs=jobs)
        assert pools == ([2] if jobs == 2 else [])
        assert tasks == [("video0001", ["q001", "q002", "q003", "q004"]),
                         ("video0002", ["q001", "q002", "q003", "q004"]),
                         ("video0001", ["q001", "q002", "q003"])]

    def test_video_without_queries_gets_no_worker(self, monkeypatch):
        """A video without queries is no task, so it does not raise the
        worker count: with one other video, no pool starts."""
        pools = _inline_pools(monkeypatch, cpus=8)
        tasks = _record_tasks(monkeypatch)
        split = _split()
        _add_video_without_queries(split)
        evaluate_datasets([split], 0.7, jobs=8)
        assert pools == []
        assert tasks == [("video0001", ["q001", "q002", "q003", "q004"])]

    @pytest.mark.parametrize("method", _start_methods())
    def test_real_pool_under_start_method(self, monkeypatch, method):
        """Tasks and results pickle under every start method: a real
        two-worker pool writes the report of one process."""
        context = multiprocessing.get_context(method)

        class Pool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                super().__init__(max_workers, mp_context=context)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        monkeypatch.setattr(pipeline, "usable_cpus", lambda: 2)
        splits = [_split("ovis", videos=2), _split("mot17")]
        assert evaluate_datasets(splits, 0.7, jobs=2) == \
            evaluate_datasets(splits, 0.7, jobs=1)

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        """A ValidationError raised in a worker is raised to the caller
        as that error, as with one worker, not as a broken pool."""
        monkeypatch.setattr(pipeline, "usable_cpus", lambda: 2)
        split = _split(videos=2)
        referent = split.bundle.videos["video0002"].queries[0].referents[0]
        # A referent without segments passes validate_split, but its
        # temporal pair refuses it while the query is scored.
        object.__setattr__(referent, "gt_segments", ())
        for jobs in (1, 2):
            with pytest.raises(ValidationError,
                               match="^gt_segments: must be non-empty$"):
                evaluate_datasets([split], 0.7, jobs=jobs)


def test_duplicate_winners_ignore_unmapped_referents():
    segments = (TemporalSegment(1, 2),)
    pairs = [TemporalPair("q", gid, segments, (), pid)
             for gid, pid in ((4, 5), (1, None), (3, None), (2, 5), (6, 7))]
    assert pipeline._duplicate_winners(pairs) == {5: [2, 4]}


def test_usable_cpus_without_an_affinity_set(monkeypatch):
    """Where the platform has no affinity set, the machine's CPU count is
    used, and 1 when that is unknown."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for count, usable in ((6, 6), (None, 1)):
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert _util.usable_cpus() == usable


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="no affinity set on this platform")
def test_usable_cpus_is_the_affinity_set(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3})
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert _util.usable_cpus() == 2


def test_import_loads_no_process_pool():
    """``import svageval`` loads neither multiprocessing nor
    concurrent.futures; only a pool of two or more workers imports them."""
    env = {**os.environ, "PYTHONPATH": str(Path(svageval.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, svageval; print(sorted(name for name in sys.modules "
         "if name.partition('.')[0] in ('multiprocessing', "
         "'concurrent')))"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_import_loads_no_synth():
    """Neither ``import svageval`` nor the command line loads the synthetic
    generator; only ``svageval synth`` imports it."""
    env = {**os.environ, "PYTHONPATH": str(Path(svageval.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, svageval, svageval.cli; "
         "print('svageval.synth' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
