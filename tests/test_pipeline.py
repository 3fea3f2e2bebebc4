import dataclasses

import pytest

from svageval import pipeline
from svageval.ingest import DatasetSplit
from svageval.model import Referent, TemporalSegment
from svageval.pipeline import evaluate_datasets
from svageval.synth import ScenarioSpec, generate


def _split(name="synth"):
    bundle, predictions = generate(ScenarioSpec(
        seed=3, queries=4, id_switch_prob=0.2, box_jitter=1.5))
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
        pools = []

        class InlinePool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", InlinePool)
        splits = [_split("ovis"), _split("mot17")]
        pooled = evaluate_datasets(splits, 0.7, jobs=2)
        assert pools == [2]
        assert pooled == evaluate_datasets(splits, 0.7, jobs=1)
