import dataclasses

import pytest

from svageval.ingest import DatasetSplit
from svageval.pipeline import evaluate_split
from svageval.synth import ScenarioSpec, generate


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
            evaluate_split(split, nms_threshold=0.7)
