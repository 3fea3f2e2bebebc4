import inspect

import svageval

# Every public name `import svageval` gives, submodules aside. Adding a
# name to the package's API, or removing one, is an edit to this list.
PUBLIC_NAMES = [
    "ALPHAS", "AlphaMatchResult", "BoundingBox", "DatasetReport",
    "DatasetSplit", "Detection", "Diagnostic", "FinalReport",
    "GroundTruthBundle", "HotaComponents", "IngestError", "PredictionSet",
    "Query", "Referent", "ScenarioSpec", "ScoredSegment", "TemporalMetrics",
    "TemporalPair", "TemporalSegment", "Track", "ValidationError",
    "VideoGroundTruth", "build_final_report", "build_temporal_pairs",
    "compute_stats", "cross_dataset_mean", "evaluate_datasets",
    "evaluate_query", "evaluate_temporal", "generate", "hota_at_alpha",
    "hota_sweep", "load_split", "m_hiou", "match_at_alpha", "nms",
    "oracle_hota", "oracle_temporal", "parse_prediction_bundle",
    "parse_query_json", "parse_track_csv", "temporal_iou", "validate_split",
    "write_report", "write_split",
]


def test_public_surface_is_pinned():
    exported = sorted(name for name, value in vars(svageval).items()
                      if not name.startswith("_")
                      and not inspect.ismodule(value))
    assert exported == PUBLIC_NAMES
