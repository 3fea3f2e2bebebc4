"""Evaluation toolkit for multi-referent spatio-temporal video action
grounding: per-query spatial tracking quality (HOTA family), identity
mapping across the spatial/temporal boundary, temporal grounding metrics
(R@k, mAP, mIoU), and the combined m-HIoU leaderboard score."""

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
from .ingest import (
    DatasetSplit,
    Diagnostic,
    GroundTruthBundle,
    IngestError,
    VideoGroundTruth,
    compute_stats,
    load_split,
    parse_prediction_bundle,
    parse_query_json,
    parse_track_csv,
    validate_split,
)
from .spatial import ALPHAS, HotaSweep, hota_sweep
from .temporal import (TemporalPair, build_temporal_pairs, evaluate_temporal,
                       nms, temporal_iou)
from .report import (
    DatasetReport,
    FinalReport,
    build_final_report,
    cross_dataset_mean,
    m_hiou,
    write_report,
)
from .pipeline import evaluate_datasets, evaluate_query

__version__ = "0.1.0"
